"""The README's Library example runs as written, so it cannot drift from the code."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(toy_csvs, monkeypatch, capsys):
    # The example reads flows.csv and gdp.csv from the working directory,
    # here the toy fixture's, and prints one correlation point per year.
    [example] = re.findall(r"## Library\n\n```python\n(.*?)```", README.read_text("utf-8"), re.S)
    monkeypatch.chdir(toy_csvs[0].parent)
    exec(compile(example, str(README), "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [int(point[0]) for point in printed] == [1999, 2000]
    assert all(len(point) == 4 and -1 <= float(point[1]) <= 1 for point in printed)
