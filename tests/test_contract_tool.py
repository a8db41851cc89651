"""``tools/contract.py``'s comparison, on two toy bundle trees.

The tool itself runs two source trees, so only its comparison runs here."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

from wnet.cli import main

from conftest import write_panel_csvs

TOOL = Path(__file__).resolve().parents[1] / "tools" / "contract.py"
_spec = importlib.util.spec_from_file_location("contract", TOOL)
contract = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract)


def two_sides(tmp_path) -> tuple[Path, Path]:
    """Two trees laid out as the tool lays them out, each holding the same
    toy ``all`` bundle and ``build`` bundle."""
    flows, gdp = write_panel_csvs(tmp_path)
    base = tmp_path / "base"
    for sequence in ("all", "build"):
        out = base / "toy" / sequence / "bundle"
        assert main([sequence, "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000",
                     "--out", str(out)]) == 0
        (out.parent / f"1-{sequence}.txt").write_text("exit 0\n", encoding="utf-8")
    change = tmp_path / "change"
    shutil.copytree(base, change)
    return base, change


def test_identical_trees_pass_with_nothing_moved(tmp_path):
    base, change = two_sides(tmp_path)
    found = contract.compare(base, change)
    assert found == {
        "identical": len(contract.files_under(base)), "changed": [], "only_base": [],
        "only_change": [], "unexpected": [], "passed": True,
    }
    # all: 18 files and the manifest; build: two link tables, counts and the manifest; a record each
    assert found["identical"] == 19 + 4 + 2


def test_a_moved_byte_and_a_file_on_one_side_are_named(tmp_path):
    base, change = two_sides(tmp_path)
    stats = change / "toy" / "all" / "bundle" / "stats_2000.csv"
    data = stats.read_bytes()
    stats.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:])  # a byte of the last line
    (change / "toy" / "build" / "bundle" / "links_2000.csv").rename(
        change / "toy" / "build" / "bundle" / "links_2001.csv"
    )
    (change / "toy" / "all" / "1-all.txt").write_text("exit 0\nbundle written to <out>\n")
    found = contract.compare(base, change)
    assert found["changed"] == ["toy/all/1-all.txt", "toy/all/bundle/stats_2000.csv"]
    assert found["only_base"] == ["toy/build/bundle/links_2000.csv"]
    assert found["only_change"] == ["toy/build/bundle/links_2001.csv"]
    assert found["unexpected"] == sorted(
        [*found["changed"], *found["only_base"], *found["only_change"]]
    )
    assert not found["passed"]
    assert found["identical"] == len(contract.files_under(base)) - 3


def test_moved_files_pass_only_where_an_expect_glob_covers_them(tmp_path):
    base, change = two_sides(tmp_path)
    (change / "toy" / "build" / "bundle" / "counts.csv").write_text("year,name,value\n")
    (change / "toy" / "build" / "bundle" / "matrix_2000.txt").write_text("1.0\n")
    assert contract.compare(base, change, ("*/build/*",))["passed"]
    found = contract.compare(base, change, ("*/build/bundle/*.csv",))
    assert found["unexpected"] == ["toy/build/bundle/matrix_2000.txt"] and not found["passed"]
    found = contract.compare(base, change, ("*/all/*",))
    assert len(found["unexpected"]) == 2 and not found["passed"]
