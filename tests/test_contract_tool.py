"""``tools/contract.py``'s comparison, on two toy bundle trees.

The tool itself runs two source trees, so only its comparison runs here."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import shutil
import sys
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
        "only_change": [], "unexpected": [], "floats": {}, "beyond_rtol": [], "passed": True,
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


def move_first_wcc_cell(bundle: Path, to) -> None:
    """Give the first defined ``wcc`` cell of ``stats_2000.csv`` the value
    ``to(value)``, and the manifest the file's new digest, as a run that made
    that value would."""
    stats = bundle / "stats_2000.csv"
    lines = stats.read_text(encoding="utf-8").splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines[1:], start=1) if not line.endswith(",\n"))
    head, cell = lines[at].rstrip("\n").rsplit(",", 1)
    lines[at] = f"{head},{to(float(cell))!r}\n"
    stats.write_text("".join(lines), encoding="utf-8")
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    manifest["files"][stats.name] = hashlib.sha256(stats.read_bytes()).hexdigest()
    (bundle / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def test_a_float_moved_by_one_ulp_is_reported_and_passes_where_expected(tmp_path):
    base, change = two_sides(tmp_path)
    move_first_wcc_cell(change / "toy" / "all" / "bundle", lambda v: math.nextafter(v, math.inf))
    found = contract.compare(base, change)
    stats = "toy/all/bundle/stats_2000.csv"
    assert found["changed"] == ["toy/all/bundle/manifest.json", stats]
    assert list(found["floats"]) == [stats] and list(found["floats"][stats]) == ["wcc"]
    gap = found["floats"][stats]["wcc"]
    assert gap["cells"] == 1 and gap["ulps"] == 1 and 0 < gap["rel"] < 1e-15
    assert contract.gap_lines(found["floats"]) == [
        f"floats: {stats} wcc: 1 cells moved, largest relative gap {gap['rel']:.3g}, largest gap 1 ulps"
    ]
    assert found["beyond_rtol"] == [] and not found["passed"]
    assert contract.compare(base, change, ("*/all/bundle/*",))["passed"]


def test_a_float_moved_beyond_rtol_fails_even_where_expected(tmp_path):
    base, change = two_sides(tmp_path)
    move_first_wcc_cell(change / "toy" / "all" / "bundle", lambda v: v * (1 + 1e-9))
    found = contract.compare(base, change, ("*/all/bundle/*",))
    assert found["unexpected"] == [] and found["beyond_rtol"] == ["toy/all/bundle/stats_2000.csv"]
    gap = found["floats"]["toy/all/bundle/stats_2000.csv"]["wcc"]
    assert gap["cells"] == 1 and 0.9e-9 < gap["rel"] < 1.1e-9 and gap["ulps"] > 1
    assert not found["passed"]
    assert contract.compare(base, change, ("*/all/bundle/*",), rtol=1e-8)["passed"]


def test_every_benchmark_workload_is_compared():
    sys.path.insert(0, str(TOOL.parents[1] / "perfbench"))
    try:
        from run import WORKLOADS
    finally:
        sys.path.pop(0)
    assert sorted(contract.WORKLOADS) == sorted(WORKLOADS)
