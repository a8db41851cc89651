"""Bundle-level metamorphic relation: selecting years selects rows.

A run over some of a panel's years must write, for each of those years, the
very bytes the run over every year writes: the per-year files are identical,
and each multi-year table holds exactly the full run's rows of those years.
The analyses are row reductions over a stack of every selected year, so a
year's result must not depend on which other years share its stack.
"""

from __future__ import annotations

import csv
import json

import pytest

from wnet.cli import main

from test_integration import write_gravity_panel

YEARS = tuple(range(1990, 2000))
KEPT = (1991, 1994, 1998)
PER_YEAR = ("stats_{}.csv", "density_nd_{}.csv", "density_ns_{}.csv", "ranksize_ns_{}.csv")
MULTI_YEAR = (
    "moments.csv",
    "tailfit.csv",
    "symmetry.csv",
    "counts.csv",
    "correlation_nd_ns.csv",
    "correlation_nd_annd.csv",
    "correlation_ns_anns.csv",
    "correlation_bcc_nd.csv",
    "correlation_wcc_ns.csv",
)


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """The ``all`` bundles over every year and over ``KEPT`` (named out of order)."""
    tmp = tmp_path_factory.mktemp("metamorphic")
    flows, gdp = write_gravity_panel(tmp, n=159, years=YEARS)
    inputs = ["--flows", str(flows), "--gdp", str(gdp)]
    full, kept = tmp / "full", tmp / "kept"
    assert main(["all", *inputs, "--years", f"{YEARS[0]}:{YEARS[-1]}", "--out", str(full)]) == 0
    selection = ",".join(map(str, (KEPT[2], KEPT[0], KEPT[1])))
    assert main(["all", *inputs, "--years", selection, "--out", str(kept)]) == 0
    return full, kept


def rows_of_years(text: str, years) -> list[str]:
    """The header line and the lines of ``text`` whose ``year`` field is in ``years``."""
    header, *lines = text.splitlines(keepends=True)
    at = next(csv.reader([header])).index("year")
    return [header, *(line for line in lines if int(next(csv.reader([line]))[at]) in years)]


@pytest.mark.parametrize("pattern", PER_YEAR)
def test_a_kept_years_files_are_the_full_runs(bundles, pattern):
    full, kept = bundles
    for year in KEPT:
        name = pattern.format(year)
        assert (kept / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("name", MULTI_YEAR)
def test_a_multi_year_table_holds_the_full_runs_rows_of_the_kept_years(bundles, name):
    full, kept = bundles
    whole = (full / name).read_text(encoding="utf-8")
    expected = rows_of_years(whole, KEPT)
    assert rows_of_years(whole, YEARS) == whole.splitlines(keepends=True)  # each row has a year
    assert len(expected) > 1
    assert (kept / name).read_text(encoding="utf-8").splitlines(keepends=True) == expected


def test_the_kept_years_manifest_entries_are_the_full_runs(bundles):
    manifests = [json.loads((out / "manifest.json").read_text(encoding="utf-8")) for out in bundles]
    per_year = {pattern.format(year) for pattern in PER_YEAR for year in KEPT}
    assert {name: manifests[0]["files"][name] for name in per_year} == {
        name: manifests[1]["files"][name] for name in per_year
    }
    assert manifests[1]["normalizers"] == {
        str(year): manifests[0]["normalizers"][str(year)] for year in KEPT
    }
    assert manifests[1]["density_bandwidths"] == {
        name: h for name, h in manifests[0]["density_bandwidths"].items() if name in per_year
    }
    assert sorted(p.name for p in bundles[1].iterdir()) == sorted(
        [*per_year, *MULTI_YEAR, "comparison.csv", "manifest.json"]
    )
