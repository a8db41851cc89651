"""Bundle-level metamorphic relations: transformed inputs, predictable bundles.

- Selecting years selects rows.  A run over some of a panel's years must
  write, for each of those years, the very bytes the run over every year
  writes: the per-year files are identical, and each multi-year table holds
  exactly the full run's rows of those years.  The analyses are row
  reductions over a stack of every selected year, so a year's result must
  not depend on which other years share its stack.
- Rescaling by powers of two changes only the normalizers.  Every flow times
  2**520 and every GDP times 2**-8 multiply each link weight by 2**528
  exactly, and every statistic is invariant under a global rescaling of the
  weights, so every file is byte-identical and each normalizer is exactly
  2**528 times the original, with no numpy warning at that scale.
- Shifting every year shifts only the year labels.  After the year cells
  and file names are mapped back, every file is byte-identical, so years are
  labels to the writer and nothing else.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import pytest

from wnet.cli import main

from conftest import write_gravity_panel

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


FOUR = (1990, 1991, 1992, 1993)
SHIFT = 100


def rewrite(src: Path, dst: Path, *, year=lambda y: y, value=lambda v: v) -> Path:
    """``src``'s panel CSV with each row's first (year) and last (value) cell mapped."""
    header, *lines = src.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines:
        cells = line.split(",")
        cells[0], cells[-1] = str(year(int(cells[0]))), repr(value(float(cells[-1])))
        rows.append(",".join(cells))
    dst.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return dst


def run_all(flows: Path, gdp: Path, years, out: Path) -> dict[str, bytes]:
    assert main(
        ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", f"{years[0]}:{years[-1]}", "--out", str(out)]
    ) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def data_files(bundle: dict[str, bytes]) -> dict[str, bytes]:
    return {name: text for name, text in bundle.items() if name != "manifest.json"}


@pytest.fixture(scope="module")
def four_years(tmp_path_factory):
    """The gravity panel's inputs over ``FOUR`` and its ``all`` bundle."""
    tmp = tmp_path_factory.mktemp("relations")
    flows, gdp = write_gravity_panel(tmp, n=159, years=FOUR)
    return tmp, flows, gdp, run_all(flows, gdp, FOUR, tmp / "base")


def test_power_of_two_rescaling_moves_only_the_normalizers(four_years):
    tmp, flows, gdp, base = four_years
    scaled = run_all(
        rewrite(flows, tmp / "flows_up.csv", value=lambda v: math.ldexp(v, 520)),
        rewrite(gdp, tmp / "gdp_down.csv", value=lambda v: math.ldexp(v, -8)),
        FOUR,
        tmp / "scaled",
    )
    assert data_files(scaled) == data_files(base)
    manifests = [json.loads(bundle["manifest.json"]) for bundle in (base, scaled)]
    for manifest in manifests:
        del manifest["config"]["flows"], manifest["config"]["gdp"]
    normalizers = [manifest.pop("normalizers") for manifest in manifests]
    assert manifests[0] == manifests[1]
    assert normalizers[1] == {year: math.ldexp(h, 528) for year, h in normalizers[0].items()}
    assert len(normalizers[0]) == len(FOUR)


def unshift(name: str, text: bytes) -> tuple[str, bytes]:
    """A shifted run's file under its unshifted name, its ``year`` cells mapped back."""
    name = re.sub(r"\d{4}(?=\.csv$)", lambda m: str(int(m[0]) - SHIFT), name)
    assert b'"' not in text  # plain cells: a comma always separates two
    header, *lines = text.decode("utf-8").splitlines(keepends=True)
    columns = header.rstrip("\n").split(",")
    if "year" in columns:
        at = columns.index("year")
        for i, line in enumerate(lines):
            cells = line.split(",")
            cells[at] = str(int(cells[at]) - SHIFT)
            lines[i] = ",".join(cells)
    return name, "".join([header, *lines]).encode("utf-8")


def test_shifting_every_year_shifts_only_the_year_labels(four_years):
    tmp, flows, gdp, base = four_years
    later = tuple(year + SHIFT for year in FOUR)
    shifted = run_all(
        rewrite(flows, tmp / "flows_later.csv", year=lambda y: y + SHIFT),
        rewrite(gdp, tmp / "gdp_later.csv", year=lambda y: y + SHIFT),
        later,
        tmp / "shifted",
    )
    assert dict(unshift(name, text) for name, text in data_files(shifted).items()) == data_files(base)
    normalizers = json.loads(shifted["manifest.json"])["normalizers"]
    assert {str(int(year) - SHIFT): h for year, h in normalizers.items()} == json.loads(
        base["manifest.json"]
    )["normalizers"]
    assert len(base) > 4 * len(FOUR)
