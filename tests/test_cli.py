from __future__ import annotations

import ast
import builtins
import csv
import errno
import hashlib
import io
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import warnings
from functools import partial
from itertools import chain, count, product
from pathlib import Path

import numpy as np
import pytest

import wnet.cli
import wnet.pipeline
from wnet import DataError, WeightScheme, build_directed, load_panel, symmetrize
from wnet.cli import main, read_config_file
from wnet.pipeline import LAYOUT, bundle_names, read_bundle

from conftest import assert_bundle_intact, hostile_panels, write_gravity_panel, write_panel_csvs


def run_cli(*argv):
    return main(list(argv))


def test_all_runs_end_to_end(toy_csvs, tmp_path, capsys):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    code = run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert "comparison.csv" in names and "manifest.json" in names
    printed = capsys.readouterr().out
    assert "BNA:" in printed and "WNA:" in printed


def test_stats_subcommand(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "stats"
    assert run_cli(
        "stats", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(out),
    ) == 0
    assert (out / "stats_2000.csv").exists()
    assert not (out / "moments.csv").exists()


def test_stats_tables_of_any_country_codes_read_back(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    runs = count()

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(hostile_panels(hypothesis.strategies))
    def check(drawn):
        _, flows, sizes = drawn
        (tmp_path / "f.csv").write_bytes(flows)
        (tmp_path / "s.csv").write_bytes(sizes)
        out, panel = tmp_path / f"out{next(runs)}", load_panel(flows, sizes)
        assert run_cli(
            "stats", "--flows", str(tmp_path / "f.csv"), "--gdp", str(tmp_path / "s.csv"),
            "--scheme", "raw", "--years", ",".join(map(str, panel.years)), "--out", str(out),
        ) == 0
        _, files = read_bundle(out, bundle_names({"stats"}, panel.years))
        for year in panel.years:
            columns = files["stats", year]
            assert len(columns) == 7
            assert all(len(column) == len(panel.codes) for column in columns.values())
            assert columns["country"].tolist() == list(panel.codes)

    check()


def read_links(out, years):
    """The manifest and each year's ``links_<year>.csv`` columns, through ``read_bundle``."""
    return read_bundle(out, bundle_names({"links"}, years))


@pytest.mark.parametrize("write", [write_panel_csvs, write_gravity_panel], ids=["toy", "n159"])
def test_build_writes_the_symmetrized_weight_of_every_link(tmp_path, capsys, write):
    flows, gdp = write(tmp_path, years=(1999, 2000))
    out = tmp_path / "links"
    assert run_cli(
        "build", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999,2000", "--out", str(out),
    ) == 0
    assert capsys.readouterr().out == f"wrote link tables for 2 years to {out}\n"
    panel = load_panel(flows, gdp)
    manifest, files = read_links(out, panel.years)
    for year in panel.years:
        net = symmetrize(build_directed(panel, year, WeightScheme()))
        i, j = np.nonzero(np.triu(net.adjacency, 1))  # every linked pair i < j, in code order
        table = files["links", year]
        assert table["country_i"].tolist() == [panel.codes[k] for k in i]
        assert table["country_j"].tolist() == [panel.codes[k] for k in j]
        weights = net.weights[i, j]
        assert np.array_equal(table["weight"].view(np.uint64), weights.view(np.uint64))  # bit-exact
        assert table["weight"].max() == 1.0 and len(i) == net.adjacency.sum() // 2 > 100
        assert manifest["normalizers"][str(year)] == net.normalizer


def test_build_builds_each_repeated_year_once(toy_csvs, tmp_path, monkeypatch):
    built = []
    real = wnet.pipeline.build_directed

    def counting(panel, year, scheme):
        built.append(year)
        return real(panel, year, scheme)

    monkeypatch.setattr(wnet.pipeline, "build_directed", counting)
    flows, gdp = toy_csvs
    out = tmp_path / "links"
    assert run_cli(
        "build", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000,1999,2000", "--out", str(out),
    ) == 0
    assert built == [1999, 2000]
    assert sorted(p.name for p in out.iterdir()) == [
        "counts.csv", "links_1999.csv", "links_2000.csv", "manifest.json"
    ]


def test_build_writes_the_standard_manifest_and_drops_stale_tables(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "links"
    inputs = ["--flows", str(flows), "--gdp", str(gdp), "--out", str(out)]
    for years in ("1999:2000", "2000"):
        assert run_cli("build", *inputs, "--years", years) == 0
    assert sorted(p.name for p in out.iterdir()) == ["counts.csv", "links_2000.csv", "manifest.json"]
    assert_bundle_intact(out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["files"]) == ["counts.csv", "links_2000.csv"]
    assert list(manifest["normalizers"]) == ["2000"]
    # The manifest of any run, as stats writes it but for the analyses.
    assert run_cli("stats", *inputs[:-1], str(tmp_path / "stats"), "--years", "2000") == 0
    stats = json.loads((tmp_path / "stats" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"] == {**stats["config"], "analyses": ["links"]}
    assert manifest["normalizers"] == stats["normalizers"]
    assert {k: v for k, v in manifest.items() if k not in ("config", "files")} == {
        k: v for k, v in stats.items() if k not in ("config", "files")
    }


def test_build_replaces_the_files_of_an_all_bundle(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    inputs = ["--flows", str(flows), "--gdp", str(gdp), "--years", "2000", "--out", str(out)]
    assert run_cli("all", *inputs) == 0
    (out / "notes.txt").write_text("not a bundle file", encoding="utf-8")
    assert run_cli("build", *inputs) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["counts.csv", "links_2000.csv", "manifest.json", "notes.txt"]
    assert_bundle_intact(out, keep=("notes.txt",))


def test_analyze_subcommand_default_excludes_stats(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "analysis"
    assert run_cli(
        "analyze", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(out),
    ) == 0
    names = {p.name for p in out.iterdir()}
    assert "moments.csv" in names
    assert "stats_2000.csv" not in names


def test_analyze_selected_analyses(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "analysis"
    assert run_cli(
        "analyze", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(out), "--analyses", "moments,symmetry",
    ) == 0
    names = {p.name for p in out.iterdir()}
    assert "moments.csv" in names and "symmetry.csv" in names
    assert not any(n.startswith("correlation_") for n in names)


def test_analyze_empty_analyses_is_validation_error(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    assert run_cli(
        "analyze", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(tmp_path / "o"), "--analyses", "",
    ) == 1


def test_analysis_parameters_echoed_in_manifest(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "analysis"
    assert run_cli(
        "analyze", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(out),
        "--ci-level", "0.95", "--tail-fraction", "0.1", "--bandwidth", "0.25",
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["ci_level"] == 0.95
    assert manifest["config"]["tail_fraction"] == 0.1
    assert manifest["config"]["bandwidth"] == 0.25
    assert set(manifest["density_bandwidths"].values()) == {0.25}


def test_report_reads_existing_bundle(toy_csvs, tmp_path, capsys):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "analyze", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    capsys.readouterr()
    assert run_cli("report", "--out", str(out)) == 0
    assert (out / "comparison.csv").exists()
    assert "BNA:" in capsys.readouterr().out


def test_report_keeps_manifest_in_step(toy_csvs, tmp_path, capsys):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    before = (out / "comparison.csv").read_bytes()
    assert run_cli(
        "report", "--out", str(out), "--strong-cut", "0.5", "--moderate-cut", "0.15"
    ) == 0
    capsys.readouterr()
    assert (out / "comparison.csv").read_bytes() != before
    text = (out / "manifest.json").read_text(encoding="utf-8")
    manifest = json.loads(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert manifest["config"]["strong_cut"] == 0.5
    assert manifest["config"]["moderate_cut"] == 0.15
    assert_bundle_intact(out)


def test_report_defaults_to_the_bundle_cuts(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000",
        "--out", str(out), "--strong-cut", "0.5", "--moderate-cut", "0.01",
    ) == 0
    table = (out / "comparison.csv").read_bytes()
    manifest = (out / "manifest.json").read_bytes()
    assert run_cli("report", "--out", str(out)) == 0
    assert (out / "comparison.csv").read_bytes() == table
    assert (out / "manifest.json").read_bytes() == manifest
    assert json.loads(manifest)["config"]["strong_cut"] == 0.5
    # Without a manifest there are no cuts to default to, and nothing is written.
    (out / "manifest.json").unlink()
    before = bundle_state(out)
    assert run_cli("report", "--out", str(out)) == 2
    assert bundle_state(out) == before


def test_report_without_a_manifest_exits_2_and_writes_nothing(toy_csvs, tmp_path, capsys):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    (out / "manifest.json").unlink()
    (out / "comparison.csv").unlink()
    before = bundle_state(out)
    capsys.readouterr()
    assert run_cli("report", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {out} has no manifest.json\n" and not captured.out
    assert bundle_state(out) == before
    # verify refuses the directory with the same line.
    assert run_cli("verify", "--out", str(out)) == 2
    assert capsys.readouterr().err == captured.err


#: Nesting too deep for the JSON decoder, which raises RecursionError.
DEEP_JSON = "[" * 10**5 + "]" * 10**5


@pytest.mark.parametrize("text", ["{}\n", pytest.param(DEEP_JSON, id="nested")])
def test_report_and_verify_reject_a_broken_manifest(toy_csvs, tmp_path, capsys, text):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    before = (out / "comparison.csv").read_bytes()
    (out / "manifest.json").write_text(text, encoding="utf-8")
    capsys.readouterr()
    for argv in (["report", "--out", str(out), "--strong-cut", "0.5"], ["verify", "--out", str(out)]):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "manifest.json is not a wnet manifest" in err
    assert (out / "comparison.csv").read_bytes() == before
    assert (out / "manifest.json").read_text(encoding="utf-8") == text


def test_report_rejects_a_cut_past_the_float_range(toy_csvs, tmp_path, capsys):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli("all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000",
                   "--out", str(out)) == 0
    text = (out / "manifest.json").read_text(encoding="utf-8")
    text = text.replace('"strong_cut": 0.7', '"strong_cut": 1' + "0" * 400)
    (out / "manifest.json").write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli("report", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "manifest.json is not a wnet manifest" in err and err.count("\n") == 1, err
    assert (out / "manifest.json").read_text(encoding="utf-8") == text


def test_report_rejects_inverted_cuts(toy_csvs, tmp_path, capsys):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    manifest = (out / "manifest.json").read_bytes()
    assert run_cli(
        "report", "--out", str(out), "--strong-cut", "0.2", "--moderate-cut", "0.5"
    ) == 1
    assert "moderate cut <= strong cut" in capsys.readouterr().err
    assert (out / "manifest.json").read_bytes() == manifest


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, wnet.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_declared_dependencies_are_the_imported_modules():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep)[0].lower() for dep in project["dependencies"]}
    imported = set()
    for path in (root / "src" / "wnet").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert declared == imported - set(sys.stdlib_module_names) - {"wnet"}


def test_every_module_parses_at_the_declared_python_floor():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floor = tuple(map(int, re.fullmatch(r">=(\d+)\.(\d+)", project["requires-python"]).groups()))
    paths = [path for part in ("src/wnet", "tests", "tools") for path in (root / part).rglob("*.py")]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


def bundle_state(out: Path) -> dict[str, bytes | None]:
    """Each entry of ``out`` by name: a file's bytes, or None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}


def vouch_for(path: Path) -> None:
    """Write the sha256 of the bundle file ``path`` into its bundle's manifest,
    as a run that wrote those bytes would."""
    manifest_path = path.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["files"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    manifest_path.write_text(text, encoding="utf-8")


#: Correlation series bodies that ``report`` cannot parse.
BROKEN_SERIES = [
    "year,pair,ci_low,ci_high,n\n2000,ND-ANND,-0.5,-0.4,60\n",
    "year,pair,r,ci_low,ci_high,n\n2000,ND-ANND,abc,-0.5,-0.4,60\n",
    "year,pair,r,ci_low,ci_high,n\n2000,ND-ANND,-0.5,-0.6,-0.4\n",  # a cell short
    # n past int64:
    "year,pair,r,ci_low,ci_high,n\n2000,ND-ANND,-0.5,-0.6,-0.4,99999999999999999999\n",
    "year,pair,r,ci_low,ci_high,n\n2000.0,ND-ANND,-0.5,-0.6,-0.4,60\n",  # the year is an integer
]

#: r values that no label fits.
UNLABELLED_R = ["nan", "inf", "-inf", "1.5", "-1.0000000000000002"]


def set_r(series: Path, r: str) -> None:
    """Set the 2000 r of the 1999:2000 correlation series file ``series`` to the text ``r``."""
    rows = list(csv.DictReader(io.StringIO(series.read_text(encoding="utf-8"))))
    assert [row["year"] for row in rows] == ["1999", "2000"]
    rows[1]["r"] = r
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    series.write_text(text.getvalue(), encoding="utf-8")


@pytest.mark.parametrize("body", BROKEN_SERIES)
def test_report_rejects_a_broken_correlation_series(toy_csvs, tmp_path, capsys, body):
    # The manifest vouches for the edited body, so the parser is what refuses it.
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    broken = out / "correlation_nd_annd.csv"
    broken.write_text(body, encoding="utf-8")
    vouch_for(broken)
    before = bundle_state(out)
    capsys.readouterr()
    assert run_cli("report", "--out", str(out), "--strong-cut", "0.5") == 2
    err = capsys.readouterr().err
    # A body without an r column fails the header check, at line 1.
    has_r = body.startswith("year,pair,r,")
    where = "line 2: bad correlation row" if has_r else "line 1: the header must be"
    assert f"{broken}, {where}" in err
    assert "Traceback" not in err
    assert bundle_state(out) == {**before, broken.name: body.encode()}


@pytest.mark.parametrize("r", UNLABELLED_R)
def test_report_refuses_a_correlation_it_cannot_label(toy_csvs, tmp_path, capsys, r):
    # The manifest vouches for the edited r, so compare_views is what refuses it.
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    set_r(out / "correlation_nd_annd.csv", r)
    vouch_for(out / "correlation_nd_annd.csv")
    before = bundle_state(out)
    capsys.readouterr()
    assert run_cli("report", "--out", str(out), "--strong-cut", "0.5") == 2
    captured = capsys.readouterr()
    message = f"the ND-ANND correlation of year 2000 is {float(r)!r}, not in [-1, 1]"
    assert captured.err == f"error: {message}\n"
    assert not captured.out
    assert bundle_state(out) == before


#: Edits of a manifested bundle's ND-ANND series, by name, each given the series' path.
SERIES_EDITS = {
    "r 0.9": partial(set_r, r="0.9"),  # a valid r that moves the BNA label
    **{f"r {r}": partial(set_r, r=r) for r in UNLABELLED_R},
    **{f"body {i}": partial(Path.write_text, data=body) for i, body in enumerate(BROKEN_SERIES)},
    "deleted": Path.unlink,
    "a directory": lambda series: (series.unlink(), series.mkdir()),
    "unlisted": None,  # every series copied into a bundle run without correlations
}


@pytest.mark.parametrize("edit", list(SERIES_EDITS))
def test_report_reads_only_series_its_manifest_vouches_for(toy_csvs, tmp_path, capsys, edit):
    flows, gdp = toy_csvs
    run = ("all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000")
    out = tmp_path / "bundle"
    series = out / "correlation_nd_annd.csv"
    if SERIES_EDITS[edit] is None:
        assert run_cli(*run, "--out", str(tmp_path / "full")) == 0
        assert run_cli(*run, "--analyses", "stats", "--out", str(out)) == 0
        for path in (tmp_path / "full").glob("correlation_*.csv"):
            shutil.copy(path, out)
    else:
        assert run_cli(*run, "--out", str(out)) == 0
        SERIES_EDITS[edit](series)
    before = bundle_state(out)
    capsys.readouterr()
    assert run_cli("report", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {series} does not match manifest.json: it is ")
    assert captured.err.count("\n") == 1 and not captured.out
    assert bundle_state(out) == before


def test_report_does_not_read_the_nd_ns_series(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    before = bundle_state(out)
    (out / "correlation_nd_ns.csv").write_text("year,pair\nnot,a,series\n", encoding="utf-8")
    assert run_cli("report", "--out", str(out)) == 0
    for name in ("comparison.csv", "manifest.json"):
        assert (out / name).read_bytes() == before[name]


@pytest.mark.parametrize("target", ["flows", "gdp", "out"])
def test_io_errors_are_data_errors(toy_csvs, tmp_path, capsys, target):
    flows, gdp = toy_csvs
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory", encoding="utf-8")
    paths = {"flows": flows, "gdp": gdp, "out": tmp_path / "o"}
    paths[target] = blocker / "o" if target == "out" else tmp_path / f"no-{target}.csv"
    assert run_cli(
        "stats", "--flows", str(paths["flows"]), "--gdp", str(paths["gdp"]),
        "--years", "2000", "--out", str(paths["out"]),
    ) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and str(paths[target]) in errors[0]


def fail_write(monkeypatch, k: int) -> None:
    """Make the ``k``-th staged file write from now on fail as on a full disk."""
    calls = iter(range(1, k + 1))
    real = wnet.pipeline._write_staged
    def write(path, data):
        if next(calls, None) == k:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return real(path, data)
    monkeypatch.setattr(wnet.pipeline, "_write_staged", write)


@pytest.mark.parametrize("first, rerun", [
    (["all", "--years", "1999:2000"], ["all", "--years", "2000", "--strong-cut", "0.5"]),
    (["all", "--years", "1999:2000"], ["report", "--strong-cut", "0.5", "--moderate-cut", "0.1"]),
    (["build", "--years", "1999:2000"], ["build", "--years", "2000", "--threshold", "1000"]),
])
def test_a_failed_write_leaves_the_previous_bundle(
    toy_csvs, tmp_path, capsys, monkeypatch, first, rerun
):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    inputs = ["--flows", str(flows), "--gdp", str(gdp)]
    assert run_cli(*first, *inputs, "--out", str(out)) == 0
    before = bundle_state(out)
    rerun = [*rerun, "--out", str(out), *(inputs if rerun[0] != "report" else [])]
    for k in count(1):  # until the rerun makes fewer than k writes
        with monkeypatch.context() as patch:
            fail_write(patch, k)
            code = run_cli(*rerun)
        err = capsys.readouterr().err
        if code == 0:
            break
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (k, err)
        assert "No space left on device" in err
        assert not list(out.glob(".wnet-*")) and bundle_state(out) == before, k
    assert k > 2  # a data file and the manifest, at least
    assert bundle_state(out) != before
    assert_bundle_intact(out)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def writer_processes(monkeypatch, parts: int) -> list[int]:
    """Make ``write_bundle`` write in ``parts`` processes: with 1, every fork
    fails as when no process can be spared.  The returned list gains one
    entry for each fork this process makes."""
    forks = []
    real_fork = os.fork
    def fork():
        if parts == 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        forks.append(os.getpid())
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return forks


def fail_writes(name: str):
    """A staged file write that writes half of ``name``'s bytes and then fails
    as on a full disk."""
    real = wnet.pipeline._write_staged
    def write(path, data):
        if os.path.basename(path) == name:
            real(path, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return real(path, data)
    return write


@needs_fork
@pytest.mark.parametrize("commands", [
    [["all", "--years", "1990:2000"]],
    [["stats", "--years", "1990:2000"]],
    [["analyze", "--years", "1990:2000", "--analyses", "density,ranksize,tailfit"]],
    [["all", "--years", "1990:2000"], ["report", "--strong-cut", "0.5", "--moderate-cut", "0.1"]],
    [["build", "--years", "1990:2000"]],
])
def test_one_and_two_writer_processes_write_the_same_bundle(
    tmp_path, capsys, monkeypatch, commands
):
    flows, gdp = write_panel_csvs(tmp_path, years=tuple(range(1990, 2001)))
    inputs = ["--flows", str(flows), "--gdp", str(gdp)]
    bundles, printed = [], []
    for parts in (1, 2):
        out = tmp_path / f"out{parts}"
        with monkeypatch.context() as patch:
            forks = writer_processes(patch, parts)
            for command in commands:
                args = [*command, "--out", str(out), *(inputs if command[0] != "report" else [])]
                assert run_cli(*args) == 0
        assert bool(forks) == (parts == 2)
        assert_no_child_left()
        assert_bundle_intact(out)
        bundles.append(bundle_state(out))
        printed.append(capsys.readouterr().out.replace(str(out), "OUT"))
    assert len(bundles[0]) >= 12
    assert bundles[0] == bundles[1] and printed[0] == printed[1]


def test_the_commit_reads_no_staged_file_back(toy_csvs, tmp_path, monkeypatch):
    flows, gdp = toy_csvs
    real = Path.read_bytes
    def read_bytes(self):  # each digest must come from the bytes as they are written
        if any(part.startswith(".wnet-") for part in self.parts):
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(self))
        return real(self)
    out = tmp_path / "bundle"
    with monkeypatch.context() as patch:
        patch.setattr(Path, "read_bytes", read_bytes)
        assert run_cli(
            "all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000", "--out", str(out)
        ) == 0
    assert_bundle_intact(out)


@needs_fork
@pytest.mark.parametrize("parts", [1, 2])
def test_no_staged_file_is_opened_to_truncate(toy_csvs, tmp_path, monkeypatch, parts):
    # The staging directory is new and the creating child writes no byte, so
    # a staged file is empty or absent when the commit writes it; truncating
    # it would only cost a flush to disk at close on some filesystems.
    flows, gdp = toy_csvs
    opened = []  # (path, truncates) of each open of a path in this process
    real_os_open, real_open = os.open, open
    def os_open(path, flags, *args, **kwargs):
        opened.append((Path(path), bool(flags & os.O_TRUNC)))
        return real_os_open(path, flags, *args, **kwargs)
    def open_(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append((Path(file), "w" in mode))
        return real_open(file, mode, *args, **kwargs)
    out = tmp_path / "bundle"
    with monkeypatch.context() as patch:
        writer_processes(patch, parts)
        patch.setattr(os, "open", os_open)
        for module in (builtins, io):
            patch.setattr(module, "open", open_)
        assert run_cli(
            "all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000", "--out", str(out)
        ) == 0
    assert_no_child_left()
    assert_bundle_intact(out)
    staged = [(path, truncates) for path, truncates in opened if path.parent.name.startswith(".wnet-")]
    assert {path.name for path, _ in staged} == {p.name for p in out.iterdir()}
    assert not [path.name for path, truncates in staged if truncates]


class LocalError(Exception):
    """A maker's own exception type."""


def fail_stats_2000(make_error):
    """A ``format_table`` that raises what ``make_error`` returns when it makes
    the second stats table of a run, year 2000's."""
    real, stats = wnet.pipeline.format_table, count()
    def format_table(header, *columns):
        if header == LAYOUT["stats"][0] and next(stats) == 1:
            raise make_error()
        return real(header, *columns)
    return format_table


@needs_fork
def test_a_full_disk_in_both_processes_leaves_the_previous_bundle(
    toy_csvs, tmp_path, capsys, monkeypatch
):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000", "--out", str(out)]
    assert run_cli(*args) == 0
    before = bundle_state(out)
    capsys.readouterr()
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        patch.setattr(wnet.pipeline, "_write_staged", fail_writes("stats_2000.csv"))
        assert run_cli(*args, "--strong-cut", "0.5") == 2
    assert forks == [os.getpid()]  # the creating child
    assert_no_child_left()
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "Traceback" not in err and "internal error" not in err, err
    assert errors[0].startswith("error: [Errno 28] No space left on device: ")
    assert errors[0].endswith("stats_2000.csv'")
    assert not list(out.glob(".wnet-*")) and bundle_state(out) == before
    assert run_cli("verify", "--out", str(out)) == 0


@needs_fork
@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("error", [LocalError, ValueError])
def test_a_maker_error_in_the_main_process_is_an_internal_error(
    toy_csvs, tmp_path, capsys, monkeypatch, parts, error
):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000", "--out", str(out)]
    with monkeypatch.context() as patch:
        writer_processes(patch, parts)
        patch.setattr(wnet.pipeline, "format_table", fail_stats_2000(partial(error, "bad cell")))
        code = run_cli(*args)
    assert_no_child_left()
    err = capsys.readouterr().err
    assert code == 3 and err == "internal error: bad cell\n", err
    assert not out.exists() or not list(out.iterdir())


@needs_fork
def test_an_interrupt_in_the_parent_reaps_the_creating_child(toy_csvs, tmp_path, monkeypatch):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000", "--out", str(out)]
    assert run_cli(*args) == 0
    before = bundle_state(out)
    def write(path, data):
        raise KeyboardInterrupt
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        patch.setattr(wnet.pipeline, "_write_staged", write)
        with pytest.raises(KeyboardInterrupt):
            run_cli(*args, "--strong-cut", "0.5")
    assert forks == [os.getpid()]  # the creating child
    assert_no_child_left()
    assert not list(out.glob(".wnet-*")) and bundle_state(out) == before


@needs_fork
@pytest.mark.parametrize("fault", [None, "main"])
def test_the_creating_child_is_reaped_before_the_staging_directory_goes(
    toy_csvs, tmp_path, monkeypatch, fault
):
    flows, gdp = toy_csvs
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000"]
    children = []  # for each rmtree: whether this process still had a child
    real = shutil.rmtree
    def rmtree(path, *a, **kw):
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            children.append(False)
        else:
            children.append(True)
        return real(path, *a, **kw)
    with monkeypatch.context() as patch:
        writer_processes(patch, 2)
        patch.setattr(shutil, "rmtree", rmtree)
        if fault == "main":
            patch.setattr(wnet.pipeline, "_write_staged", fail_writes("stats_1999.csv"))
        assert run_cli(*args, "--out", str(tmp_path / "bundle")) == (2 if fault == "main" else 0)
    assert children == [False]
    assert_no_child_left()


def one_process_bundle(tmp_path, monkeypatch, args) -> dict[str, bytes]:
    """The bundle ``args`` give with one writer process and no staging child."""
    out = tmp_path / "one"
    with monkeypatch.context() as patch:
        assert not writer_processes(patch, 1)
        assert run_cli(*args, "--out", str(out)) == 0
    return bundle_state(out)


@needs_fork
def test_the_staging_child_is_stopped_once_every_file_is_made(toy_csvs, tmp_path, monkeypatch):
    flows, gdp = toy_csvs
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000"]
    out = tmp_path / "bundle"
    children, events = [], []  # events: ("kill" | "reap", pid, sizes staged) or ("rename", name)
    real_kill, real_waitpid, real_replace = os.kill, os.waitpid, os.replace
    def staged():
        (staging,) = out.glob(".wnet-*")
        return {p.name: p.stat().st_size for p in staging.iterdir()}
    def kill(pid, sig):
        events.append(("kill", pid, sig))
        return real_kill(pid, sig)
    def waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        events.append(("reap", pid, staged()))
        return reaped
    def replace(src, dst):
        events.append(("rename", Path(dst).name))
        return real_replace(src, dst)
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        counting_fork = os.fork
        def fork():
            pid = counting_fork()
            children.extend([pid] if pid else [])
            return pid
        for name, fake in ("fork", fork), ("kill", kill), ("waitpid", waitpid), ("replace", replace):
            patch.setattr(os, name, fake)
        assert run_cli(*args, "--out", str(out)) == 0
    assert forks == [os.getpid()]
    (creator,) = children
    listed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
    # The creating child is killed and reaped, and only then is anything
    # renamed: by then every file is made, none empty.
    assert [event[:2] for event in events[:2]] == [("kill", creator), ("reap", creator)]
    assert events[0][2] == signal.SIGKILL
    assert events[1][2] == {name: (out / name).stat().st_size for name in listed}
    assert all(events[1][2].values())
    renamed = [name for kind, name in events[2:]]
    assert sorted(renamed[:-1]) == sorted(listed) and renamed[-1] == "manifest.json"
    assert_no_child_left()
    assert_bundle_intact(out)
    assert bundle_state(out) == one_process_bundle(tmp_path, monkeypatch, args)
    modes = [{p.name: p.stat().st_mode for p in d.iterdir()} for d in (out, tmp_path / "one")]
    assert modes[0] == modes[1]


@needs_fork
def test_the_creating_child_makes_every_file_empty_while_the_caller_computes(
    tmp_path, monkeypatch
):
    names = [f"f{i}.csv" for i in range(50)]
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        with wnet.pipeline.write_bundle(out, names) as commit:
            (staging,) = out.glob(".wnet-*")
            deadline = time.monotonic() + 30
            while len(list(staging.iterdir())) < len(names) and time.monotonic() < deadline:
                time.sleep(0.01)
            # This process has made nothing yet, so the child made each file, empty.
            assert {p.name: p.stat().st_size for p in staging.iterdir()} == dict.fromkeys(names, 0)
            commit({name: partial(str, name) for name in names}, {})
    assert forks == [os.getpid()]
    assert_no_child_left()
    assert {name: (out / name).read_text() for name in names} == {name: name for name in names}
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])


@needs_fork
@pytest.mark.parametrize("made, how", [
    (0, "exit"),  # a child that dies before it creates anything
    (5, "exit"),  # one that stops part way with a non-zero status
    (5, "error"),  # one whose sixth create fails
])
def test_a_staging_child_that_stops_short_is_made_up_for(
    toy_csvs, tmp_path, capsys, caplog, monkeypatch, made, how
):
    flows, gdp = toy_csvs
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000"]
    one = one_process_bundle(tmp_path, monkeypatch, args)
    out = tmp_path / "two"
    parent, real, calls = os.getpid(), os.open, count()
    def open_(path, flags, *rest, **kw):
        if os.getpid() != parent and next(calls) == made:
            if how == "exit":
                os._exit(3)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return real(path, flags, *rest, **kw)
    caplog.clear()
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        patch.setattr(os, "open", open_)
        assert run_cli(*args, "--out", str(out)) == 0
    assert forks == [os.getpid()]
    assert_no_child_left()
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert_bundle_intact(out)
    assert bundle_state(out) == one
    capsys.readouterr()
    assert run_cli("verify", "--out", str(out)) == 0
    assert "not in the manifest" not in capsys.readouterr().out


@needs_fork
def test_a_failed_staging_fork_gives_the_one_process_bundle(toy_csvs, tmp_path, monkeypatch):
    flows, gdp = toy_csvs
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000"]
    one = one_process_bundle(tmp_path, monkeypatch, args)
    forks = count()
    def fork():  # the staging child's fork fails
        next(forks)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    monkeypatch.setattr(os, "fork", fork)
    fds = sorted(os.listdir("/dev/fd"))
    out = tmp_path / "two"
    assert run_cli(*args, "--out", str(out)) == 0
    assert next(forks) == 1  # the one fork, which failed
    assert sorted(os.listdir("/dev/fd")) == fds
    assert_no_child_left()
    assert_bundle_intact(out)
    assert bundle_state(out) == one


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("fault", [None, "full disk", "interrupt"])
def test_no_descriptor_is_left_open(toy_csvs, tmp_path, capsys, monkeypatch, fault):
    # Raw descriptors, which the ResourceWarning filter does not see.
    flows, gdp = toy_csvs
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000",
            "--out", str(tmp_path / "bundle")]
    before = len(os.listdir("/proc/self/fd"))
    with monkeypatch.context() as patch:
        if fault == "full disk":
            patch.setattr(wnet.pipeline, "_write_staged", fail_writes("stats_2000.csv"))
        if fault == "interrupt":
            patch.setattr(wnet.pipeline, "format_table", fail_stats_2000(KeyboardInterrupt))
        try:
            code = run_cli(*args)
        except KeyboardInterrupt:
            code = "interrupted"
    assert code == {None: 0, "full disk": 2, "interrupt": "interrupted"}[fault]
    assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == before


def add_gdp_only_year(gdp, year):
    """Give ``year`` a GDP row and no flows: it passes the year selection and
    fails after staging, in ``build_directed``."""
    with open(gdp, "a", encoding="utf-8") as fh:
        fh.write(f"{year},C00,1e24\n")


@needs_fork
@pytest.mark.parametrize("previous", [False, True])
@pytest.mark.parametrize("fault", ["later year", "interrupt", "full disk"])
def test_a_run_that_fails_after_staging_leaves_no_trace(
    toy_csvs, tmp_path, capsys, monkeypatch, fault, previous
):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--out", str(out)]
    if previous:
        assert run_cli(*args, "--years", "1999:2000") == 0
        before = bundle_state(out)
    if fault == "later year":
        add_gdp_only_year(gdp, 2030)
    years = "1999,2030" if fault == "later year" else "1999:2000"
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        if fault == "interrupt":
            patch.setattr(wnet.pipeline, "kde", interrupt)
        if fault == "full disk":
            patch.setattr(wnet.pipeline, "_write_staged", fail_writes("stats_1999.csv"))
        try:
            code = run_cli(*args, "--years", years, "--strong-cut", "0.5")
        except KeyboardInterrupt:
            code = "interrupted"
    assert code == ("interrupted" if fault == "interrupt" else 2)
    assert forks == [os.getpid()]  # the creating child
    assert_no_child_left()
    err = capsys.readouterr().err
    assert fault == "interrupt" or (
        "year 2030: no flow exceeds" if fault == "later year" else "Errno 28"
    ) in err
    if previous:
        assert not list(out.glob(".wnet-*")) and bundle_state(out) == before
    else:
        assert not out.exists()


def test_a_failed_run_removes_every_directory_it_made(toy_csvs, tmp_path, capsys, monkeypatch):
    flows, gdp = toy_csvs
    add_gdp_only_year(gdp, 2030)
    inputs = ["--flows", str(flows), "--gdp", str(gdp), "--years", "1999,2030"]
    (tmp_path / "empty").mkdir()
    before = sorted(os.listdir(tmp_path))
    monkeypatch.chdir(tmp_path)
    for out in ("new/deeper/out", "empty/out"):
        assert run_cli("all", *inputs, "--out", out) == 2
        assert "year 2030: no flow exceeds" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before
    assert not os.listdir(tmp_path / "empty")


def test_missing_flows_fail_before_the_output_directory_is_made(toy_csvs, tmp_path, capsys):
    _, gdp = toy_csvs
    out = tmp_path / "bundle"
    missing = tmp_path / "no-flows.csv"
    assert run_cli(
        "all", "--flows", str(missing), "--gdp", str(gdp), "--years", "1999:2000",
        "--out", str(out),
    ) == 2
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


@needs_fork
def test_a_creating_child_is_forked_exactly_for_two_or_more_files(toy_csvs, tmp_path, monkeypatch):
    for names in ([], ["a.csv"], ["a.csv", "b.csv"]):
        out = tmp_path / f"names{len(names)}"
        with monkeypatch.context() as patch:
            forks = writer_processes(patch, 2)
            with wnet.pipeline.write_bundle(out, names):
                assert forks == [os.getpid()] * (len(names) >= 2), names
        assert_no_child_left()
        assert not out.exists()  # nothing committed: the write removes what it made
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    inputs = ["--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000", "--out", str(out)]
    assert run_cli("all", *inputs) == 0
    # report writes one file, so nothing forks; build writes three, so the child forks.
    for command, forked in ((["report", "--out", str(out)], 0), (["build", *inputs], 1)):
        with monkeypatch.context() as patch:
            forks = writer_processes(patch, 2)
            assert run_cli(*command) == 0
        assert forks == [os.getpid()] * forked, command
        assert_no_child_left()
        assert_bundle_intact(out)


def test_a_flow_over_a_tiny_gdp_is_one_error_line_and_no_warning(tmp_path, capsys):
    flows, gdp = tmp_path / "flows.csv", tmp_path / "gdp.csv"
    flows.write_text("year,exporter,importer,value\n2000,A,B,1e300\n2000,B,C,5\n2000,C,A,7\n")
    gdp.write_text("year,country,gdp\n2000,A,1e-300\n2000,B,2\n2000,C,3\n")
    for command in ("build", "all"):  # all computes the symmetry index too
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                command, "--flows", str(flows), "--gdp", str(gdp), "--years", "2000",
                "--out", str(tmp_path / "out"),
            )
        assert code == 2, command
        assert not caught, (command, [str(w.message) for w in caught])
        err = capsys.readouterr().err
        assert err == "error: year 2000: a link weight overflows to infinity\n", command
        assert not (tmp_path / "out").exists()


def test_raw_flows_near_the_largest_double_are_finite_weights(tmp_path, capsys):
    flows = tmp_path / "flows.csv"
    flows.write_text("year,exporter,importer,value\n2000,A,B,1.5e308\n2000,B,A,1.5e308\n2000,B,C,5\n")
    for command in ("build", "analyze"):
        out = tmp_path / command
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                command, "--flows", str(flows), "--scheme", "raw", "--years", "2000",
                "--out", str(out), *(["--analyses", "symmetry"] if command == "analyze" else []),
            )
        assert code == 0, command
        assert not caught, (command, [str(w.message) for w in caught])
        assert "error" not in capsys.readouterr().err
    manifest, files = read_links(tmp_path / "build", [2000])
    links = files["links", 2000]
    assert manifest["normalizers"] == {"2000": 1.5e308}
    assert links["country_i"].tolist() == ["A", "B"] and links["country_j"].tolist() == ["B", "C"]
    assert links["weight"][0] == 1.0 and 0 < links["weight"][1] < 1e-300  # every weight finite
    table = (tmp_path / "analyze" / "symmetry.csv").read_text(encoding="utf-8")
    assert table.startswith("year,symmetry_index\n2000,")
    assert 0 <= float(table.split(",")[-1]) < 1e-300


def test_a_pair_of_the_smallest_subnormal_flows_averages_to_itself(tmp_path, capsys):
    # Halving each weight before adding rounds 5e-324 to 0, unlinking A and B.
    flows = tmp_path / "flows.csv"
    flows.write_text("year,exporter,importer,value\n2000,A,B,5e-324\n2000,B,A,5e-324\n2000,B,C,1e-323\n")
    out = tmp_path / "out"
    code = run_cli("build", "--flows", str(flows), "--scheme", "raw", "--years", "2000", "--out", str(out))
    assert code == 0, capsys.readouterr().err
    manifest, files = read_links(out, [2000])
    assert manifest["normalizers"] == {"2000": 5e-324}
    links = files["links", 2000]
    assert links["country_i"].tolist() == ["A", "B"] and links["country_j"].tolist() == ["B", "C"]
    assert links["weight"].tolist() == [1.0, 1.0]


@needs_fork
def test_a_build_that_fails_in_its_second_year_leaves_no_trace(
    toy_csvs, tmp_path, capsys, monkeypatch
):
    flows, gdp = toy_csvs
    out = tmp_path / "new" / "out"
    real = wnet.pipeline.build_directed
    def build_directed(panel, year, scheme):
        if year == 2000:
            raise DataError(f"year {year}: no flow exceeds the link threshold")
        return real(panel, year, scheme)
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        patch.setattr(wnet.pipeline, "build_directed", build_directed)
        code = run_cli(
            "build", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000",
            "--out", str(out),
        )
    assert code == 2
    assert capsys.readouterr().err == "error: year 2000: no flow exceeds the link threshold\n"
    assert forks == [os.getpid()]  # the creating child, forked after ingest
    assert_no_child_left()
    assert not (tmp_path / "new").exists() and not list(tmp_path.rglob(".wnet-*"))


@needs_fork
@pytest.mark.parametrize("command", ["all", "build"])
def test_a_missing_year_reaps_its_creating_child_and_makes_no_directory(
    toy_csvs, tmp_path, capsys, monkeypatch, command
):
    flows, gdp = toy_csvs
    out = tmp_path / "new" / "out"
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        code = run_cli(
            command, "--flows", str(flows), "--gdp", str(gdp), "--years", "1999,2000,2030",
            "--out", str(out),
        )
    assert code == 2
    assert capsys.readouterr().err == "error: year 2030 not present in panel\n"
    assert forks == [os.getpid()]  # the creating child, forked before ingest
    assert_no_child_left()
    assert not (tmp_path / "new").exists() and not list(tmp_path.rglob(".wnet-*"))


@pytest.mark.parametrize("command", ["all", "build"])
@pytest.mark.parametrize("years", ["0:9223372036854775806", "0:100000000000000000000"])
def test_a_huge_year_range_is_a_data_error(toy_csvs, tmp_path, capsys, command, years):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    start = time.perf_counter()
    code = run_cli(
        command, "--flows", str(flows), "--gdp", str(gdp), "--years", years, "--out", str(out)
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and capsys.readouterr().err == "error: year 0 not present in panel\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["all", "build"])
def test_the_manifest_echoes_a_year_range_as_its_years(toy_csvs, tmp_path, command):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        command, "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000", "--out", str(out)
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["years"] == [1999, 2000]


def test_verify_names_missing_changed_unlisted_and_staging(toy_csvs, tmp_path, capsys):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000", "--out", str(out)
    ) == 0
    listed = len(json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"])
    capsys.readouterr()
    assert run_cli("verify", "--out", str(out)) == 0
    assert capsys.readouterr().out == f"verified {listed} files in {out}\n"

    (out / "notes.txt").write_text("mine\n", encoding="utf-8")
    (out / ".wnet-k1ll3d").mkdir()
    assert run_cli("verify", "--out", str(out)) == 0
    assert capsys.readouterr().out == (
        "not in the manifest: notes.txt\n"
        "staging left by an interrupted run: .wnet-k1ll3d\n"
        f"verified {listed} files in {out}\n"
    )

    (out / "moments.csv").unlink()
    with open(out / "stats_2000.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    (out / "counts.csv").write_bytes((out / "counts.csv").read_bytes())  # same bytes: intact
    assert run_cli("verify", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == ["missing: moments.csv", "changed: stats_2000.csv"]
    assert captured.err == f"error: 2 of {listed} listed files in {out} are missing or changed\n"


def test_verify_prints_names_that_are_not_text_escaped(toy_csvs, tmp_path, capsys):
    # A listed name that no file system can hold (a lone surrogate, by a JSON
    # escape), and an unlisted file whose name is not UTF-8.
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli("all", "--flows", str(flows), "--gdp", str(gdp), "--years", "2000",
                   "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["files"]["\ud800"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    (out / os.fsdecode(b"notes\xff.txt")).write_text("mine\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("verify", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == ["missing: \\ud800", "not in the manifest: notes\\udcff.txt"]
    assert captured.err.startswith("error: 1 of ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("files", [None, {"../flows.csv": "0" * 64}, {"": "0" * 64}, []])
def test_verify_needs_a_manifest_of_bundle_files(toy_csvs, tmp_path, capsys, files):
    out = tmp_path / "bundle"
    out.mkdir()
    if files is not None:
        (out / "manifest.json").write_text(json.dumps({"files": files}), encoding="utf-8")
    assert run_cli("verify", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "manifest.json" in err
    assert run_cli("verify", "--out", str(tmp_path / "absent")) == 2


@pytest.mark.parametrize("flags", [
    ("--bandwidth", "nan"),
    ("--bandwidth", "inf"),
    ("--strong-cut", "inf"),
    ("--strong-cut", "nan"),
    ("--moderate-cut", "nan"),
])
def test_non_finite_floats_fail_before_io(tmp_path, flags):
    out = tmp_path / "out"
    missing = str(tmp_path / "does-not-exist.csv")
    assert run_cli(
        "all", "--flows", missing, "--gdp", missing, "--years", "2000",
        "--out", str(out), "--analyses", "stats", *flags,
    ) == 1
    assert not out.exists()
    if flags[0] != "--bandwidth":
        # Checked before the bundle is read: an empty directory would be exit 2.
        out.mkdir()
        assert run_cli("report", "--out", str(out), *flags) == 1
        assert not list(out.iterdir())


@pytest.mark.parametrize("bandwidth, code, names", [
    ("1e308", 1, "got 1e+308"),  # 3h overflows, whatever the data
    ("1e-320", 1, "got 1e-320"),  # 1/h overflows, whatever the data
    ("1e-300", 2, "density of nd in year 2000: bandwidth 1e-300 "),  # (max - min) / h squared
])
def test_a_bandwidth_that_breaks_the_density_grid_is_one_error_line(
    toy_csvs, tmp_path, capsys, bandwidth, code, names
):
    flows, gdp = toy_csvs
    out = tmp_path / "out"
    assert run_cli(
        "analyze", "--flows", str(flows), "--gdp", str(gdp), "--years", "2000",
        "--analyses", "density", "--bandwidth", bandwidth, "--out", str(out),
    ) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and names in err, err
    assert not out.exists()


def test_benchmark_span_targets_exist():
    root = Path(__file__).resolve().parent.parent
    probe = "from spans import SpanRecorder; print(*SpanRecorder().install(), sep='\\n')"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]
        )},
        capture_output=True,
        text=True,
        check=True,
    )
    # The three ingest spans lost their functions when ingest became one
    # columnar reader, the five per-statistic spans theirs when node_stats
    # came to compute its columns itself, and the stats text span its method
    # when every bundle file came to be made by one rule; every other span
    # must still find its target.
    assert result.stdout.split() == [
        "wnet.ingest.parse_flows", "wnet.ingest.parse_sizes", "wnet.ingest.assemble_panel",
        "wnet.stats.node_degree", "wnet.stats.annd", "wnet.stats.anns", "wnet.stats.bcc",
        "wnet.stats.wcc", "wnet.stats.NodeStatsTable.to_csv",
    ]


def test_report_missing_series_is_data_error(tmp_path):
    assert run_cli("report", "--out", str(tmp_path)) == 2


def test_report_names_the_series_a_bundle_lacks(toy_csvs, tmp_path, capsys):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "stats", "--flows", str(flows), "--gdp", str(gdp), "--years", "2000", "--out", str(out)
    ) == 0
    before = bundle_state(out)
    capsys.readouterr()
    assert run_cli("report", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: bundle is missing the ND-ANND correlation series\n"
    assert bundle_state(out) == before


def write_ring_lattice(tmp_path, n=60, years=(1999, 2000)) -> tuple[Path, Path]:
    """Flow and GDP CSVs of a ring of ``n`` countries, each with a flow of 1000
    to its three nearest neighbours on each side, and every GDP 1e6."""
    codes = [f"C{i:02d}" for i in range(n)]
    flows, sizes = ["year,exporter,importer,value"], ["year,country,gdp"]
    for year, i in product(years, range(n)):
        flows += [f"{year},{codes[i]},{codes[(i + d) % n]},1000.0" for d in (-3, -2, -1, 1, 2, 3)]
        sizes.append(f"{year},{codes[i]},1000000.0")
    paths = tmp_path / "flows.csv", tmp_path / "gdp.csv"
    for path, lines in zip(paths, (flows, sizes)):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


def test_a_ring_lattice_has_constant_statistics_with_zero_spread(tmp_path):
    # Every country has degree 6 and clustering 3 (6 - 2) / (4 (6 - 1)) = 0.6,
    # and every weight is 1.  Sixty 0.6s have a mean that rounds above 0.6.
    flows, gdp = write_ring_lattice(tmp_path)
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000",
        "--analyses", "moments", "--out", str(out),
    ) == 0
    lines = (out / "moments.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["statistic,year,mean,std,skewness,kurtosis,count", *(
        f"{name},{year},{value},0.0,,,60"
        for year in (1999, 2000)
        for name, value in zip(("nd", "ns", "annd", "anns", "bcc", "wcc"), [6.0] * 4 + [0.6] * 2)
    )]


def write_one_huge_flow(tmp_path, value: str) -> tuple[Path, Path]:
    """``write_panel_csvs(n=50)`` with the first flow of 2000 set to ``value``."""
    flows, gdp = write_panel_csvs(tmp_path, n=50)
    lines = flows.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("2000,"))
    lines[at] = ",".join([*lines[at].split(",")[:3], value])
    flows.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return flows, gdp


@pytest.mark.parametrize("value", ["1e300", "1.7e308"])
def test_one_huge_flow_keeps_the_weighted_clustering_correlation(tmp_path, capsys, value):
    # The other weights fall below 1e-190 once one flow sets the maximum, and
    # every wcc is then below 1e-198: their squared deviations underflow to 0.
    scipy_stats = pytest.importorskip("scipy.stats")
    flows, gdp = write_one_huge_flow(tmp_path, value)
    run = ("all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000")
    out = tmp_path / "bundle"
    assert run_cli(
        *run, "--analyses", "stats,moments,correlations,ranksize,tailfit,symmetry", "--out", str(out)
    ) == 0
    assert run_cli("verify", "--out", str(out)) == 0
    names = bundle_names(("stats", "correlations"), (2000,))
    _, files = read_bundle(out, {key: names[key] for key in (("stats", 2000), ("correlations", "WCC-NS"))})
    stats, series = files["stats", 2000], files["correlations", "WCC-NS"]
    assert np.nanmax(stats["wcc"]) < 1e-198
    defined = np.isfinite(stats["wcc"])
    want = scipy_stats.pearsonr(stats["wcc"][defined], stats["ns"][defined]).statistic
    assert series["r"][1] == pytest.approx(want, rel=1e-12)
    assert series["r"][1] == pytest.approx(0.8945, abs=1e-4)
    # The default analyses add the densities, whose grid this ns row puts out of range.
    capsys.readouterr()
    assert run_cli(*run, "--out", str(tmp_path / "all")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: density of ns in year 2000: bandwidth ") and err.count("\n") == 1
    assert "puts the density grid out of float range" in err


def test_missing_required_flag_is_validation_error(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    assert run_cli("all", "--flows", str(flows), "--gdp", str(gdp), "--out", str(tmp_path)) == 1


def test_empty_years_is_validation_error(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "", "--out", str(tmp_path / "o"),
    ) == 1


def test_bad_scheme_choice_is_usage_error(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp), "--scheme", "bogus",
        "--years", "2000", "--out", str(tmp_path / "o"),
    ) == 1


@pytest.mark.parametrize("argv", [
    [], ["nonsense"], ["build", "--scheme=bogus"], ["all", "--bogus"], ["verify", "--out"],
])
def test_a_usage_error_is_one_error_line(capsys, argv):
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: wnet") and err.count("\n") == 1, err


def test_malformed_data_is_data_error(tmp_path, capsys):
    bad = tmp_path / "flows.csv"
    gdp = tmp_path / "gdp.csv"
    gdp.write_text("year,country,gdp\n2000,USA,1\n2000,CAN,1\n", encoding="utf-8")
    for body, message in (
        (b"2000,USA,CAN,-3\n", "line 2: negative flow value"),
        (b"2000,USA,CAN,5\n2000,CAN,\xffUSA,3\n", "line 3: not valid UTF-8"),
    ):
        bad.write_bytes(b"year,exporter,importer,value\n" + body)
        assert run_cli(
            "stats", "--flows", str(bad), "--gdp", str(gdp),
            "--years", "2000", "--out", str(tmp_path / "o"),
        ) == 2
        assert message in capsys.readouterr().err


def test_missing_gdp_is_data_error(tmp_path):
    flows = tmp_path / "flows.csv"
    flows.write_text(
        "year,exporter,importer,value\n2000,USA,CAN,5\n2000,CAN,USA,7\n",
        encoding="utf-8",
    )
    gdp = tmp_path / "gdp.csv"
    gdp.write_text("year,country,gdp\n2000,USA,1\n", encoding="utf-8")
    assert run_cli(
        "stats", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(tmp_path / "o"),
    ) == 2


def test_internal_error_maps_to_3(toy_csvs, tmp_path, monkeypatch):
    flows, gdp = toy_csvs
    monkeypatch.setattr(
        "wnet.cli.run_pipeline", lambda config: (_ for _ in ()).throw(RuntimeError("boom"))
    )
    assert run_cli(
        "stats", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(tmp_path / "o"),
    ) == 3


def test_help_and_version_exit_zero(capsys):
    assert run_cli("--help") == 0
    assert run_cli("--version") == 0
    capsys.readouterr()


def test_raw_scheme_needs_no_gdp(tmp_path):
    flows, _ = write_panel_csvs(tmp_path, n=55, years=(2000,), seed=3)
    out = tmp_path / "o"
    assert run_cli(
        "all", "--flows", str(flows), "--scheme", "raw",
        "--years", "2000", "--out", str(out),
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["gdp"] is None


def test_config_file_with_flag_override(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"""
# pipeline configuration
flows = {flows}
gdp = {gdp}
years = 1999
scheme = exporter-gdp
ci-level = 0.90
""",
        encoding="utf-8",
    )
    out = tmp_path / "from-config"
    assert run_cli("stats", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "stats_1999.csv").exists()

    out2 = tmp_path / "override"
    assert run_cli(
        "stats", "--config", str(cfg), "--out", str(out2), "--years", "2000"
    ) == 0
    assert (out2 / "stats_2000.csv").exists()
    assert not (out2 / "stats_1999.csv").exists()


def test_config_file_unknown_key(toy_csvs, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for key in ("bogus", "jobs"):
        cfg.write_text(f"{key} = 1\n", encoding="utf-8")
        assert run_cli("stats", "--config", str(cfg)) == 1
        assert f"unknown config keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["all", "report", "build"])
def test_a_config_file_that_is_not_utf8_is_a_validation_error(toy_csvs, tmp_path, capsys, command):
    flows, gdp = toy_csvs
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"years = 2000\n# caf\xe9\n")
    inputs = [] if command == "report" else ["--flows", str(flows), "--gdp", str(gdp)]
    assert run_cli(command, *inputs, "--out", str(tmp_path / "o"), "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


def test_a_config_file_may_start_with_a_byte_order_mark(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfci_level = 0.8\nyears = 2000\n")
    assert read_config_file(cfg) == {"ci_level": "0.8", "years": "2000"}
    out = tmp_path / "o"
    assert run_cli("all", "--flows", str(flows), "--gdp", str(gdp), "--out", str(out),
                   "--config", str(cfg)) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["ci_level"] == 0.8


@pytest.mark.parametrize("bad", ["", "a\0b"], ids=["empty", "NUL"])
def test_an_empty_path_is_a_validation_error(toy_csvs, tmp_path, monkeypatch, capsys, bad):
    # An empty path is not taken for the working directory, so no command reads
    # it as an input or writes a bundle into it; and no path holds a NUL.  Each
    # path flag is given on the command line and, in turn, in a config file.
    flows, gdp = toy_csvs
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    cfg = tmp_path / "run.cfg"
    message = "NUL in path" if bad else "empty path"
    for command in ("all", "build", "stats", "analyze", "report", "verify"):
        given = {"--out": str(tmp_path / "o")}
        if command not in ("report", "verify"):
            given.update({"--flows": str(flows), "--gdp": str(gdp), "--years": "2000"})
        path_flags = [flag for flag in ("--flows", "--gdp", "--out") if flag in given]
        cases = [(flag, False) for flag in path_flags]
        if command != "verify":  # verify reads no config file
            cases += [(flag, True) for flag in path_flags] + [("--config", False)]
        for flag, in_config in cases:
            flags = {**given, flag: bad}
            if in_config:
                cfg.write_text(f"{flag[2:]} = {bad}\n", encoding="utf-8")
                del flags[flag]
                flags["--config"] = str(cfg)
            assert run_cli(command, *chain.from_iterable(flags.items())) == 1, (command, flags)
            assert capsys.readouterr().err == f"error: {flag}: {message}\n", (command, flags)
    assert list(work.iterdir()) == [] and not (tmp_path / "o").exists()


def test_read_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "flows = 'a.csv'\nthreshold = 10\n# comment\n\ntail-fraction = 0.1\n",
        encoding="utf-8",
    )
    values = read_config_file(cfg)
    assert values == {"flows": "a.csv", "threshold": "10", "tail_fraction": "0.1"}


def test_threshold_flag(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "o"
    assert run_cli(
        "build", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(out), "--threshold", "1e4",
    ) == 0
    thresholded = read_links(out, [2000])[1]["links", 2000]["weight"]
    assert run_cli(
        "build", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(tmp_path / "o2"),
    ) == 0
    base = read_links(tmp_path / "o2", [2000])[1]["links", 2000]["weight"]
    assert 0 < len(thresholded) < len(base)


def test_wnet_log_env_sets_level(toy_csvs, tmp_path, monkeypatch):
    flows, gdp = toy_csvs
    monkeypatch.setenv("WNET_LOG", "DEBUG")
    import logging

    logging.getLogger().handlers.clear()
    assert run_cli(
        "stats", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(tmp_path / "o"),
    ) == 0
    assert logging.getLogger().level == logging.DEBUG
