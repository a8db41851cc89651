from __future__ import annotations

import ast
import csv
import errno
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
from itertools import count
from pathlib import Path

import pytest

import wnet.cli
import wnet.pipeline
from wnet import DataError, NodeStatsTable, load_matrix, load_panel
from wnet.cli import main, read_config_file

from conftest import assert_bundle_intact, hostile_panels, record_commits, write_panel_csvs


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
        for year in panel.years:
            with open(out / f"stats_{year}.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert all(len(row) == 7 and None not in row and None not in row.values() for row in rows)
            assert [row["country"] for row in rows] == list(panel.registry.codes)

    check()


def test_build_subcommand_dumps_matrices(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "matrices"
    assert run_cli(
        "build", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999,2000", "--out", str(out),
    ) == 0
    dump = load_matrix(out / "matrix_2000.txt")
    assert dump.year == 2000
    assert dump.weights.max() == 1.0
    assert (dump.weights == dump.weights.T).all()


def test_build_builds_each_repeated_year_once(toy_csvs, tmp_path, monkeypatch):
    import wnet.cli

    built = []
    real = wnet.cli.build_directed

    def counting(panel, year, scheme):
        built.append(year)
        return real(panel, year, scheme)

    monkeypatch.setattr(wnet.cli, "build_directed", counting)
    flows, gdp = toy_csvs
    out = tmp_path / "matrices"
    assert run_cli(
        "build", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000,1999,2000", "--out", str(out),
    ) == 0
    assert built == [1999, 2000]
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "matrix_1999.txt", "matrix_2000.txt"
    ]


def test_build_writes_a_manifest_and_drops_stale_dumps(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "matrices"
    for years in ("1999:2000", "2000"):
        assert run_cli(
            "build", "--flows", str(flows), "--gdp", str(gdp), "--years", years, "--out", str(out)
        ) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "matrix_2000.txt"]
    assert_bundle_intact(out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {
        "tool": {"name": "wnet", "version": "0.1.0"},
        "files": {"matrix_2000.txt": manifest["files"]["matrix_2000.txt"]},
        "config": {
            "flows": str(flows), "gdp": str(gdp), "scheme": "exporter-gdp",
            "threshold": 0.0, "years": [2000],
        },
    }


def test_build_replaces_the_files_of_an_all_bundle(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    inputs = ["--flows", str(flows), "--gdp", str(gdp), "--years", "2000", "--out", str(out)]
    assert run_cli("all", *inputs) == 0
    (out / "notes.txt").write_text("not a bundle file", encoding="utf-8")
    assert run_cli("build", *inputs) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "matrix_2000.txt", "notes.txt"]
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
    # Without a manifest, the defaults label the table.
    (out / "manifest.json").unlink()
    assert run_cli("report", "--out", str(out)) == 0
    assert (out / "comparison.csv").read_bytes() != table


def test_report_without_a_manifest_writes_only_the_table(toy_csvs, tmp_path):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    (out / "manifest.json").unlink()
    table = (out / "comparison.csv").read_bytes()
    (out / "comparison.csv").unlink()
    before = bundle_state(out)
    assert run_cli("report", "--out", str(out)) == 0
    assert bundle_state(out) == {**before, "comparison.csv": table}


def test_report_rejects_a_broken_manifest(toy_csvs, tmp_path, capsys):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    before = (out / "comparison.csv").read_bytes()
    (out / "manifest.json").write_text("{}\n", encoding="utf-8")
    assert run_cli("report", "--out", str(out), "--strong-cut", "0.5") == 2
    assert "is not a wnet manifest" in capsys.readouterr().err
    assert (out / "comparison.csv").read_bytes() == before


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


def bundle_state(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("body", [
    "year,pair,ci_low,ci_high,n\n2000,ND-ANND,-0.5,-0.4,60\n",
    "year,pair,r,ci_low,ci_high,n\n2000,ND-ANND,abc,-0.5,-0.4,60\n",
])
def test_report_rejects_a_broken_correlation_series(toy_csvs, tmp_path, capsys, body):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    assert run_cli(
        "all", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "1999:2000", "--out", str(out),
    ) == 0
    before = bundle_state(out)
    broken = out / "correlation_nd_annd.csv"
    broken.write_text(body, encoding="utf-8")
    capsys.readouterr()
    assert run_cli("report", "--out", str(out), "--strong-cut", "0.5") == 2
    err = capsys.readouterr().err
    assert f"{broken}, line 2: bad correlation row" in err
    assert "Traceback" not in err
    assert bundle_state(out) == {**before, broken.name: body.encode()}


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
    """Make the ``k``-th ``write_bytes`` or ``write_text`` from now on fail as on a full disk."""
    calls = iter(range(1, k + 1))
    for method in ("write_bytes", "write_text"):
        def write(self, *args, _real=getattr(Path, method), **kwargs):
            if next(calls, None) == k:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(Path, method, write)


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
    """Make ``write_bundle`` see ``parts`` usable CPUs; the returned list
    gains one entry for each fork this process makes."""
    forks = []
    real_fork = os.fork
    def fork():
        forks.append(os.getpid())
        return real_fork()
    monkeypatch.setattr(wnet.pipeline, "_usable_cpus", lambda: parts)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def fail_writes(name: str, helper_only: bool, kill: bool = False):
    """A ``Path.write_bytes`` that writes half of ``name``'s bytes and then fails
    as on a full disk, or has its process killed with SIGKILL, in the helper
    process only or in every process."""
    parent, real = os.getpid(), Path.write_bytes
    def write_bytes(self, data):
        if self.name == name and not (helper_only and os.getpid() == parent):
            real(self, data[: len(data) // 2])
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
        return real(self, data)
    return write_bytes


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


@needs_fork
def test_a_failed_fork_makes_every_file_in_one_process(toy_csvs, tmp_path, monkeypatch):
    flows, gdp = toy_csvs
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000"]
    assert run_cli(*args, "--out", str(tmp_path / "one")) == 0
    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    monkeypatch.setattr(wnet.pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    fds = sorted(os.listdir("/dev/fd"))
    assert run_cli(*args, "--out", str(tmp_path / "two")) == 0
    assert sorted(os.listdir("/dev/fd")) == fds  # no descriptor is left open
    assert bundle_state(tmp_path / "one") == bundle_state(tmp_path / "two")


class LocalError(Exception):
    """A maker's own exception type."""


def fail_stats_2000(make_error, helper_only: bool):
    """A ``NodeStatsTable.to_csv`` that calls ``make_error`` for year 2000, in the
    helper process only or in every process; stats_2000.csv is a bundle's second
    file, so the helper makes it first."""
    parent, real = os.getpid(), NodeStatsTable.to_csv
    def to_csv(self):
        if self.year == 2000 and not (helper_only and os.getpid() == parent):
            raise make_error()
        return real(self)
    return to_csv


@needs_fork
def test_the_main_process_makes_only_its_own_share(tmp_path, monkeypatch):
    names = [f"f{i}.csv" for i in range(7)]
    made = []  # by this process; the helper's list is its own copy
    def maker(name):
        made.append(name)
        return f"{name}\n"
    files = {name: partial(maker, name) for name in names}
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        with wnet.pipeline.write_bundle(tmp_path, ()) as commit:  # no names: no creating child
            assert "; processes: 2; " in commit(files, {})
    assert forks == [os.getpid()]
    assert made == names[0::2]
    assert_no_child_left()
    assert_bundle_intact(tmp_path)
    assert all((tmp_path / name).read_text() == f"{name}\n" for name in names)


@needs_fork
@pytest.mark.parametrize("fault, at, code", [  # at: the helper's file where it fails
    ("full disk", 2, 1),  # the file is left half written
    ("maker error", 0, 1),
    ("exit", 0, 5),
    ("kill", 2, -9),  # SIGKILL, with the file left half written
])
def test_a_failure_in_the_helper_alone_is_recovered(
    toy_csvs, tmp_path, capsys, caplog, monkeypatch, fault, at, code
):
    flows, gdp = toy_csvs
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000"]
    with monkeypatch.context() as patch:
        writer_processes(patch, 1)
        names = record_commits(patch)  # in the order they are written
        assert run_cli(*args, "--out", str(tmp_path / "one")) == 0
    one, share = bundle_state(tmp_path / "one"), names[1::2]
    out = tmp_path / "two"
    capsys.readouterr()
    caplog.clear()
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        if fault in ("full disk", "kill"):
            write_bytes = fail_writes(share[at], helper_only=True, kill=fault == "kill")
            patch.setattr(Path, "write_bytes", write_bytes)
        else:
            make_error = (lambda: os._exit(5)) if fault == "exit" else (lambda: LocalError("x"))
            patch.setattr(NodeStatsTable, "to_csv", fail_stats_2000(make_error, helper_only=True))
        assert run_cli(*args, "--out", str(out)) == 0
    assert forks == [os.getpid()] * 2  # the staging's creator and the writer's helper
    assert_no_child_left()
    assert not capsys.readouterr().err
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [f"making the {len(share)} files of the writer helper again (its exit code: {code})"]
    assert not list(out.glob(".wnet-*")) and bundle_state(out) == one
    assert run_cli("verify", "--out", str(out)) == 0


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
        patch.setattr(Path, "write_bytes", fail_writes("stats_2000.csv", helper_only=False))
        assert run_cli(*args, "--strong-cut", "0.5") == 2
    assert forks == [os.getpid()] * 2  # the staging's creator and the writer's helper
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
        patch.setattr(NodeStatsTable, "to_csv", fail_stats_2000(partial(error, "bad cell"), False))
        code = run_cli(*args)
    assert_no_child_left()
    err = capsys.readouterr().err
    assert code == 3 and err == "internal error: bad cell\n", err
    assert not out.exists() or not list(out.iterdir())


@needs_fork
def test_an_interrupt_in_the_parent_reaps_the_helper(toy_csvs, tmp_path, monkeypatch):
    flows, gdp = toy_csvs
    out = tmp_path / "bundle"
    args = ["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000", "--out", str(out)]
    assert run_cli(*args) == 0
    before = bundle_state(out)
    parent = os.getpid()
    real = Path.write_bytes
    def write_bytes(self, data):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(self, data)
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        patch.setattr(Path, "write_bytes", write_bytes)
        with pytest.raises(KeyboardInterrupt):
            run_cli(*args, "--strong-cut", "0.5")
    assert forks == [parent] * 2  # the staging's creator and the writer's helper
    assert_no_child_left()
    assert not list(out.glob(".wnet-*")) and bundle_state(out) == before


@needs_fork
@pytest.mark.parametrize("fault", [None, "helper", "main"])
def test_the_helper_is_reaped_before_the_staging_directory_goes(
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
        if fault == "helper":
            patch.setattr(NodeStatsTable, "to_csv", fail_stats_2000(partial(os._exit, 5), True))
        if fault == "main":
            patch.setattr(Path, "write_bytes", fail_writes("stats_1999.csv", helper_only=False))
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
    assert forks == [os.getpid()] * 2
    creator, helper = children
    listed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
    # The helper is reaped, then the creating child is killed and reaped, and
    # only then is anything renamed: by then every file is made, none empty.
    assert [event[:2] for event in events[:3]] == [("reap", helper), ("kill", creator), ("reap", creator)]
    assert events[1][2] == signal.SIGKILL
    assert events[2][2] == {name: (out / name).stat().st_size for name in listed}
    assert all(events[2][2].values())
    renamed = [name for kind, name in events[3:]]
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
    assert forks == [os.getpid()] * 2
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
    assert forks == [os.getpid()] * 2
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
    forks, real = count(), os.fork
    def fork():  # the first fork, the staging child's, fails
        if next(forks) == 0:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()
    monkeypatch.setattr(wnet.pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    fds = sorted(os.listdir("/dev/fd"))
    out = tmp_path / "two"
    assert run_cli(*args, "--out", str(out)) == 0
    assert next(forks) == 2  # the helper's fork went through
    assert sorted(os.listdir("/dev/fd")) == fds
    assert_no_child_left()
    assert_bundle_intact(out)
    assert bundle_state(out) == one


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
            patch.setattr(Path, "write_bytes", fail_writes("stats_1999.csv", helper_only=False))
        try:
            code = run_cli(*args, "--years", years, "--strong-cut", "0.5")
        except KeyboardInterrupt:
            code = "interrupted"
    assert code == ("interrupted" if fault == "interrupt" else 2)
    assert forks[0] == os.getpid() and len(forks) == (2 if fault == "full disk" else 1)
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
    # report writes one file; build writes two, so the child and the helper fork.
    for command, forked in ((["report", "--out", str(out)], 0), (["build", *inputs], 2)):
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(
            "build", "--flows", str(flows), "--gdp", str(gdp), "--years", "2000",
            "--out", str(tmp_path / "out"),
        )
    assert code == 2
    assert not caught, [str(w.message) for w in caught]
    assert capsys.readouterr().err == "error: year 2000: a link weight overflows to infinity\n"


@needs_fork
def test_a_build_that_fails_in_its_second_year_leaves_no_trace(
    toy_csvs, tmp_path, capsys, monkeypatch
):
    flows, gdp = toy_csvs
    out = tmp_path / "new" / "out"
    real = wnet.cli.build_directed
    def build_directed(panel, year, scheme):
        if year == 2000:
            raise DataError(f"year {year}: no flow exceeds the link threshold")
        return real(panel, year, scheme)
    with monkeypatch.context() as patch:
        forks = writer_processes(patch, 2)
        patch.setattr(wnet.cli, "build_directed", build_directed)
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
def test_a_missing_year_forks_nothing_and_makes_no_directory(
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
    assert forks == []
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
    # columnar reader; every other span must still find its target.
    assert result.stdout.split() == [
        "wnet.ingest.parse_flows", "wnet.ingest.parse_sizes", "wnet.ingest.assemble_panel",
    ]


def test_report_missing_series_is_data_error(tmp_path):
    assert run_cli("report", "--out", str(tmp_path)) == 2


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
    thresholded = load_matrix(out / "matrix_2000.txt").weights
    assert run_cli(
        "build", "--flows", str(flows), "--gdp", str(gdp),
        "--years", "2000", "--out", str(tmp_path / "o2"),
    ) == 0
    base = load_matrix(tmp_path / "o2" / "matrix_2000.txt").weights
    assert (thresholded > 0).sum() < (base > 0).sum()


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
