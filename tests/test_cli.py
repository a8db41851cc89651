from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

from wnet import load_matrix
from wnet.cli import main, read_config_file

from conftest import assert_bundle_intact, write_panel_csvs


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
