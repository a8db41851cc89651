from __future__ import annotations

import ast
import errno
import json
import logging
import math
import os
import re
import string
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import wnet.pipeline
from wnet import (
    DataError,
    PipelineConfig,
    ValidationError,
    WeightScheme,
    compare_views,
    correlation_series,
    run_pipeline,
)
from wnet.pipeline import (
    ANALYSES,
    LAYOUT,
    _makers,
    bundle_names,
    qualitative_label,
    read_bundle,
    read_manifest,
)

from conftest import assert_bundle_intact, record_commits, write_gravity_panel
from oracles import pearson_oracle


def config_for(toy_csvs, out_dir, **overrides) -> PipelineConfig:
    flows, gdp = toy_csvs
    defaults = dict(
        flows=flows,
        gdp=gdp,
        scheme=WeightScheme(),
        years=(1999, 2000),
        out_dir=Path(out_dir),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def bundle_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_full_bundle_contents(toy_csvs, tmp_path):
    out = tmp_path / "bundle"
    manifest, tables = run_pipeline(config_for(toy_csvs, out))
    names = {p.name for p in out.iterdir()}
    assert {"stats_1999.csv", "stats_2000.csv", "moments.csv", "tailfit.csv",
            "symmetry.csv", "comparison.csv", "counts.csv", "manifest.json"} <= names
    assert sum(1 for n in names if n.startswith("correlation_")) == 5
    assert sum(1 for n in names if n.startswith("density_")) == 4
    assert sum(1 for n in names if n.startswith("ranksize_")) == 2
    keys = bundle_names(ANALYSES, (1999, 2000))
    assert list(tables) == list(keys)
    read, files = read_bundle(out, keys)
    assert list(files) == list(keys) and read["files"] == manifest["files"]
    assert len(files["moments"]["year"]) == 12  # 6 statistics x 2 years
    assert files["symmetry"]["year"].tolist() == [1999, 2000]
    for year in (1999, 2000):  # ranks 1..n against the sizes, largest first
        curve = files["ranksize", year]
        assert curve["rank"].tolist() == list(range(1, len(curve["size"]) + 1))
        assert (np.diff(curve["size"]) <= 0).all()


def test_bundle_cell_format(toy_csvs, tmp_path):
    out = tmp_path / "bundle"
    run_pipeline(config_for(toy_csvs, out))
    for path in sorted(out.glob("*.csv")):
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and not text.endswith("\n\n"), path.name
        assert "\r" not in text, path.name
        header, *lines = text[:-1].split("\n")
        width = len(header.split(","))
        for line in lines:
            cells = line.split(",")
            assert len(cells) == width, (path.name, line)
            for cell in cells:
                assert cell not in ("nan", "None"), (path.name, line)  # undefined is empty
                if not cell or cell.lstrip("-").isdigit():
                    continue  # undefined, or a plain integer
                if re.fullmatch(r"[A-Za-z][\w -]*", cell) and cell != "inf":
                    continue  # a label such as "C07", "ND-ANND" or "strong negative"
                assert repr(float(cell)) == cell, (path.name, cell)


def test_each_repeated_year_is_built_once(toy_csvs, tmp_path, monkeypatch):
    built = []
    real = wnet.pipeline.build_directed

    def counting(panel, year, scheme):
        built.append(year)
        return real(panel, year, scheme)

    monkeypatch.setattr(wnet.pipeline, "build_directed", counting)
    written, _ = run_pipeline(config_for(toy_csvs, tmp_path / "out", years=(2000, 1999, 2000)))
    assert built == [1999, 2000]
    assert written["config"]["years"] == [2000, 1999, 2000]


def test_manifest_digests_and_metadata(toy_csvs, tmp_path):
    out = tmp_path / "bundle"
    written, _ = run_pipeline(config_for(toy_csvs, out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest == written
    assert manifest["tool"] == {"name": "wnet", "version": "0.1.0"}
    assert manifest["config"]["scheme"] == "exporter-gdp"
    assert "out" not in manifest["config"]
    assert set(manifest["normalizers"]) == {"1999", "2000"}
    assert "manifest.json" not in manifest["files"]
    assert_bundle_intact(out)


def test_manifest_is_strict_json(toy_csvs, tmp_path):
    out = tmp_path / "bundle"
    run_pipeline(config_for(toy_csvs, out))

    def reject(token):
        raise AssertionError(f"manifest holds the non-JSON constant {token}")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    assert manifest == read_manifest(out)


def test_read_manifest(tmp_path):
    with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path))} has no manifest.json$"):
        read_manifest(tmp_path)
    for text in ("{not json", "[]", '{"files": ["old.csv"]}', '{"tool": {}}'):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(DataError, match="is not a wnet manifest"):
            read_manifest(tmp_path)


@pytest.mark.parametrize("overrides, message", [
    ({"bandwidth": math.nan}, "bandwidth must be positive and finite"),
    ({"bandwidth": math.inf}, "bandwidth must be positive and finite"),
    ({"bandwidth": 1e308}, "with 3h and 1/h finite, got 1e\\+308"),
    ({"bandwidth": 1e-320}, "with 3h and 1/h finite, got 1e-320"),
    ({"strong_cut": math.inf}, "moderate cut <= strong cut < inf"),
    ({"moderate_cut": math.nan}, "moderate cut <= strong cut < inf"),
])
def test_non_finite_config_fails_before_io(tmp_path, overrides, message):
    config = PipelineConfig(
        flows=tmp_path / "does-not-exist.csv",
        gdp=tmp_path / "does-not-exist-either.csv",
        scheme=WeightScheme(),
        years=(2000,),
        out_dir=tmp_path / "out",
        **overrides,
    )
    with pytest.raises(ValidationError, match=message):
        run_pipeline(config)
    assert not (tmp_path / "out").exists()


def test_determinism_byte_identical(toy_csvs, tmp_path):
    a = run_pipeline(config_for(toy_csvs, tmp_path / "a"))
    b = run_pipeline(config_for(toy_csvs, tmp_path / "b"))
    assert bundle_bytes(tmp_path / "a") == bundle_bytes(tmp_path / "b")


ALL_STAGES = [
    "ingest", "build", "symmetry", "symmetrize", "node stats", "moments",
    "correlations", "density", "ranksize", "tailfit", "write",
]
#: The link tables read no node statistic, so their run has no node stats
#: stage: its per-year lap only counts the undefined statistics.
LINKS_STAGES = ["ingest", "build", "symmetrize", "links", "counts", "write"]


@pytest.mark.parametrize("parts,overrides,expected,files", [
    (1, {}, ALL_STAGES, 18), (2, {}, ALL_STAGES, 18), (2, {"analyses": {"links"}}, LINKS_STAGES, 3),
], ids=["1", "2", "links"])
def test_stage_timings_go_to_the_log(
    toy_csvs, tmp_path, caplog, monkeypatch, parts, overrides, expected, files
):
    if parts == 1:  # no process to spare: the commit writes alone
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
    caplog.set_level(logging.INFO, logger="wnet.pipeline")
    start = time.perf_counter()
    run_pipeline(config_for(toy_csvs, tmp_path / "bundle", **overrides))
    wall = time.perf_counter() - start
    lines = [r.getMessage() for r in caplog.records if r.name == "wnet.pipeline"]
    stages = {}
    for line in lines:
        if match := re.fullmatch(r"stage ([a-z ]+): (\d+\.\d{4}) s(.*)", line):
            assert match[1] not in stages, line
            stages[match[1]] = float(match[2])
            note = match[3]
    assert list(stages) == expected
    write = re.fullmatch(rf" \({files} files; texts (\d+\.\d\d) s\)", note)
    assert write and float(write[1]) <= stages["write"] + 0.005
    (run,) = [float(m[1]) for line in lines
              if (m := re.fullmatch(rf"run: (\S+) s in {len(expected)} stages", line))]
    rounding = 0.00005 * (len(stages) + 1)
    assert abs(sum(stages.values()) - run) <= rounding
    # The run covers the call but its last log lines; 5 ms allows for a descheduled process.
    assert run <= wall + rounding and wall - run <= 0.05 * wall + 0.005


def no_fork():
    """An ``os.fork`` that fails as when no process can be spared."""
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def write_stage(records) -> float:
    """The seconds of the last run's write stage."""
    for record in reversed(records):
        message = record.getMessage()
        if match := re.fullmatch(r"stage write: (\S+) s \(\d+ files; texts \S+ s\)", message):
            return float(match[1])
    raise AssertionError("no write stage line")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_slow_creating_child_does_not_delay_the_write(toy_csvs, tmp_path, caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger="wnet.pipeline")
    run_pipeline(config_for(toy_csvs, tmp_path / "plain"))
    plain = write_stage(caplog.records)
    parent, real, slept = os.getpid(), os.open, []
    def open_(path, flags, *rest, **kw):  # a child still at its first create when the write starts
        if os.getpid() != parent and not slept:
            slept.append(True)
            time.sleep(0.3)
        return real(path, flags, *rest, **kw)
    monkeypatch.setattr(os, "open", open_)
    run_pipeline(config_for(toy_csvs, tmp_path / "slow"))
    slow = write_stage(caplog.records)
    # The commit makes every file itself, then stops the child where it is.
    assert slow < plain + 0.05
    assert bundle_bytes(tmp_path / "slow") == bundle_bytes(tmp_path / "plain")


def test_the_link_summary_line_matches_networkx(tmp_path, caplog):
    nx = pytest.importorskip("networkx")
    flows = {
        1999: {("A", "B"): 10, ("B", "A"): 5, ("B", "C"): 3, ("C", "D"): 8, ("D", "C"): 2,
               ("A", "C"): 1, ("F", "A"): 4},
        2000: {("A", "B"): 7, ("B", "A"): 7, ("C", "A"): 2, ("A", "C"): 9, ("D", "A"): 1},
    }
    gdp = {code: 10.0 * (i + 1) for i, code in enumerate("ABCDEF")}
    (tmp_path / "flows.csv").write_text("year,exporter,importer,value\n" + "".join(
        f"{year},{a},{b},{value}\n" for year, links in flows.items() for (a, b), value in links.items()
    ))
    (tmp_path / "gdp.csv").write_text("year,country,gdp\n" + "".join(
        f"{year},{code},{size}\n" for year in flows for code, size in gdp.items()
    ))
    expected = []
    for links in flows.values():
        directed = nx.DiGraph(list(links))
        undirected = directed.to_undirected()
        # The exporter-GDP weights, averaged over both directions.
        weights = np.array([
            (links.get((a, b), 0) / gdp[a] + links.get((b, a), 0) / gdp[b]) / 2
            for a, b in undirected.edges
        ])
        expected.append((
            undirected.number_of_nodes(), directed.number_of_edges(), undirected.number_of_edges(),
            nx.overall_reciprocity(directed), np.mean(weights < weights.mean()),
        ))
    caplog.set_level(logging.INFO, logger="wnet.pipeline")
    run_pipeline(config_for(
        (tmp_path / "flows.csv", tmp_path / "gdp.csv"), tmp_path / "out", analyses=frozenset({"links"})
    ))
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("links over")]
    found = re.fullmatch(
        r"links over 2 years, min-max: (\d+)-(\d+) countries with a link, (\d+)-(\d+) directed, "
        r"(\d+)-(\d+) undirected, reciprocity (\S+)-(\S+), (\S+)-(\S+) of the undirected links "
        r"below their year's mean weight", line,
    )
    assert found, line
    spans = [(min(v), max(v)) for v in zip(*expected)]
    assert [int(found[k]) for k in range(1, 7)] == [end for span in spans[:3] for end in span]
    floats = [float(found[k]) for k in range(7, 11)]
    assert floats == pytest.approx([end for span in spans[3:] for end in span], abs=5e-5)
    assert spans[0] == (4, 5) and spans[3][0] < spans[3][1]  # every value has a range


def test_import_starts_no_process_machinery():
    # wnet forks its bundle writer itself; these modules would only add set-up time.
    probe = (
        "import sys, wnet.cli; "
        "print(*sorted({'multiprocessing', 'concurrent.futures', 'subprocess'} & set(sys.modules)))"
    )
    src = str(Path(wnet.pipeline.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == []


def test_empty_years_fails_before_io(tmp_path):
    config = PipelineConfig(
        flows=tmp_path / "does-not-exist.csv",
        gdp=None,
        scheme=WeightScheme(),
        years=(),
        out_dir=tmp_path / "out",
        analyses=frozenset(("stats",)),
    )
    with pytest.raises(ValidationError, match="no years"):
        run_pipeline(config)
    assert not (tmp_path / "out").exists()


def test_gdp_required_under_gdp_scheme(tmp_path):
    config = PipelineConfig(
        flows=tmp_path / "flows.csv",
        gdp=None,
        scheme=WeightScheme(),
        years=(2000,),
        out_dir=tmp_path / "out",
    )
    with pytest.raises(ValidationError, match="requires a GDP file"):
        run_pipeline(config)


def test_failing_year_leaves_no_partial_bundle(toy_csvs, tmp_path):
    out = tmp_path / "bundle"
    with pytest.raises(DataError, match="2030"):
        run_pipeline(config_for(toy_csvs, out, years=(1999, 2030)))
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("analyses", [
    ANALYSES,  # all
    ("stats",),  # stats
    tuple(a for a in ANALYSES if a != "stats"),  # analyze
    ("density", "symmetry", "correlations"),
])
def test_bundle_names_are_the_files_written(toy_csvs, tmp_path, monkeypatch, analyses):
    written = record_commits(monkeypatch)
    years = (2000, 1999, 2000)
    run_pipeline(config_for(toy_csvs, tmp_path / "out", years=years, analyses=frozenset(analyses)))
    names = bundle_names(frozenset(analyses), sorted(set(years)))
    assert list(names.values()) == written


@pytest.mark.parametrize("analyses", [{"links"}, {"symmetry"}, {"links", "symmetry"}])
def test_a_run_that_reads_no_node_statistic_computes_none(toy_csvs, tmp_path, monkeypatch, analyses):
    _, stats = run_pipeline(config_for(toy_csvs, tmp_path / "stats", analyses=frozenset({"stats"})))
    def node_stats(net):
        raise AssertionError("node_stats called")
    monkeypatch.setattr(wnet.pipeline, "node_stats", node_stats)
    _, tables = run_pipeline(config_for(toy_csvs, tmp_path / "out", analyses=frozenset(analyses)))
    for name, column in tables["counts"].items():
        assert column.tolist() == stats["counts"][name].tolist(), name


def test_stats_only_subset(toy_csvs, tmp_path):
    out = tmp_path / "bundle"
    run_pipeline(config_for(toy_csvs, out, analyses=frozenset(("stats",))))
    names = {p.name for p in out.iterdir()}
    assert names == {"stats_1999.csv", "stats_2000.csv", "counts.csv", "manifest.json"}


def test_rerun_removes_files_only_the_previous_manifest_listed(toy_csvs, tmp_path):
    out = tmp_path / "bundle"
    run_pipeline(config_for(toy_csvs, out))
    (out / "notes.txt").write_text("not a bundle file")
    run_pipeline(config_for(toy_csvs, out, years=(2000,), analyses=frozenset(("stats",))))
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == {"stats_2000.csv", "counts.csv"}
    assert_bundle_intact(out, keep=("notes.txt",))


def test_rerun_deletes_only_plain_names_of_a_parsed_manifest(toy_csvs, tmp_path):
    out = tmp_path / "bundle"
    (out / "sub").mkdir(parents=True)
    kept = [tmp_path / "outside.csv", out / "sub" / "inner.csv", out / "sub.csv"]
    for path in kept:
        path.write_text("keep")
    (out / "old.csv").write_text("stale")
    names = ["../outside.csv", str(kept[0]), "sub", "sub/inner.csv", "", ".", "..", "old.csv"]
    (out / "manifest.json").write_text(json.dumps({"files": dict.fromkeys(names, "0")}))
    run_pipeline(config_for(toy_csvs, out, analyses=frozenset(("stats",))))
    assert all(path.read_text() == "keep" for path in kept)
    assert not (out / "old.csv").exists() and (out / "sub").is_dir()


@pytest.mark.parametrize("text", [
    "{not json", "[]", '{"files": ["old.csv"]}', '{"tool": {}}', b"\xff".decode("latin-1"),
    pytest.param("[" * 10**5 + "]" * 10**5, id="nested"),  # too deep for the JSON decoder
])
def test_rerun_keeps_files_when_the_previous_manifest_does_not_parse(toy_csvs, tmp_path, text):
    out = tmp_path / "bundle"
    out.mkdir()
    (out / "old.csv").write_text("kept")
    (out / "manifest.json").write_text(text, encoding="latin-1")
    run_pipeline(config_for(toy_csvs, out, analyses=frozenset(("stats",))))
    assert (out / "old.csv").read_text() == "kept"


def test_unknown_analysis_rejected(toy_csvs, tmp_path):
    with pytest.raises(ValidationError, match="unknown analyses"):
        run_pipeline(config_for(toy_csvs, tmp_path, analyses=frozenset(("plots",))))


@pytest.mark.parametrize("panel", ["toy", "gravity"])
def test_run_pipeline_returns_the_tables_read_bundle_reads_back(toy_csvs, tmp_path, panel):
    # The toy panel over 2 years, and 159 countries over 3 years.
    if panel == "toy":
        config = config_for(toy_csvs, tmp_path / "bundle")
    else:
        flows, gdp = write_gravity_panel(tmp_path)
        config = PipelineConfig(flows, gdp, WeightScheme(), (1998, 1999, 2000), tmp_path / "bundle")
    manifest, tables = run_pipeline(config)
    assert len(tables["stats", 2000]["country"]) == (60 if panel == "toy" else 159)
    read, files = read_bundle(config.out_dir, bundle_names(ANALYSES, config.years))
    assert read == manifest
    assert list(files) == list(tables)
    for key, columns in tables.items():
        kind = key[0] if isinstance(key, tuple) else key
        assert list(files[key]) == list(columns) == LAYOUT[kind][0].split(",")
        for name, column in columns.items():
            back = files[key][name]
            assert back.dtype == column.dtype, (key, name)
            if column.dtype.kind == "f":  # bit-equal, with NaN in the same cells
                undefined = np.isnan(column)
                assert np.array_equal(np.isnan(back), undefined), (key, name)
                assert back[~undefined].tobytes() == column[~undefined].tobytes(), (key, name)
            else:  # integers and labels exact
                assert back.tolist() == column.tolist(), (key, name)
                if column.dtype == object:
                    assert all(type(cell) is str for cell in column.tolist()), (key, name)


def test_correlation_csv_round_trip(toy_csvs, tmp_path):
    out = tmp_path / "bundle"
    _, tables = run_pipeline(config_for(toy_csvs, out))
    key = ("correlations", "ND-ANND")
    _, files = read_bundle(out, {key: bundle_names(ANALYSES, (1999, 2000))[key]})
    series = correlation_series({year: tables["stats", year] for year in (1999, 2000)}, "ND-ANND")
    assert list(files[key]) == list(series) == list(tables[key])
    for name, column in series.items():
        assert files[key][name].dtype == column.dtype == tables[key][name].dtype
        assert files[key][name].tolist() == column.tolist() == tables[key][name].tolist(), name


def test_read_bundle_takes_column_types_from_the_layout(tmp_path):
    # Country codes that read as numbers stay labels: the stats layout says so.
    codes = ["123", "nan", "1e5", "-0.0"]
    flows = ["year,exporter,importer,value"]
    flows += [f"2000,{a},{b},{1 + i}.5" for i, (a, b) in enumerate(zip(codes, codes[1:] + codes[:1]))]
    (tmp_path / "flows.csv").write_text("\n".join(flows) + "\n", encoding="utf-8")
    sizes = ["year,country,gdp", *(f"2000,{code},1e9" for code in codes)]
    (tmp_path / "gdp.csv").write_text("\n".join(sizes) + "\n", encoding="utf-8")
    out = tmp_path / "bundle"
    _, tables = run_pipeline(PipelineConfig(
        tmp_path / "flows.csv", tmp_path / "gdp.csv", WeightScheme(), (2000,), out,
        analyses=frozenset(("stats",)),
    ))
    _, files = read_bundle(out, bundle_names(("stats",), (2000,)))
    columns = files["stats", 2000]
    assert columns["country"].tolist() == tables["stats", 2000]["country"].tolist()
    assert sorted(columns["country"].tolist()) == sorted(codes)
    assert columns["nd"].dtype == np.int64 and columns["ns"].dtype == np.float64


def test_stats_csv_well_formed(toy_csvs, tmp_path):
    out = tmp_path / "bundle"
    _, tables = run_pipeline(config_for(toy_csvs, out, analyses=frozenset(("stats",))))
    lines = (out / "stats_2000.csv").read_text().strip().split("\n")
    assert lines[0] == "country,nd,ns,annd,anns,bcc,wcc"
    assert len(lines) == 1 + len(tables["stats", 2000]["country"])


# ---------------------------------------------------------------------------
# comparison table
# ---------------------------------------------------------------------------


def _exact_correlation_vectors(rho: float, n: int, rng: np.random.Generator):
    """Construct x, y with Pearson correlation exactly rho (up to rounding)."""
    x = rng.normal(0, 1, n)
    e = rng.normal(0, 1, n)
    x = (x - x.mean()) / x.std()
    e = e - e.mean()
    e = e - x * (x @ e) / (x @ x)  # orthogonalize against x
    e = e / np.sqrt((e @ e) / n)
    y = rho * x + math.sqrt(1 - rho**2) * e
    return x, y


def test_compare_views_labels_from_constructed_correlations(rng):
    # Graph-family stand-in: stats vectors engineered to exact correlations,
    # independently confirmed by the summation oracle.
    x, y = _exact_correlation_vectors(-0.9, 40, rng)
    assert pearson_oracle(list(x), list(y)) == pytest.approx(-0.9, abs=1e-9)

    tables = {}
    for year in (1999, 2000):
        nd, annd_v = _exact_correlation_vectors(-0.9, 40, rng)
        ns, anns_v = _exact_correlation_vectors(-0.3, 40, rng)
        tables[year] = {
            "country": np.array([f"C{i}" for i in range(40)], dtype=object),
            "nd": nd,
            "ns": ns,
            "annd": annd_v,
            "anns": anns_v,
            "bcc": -nd + 0.001 * annd_v,  # strongly anticorrelated with nd
            "wcc": ns * 0.5 + 0.01 * anns_v,  # strongly correlated with ns
        }
    series = {
        pair: correlation_series(tables, pair)
        for pair in ("ND-ANND", "NS-ANNS", "BCC-ND", "WCC-NS")
    }
    table = compare_views(series)
    assert table["view"].tolist() == ["BNA", "WNA"]
    rows = {view: {h: table[h][i] for h in table} for i, view in enumerate(table["view"])}
    assert rows["BNA"]["assortativity_r"] == pytest.approx(-0.9, abs=1e-6)
    assert rows["BNA"]["assortativity_label"] == "strong negative"
    assert rows["WNA"]["assortativity_r"] == pytest.approx(-0.3, abs=1e-6)
    assert rows["WNA"]["assortativity_label"] == "moderate negative"
    assert rows["BNA"]["clustering_label"].endswith("negative")
    assert rows["WNA"]["clustering_label"].endswith("positive")


def test_compare_views_missing_series():
    def point(pair, r, low, high):
        return {"year": [2000], "pair": [pair], "r": [r], "ci_low": [low], "ci_high": [high], "n": [40]}

    series = {
        "ND-ANND": point("ND-ANND", -0.9, -0.95, -0.85),
        "BCC-ND": point("BCC-ND", -0.96, -0.99, -0.9),
    }
    with pytest.raises(DataError, match="NS-ANNS"):
        compare_views(series)


def test_qualitative_label_buckets():
    assert qualitative_label(-0.95) == "strong negative"
    assert qualitative_label(-0.5) == "moderate negative"
    assert qualitative_label(0.2) == "weak positive"
    assert qualitative_label(0.7) == "strong positive"
    assert qualitative_label(0.3) == "moderate positive"
    assert qualitative_label(0.0) == "zero"
    assert qualitative_label(0.5, strong_cut=0.4) == "strong positive"


def test_comparison_csv_layout():
    columns = {
        "clustering_label": ["strong negative"],  # taken in header order, not given order
        "view": ["BNA"],
        "assortativity_pair": ["ND-ANND"],
        "assortativity_r": [-0.9],
        "assortativity_label": ["strong negative"],
        "clustering_pair": ["BCC-ND"],
        "clustering_r": [-0.96],
    }
    names = bundle_names(("correlations",), ())
    text = _makers(names, {"comparison": columns})["comparison.csv"]()
    assert text.startswith("view,assortativity_pair,assortativity_r,")
    assert "BNA,ND-ANND,-0.9,strong negative,BCC-ND,-0.96,strong negative" in text


#: Where the package writes a file: the one open of a staged file, which the
#: creating child and the commit share, the commit's write call built on it,
#: the commit's renames, and the panel export.
_WRITERS = {
    "pipeline._open_staged", "pipeline._write_staged", "pipeline.write_bundle.commit",
    "ingest.save_panel",
}


#: Where the package reads a file: the input reader, the manifest's reader, the
#: one digest check and the config file's reader.  Every bundle file is read
#: through ``_check_listed`` and parsed through ``read_bundle``.
_READERS = {
    "ingest._read_table", "pipeline.read_manifest", "pipeline._check_listed",
    "cli.read_config_file",
}


def _writes(tree: ast.AST):
    """(scope, line) of each call in ``tree`` that writes a file (see ``_file_calls``)."""
    return ((scope, line) for scope, line, writes in _file_calls(tree) if writes)


def _reads(tree: ast.AST):
    """(scope, line) of each call in ``tree`` that reads a file (see ``_file_calls``)."""
    return ((scope, line) for scope, line, writes in _file_calls(tree) if not writes)


def _file_calls(tree: ast.AST, scope: str = ""):
    """(scope, line, writes) of each call in ``tree`` that opens, reads or writes
    a file.  It writes if it is ``write_text``, ``write_bytes``, ``os.replace``,
    ``os.write``, or ``open`` with a mode that is not plainly a read mode; it reads if it is
    ``read_text``, ``read_bytes`` or ``open`` with a read mode.  ``scope`` is the
    dotted name of the enclosing functions and classes."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            owner = getattr(func, "value", None)
            module = owner.id if isinstance(owner, ast.Name) else None
            if name == "open":  # open(file, mode), os.open/io.open(file, mode), path.open(mode)
                at = 1 if isinstance(func, ast.Name) or module in ("os", "io") else 0
                modes = [kw.value for kw in node.keywords if kw.arg in ("mode", "flags")]
                mode = (modes or node.args[at : at + 1] or [ast.Constant("r")])[0]
                yield scope, node.lineno, not (
                    isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")
                )
            elif name in ("write_text", "write_bytes") or (name, module) in (
                ("replace", "os"), ("write", "os"),
            ):
                yield scope, node.lineno, True
            elif name in ("read_text", "read_bytes"):
                yield scope, node.lineno, False
        yield from _file_calls(node, inner)


def test_write_bundle_is_the_only_writer():
    src = Path(wnet.pipeline.__file__).parent
    found, writers = [], set()
    for path in sorted(src.glob("*.py")):
        for scope, line in _writes(ast.parse(path.read_text(encoding="utf-8"))):
            writers.add(f"{path.stem}{scope}")
            if f"{path.stem}{scope}" not in _WRITERS:
                found.append(f"{path.name}:{line} in {path.stem}{scope or ' (module)'}")
    assert not found, "files written outside write_bundle: " + ", ".join(found)
    assert writers == _WRITERS  # the guard names no scope that writes nothing


def test_the_writer_guard_sees_every_kind_of_write():
    code = """
def f(p, q):
    p.write_text("x")
    q.write_bytes(b"x")
    os.replace(p, q)
    open(p, "w")
    open(p, mode="ab")
    io.open(p, "r+")
    p.open("x")
    open(p, m)
    os.open(p, flags)
    open(p)
    open(p, "rb")
    p.open()
    "a-b".replace("-", "_")
"""
    assert [line for _, line in _writes(ast.parse(code))] == list(range(3, 12))


def test_the_writer_guard_sees_a_write_to_a_descriptor():
    code = """
def f(fd, fh):
    os.write(fd, b"x")
    fh.write(b"x")
    sys.stdout.write("x")
"""
    assert [line for _, line in _writes(ast.parse(code))] == [3]


def test_read_bundle_is_the_only_reader_of_bundle_files():
    src = Path(wnet.pipeline.__file__).parent
    found, readers = [], set()
    for path in sorted(src.glob("*.py")):
        for scope, line in _reads(ast.parse(path.read_text(encoding="utf-8"))):
            readers.add(f"{path.stem}{scope}")
            if f"{path.stem}{scope}" not in _READERS:
                found.append(f"{path.name}:{line} in {path.stem}{scope or ' (module)'}")
    assert not found, "files read outside the listed readers: " + ", ".join(found)
    assert readers == _READERS  # the guard names no scope that reads nothing


def test_the_reader_guard_sees_every_kind_of_read():
    code = """
def f(p, fh):
    p.read_text()
    q.read_bytes()
    open(p)
    open(p, "rb")
    io.open(p, mode="rt")
    p.open()
    open(p, "w")
    p.write_text("x")
    os.open(p, flags)
    fh.read()
    json.loads(fh)
"""
    assert [line for _, line in _reads(ast.parse(code))] == list(range(3, 9))


def _float_specs(tree: ast.AST):
    """Line of each f-string field and ``format`` call in ``tree`` (the builtin, or
    the method of a literal string) whose format spec asks for a float's e, f or g form."""
    for node in ast.walk(tree):
        specs = []
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            specs = ["".join(str(part.value) for part in node.format_spec.values
                             if isinstance(part, ast.Constant))]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "format" and len(node.args) == 2:
                specs = [getattr(node.args[1], "value", "")]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "format" and isinstance(node.func.value, ast.Constant):
                specs = [spec for *_, spec, _ in string.Formatter().parse(node.func.value.value)]
        if any(str(spec or "")[-1:] in ("e", "E", "f", "F", "g", "G") for spec in specs):
            yield node.lineno


def test_one_module_makes_the_text_of_every_file():
    # One function turns values into file text: format_table and its float
    # cells, the one user of orjson.  No other float formatting reaches a file
    # from the modules that make file text; the CLI's help and stdout and the
    # pipeline's log line keep theirs.
    src = Path(wnet.pipeline.__file__).parent
    importers, definers, specs = [], [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(a.name == "orjson" for a in node.names):
                importers.append(path.stem)
            if isinstance(node, ast.ImportFrom) and node.module == "orjson" and not node.level:
                importers.append(path.stem)
            if isinstance(node, ast.FunctionDef) and node.name == "format_table":
                definers.append(path.stem)
        if path.stem in ("ingest", "graph", "stats"):
            specs += [f"{path.name}:{line}" for line in _float_specs(tree)]
    assert not specs, "float format specs outside format_table: " + ", ".join(specs)
    assert importers == definers == ["ingest"]


def test_the_float_spec_guard_sees_every_kind_of_spec():
    code = """
f"{x:.17g}"
f"{x:>{w}.3f}"
format(x, "e")
"{} {:.1F}".format(x, y)
f"{x!r} {n:d} {s:>8} {x}"
format(x)
"{!r}".format(x)
"%.3f" % x
"""
    assert sorted(_float_specs(ast.parse(code))) == [2, 3, 4, 5]


def _process_calls(tree: ast.AST, scope: str = ""):
    """(scope, name, line) of each use of ``os.fork``, ``os._exit`` or ``os.pipe``
    in ``tree``, as an attribute or an import; ``scope`` as in ``_file_calls``."""
    names = {"fork", "_exit", "pipe"}
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr in names:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                yield scope, node.attr, node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from ((scope, alias.name, node.lineno) for alias in node.names if alias.name in names)
        yield from _process_calls(node, inner)


def test_fork_is_the_only_place_that_forks():
    # One fork site, on entry to write_bundle: the creating child, whose exit
    # status is not read.  commit, and everything else, forks nothing.
    src = Path(wnet.pipeline.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, name, line in _process_calls(tree):
            found.setdefault((f"{path.stem}{scope}", name), []).append(line)
    site = "pipeline.write_bundle"
    assert set(found) == {(site, "fork"), (site, "_exit")}, found
    assert len(found[site, "fork"]) == 1
