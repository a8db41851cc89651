from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import contextmanager

import numpy as np
import pytest

import wnet.pipeline
from wnet import UndirectedNetwork, load_panel

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Example counts for tests that take theirs from the profile; select one with
    # `--hypothesis-profile=thorough`.  Every other test sets its own count.
    settings.register_profile("default", max_examples=400)
    settings.register_profile("thorough", max_examples=20_000)
    settings.load_profile(settings.get_current_profile_name())  # the new one of that name


def make_undirected(
    weights: np.ndarray, year: int = 2000, normalize: bool = True
) -> UndirectedNetwork:
    """Wrap a symmetric nonnegative weight matrix into an UndirectedNetwork."""
    w = np.asarray(weights, dtype=float)
    assert (w == w.T).all() and (w.diagonal() == 0).all()
    if normalize and w.max() > 0:
        w = w / w.max()
    adjacency = (w > 0).astype(np.int64)
    codes = tuple(f"N{i:03d}" for i in range(len(w)))
    return UndirectedNetwork(year, codes, adjacency, w, float(w.max()))


def random_undirected(
    rng: np.random.Generator,
    n: int,
    p: float = 0.5,
    binary: bool = False,
    year: int = 2000,
) -> UndirectedNetwork:
    """Random symmetric network with weights in [0, 1]."""
    mask = np.triu(rng.random((n, n)) < p, k=1)
    mask = mask | mask.T
    if binary:
        w = mask.astype(float)
    else:
        raw = rng.random((n, n))
        w = np.where(mask, np.triu(raw, 1) + np.triu(raw, 1).T, 0.0)
    if w.max() > 0:
        w = w / w.max()
    return make_undirected(w, year=year, normalize=False)


def panel_from_rows(flows, sizes=()):
    """Load a panel from (year, exporter, importer, value) and (year, country,
    gdp) tuples, written out as the canonical CSV text."""
    flow_text = "year,exporter,importer,value\n" + "".join(
        f"{y},{a},{b},{v!r}\n" for y, a, b, v in flows
    )
    size_text = "year,country,gdp\n" + "".join(f"{y},{c},{g!r}\n" for y, c, g in sizes)
    return load_panel(flow_text.encode(), size_text.encode())


def flow_rows(panel):
    """The panel's flows as (year, exporter, importer, value) tuples, in order."""
    codes = panel.codes
    return [
        (y, codes[a], codes[b], v)
        for y, a, b, v in zip(
            panel.flow_year.tolist(),
            panel.exporter.tolist(),
            panel.importer.tolist(),
            panel.value.tolist(),
        )
    ]


def size_rows(panel):
    """The panel's GDP records as (year, country, gdp) tuples, in order."""
    t, c = np.nonzero(~np.isnan(panel.gdp))
    return [
        (panel.years[i], panel.codes[j], g)
        for i, j, g in zip(t.tolist(), c.tolist(), panel.gdp[t, c].tolist())
    ]


def rescaled_panel(panel, factor: float):
    """The same panel with every flow value multiplied by ``factor``."""
    flows = [(y, a, b, v * factor) for y, a, b, v in flow_rows(panel)]
    return panel_from_rows(flows, size_rows(panel))


def random_panel(
    rng: np.random.Generator,
    n: int = 10,
    years: tuple[int, ...] = (2000,),
    p: float = 0.5,
    scale: float = 1.0,
):
    """Random flow/GDP panel; flow values are lognormal, GDP lognormal."""
    codes = [f"C{i:02d}" for i in range(n)]
    flows = []
    sizes = []
    for year in years:
        for a in codes:
            for b in codes:
                if a != b and rng.random() < p:
                    flows.append((year, a, b, float(np.exp(rng.normal(10, 2))) * scale))
        for c in codes:
            sizes.append((year, c, float(np.exp(rng.normal(24, 1)))))
    return panel_from_rows(flows, sizes)


def assert_bundle_intact(out, keep=()):
    """Every file that ``out``'s manifest lists has its listed digest, and ``out``
    holds nothing else but the manifest and ``keep``: no staging leftover."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert not list(out.glob(".wnet-*"))
    expected = {*manifest["files"], "manifest.json", *keep}
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)


def record_commits(monkeypatch) -> list[str]:
    """Make ``run_pipeline``'s bundle writes add the name of each file they
    commit, in write order, to the returned list."""
    committed = []
    real = wnet.pipeline.write_bundle

    @contextmanager
    def write_bundle(out_dir, names):
        with real(out_dir, names) as commit:
            def record(files, manifest):
                committed.extend(files)
                return commit(files, manifest)
            yield record

    monkeypatch.setattr(wnet.pipeline, "write_bundle", write_bundle)
    return committed


def write_panel_csvs(tmp_path, n=60, years=(1999, 2000), seed=7, p=0.5):
    """Deterministic synthetic fixture large enough for every analysis."""
    rng = np.random.default_rng(seed)
    codes = [f"C{i:02d}" for i in range(n)]
    flow_lines = ["year,exporter,importer,value"]
    size_lines = ["year,country,gdp"]
    for year in years:
        for a in codes:
            for b in codes:
                if a != b and rng.random() < p:
                    value = float(np.exp(rng.normal(10, 2)))
                    flow_lines.append(f"{year},{a},{b},{value!r}")
        for c in codes:
            size_lines.append(f"{year},{c},{float(np.exp(rng.normal(24, 1)))!r}")
    flows_path = tmp_path / "flows.csv"
    gdp_path = tmp_path / "gdp.csv"
    flows_path.write_text("\n".join(flow_lines) + "\n", encoding="utf-8")
    gdp_path.write_text("\n".join(size_lines) + "\n", encoding="utf-8")
    return flows_path, gdp_path


def write_gravity_panel(tmp_path, n=159, years=(1998, 1999, 2000), seed=99):
    """Deterministic gravity-style flow and GDP CSVs: n countries whose GDPs grow
    each year, flows proportional to both GDP shares with log-normal noise, and
    flows under a reporting floor left out."""
    rng = np.random.default_rng(seed)
    gdp = np.exp(rng.normal(24.0, 2.0, n))
    codes = [f"C{i:03d}" for i in range(n)]
    flow_lines = ["year,exporter,importer,value"]
    size_lines = ["year,country,gdp"]
    for t, year in enumerate(years):
        if t:
            gdp = gdp * np.exp(rng.normal(0.03, 0.02, n))
        share = gdp / gdp.sum()
        for i in range(n):
            values = 2e11 * share[i] * share * np.exp(rng.normal(0, 1.2, n))
            for j in range(n):
                if i != j and values[j] > 1e5:  # reporting floor
                    flow_lines.append(f"{year},{codes[i]},{codes[j]},{values[j]:.6g}")
        for i in range(n):
            size_lines.append(f"{year},{codes[i]},{gdp[i]:.6g}")
    flows = tmp_path / "gravity_flows.csv"
    sizes = tmp_path / "gravity_gdp.csv"
    flows.write_text("\n".join(flow_lines) + "\n", encoding="utf-8")
    sizes.write_text("\n".join(size_lines) + "\n", encoding="utf-8")
    return flows, sizes


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)


@pytest.fixture
def toy_csvs(tmp_path):
    return write_panel_csvs(tmp_path)


def hostile_panels(st):
    """Strategy of (codes, flow CSV bytes, GDP CSV bytes) over 2 to 5 distinct country
    codes that hold commas, double quotes, CR, LF, ``#``, spaces and non-ASCII
    characters, with no whitespace at either end (ingest strips it).  The csv module
    writes the files, quoting every code.  Each year holds the flow from the first
    code to the second; any other flow or GDP record may be missing."""
    char = st.sampled_from('Ab ,"\r\n#') | st.characters(min_codepoint=0x80, exclude_categories=["Cs"])
    code = st.text(char, min_size=1, max_size=6).filter(lambda c: c == c.strip())
    value = st.floats(1e-3, 1e12)

    @st.composite
    def panels(draw):
        codes = draw(st.lists(code, min_size=2, max_size=5, unique=True))
        flows, sizes = io.StringIO(), io.StringIO()
        flow_rows, size_rows = (
            csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC) for fh in (flows, sizes)
        )
        flow_rows.writerow(["year", "exporter", "importer", "value"])
        size_rows.writerow(["year", "country", "gdp"])
        for year in draw(st.sampled_from([(2000,), (1999, 2000)])):
            flow_rows.writerow([year, codes[0], codes[1], draw(value)])
            for a, b in ((a, b) for a in codes for b in codes if a != b):
                if (a, b) != tuple(codes[:2]) and draw(st.booleans()):
                    flow_rows.writerow([year, a, b, draw(value)])
            for c in codes:
                if draw(st.booleans()):
                    size_rows.writerow([year, c, draw(value)])
        return codes, flows.getvalue().encode(), sizes.getvalue().encode()

    return panels()
