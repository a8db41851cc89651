"""Acceptance suite: one test per acceptance criterion, at stated tolerance.

Each criterion prints a single ``[acceptance] <name>: PASS/FAIL`` line.  The
data-reproduction criterion needs externally supplied trade/GDP files (see
README) and is skipped when the WNET_WTW_FLOWS / WNET_WTW_GDP environment
variables are unset.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from wnet import (
    WeightScheme,
    build_directed,
    load_panel,
    symmetrize,
)
from wnet.cli import main as cli_main
from wnet.distributions import fit_tail_rows, kde_rows
from wnet.stats import node_stats

from conftest import (
    make_undirected,
    random_panel,
    random_undirected,
    rescaled_panel,
    write_panel_csvs,
)
from oracles import (
    annd_oracle,
    anns_oracle,
    assert_vectors_match,
    bcc_oracle,
    degree_oracle,
    strength_oracle,
    wcc_oracle,
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_oracle_equivalence():
    with criterion("oracle equivalence (200 graphs, N<=12, tol 1e-10, <5s)"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 13))
            net = random_undirected(rng, n=n, p=float(rng.uniform(0.15, 0.95)))
            table = node_stats(net)
            assert_vectors_match(table["nd"], degree_oracle(net.adjacency), 1e-10)
            assert_vectors_match(table["ns"], strength_oracle(net.weights), 1e-10)
            assert_vectors_match(table["annd"], annd_oracle(net.adjacency), 1e-10)
            assert_vectors_match(table["anns"], anns_oracle(net.adjacency, net.weights), 1e-10)
            assert_vectors_match(table["bcc"], bcc_oracle(net.adjacency), 1e-10)
            assert_vectors_match(table["wcc"], wcc_oracle(net.adjacency, net.weights), 1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_binary_degeneration():
    with criterion("binary degeneration (50 graphs, weighted == binary, tol 1e-12)"):
        rng = np.random.default_rng(202)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            net = random_undirected(rng, n=n, p=float(rng.uniform(0.2, 0.9)), binary=True)
            table = node_stats(net)
            assert_vectors_match(table["ns"], table["nd"], 1e-12)
            assert_vectors_match(table["anns"], table["annd"], 1e-12)
            assert_vectors_match(table["wcc"], table["bcc"], 1e-12)


def test_symmetrization_contract():
    with criterion("symmetrization contract (symmetry, zero diag, max 1, rescale tol 1e-12)"):
        rng = np.random.default_rng(303)
        for _ in range(20):
            panel = random_panel(rng, n=int(rng.integers(4, 13)), p=0.5)
            und = symmetrize(build_directed(panel, 2000, WeightScheme()))
            assert (und.weights == und.weights.T).all()
            assert (und.adjacency == und.adjacency.T).all()
            assert (und.weights.diagonal() == 0).all()
            assert (und.adjacency.diagonal() == 0).all()
            assert und.weights.max() == 1.0

            factor = float(rng.uniform(0.001, 1000))
            rescaled = symmetrize(
                build_directed(rescaled_panel(panel, factor), 2000, WeightScheme())
            )
            assert (rescaled.adjacency == und.adjacency).all()
            assert np.max(np.abs(rescaled.weights - und.weights)) <= 1e-12


def test_analytic_fixtures():
    with criterion("analytic fixtures (triangle, star, path; exact)"):
        w3 = np.ones((3, 3)) - np.eye(3)
        triangle = node_stats(make_undirected(w3, normalize=False))
        assert triangle["bcc"].tolist() == [1.0, 1.0, 1.0]
        assert triangle["wcc"].tolist() == [1.0, 1.0, 1.0]

        k = 4
        w = np.zeros((k + 1, k + 1))
        w[0, 1:] = w[1:, 0] = 1.0
        star = node_stats(make_undirected(w, normalize=False))
        b = star["bcc"]
        assert b[0] == 0.0  # k >= 2 leaves, none of them linked
        assert np.isnan(b[1:]).all()  # degree-1 leaves excluded
        assert (star["annd"][1:] == float(k)).all()  # leaf ANND = hub degree

        single = node_stats(make_undirected(np.array([[0.0, 1.0], [1.0, 0.0]]), normalize=False))
        assert np.isnan(single["bcc"]).all()  # with one leaf the hub is excluded too

        wp = np.zeros((3, 3))
        wp[0, 1] = wp[1, 0] = wp[1, 2] = wp[2, 1] = 1.0
        path = node_stats(make_undirected(wp, normalize=False))
        assert path["bcc"][1] == 0.0


def test_kde_normalization_and_bimodality():
    with criterion("kde normalization (100 samples, integral within 1e-3) + bimodal recovery"):
        rng = np.random.default_rng(404)
        for i in range(100):
            n = int(rng.integers(30, 500))
            kind = i % 4
            if kind == 0:
                sample = rng.normal(rng.uniform(-10, 10), rng.uniform(0.3, 5), n)
            elif kind == 1:
                sample = rng.uniform(-3, 3, n)
            elif kind == 2:
                sample = rng.lognormal(0, 1, n)
            else:
                sample = rng.exponential(2.0, n)
            est = kde_rows(sample[None])
            assert abs(np.trapezoid(est["density"][0], est["grid"][0]) - 1.0) <= 1e-3
            assert (est["density"] >= 0).all()

        mix = np.concatenate(
            [rng.normal(0.0, 0.5, 1500), rng.normal(4.0, 0.5, 1500)]
        )
        est = kde_rows(mix[None])
        (grid,), (d,) = est["grid"], est["density"]
        maxima = [i for i in range(1, len(d) - 1) if d[i - 1] < d[i] > d[i + 1]]
        top_two = sorted(sorted(maxima, key=lambda i: -d[i])[:2])
        assert len(top_two) == 2
        assert abs(grid[top_two[0]] - 0.0) < 0.2
        assert abs(grid[top_two[1]] - 4.0) < 0.2


def test_fit_recovery():
    with criterion("fit recovery (log-normal +/-0.05, Hill +/-0.1, <10s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(6)
        lognorm = fit_tail_rows(rng.lognormal(0.0, 1.0, (1, 10_000)))
        assert abs(lognorm["mu"][0] - 0.0) <= 0.05
        assert abs(lognorm["sigma"][0] - 1.0) <= 0.05

        rng = np.random.default_rng(7)
        pareto = fit_tail_rows(1.0 + rng.pareto(1.5, (1, 10_000)))
        assert abs(pareto["alpha"][0] - 1.5) <= 0.1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"fit recovery took {elapsed:.2f}s"


def test_determinism_of_full_runs(tmp_path):
    with criterion("determinism (repeated 'all' runs byte-identical)"):
        flows, gdp = write_panel_csvs(tmp_path, n=60, years=(1999, 2000), seed=7)
        outputs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            code = cli_main(
                [
                    "all",
                    "--flows", str(flows),
                    "--gdp", str(gdp),
                    "--years", "1999:2000",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0].keys() == outputs[1].keys()
        assert outputs[0] == outputs[1]


WTW_FLOWS = os.environ.get("WNET_WTW_FLOWS")
WTW_GDP = os.environ.get("WNET_WTW_GDP")


@pytest.mark.skipif(
    not (WTW_FLOWS and WTW_GDP),
    reason="set WNET_WTW_FLOWS and WNET_WTW_GDP to point at Gleditsch-style data",
)
def test_world_trade_web_reproduction():
    """Headline-number reproduction on user-supplied 1981-2000 trade data."""
    from wnet import correlation_series

    with criterion("world trade web reproduction (year 2000, exporter-GDP)"):
        start = time.perf_counter()
        panel = load_panel(Path(WTW_FLOWS), Path(WTW_GDP))
        years = [y for y in panel.years if 1981 <= y <= 2000]
        assert years, "no years in 1981-2000 found in the supplied data"
        tables = {}
        for year in years:
            net = symmetrize(build_directed(panel, year, WeightScheme()))
            tables[year] = node_stats(net)

        t2000 = tables[2000]
        mean_nd = float(np.nanmean(t2000["nd"].astype(float)))
        mean_bcc = float(np.nanmean(t2000["bcc"]))
        mean_wcc = float(np.nanmean(t2000["wcc"]))
        assert 80 <= mean_nd <= 100
        assert 0.7 <= mean_bcc <= 0.9
        assert 1e-3 / 3 <= mean_wcc <= 1e-3 * 3

        expectations = {
            "ND-NS": 0.50,
            "ND-ANND": -0.95,
            "NS-ANNS": -0.40,
            "BCC-ND": -0.96,
        }
        for pair, target in expectations.items():
            mean_r = float(np.mean(correlation_series(tables, pair)["r"]))
            assert abs(mean_r - target) <= 0.1, f"{pair}: {mean_r:.3f} vs {target}"
        wcc_ns = correlation_series(tables, "WCC-NS")
        assert (wcc_ns["r"] > 0).all(), "WCC-NS must be positive in every year"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"20-year pipeline took {elapsed:.2f}s"
