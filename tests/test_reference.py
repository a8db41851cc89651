"""The analyses at paper scale against independent reference code.

networkx computes the six node statistics from a year's normalized weight
matrix with code of its own; they are compared with the ``stats_*.csv`` tables
as read back from a written bundle, floats at relative 1e-12.

scipy's ``pearsonr`` and its ``confidence_interval`` are an implementation of
the Pearson correlation and its Fisher-z band that shares no code with wnet.
They are compared over the 159-country gravity panel, at relative 1e-12.
Every compared value lies in [-1, 1], so cells near 0 also pass within an
absolute ``ATOL`` of 4 ulps of 1: there both sides' rounding, about one ulp of
the largest term they sum, is all that separates them (at most 2.5e-16 here).
"""

from __future__ import annotations

import numpy as np
import pytest

from wnet import (
    PipelineConfig, WeightScheme, build_directed, correlation_series, load_panel, node_stats,
    run_pipeline, symmetrize,
)
from wnet.distributions import SUPPORTED_PAIRS
from wnet.pipeline import bundle_names, read_bundle

from conftest import write_gravity_panel

ATOL = 4 * 2.0**-52


def test_node_statistics_match_networkx_at_paper_scale(tmp_path):
    nx = pytest.importorskip("networkx")
    flows, gdp = write_gravity_panel(tmp_path, years=(1999, 2000))  # 159 countries
    panel = load_panel(flows, gdp)
    config = PipelineConfig(flows, gdp, WeightScheme(), panel.years, tmp_path / "bundle",
                            analyses=frozenset({"stats"}))
    run_pipeline(config)
    _, files = read_bundle(config.out_dir, bundle_names(config.analyses, panel.years))
    for year in panel.years:
        graph = nx.from_numpy_array(symmetrize(build_directed(panel, year, WeightScheme())).weights)
        table = files["stats", year]
        assert table["country"].tolist() == list(panel.codes)
        strength = dict(graph.degree(weight="weight"))
        wants = {
            "nd": dict(graph.degree),
            "ns": strength,
            "annd": nx.average_neighbor_degree(graph),
            "anns": {i: np.mean([strength[j] for j in graph[i]]) for i in graph},
            "bcc": nx.clustering(graph),
            "wcc": nx.clustering(graph, weight="weight"),
        }
        assert table["nd"].dtype == np.int64 and table["nd"].min() > 1, year
        assert table["nd"].tolist() == [wants["nd"][i] for i in graph], year
        for name in ("ns", "annd", "anns", "bcc", "wcc"):
            want = [wants[name][i] for i in graph]
            np.testing.assert_allclose(table[name], want, rtol=1e-12, atol=0, err_msg=f"{name} {year}")


def test_correlation_series_matches_scipy_at_paper_scale(tmp_path):
    scipy_stats = pytest.importorskip("scipy.stats")
    panel = load_panel(*write_gravity_panel(tmp_path))  # 159 countries, 3 years
    tables = {
        year: node_stats(symmetrize(build_directed(panel, year, WeightScheme())))
        for year in panel.years
    }
    for pair, names in SUPPORTED_PAIRS.items():
        series = correlation_series(tables, pair, 0.90)
        assert series["year"].tolist() == list(panel.years)
        for i, year in enumerate(panel.years):
            x, y = (tables[year][name].astype(float) for name in names)
            joint = np.isfinite(x) & np.isfinite(y)
            result = scipy_stats.pearsonr(x[joint], y[joint])
            band = result.confidence_interval(0.90)
            assert series["n"][i] == joint.sum() > 100, (pair, year)
            wants = {"r": result.statistic, "ci_low": band.low, "ci_high": band.high}
            for name, want in wants.items():
                got = series[name][i]
                assert got == pytest.approx(want, rel=1e-12, abs=ATOL), (pair, year, name)
