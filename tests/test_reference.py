"""The analyses at paper scale against independent reference code.

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
    WeightScheme, build_directed, correlation_series, load_panel, node_stats, symmetrize,
)
from wnet.distributions import SUPPORTED_PAIRS

from conftest import write_gravity_panel

scipy_stats = pytest.importorskip("scipy.stats")

ATOL = 4 * 2.0**-52


def test_correlation_series_matches_scipy_at_paper_scale(tmp_path):
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
