from __future__ import annotations

import math
import re

import numpy as np
import pytest

from wnet import (
    DataError,
    NodeStatsTable,
    ValidationError,
    correlation_series,
    fit_tail,
    kde,
    pearson_with_ci,
    rank_size,
    silverman_bandwidth,
)
from wnet.distributions import _ndtri

from oracles import fisher_ci_oracle, pearson_oracle


# ---------------------------------------------------------------------------
# kernel density
# ---------------------------------------------------------------------------


def test_kde_integrates_to_one(rng):
    for _ in range(10):
        sample = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4), 200)
        est = kde(sample)
        assert abs(est.integral() - 1.0) <= 1e-3
        assert (est.density >= 0).all()
        assert len(est.grid) == 512


def test_kde_symmetric_input_gives_symmetric_density(rng):
    half = rng.uniform(0.2, 3.0, 100)
    sample = np.concatenate([half, -half])
    est = kde(sample)
    assert np.max(np.abs(est.density - est.density[::-1])) <= 1e-10


def test_kde_default_bandwidth_is_silverman(rng):
    sample = rng.normal(0, 1, 150)
    est = kde(sample)
    std = sample.std()
    iqr = np.percentile(sample, 75) - np.percentile(sample, 25)
    expected = 0.9 * min(std, iqr / 1.34) * len(sample) ** (-0.2)
    assert est.bandwidth == pytest.approx(expected, rel=1e-12)
    assert silverman_bandwidth(sample) == pytest.approx(expected, rel=1e-12)


def test_kde_grid_span(rng):
    sample = rng.uniform(0, 1, 50)
    est = kde(sample)
    assert est.grid[0] == pytest.approx(sample.min() - 3 * est.bandwidth)
    assert est.grid[-1] == pytest.approx(sample.max() + 3 * est.bandwidth)


def test_kde_bimodal_recovery():
    rng = np.random.default_rng(11)
    sample = np.concatenate([rng.normal(0.0, 0.5, 1500), rng.normal(4.0, 0.5, 1500)])
    est = kde(sample)
    d = est.density
    maxima = [i for i in range(1, len(d) - 1) if d[i - 1] < d[i] > d[i + 1]]
    top_two = sorted(sorted(maxima, key=lambda i: -d[i])[:2])
    locations = [est.grid[i] for i in top_two]
    assert abs(locations[0] - 0.0) < 0.2
    assert abs(locations[1] - 4.0) < 0.2


def test_kde_explicit_bandwidth():
    sample = np.arange(10.0)
    est = kde(sample, bandwidth=0.5)
    assert est.bandwidth == 0.5
    with pytest.raises(ValidationError):
        kde(sample, bandwidth=-1.0)


def test_kde_rejects_a_bandwidth_that_breaks_its_grid():
    sample = np.arange(10.0)
    for h in (1e308, 1e-320):  # 3h or 1/h overflows
        with pytest.raises(ValidationError, match=re.escape(repr(h))):
            kde(sample, bandwidth=h)
    with pytest.raises(DataError, match="bandwidth 1e-300 puts the density grid"):
        kde(sample, bandwidth=1e-300)  # ((max - min + 3h) / h) ** 2 overflows
    with pytest.raises(DataError, match=r"bandwidth 3e\+306 puts the density grid"):
        kde(np.array([-1.7e308, 0, 1, 2, 0]), bandwidth=3e306)  # its ends are finite, its span not
    assert np.isfinite(kde(sample, bandwidth=1e-150).density).all()


def test_kde_errors():
    with pytest.raises(DataError, match=">= 5"):
        kde(np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(DataError, match="constant"):
        kde(np.full(10, 3.3))


def test_kde_drops_undefined(rng):
    sample = np.concatenate([rng.normal(0, 1, 50), [np.nan, np.nan]])
    est = kde(sample)
    assert est.n == 50


def test_kde_zero_iqr_falls_back_to_std():
    # Heavily tied sample: IQR is 0 but the spread is not.
    values = np.array([1.0] * 40 + [0.0, 2.0, 3.0, 5.0])
    h = silverman_bandwidth(values)
    assert h == pytest.approx(0.9 * values.std() * len(values) ** (-0.2))
    assert kde(values).bandwidth == pytest.approx(h)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def test_pearson_perfect_correlation():
    x = np.array([1.0, 2.0, 3.0])
    point = pearson_with_ci(x, x)
    assert point.r == pytest.approx(1.0)
    assert point.ci_low <= point.r <= point.ci_high
    assert point.n == 3


def test_pearson_perfect_anticorrelation():
    point = pearson_with_ci(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]))
    assert point.r == pytest.approx(-1.0)
    assert point.ci_low <= point.r <= point.ci_high


def test_pearson_matches_summation_oracle():
    x = [0.5, 1.7, 2.1, 3.3, 4.0, 5.2, 6.1, 7.7, 8.4, 9.9]
    y = [2.1, 1.9, 3.5, 3.1, 5.0, 4.6, 6.2, 6.9, 8.1, 8.5]
    point = pearson_with_ci(np.array(x), np.array(y))
    assert point.r == pytest.approx(pearson_oracle(x, y), abs=1e-12)


def test_pearson_ci_matches_fisher_oracle(rng):
    x = rng.normal(0, 1, 40)
    y = 0.6 * x + rng.normal(0, 1, 40)
    point = pearson_with_ci(x, y, level=0.90)
    lo, hi = fisher_ci_oracle(point.r, point.n, 0.90)
    assert point.ci_low == pytest.approx(lo, abs=1e-12)
    assert point.ci_high == pytest.approx(hi, abs=1e-12)


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
def test_pearson_ci_equals_fisher_oracle_exactly(rng, level):
    pytest.importorskip("scipy")
    x = rng.normal(0, 1, 40)
    y = 0.6 * x + rng.normal(0, 1, 40)
    point = pearson_with_ci(x, y, level=level)
    expected = fisher_ci_oracle(
        point.r, point.n, level, atanh=lambda r: float(np.arctanh(r))
    )
    assert (point.ci_low, point.ci_high) == expected


# ---------------------------------------------------------------------------
# normal quantile (port of Cephes ndtri)
# ---------------------------------------------------------------------------


def assert_ndtri_matches_scipy(points) -> None:
    special = pytest.importorskip("scipy.special")
    p = np.asarray(points, dtype=float)
    ours = np.array([_ndtri(v) for v in p.tolist()])
    assert np.array_equal(ours, special.ndtri(p))


def test_ndtri_matches_scipy_on_random_points():
    gen = np.random.default_rng(3)
    assert_ndtri_matches_scipy(gen.random(100_000))


def test_ndtri_matches_scipy_at_band_quantiles():
    assert_ndtri_matches_scipy(0.5 + np.linspace(0.0005, 0.9995, 1999) / 2)


def test_ndtri_matches_scipy_in_far_tails():
    gen = np.random.default_rng(4)
    upper = 1 - gen.random(2000) * 1e-14  # 1 - p < exp(-32): the x >= 8 branch
    lower = gen.random(2000) * 1e-14
    deep = np.exp(-gen.uniform(0, 700, 2000))
    edges = [np.nextafter(0, 1), np.nextafter(1, 0), math.exp(-2), 1 - math.exp(-2), 0.5]
    assert_ndtri_matches_scipy(np.concatenate([upper, lower, deep, edges]))


def test_ndtri_endpoints():
    assert _ndtri(0.0) == -math.inf
    assert _ndtri(1.0) == math.inf
    assert_ndtri_matches_scipy([0.0, 1.0])


def test_pearson_drops_undefined_pairwise():
    x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
    y = np.array([2.0, np.nan, 3.0, 8.0, 10.0])
    point = pearson_with_ci(x, y)
    assert point.n == 3


def test_pearson_affine_invariance(rng):
    x = rng.normal(0, 1, 30)
    y = rng.normal(0, 1, 30)
    base = pearson_with_ci(x, y).r
    shifted = pearson_with_ci(2.5 * x + 7.0, -1.0 + 0.3 * y).r
    assert shifted == pytest.approx(base, abs=1e-12)


def test_pearson_ci_narrows_with_n(rng):
    x = rng.normal(0, 1, 12)
    y = 0.5 * x + rng.normal(0, 1, 12)
    widths = []
    for reps in (1, 4, 16):
        point = pearson_with_ci(np.tile(x, reps), np.tile(y, reps))
        widths.append(point.ci_high - point.ci_low)
    assert widths[0] > widths[1] > widths[2]


def test_pearson_errors():
    with pytest.raises(DataError, match=">= 3"):
        pearson_with_ci(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DataError, match="zero-variance"):
        pearson_with_ci(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError, match="level"):
        pearson_with_ci(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]), level=1.5)


def _table(year, **columns):
    n = len(next(iter(columns.values())))
    base = {
        "nd": np.ones(n),
        "ns": np.ones(n),
        "annd": np.ones(n),
        "anns": np.ones(n),
        "bcc": np.ones(n),
        "wcc": np.ones(n),
    }
    base.update({k: np.asarray(v, dtype=float) for k, v in columns.items()})
    return NodeStatsTable(year=year, codes=tuple(f"C{i}" for i in range(n)), **base)


def test_correlation_series_one_point_per_year(rng):
    tables = []
    for year in (1999, 2000, 2001):
        nd = rng.normal(10, 2, 20)
        tables.append(_table(year, nd=nd, ns=nd * 0.4 + rng.normal(0, 0.5, 20)))
    series = correlation_series(tables, "ND-NS")
    assert [p.year for p in series] == [1999, 2000, 2001]
    assert all(p.pair == "ND-NS" for p in series)
    assert all(p.ci_low <= p.r <= p.ci_high for p in series)


def test_correlation_series_single_year():
    rng = np.random.default_rng(1)
    nd = rng.normal(10, 2, 15)
    series = correlation_series([_table(2000, nd=nd, ns=nd + rng.normal(0, 1, 15))], "ND-NS")
    assert len(series) == 1 and series[0].year == 2000


def test_correlation_series_unsupported_pair():
    with pytest.raises(ValidationError, match="unsupported pair"):
        correlation_series([_table(2000, nd=np.arange(5.0))], "ND-WCC")


def test_correlation_series_needs_a_year():
    with pytest.raises(ValidationError, match="at least one year"):
        correlation_series([], "ND-NS")


# ---------------------------------------------------------------------------
# rank-size and tail fits
# ---------------------------------------------------------------------------


def test_rank_size_sorts_descending():
    curve = rank_size(np.array([3.0, 1.0, 2.0]))
    assert curve.sizes.tolist() == [3.0, 2.0, 1.0]
    assert curve.ranks.tolist() == [1, 2, 3]
    assert curve.dropped == 0


def test_rank_size_flat_curve():
    curve = rank_size(np.full(4, 2.0))
    assert (curve.sizes == 2.0).all()


def test_rank_size_drops_zeros_and_nan():
    curve = rank_size(np.array([0.0, 5.0, np.nan, 1.0, -2.0]))
    assert curve.sizes.tolist() == [5.0, 1.0]
    assert curve.dropped == 3


def test_rank_size_idempotent():
    curve = rank_size(np.array([4.0, 9.0, 1.0, 7.0]))
    again = rank_size(curve.sizes)
    assert (again.sizes == curve.sizes).all()
    assert (again.ranks == curve.ranks).all()


def test_rank_size_no_positive_values():
    with pytest.raises(DataError, match="positive"):
        rank_size(np.zeros(5))


def test_rank_size_pareto_slope():
    rng = np.random.default_rng(5)
    sample = 1.0 + rng.pareto(2.0, 10_000)
    curve = rank_size(sample)
    window = slice(19, 2000)
    slope = np.polyfit(np.log(curve.ranks[window]), np.log(curve.sizes[window]), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_fit_tail_lognormal_recovery():
    rng = np.random.default_rng(6)
    fit = fit_tail(rng.lognormal(0.0, 1.0, 10_000))
    assert abs(fit.mu) <= 0.05
    assert 0.95 <= fit.sigma <= 1.05


def test_fit_tail_hill_recovery():
    rng = np.random.default_rng(7)
    sample = 1.0 + rng.pareto(1.5, 10_000)
    fit = fit_tail(sample)
    assert 1.4 <= fit.alpha <= 1.6
    assert fit.tail_count == 500
    assert fit.x_min == pytest.approx(np.quantile(sample, 0.95))


def test_fit_tail_scale_invariance():
    rng = np.random.default_rng(8)
    sample = rng.lognormal(1.0, 0.8, 5000)
    base = fit_tail(sample)
    scaled = fit_tail(sample * 1000.0)
    assert scaled.alpha == pytest.approx(base.alpha, rel=1e-12)
    assert scaled.x_min == pytest.approx(base.x_min * 1000.0, rel=1e-12)


def test_fit_tail_reports_drops():
    rng = np.random.default_rng(9)
    values = np.concatenate([rng.lognormal(0, 1, 100), [0.0, np.nan, -1.0]])
    fit = fit_tail(values)
    assert fit.dropped == 3
    assert fit.n == 100


def test_fit_tail_errors():
    rng = np.random.default_rng(10)
    with pytest.raises(DataError, match=">= 50"):
        fit_tail(rng.lognormal(0, 1, 49))
    with pytest.raises(DataError, match="constant"):
        fit_tail(np.full(100, 2.0))
    with pytest.raises(ValidationError, match="tail fraction"):
        fit_tail(rng.lognormal(0, 1, 100), tail_fraction=1.5)
