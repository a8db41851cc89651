from __future__ import annotations

import math
import re

import numpy as np
import pytest

from wnet import (
    DataError,
    ValidationError,
    correlation_series,
)
from wnet.distributions import (
    _ndtri,
    fit_tail_rows,
    kde_rows,
    pearson_rows,
    rank_size_rows,
    silverman_rows,
)

from oracles import fisher_ci_oracle, pearson_oracle


# ---------------------------------------------------------------------------
# kernel density
# ---------------------------------------------------------------------------


def test_kde_integrates_to_one(rng):
    for _ in range(10):
        sample = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4), 200)
        est = kde_rows(sample[None])
        assert abs(np.trapezoid(est["density"][0], est["grid"][0]) - 1.0) <= 1e-3
        assert (est["density"] >= 0).all()
        assert len(est["grid"][0]) == 512


def test_kde_symmetric_input_gives_symmetric_density(rng):
    half = rng.uniform(0.2, 3.0, 100)
    sample = np.concatenate([half, -half])
    density = kde_rows(sample[None])["density"][0]
    assert np.max(np.abs(density - density[::-1])) <= 1e-10


def test_kde_default_bandwidth_is_silverman(rng):
    sample = rng.normal(0, 1, 150)
    est = kde_rows(sample[None])
    std = sample.std()
    iqr = np.percentile(sample, 75) - np.percentile(sample, 25)
    expected = 0.9 * min(std, iqr / 1.34) * len(sample) ** (-0.2)
    assert est["bandwidth"][0] == pytest.approx(expected, rel=1e-12)
    assert silverman_rows(sample[None])[0] == pytest.approx(expected, rel=1e-12)


def test_kde_grid_span(rng):
    sample = rng.uniform(0, 1, 50)
    est = kde_rows(sample[None])
    (grid,), (h,) = est["grid"], est["bandwidth"]
    assert grid[0] == pytest.approx(sample.min() - 3 * h)
    assert grid[-1] == pytest.approx(sample.max() + 3 * h)


def test_kde_bimodal_recovery():
    rng = np.random.default_rng(11)
    sample = np.concatenate([rng.normal(0.0, 0.5, 1500), rng.normal(4.0, 0.5, 1500)])
    est = kde_rows(sample[None])
    d = est["density"][0]
    maxima = [i for i in range(1, len(d) - 1) if d[i - 1] < d[i] > d[i + 1]]
    top_two = sorted(sorted(maxima, key=lambda i: -d[i])[:2])
    locations = [est["grid"][0][i] for i in top_two]
    assert abs(locations[0] - 0.0) < 0.2
    assert abs(locations[1] - 4.0) < 0.2


def test_kde_explicit_bandwidth():
    sample = np.arange(10.0)
    est = kde_rows(sample[None], bandwidth=0.5)
    assert est["bandwidth"][0] == 0.5
    with pytest.raises(ValidationError):
        kde_rows(sample[None], bandwidth=-1.0)


def test_kde_rejects_a_bandwidth_that_breaks_its_grid():
    sample = np.arange(10.0)
    for h in (1e308, 1e-320):  # 3h or 1/h overflows
        with pytest.raises(ValidationError, match=re.escape(repr(h))):
            kde_rows(sample[None], bandwidth=h)
    with pytest.raises(DataError, match="bandwidth 1e-300 puts the density grid"):
        kde_rows(sample[None], bandwidth=1e-300)  # ((max - min + 3h) / h) ** 2 overflows
    with pytest.raises(DataError, match=r"bandwidth 3e\+306 puts the density grid"):
        # its ends are finite, its span not
        kde_rows(np.array([[-1.7e308, 0, 1, 2, 0]]), bandwidth=3e306)
    assert np.isfinite(kde_rows(sample[None], bandwidth=1e-150)["density"]).all()


def test_kde_errors():
    with pytest.raises(DataError, match=">= 5"):
        kde_rows(np.array([[1.0, 2.0, 3.0, 4.0]]))
    with pytest.raises(DataError, match="constant"):
        kde_rows(np.full((1, 10), 3.3))


def test_kde_drops_undefined(rng):
    sample = np.concatenate([rng.normal(0, 1, 50), [np.nan, np.nan]])
    est = kde_rows(sample[None])
    assert est["count"][0] == 50


def test_kde_zero_iqr_falls_back_to_std():
    # Heavily tied sample: IQR is 0 but the spread is not.
    values = np.array([1.0] * 40 + [0.0, 2.0, 3.0, 5.0])
    h = silverman_rows(values[None])[0]
    assert h == pytest.approx(0.9 * values.std() * len(values) ** (-0.2))
    assert kde_rows(values[None])["bandwidth"][0] == pytest.approx(h)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def test_pearson_perfect_correlation():
    x = np.array([[1.0, 2.0, 3.0]])
    (r,), (low,), (high,), (n,) = pearson_rows(x, x).values()
    assert r == pytest.approx(1.0)
    assert low <= r <= high
    assert n == 3


def test_pearson_perfect_anticorrelation():
    x, y = np.array([[1.0, 2.0, 3.0]]), np.array([[3.0, 2.0, 1.0]])
    (r,), (low,), (high,), _ = pearson_rows(x, y).values()
    assert r == pytest.approx(-1.0)
    assert low <= r <= high


def test_pearson_matches_summation_oracle():
    x = [0.5, 1.7, 2.1, 3.3, 4.0, 5.2, 6.1, 7.7, 8.4, 9.9]
    y = [2.1, 1.9, 3.5, 3.1, 5.0, 4.6, 6.2, 6.9, 8.1, 8.5]
    (r,) = pearson_rows(np.array([x]), np.array([y]))["r"]
    assert r == pytest.approx(pearson_oracle(x, y), abs=1e-12)


def test_pearson_ci_matches_fisher_oracle(rng):
    x = rng.normal(0, 1, 40)
    y = 0.6 * x + rng.normal(0, 1, 40)
    (r,), (low,), (high,), (n,) = pearson_rows(x[None], y[None], level=0.90).values()
    lo, hi = fisher_ci_oracle(r, n, 0.90)
    assert low == pytest.approx(lo, abs=1e-12)
    assert high == pytest.approx(hi, abs=1e-12)


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
def test_pearson_ci_equals_fisher_oracle_exactly(rng, level):
    pytest.importorskip("scipy")
    x = rng.normal(0, 1, 40)
    y = 0.6 * x + rng.normal(0, 1, 40)
    (r,), (low,), (high,), (n,) = pearson_rows(x[None], y[None], level=level).values()
    expected = fisher_ci_oracle(r, n, level, atanh=lambda r: float(np.arctanh(r)))
    assert (low, high) == expected


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
    x = np.array([[1.0, 2.0, np.nan, 4.0, 5.0]])
    y = np.array([[2.0, np.nan, 3.0, 8.0, 10.0]])
    assert pearson_rows(x, y)["n"][0] == 3


def test_pearson_affine_invariance(rng):
    x = rng.normal(0, 1, (1, 30))
    y = rng.normal(0, 1, (1, 30))
    (base,) = pearson_rows(x, y)["r"]
    (shifted,) = pearson_rows(2.5 * x + 7.0, -1.0 + 0.3 * y)["r"]
    assert shifted == pytest.approx(base, abs=1e-12)


def test_pearson_ci_narrows_with_n(rng):
    x = rng.normal(0, 1, 12)
    y = 0.5 * x + rng.normal(0, 1, 12)
    widths = []
    for reps in (1, 4, 16):
        point = pearson_rows(np.tile(x, (1, reps)), np.tile(y, (1, reps)))
        widths.append(point["ci_high"][0] - point["ci_low"][0])
    assert widths[0] > widths[1] > widths[2]


def test_pearson_errors():
    with pytest.raises(DataError, match=">= 3"):
        pearson_rows(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    with pytest.raises(DataError, match="zero-variance"):
        pearson_rows(np.array([[1.0, 1.0, 1.0]]), np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValidationError, match="level"):
        pearson_rows(np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 2.0, 3.0]]), level=1.5)


def test_a_constant_side_of_a_pair_is_zero_variance():
    # The mean of seven 0.7s rounds away from 0.7, so a rounded std is not 0.
    constant, spread = np.array([[0.7] * 7]), np.arange(7.0)[None]
    for xs, ys in (constant, spread), (spread, constant):
        with pytest.raises(DataError, match="^correlation undefined for zero-variance input$"):
            pearson_rows(xs, ys)


@pytest.mark.parametrize("exponent", [-1000, -600, -520, 520, 600])
def test_pearson_rows_at_extreme_scales_are_those_at_scale_one(exponent):
    # Squares of these deviations leave the normal range.  The rows differ from
    # their twins at scale 1 by an exact power of two, so each cell keeps its bits.
    rng = np.random.default_rng(11)
    xs, ys = 1 + rng.random((2, 3, 40))
    ys += xs
    scaled = np.ldexp(xs, exponent)
    for got, want in (
        (pearson_rows(scaled, ys), pearson_rows(xs, ys)),
        (pearson_rows(ys, scaled), pearson_rows(ys, xs)),
    ):
        for name in ("r", "ci_low", "ci_high", "n"):
            assert np.array_equal(got[name], want[name]), name
        assert (want["r"] > 0.5).all()


def _table(**columns):
    """The node statistics columns of one year: ``columns``, the others all ones."""
    n = len(next(iter(columns.values())))
    base = {
        "country": np.array([f"C{i}" for i in range(n)], dtype=object),
        "nd": np.ones(n),
        "ns": np.ones(n),
        "annd": np.ones(n),
        "anns": np.ones(n),
        "bcc": np.ones(n),
        "wcc": np.ones(n),
    }
    base.update({k: np.asarray(v, dtype=float) for k, v in columns.items()})
    return base


def test_correlation_series_one_point_per_year(rng):
    tables = {}
    for year in (2001, 1999, 2000):
        nd = rng.normal(10, 2, 20)
        tables[year] = _table(nd=nd, ns=nd * 0.4 + rng.normal(0, 0.5, 20))
    series = correlation_series(tables, "ND-NS")
    assert series["year"].tolist() == [1999, 2000, 2001]
    assert all(pair == "ND-NS" for pair in series["pair"])
    assert ((series["ci_low"] <= series["r"]) & (series["r"] <= series["ci_high"])).all()


def test_correlation_series_single_year():
    rng = np.random.default_rng(1)
    nd = rng.normal(10, 2, 15)
    series = correlation_series({2000: _table(nd=nd, ns=nd + rng.normal(0, 1, 15))}, "ND-NS")
    assert len(series["year"]) == 1 and series["year"][0] == 2000


def test_correlation_series_unsupported_pair():
    with pytest.raises(ValidationError, match="unsupported pair"):
        correlation_series({2000: _table(nd=np.arange(5.0))}, "ND-WCC")


def test_correlation_series_needs_a_year():
    with pytest.raises(ValidationError, match="at least one year"):
        correlation_series({}, "ND-NS")


# ---------------------------------------------------------------------------
# rank-size and tail fits
# ---------------------------------------------------------------------------


def test_rank_size_sorts_descending():
    curve = rank_size_rows(np.array([[3.0, 1.0, 2.0]]))
    assert curve["size"][0].tolist() == [3.0, 2.0, 1.0]
    assert curve["dropped"].tolist() == [0]


def test_rank_size_flat_curve():
    (sizes,) = rank_size_rows(np.full((1, 4), 2.0))["size"]
    assert (sizes == 2.0).all()


def test_rank_size_drops_zeros_and_nan():
    curve = rank_size_rows(np.array([[0.0, 5.0, np.nan, 1.0, -2.0]]))
    assert curve["size"][0].tolist() == [5.0, 1.0]
    assert curve["dropped"].tolist() == [3]


def test_rank_size_idempotent():
    (sizes,) = rank_size_rows(np.array([[4.0, 9.0, 1.0, 7.0]]))["size"]
    (again,) = rank_size_rows(sizes[None])["size"]
    assert (again == sizes).all()


def test_rank_size_no_positive_values():
    with pytest.raises(DataError, match="positive"):
        rank_size_rows(np.zeros((1, 5)))


def test_rank_size_pareto_slope():
    rng = np.random.default_rng(5)
    sample = 1.0 + rng.pareto(2.0, 10_000)
    (sizes,) = rank_size_rows(sample[None])["size"]
    ranks = np.arange(1, sizes.size + 1)
    window = slice(19, 2000)
    slope = np.polyfit(np.log(ranks[window]), np.log(sizes[window]), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_fit_tail_lognormal_recovery():
    rng = np.random.default_rng(6)
    fit = fit_tail_rows(rng.lognormal(0.0, 1.0, (1, 10_000)))
    assert abs(fit["mu"][0]) <= 0.05
    assert 0.95 <= fit["sigma"][0] <= 1.05


def test_fit_tail_hill_recovery():
    rng = np.random.default_rng(7)
    sample = 1.0 + rng.pareto(1.5, 10_000)
    fit = fit_tail_rows(sample[None])
    assert 1.4 <= fit["alpha"][0] <= 1.6
    assert fit["tail_count"][0] == 500
    assert fit["x_min"][0] == pytest.approx(np.quantile(sample, 0.95))


def test_fit_tail_scale_invariance():
    rng = np.random.default_rng(8)
    sample = rng.lognormal(1.0, 0.8, 5000)
    base = fit_tail_rows(sample[None])
    scaled = fit_tail_rows(sample[None] * 1000.0)
    assert scaled["alpha"][0] == pytest.approx(base["alpha"][0], rel=1e-12)
    assert scaled["x_min"][0] == pytest.approx(base["x_min"][0] * 1000.0, rel=1e-12)


def test_fit_tail_reports_drops():
    rng = np.random.default_rng(9)
    values = np.concatenate([rng.lognormal(0, 1, 100), [0.0, np.nan, -1.0]])
    fit = fit_tail_rows(values[None])
    assert fit["dropped"][0] == 3
    assert fit["n_positive"][0] == 100


def test_fit_tail_errors():
    rng = np.random.default_rng(10)
    with pytest.raises(DataError, match=">= 50"):
        fit_tail_rows(rng.lognormal(0, 1, (1, 49)))
    with pytest.raises(DataError, match="constant"):
        fit_tail_rows(np.full((1, 100), 2.0))
    with pytest.raises(ValidationError, match="tail fraction"):
        fit_tail_rows(rng.lognormal(0, 1, (1, 100)), tail_fraction=1.5)


def test_a_constant_tail_sample_is_flagged_as_constant():
    # The logs of sixty 0.7s have a rounded std above 0, and the tail above
    # the cutoff has no spread; the sample is constant, and said to be.
    with pytest.raises(DataError, match="^tail fit undefined for a constant sample$"):
        fit_tail_rows(np.full((1, 60), 0.7))
