"""Distributional and correlation analyses of the node statistics.

Implements the Gaussian-kernel density estimate with Silverman's bandwidth
rule, Pearson correlations with Fisher-z confidence bands, rank-size curves,
and the log-normal-body / Pareto-tail fit (Hill estimator above a fixed
top-fraction cutoff).  Undefined entries (NaN) are dropped pairwise or
per-sample, with counts reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, ValidationError
from .stats import NodeStatsTable

#: Cross-statistic pairs supported by correlation_series, in report order.
SUPPORTED_PAIRS: dict[str, tuple[str, str]] = {
    "ND-NS": ("nd", "ns"),
    "ND-ANND": ("nd", "annd"),
    "NS-ANNS": ("ns", "anns"),
    "BCC-ND": ("bcc", "nd"),
    "WCC-NS": ("wcc", "ns"),
}


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Kernel-smoothed density on an evenly spaced grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    n: int

    def integral(self) -> float:
        """Trapezoidal integral over the grid (close to 1 by construction)."""
        return float(np.trapezoid(self.density, self.grid))


@dataclass(frozen=True)
class CorrelationPoint:
    """Pearson r with a Fisher-z confidence band for one year and pair."""

    year: int | None
    pair: str
    r: float
    ci_low: float
    ci_high: float
    n: int


@dataclass(frozen=True)
class TailFit:
    """Log-normal body parameters plus Pareto tail exponent.

    mu/sigma are the maximum-likelihood parameters of log values over the
    full positive sample; alpha is the Hill estimate over the values at or
    above x_min, the (1 - tail_fraction) quantile.
    """

    mu: float
    sigma: float
    alpha: float
    x_min: float
    tail_fraction: float
    n: int
    tail_count: int
    dropped: int


@dataclass(frozen=True, eq=False)
class RankSizeCurve:
    """Positive values sorted descending against ranks 1..n."""

    sizes: np.ndarray
    ranks: np.ndarray
    dropped: int


# Cephes ndtri coefficients, highest power first.  P0/Q0 serve the central
# region |p - 1/2| <= 1/2 - exp(-2); P1/Q1 and P2/Q2 the tails, split at
# sqrt(-2 log p) = 8 (p = exp(-32)).  Each Q starts with the leading 1 that
# Cephes' p1evl leaves implicit: 1.0 * x + c rounds exactly as x + c.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner evaluation, highest power first, as Cephes' polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


@cache
def _ndtri(p: float) -> float:
    """Standard normal quantile for 0 <= p <= 1, a port of Cephes ``ndtri``.

    Follows the C code operation by operation, so it returns the same
    doubles as ``scipy.special.ndtri`` (and ``scipy.stats.norm.ppf``):
    the Fisher-z bands keep their last bits without importing scipy.
    """
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    negate = True
    y = p
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def _defined(values: np.ndarray) -> np.ndarray:
    x = np.asarray(values, dtype=float).ravel()
    return x[np.isfinite(x)]


def silverman_bandwidth(values: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), falling back to std if IQR is 0."""
    x = _defined(values)
    std = float(x.std())
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * scale * len(x) ** (-0.2)


#: Number of evenly spaced points on which ``kde`` evaluates the density.
KDE_GRID_SIZE = 512


def kde(values: np.ndarray, bandwidth: float | None = None) -> DensityEstimate:
    """Gaussian-kernel density on ``KDE_GRID_SIZE`` points spanning [min-3h, max+3h].

    Bandwidth defaults to Silverman's rule.  Needs at least 5 defined values
    with nonzero spread.
    """
    x = _defined(values)
    if x.size < 5:
        raise DataError(f"kde needs >= 5 defined values, got {x.size}")
    if x.max() == x.min():
        raise DataError("kde input is constant")
    if bandwidth is None:
        h = silverman_bandwidth(x)
    else:
        h = float(bandwidth)
        if not math.isfinite(h) or h <= 0:
            raise ValidationError(f"bandwidth must be positive, got {bandwidth!r}")
    grid = np.linspace(x.min() - 3 * h, x.max() + 3 * h, KDE_GRID_SIZE)
    z = (grid[:, None] - x[None, :]) / h
    density = np.exp(-0.5 * z**2).sum(axis=1) / (x.size * h * math.sqrt(2 * math.pi))
    return DensityEstimate(grid, density, h, int(x.size))


def pearson_with_ci(
    x: np.ndarray,
    y: np.ndarray,
    level: float = 0.90,
    *,
    year: int | None = None,
    pair: str = "",
) -> CorrelationPoint:
    """Pearson r over jointly defined pairs, with a Fisher-z interval.

    ``level`` is the two-sided coverage; the default 0.90 puts the band
    endpoints at the 5% and 95% quantiles.  Needs >= 3 jointly defined
    pairs and nonzero variance on both sides.
    """
    if not 0 < level < 1:
        raise ValidationError(f"confidence level must be in (0, 1), got {level!r}")
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.shape != ya.shape:
        raise ValidationError("x and y must have the same length")
    mask = np.isfinite(xa) & np.isfinite(ya)
    n = int(mask.sum())
    if n < 3:
        raise DataError(f"correlation needs >= 3 jointly defined pairs, got {n}")
    xa, ya = xa[mask], ya[mask]
    if xa.std() == 0 or ya.std() == 0:
        raise DataError("correlation undefined for zero-variance input")

    r = float(np.corrcoef(xa, ya)[0, 1])
    r = max(-1.0, min(1.0, r))
    if n == 3:
        # Fisher standard error 1/sqrt(n-3) is infinite: no information.
        return CorrelationPoint(year, pair, r, -1.0, 1.0, n)
    zcrit = _ndtri(0.5 + level / 2)
    with np.errstate(divide="ignore"):
        z = float(np.arctanh(r))
    se = 1.0 / math.sqrt(n - 3)
    ci_low = math.tanh(z - zcrit * se)
    ci_high = math.tanh(z + zcrit * se)
    return CorrelationPoint(year, pair, r, ci_low, ci_high, n)


def correlation_series(
    tables: Iterable[NodeStatsTable] | Mapping[int, NodeStatsTable],
    pair: str,
    level: float = 0.90,
) -> list[CorrelationPoint]:
    """One correlation point per year for a supported statistic pair."""
    if pair not in SUPPORTED_PAIRS:
        raise ValidationError(
            f"unsupported pair {pair!r} (supported: {', '.join(SUPPORTED_PAIRS)})"
        )
    if isinstance(tables, Mapping):
        tables = [tables[year] for year in sorted(tables)]
    else:
        tables = sorted(tables, key=lambda t: t.year)
    if not tables:
        raise ValidationError("correlation series needs at least one year")
    first, second = SUPPORTED_PAIRS[pair]
    points = []
    for t in tables:
        try:
            points.append(
                pearson_with_ci(
                    t.column(first), t.column(second), level, year=t.year, pair=pair
                )
            )
        except DataError as exc:
            raise DataError(f"{pair} in year {t.year}: {exc}") from None
    return points


def rank_size(values: np.ndarray) -> RankSizeCurve:
    """Sort strictly positive values descending and pair them with ranks.

    Zeros, negatives, and undefined entries are dropped; the dropped count
    is carried on the curve.
    """
    x = np.asarray(values, dtype=float).ravel()
    positive = x[np.isfinite(x) & (x > 0)]
    dropped = int(x.size - positive.size)
    if positive.size == 0:
        raise DataError("rank-size needs at least one positive value")
    sizes = np.sort(positive)[::-1]
    ranks = np.arange(1, sizes.size + 1)
    return RankSizeCurve(sizes, ranks, dropped)


def fit_tail(values: np.ndarray, tail_fraction: float = 0.05) -> TailFit:
    """Log-normal body fit plus Hill exponent on the top tail_fraction.

    The body parameters are the MLE mean/std of log values over every
    positive entry.  x_min is the empirical (1 - tail_fraction) quantile and
    alpha = k / sum(log(x_i / x_min)) over the k values at or above it.
    """
    if not 0 < tail_fraction < 1:
        raise ValidationError(
            f"tail fraction must be in (0, 1), got {tail_fraction!r}"
        )
    x = np.asarray(values, dtype=float).ravel()
    positive = x[np.isfinite(x) & (x > 0)]
    dropped = int(x.size - positive.size)
    if positive.size < 50:
        raise DataError(
            f"tail fit needs >= 50 positive values, got {positive.size}"
        )
    logs = np.log(positive)
    mu = float(logs.mean())
    sigma = float(logs.std())
    if sigma == 0:
        raise DataError("tail fit undefined for a constant sample")

    x_min = float(np.quantile(positive, 1 - tail_fraction))
    tail = positive[positive >= x_min]
    log_excess = float(np.sum(np.log(tail / x_min)))
    if log_excess <= 0:
        raise DataError("tail is degenerate (no spread above the cutoff)")
    alpha = tail.size / log_excess
    return TailFit(
        mu=mu,
        sigma=sigma,
        alpha=float(alpha),
        x_min=x_min,
        tail_fraction=float(tail_fraction),
        n=int(positive.size),
        tail_count=int(tail.size),
        dropped=dropped,
    )
