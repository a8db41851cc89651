"""Distributional and correlation analyses of the node statistics.

Implements the Gaussian-kernel density estimate with Silverman's bandwidth
rule, Pearson correlations with Fisher-z confidence bands, rank-size curves,
and the log-normal-body / Pareto-tail fit (Hill estimator above a fixed
top-fraction cutoff).  Undefined entries (NaN) are dropped pairwise or
per-sample, with counts reported.

Each analysis is one function over a 2-D array, one sample per row:
``kde_rows``, ``pearson_rows`` (which pairs the rows of two),
``rank_size_rows`` and ``fit_tail_rows``; ``correlation_series`` pairs two
statistics of each year's ``stats.node_stats`` columns through
``pearson_rows``.  Each returns a dict of columns, as ``pipeline.read_bundle``
reads a written table back: its table's columns under their header names in
``pipeline.LAYOUT``, and any other result (a density's bandwidth and count)
under its own.  It works on the groups of rows with the same count of
defined values, each compressed to a (rows × count) block and reduced along
axis 1, so every row gets the bits its sample alone would get.  A row that an
analysis rejects raises DataError for the first such row, named by the
caller's ``where``.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, Mapping

import numpy as np

from .errors import ValidationError
from .stats import fail_first_row, row_groups

#: Cross-statistic pairs supported by correlation_series, in report order.
SUPPORTED_PAIRS: dict[str, tuple[str, str]] = {
    "ND-NS": ("nd", "ns"),
    "ND-ANND": ("nd", "annd"),
    "NS-ANNS": ("ns", "anns"),
    "BCC-ND": ("bcc", "nd"),
    "WCC-NS": ("wcc", "ns"),
}


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


def silverman_rows(rows: np.ndarray) -> np.ndarray:
    """Silverman's bandwidth of each row's defined (finite) entries:
    0.9 * min(std, IQR/1.34) * n^(-1/5), falling back to std if IQR is 0."""
    rows = np.asarray(rows, dtype=float)
    out = np.full(len(rows), np.nan)
    for at, x in row_groups(np.isfinite(rows), rows):
        std = x.std(axis=1)
        q75, q25 = np.percentile(x, [75, 25], axis=1)
        iqr = q75 - q25
        scale = np.where(iqr > 0, np.minimum(std, iqr / 1.34), std)
        out[at] = 0.9 * scale * x.shape[1] ** (-0.2)
    return out


#: Number of evenly spaced points on which ``kde_rows`` evaluates each density.
KDE_GRID_SIZE = 512


def check_bandwidth(bandwidth: float) -> float:
    """``bandwidth`` as a float h.  Raises ValidationError unless h is
    positive and h, 3h and 1/h are finite: without that, no data gives h a
    usable density grid."""
    h = float(bandwidth)
    if not (h > 0 and math.isfinite(3 * h) and math.isfinite(1 / h)):
        raise ValidationError(
            f"bandwidth must be positive and finite with 3h and 1/h finite, got {bandwidth!r}"
        )
    return h


def kde_bandwidths(
    rows: np.ndarray, bandwidth: float | None = None, where: Callable[[int], str] | None = None
) -> np.ndarray:
    """The bandwidth ``kde_rows`` smooths each row with: ``bandwidth``, or by
    default Silverman's rule.

    Raises DataError, named by ``where`` (see ``fail_first_row``), at the
    first row with fewer than 5 defined values or none of nonzero spread, or
    whose bandwidth h puts the density grid out of range: a grid end
    (min - 3h or max + 3h), the grid's span or the largest squared
    ``(grid - x) / h`` is not finite.  Raises ValidationError for a
    ``bandwidth`` that is not positive or whose 3h or 1/h is not finite,
    whatever the data.
    """
    rows = np.asarray(rows, dtype=float)
    defined = np.isfinite(rows)
    count = defined.sum(axis=1)
    high = np.where(defined, rows, -np.inf).max(axis=1, initial=-np.inf)
    low = np.where(defined, rows, np.inf).min(axis=1, initial=np.inf)
    fail_first_row(
        where,
        (count < 5, lambda i: f"kde needs >= 5 defined values, got {count[i]}"),
        (high == low, lambda i: "kde input is constant"),
    )
    if bandwidth is None:
        hs = silverman_rows(rows)
    else:
        hs = np.full(len(rows), check_bandwidth(bandwidth))
    with np.errstate(over="ignore", invalid="ignore"):  # flagged as a DataError below
        start, stop = low - 3 * hs, high + 3 * hs
        reach = np.maximum(stop - low, high - start) / hs  # the largest |grid - x| / h
        # A finite span has finite ends.
        out = ~(np.isfinite(stop - start) & np.isfinite(reach * reach))
    fail_first_row(where, (
        out, lambda i: f"bandwidth {float(hs[i])!r} puts the density grid out of float range"
    ))
    return hs


def kde_rows(
    rows: np.ndarray, bandwidth: float | None = None, where: Callable[[int], str] | None = None
) -> dict[str, np.ndarray]:
    """Gaussian-kernel density of each row's defined (finite) entries, on
    ``KDE_GRID_SIZE`` points spanning [min - 3h, max + 3h].

    The bandwidth h of each row is its ``kde_bandwidths``, which checks every
    row first: by default Silverman's rule, and a row needs at least 5
    defined values with nonzero spread.  Returns the (rows × points) ``grid``
    and ``density`` and each row's ``bandwidth`` and defined ``count``.  Each
    row is evaluated in one reused (points × width) buffer, in place.
    """
    rows = np.asarray(rows, dtype=float)
    hs = kde_bandwidths(rows, bandwidth, where)
    defined = np.isfinite(rows)
    grid, density = np.empty((2, len(rows), KDE_GRID_SIZE))
    buffer = np.empty(KDE_GRID_SIZE * rows.shape[1])
    for row, keep, h, g, d in zip(rows, defined, hs.tolist(), grid, density):
        x = row[keep]
        g[:] = np.linspace(x.min() - 3 * h, x.max() + 3 * h, KDE_GRID_SIZE)
        z = buffer[: g.size * x.size].reshape(g.size, x.size)
        np.subtract(g[:, None], x, out=z)
        z /= h
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        z.sum(axis=1, out=d)
        d /= x.size * h * math.sqrt(2 * math.pi)
    return {"grid": grid, "density": density, "bandwidth": hs, "count": defined.sum(axis=1)}


def pearson_rows(
    xs: np.ndarray,
    ys: np.ndarray,
    level: float = 0.90,
    where: Callable[[int], str] | None = None,
) -> dict[str, np.ndarray]:
    """Pearson ``r`` with a Fisher-z interval (``ci_low``, ``ci_high``), and
    the pair count ``n``, of each row pair.

    Row i of ``xs`` and row i of ``ys`` are paired entry by entry, over the
    entries defined in both.  ``level`` is the two-sided coverage; the
    default 0.90 puts the band endpoints at the 5% and 95% quantiles.
    Raises DataError, named by ``where`` (see ``fail_first_row``), at the
    first row pair with fewer than 3 jointly defined pairs or zero variance
    on either side.

    r repeats ``np.corrcoef``'s operations, so it has its bits: each row's
    pairs are centred on their means, and their sums of products come from
    one ``np.dot`` of a C-contiguous (2, n) block with its transpose.
    """
    if not 0 < level < 1:
        raise ValidationError(f"confidence level must be in (0, 1), got {level!r}")
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValidationError("x and y must have the same length")
    joint = np.isfinite(xs) & np.isfinite(ys)
    n = joint.sum(axis=1)
    flat = np.zeros(len(xs), dtype=bool)
    r = np.full(len(xs), np.nan)
    for at, x, y in row_groups(joint, xs, ys):
        k = x.shape[1]
        if k < 3:
            continue
        flat[at] = (x.std(axis=1) == 0) | (y.std(axis=1) == 0)
        keep = ~flat[at]
        at, pairs = at[keep], np.stack([x[keep], y[keep]], axis=1)
        pairs -= pairs.mean(axis=2, keepdims=True)
        products = np.array([np.dot(block, block.T).ravel() for block in pairs]).reshape(-1, 4)
        products *= np.true_divide(1, k - 1)
        stddev = np.sqrt(products[:, [0, 3]])
        r[at] = np.clip(products[:, 1] / stddev[:, 0] / stddev[:, 1], -1, 1)
    fail_first_row(
        where,
        (n < 3, lambda i: f"correlation needs >= 3 jointly defined pairs, got {n[i]}"),
        (flat, lambda i: "correlation undefined for zero-variance input"),
    )
    # n == 3 leaves the band at [-1, 1]: the Fisher standard error
    # 1/sqrt(n-3) is infinite, so there is no information.
    low, high = np.full(len(xs), -1.0), np.full(len(xs), 1.0)
    zcrit = _ndtri(0.5 + level / 2)
    banded = np.flatnonzero(n > 3)
    with np.errstate(divide="ignore"):
        z = np.arctanh(r[banded])
    for i, zi, m in zip(banded.tolist(), z.tolist(), n[banded].tolist()):
        se = 1.0 / math.sqrt(m - 3)
        low[i], high[i] = math.tanh(zi - zcrit * se), math.tanh(zi + zcrit * se)
    return {"r": r, "ci_low": low, "ci_high": high, "n": n}


def correlation_series(
    tables: Mapping[int, Mapping[str, np.ndarray]], pair: str, level: float = 0.90
) -> dict[str, np.ndarray]:
    """The correlation table of a supported statistic pair, one row a year in
    year order: the ``year``, the ``pair``, and the ``pearson_rows`` of the
    years' two columns.

    ``tables`` maps each year to its node statistics' columns, as
    ``stats.node_stats`` returns them and ``pipeline.read_bundle`` reads them
    back.  A year with fewer countries than the most is padded with
    undefined entries.
    """
    if pair not in SUPPORTED_PAIRS:
        raise ValidationError(
            f"unsupported pair {pair!r} (supported: {', '.join(SUPPORTED_PAIRS)})"
        )
    years = sorted(tables)
    if not years:
        raise ValidationError("correlation series needs at least one year")
    pairs = [[np.asarray(tables[year][name], dtype=float) for name in SUPPORTED_PAIRS[pair]]
             for year in years]
    xs, ys = np.full((2, len(years), max(x.size for x, _ in pairs)), np.nan)
    for row, (first, second) in enumerate(pairs):
        xs[row, : first.size], ys[row, : second.size] = first, second
    return {
        "year": np.array(years, dtype=np.int64),
        "pair": np.full(len(years), pair, dtype=object),
        **pearson_rows(xs, ys, level, where=lambda i: f"{pair} in year {years[i]}"),
    }


def rank_size_rows(
    rows: np.ndarray, where: Callable[[int], str] | None = None
) -> dict[str, list[np.ndarray] | np.ndarray]:
    """The rank-size curve of each row: its strictly positive entries sorted
    descending (``size``), against ranks 1..n.

    Zeros, negatives, and undefined entries are dropped, and counted in
    ``dropped``.  Raises DataError, named by ``where`` (see
    ``fail_first_row``), at the first row with no positive entry.
    """
    rows = np.asarray(rows, dtype=float)
    positive = np.isfinite(rows) & (rows > 0)
    count = positive.sum(axis=1)
    fail_first_row(where, (count == 0, lambda i: "rank-size needs at least one positive value"))
    ordered = np.sort(np.where(positive, rows, np.nan), axis=1)  # NaN last
    sizes = [row[:k][::-1] for row, k in zip(ordered, count.tolist())]
    return {"size": sizes, "dropped": rows.shape[1] - count}


def fit_tail_rows(
    rows: np.ndarray, tail_fraction: float = 0.05, where: Callable[[int], str] | None = None
) -> dict[str, np.ndarray]:
    """Log-normal body fit plus Hill exponent on the top tail_fraction of each row.

    The body parameters ``mu`` and ``sigma`` are the MLE mean/std of log
    values over the ``n_positive`` positive entries of the row; the others
    are ``dropped``.  ``x_min`` is the empirical (1 - tail_fraction) quantile
    and ``alpha`` = k / sum(log(x_i / x_min)) over the k (``tail_count``)
    values at or above it.  Raises DataError, named by ``where`` (see
    ``fail_first_row``), at the first row with fewer than 50 positive
    entries, a constant sample or no spread above the cutoff.
    """
    if not 0 < tail_fraction < 1:
        raise ValidationError(
            f"tail fraction must be in (0, 1), got {tail_fraction!r}"
        )
    rows = np.asarray(rows, dtype=float)
    positive = np.isfinite(rows) & (rows > 0)
    count = positive.sum(axis=1)
    mu, sigma, x_min, log_excess = np.full((4, len(rows)), np.nan)
    tail_count = np.zeros(len(rows), dtype=np.int64)
    for at, x in row_groups(positive, rows):
        if x.shape[1] < 50:
            continue
        logs = np.log(x)
        mu[at], sigma[at] = logs.mean(axis=1), logs.std(axis=1)
        x_min[at] = np.quantile(x, 1 - tail_fraction, axis=1)
        for within, tail in row_groups(x >= x_min[at, None], x):
            fitted = at[within]
            tail_count[fitted] = tail.shape[1]
            log_excess[fitted] = np.sum(np.log(tail / x_min[fitted, None]), axis=1)
    fail_first_row(
        where,
        (count < 50, lambda i: f"tail fit needs >= 50 positive values, got {count[i]}"),
        (sigma == 0, lambda i: "tail fit undefined for a constant sample"),
        (~(log_excess > 0), lambda i: "tail is degenerate (no spread above the cutoff)"),
    )
    return {
        "mu": mu, "sigma": sigma, "alpha": tail_count / log_excess, "x_min": x_min,
        "tail_fraction": np.full(len(rows), float(tail_fraction)), "n_positive": count,
        "tail_count": tail_count, "dropped": rows.shape[1] - count,
    }
