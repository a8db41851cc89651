"""Brute-force reference implementations used as independent test oracles.

Everything here is deliberately written with explicit Python loops over
matrix entries or input rows, independent of the vectorized production code
it checks.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from wnet.errors import DataError
from wnet.ingest import FLOW_COLUMNS


def degree_oracle(adjacency: np.ndarray) -> list[int]:
    n = len(adjacency)
    return [sum(1 for j in range(n) if adjacency[i][j] != 0) for i in range(n)]


def strength_oracle(weights: np.ndarray) -> list[float]:
    n = len(weights)
    return [math.fsum(weights[i][j] for j in range(n)) for i in range(n)]


def neighbors(adjacency: np.ndarray, i: int) -> list[int]:
    return [j for j in range(len(adjacency)) if adjacency[i][j] != 0]


def annd_oracle(adjacency: np.ndarray) -> list[float]:
    degrees = degree_oracle(adjacency)
    out = []
    for i in range(len(adjacency)):
        nbrs = neighbors(adjacency, i)
        out.append(sum(degrees[j] for j in nbrs) / len(nbrs) if nbrs else math.nan)
    return out


def anns_oracle(adjacency: np.ndarray, weights: np.ndarray) -> list[float]:
    strengths = strength_oracle(weights)
    out = []
    for i in range(len(adjacency)):
        nbrs = neighbors(adjacency, i)
        out.append(
            math.fsum(strengths[j] for j in nbrs) / len(nbrs) if nbrs else math.nan
        )
    return out


def bcc_oracle(adjacency: np.ndarray) -> list[float]:
    """Triangle count by exhaustive neighbor-pair enumeration."""
    out = []
    for i in range(len(adjacency)):
        nbrs = neighbors(adjacency, i)
        k = len(nbrs)
        if k <= 1:
            out.append(math.nan)
            continue
        links = 0
        for a in range(k):
            for b in range(a + 1, k):
                if adjacency[nbrs[a]][nbrs[b]] != 0:
                    links += 1
        out.append(links / (k * (k - 1) / 2))
    return out


def wcc_oracle(adjacency: np.ndarray, weights: np.ndarray) -> list[float]:
    """Cube-root triangle intensity by direct sum over ordered pairs."""
    n = len(adjacency)
    degrees = degree_oracle(adjacency)
    out = []
    for i in range(n):
        if degrees[i] <= 1:
            out.append(math.nan)
            continue
        total = math.fsum(
            (weights[i][j] * weights[j][k] * weights[k][i]) ** (1.0 / 3.0)
            for j in range(n)
            for k in range(n)
        )
        out.append(total / (degrees[i] * (degrees[i] - 1)))
    return out


def frobenius_oracle(matrix: np.ndarray) -> float:
    return math.sqrt(
        math.fsum(matrix[i][j] ** 2 for i in range(len(matrix)) for j in range(len(matrix)))
    )


def pearson_oracle(x, y) -> float:
    """Covariance over product of standard deviations, by direct summation."""
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    cov = math.fsum((x[i] - mx) * (y[i] - my) for i in range(n))
    vx = math.fsum((x[i] - mx) ** 2 for i in range(n))
    vy = math.fsum((y[i] - my) ** 2 for i in range(n))
    return cov / math.sqrt(vx * vy)


def fisher_ci_oracle(
    r: float, n: int, level: float, atanh=math.atanh
) -> tuple[float, float]:
    """Textbook Fisher-z interval via scipy's inverse-normal quantile.

    ``atanh`` lets a bit-exact comparison use numpy's arctanh, which can
    differ from ``math.atanh`` in the last bit where numpy dispatches to
    SIMD code.
    """
    from scipy.stats import norm

    z = atanh(r)
    se = 1.0 / math.sqrt(n - 3)
    zcrit = norm.ppf(0.5 + level / 2)
    return math.tanh(z - zcrit * se), math.tanh(z + zcrit * se)


def moments_oracle(values) -> tuple[float, float, float, float, int]:
    """Population mean, std, skewness, kurtosis and count of one sample's
    finite entries, one numpy call after another as ``wnet`` computed them
    before its analyses became row reductions."""
    x = np.asarray(values, dtype=float)
    x = x[np.isfinite(x)]
    if x.size < 2:
        raise DataError(f"moments need >= 2 defined values, got {x.size}")
    # A constant sample's mean is its value, so its std is 0.
    mean = float(x[0]) if x.max() == x.min() else float(x.mean())
    centered = x - mean
    std = float(np.sqrt(np.mean(centered**2)))
    if std == 0:
        skew = kurt = float("nan")
    else:
        skew = float(np.mean(centered**3) / std**3)
        kurt = float(np.mean(centered**4) / std**4)
    return mean, std, skew, kurt, int(x.size)


def pearson_ci_oracle(x, y, level: float = 0.90) -> tuple[float, float, float, int]:
    """r from ``np.corrcoef`` over the jointly finite pairs, with its Fisher-z band."""
    from wnet.distributions import _ndtri

    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    mask = np.isfinite(xa) & np.isfinite(ya)
    n = int(mask.sum())
    if n < 3:
        raise DataError(f"correlation needs >= 3 jointly defined pairs, got {n}")
    xa, ya = xa[mask], ya[mask]
    if xa.max() == xa.min() or ya.max() == ya.min():
        raise DataError("correlation undefined for zero-variance input")
    r = float(np.corrcoef(xa, ya)[0, 1])
    r = max(-1.0, min(1.0, r))
    if n == 3:
        return r, -1.0, 1.0, n
    zcrit = _ndtri(0.5 + level / 2)
    with np.errstate(divide="ignore"):
        z = float(np.arctanh(r))
    se = 1.0 / math.sqrt(n - 3)
    return r, math.tanh(z - zcrit * se), math.tanh(z + zcrit * se), n


def silverman_oracle(values) -> float:
    """Silverman's bandwidth from ``x.std()`` and ``np.percentile`` of one sample."""
    x = np.asarray(values, dtype=float).ravel()
    x = x[np.isfinite(x)]
    std = float(x.std())
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * scale * len(x) ** (-0.2)


def kde_bandwidth_oracle(values, bandwidth: float | None = None) -> float:
    """The bandwidth ``kde`` smooths one sample with, after its checks."""
    x = np.asarray(values, dtype=float).ravel()
    x = x[np.isfinite(x)]
    if x.size < 5:
        raise DataError(f"kde needs >= 5 defined values, got {x.size}")
    if x.max() == x.min():
        raise DataError("kde input is constant")
    return silverman_oracle(x) if bandwidth is None else float(bandwidth)


def kde_oracle(values, bandwidth: float | None = None) -> tuple:
    """Grid, density, bandwidth and defined count of one sample's Gaussian-kernel
    density, one numpy call after another as ``wnet`` computed each year's
    before its densities became one row reduction."""
    x = np.asarray(values, dtype=float).ravel()
    x = x[np.isfinite(x)]
    h = kde_bandwidth_oracle(x, bandwidth)
    grid = np.linspace(x.min() - 3 * h, x.max() + 3 * h, 512)
    z = (grid[:, None] - x[None, :]) / h
    density = np.exp(-0.5 * z**2).sum(axis=1) / (x.size * h * math.sqrt(2 * math.pi))
    return grid, density, h, int(x.size)


def rank_size_oracle(values) -> tuple[list[float], int]:
    """Positive entries sorted descending, and the count of the others."""
    x = np.asarray(values, dtype=float).ravel()
    positive = x[np.isfinite(x) & (x > 0)]
    if positive.size == 0:
        raise DataError("rank-size needs at least one positive value")
    return np.sort(positive)[::-1].tolist(), int(x.size - positive.size)


def fit_tail_oracle(values, tail_fraction: float = 0.05) -> tuple:
    """mu, sigma, alpha, x_min, tail_fraction, n, tail count and dropped count
    of one sample, with ``np.quantile`` for the cutoff."""
    x = np.asarray(values, dtype=float).ravel()
    positive = x[np.isfinite(x) & (x > 0)]
    if positive.size < 50:
        raise DataError(f"tail fit needs >= 50 positive values, got {positive.size}")
    logs = np.log(positive)
    mu = float(logs.mean())
    sigma = float(logs.std())
    if positive.max() == positive.min():
        raise DataError("tail fit undefined for a constant sample")
    x_min = float(np.quantile(positive, 1 - tail_fraction))
    tail = positive[positive >= x_min]
    log_excess = float(np.sum(np.log(tail / x_min)))
    if log_excess <= 0:
        raise DataError("tail is degenerate (no spread above the cutoff)")
    return (
        mu, sigma, tail.size / log_excess, x_min, float(tail_fraction),
        int(positive.size), int(tail.size), int(x.size - positive.size),
    )


def assert_vectors_match(actual, expected, tol: float = 1e-10) -> None:
    """Entrywise comparison treating NaN as 'undefined' markers."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    assert a.shape == e.shape
    nan_a, nan_e = np.isnan(a), np.isnan(e)
    assert (nan_a == nan_e).all(), "definedness masks differ"
    defined = ~nan_a
    if defined.any():
        assert np.max(np.abs(a[defined] - e[defined])) <= tol


def _lines_rowwise(source: str | Path | bytes | IO) -> Iterator[str]:
    """Yield the text lines of a path, raw bytes or open stream, one at a time.

    Every source is read whole as bytes (a text stream's lone surrogates
    encoded as bytes that are not UTF-8), then split as a path's file opened
    with ``newline=""`` is: a line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``.
    One byte-order mark at the start of line 1 is dropped.  A line that is
    not UTF-8 raises when it is reached.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _lines_rowwise(fh.read())
        return
    data = source if isinstance(source, (bytes, bytearray)) else source.read()
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="")
    for lineno, line in enumerate(text, start=1):
        if lineno == 1:  # one byte-order mark is skipped, as the utf-8-sig codec does
            line = line.removeprefix("\ufeff")
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(f"line {lineno}: not valid UTF-8") from None
        yield line


def _flow_problem(value: float, codes: list[str]) -> str | None:
    if value < 0:
        return f"negative flow value {value!r}"
    return f"self-flow for {codes[0]!r}" if codes[0] == codes[1] else None


def _size_problem(value: float, codes: list[str]) -> str | None:
    return f"nonpositive GDP {value!r} for {codes[0]!r}" if value <= 0 else None


def read_table_rowwise(
    source: str | Path | bytes | IO, columns: tuple[str, ...], ids: dict[str, int], *_
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Row-by-row reference for ``wnet.ingest._read_table``.

    Reads one file into (year, country ids, value, line number) columns,
    checking and converting each row as it comes, and raises DataError at
    the first bad header or row.  Extra arguments are ignored: the defects
    particular to one file follow from ``columns``.  The count of rows read
    from plain blocks, which ``_read_table`` also returns, is 0 here.
    """
    problem = _flow_problem if columns == FLOW_COLUMNS else _size_problem
    # A comment or blank line where a record starts is passed on empty, so the
    # reader skips but counts it; a line inside a quoted cell is passed whole.
    starts = [True]

    def skipping(lines):
        for line in lines:
            stripped = line.strip()
            blank = starts[0] and (not stripped or stripped.startswith("#"))
            starts[0] = False
            yield "" if blank else line

    def records():
        for fields in reader:
            starts[0] = True
            yield fields

    reader = csv.reader(skipping(_lines_rowwise(source)))
    rows = records()
    try:
        header = next((fields for fields in rows if fields), None)
        if header is None:
            raise DataError(f"{'flow' if columns == FLOW_COLUMNS else 'size'} input is empty")
        names = [f.strip().lower() for f in header]
        if sorted(names) != sorted(columns):
            raise DataError(
                f"line {reader.line_num}: header must name exactly {','.join(columns)}; "
                f"got {','.join(names)}"
            )
        at_year, *at_codes, at_value = (names.index(c) for c in columns)
        years, country_ids, values, line = array("q"), array("q"), array("d"), array("q")
        for fields in rows:
            if not fields:
                continue
            lineno = reader.line_num
            if len(fields) != len(columns):
                raise DataError(
                    f"line {lineno}: expected {len(columns)} fields, got {len(fields)}"
                )
            try:
                years.append(int(fields[at_year]))
            except (ValueError, OverflowError):
                raise DataError(f"line {lineno}: bad year {fields[at_year].strip()!r}") from None
            codes = [fields[i].strip() for i in at_codes]
            if not all(codes):
                raise DataError(f"line {lineno}: empty country identifier")
            try:
                value = float(fields[at_value])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(f"line {lineno}: bad {columns[-1]} {fields[at_value].strip()!r}")
            defect = problem(value, codes)
            if defect:
                raise DataError(f"line {lineno}: {defect}")
            country_ids.extend([ids.setdefault(code, len(ids)) for code in codes])
            values.append(value)
            line.append(lineno)
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None
    ids_by_row = np.array(country_ids).reshape(-1, len(at_codes))
    return np.array(years), ids_by_row, np.array(values), np.array(line), 0
