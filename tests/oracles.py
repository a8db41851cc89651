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
    Comment and blank lines come out empty, so the CSV reader skips them but
    still counts them.  One byte-order mark at the start of line 1 is
    dropped.  A line that is not UTF-8 raises when it is reached.
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
        stripped = line.strip()
        yield line if stripped and not stripped.startswith("#") else ""


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
    rows = csv.reader(_lines_rowwise(source))
    try:
        header = next((fields for fields in rows if fields), None)
        if header is None:
            raise DataError(f"{'flow' if columns == FLOW_COLUMNS else 'size'} input is empty")
        names = [f.strip().lower() for f in header]
        if sorted(names) != sorted(columns):
            raise DataError(
                f"line {rows.line_num}: header must name exactly {','.join(columns)}; "
                f"got {','.join(names)}"
            )
        at_year, *at_codes, at_value = (names.index(c) for c in columns)
        years, country_ids, values, line = array("q"), array("q"), array("d"), array("q")
        for fields in rows:
            if not fields:
                continue
            lineno = rows.line_num
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
        raise DataError(f"line {rows.line_num}: {exc}") from None
    ids_by_row = np.array(country_ids).reshape(-1, len(at_codes))
    return np.array(years), ids_by_row, np.array(values), np.array(line), 0
