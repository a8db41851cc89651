"""Brute-force reference implementations used as independent test oracles.

Everything here is deliberately written with explicit Python loops over
matrix entries, independent of the vectorized production code it checks.
"""

from __future__ import annotations

import math

import numpy as np


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
