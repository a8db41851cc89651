"""Node-level statistics on symmetrized networks.

All six statistics are computed from the binary matrix A and the normalized
weight matrix W with dense matrix algebra:

    nd_i   = sum_j a_ij                      (degree)
    ns_i   = sum_j w_ij                      (strength)
    annd_i = (A @ nd)_i / nd_i               (avg nearest-neighbor degree)
    anns_i = (A @ ns)_i / nd_i               (avg nearest-neighbor strength)
    bcc_i  = (A^3)_ii / (nd_i (nd_i - 1))    (binary clustering)
    wcc_i  = (W_c^3)_ii / (nd_i (nd_i - 1))  with W_c the entrywise cube root

The weighted clustering denominator deliberately uses the degree, not the
strength.  Statistics that are undefined (annd/anns at isolated nodes,
bcc/wcc at nodes of degree <= 1) are NaN, never zero-filled: coercing them
would bias the downstream moment and correlation analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DataError
from .graph import UndirectedNetwork
from .ingest import format_table

#: A ``stats_*.csv`` file's header and column types, as ``pipeline.LAYOUT`` has them.
STATS_LAYOUT = ("country,nd,ns,annd,anns,bcc,wcc", "Uifffff")


@dataclass(frozen=True, eq=False)
class NodeStatsTable:
    """Per-node statistics for one year; undefined entries are NaN."""

    year: int
    codes: tuple[str, ...]
    nd: np.ndarray
    ns: np.ndarray
    annd: np.ndarray
    anns: np.ndarray
    bcc: np.ndarray
    wcc: np.ndarray

    def column(self, name: str) -> np.ndarray:
        """Statistic vector by lowercase name (nd, ns, annd, anns, bcc, wcc)."""
        try:
            vec = getattr(self, name)
        except AttributeError:
            raise KeyError(f"unknown statistic {name!r}") from None
        return np.asarray(vec, dtype=float)

    def to_csv(self) -> str:
        """CSV text under ``STATS_LAYOUT``'s header; empty cell = undefined."""
        floats = (self.column(name) for name in ("ns", "annd", "anns", "bcc", "wcc"))
        return format_table(STATS_LAYOUT[0], self.codes, self.nd, *floats)


def node_degree(net: UndirectedNetwork) -> np.ndarray:
    """Number of partners of each node (row sums of A)."""
    return net.adjacency.sum(axis=1)


def node_strength(net: UndirectedNetwork) -> np.ndarray:
    """Total normalized weight held by each node (row sums of W)."""
    return net.weights.sum(axis=1)


def _per_degree(numerator: np.ndarray, nd: np.ndarray) -> np.ndarray:
    out = np.full(nd.shape, np.nan)
    np.divide(numerator, nd, out=out, where=nd > 0)
    return out


def annd(net: UndirectedNetwork, nd: np.ndarray | None = None) -> np.ndarray:
    """Average degree of each node's neighbors; NaN at isolated nodes.

    A caller that has the node degree already passes it as ``nd``, here and
    to ``anns``, ``bcc`` and ``wcc``.
    """
    nd = node_degree(net) if nd is None else nd
    return _per_degree((net.adjacency @ nd).astype(float), nd.astype(float))


def anns(net: UndirectedNetwork, nd: np.ndarray | None = None) -> np.ndarray:
    """Average strength of each node's neighbors; NaN at isolated nodes."""
    nd = node_degree(net) if nd is None else nd
    return _per_degree(net.adjacency @ node_strength(net), nd.astype(float))


def _clustering(cubed_diagonal: np.ndarray, nd: np.ndarray) -> np.ndarray:
    pairs = (nd * (nd - 1)).astype(float)
    out = np.full(nd.shape, np.nan)
    np.divide(cubed_diagonal, pairs, out=out, where=nd > 1)
    return out


def bcc(net: UndirectedNetwork, nd: np.ndarray | None = None) -> np.ndarray:
    """Fraction of a node's neighbor pairs that are linked; NaN where nd <= 1.

    (A^3)_ii is computed in float64 as sum_j (A^2)_ij A_ji, which BLAS does
    fast; it is exact, since every count is far below 2^53.
    """
    a = net.adjacency.astype(float)
    triangles = np.einsum("ij,ji->i", a @ a, a)
    return _clustering(triangles, node_degree(net) if nd is None else nd)


def wcc(net: UndirectedNetwork, nd: np.ndarray | None = None) -> np.ndarray:
    """Cube-root triangle intensity over degree pairs; NaN where nd <= 1."""
    c = np.cbrt(net.weights)
    return _clustering((c @ c @ c).diagonal(), node_degree(net) if nd is None else nd)


def node_stats(net: UndirectedNetwork) -> NodeStatsTable:
    """Bundle all six statistics for one network."""
    nd = node_degree(net)
    return NodeStatsTable(
        year=net.year,
        codes=net.registry.codes,
        nd=nd,
        ns=node_strength(net),
        annd=annd(net, nd),
        anns=anns(net, nd),
        bcc=bcc(net, nd),
        wcc=wcc(net, nd),
    )


def row_groups(keep: np.ndarray, *arrays: np.ndarray) -> Iterator[tuple]:
    """The rows of ``arrays`` grouped by their count of ``keep`` cells, fewest first.

    Yields, for each count k, the indices of the rows with k kept cells, then
    each array's kept cells of those rows as a C-contiguous (rows × k) block,
    every row in its own order.  Reducing such a block along axis 1 gives each
    row the bits that reducing its kept cells alone gives.
    """
    counts = keep.sum(axis=1)
    for k in np.unique(counts).tolist():
        at = np.flatnonzero(counts == k)
        rows = keep[at]
        yield at, *(a[at][rows].reshape(at.size, k) for a in arrays)


def fail_first_row(
    where: Callable[[int], str] | None, *checks: tuple[np.ndarray, Callable[[int], str]]
) -> None:
    """Raise DataError for the first row that any check flags.

    Each check is a boolean flag per row and a maker of the message for row
    ``i``; a row flagged by several gets the message of the first.  Given
    ``where``, the message starts with ``where(i)``, naming the row.
    """
    flagged = [(int(np.argmax(flags)), n) for n, (flags, _) in enumerate(checks) if flags.any()]
    if flagged:
        i, n = min(flagged)
        message = checks[n][1](i)
        raise DataError(message if where is None else f"{where(i)}: {message}")


def moments_rows(
    rows: np.ndarray, where: Callable[[int], str] | None = None
) -> dict[str, np.ndarray]:
    """The ``mean``, ``std``, ``skewness``, ``kurtosis`` and ``count`` of each
    row's defined entries.

    Population moments over the finite entries of each row of the 2-D
    ``rows``: skewness is the third standardized moment and kurtosis the
    fourth (a normal sample gives ~3, no excess subtraction).  Both are NaN
    for a zero-variance row.  A row whose largest deviation from its mean is
    below 2**-240 or above 2**240, where a fourth power would leave the
    normal range, has its deviations scaled first by the exact power of two
    that brings the largest into [1/2, 1), so it gets the skewness and
    kurtosis of its sample at scale 1; no other row is scaled.  Raises
    DataError, named by ``where`` (see ``fail_first_row``), at the first row
    with fewer than two defined entries.
    """
    rows = np.asarray(rows, dtype=float)
    defined = np.isfinite(rows)
    count = defined.sum(axis=1)
    fail_first_row(where, (count < 2, lambda i: f"moments need >= 2 defined values, got {count[i]}"))
    mean, std, skew, kurt = np.full((4, len(rows)), np.nan)
    for at, x in row_groups(defined, rows):
        m = x.mean(axis=1)
        centered = x - m[:, None]
        reach = np.abs(centered).max(axis=1)
        exponent = np.where((reach < 2.0**-240) | (reach > 2.0**240), np.frexp(reach)[1], 0)
        centered = np.ldexp(centered, -exponent[:, None])
        s = np.sqrt(np.mean(centered**2, axis=1))
        # Python float powers: numpy's array power differs in the last bits.
        cube, fourth = np.array([(v**3, v**4) for v in s.tolist()]).T
        mean[at], std[at] = m, np.ldexp(s, exponent)
        for out, power, scale in (skew, 3, cube), (kurt, 4, fourth):
            out[at] = np.divide(
                np.mean(centered**power, axis=1), scale, out=np.full(at.size, np.nan), where=s != 0
            )
    return {"mean": mean, "std": std, "skewness": skew, "kurtosis": kurt, "count": count}
