"""Per-year network construction.

Rows of the flow matrix are exporters, columns importers.  A link i->j
exists when the flow e_ij strictly exceeds the scheme threshold (default 0,
i.e. any positive flow).  Weights divide the flow by exporter GDP, importer
GDP, or leave it raw.  The undirected view joins links in either direction,
averages the two directed weights, and rescales the whole matrix by its
maximum entry so weights live in [0, 1].

Matrices are dense: the reference use case is ~160 nodes with average
degree near 90, so sparse storage buys nothing.  A year's flow matrix is
filled by one scatter from that year's slice of the panel's flow columns,
and the GDP divisor is that year's row of the panel's GDP matrix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError
from .ingest import PanelDataset


class WeightVariant(enum.Enum):
    """How a flow e_ij is turned into a link weight."""

    EXPORTER_GDP = "exporter-gdp"
    IMPORTER_GDP = "importer-gdp"
    RAW = "raw"

    @classmethod
    def from_name(cls, name: str) -> "WeightVariant":
        for variant in cls:
            if variant.value == name:
                return variant
        choices = ", ".join(v.value for v in cls)
        raise ValidationError(f"unknown weighting scheme {name!r} (choices: {choices})")


@dataclass(frozen=True)
class WeightScheme:
    """Weighting variant plus the minimum flow for link existence."""

    variant: WeightVariant = WeightVariant.EXPORTER_GDP
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold) or self.threshold < 0:
            raise ValidationError(f"threshold must be >= 0, got {self.threshold!r}")

    @property
    def needs_gdp(self) -> bool:
        return self.variant is not WeightVariant.RAW


@dataclass(frozen=True, eq=False)
class DirectedTradeNetwork:
    """Directed adjacency (0/1 ints) and weight matrices for one year, a row and
    a column for each of the panel's sorted ``codes``."""

    year: int
    codes: tuple[str, ...]
    adjacency: np.ndarray
    weights: np.ndarray

    @property
    def n_links(self) -> int:
        return int(self.adjacency.sum())


@dataclass(frozen=True, eq=False)
class UndirectedNetwork:
    """Symmetrized, max-normalized network for one year.

    ``normalizer`` is the pre-normalization maximum of (w~_ij + w~_ji)/2,
    kept so the original weight scale can be reconstructed.
    """

    year: int
    codes: tuple[str, ...]
    adjacency: np.ndarray
    weights: np.ndarray
    normalizer: float


def build_directed(
    panel: PanelDataset, year: int, scheme: WeightScheme
) -> DirectedTradeNetwork:
    """Build the directed network of one panel year under a weighting scheme.

    Raises DataError when the year is absent, when a country the scheme
    divides by lacks GDP, when no flow exceeds the threshold, or when a
    link weight overflows to infinity.
    """
    if year not in panel.years:
        raise DataError(f"year {year} not present in panel")

    n = len(panel.codes)
    rows = slice(
        np.searchsorted(panel.flow_year, year),
        np.searchsorted(panel.flow_year, year, side="right"),
    )
    flows = np.zeros((n, n))
    flows[panel.exporter[rows], panel.importer[rows]] = panel.value[rows]

    adjacency = (flows > scheme.threshold).astype(np.int64)
    if adjacency.sum() == 0:
        raise DataError(f"year {year}: no flow exceeds the link threshold")

    if scheme.variant is WeightVariant.RAW:
        weights = np.where(adjacency == 1, flows, 0.0)
    else:
        gdp = panel.gdp[panel.years.index(year)]
        if scheme.variant is WeightVariant.EXPORTER_GDP:
            needed = adjacency.any(axis=1)
        else:
            needed = adjacency.any(axis=0)
        missing = needed & np.isnan(gdp)
        if missing.any():
            names = [panel.codes[i] for i in np.flatnonzero(missing)]
            raise DataError(
                f"year {year}: GDP required by scheme {scheme.variant.value} "
                f"missing for {', '.join(names)}"
            )
        divisor = np.where(np.isnan(gdp), 1.0, gdp)
        with np.errstate(over="ignore"):  # a flow over a tiny GDP: rejected below
            if scheme.variant is WeightVariant.EXPORTER_GDP:
                scaled = flows / divisor[:, None]
            else:
                scaled = flows / divisor[None, :]
        weights = np.where(adjacency == 1, scaled, 0.0)
        if np.isinf(weights).any():
            raise DataError(f"year {year}: a link weight overflows to infinity")

    return DirectedTradeNetwork(year, panel.codes, adjacency, weights)


def symmetrize(net: DirectedTradeNetwork) -> UndirectedNetwork:
    """Symmetrize and max-normalize a directed network.

    a_ij = 1 iff a~_ij = 1 or a~_ji = 1; w_ij = (w~_ij + w~_ji)/2, then all
    entries are divided by their maximum, so max(W) == 1 exactly.  Raises
    DataError when there is no link or the maximum is infinite.
    """
    adjacency = np.maximum(net.adjacency, net.adjacency.T)
    # Halving before adding would round away a subnormal weight's last bit,
    # so only a sum that overflows is averaged by halves.
    with np.errstate(over="ignore"):
        averaged = 0.5 * (net.weights + net.weights.T)
    over = np.isinf(averaged)
    if over.any():
        averaged[over] = 0.5 * net.weights[over] + 0.5 * net.weights.T[over]
    normalizer = float(averaged.max())
    if normalizer <= 0:
        raise DataError(f"year {net.year}: cannot normalize a network with no links")
    if normalizer == math.inf:  # a flow over a tiny GDP: the weights would be NaN
        raise DataError(f"year {net.year}: a link weight overflows to infinity")
    weights = averaged / normalizer
    return UndirectedNetwork(net.year, net.codes, adjacency, weights, normalizer)


def symmetry_index(net: DirectedTradeNetwork) -> float:
    """Frobenius-norm asymmetry ratio ||W~ - W~'|| / ||W~ + W~'|| in [0, 1].

    0 for a perfectly symmetric weight matrix, 1 when no weight is
    reciprocated.  Invariant under global rescaling of the weights: they are
    first scaled, exactly, by the power of two that brings the largest below
    1, so its squares cannot overflow, and a power-of-two rescaling of
    normal weights leaves the index bit-identical.
    """
    peak = float(np.abs(net.weights).max())
    weights = np.ldexp(net.weights, -math.frexp(peak)[1])
    denom = np.linalg.norm(weights + weights.T, "fro")
    if denom == 0:
        raise DataError(f"year {net.year}: symmetry index undefined without links")
    return float(np.linalg.norm(weights - weights.T, "fro") / denom)
