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
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError
from .ingest import CountryRegistry, PanelDataset, float_cells


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
    """Directed adjacency (0/1 ints) and weight matrices for one year."""

    year: int
    registry: CountryRegistry
    scheme: WeightScheme
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
    registry: CountryRegistry
    scheme: WeightScheme
    adjacency: np.ndarray
    weights: np.ndarray
    normalizer: float


def build_directed(
    panel: PanelDataset, year: int, scheme: WeightScheme
) -> DirectedTradeNetwork:
    """Build the directed network of one panel year under a weighting scheme.

    Raises DataError when the year is absent, when a country the scheme
    divides by lacks GDP, or when no flow exceeds the threshold.
    """
    if year not in panel.years:
        raise DataError(f"year {year} not present in panel")

    registry = panel.registry
    n = len(registry)
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
            names = [registry.codes[i] for i in np.flatnonzero(missing)]
            raise DataError(
                f"year {year}: GDP required by scheme {scheme.variant.value} "
                f"missing for {', '.join(names)}"
            )
        divisor = np.where(np.isnan(gdp), 1.0, gdp)
        # A flow over a tiny GDP may overflow to inf: symmetrize rejects it.
        with np.errstate(over="ignore"):
            if scheme.variant is WeightVariant.EXPORTER_GDP:
                scaled = flows / divisor[:, None]
            else:
                scaled = flows / divisor[None, :]
        weights = np.where(adjacency == 1, scaled, 0.0)

    return DirectedTradeNetwork(year, registry, scheme, adjacency, weights)


def symmetrize(net: DirectedTradeNetwork) -> UndirectedNetwork:
    """Symmetrize and max-normalize a directed network.

    a_ij = 1 iff a~_ij = 1 or a~_ji = 1; w_ij = (w~_ij + w~_ji)/2, then all
    entries are divided by their maximum, so max(W) == 1 exactly.  Raises
    DataError when there is no link or the maximum is infinite.
    """
    adjacency = np.maximum(net.adjacency, net.adjacency.T)
    averaged = 0.5 * (net.weights + net.weights.T)
    normalizer = float(averaged.max())
    if normalizer <= 0:
        raise DataError(f"year {net.year}: cannot normalize a network with no links")
    if normalizer == math.inf:  # a flow over a tiny GDP: the weights would be NaN
        raise DataError(f"year {net.year}: a link weight overflows to infinity")
    weights = averaged / normalizer
    return UndirectedNetwork(
        net.year, net.registry, net.scheme, adjacency, weights, normalizer
    )


def symmetry_index(net: DirectedTradeNetwork) -> float:
    """Frobenius-norm asymmetry ratio ||W~ - W~'|| / ||W~ + W~'|| in [0, 1].

    0 for a perfectly symmetric weight matrix, 1 when no weight is
    reciprocated.  Invariant under global rescaling of the weights.
    """
    denom = np.linalg.norm(net.weights + net.weights.T, "fro")
    if denom == 0:
        raise DataError(f"year {net.year}: symmetry index undefined without links")
    return float(np.linalg.norm(net.weights - net.weights.T, "fro") / denom)


@dataclass(frozen=True, eq=False)
class MatrixDump:
    """Parsed form of a plain-text weight-matrix dump."""

    year: int
    scheme_name: str
    normalizer: float
    weights: np.ndarray


def dump_matrix(net: UndirectedNetwork) -> str:
    """Render the normalized weight matrix as plain text.

    One header line ``# year=<y> scheme=<s> normalizer=<v>`` followed by N
    space-delimited rows.  The normalizer is its ``repr`` and each weight its
    ``float_cells`` cell: the shortest digits that read back as the same
    double, so ``load_matrix`` re-reads the dump bit-exact.
    """
    header = f"# year={net.year} scheme={net.scheme.variant.value} normalizer={net.normalizer!r}"
    cells, n = float_cells(net.weights.ravel()), len(net.weights)
    return "\n".join([header, *(" ".join(cells[i : i + n]) for i in range(0, n * n, n))]) + "\n"


def load_matrix(path: str | Path) -> MatrixDump:
    """Re-read a matrix dump; weight entries round-trip bit-exact."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("#"):
        raise DataError(f"{path}: missing matrix header line")
    fields = dict(
        pair.split("=", 1) for pair in re.findall(r"(\S+=\S+)", lines[0])
    )
    try:
        year = int(fields["year"])
        scheme_name = fields["scheme"]
        normalizer = float(fields["normalizer"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: malformed matrix header: {exc}") from None
    rows = [[float(v) for v in line.split()] for line in lines[1:]]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DataError(f"{path}: matrix body is not square")
    weights = np.array(rows)
    return MatrixDump(year, scheme_name, normalizer, weights)
