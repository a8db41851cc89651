"""Weighted trade-network construction and analysis toolkit.

Builds per-year networks from bilateral flow data, symmetrizes and
max-normalizes them, computes binary and weighted node statistics (degree,
strength, average nearest-neighbor degree/strength, binary and weighted
clustering), and runs the distributional analyses used to contrast the
binary with the weighted view of the same network.
"""

from ._version import __version__
from .distributions import correlation_series
from .errors import DataError, ValidationError
from .graph import (
    DirectedTradeNetwork,
    UndirectedNetwork,
    WeightScheme,
    WeightVariant,
    build_directed,
    dump_matrix,
    load_matrix,
    symmetrize,
    symmetry_index,
)
from .ingest import CountryRegistry, PanelDataset, load_panel, save_panel
from .pipeline import PipelineConfig, compare_views, run_pipeline
from .stats import (
    NodeStatsTable,
    annd,
    anns,
    bcc,
    node_degree,
    node_stats,
    node_strength,
    wcc,
)

__all__ = [
    "__version__",
    "CountryRegistry",
    "DataError",
    "DirectedTradeNetwork",
    "NodeStatsTable",
    "PanelDataset",
    "PipelineConfig",
    "UndirectedNetwork",
    "ValidationError",
    "WeightScheme",
    "WeightVariant",
    "annd",
    "anns",
    "bcc",
    "build_directed",
    "compare_views",
    "correlation_series",
    "dump_matrix",
    "load_matrix",
    "load_panel",
    "node_degree",
    "node_stats",
    "node_strength",
    "run_pipeline",
    "save_panel",
    "symmetrize",
    "symmetry_index",
    "wcc",
]
