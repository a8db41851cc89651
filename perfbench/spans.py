"""Span recorder for the traced benchmark run.

Wraps the public wnet names that each layer's callers look up (a module
global such as ``wnet.pipeline.load_panel``, or a method on a class), so
every call becomes a span: id, parent id, name, start, end and any counts
read from the returned object.  Spans stay in memory and are handed over
once, when the run ends.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import time


def _rows(result) -> dict:
    return {"rows": len(result)}


def _directed_links(result) -> dict:
    return {"links": int(result.n_links)}


def _undirected_links(result) -> dict:
    # No self-links, so every undirected link is counted twice in A.
    return {"links": int(result.adjacency.sum()) // 2}


#: (module, attribute, span name, counter).  The module is where the caller
#: looks the name up; ``Class.method`` patches the class attribute.
TARGETS = (
    ("wnet.cli", "main", "cli.main", None),
    ("wnet.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("wnet.pipeline", "load_panel", "ingest.load_panel", None),
    ("wnet.ingest", "parse_flows", "ingest.parse_flows", _rows),
    ("wnet.ingest", "parse_sizes", "ingest.parse_sizes", None),
    ("wnet.ingest", "assemble_panel", "ingest.assemble_panel", None),
    ("wnet.pipeline", "build_directed", "graph.build_directed", _directed_links),
    ("wnet.pipeline", "symmetrize", "graph.symmetrize", _undirected_links),
    ("wnet.pipeline", "symmetry_index", "graph.symmetry_index", None),
    ("wnet.pipeline", "node_stats", "stats.node_stats", None),
    ("wnet.stats", "node_degree", "stats.node_degree", None),
    ("wnet.stats", "annd", "stats.annd", None),
    ("wnet.stats", "anns", "stats.anns", None),
    ("wnet.stats", "bcc", "stats.bcc", None),
    ("wnet.stats", "wcc", "stats.wcc", None),
    ("wnet.stats", "NodeStatsTable.to_csv", "stats.to_csv", None),
    ("wnet.pipeline", "moments", "distributions.moments", None),
    ("wnet.pipeline", "correlation_series", "distributions.correlation_series", None),
    ("wnet.pipeline", "kde", "distributions.kde", None),
    ("wnet.pipeline", "rank_size", "distributions.rank_size", None),
    ("wnet.pipeline", "fit_tail", "distributions.fit_tail", None),
)


class SpanRecorder:
    """Collects spans from wrapped calls in one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(result)
                except (AttributeError, TypeError):
                    pass  # the returned object no longer carries this count
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; return the targets the program does not have."""
        missing = []
        for module_name, attr, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(fn, name, counter))
        return missing
