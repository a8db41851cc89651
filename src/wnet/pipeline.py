"""End-to-end pipeline: ingest -> build -> stats -> analyses -> bundle.

``write_bundle`` is the only writer into an output directory and of
``manifest.json``; ``read_manifest`` is its only reader.  ``relabel``
rewrites a bundle's comparison table.

A run is deterministic: identical inputs and config produce byte-identical
output files.  No timestamps are written; the manifest carries the config
echo (minus the output directory, which has no effect on data), the
per-year normalizers, and a sha256 digest of every emitted file.
Nothing is written until every analysis has run over every year, so a
failing year aborts the run without leaving a partial bundle.  Each file's
text is made only when that file is written, into a staging directory; the
files are then renamed into place, the manifest last, so a write that fails
leaves the previous bundle as it was.  Files that the directory's previous
manifest listed and the new one does not are then deleted, so a rerun into
the same directory leaves no stale outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache, partial
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._version import __version__
from .distributions import (
    SUPPORTED_PAIRS,
    CorrelationPoint,
    TailFit,
    correlation_series,
    fit_tail,
    kde,
    rank_size,
)
from .errors import DataError, ValidationError
from .graph import WeightScheme, build_directed, symmetrize, symmetry_index
from .ingest import load_panel
from .stats import MomentSummary, NodeStatsTable, format_table, moments, node_stats

logger = logging.getLogger(__name__)

MANIFEST = "manifest.json"
ANALYSES = ("stats", "moments", "correlations", "density", "ranksize", "tailfit", "symmetry")
MOMENT_STATISTICS = ("nd", "ns", "annd", "anns", "bcc", "wcc")
DENSITY_STATISTICS = ("nd", "ns")
HEAVY_TAIL_STATISTIC = "ns"


@dataclass(frozen=True)
class PipelineConfig:
    """Validated description of one pipeline run."""

    flows: Path
    gdp: Path | None
    scheme: WeightScheme
    years: tuple[int, ...]
    out_dir: Path
    analyses: frozenset[str] = frozenset(ANALYSES)
    ci_level: float = 0.90
    tail_fraction: float = 0.05
    bandwidth: float | None = None
    strong_cut: float = 0.7
    moderate_cut: float = 0.3

    def validate(self) -> None:
        if not self.years:
            raise ValidationError("no years selected")
        if not self.analyses:
            raise ValidationError("no analyses selected")
        unknown = self.analyses - set(ANALYSES)
        if unknown:
            raise ValidationError(
                f"unknown analyses: {', '.join(sorted(unknown))} "
                f"(choices: {', '.join(ANALYSES)})"
            )
        if self.scheme.needs_gdp and self.gdp is None:
            raise ValidationError(
                f"scheme {self.scheme.variant.value} requires a GDP file"
            )
        if not 0 < self.ci_level < 1:
            raise ValidationError(f"ci level must be in (0, 1), got {self.ci_level!r}")
        if not 0 < self.tail_fraction < 1:
            raise ValidationError(
                f"tail fraction must be in (0, 1), got {self.tail_fraction!r}"
            )
        if self.bandwidth is not None and not 0 < self.bandwidth < math.inf:
            raise ValidationError(
                f"bandwidth must be positive and finite, got {self.bandwidth!r}"
            )
        _check_cuts(self.strong_cut, self.moderate_cut)

    def echo(self) -> dict:
        """Config as written to the manifest (data-affecting fields only)."""
        return {
            "flows": str(self.flows),
            "gdp": None if self.gdp is None else str(self.gdp),
            "scheme": self.scheme.variant.value,
            "threshold": self.scheme.threshold,
            "years": list(self.years),
            "analyses": sorted(self.analyses),
            "ci_level": self.ci_level,
            "tail_fraction": self.tail_fraction,
            "bandwidth": self.bandwidth,
            "strong_cut": self.strong_cut,
            "moderate_cut": self.moderate_cut,
        }


def _check_cuts(strong_cut: float, moderate_cut: float) -> None:
    if not 0 <= moderate_cut <= strong_cut < math.inf:
        raise ValidationError("need 0 <= moderate cut <= strong cut < inf")


@dataclass(eq=False)
class ReportBundle:
    """The node statistics and comparison rows of a run, plus the manifest
    written alongside them."""

    manifest: dict
    tables: dict[int, NodeStatsTable]
    comparison: list[dict]


@contextmanager
def _year_context(what: str, year: int):
    """Re-raise analysis data errors with the offending year attached."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{what} in year {year}: {exc}") from None


def read_correlation_csv(path: str | Path) -> list[CorrelationPoint]:
    """Load a correlation series back from its bundle CSV."""
    points = []
    with open(path, encoding="utf-8") as fh:
        rows = csv.DictReader(fh)
        try:
            for row in rows:
                r, low, high = (float(row[key]) for key in ("r", "ci_low", "ci_high"))
                points.append(
                    CorrelationPoint(int(row["year"]), row["pair"], r, low, high, int(row["n"]))
                )
        except (LookupError, TypeError, ValueError, csv.Error) as exc:
            raise DataError(f"{path}, line {rows.line_num}: bad correlation row: {exc}") from None
    return points


@contextmanager
def _manifest_context(path: Path):
    """Re-raise what a malformed manifest trips over as DataError."""
    try:
        yield
    except (ValueError, LookupError, TypeError) as exc:
        raise DataError(f"{path} is not a wnet manifest: {exc}") from None


def read_manifest(out_dir: Path) -> dict | None:
    """``out_dir``'s manifest, or None if it has none.

    Raises DataError unless it is a JSON object with a ``files`` object.
    """
    path = out_dir / MANIFEST
    if not path.exists():
        return None
    with _manifest_context(path):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(manifest["files"], dict):
            raise TypeError("files must be an object")
    return manifest


def _listed_files(out_dir: Path) -> set[str]:
    """The plain file names that ``out_dir``'s manifest lists, if it parses."""
    try:
        manifest = read_manifest(out_dir)
    except (DataError, OSError):
        return set()
    files = manifest["files"] if manifest else {}
    names = {name for name in files if isinstance(name, str) and Path(name).name == name}
    return names - {"", "..", MANIFEST}


def write_bundle(
    out_dir: Path, files: Mapping[str, Callable[[], str]], manifest: dict | None
) -> None:
    """Commit ``files``, each name's text made by its zero-argument maker, into ``out_dir``.

    Every file is written and hashed in a staging directory inside ``out_dir``.
    Unless ``manifest`` is None, the digests are added to ``manifest["files"]``
    and it is written as ``manifest.json``.  Only then are the files renamed
    into place, ``manifest.json`` last, and the staging directory removed; the
    files that the previous manifest listed and the new one does not are
    deleted after that.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    previous = set() if manifest is None else _listed_files(out_dir)
    staging = Path(tempfile.mkdtemp(prefix=".wnet-", dir=out_dir))
    try:
        digests = {}
        for name, make in files.items():
            data = make().encode("utf-8")
            (staging / name).write_bytes(data)
            digests[name] = hashlib.sha256(data).hexdigest()
        names = list(files)
        if manifest is not None:
            manifest["files"] = {**manifest.get("files", {}), **digests}
            text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            (staging / MANIFEST).write_bytes(text.encode("utf-8"))
            names.append(MANIFEST)
        for name in names:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    stale = sorted(previous - set(manifest["files"])) if previous else []
    for name in stale:
        if (out_dir / name).is_file():
            (out_dir / name).unlink()
    logger.info("wrote %d files to %s", len(names), out_dir)
    if stale:
        logger.info("removed %d files that only the previous manifest listed", len(stale))


def pair_filename(pair: str) -> str:
    return f"correlation_{pair.lower().replace('-', '_')}.csv"


@cache
def _fields(kind: type) -> Callable[[object], tuple]:
    """Getter of a ``kind`` record's fields, in order, as a shallow tuple
    (``dataclasses.astuple`` would deep-copy every field)."""
    return attrgetter(*(field.name for field in fields(kind)))


def _table(header: str, rows: Iterable[tuple]) -> Callable[[], str]:
    """Maker of the CSV text of ``rows``, whose fields follow ``header``."""
    return partial(format_table, header, *zip(*rows))


def run_pipeline(config: PipelineConfig) -> ReportBundle:
    """Run the configured analyses over every requested year.

    Returns the in-memory bundle after writing every output file plus the
    manifest to ``config.out_dir``.
    """
    config.validate()
    panel = load_panel(config.flows, config.gdp)
    tables: dict[int, NodeStatsTable] = {}
    normalizers: dict[str, float] = {}
    symmetry: dict[int, float] = {}
    for year in sorted(set(config.years)):
        directed = build_directed(panel, year, config.scheme)
        if "symmetry" in config.analyses:
            symmetry[year] = symmetry_index(directed)
        net = symmetrize(directed)
        tables[year] = node_stats(net)
        normalizers[str(year)] = float(net.normalizer)
    years = list(tables)

    # Bundle file name -> maker of its text, in write order.
    files: dict[str, Callable[[], str]] = {}
    bandwidths: dict[str, float] = {}
    comparison: list[dict] = []
    counts = [
        (year, f"{name}_undefined", int(np.isnan(tables[year].column(name)).sum()))
        for year in years
        for name in ("annd", "anns", "bcc", "wcc")
    ]
    if "stats" in config.analyses:
        files.update((f"stats_{year}.csv", tables[year].to_csv) for year in years)
    if "moments" in config.analyses:
        summaries = []
        for year in years:
            for name in MOMENT_STATISTICS:
                with _year_context(f"moments of {name}", year):
                    summaries.append(moments(tables[year].column(name), statistic=name, year=year))
        header = "statistic,year,mean,std,skewness,kurtosis,count"
        files["moments.csv"] = _table(header, map(_fields(MomentSummary), summaries))
    if "correlations" in config.analyses:
        series = {pair: correlation_series(tables, pair, config.ci_level) for pair in SUPPORTED_PAIRS}
        for pair, points in series.items():
            files[pair_filename(pair)] = _table(
                "year,pair,r,ci_low,ci_high,n", map(_fields(CorrelationPoint), points)
            )
        comparison = compare_views(series, config.strong_cut, config.moderate_cut)
    if "density" in config.analyses:
        for year in years:
            for name in DENSITY_STATISTICS:
                with _year_context(f"density of {name}", year):
                    est = kde(tables[year].column(name), config.bandwidth)
                key = f"density_{name}_{year}.csv"
                files[key] = partial(format_table, "grid,density", est.grid, est.density)
                bandwidths[key] = est.bandwidth
                counts.append((year, f"density_{name}_dropped", len(tables[year].codes) - est.n))
    if "ranksize" in config.analyses:
        for year in years:
            with _year_context(f"rank-size of {HEAVY_TAIL_STATISTIC}", year):
                curve = rank_size(tables[year].column(HEAVY_TAIL_STATISTIC))
            key = f"ranksize_{HEAVY_TAIL_STATISTIC}_{year}.csv"
            files[key] = partial(format_table, "rank,size", curve.ranks, curve.sizes)
            counts.append((year, f"ranksize_{HEAVY_TAIL_STATISTIC}_dropped", curve.dropped))
    if "tailfit" in config.analyses:
        fits = []
        for year in years:
            with _year_context(f"tail fit of {HEAVY_TAIL_STATISTIC}", year):
                fit = fit_tail(tables[year].column(HEAVY_TAIL_STATISTIC), config.tail_fraction)
            fits.append((year, HEAVY_TAIL_STATISTIC, *_fields(TailFit)(fit)))
            counts.append((year, f"tailfit_{HEAVY_TAIL_STATISTIC}_dropped", fit.dropped))
        header = "year,statistic,mu,sigma,alpha,x_min,tail_fraction,n_positive,tail_count,dropped"
        files["tailfit.csv"] = _table(header, fits)
    if symmetry:
        files["symmetry.csv"] = _table("year,symmetry_index", symmetry.items())
    if comparison:
        files["comparison.csv"] = partial(comparison_csv, comparison)
    files["counts.csv"] = _table("year,name,value", sorted(counts))

    manifest = {
        "tool": {"name": "wnet", "version": __version__},
        "config": config.echo(),
        "conventions": {
            "moments": "population",
            "undefined": "excluded (NaN, empty CSV cells)",
        },
        "normalizers": normalizers,
        "density_bandwidths": bandwidths,
        "missing_gdp_warnings": [
            [year, code] for year, code in panel.missing_gdp
        ],
    }
    write_bundle(config.out_dir, files, manifest)
    return ReportBundle(manifest, tables, comparison)


#: Correlation pairs backing each row of the comparison table.
VIEW_PAIRS = {
    "BNA": {"assortativity": "ND-ANND", "clustering": "BCC-ND"},
    "WNA": {"assortativity": "NS-ANNS", "clustering": "WCC-NS"},
}


def qualitative_label(r: float, strong_cut: float = 0.7, moderate_cut: float = 0.3) -> str:
    """Bucket a correlation into strength + sign, e.g. 'strong negative'."""
    magnitude = abs(r)
    if magnitude >= strong_cut:
        strength = "strong"
    elif magnitude >= moderate_cut:
        strength = "moderate"
    else:
        strength = "weak"
    if r > 0:
        return f"{strength} positive"
    if r < 0:
        return f"{strength} negative"
    return "zero"


def compare_views(
    series: Mapping[str, Sequence[CorrelationPoint]],
    strong_cut: float = 0.7,
    moderate_cut: float = 0.3,
) -> list[dict]:
    """Two-row binary-vs-weighted comparison of mean correlations.

    Each row reports the period-mean assortativity and clustering
    correlations of one view with qualitative labels.  Raises DataError if
    a required series is missing.
    """
    rows = []
    for view, pairs in VIEW_PAIRS.items():
        row: dict = {"view": view}
        for role, pair in pairs.items():
            points = series.get(pair)
            if not points:
                raise DataError(f"bundle is missing the {pair} correlation series")
            mean_r = float(np.mean([p.r for p in points]))
            row[f"{role}_pair"] = pair
            row[f"{role}_r"] = mean_r
            row[f"{role}_label"] = qualitative_label(mean_r, strong_cut, moderate_cut)
        rows.append(row)
    return rows


def comparison_csv(rows: Sequence[Mapping]) -> str:
    header = (
        "view,assortativity_pair,assortativity_r,assortativity_label,"
        "clustering_pair,clustering_r,clustering_label"
    )
    return format_table(header, *([row[key] for row in rows] for key in header.split(",")))


def relabel(
    out_dir: Path, strong_cut: float | None = None, moderate_cut: float | None = None
) -> list[dict]:
    """Rewrite ``out_dir``'s comparison table from its correlation series.

    Cuts left as None default to those in the bundle's manifest, or to 0.7
    and 0.3 without one.  A manifest is rewritten with the new table's
    digest and cuts; without one, only ``comparison.csv`` is written.
    """
    manifest = read_manifest(out_dir)
    labelled = [0.7, 0.3]
    if manifest is not None:
        with _manifest_context(out_dir / MANIFEST):
            labelled = [float(manifest["config"][k]) for k in ("strong_cut", "moderate_cut")]
    strong_cut = labelled[0] if strong_cut is None else strong_cut
    moderate_cut = labelled[1] if moderate_cut is None else moderate_cut
    _check_cuts(strong_cut, moderate_cut)
    # Only the series the table uses are read.
    pairs = [pair for roles in VIEW_PAIRS.values() for pair in roles.values()]
    paths = {pair: out_dir / pair_filename(pair) for pair in pairs}
    series = {pair: read_correlation_csv(path) for pair, path in paths.items() if path.exists()}
    rows = compare_views(series, strong_cut, moderate_cut)
    if manifest is not None:
        manifest["config"].update(strong_cut=strong_cut, moderate_cut=moderate_cut)
    write_bundle(out_dir, {"comparison.csv": partial(comparison_csv, rows)}, manifest)
    return rows
