"""End-to-end pipeline: ingest -> build -> stats -> analyses -> bundle.

A run is deterministic: identical inputs and config produce byte-identical
output files.  No timestamps are written; the manifest carries the config
echo (minus the output directory, which has no effect on data), the
per-year normalizers, and a sha256 digest of every emitted file.
Nothing is written until every year has been computed, so a failing year
aborts the run without leaving a partial bundle; files already written when
a later write fails are removed.  Once the new manifest is written, files
that the directory's previous manifest listed and the new one does not are
deleted, so a rerun into the same directory leaves no stale outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._version import __version__
from .distributions import (
    SUPPORTED_PAIRS,
    CorrelationPoint,
    DensityEstimate,
    RankSizeCurve,
    TailFit,
    correlation_series,
    fit_tail,
    kde,
    rank_size,
)
from .errors import DataError, ValidationError
from .graph import WeightScheme, build_directed, symmetrize, symmetry_index
from .ingest import PanelDataset, load_panel
from .stats import MomentSummary, NodeStatsTable, _fmt_column, moments, node_stats

logger = logging.getLogger(__name__)

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
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValidationError(f"bandwidth must be positive, got {self.bandwidth!r}")
        if not 0 <= self.moderate_cut <= self.strong_cut:
            raise ValidationError("need 0 <= moderate cut <= strong cut")

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


@dataclass(frozen=True, eq=False)
class YearResult:
    """Everything computed for a single year before serialization."""

    year: int
    table: NodeStatsTable
    normalizer: float
    symmetry: float | None


@dataclass(eq=False)
class ReportBundle:
    """In-memory results of a run plus the manifest written alongside them."""

    out_dir: Path
    manifest: dict
    tables: dict[int, NodeStatsTable]
    moments: list[MomentSummary] = field(default_factory=list)
    correlations: dict[str, list[CorrelationPoint]] = field(default_factory=dict)
    densities: dict[str, DensityEstimate] = field(default_factory=dict)
    ranksizes: dict[str, RankSizeCurve] = field(default_factory=dict)
    tailfits: dict[int, TailFit] = field(default_factory=dict)
    symmetry: dict[int, float] = field(default_factory=dict)


def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return "" if np.isnan(v) else repr(v)


def _process_year(panel: PanelDataset, year: int, config: PipelineConfig) -> YearResult:
    directed = build_directed(panel, year, config.scheme)
    sym = symmetry_index(directed) if "symmetry" in config.analyses else None
    net = symmetrize(directed)
    return YearResult(year, node_stats(net), net.normalizer, sym)


@contextmanager
def _year_context(what: str, year: int):
    """Re-raise analysis data errors with the offending year attached."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{what} in year {year}: {exc}") from None


def _undefined_counts(table: NodeStatsTable) -> list[tuple[str, int]]:
    return [
        (f"{name}_undefined", int(np.isnan(table.column(name)).sum()))
        for name in ("annd", "anns", "bcc", "wcc")
    ]


class _BundleWriter:
    """Writes bundle files, hashing each as it is written, and tracks them for
    the manifest and for cleanup."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.written: list[Path] = []
        self.sha256: dict[str, str] = {}

    def write(self, name: str, text: str) -> None:
        data = text.encode("utf-8")
        path = self.out_dir / name
        path.write_bytes(data)
        self.written.append(path)
        self.sha256[name] = hashlib.sha256(data).hexdigest()

    def digests(self) -> dict[str, str]:
        return dict(sorted(self.sha256.items()))

    def cleanup(self) -> None:
        for path in self.written:
            path.unlink(missing_ok=True)


def _correlation_csv(points: Sequence[CorrelationPoint]) -> str:
    lines = ["year,pair,r,ci_low,ci_high,n"]
    for p in points:
        lines.append(
            f"{p.year},{p.pair},{_fmt(p.r)},{_fmt(p.ci_low)},{_fmt(p.ci_high)},{p.n}"
        )
    return "\n".join(lines) + "\n"


def read_correlation_csv(path: str | Path) -> list[CorrelationPoint]:
    """Load a correlation series back from its bundle CSV."""
    points = []
    with open(path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            points.append(
                CorrelationPoint(
                    year=int(row["year"]),
                    pair=row["pair"],
                    r=float(row["r"]),
                    ci_low=float(row["ci_low"]),
                    ci_high=float(row["ci_high"]),
                    n=int(row["n"]),
                )
            )
    return points


def _listed_files(out_dir: Path) -> set[str]:
    """The plain file names that ``out_dir``'s manifest lists, if it parses."""
    try:
        files = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["files"]
    except (OSError, ValueError, KeyError, TypeError):
        return set()
    if not isinstance(files, dict):
        return set()
    names = {name for name in files if isinstance(name, str) and Path(name).name == name}
    return names - {"", "..", "manifest.json"}


def manifest_json(manifest: Mapping) -> str:
    """The canonical text of ``manifest.json``."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def pair_filename(pair: str) -> str:
    return f"correlation_{pair.lower().replace('-', '_')}.csv"


def run_pipeline(config: PipelineConfig) -> ReportBundle:
    """Run the configured analyses over every requested year.

    Returns the in-memory bundle after writing every output file plus the
    manifest to ``config.out_dir``.
    """
    config.validate()
    panel = load_panel(config.flows, config.gdp)
    results = [_process_year(panel, year, config) for year in sorted(config.years)]
    tables = {r.year: r.table for r in results}
    years = sorted(tables)

    bundle = ReportBundle(
        out_dir=config.out_dir,
        manifest={},
        tables=tables,
        symmetry={r.year: r.symmetry for r in results if r.symmetry is not None},
    )
    counts: list[tuple[int, str, int]] = []
    density_bandwidths: dict[str, float] = {}

    if "moments" in config.analyses:
        for year in years:
            for name in MOMENT_STATISTICS:
                with _year_context(f"moments of {name}", year):
                    bundle.moments.append(
                        moments(tables[year].column(name), statistic=name, year=year)
                    )
    if "correlations" in config.analyses:
        for pair in SUPPORTED_PAIRS:
            bundle.correlations[pair] = correlation_series(
                tables, pair, config.ci_level
            )
    if "density" in config.analyses:
        for year in years:
            for name in DENSITY_STATISTICS:
                with _year_context(f"density of {name}", year):
                    est = kde(tables[year].column(name), config.bandwidth)
                key = f"density_{name}_{year}.csv"
                bundle.densities[key] = est
                density_bandwidths[key] = est.bandwidth
                counts.append((year, f"density_{name}_dropped", len(tables[year].codes) - est.n))
    if "ranksize" in config.analyses:
        for year in years:
            with _year_context(f"rank-size of {HEAVY_TAIL_STATISTIC}", year):
                curve = rank_size(tables[year].column(HEAVY_TAIL_STATISTIC))
            bundle.ranksizes[f"ranksize_{HEAVY_TAIL_STATISTIC}_{year}.csv"] = curve
            counts.append((year, f"ranksize_{HEAVY_TAIL_STATISTIC}_dropped", curve.dropped))
    if "tailfit" in config.analyses:
        for year in years:
            with _year_context(f"tail fit of {HEAVY_TAIL_STATISTIC}", year):
                fit = fit_tail(tables[year].column(HEAVY_TAIL_STATISTIC), config.tail_fraction)
            bundle.tailfits[year] = fit
            counts.append((year, f"tailfit_{HEAVY_TAIL_STATISTIC}_dropped", fit.dropped))
    for year in years:
        for name, count in _undefined_counts(tables[year]):
            counts.append((year, name, count))

    config.out_dir.mkdir(parents=True, exist_ok=True)
    previous = _listed_files(config.out_dir)
    writer = _BundleWriter(config.out_dir)
    try:
        if "stats" in config.analyses:
            for year in years:
                writer.write(f"stats_{year}.csv", tables[year].to_csv())
        if bundle.moments:
            lines = ["statistic,year,mean,std,skewness,kurtosis,count"]
            for m in bundle.moments:
                lines.append(
                    f"{m.statistic},{m.year},{_fmt(m.mean)},{_fmt(m.std)},"
                    f"{_fmt(m.skewness)},{_fmt(m.kurtosis)},{m.count}"
                )
            writer.write("moments.csv", "\n".join(lines) + "\n")
        for pair, points in bundle.correlations.items():
            writer.write(pair_filename(pair), _correlation_csv(points))
        for name, est in bundle.densities.items():
            lines = ["grid,density"]
            lines += map(",".join, zip(_fmt_column(est.grid), _fmt_column(est.density)))
            writer.write(name, "\n".join(lines) + "\n")
        for name, curve in bundle.ranksizes.items():
            lines = ["rank,size"]
            lines += [f"{r},{s}" for r, s in zip(curve.ranks.tolist(), _fmt_column(curve.sizes))]
            writer.write(name, "\n".join(lines) + "\n")
        if bundle.tailfits:
            lines = ["year,statistic,mu,sigma,alpha,x_min,tail_fraction,n_positive,tail_count,dropped"]
            for year in years:
                f = bundle.tailfits[year]
                lines.append(
                    f"{year},{HEAVY_TAIL_STATISTIC},{_fmt(f.mu)},{_fmt(f.sigma)},"
                    f"{_fmt(f.alpha)},{_fmt(f.x_min)},{_fmt(f.tail_fraction)},"
                    f"{f.n},{f.tail_count},{f.dropped}"
                )
            writer.write("tailfit.csv", "\n".join(lines) + "\n")
        if bundle.symmetry:
            lines = ["year,symmetry_index"]
            lines += [f"{y},{_fmt(v)}" for y, v in sorted(bundle.symmetry.items())]
            writer.write("symmetry.csv", "\n".join(lines) + "\n")
        if bundle.correlations:
            rows = compare_views(bundle, config.strong_cut, config.moderate_cut)
            writer.write("comparison.csv", comparison_csv(rows))
        if counts:
            lines = ["year,name,value"]
            lines += [f"{y},{n},{v}" for y, n, v in sorted(counts)]
            writer.write("counts.csv", "\n".join(lines) + "\n")

        manifest = {
            "tool": {"name": "wnet", "version": __version__},
            "config": config.echo(),
            "conventions": {
                "moments": "population",
                "undefined": "excluded (NaN, empty CSV cells)",
            },
            "normalizers": {
                str(r.year): float(r.normalizer) for r in results
            },
            "density_bandwidths": density_bandwidths,
            "missing_gdp_warnings": [
                [year, code] for year, code in panel.missing_gdp
            ],
            "files": writer.digests(),
        }
        bundle.manifest = manifest
        writer.write("manifest.json", manifest_json(manifest))
    except Exception:
        writer.cleanup()
        raise
    stale = [config.out_dir / name for name in sorted(previous - set(writer.sha256))]
    for path in stale:
        if path.is_file():
            path.unlink()
    logger.info("wrote %d files to %s", len(writer.written), config.out_dir)
    if stale:
        logger.info("removed %d files that only the previous manifest listed", len(stale))
    return bundle


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
    bundle: ReportBundle | Mapping[str, Sequence[CorrelationPoint]],
    strong_cut: float = 0.7,
    moderate_cut: float = 0.3,
) -> list[dict]:
    """Two-row binary-vs-weighted comparison of mean correlations.

    Each row reports the period-mean assortativity and clustering
    correlations of one view with qualitative labels.  Raises DataError if
    a required series is missing from the bundle.
    """
    series = bundle.correlations if isinstance(bundle, ReportBundle) else bundle
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
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['view']},{row['assortativity_pair']},{_fmt(row['assortativity_r'])},"
            f"{row['assortativity_label']},{row['clustering_pair']},"
            f"{_fmt(row['clustering_r'])},{row['clustering_label']}"
        )
    return "\n".join(lines) + "\n"
