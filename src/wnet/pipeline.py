"""End-to-end pipeline: ingest -> build -> stats -> analyses -> bundle.

``write_bundle`` is the only writer into an output directory and of
``manifest.json``; ``read_manifest`` is the manifest's only reader.
``relabel`` rewrites a bundle's comparison table.

A run is deterministic: identical inputs and config produce byte-identical
output files.  No timestamps are written; the manifest carries the config
echo (minus the output directory, which has no effect on data), the
per-year normalizers, and a sha256 digest of every emitted file.
The analyses are row reductions: the six node statistics of every year are
stacked once into one (years × statistics × countries) array, and each
analysis takes its rows of it in one call of the ``*_rows`` functions.
Nothing is written until the inputs have been read and every selected year
found in them.  Every command then writes in one lifecycle,
``with write_bundle(out_dir, names) as commit``.  Entering makes the output
directory and a ``.wnet-*`` staging directory in it, and, for two or more
files, forks a child that creates them there, empty, while the command
computes: creating a file is costly on virtualised and network filesystems,
and filling one that exists is not.  ``commit`` makes each file's text only
as it writes the file there, a forked helper making every other one, and
renames them into place, the manifest last.  It does not wait for the
creating child: whichever process opens a file first creates it, and the
child is stopped once every file is made.
Leaving, however it happens, stops and reaps every fork left and removes
the staging directory, and the directories it made while they are empty.
So a run that fails leaves no partial bundle, and the previous bundle as it
was; a committed run then deletes the files that only the previous manifest
listed.
Both forks go through ``_fork``, under one rule: a forked process only
speeds the write up, and its work counts only if it exits 0; otherwise this
process redoes it.  So their failure costs time but does not fail the run,
every digest comes from this process, from the staged bytes, and the output
bytes do not depend on the forks.  (Both are forked from a process that may
hold BLAS threads, so they run no BLAS; Python 3.12 and later warn at each
fork of a process with threads.)
``verify_bundle`` re-hashes a bundle against its manifest without writing.
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
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from functools import cache, partial
from itertools import product, takewhile
from operator import attrgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._version import __version__
from .distributions import (
    SUPPORTED_PAIRS,
    CorrelationPoint,
    TailFit,
    correlation_series,
    kde,
    kde_bandwidths,
)
from .errors import DataError, ValidationError
from .graph import WeightScheme, build_directed, symmetrize, symmetry_index
from .ingest import PanelDataset, format_table, load_panel
from .stats import NodeStatsTable, node_stats

# Row functions under the names of the one-row functions they batch, only
# because perfbench/spans.py times each analysis by the name it is called by
# here.  Unlike ``stats.moments`` and ``distributions.rank_size`` and
# ``fit_tail``, these take a stack of rows and return one result a row.  The
# aliases go when the span targets are renamed (ROADMAP item 4).
from .distributions import fit_tail_rows as fit_tail
from .distributions import rank_size_rows as rank_size
from .stats import moments_rows as moments

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
    years: Sequence[int]  # a tuple, or a range for A:B
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


def _is_file_name(name: str) -> bool:
    """Whether a manifest may list ``name``: a plain file name, not the manifest's own."""
    return name not in ("", "..", MANIFEST) and Path(name).name == name


def _listed_files(out_dir: Path) -> set[str]:
    """The plain file names that ``out_dir``'s manifest lists, if it parses."""
    try:
        manifest = read_manifest(out_dir)
    except (DataError, OSError):
        return set()
    return set(filter(_is_file_name, manifest["files"] if manifest else {}))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_bundle(out_dir: Path) -> dict[str, list[str]]:
    """Re-hash every file that ``out_dir``'s manifest lists; read only.

    Returns sorted names: the listed files that are ``intact``, ``missing``
    or ``changed``, the other entries of ``out_dir`` (``unlisted``), and the
    ``.wnet-*`` directories left by an interrupted run (``staging``).
    Raises DataError if ``out_dir`` has no manifest or it lists a name that
    is not a plain file name.
    """
    manifest = read_manifest(out_dir)
    if manifest is None:
        raise DataError(f"{out_dir} has no {MANIFEST}")
    found: dict[str, list[str]] = {
        kind: [] for kind in ("intact", "missing", "changed", "unlisted", "staging")
    }
    for name, digest in sorted(manifest["files"].items()):
        if not _is_file_name(name):
            raise DataError(f"{out_dir / MANIFEST} lists {name!r}, which is not a bundle file name")
        path = out_dir / name
        if not path.is_file():
            found["missing"].append(name)
        elif _digest(path) != digest:
            found["changed"].append(name)
        else:
            found["intact"].append(name)
    for entry in sorted(out_dir.iterdir()):
        if entry.name == MANIFEST or entry.name in manifest["files"]:
            continue
        staging = entry.name.startswith(".wnet-") and entry.is_dir()
        found["staging" if staging else "unlisted"].append(entry.name)
    return found


#: SIGKILL's number, which POSIX fixes at 9.  ``import signal`` after
#: ``wnet.cli`` takes 0.7-1.3 ms (``python -X importtime``, 15 runs on a
#: 2-vCPU Xeon) for this one constant.
_SIGKILL = 9


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _may_fork() -> bool:
    """Whether the bundle writer may fork: ``os.fork`` exists and two or more CPUs are usable."""
    return hasattr(os, "fork") and _usable_cpus() >= 2


def _fork(job: Callable[[], object]) -> int | None:
    """Run ``job`` in a forked child and return the child's pid, or None
    where the bundle writer may not fork or ``os.fork`` fails.

    The child exits 0 once ``job`` returns and 1 however else it ends, so its
    exit status alone says whether its work is complete.
    """
    if not _may_fork():
        return None
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        return None
    if pid == 0:
        try:
            job()
            os._exit(0)
        finally:
            os._exit(1)
    return pid


@contextmanager
def write_bundle(
    out_dir: Path, names: Collection[str]
) -> Iterator[Callable[[Mapping[str, Callable[[], str]], dict | None], str]]:
    """The one write of a bundle into ``out_dir``, from staging to cleanup.

    On entry it makes ``out_dir`` (with any missing directory above it) and a
    ``.wnet-*`` staging directory inside it.  Given two or more ``names``, the
    files to come, it also forks a child that creates each of them there,
    empty, while the caller computes.  The child opens each with ``O_CREAT``
    and never truncates, so whichever process opens a file first creates it,
    and the child's exit status is not read.

    It yields ``commit(files, manifest)``, which commits ``files``, each
    name's text made by its zero-argument maker.  It does not wait for the
    creating child.  Given two or more files, it forks a helper that makes
    and writes every other file while this process makes and writes the rest;
    each write creates its file if the child has not.  If the helper exits
    other than 0, this process logs one WARNING with the count and the exit
    code and makes the helper's whole share again.  Once every file is made,
    the creating child is stopped (SIGKILL) and reaped.  Then this process
    hashes every staged file, reading it back.  Unless ``manifest`` is None,
    the digests are added to ``manifest["files"]`` and it is written as
    ``manifest.json``.  Only then are the files renamed into place,
    ``manifest.json`` last.  ``commit`` returns the note of the write's stage
    line: the file count, the processes that made the files, the seconds this
    process spent in the makers and the seconds it took to stop the child.

    On exit, however it happens, every fork not reaped yet is stopped and
    reaped, then the staging directory is removed, and the directories made
    on entry, deepest first, each only while it is empty.  After a commit,
    the files that the previous manifest listed and the new one does not are
    deleted.
    """
    # The directories made here, from out_dir up, so deepest first.
    made = list(takewhile(lambda path: not path.exists(), (out_dir, *out_dir.parents)))
    staging = None
    pids: list[int] = []  # the forks not reaped yet
    stale: list[str] = []

    def create(share: Iterable[str]) -> None:
        for name in share:
            os.close(os.open(staging / name, os.O_WRONLY | os.O_CREAT, 0o666))

    def make(files: Mapping[str, Callable[[], str]], share: Iterable[str]) -> float:
        """Make and write each file of ``share``; return the seconds spent in its makers."""
        seconds = 0.0
        for name in share:
            start = time.perf_counter()
            text = files[name]()
            seconds += time.perf_counter() - start
            (staging / name).write_bytes(text.encode("utf-8"))
        return seconds

    def reap(pid: int) -> int:
        """Wait for the fork ``pid`` and return its exit code."""
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pids.remove(pid)
        return code

    def stop() -> float:
        """Kill (SIGKILL) and reap every fork not reaped yet; return the seconds it took."""
        start = time.perf_counter()
        while pids:
            os.kill(pids[0], _SIGKILL)
            reap(pids[0])
        return time.perf_counter() - start

    def commit(files: Mapping[str, Callable[[], str]], manifest: dict | None) -> str:
        previous = set() if manifest is None else _listed_files(out_dir)
        order = list(files)
        helper = order[1::2]
        pid = _fork(partial(make, files, helper)) if helper else None
        if pid:
            pids.append(pid)
        processes = 2 if pid else 1
        texts = make(files, order[::processes])  # every file, or every other one
        if pid and (code := reap(pid)) != 0:
            logger.warning(
                "making the %d files of the writer helper again (its exit code: %d)",
                len(helper), code,
            )
            texts += make(files, helper)
        waited = stop()  # the creating child: every file is made without it
        digests = {name: _digest(staging / name) for name in order}
        if manifest is not None:
            manifest["files"] = {**manifest.get("files", {}), **digests}
            text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            (staging / MANIFEST).write_bytes(text.encode("utf-8"))
            order.append(MANIFEST)
        for name in order:
            os.replace(staging / name, out_dir / name)
        logger.info("wrote %d files to %s", len(order), out_dir)
        if previous:
            stale.extend(sorted(previous - set(manifest["files"])))
        note = (
            f"processes: {processes}; texts {texts:.2f} s; "
            f"waited {waited:.4f} s for the creating child"
        )
        return f"{len(files)} files; {note}"

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".wnet-", dir=out_dir))
        if len(names) >= 2 and (pid := _fork(partial(create, names))):
            pids.append(pid)
        yield commit
    finally:
        stop()
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        with suppress(OSError):  # not empty: the write went through
            for path in made:
                path.rmdir()
    for name in stale:
        if (out_dir / name).is_file():
            (out_dir / name).unlink()
    if stale:
        logger.info("removed %d files that only the previous manifest listed", len(stale))


def pair_filename(pair: str) -> str:
    return f"correlation_{pair.lower().replace('-', '_')}.csv"


def bundle_names(analyses: Collection[str], years: Sequence[int]) -> dict:
    """The names of the files a run of ``analyses`` over ``years`` writes, in write order.

    Each name is keyed by what its file holds: ``("stats", year)``,
    ``"moments"``, ``("correlations", pair)``, ``("density", statistic,
    year)``, ``("ranksize", year)``, ``"tailfit"``, ``"symmetry"``,
    ``"comparison"`` or ``"counts"``.  ``run_pipeline`` takes every name
    from here, both to stage the files and to make them.
    """
    names: dict = {}
    if "stats" in analyses:
        names.update({("stats", year): f"stats_{year}.csv" for year in years})
    if "moments" in analyses:
        names["moments"] = "moments.csv"
    if "correlations" in analyses:
        names.update({("correlations", pair): pair_filename(pair) for pair in SUPPORTED_PAIRS})
    if "density" in analyses:
        names.update({
            ("density", name, year): f"density_{name}_{year}.csv"
            for year in years
            for name in DENSITY_STATISTICS
        })
    if "ranksize" in analyses:
        names.update({
            ("ranksize", year): f"ranksize_{HEAVY_TAIL_STATISTIC}_{year}.csv" for year in years
        })
    if "tailfit" in analyses:
        names["tailfit"] = "tailfit.csv"
    if "symmetry" in analyses:
        names["symmetry"] = "symmetry.csv"
    if "correlations" in analyses:
        names["comparison"] = "comparison.csv"
    names["counts"] = "counts.csv"
    return names


@cache
def _fields(kind: type) -> Callable[[object], tuple]:
    """Getter of a ``kind`` record's fields, in order, as a shallow tuple
    (``dataclasses.astuple`` would deep-copy every field)."""
    return attrgetter(*(field.name for field in fields(kind)))


def _table(header: str, rows: Iterable[tuple]) -> Callable[[], str]:
    """Maker of the CSV text of ``rows``, whose fields follow ``header``."""
    return partial(format_table, header, *zip(*rows))


class _StageTimer:
    """Seconds a run spends in each stage, logged at INFO when it ends.

    Each ``lap`` adds the time since the previous lap (or since the timer was
    made) to one stage, so the stages always sum to the whole run.
    """

    def __init__(self) -> None:
        self.start = self.last = time.perf_counter()
        self.seconds: dict[str, float] = {}

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self.last
        self.last = now

    def log(self, notes: Mapping[str, str]) -> None:
        """One line per stage, in the order first timed, then the whole run."""
        for stage, seconds in self.seconds.items():
            logger.info("stage %s: %.4f s%s", stage, seconds, notes.get(stage, ""))
        logger.info("run: %.4f s in %d stages", self.last - self.start, len(self.seconds))


def select_years(panel: PanelDataset, selection: Sequence[int]) -> list[int]:
    """The years of ``selection`` in order, each once.

    Raises DataError at the first of them that ``panel`` lacks.  A range is
    walked in order, so that takes at most ``len(panel.years) + 1`` steps,
    however long the range.
    """
    present = set(panel.years)
    if not (isinstance(selection, range) and selection.step > 0):
        selection = sorted(set(selection))
    for year in selection:
        if year not in present:
            raise DataError(f"year {year} not present in panel")
    return list(selection)


def run_pipeline(config: PipelineConfig) -> ReportBundle:
    """Run the configured analyses over every requested year.

    Returns the in-memory bundle after writing every output file plus the
    manifest to ``config.out_dir``.  Nothing is written before the inputs
    are read and the year selection is checked against them; the write
    (``write_bundle``) is then staged for the selected years, and a run that
    fails after that leaves no trace.  The seconds of each stage go to the
    log at INFO, never into the bundle.
    """
    timer = _StageTimer()
    config.validate()
    panel = load_panel(config.flows, config.gdp)
    years = select_years(panel, config.years)
    names = bundle_names(config.analyses, years)
    with write_bundle(config.out_dir, names.values()) as commit:
        timer.lap("ingest")
        tables, comparison, files, manifest = _analyse(config, panel, years, names, timer)
        note = commit(files, manifest)
    timer.lap("write")
    timer.log({"write": f" ({note})"})
    return ReportBundle(manifest, tables, comparison)


def _analyse(
    config: PipelineConfig,
    panel: PanelDataset,
    years: Sequence[int],
    names: Mapping,
    timer: _StageTimer,
) -> tuple[dict[int, NodeStatsTable], list[dict], dict[str, Callable[[], str]], dict]:
    """The node statistics, the comparison rows, each bundle file's maker (by
    its name from ``names``, in write order) and the manifest of a run."""
    tables: dict[int, NodeStatsTable] = {}
    normalizers: dict[str, float] = {}
    symmetry: dict[int, float] = {}
    # Every table has the registry's codes: statistic j of year i is row
    # stack[i, j], ordered as MOMENT_STATISTICS.
    stack = np.empty((len(years), len(MOMENT_STATISTICS), len(panel.registry)))
    for i, year in enumerate(years):
        directed = build_directed(panel, year, config.scheme)
        timer.lap("build")
        if "symmetry" in config.analyses:
            symmetry[year] = symmetry_index(directed)
            timer.lap("symmetry")
        net = symmetrize(directed)
        timer.lap("symmetrize")
        tables[year] = table = node_stats(net)
        stack[i] = [table.column(name) for name in MOMENT_STATISTICS]
        normalizers[str(year)] = float(net.normalizer)
        timer.lap("node stats")

    def rows(what: str, *statistics: str) -> tuple[np.ndarray, Callable[[int], str]]:
        """The rows of ``statistics``, year-major as ``product(years,
        statistics)``, and the namer of each in the analysis ``what``:
        "moments of nd in year 2000"."""
        def where(i: int) -> str:
            year, at = divmod(i, len(statistics))
            return f"{what} of {statistics[at]} in year {years[year]}"
        at = [MOMENT_STATISTICS.index(name) for name in statistics]
        return stack[:, at].reshape(-1, stack.shape[2]), where

    # Bundle file name -> maker of its text, in write order.
    files: dict[str, Callable[[], str]] = {}
    bandwidths: dict[str, float] = {}
    comparison: list[dict] = []
    undefined = np.isnan(stack[:, 2:]).sum(axis=2).tolist()  # annd, anns, bcc, wcc
    counts = [
        (year, f"{name}_undefined", count)
        for year, row in zip(years, undefined)
        for name, count in zip(MOMENT_STATISTICS[2:], row)
    ]
    timer.lap("node stats")
    if "stats" in config.analyses:
        files.update((names["stats", year], tables[year].to_csv) for year in years)
    if "moments" in config.analyses:
        values, where = rows("moments", *MOMENT_STATISTICS)
        header = "statistic,year,mean,std,skewness,kurtosis,count"
        files[names["moments"]] = partial(
            format_table, header, MOMENT_STATISTICS * len(years),
            np.repeat(years, len(MOMENT_STATISTICS)), *moments(values, where),
        )
        timer.lap("moments")
    if "correlations" in config.analyses:
        series = {pair: correlation_series(tables, pair, config.ci_level) for pair in SUPPORTED_PAIRS}
        for pair, points in series.items():
            files[names["correlations", pair]] = _table(
                "year,pair,r,ci_low,ci_high,n", map(_fields(CorrelationPoint), points)
            )
        comparison = compare_views(series, config.strong_cut, config.moderate_cut)
        timer.lap("correlations")
    if "density" in config.analyses:
        values, where = rows("density", *DENSITY_STATISTICS)
        hs = kde_bandwidths(values, config.bandwidth, where).tolist()
        for (year, name), row, h in zip(product(years, DENSITY_STATISTICS), values, hs):
            est = kde(row, h)
            key = names["density", name, year]
            files[key] = partial(format_table, "grid,density", est.grid, est.density)
            bandwidths[key] = est.bandwidth
            counts.append((year, f"density_{name}_dropped", len(row) - est.n))
        timer.lap("density")
    if "ranksize" in config.analyses:
        values, where = rows("rank-size", HEAVY_TAIL_STATISTIC)
        for year, curve in zip(years, rank_size(values, where)):
            key = names["ranksize", year]
            files[key] = partial(format_table, "rank,size", curve.ranks, curve.sizes)
            counts.append((year, f"ranksize_{HEAVY_TAIL_STATISTIC}_dropped", curve.dropped))
        timer.lap("ranksize")
    if "tailfit" in config.analyses:
        values, where = rows("tail fit", HEAVY_TAIL_STATISTIC)
        fits = []
        for year, fit in zip(years, fit_tail(values, config.tail_fraction, where)):
            fits.append((year, HEAVY_TAIL_STATISTIC, *_fields(TailFit)(fit)))
            counts.append((year, f"tailfit_{HEAVY_TAIL_STATISTIC}_dropped", fit.dropped))
        header = "year,statistic,mu,sigma,alpha,x_min,tail_fraction,n_positive,tail_count,dropped"
        files[names["tailfit"]] = _table(header, fits)
        timer.lap("tailfit")
    if symmetry:
        files[names["symmetry"]] = _table("year,symmetry_index", symmetry.items())
    if comparison:
        files[names["comparison"]] = partial(comparison_csv, comparison)
    files[names["counts"]] = _table("year,name,value", sorted(counts))

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
    return tables, comparison, files, manifest


#: Correlation pairs backing each row of the comparison table.
VIEW_PAIRS = {
    "BNA": {"assortativity": "ND-ANND", "clustering": "BCC-ND"},
    "WNA": {"assortativity": "NS-ANNS", "clustering": "WCC-NS"},
}


def qualitative_label(
    r: float,
    strong_cut: float = PipelineConfig.strong_cut,
    moderate_cut: float = PipelineConfig.moderate_cut,
) -> str:
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
    strong_cut: float = PipelineConfig.strong_cut,
    moderate_cut: float = PipelineConfig.moderate_cut,
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

    Cuts left as None default to those in the bundle's manifest, or to the
    ``PipelineConfig`` defaults without one.  A manifest is rewritten with the new table's
    digest and cuts; without one, only ``comparison.csv`` is written.
    """
    manifest = read_manifest(out_dir)
    labelled = [PipelineConfig.strong_cut, PipelineConfig.moderate_cut]
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
    with write_bundle(out_dir, ["comparison.csv"]) as commit:
        commit({"comparison.csv": partial(comparison_csv, rows)}, manifest)
    return rows
