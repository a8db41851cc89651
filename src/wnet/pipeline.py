"""End-to-end pipeline: ingest -> build -> stats -> analyses -> bundle.

``write_bundle`` is the only writer into an output directory and of
``manifest.json``; ``read_bundle`` is the one reader of bundle files, and
parses a file only once its bytes match the manifest's digest.  ``LAYOUT``
spells each file kind's header once, for the writers and the reader.
``relabel`` rewrites a bundle's comparison table.

A run is deterministic: identical inputs and config produce byte-identical
output files.  No timestamps are written; the manifest carries the config
echo (minus the output directory, which has no effect on data), the
per-year normalizers, and a sha256 digest of every emitted file.
The analyses are row reductions: the six node statistics of every year are
stacked once into one (years × statistics × countries) array, and each
analysis takes its rows of it in one call, which returns its table's columns
keyed by ``LAYOUT``'s header names.  That is the one in-memory form of every
bundle table: ``run_pipeline`` returns each file's columns, keyed as
``bundle_names`` keys the file, with the manifest, the pair that
``read_bundle`` reads back, and every file's text is made from its columns
by one rule (``_makers``): the columns in its kind's ``LAYOUT`` header order,
through ``format_table``.
Nothing is written until the inputs have been read and every selected year
found in them.  Every command then writes in one lifecycle,
``with write_bundle(out_dir, names) as commit``.  Entering makes the output
directory and a ``.wnet-*`` staging directory in it, and, for two or more
files, forks a child that creates them there, empty, while the command
computes: creating a file is costly on virtualised and network filesystems,
and filling one that exists is not.  ``commit`` makes each file's text only
as it writes the file there, every file in this process, hashes the bytes
it writes, renames the files into place, the manifest last, and then deletes
the files that only the previous manifest listed.  It does not wait for the
creating child: both processes open a staged file by one rule, create it or
open it and never truncate, so whichever opens it first creates it, and the
child is stopped once every file is made.  Nothing staged needs truncating,
since the staging directory is new and the child writes no byte; and
truncating costs, since ext4 (``auto_da_alloc``) flushes a file truncated
and rewritten to disk when it is closed.
Leaving, however it happens, stops and reaps the child if it is still there
and removes the staging directory, and the directories it made while they
are empty.  So a run that fails leaves no partial bundle, and the previous
bundle as it was.
The child only speeds the write up: its exit status is not read, and a child
that fails or cannot be forked costs time but does not fail the run.  Every
byte and every digest comes from this process, so the output does not depend
on the child.  (It is forked from a process that may hold BLAS threads, so
it runs no BLAS; Python 3.12 and later warn at each fork of a process with
threads.)
``verify_bundle`` re-hashes a bundle against its manifest without writing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
import shutil
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import partial
from itertools import product, takewhile
from pathlib import Path
from typing import Callable, Collection, Iterator, Mapping, Sequence

import numpy as np

from ._version import __version__
from .distributions import SUPPORTED_PAIRS, check_bandwidth, correlation_series
from .errors import DataError, ValidationError
from .graph import WeightScheme, build_directed, symmetrize, symmetry_index
from .ingest import PanelDataset, format_table, load_panel
from .stats import node_stats

# The row functions under the names ``moments``, ``kde``, ``rank_size`` and
# ``fit_tail``, only because perfbench/spans.py times each analysis by the
# name it is called by here.  Each takes the stack of every row and returns
# its table's columns.  The aliases go when the span targets are renamed
# (ROADMAP item 2).
from .distributions import fit_tail_rows as fit_tail
from .distributions import kde_rows as kde
from .distributions import rank_size_rows as rank_size
from .stats import moments_rows as moments

logger = logging.getLogger(__name__)

MANIFEST = "manifest.json"
#: The analyses of a run by default.
ANALYSES = ("stats", "moments", "correlations", "density", "ranksize", "tailfit", "symmetry")
#: Every analysis a run may select: the defaults and ``links``, each year's
#: link weights, which ``build`` writes.
SELECTABLE = (*ANALYSES, "links")
MOMENT_STATISTICS = ("nd", "ns", "annd", "anns", "bcc", "wcc")
DENSITY_STATISTICS = ("nd", "ns")
HEAVY_TAIL_STATISTIC = "ns"

#: Each bundle file kind, keyed as ``bundle_names`` keys its files: the header
#: and the type of each column, one letter a column: ``U`` a label, ``i`` an
#: integer, ``f`` a float, NaN where the cell is empty.
LAYOUT = {
    "stats": ("country,nd,ns,annd,anns,bcc,wcc", "Uifffff"),
    "links": ("country_i,country_j,weight", "UUf"),
    "moments": ("statistic,year,mean,std,skewness,kurtosis,count", "Uiffffi"),
    "correlations": ("year,pair,r,ci_low,ci_high,n", "iUfffi"),
    "density": ("grid,density", "ff"),
    "ranksize": ("rank,size", "if"),
    "tailfit": ("year,statistic,mu,sigma,alpha,x_min,tail_fraction,n_positive,tail_count,dropped",
                "iUfffffiii"),
    "symmetry": ("year,symmetry_index", "if"),
    "comparison": ("view,assortativity_pair,assortativity_r,assortativity_label,"
                   "clustering_pair,clustering_r,clustering_label", "UUfUUfU"),
    "counts": ("year,name,value", "iUi"),
}


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
        unknown = self.analyses - set(SELECTABLE)
        if unknown:
            raise ValidationError(
                f"unknown analyses: {', '.join(sorted(unknown))} "
                f"(choices: {', '.join(SELECTABLE)})"
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
        if self.bandwidth is not None:
            check_bandwidth(self.bandwidth)
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


@contextmanager
def _manifest_context(path: Path):
    """Re-raise what a malformed manifest trips over as DataError, including
    JSON nested too deeply to decode (RecursionError) and a cut too large for a
    float (OverflowError)."""
    try:
        yield
    except (ValueError, LookupError, TypeError, OverflowError, RecursionError) as exc:
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


def _check_listed(path: Path, digest: str) -> tuple[str, bytes | None]:
    """How ``path`` stands against its ``digest`` in a manifest: ``"intact"``
    with its bytes, or ``"changed"`` or ``"missing"`` (not a file) with None.
    The one digest check, which ``verify_bundle`` and ``read_bundle`` share."""
    if not path.is_file():
        return "missing", None
    data = path.read_bytes()
    return ("intact", data) if hashlib.sha256(data).hexdigest() == digest else ("changed", None)


_CELLS = {"U": str, "i": np.int64, "f": lambda cell: float(cell) if cell else math.nan}
_DTYPES = {"U": object, "i": np.int64, "f": np.float64}


def read_bundle(out_dir: Path, names: Mapping) -> tuple[dict | None, dict]:
    """``out_dir``'s manifest (None if it has none) and the columns of the
    files that ``names``, a part of ``bundle_names``, names, keyed as it keys
    them.

    Each file is read once, and its bytes are parsed only once they match
    the manifest's digest (``_check_listed``, as ``verify_bundle`` checks);
    without a manifest there is no digest to check.  A named file that is
    absent and unlisted is left out.  Each file is parsed by one rule, its
    kind's ``LAYOUT``: the header exactly as written, then one cell a column
    on every line.  A column is a numpy array of the layout's type, never
    guessed from the cells (a label stays a ``str``, even ``123`` or
    ``nan``), keyed by its header name.  Raises DataError, naming the file,
    if a listed file is missing or changed, an unlisted one is there, or a
    file does not parse.
    """
    manifest = read_manifest(out_dir)
    listed = manifest["files"] if manifest is not None else {}
    columns = {}
    for key, name in names.items():
        path = out_dir / name
        if name in listed:
            state, data = _check_listed(path, listed[name])
        elif not path.exists():
            continue
        elif manifest is not None:
            state, data = "not listed", None
        else:
            data = path.read_bytes()
        if data is None:
            raise DataError(f"{path} does not match {MANIFEST}: it is {state}")
        columns[key] = _parse(path, data, _kind(key))
    return manifest, columns


def _kind(key) -> str:
    """The ``LAYOUT`` kind of the file that a ``bundle_names`` key names."""
    return key[0] if isinstance(key, tuple) else key


def _columns(kind: str, *columns: Sequence) -> dict[str, np.ndarray]:
    """The table of ``columns``, given in ``LAYOUT[kind]``'s header order:
    each an array of its layout type, keyed by its header name."""
    header, types = LAYOUT[kind]
    heads = header.split(",")
    return {h: np.asarray(c, _DTYPES[t]) for h, c, t in zip(heads, columns, types, strict=True)}


def _parse(path: Path, data: bytes, kind: str) -> dict[str, np.ndarray]:
    """The columns of ``data``, the bytes of ``path``, a file of ``LAYOUT[kind]``."""
    header, types = LAYOUT[kind]
    heads, cells = header.split(","), [[] for _ in types]
    # Lossless: a byte that is not UTF-8 stays in its label cell, or fails its number cell.
    rows = csv.reader(io.StringIO(data.decode("utf-8", "surrogateescape"), newline=""))
    try:
        if next(rows, None) != heads:
            raise DataError(f"{path}, line 1: the header must be {header}")
        for row in rows:
            if len(row) != len(heads):
                raise ValueError(f"{len(row)} cells, not {len(heads)}")
            for column, type_, cell in zip(cells, types, row):
                column.append(_CELLS[type_](cell))
    except (ValueError, OverflowError, csv.Error) as exc:
        what = kind.removesuffix("s")  # "bad correlation row"
        raise DataError(f"{path}, line {rows.line_num}: bad {what} row: {exc}") from None
    return _columns(kind, *cells)


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
        found[_check_listed(out_dir / name, digest)[0]].append(name)
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


def _open_staged(path: Path) -> int:
    """A descriptor to write the staged file ``path``, which is created if it
    is absent and never truncated: the one way either writer process opens
    a staged file."""
    return os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)


def _write_staged(path: Path, data: bytes) -> None:
    """Write all of ``data`` to the staged file ``path``, which is empty or absent."""
    with open(_open_staged(path), "wb") as fh:
        fh.write(data)


@contextmanager
def write_bundle(
    out_dir: Path, names: Collection[str]
) -> Iterator[Callable[[Mapping[str, Callable[[], str]], dict | None], str]]:
    """The one write of a bundle into ``out_dir``, from staging to cleanup.

    On entry it makes ``out_dir`` (with any missing directory above it) and a
    ``.wnet-*`` staging directory inside it.  Given two or more ``names``, the
    files to come, it also forks a child that creates each of them there,
    empty, while the caller computes, where ``os.fork`` exists and two or
    more CPUs are usable.  The child's exit status is not read.

    It yields ``commit(files, manifest)``, which commits ``files``, each
    name's text made by its zero-argument maker.  It does not wait for the
    creating child: it makes and writes every file in this process, each
    write creating its file if the child has not.  Both processes open a
    staged file by ``_open_staged``'s one rule, create it or open it and
    never truncate, so whichever opens a file first creates it.  No staged
    file needs truncating, since the staging directory is new and the child
    writes nothing, and on ext4 a truncated file is flushed to disk when it
    is closed.  Each file's digest is the sha256 of the bytes written, so no
    staged file is read back.  Once every file is made, the creating child
    is stopped (SIGKILL) and reaped.  Unless ``manifest`` is None, the
    digests are added to ``manifest["files"]`` and it is written as
    ``manifest.json``.  Only then are the files renamed into place,
    ``manifest.json`` last, and the files that the previous manifest listed
    and the new one does not are deleted.  ``commit`` returns the note of
    the write's stage line: the file count and the seconds spent in the
    makers.

    On exit, however it happens, the child is stopped and reaped if it is
    still there, then the staging directory is removed, and the directories
    made on entry, deepest first, each only while it is empty.
    """
    # The directories made here, from out_dir up, so deepest first.
    made = list(takewhile(lambda path: not path.exists(), (out_dir, *out_dir.parents)))
    staging = None
    child: int | None = None  # the creating child, until it is reaped

    def create() -> None:
        for name in names:
            os.close(_open_staged(staging / name))

    def stop() -> None:
        """Kill (SIGKILL) and reap the creating child if it is there."""
        nonlocal child
        if child:
            os.kill(child, _SIGKILL)
            os.waitpid(child, 0)
            child = None

    def commit(files: Mapping[str, Callable[[], str]], manifest: dict | None) -> str:
        texts = 0.0
        digests = {}
        for name, maker in files.items():
            start = time.perf_counter()
            text = maker()
            texts += time.perf_counter() - start
            data = text.encode("utf-8")
            _write_staged(staging / name, data)
            digests[name] = hashlib.sha256(data).hexdigest()
        stop()  # the creating child: every file is made without it
        if manifest is not None:
            previous = _listed_files(out_dir)
            manifest["files"] = {**manifest.get("files", {}), **digests}
            text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            _write_staged(staging / MANIFEST, text.encode("utf-8"))
        for name in files:
            os.replace(staging / name, out_dir / name)
        if manifest is not None:
            os.replace(staging / MANIFEST, out_dir / MANIFEST)
            stale = sorted(previous - set(manifest["files"]))
            for name in stale:
                if (out_dir / name).is_file():
                    (out_dir / name).unlink()
            if stale:
                logger.info("removed %d files that only the previous manifest listed", len(stale))
        logger.info("wrote %d files to %s", len(files) + (manifest is not None), out_dir)
        return f"{len(files)} files; texts {texts:.2f} s"

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".wnet-", dir=out_dir))
        if len(names) >= 2 and hasattr(os, "fork") and _usable_cpus() >= 2:
            with suppress(OSError):  # no process to spare: the commit creates every file
                child = os.fork()
            if child == 0:
                try:
                    create()
                finally:
                    os._exit(0)
        yield commit
    finally:
        stop()
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        with suppress(OSError):  # not empty: the write went through
            for path in made:
                path.rmdir()


def bundle_names(analyses: Collection[str], years: Sequence[int]) -> dict:
    """The names of the files a run of ``analyses`` over ``years`` writes, in write order.

    Each name is keyed by what its file holds: ``("stats", year)``,
    ``("links", year)``, ``"moments"``, ``("correlations", pair)``,
    ``("density", statistic, year)``, ``("ranksize", year)``, ``"tailfit"``,
    ``"symmetry"``, ``"comparison"`` or ``"counts"``.  ``run_pipeline`` takes every name
    from here, both to stage the files and to make them.
    """
    names: dict = {}
    if "stats" in analyses:
        names.update({("stats", year): f"stats_{year}.csv" for year in years})
    if "links" in analyses:
        names.update({("links", year): f"links_{year}.csv" for year in years})
    if "moments" in analyses:
        names["moments"] = "moments.csv"
    if "correlations" in analyses:
        names.update({
            ("correlations", pair): f"correlation_{pair.lower().replace('-', '_')}.csv"
            for pair in SUPPORTED_PAIRS
        })
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


def _makers(names: Mapping, tables: Mapping) -> dict[str, Callable[[], str]]:
    """The maker of each table's file text, keyed by the file's name from
    ``names``, in ``tables``' order.  Every bundle file is made by this one
    rule: its table's columns in its kind's ``LAYOUT`` header order,
    through ``format_table``."""
    makers = {}
    for key, columns in tables.items():
        header = LAYOUT[_kind(key)][0]
        makers[names[key]] = partial(format_table, header, *(columns[h] for h in header.split(",")))
    return makers


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


def run_pipeline(config: PipelineConfig) -> tuple[dict, dict]:
    """Run the configured analyses over every requested year.

    Writes every output file plus the manifest to ``config.out_dir``, and
    returns the manifest and each file's table, its columns keyed as
    ``bundle_names`` keys the file: the pair that ``read_bundle`` reads back
    from the bundle.  Nothing is written before the inputs are read and the
    year selection is checked against them; the write (``write_bundle``) is
    then staged for the selected years, and a run that fails after that
    leaves no trace.  The seconds of each stage go to the log at INFO, never
    into the bundle.
    """
    timer = _StageTimer()
    config.validate()
    panel = load_panel(config.flows, config.gdp)
    years = select_years(panel, config.years)
    names = bundle_names(config.analyses, years)
    with write_bundle(config.out_dir, names.values()) as commit:
        timer.lap("ingest")
        tables, manifest = _analyse(config, panel, years, names, timer)
        note = commit(_makers(names, tables), manifest)
    timer.lap("write")
    timer.log({"write": f" ({note})"})
    return manifest, tables


def _analyse(
    config: PipelineConfig,
    panel: PanelDataset,
    years: Sequence[int],
    names: Mapping,
    timer: _StageTimer,
) -> tuple[dict, dict]:
    """Each bundle file's table, keyed and ordered as ``names`` keys the
    files, and the manifest of a run."""
    tables: dict = {}
    stats: dict[int, dict[str, np.ndarray]] = {}
    normalizers: dict[str, float] = {}
    symmetry: list[float] = []
    codes = np.array(panel.codes, dtype=object)
    # Every year has the panel's codes: statistic j of year i is row
    # stack[i, j], ordered as MOMENT_STATISTICS.
    stack = np.empty((len(years), len(MOMENT_STATISTICS), len(panel.codes)))
    for i, year in enumerate(years):
        directed = build_directed(panel, year, config.scheme)
        timer.lap("build")
        if "symmetry" in config.analyses:
            symmetry.append(symmetry_index(directed))
            timer.lap("symmetry")
        net = symmetrize(directed)
        timer.lap("symmetrize")
        if "links" in config.analyses:
            # The linked pairs i < j in code order, whatever their weight.
            linked = np.nonzero(np.triu(net.adjacency, 1))
            tables["links", year] = _columns(
                "links", codes[linked[0]], codes[linked[1]], net.weights[linked]
            )
            timer.lap("links")
        stats[year] = columns = node_stats(net)
        stack[i] = [columns[name] for name in MOMENT_STATISTICS]
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

    bandwidths: dict[str, float] = {}
    undefined = np.isnan(stack[:, 2:]).sum(axis=2).tolist()  # annd, anns, bcc, wcc
    counts = [
        (year, f"{name}_undefined", count)
        for year, row in zip(years, undefined)
        for name, count in zip(MOMENT_STATISTICS[2:], row)
    ]
    timer.lap("node stats")
    if "stats" in config.analyses:
        tables.update((("stats", year), stats[year]) for year in years)
    if "moments" in config.analyses:
        values, where = rows("moments", *MOMENT_STATISTICS)
        tables["moments"] = _columns(
            "moments", MOMENT_STATISTICS * len(years), np.repeat(years, len(MOMENT_STATISTICS)),
            *moments(values, where).values(),
        )
        timer.lap("moments")
    if "correlations" in config.analyses:
        series = {pair: correlation_series(stats, pair, config.ci_level) for pair in SUPPORTED_PAIRS}
        tables.update((("correlations", pair), columns) for pair, columns in series.items())
        tables["comparison"] = compare_views(series, config.strong_cut, config.moderate_cut)
        timer.lap("correlations")
    if "density" in config.analyses:
        values, where = rows("density", *DENSITY_STATISTICS)
        density = kde(values, config.bandwidth, where)
        for (year, name), grid, d, h, n in zip(
            product(years, DENSITY_STATISTICS), density["grid"], density["density"],
            density["bandwidth"].tolist(), density["count"].tolist(),
        ):
            tables["density", name, year] = _columns("density", grid, d)
            bandwidths[names["density", name, year]] = h
            counts.append((year, f"density_{name}_dropped", values.shape[1] - n))
        timer.lap("density")
    if "ranksize" in config.analyses:
        values, where = rows("rank-size", HEAVY_TAIL_STATISTIC)
        curves = rank_size(values, where)
        for year, size, dropped in zip(years, curves["size"], curves["dropped"].tolist()):
            tables["ranksize", year] = _columns("ranksize", np.arange(1, size.size + 1), size)
            counts.append((year, f"ranksize_{HEAVY_TAIL_STATISTIC}_dropped", dropped))
        timer.lap("ranksize")
    if "tailfit" in config.analyses:
        values, where = rows("tail fit", HEAVY_TAIL_STATISTIC)
        fits = fit_tail(values, config.tail_fraction, where)
        counts.extend(
            (year, f"tailfit_{HEAVY_TAIL_STATISTIC}_dropped", dropped)
            for year, dropped in zip(years, fits["dropped"].tolist())
        )
        tables["tailfit"] = _columns(
            "tailfit", years, (HEAVY_TAIL_STATISTIC,) * len(years), *fits.values()
        )
        timer.lap("tailfit")
    if "symmetry" in config.analyses:
        tables["symmetry"] = _columns("symmetry", years, symmetry)
    tables["counts"] = _columns("counts", *zip(*sorted(counts)))

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
    return {key: tables[key] for key in names}, manifest


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
    series: Mapping[str, Mapping[str, Sequence]],
    strong_cut: float = PipelineConfig.strong_cut,
    moderate_cut: float = PipelineConfig.moderate_cut,
) -> dict[str, np.ndarray]:
    """The binary-vs-weighted comparison table's columns, one row a view.

    ``series`` maps a pair to its correlation table's columns, as
    ``correlation_series`` returns them and ``read_bundle`` reads them back.
    Each row reports the period-mean assortativity and clustering
    correlations of one view with qualitative labels.  Raises DataError if
    a required series is missing or empty, or has an r that is not in
    [-1, 1] (NaN and infinities included), which no label would fit.
    """
    cells: dict[str, list] = {head: [] for head in LAYOUT["comparison"][0].split(",")}
    for view, pairs in VIEW_PAIRS.items():
        cells["view"].append(view)
        for role, pair in pairs.items():
            columns = series.get(pair)
            if columns is None or not len(columns["r"]):
                raise DataError(f"bundle is missing the {pair} correlation series")
            rs = np.asarray(columns["r"], dtype=float).tolist()
            for year, r in zip(np.asarray(columns["year"]).tolist(), rs):
                if not -1 <= r <= 1:
                    raise DataError(
                        f"the {pair} correlation of year {year} is {r!r}, not in [-1, 1]"
                    )
            mean_r = float(np.mean(rs))
            cells[f"{role}_pair"].append(pair)
            cells[f"{role}_r"].append(mean_r)
            cells[f"{role}_label"].append(qualitative_label(mean_r, strong_cut, moderate_cut))
    return _columns("comparison", *cells.values())


def relabel(
    out_dir: Path, strong_cut: float | None = None, moderate_cut: float | None = None
) -> dict[str, np.ndarray]:
    """Rewrite ``out_dir``'s comparison table from its correlation series, and
    return the table's columns.

    Only the four series the table uses are read, through ``read_bundle``, so
    each is checked against the manifest first.  Cuts left as None default to
    those in the bundle's manifest, or to the ``PipelineConfig`` defaults
    without one.  A manifest is rewritten with the new table's digest and
    cuts; without one, only ``comparison.csv`` is written.
    """
    names = bundle_names(("correlations",), ())
    keys = [("correlations", pair) for roles in VIEW_PAIRS.values() for pair in roles.values()]
    manifest, files = read_bundle(out_dir, {key: names[key] for key in keys})
    labelled = [PipelineConfig.strong_cut, PipelineConfig.moderate_cut]
    if manifest is not None:
        with _manifest_context(out_dir / MANIFEST):
            labelled = [float(manifest["config"][k]) for k in ("strong_cut", "moderate_cut")]
    strong_cut = labelled[0] if strong_cut is None else strong_cut
    moderate_cut = labelled[1] if moderate_cut is None else moderate_cut
    _check_cuts(strong_cut, moderate_cut)
    comparison = compare_views({pair: columns for (_, pair), columns in files.items()},
                               strong_cut, moderate_cut)
    if manifest is not None:
        manifest["config"].update(strong_cut=strong_cut, moderate_cut=moderate_cut)
    with write_bundle(out_dir, [names["comparison"]]) as commit:
        commit(_makers(names, {"comparison": comparison}), manifest)
    return comparison
