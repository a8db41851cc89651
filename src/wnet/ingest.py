"""Ingestion of bilateral flow and GDP files into a columnar panel.

Input files are header-labeled CSV (UTF-8, comma-delimited, ``#`` comment
lines and blank lines skipped).  Column order is free but names are fixed:
``year,exporter,importer,value`` for flows and ``year,country,gdp`` for
sizes.  One streaming reader serves both files, a block of lines at a
time, so memory is bounded by one block and no per-row object is kept.  The
csv module reads the header.  Numpy then tokenizes each *plain* block on its
bytes; from the first block that is not plain (a quoted field may span
blocks), the csv module tokenizes row by row.  Either way a block is
converted and checked a column at a time, and the first bad row, CSV error
or non-UTF-8 line raises DataError with its line number.  The panel's
registry is the sorted set of codes, so node indexing never depends on row
order.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count, islice
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

FLOW_COLUMNS = ("year", "exporter", "importer", "value")
SIZE_COLUMNS = ("year", "country", "gdp")

#: Lines or rows converted and checked together; memory stays bounded by one block.
_BLOCK = 1 << 14
_SURROGATE = re.compile(r"[\ud800-\udfff]")  # what undecodable bytes turn into
#: Byte kinds: 0 in a cell, 1 comma, 2 newline, 3 not in a plain block.
_KIND = np.array([3 * (b < 32 or b > 127 or b in b'"#') for b in range(256)], np.uint8)
_KIND[[ord("\t"), ord(","), ord("\n")]] = 0, 1, 2
_WIDE = 64  # widest cell of a plain block, whose gather holds rows × width bytes
_LOW = np.array([(1 << 8 * w) - 1 for w in range(9)], np.uint64)  # the low w bytes


@dataclass(frozen=True)
class CountryRegistry:
    """Sorted, deduplicated country identifiers with stable 0..N-1 positions."""

    codes: tuple[str, ...]

    @classmethod
    def from_codes(cls, codes: Iterable[str]) -> "CountryRegistry":
        return cls(tuple(sorted(set(codes))))

    @cached_property
    def index(self) -> dict[str, int]:
        return {code: i for i, code in enumerate(self.codes)}

    def position(self, code: str) -> int:
        try:
            return self.index[code]
        except KeyError:
            raise DataError(f"unknown country {code!r}") from None

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, code: str) -> bool:
        return code in self.index


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Flow columns and a GDP matrix over one registry.

    Flows are sorted by (year, exporter, importer), with exporter and
    importer as registry positions; zero-valued flows are kept.  ``gdp`` has
    one row per entry of ``years``, NaN where a country has no GDP record.
    ``missing_gdp`` flags (year, exporter) pairs where a positive flow exists
    but no same-year GDP record does.  The gap is only fatal at network-build
    time, and only under a weighting scheme that divides by that GDP.
    """

    registry: CountryRegistry
    years: tuple[int, ...]
    flow_year: np.ndarray
    exporter: np.ndarray
    importer: np.ndarray
    value: np.ndarray
    gdp: np.ndarray
    missing_gdp: tuple[tuple[int, str], ...] = ()


def _line_blocks(source: str | Path | bytes | IO) -> Iterator[list[str]]:
    """The text lines of a path, raw bytes or open stream, a block at a time;
    a line that is not UTF-8 is named once the reader reaches it."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            yield from _line_blocks(fh)
        return
    stream = iter(io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source)
    lineno = 0
    while block := list(islice(stream, _BLOCK)):
        if isinstance(block[0], bytes):
            block = [line.decode("utf-8", "surrogateescape") for line in block]
        good = len(block)
        if not all(map(str.isascii, block)):
            good = next((at for at, line in enumerate(block) if _SURROGATE.search(line)), good)
        yield block[:good]
        if good < len(block):
            raise DataError(f"line {lineno + good + 1}: not valid UTF-8")
        lineno += good


def _blanked(lines: Iterable[str]) -> Iterator[str]:
    """Comment and blank lines come out empty: the CSV reader skips but counts them."""
    return (ln if (head := ln.lstrip()[:1]) and head != "#" else "" for ln in lines)


#: Defects particular to one file, in check order: (test, message) of value v
#: and codes c; a test takes one row's float and codes or a block's arrays.
_FLOW_RULES = (
    (lambda v, c: v < 0, lambda v, c: f"negative flow value {v!r}"),
    (lambda v, c: c[0] == c[1], lambda v, c: f"self-flow for {c[0]!r}"),
)
_SIZE_RULES = ((lambda v, c: v <= 0, lambda v, c: f"nonpositive GDP {v!r} for {c[0]!r}"),)


def _row_problem(fields: list[str], columns: tuple[str, ...], at: list[int], rules) -> str | None:
    """The first defect of one row, or None."""
    if len(fields) != len(columns):
        return f"expected {len(columns)} fields, got {len(fields)}"
    at_year, *at_codes, at_value = at
    try:
        year = int(fields[at_year])
    except ValueError:
        year = None
    if year is None or not -(2**63) <= year < 2**63:
        return f"bad year {fields[at_year].strip()!r}"
    codes = [fields[i].strip() for i in at_codes]
    if not all(codes):
        return "empty country identifier"
    try:
        value = float(fields[at_value])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        return f"bad {columns[-1]} {fields[at_value].strip()!r}"
    return next((message(value, codes) for test, message in rules if test(value, codes)), None)


def _distinct(cells: list[str] | np.ndarray) -> tuple[list[str], np.ndarray]:
    """A column's distinct cells and each cell's index into them: str cells in
    order of first appearance, fixed-width bytes cells sorted and decoded."""
    if isinstance(cells, np.ndarray):
        distinct, index = np.unique(cells, return_inverse=True)
        return [cell.decode() for cell in distinct.view(f"S{cells.itemsize}").tolist()], index
    known = dict(zip(dict.fromkeys(cells), count()))
    return list(known), np.fromiter(map(known.__getitem__, cells), np.int64, len(cells))


def _checked_block(years, codes, values, line, fields, columns, at, ids, rules) -> tuple:
    """Typed columns from a block's year, code and value cells, each year and
    code parsed once.  Rows that column masks flag are checked again in file
    order (``fields(row)``: a row's cells), so the first defect raises."""

    def code_id(raw: str) -> int:
        return ids.setdefault(code, len(ids)) if (code := raw.strip()) else -1

    codes = [np.array(list(map(code_id, c)), np.int64)[i] for c, i in map(_distinct, codes)]
    try:
        distinct, index = _distinct(years)
        year = np.array(list(map(int, distinct)), np.int64)[index]
        value = np.fromiter(map(float, values), np.float64, len(line))
    except (ValueError, OverflowError):  # a bad year or value: check every row
        year, value = np.zeros(len(line), np.int64), np.full(len(line), math.nan)
    suspect = np.logical_or.reduce([c < 0 for c in codes]) | ~np.isfinite(value)
    for test, _ in rules:
        suspect |= test(value, codes)
    for row in np.flatnonzero(suspect).tolist():
        if defect := _row_problem(fields(row), columns, at, rules):
            raise DataError(f"line {line[row]}: {defect}")
    return year, np.stack(codes, axis=1), value, line


def _csv_blocks(lines: Iterable[str], first: int, columns, at, ids, rules) -> list[tuple]:
    """Columns of ``lines``, numbered from ``first``, tokenized by the csv module
    a block of rows at a time; all rows are checked if one has the wrong width."""
    k, parts, rows = len(columns), [], csv.reader(_blanked(lines))
    try:
        while not parts or len(widths) == _BLOCK:
            flat, widths, line = [], [], []
            try:
                for fields in islice(rows, _BLOCK):
                    flat += fields
                    widths.append(len(fields))
                    line.append(rows.line_num + first - 1)
            finally:  # a bad row before a CSV or UTF-8 error is reported first
                if not set(widths) <= {0, k}:
                    for end, width, n in zip(accumulate(widths), widths, line):
                        defect = width and _row_problem(flat[end - width : end], columns, at, rules)
                        if defect:
                            raise DataError(f"line {n}: {defect}")
                years, *codes, values = (flat[i::k] for i in at)
                parts.append(_checked_block(
                    years, codes, values, np.array(line, np.int64)[np.flatnonzero(widths)],
                    lambda row: flat[row * k : row * k + k], columns, at, ids, rules,
                ))
    except csv.Error as exc:
        raise DataError(f"line {rows.line_num + first - 1}: {exc}") from None
    return parts


def _plain_cells(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """``buf[start:end]`` for each pair, NUL-padded to one width; 8-byte cells
    as little-endian uint64 (``buf`` ends with ``_WIDE`` NULs)."""
    width = end - start
    w = max(8, int(width.max(initial=0)))
    cells = np.ndarray(len(buf) - w + 1, f"S{w}", buf, strides=(1,))[start]
    if w == 8:
        return cells.view("<u8") & _LOW[width]
    cells.view(np.uint8).reshape(-1, w)[np.arange(w) >= width[:, None]] = 0
    return cells


def _plain_block(lines: list[str], first: int, columns, at, ids, rules) -> tuple | None:
    """Columns of ``lines``, numbered from ``first``, or None if not plain.
    Plain lines hold k - 1 commas, end at their only newline, and have no
    non-ASCII byte, ``"``, ``#``, other control byte than tab, or cell wider
    than ``_WIDE``: csv would split them at their commas and nothing else."""
    if lines and not lines[-1].endswith("\n"):  # the last line of a file
        lines = [*lines[:-1], lines[-1] + "\n"]
    data, k = "".join(lines).encode("utf-8", "surrogateescape"), len(columns)
    buf = np.frombuffer(data + bytes(_WIDE), np.uint8)  # NULs that _plain_cells may read
    kind = _KIND.take(buf[:-_WIDE])
    sep = np.flatnonzero(kind.astype(bool))
    if len(sep) != k * len(lines):
        return None
    end, start = sep.reshape(-1, k), (sep + 1 - np.diff(sep, prepend=-1)).reshape(-1, k)
    length = np.fromiter(map(len, lines), np.int64, len(lines))
    if ((kind[end] != [1] * (k - 1) + [2]).any() or (end - start).max(initial=0) > _WIDE
            or not np.array_equal(end[:, -1] + 1, length.cumsum())):
        return None
    years, *codes, values = (_plain_cells(buf, start[:, i], end[:, i]) for i in at)
    return _checked_block(
        years, codes, values.view(f"S{values.itemsize}").tolist(), np.arange(len(lines)) + first,
        lambda row: lines[row].rstrip("\n").split(","), columns, at, ids, rules,
    )


def _read_table(
    source: str | Path | bytes | IO, columns: tuple[str, ...], ids: dict[str, int], rules
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read one file into (year, country ids, value, line number) columns:
    ``columns`` lists the year, the country-code columns and the value,
    ``rules`` the file's own defects, and codes get ids from ``ids``."""
    blocks, pulled = _line_blocks(source), []  # pulled: the blocks the header is read from
    rows = csv.reader(_blanked(chain.from_iterable(pulled.append(b) or b for b in blocks)))
    try:
        header = next((fields for fields in rows if fields), None)
    except csv.Error as exc:
        raise DataError(f"line {rows.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{'flow' if columns == FLOW_COLUMNS else 'size'} input is empty")
    names = [f.strip().lower() for f in header]
    if sorted(names) != sorted(columns):
        raise DataError(
            f"line {rows.line_num}: header must name exactly {','.join(columns)}; "
            f"got {','.join(names)}"
        )
    spec = (columns, [names.index(c) for c in columns], ids, rules)
    done, parts = rows.line_num, []
    for block in chain([pulled[-1][done - sum(map(len, pulled[:-1])) :]], blocks):
        if (part := _plain_block(block, done + 1, *spec)) is None:
            parts += _csv_blocks(chain(block, chain.from_iterable(blocks)), done + 1, *spec)
            break
        parts.append(part)
        done += len(block)
    return tuple(map(np.concatenate, zip(*parts)))


def _key_order(
    what: str, codes: tuple[str, ...], line: np.ndarray, year: np.ndarray, *countries: np.ndarray
) -> np.ndarray:
    """Stable order sorting rows by (year, *countries); reject duplicate keys.

    The one duplicate check of the ingest: it reports the later row of the
    first duplicate pair in file order.
    """
    order = np.lexsort((*reversed(countries), year))
    keys = [col[order] for col in (year, *countries)]
    same = np.logical_and.reduce([k[1:] == k[:-1] for k in keys])
    if same.any():
        row = int(order[1:][same].min())
        key = (int(year[row]), *(codes[c[row]] for c in countries))
        raise DataError(f"line {line[row]}: duplicate {what} {key}")
    return order


def load_panel(
    flows: str | Path | bytes | IO, sizes: str | Path | bytes | IO | None = None
) -> PanelDataset:
    """Read a flow file and an optional size file into a panel.

    Each source is a path, raw bytes, or an open text or binary stream.  The
    registry and ``years`` are the sorted unions over both files.
    """
    start = time.perf_counter()
    ids: dict[str, int] = {}
    f_year, f_ids, f_value, f_line = _read_table(flows, FLOW_COLUMNS, ids, _FLOW_RULES)
    sizes = ",".join(SIZE_COLUMNS).encode() if sizes is None else sizes
    s_year, s_ids, s_value, s_line = _read_table(sizes, SIZE_COLUMNS, ids, _SIZE_RULES)
    if not len(f_line):
        raise DataError("no flow records")

    registry = CountryRegistry.from_codes(ids)
    position = np.array([registry.index[code] for code in ids], dtype=np.int64)
    exporter, importer = position[f_ids].T
    country = position[s_ids[:, 0]]
    order = _key_order("flow", registry.codes, f_line, f_year, exporter, importer)
    _key_order("size record", registry.codes, s_line, s_year, country)
    flow_year, value = f_year[order], f_value[order]
    exporter, importer = exporter[order], importer[order]

    all_years = np.unique(np.concatenate([f_year, s_year]))
    gdp = np.full((len(all_years), len(registry)), np.nan)
    gdp[np.searchsorted(all_years, s_year), country] = s_value
    year_index = np.searchsorted(all_years, flow_year)
    gap = (value > 0) & np.isnan(gdp[year_index, exporter])
    missing = np.unique(np.stack([year_index[gap], exporter[gap]], axis=1), axis=0)
    if len(missing):
        logger.warning(
            "%d exporter-year pairs lack a GDP record (fatal only under GDP-dividing schemes)",
            len(missing),
        )
    years = tuple(all_years.tolist())
    missing_gdp = tuple((years[t], registry.codes[c]) for t, c in missing.tolist())
    logger.info(
        "read %d flow rows and %d GDP rows: %d countries, %d years, %.3f s",
        len(f_line), len(s_line), len(registry), len(years), time.perf_counter() - start,
    )
    return PanelDataset(registry, years, flow_year, exporter, importer, value, gdp, missing_gdp)


def save_panel(panel: PanelDataset, flows_path: str | Path, sizes_path: str | Path) -> None:
    """Write a panel back to canonical flow/size CSV files (round-trip exact)."""
    codes = np.array(panel.registry.codes, dtype=object)
    t, c = np.nonzero(~np.isnan(panel.gdp))
    flows = (panel.flow_year, codes[panel.exporter], codes[panel.importer], panel.value)
    sizes = (np.array(panel.years, dtype=np.int64)[t], codes[c], panel.gdp[t, c])
    for path, names, table in (flows_path, FLOW_COLUMNS, flows), (sizes_path, SIZE_COLUMNS, sizes):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(names) + "\n")
            rows = zip(*(column.tolist() for column in table))
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
