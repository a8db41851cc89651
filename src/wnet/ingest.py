"""Ingestion of bilateral flow and GDP files into a columnar panel, and wnet's
CSV text both ways.

Files are header-labeled UTF-8 CSV.  Every source is read as a seekable binary
stream: a path is opened, bytes are wrapped, and a text stream or a stream that
cannot seek is read whole first.  After the csv module reads the header, numpy
tokenizes each *plain* block of ``_BLOCK`` lines on its bytes, and the csv
module the rest as text lines from the first block that is not plain, a line
ending at ``\\n``, ``\\r\\n`` or a lone ``\\r``.  The first bad row, CSV error or
non-UTF-8 line raises DataError with its line number.  Rows already in key
order are not sorted again.

The other way, ``format_table`` makes the text of every file wnet writes: each
bundle CSV and the panel that ``save_panel`` writes back.  It quotes a label
that would not read back as one cell, so every table it makes reads back with
the csv module.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
import time
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, count, islice
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
import orjson

from .errors import DataError

logger = logging.getLogger(__name__)

FLOW_COLUMNS = ("year", "exporter", "importer", "value")
SIZE_COLUMNS = ("year", "country", "gdp")

#: Lines or rows converted and checked together.  Memory stays bounded by one
#: block for a path to a regular file, bytes and a seekable binary stream; a
#: text stream or a stream that cannot seek is read whole first.
_BLOCK = 1 << 14
_SURROGATE = re.compile(r"[\ud800-\udfff]")  # what undecodable bytes turn into
_TEXT = partial(io.TextIOWrapper, encoding="utf-8", errors="surrogateescape", newline="")
#: Byte kinds: 0 in a cell, 1 comma, 2 newline, 3 not in a plain block.
_KIND = np.array([3 * (b < 32 or b > 127 or b in b'"#') for b in range(256)], np.uint8)
_KIND[[ord("\t"), ord(","), ord("\n")]] = 0, 1, 2
_WIDE = 64  # widest cell of a plain block, whose gather holds rows × width bytes
_LOW = np.array([(1 << 8 * w) - 1 for w in range(9)], np.uint64)  # the low w bytes


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """The sorted country ``codes``; flow columns, sorted by (year, exporter,
    importer) with countries as positions in ``codes`` and zero flows kept; and a
    GDP row per year, NaN where a country has none.  ``missing_gdp`` flags (year,
    exporter) pairs with a positive flow but no GDP, fatal only under a scheme
    dividing by that GDP."""

    codes: tuple[str, ...]
    years: tuple[int, ...]
    flow_year: np.ndarray
    exporter: np.ndarray
    importer: np.ndarray
    value: np.ndarray
    gdp: np.ndarray
    missing_gdp: tuple[tuple[int, str], ...] = ()


def _text_blocks(stream: IO[bytes], lineno: int, size=0) -> Iterator[list[str]]:
    """Text lines of a binary stream from where it stands, numbered from ``lineno + 1``,
    ``size`` at a time or else up to each ``_BLOCK``-th line; the stream stays open."""
    lines = _TEXT(stream)
    try:
        while block := list(islice(lines, size or _BLOCK - lineno % _BLOCK)):
            good = len(block)
            if not all(map(str.isascii, block)):
                good = next((at for at, line in enumerate(block) if _SURROGATE.search(line)), good)
            yield block[:good]
            if good < len(block):
                raise DataError(f"line {lineno + good + 1}: not valid UTF-8")
            lineno += good
    finally:
        if not stream.closed:  # a path's file may be closed before this runs
            lines.detach()


def _byte_blocks(fh: IO[bytes], lineno: int) -> Iterator[bytes]:
    """A binary stream's blocks from line ``lineno + 1`` on, read a MiB at a time, cut after
    each ``_BLOCK``-th line, or short at its end or past 1 KiB a line (never plain)."""
    data, ends, at, want = b"", np.zeros(0, np.int64), 0, _BLOCK - lineno % _BLOCK
    while True:  # ends: the offset after each newline in data
        while len(ends) < want and len(data) - at < want << 10 and (chunk := fh.read(1 << 20)):
            found = np.flatnonzero(np.frombuffer(chunk, np.uint8) == 10) + len(data) - at + 1
            data, ends, at = data[at:] + chunk, np.concatenate([ends - at, found]), 0
        yield data[at : ends[want - 1] if len(ends) >= want else len(data)]
        if len(ends) < want:
            return
        at, ends, want = int(ends[want - 1]), ends[want:], _BLOCK


def _csv_rows(lines: Iterable[str]) -> tuple:
    """A csv reader of ``lines`` and an iterator of its rows.  A comment or blank line
    where a row starts comes out empty, so the reader skips but counts it; a line that
    goes on with a quoted cell is kept whole."""
    ended = [0]  # the reader's line count where its last row ended

    def fed() -> Iterator[str]:
        for line in lines:  # a row starts when the reader has read no line since the last
            blank = reader.line_num == ended[0] and line.lstrip()[:1] in ("", "#")
            yield "" if blank else line

    def rows() -> Iterator[list[str]]:
        for fields in reader:
            ended[0] = reader.line_num
            yield fields

    reader = csv.reader(fed())
    return reader, rows()


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
    year = None
    with suppress(ValueError):
        year = int(fields[at_year])
    if year is None or not -(2**63) <= year < 2**63:
        return f"bad year {fields[at_year].strip()!r}"
    codes = [fields[i].strip() for i in at_codes]
    if not all(codes):
        return "empty country identifier"
    value = math.nan
    with suppress(ValueError):
        value = float(fields[at_value])
    if not math.isfinite(value):
        return f"bad {columns[-1]} {fields[at_value].strip()!r}"
    return next((message(value, codes) for test, message in rules if test(value, codes)), None)


def _distinct(cells: list[str] | np.ndarray) -> tuple[list[str], np.ndarray]:
    """A column's distinct cells (str first-seen, bytes sorted, decoded) and each cell's index."""
    if isinstance(cells, np.ndarray):
        distinct, index = np.unique(cells, return_inverse=True)
        return [cell.decode() for cell in distinct.view(f"S{cells.itemsize}").tolist()], index
    known = dict(zip(dict.fromkeys(cells), count()))
    return list(known), np.fromiter(map(known.__getitem__, cells), np.int64, len(cells))


def _checked_block(years, codes, values, line, fields, columns, at, ids, rules) -> tuple:
    """Typed columns from a block's year, code and value cells, each year and code
    parsed once; rows that masks flag are checked again in order by ``fields(row)``."""

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
    k, parts, (reader, rows) = len(columns), [], _csv_rows(lines)
    try:
        while not parts or len(widths) == _BLOCK:
            flat, widths, line = [], [], []
            try:
                for fields in islice(rows, _BLOCK):
                    flat += fields
                    widths.append(len(fields))
                    line.append(reader.line_num + first - 1)
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
        raise DataError(f"line {reader.line_num + first - 1}: {exc}") from None
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


def _plain_block(block: bytes, first: int, columns, at, ids, rules) -> tuple | None:
    """Columns of the lines of ``block``, numbered from ``first``, or None if it is
    not plain: k - 1 commas and a newline a line, no byte csv reads otherwise (see
    _KIND), no cell wider than _WIDE."""
    if block[-1:] not in (b"", b"\n"):  # the last line of a file
        block += b"\n"
    buf, k = np.frombuffer(block + bytes(_WIDE), np.uint8), len(columns)  # NULs for _plain_cells
    low = np.flatnonzero(buf[:-_WIDE] < 45)  # separators, barred ASCII and a few cell bytes
    sep = low[_KIND.take(buf.take(low)) > 0]
    kind = _KIND.take(buf.take(sep))
    if buf.max() > 127 or len(kind) % k or (kind.reshape(-1, k) != [1] * (k - 1) + [2]).any():
        return None
    end, start = sep.reshape(-1, k), (sep + 1 - np.diff(sep, prepend=-1)).reshape(-1, k)
    if (end - start).max(initial=0) > _WIDE:
        return None
    years, *codes, values = (_plain_cells(buf, start[:, i], end[:, i]) for i in at)
    return _checked_block(
        years, codes, values.view(f"S{values.itemsize}").tolist(), np.arange(len(end)) + first,
        lambda row: block[start[row, 0] : end[row, -1]].decode().split(","), columns, at, ids, rules
    )


def _read_table(source, columns: tuple[str, ...], ids: dict, rules) -> tuple:
    """(year, country ids, value, line number) columns of a file of ``columns`` and
    ``rules``, codes getting ids from ``ids``, and its count of rows in plain blocks."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return _read_table(fh, columns, ids, rules)
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    elif isinstance(source, io.TextIOBase):  # read whole; lone surrogates stay bad UTF-8
        source = io.BytesIO(source.read().encode("utf-8", "surrogatepass"))
    elif not hasattr(source, "read"):
        raise TypeError(
            f"cannot read a table from {type(source).__name__}: "
            "give a path, bytes, a text stream or a binary stream"
        )
    elif not source.seekable():  # a pipe: read whole first
        source = io.BytesIO(source.read())
    offset = source.tell()
    pulled, head = [], chain.from_iterable(_text_blocks(source, 0, 1))  # one line at a time
    lines = (pulled.append(line) or line for line in head)  # as read; csv skips line 1's BOM
    reader, rows = _csv_rows(chain([next(lines, "").removeprefix("\ufeff")], lines))
    try:
        header = next((fields for fields in rows if fields), None)
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{'flow' if columns == FLOW_COLUMNS else 'size'} input is empty")
    names = [f.strip().lower() for f in header]
    if sorted(names) != sorted(columns):
        want, got = ",".join(columns), ",".join(names)
        raise DataError(f"line {reader.line_num}: header must name exactly {want}; got {got}")
    spec = (columns, [names.index(c) for c in columns], ids, rules)
    done = reader.line_num
    source.seek(offset := offset + len("".join(pulled).encode("utf-8", "surrogateescape")))
    parts = []
    for block in _byte_blocks(source, done):
        if (part := _plain_block(block, done + 1, *spec)) is None:
            source.seek(offset)  # read the rest again as text lines, which csv tokenizes
            parts += _csv_blocks(chain.from_iterable(_text_blocks(source, done)), done + 1, *spec)
            break
        parts.append(part)
        done, offset = done + len(part[3]), offset + len(block)
    return (*map(np.concatenate, zip(*parts)), done - reader.line_num)


def _key_order(what: str, codes: tuple, line, year, *countries) -> np.ndarray | slice:
    """Stable order sorting rows by (year, *countries), ``slice(None)`` if it is the file's;
    the one duplicate check, naming the later row of the first pair in file order."""
    ahead, tied = False, True  # per adjacent pair: the later key is greater, equal so far
    for key in (year, *countries):  # column by column, as a packed key could overflow
        ahead, tied = ahead | tied & (key[1:] > key[:-1]), tied & (key[1:] == key[:-1])
    if np.all(ahead):
        return slice(None)
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
    """Read a flow file and an optional size file, each a path, bytes or a text or binary
    stream (anything else is a TypeError), into a panel whose ``codes`` and ``years`` are
    the sorted unions over both."""
    start = time.perf_counter()
    ids: dict[str, int] = {}
    f_year, f_ids, f_value, f_line, f_plain = _read_table(flows, FLOW_COLUMNS, ids, _FLOW_RULES)
    sizes = ",".join(SIZE_COLUMNS).encode() if sizes is None else sizes
    s_year, s_ids, s_value, s_line, s_plain = _read_table(sizes, SIZE_COLUMNS, ids, _SIZE_RULES)
    if not len(f_line):
        raise DataError("no flow records")

    codes = tuple(sorted(ids))
    index = {code: i for i, code in enumerate(codes)}
    position = np.array([index[code] for code in ids], dtype=np.int64)
    exporter, importer = position[f_ids.T]
    country = position[s_ids[:, 0]]
    order = _key_order("flow", codes, f_line, f_year, exporter, importer)
    s_order = _key_order("size record", codes, s_line, s_year, country)
    flow_year, value, exporter, importer = (c[order] for c in (f_year, f_value, exporter, importer))
    all_years = np.unique(np.concatenate([f_year, s_year]))
    gdp = np.full((len(all_years), len(codes)), np.nan)
    gdp[np.searchsorted(all_years, s_year), country] = s_value
    year_index = np.searchsorted(all_years, flow_year)
    gap = (value > 0) & np.isnan(gdp[year_index, exporter])
    missing = np.unique(np.stack([year_index[gap], exporter[gap]], axis=1), axis=0)
    if len(missing):
        logger.warning("%d exporter-year pairs lack a GDP record (fatal only under "
                       "GDP-dividing schemes)", len(missing))
    years = tuple(all_years.tolist())
    missing_gdp = tuple((years[t], codes[c]) for t, c in missing.tolist())
    keys = ["in" if isinstance(o, slice) else "out of" for o in (order, s_order)]
    logger.info(
        "read %d flow rows (%d in plain blocks, keys %s order) and %d GDP rows (%d in plain "
        "blocks, keys %s order): %d countries, %d years, %.3f s", len(f_line), f_plain, keys[0],
        len(s_line), s_plain, keys[1], len(codes), len(years), time.perf_counter() - start)
    return PanelDataset(codes, years, flow_year, exporter, importer, value, gdp, missing_gdp)


def float_cells(values: np.ndarray) -> list[str]:
    """``"" if v != v else repr(v)`` for each float64 of the 1-D ``values``: the
    shortest digits that read back as the same double.

    The digits come from orjson's Ryū.  orjson writes ``1e16``, ``1e-7`` and
    ``0.00001`` where ``repr`` writes ``1e+16``, ``1e-07`` and ``1e-05``, and
    ``null`` for NaN and both infinities; so the cells ``repr`` writes in
    scientific form (``|x| >= 1e16`` or ``0 < |x| < 1e-4``) and the infinite ones
    come from ``repr`` itself, and the nulls left are NaN.
    """
    x = np.ascontiguousarray(values, np.float64)
    if not x.size:
        return []
    text = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].replace(b"null", b"")
    cells = text.decode("ascii").split(",")
    magnitude = np.abs(x)
    scientific = np.flatnonzero((magnitude >= 1e16) | ((magnitude > 0) & (magnitude < 1e-4)))
    for i, v in zip(scientific.tolist(), x[scientific].tolist()):
        cells[i] = repr(v)
    return cells


_QUOTED = re.compile(r'[,"\r\n]')  # what a label cell may not hold unquoted


def _label_cells(labels) -> list[str]:
    """``str`` of each label, quoted where it holds ``_QUOTED``; one scan of the
    joined column finds whether any does."""
    cells = list(map(str, labels))
    if _QUOTED.search("".join(cells)):
        cells = ['"' + c.replace('"', '""') + '"' if _QUOTED.search(c) else c for c in cells]
    return cells


def format_table(header: str, *columns) -> str:
    """CSV text: ``header``, then one line per row of the equal-length columns.

    A float column's cells are ``float_cells``, empty for NaN, and an integer
    column's are ``str``; neither is ever quoted.  Any other column holds labels,
    written as ``str``, except that a label holding a comma, a double quote, CR or
    LF is quoted as RFC 4180 has it: in double quotes, each inner quote doubled.
    So the csv module reads every cell back as it was given.  Every line ends in
    a newline.  Raises ValueError on unequal lengths.
    """
    cells = []
    for column in columns:
        values = np.asarray(column)
        if values.dtype.kind == "f":
            cells.append(float_cells(values))
        elif values.dtype.kind in "biu":
            cells.append(map(str, values.tolist()))
        else:  # a str array drops a label's trailing NULs, so labels are taken as given
            cells.append(_label_cells(values.tolist() if isinstance(column, np.ndarray) else column))
    return "\n".join([header, *map(",".join, zip(*cells, strict=True))]) + "\n"


def save_panel(panel: PanelDataset, flows_path: str | Path, sizes_path: str | Path) -> None:
    """Write a panel back to canonical flow/size CSV files through ``format_table``.
    ``load_panel`` reads them back to the same panel whatever the country codes, since
    a code that holds a comma, a double quote or a line break is quoted."""
    codes = np.array(panel.codes, dtype=object)
    t, c = np.nonzero(~np.isnan(panel.gdp))
    flows = (panel.flow_year, codes[panel.exporter], codes[panel.importer], panel.value)
    sizes = (np.array(panel.years, dtype=np.int64)[t], codes[c], panel.gdp[t, c])
    for path, names, table in (flows_path, FLOW_COLUMNS, flows), (sizes_path, SIZE_COLUMNS, sizes):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(format_table(",".join(names), *table))
