"""Ingestion of bilateral flow and GDP files into a columnar panel.

Input files are header-labeled CSV (UTF-8, comma-delimited, ``#`` comment
lines and blank lines skipped).  Column order is free but names are fixed:
``year,exporter,importer,value`` for flows and ``year,country,gdp`` for
sizes.  One streaming reader serves both files: it checks every row and
fills typed columns, turning country codes into integer ids as it reads, so
no per-row object is kept.  The panel's registry is the sorted set of codes,
so the node indexing never depends on input row order.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

FLOW_COLUMNS = ("year", "exporter", "importer", "value")
SIZE_COLUMNS = ("year", "country", "gdp")


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


def _lines(source: str | Path | bytes | IO) -> Iterator[str]:
    """Yield the text lines of a path, raw bytes or open stream.

    Comment and blank lines come out empty, so the CSV reader skips them but
    still counts them.  Bytes that are not UTF-8 decode to lone surrogates,
    so the line they are on can be named; a strict decoder fails on a whole
    buffered chunk, which may start many lines earlier.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            yield from _lines(fh)
        return
    for lineno, line in enumerate(
        io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source, start=1
    ):
        if isinstance(line, bytes):
            line = line.decode("utf-8", "surrogateescape")
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(f"line {lineno}: not valid UTF-8") from None
        stripped = line.strip()
        yield line if stripped and not stripped.startswith("#") else ""


def _flow_problem(value: float, codes: list[str]) -> str | None:
    if value < 0:
        return f"negative flow value {value!r}"
    return f"self-flow for {codes[0]!r}" if codes[0] == codes[1] else None


def _size_problem(value: float, codes: list[str]) -> str | None:
    return f"nonpositive GDP {value!r} for {codes[0]!r}" if value <= 0 else None


def _read_table(
    source: str | Path | bytes | IO,
    columns: tuple[str, ...],
    ids: dict[str, int],
    problem: Callable[[float, list[str]], str | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read one file into (year, country ids, value, line number) columns.

    ``columns`` lists the year, the country-code columns and the value.
    Codes get ids from ``ids`` in order of first appearance.  A bad header or
    row raises DataError with its line number; ``problem`` names the defects
    particular to one file.
    """
    rows = csv.reader(_lines(source))
    try:
        header = next((fields for fields in rows if fields), None)
        if header is None:
            raise DataError(f"{'flow' if columns == FLOW_COLUMNS else 'size'} input is empty")
        names = [f.strip().lower() for f in header]
        if sorted(names) != sorted(columns):
            raise DataError(
                f"line {rows.line_num}: header must name exactly {','.join(columns)}; "
                f"got {','.join(names)}"
            )
        at_year, *at_codes, at_value = (names.index(c) for c in columns)
        years, country_ids, values, line = array("q"), array("q"), array("d"), array("q")
        for fields in rows:
            if not fields:
                continue
            lineno = rows.line_num
            if len(fields) != len(columns):
                raise DataError(
                    f"line {lineno}: expected {len(columns)} fields, got {len(fields)}"
                )
            try:
                years.append(int(fields[at_year]))
            except (ValueError, OverflowError):
                raise DataError(f"line {lineno}: bad year {fields[at_year].strip()!r}") from None
            codes = [fields[i].strip() for i in at_codes]
            if not all(codes):
                raise DataError(f"line {lineno}: empty country identifier")
            try:
                value = float(fields[at_value])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(f"line {lineno}: bad {columns[-1]} {fields[at_value].strip()!r}")
            defect = problem(value, codes)
            if defect:
                raise DataError(f"line {lineno}: {defect}")
            country_ids.extend([ids.setdefault(code, len(ids)) for code in codes])
            values.append(value)
            line.append(lineno)
    except csv.Error as exc:
        raise DataError(f"line {rows.line_num}: {exc}") from None
    ids_by_row = np.array(country_ids).reshape(-1, len(at_codes))
    return np.array(years), ids_by_row, np.array(values), np.array(line)


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
    ids: dict[str, int] = {}
    f_year, f_ids, f_value, f_line = _read_table(flows, FLOW_COLUMNS, ids, _flow_problem)
    if sizes is None:
        sizes = ",".join(SIZE_COLUMNS).encode()
    s_year, s_ids, s_value, s_line = _read_table(sizes, SIZE_COLUMNS, ids, _size_problem)
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
    return PanelDataset(registry, years, flow_year, exporter, importer, value, gdp, missing_gdp)


def save_panel(panel: PanelDataset, flows_path: str | Path, sizes_path: str | Path) -> None:
    """Write a panel back to canonical flow/size CSV files (round-trip exact)."""
    codes = panel.registry.codes
    with open(flows_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(FLOW_COLUMNS) + "\n")
        columns = (panel.flow_year, panel.exporter, panel.importer, panel.value)
        for year, exporter, importer, value in zip(*(c.tolist() for c in columns)):
            fh.write(f"{year},{codes[exporter]},{codes[importer]},{value!r}\n")
    year_index, country = np.nonzero(~np.isnan(panel.gdp))
    with open(sizes_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SIZE_COLUMNS) + "\n")
        gdp = panel.gdp[year_index, country].tolist()
        for t, c, value in zip(year_index.tolist(), country.tolist(), gdp):
            fh.write(f"{panel.years[t]},{codes[c]},{value!r}\n")
