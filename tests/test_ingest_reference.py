"""The block-wise reader against the row-by-row reference reader.

Both readers must turn the same input into the same panel, or fail with the
same DataError text, whatever the source type and wherever the block
boundaries fall.
"""

from __future__ import annotations

import io
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wnet import DataError, ingest, load_panel  # noqa: E402

from oracles import read_table_rowwise  # noqa: E402


def outcome(flows, sizes):
    """The panel's contents, or the text of the DataError it raises."""
    try:
        panel = load_panel(flows, sizes)
    except DataError as exc:
        return f"DataError: {exc}"
    arrays = (panel.flow_year, panel.exporter, panel.importer, panel.value, panel.gdp)
    return (
        panel.codes,
        panel.years,
        panel.missing_gdp,
        *((a.dtype.str, a.shape, a.tobytes()) for a in arrays),
    )


def reference_outcome(flows, sizes):
    with mock.patch.object(ingest, "_read_table", read_table_rowwise):
        return outcome(flows, sizes)


_FILES: Path  # where path sources are written, one directory per test module run


@pytest.fixture(scope="module", autouse=True)
def _files(tmp_path_factory):
    global _FILES
    _FILES = tmp_path_factory.mktemp("sources")


class _Unseekable(io.BytesIO):
    """A binary stream that cannot seek, as a pipe or standard input."""

    def seekable(self) -> bool:
        return False


def sources(data: bytes | None, slot: str = "flows"):
    """Fresh bytes, binary, unseekable binary, text and path sources over the same
    content; the path is the file ``slot`` of a temporary directory, rewritten each call."""
    if data is None:
        return [None] * 5
    path = _FILES / f"{slot}.csv"
    path.write_bytes(data)
    text = io.StringIO(data.decode("utf-8", "surrogateescape"))
    return [data, io.BytesIO(data), _Unseekable(data), text, path]


_CODES = ["A", "B", " C ", "D", "e", "é"]
# Defects and oddities, one of which may replace a cell or a line.  Lone
# surrogates in \udc80-\udcff encode (surrogateescape) to bytes that are not
# UTF-8.  \x1c-\x1f are whitespace to int, float and strip on str but not to
# float on bytes; tab is whitespace to all of them.  Cells longer than 8 bytes,
# or than the widest cell numpy reads, and a quoted line break after plain
# rows (which may straddle a block boundary) exercise the plain-block reader.
_BAD_CELLS = [
    "", " ", "20x0", "1_999", "+2000", "9" * 19, "-" + "9" * 19, "0", "-0.0", "-3", "1e400",
    "nan", "-inf", "abc", "0x10", "A", '"A"', '"B,C"', '"x\ny"', '"', "\x00", "a\rb", "A\udcff",
    "1\x1c", "\x1f2000", "\x0b2000", "\x7f", "\t2000\t", "\tB", "LONGCODE9", "1" * 70,
]
_ODD_LINES = [
    "", " ", "# note", " #, x", '"', 'y"', "\t", ",", "\udcff", "2000,A", '2000,"A\nB",C,5',
    "#1999,A,B,2", " # x,y", '2000,A"B,5', "2000,A\x00B,5", "2000,A,B,5\x0c",
]


@st.composite
def _table(draw, columns: tuple[str, ...]) -> bytes:
    """Encoded file: sometimes a byte-order mark or two, a header, well-formed
    rows in the header's column order, a few defects among them, one kind of
    line break, and sometimes raw bytes after them or raw bytes alone."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=60))
    order = draw(st.permutations(columns) | st.just(list(columns)))
    header = ",".join(order)
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from([header.upper(), " " + header, header + ",x", "# x"]))
    pool = _CODES if draw(st.booleans()) else _CODES[:-1]  # all-ASCII rows or not
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        codes = draw(st.permutations(pool))
        rows.append({
            "year": draw(st.sampled_from(["1998", "1999", "2000", " 2001"])),
            **dict(zip(columns[1:-1], codes)),
            columns[-1]: repr(draw(st.floats(1e-3, 1e12))),
        })
    if rows and draw(st.booleans()):  # in key order, as most exports are
        rows.sort(key=lambda row: (int(row["year"]), *(row[c].strip() for c in columns[1:-1])))
        at, change = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
        if change == 1:  # an adjacent duplicate key
            rows.insert(at + 1, {**rows[at], columns[-1]: "1"})
        elif change == 2:  # one row out of order
            rows.insert(draw(st.integers(0, len(rows) - 1)), rows.pop(at))
    lines = [header, *(",".join(row[name] for name in order) for row in rows)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        if at < len(lines) and draw(st.booleans()):
            cells = lines[at].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_BAD_CELLS))
            lines[at] = ",".join(cells)
        else:
            lines.insert(at, draw(st.sampled_from(_ODD_LINES)))
    newline = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    text = draw(st.sampled_from([""] * 4 + ["\ufeff", "\ufeff\ufeff"])) + text  # byte-order marks
    return text.encode("utf-8", "surrogateescape") + draw(
        st.sampled_from([b""] * 5 + [b"\xff", b"\n", b"\r\n"])
    )


@hypothesis.settings(deadline=None)  # examples: the profile's, 400 by default (conftest.py)
@hypothesis.given(
    _table(ingest.FLOW_COLUMNS),
    st.none() | _table(ingest.SIZE_COLUMNS),
    st.sampled_from([1, 2, 3, 5, ingest._BLOCK]),
)
def test_block_reader_matches_row_reader(flows, sizes, block):
    expected = [reference_outcome(*pair) for pair in zip(sources(flows), sources(sizes, "sizes"))]
    with mock.patch.object(ingest, "_BLOCK", block):
        actual = [outcome(*pair) for pair in zip(sources(flows), sources(sizes, "sizes"))]
    assert actual == expected
    assert actual == [actual[-1]] * len(actual)  # every source as the path


def _plain_flows(rows: int) -> bytes:
    """A header and ``rows`` distinct plain flow rows."""
    body = (f"{2000 + i // 900},C{i // 30 % 30:02d},D{i % 30:02d},{i + 1}\n" for i in range(rows))
    return ("year,exporter,importer,value\n" + "".join(body)).encode()


def _assert_same_flows(data: bytes, block: int) -> list:
    """Both readers give the same outcome on ``data`` as flows, from every
    source type, with ``_BLOCK`` patched to ``block``; return it."""
    expected = [reference_outcome(flows, None) for flows in sources(data)]
    with mock.patch.object(ingest, "_BLOCK", block):
        assert [outcome(flows, None) for flows in sources(data)] == expected
    assert expected == [expected[-1]] * len(expected)  # every source as the path
    return expected


@pytest.mark.parametrize("block", [2, ingest._BLOCK])
@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("cell", _BAD_CELLS)
def test_odd_cell_among_plain_rows(cell, column, block):
    header, *rows = _plain_flows(4).decode().splitlines(keepends=True)
    cells = rows[2].rstrip("\n").split(",")
    cells[column] = cell
    rows[2] = ",".join(cells) + "\n"
    _assert_same_flows((header + "".join(rows)).encode("utf-8", "surrogateescape"), block)


@pytest.mark.parametrize("block", [2, ingest._BLOCK])
@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("line", _ODD_LINES)
def test_odd_line_among_plain_rows(line, at, block):
    header, *rows = _plain_flows(4).decode().splitlines(keepends=True)
    rows.insert(at, line + "\n")
    _assert_same_flows((header + "".join(rows)).encode("utf-8", "surrogateescape"), block)


def test_a_line_holds_one_line_break_at_its_end():
    # A line ends at its one line break, \n, \r\n or a lone \r, whatever the
    # source: every line of this file holds a row, from each source alike.
    data = b"year,exporter,importer,value\r2000,A,B,1\n2000,B,A,2\r\n2001,A,B,3\n"
    assert _assert_same_flows(data, ingest._BLOCK)[-1][3][1] == (3,)


@pytest.mark.parametrize("block", [2, 5, ingest._BLOCK])
def test_plain_blocks_bypass_the_csv_module(block):
    # A header and two blocks of lines, all plain: the csv module may read
    # the header of each file and nothing after it.
    data = _plain_flows(2 * block - 1)
    expected = [reference_outcome(flows, None) for flows in sources(data)]
    real_reader, made = ingest.csv.reader, []

    class HeaderOnly:
        def __init__(self, lines):
            self.rows = real_reader(lines)
            made.append(self)

        def __iter__(self):
            return self

        def __next__(self):
            if self.rows.line_num:
                raise AssertionError("the csv module read past the header")
            return next(self.rows)

        @property
        def line_num(self):
            return self.rows.line_num

    with mock.patch.object(ingest, "_BLOCK", block), mock.patch.object(
        ingest.csv, "reader", HeaderOnly
    ):
        assert [outcome(flows, None) for flows in sources(data)] == expected
    assert len(made) == 2 * 5  # one reader per file (flows, sizes) and source
    assert expected[0][3][1] == (2 * block - 1,)  # a panel of every row


@pytest.mark.parametrize("block", [2, 5, ingest._BLOCK])
def test_plain_blocks_of_binary_sources_stay_bytes(block):
    # A header and two blocks of lines, all plain: from every kind of source,
    # the str-line reader may yield the header and nothing after.
    data = _plain_flows(2 * block - 1)
    expected = [reference_outcome(flows, None) for flows in sources(data)]
    real_text_blocks = ingest._text_blocks

    def header_only(stream, lineno, *args, **kwargs):
        for lines in real_text_blocks(stream, lineno, *args, **kwargs):
            lineno += len(lines)
            if lineno > 1:
                raise AssertionError("a line after the header became str")
            yield lines

    with mock.patch.object(ingest, "_BLOCK", block), mock.patch.object(
        ingest, "_text_blocks", header_only
    ):
        assert [outcome(flows, None) for flows in sources(data)] == expected
    assert expected[0][3][1] == (2 * block - 1,)  # a panel of every row


@pytest.mark.parametrize("block", [2, 3, 5])
@pytest.mark.parametrize("at", range(1, 7))
@pytest.mark.parametrize("tail", ["", "2001,Q,Q,1\n"])
def test_quoted_line_break_after_plain_rows(block, at, tail):
    # Plain rows, then a quoted field holding a line break, which straddles
    # a block boundary wherever `at` puts it on the lines of a `block`, then
    # maybe a bad row whose line number counts both lines of that field.
    header, *rows = _plain_flows(8).decode().splitlines(keepends=True)
    rows.insert(at, '2000,"X\nY",Z,5\n')
    expected = _assert_same_flows((header + "".join(rows) + tail).encode(), block)
    if tail:
        assert expected[0] == "DataError: line 12: self-flow for 'Q'"
    else:
        assert expected[0][3][1] == (9,)
