"""The block-wise reader against the row-by-row reference reader.

Both readers must turn the same input into the same panel, or fail with the
same DataError text, whatever the source type and wherever the block
boundaries fall.
"""

from __future__ import annotations

import io
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
        panel.registry.codes,
        panel.years,
        panel.missing_gdp,
        *((a.dtype.str, a.shape, a.tobytes()) for a in arrays),
    )


def reference_outcome(flows, sizes):
    with mock.patch.object(ingest, "_read_table", read_table_rowwise):
        return outcome(flows, sizes)


def sources(data: bytes | None):
    """Fresh bytes, binary and text sources over the same content."""
    if data is None:
        return [None] * 3
    return [data, io.BytesIO(data), io.StringIO(data.decode("utf-8", "surrogateescape"))]


_CODES = ["A", "B", " C ", "D", "e", "é"]
# Defects and oddities, one of which may replace a cell or a line.  Lone
# surrogates in \udc80-\udcff encode (surrogateescape) to bytes that are not
# UTF-8.
_BAD_CELLS = [
    "", " ", "20x0", "1_999", "+2000", "9" * 19, "-" + "9" * 19, "0", "-0.0", "-3", "1e400",
    "nan", "-inf", "abc", "0x10", "A", '"A"', '"B,C"', '"x\ny"', '"', "\x00", "a\rb", "A\udcff",
]
_ODD_LINES = ["", " ", "# note", " #, x", '"', 'y"', "\t", ",", "\udcff", "2000,A"]


@st.composite
def _table(draw, columns: tuple[str, ...]) -> bytes:
    """Encoded file: a header, well-formed rows in the header's column order,
    a few defects among them, one kind of line break, and sometimes raw
    bytes after them or raw bytes alone."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=60))
    order = draw(st.permutations(columns) | st.just(list(columns)))
    header = ",".join(order)
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from([header.upper(), " " + header, header + ",x", "# x"]))
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        codes = draw(st.permutations(_CODES))
        cells = {
            "year": draw(st.sampled_from(["1998", "1999", "2000", " 2001"])),
            **dict(zip(columns[1:-1], codes)),
            columns[-1]: repr(draw(st.floats(1e-3, 1e12))),
        }
        lines.append(",".join(cells[name] for name in order))
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
    return text.encode("utf-8", "surrogateescape") + draw(
        st.sampled_from([b""] * 5 + [b"\xff", b"\n", b"\r\n"])
    )


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(
    _table(ingest.FLOW_COLUMNS),
    st.none() | _table(ingest.SIZE_COLUMNS),
    st.sampled_from([1, 2, 3, 5, ingest._BLOCK]),
)
def test_block_reader_matches_row_reader(flows, sizes, block):
    expected = [reference_outcome(*pair) for pair in zip(sources(flows), sources(sizes))]
    with mock.patch.object(ingest, "_BLOCK", block):
        assert [outcome(*pair) for pair in zip(sources(flows), sources(sizes))] == expected
