from __future__ import annotations

import io
import logging
import os
import random
import re
import threading
from unittest import mock

import numpy as np
import pytest

from wnet import DataError, ingest, load_panel, save_panel

from conftest import flow_rows, panel_from_rows, size_rows
from oracles import read_table_rowwise

FLOWS = """\
year,exporter,importer,value
2000,USA,CAN,178000000000
2000,CAN,USA,1.5e11
# a comment line
1999,USA,MEX,98000000000
"""

SIZES = """\
year,country,gdp
2000,USA,9.8e12
2000,CAN,7.4e11
1999,USA,9.2e12
"""


def test_parse_flows_basic():
    panel = load_panel(io.StringIO(FLOWS))
    assert flow_rows(panel) == [
        (1999, "USA", "MEX", 9.8e10),
        (2000, "CAN", "USA", 1.5e11),
        (2000, "USA", "CAN", 1.78e11),
    ]


def test_parse_flows_column_order_free():
    text = "value,importer,exporter,year\n5.0,CAN,USA,2000\n"
    assert flow_rows(load_panel(io.StringIO(text))) == [(2000, "USA", "CAN", 5.0)]


def test_parse_flows_accepts_bytes_and_scientific_notation():
    text = b"year,exporter,importer,value\n2000,USA,CAN,1.78e11\n"
    for source in (text, io.BytesIO(text), io.StringIO(text.decode())):
        assert flow_rows(load_panel(source)) == [(2000, "USA", "CAN", 1.78e11)]


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("2000,USA,USA,5", "self-flow"),
        ("2000,USA,CAN,-3", "negative"),
        ("2000,USA,CAN,abc", "bad value"),
        ("20x0,USA,CAN,5", "bad year"),
        ("9223372036854775808,USA,CAN,5", "bad year"),
        ("2000,USA,CAN", "expected 4 fields"),
        ("2000,,CAN,5", "empty country"),
        ("2000,USA,CAN,inf", "bad value"),
    ],
)
def test_parse_flows_rejects_bad_rows(row, fragment):
    text = f"year,exporter,importer,value\n{row}\n"
    with pytest.raises(DataError, match="line 2"):
        load_panel(io.StringIO(text))
    with pytest.raises(DataError, match=fragment):
        load_panel(io.StringIO(text))


@pytest.mark.parametrize(
    "rows,message",
    [
        (["2000,USA,CAN,-1", "2000,USA,USA,5"], "line 2: negative flow value -1.0"),
        (["2000,USA,USA,5", "2000,USA,CAN,-1"], "line 2: self-flow for 'USA'"),
        (["2000,USA,CAN,5", "20x0,USA,USA,-1", "2000,,CAN,5"], "line 3: bad year '20x0'"),
        (["2000,USA,CAN,5", "2000,USA,USA,nan", "2000,USA"], "line 3: bad value 'nan'"),
        (["2000,USA,CAN,5", "2000,USA,CAN", "2000,USA,USA,5"], "line 3: expected 4 fields, got 3"),
    ],
)
def test_parse_flows_reports_first_defect_of_first_bad_row(rows, message):
    text = "year,exporter,importer,value\n" + "\n".join(rows) + "\n"
    with pytest.raises(DataError) as caught:
        load_panel(io.StringIO(text))
    assert str(caught.value) == message


def test_parse_flows_duplicate_reports_line():
    text = "year,exporter,importer,value\n2000,USA,CAN,1\n2000,USA,CAN,2\n"
    with pytest.raises(DataError, match="line 3.*duplicate"):
        load_panel(io.StringIO(text))


def test_parse_flows_bad_header():
    with pytest.raises(DataError, match="header"):
        load_panel(io.StringIO("year,exporter,importer\n"))
    with pytest.raises(DataError, match="header"):
        load_panel(io.StringIO("year,exporter,importer,value,extra\n"))


def test_parse_flows_alternate_delimiter():
    # The format is comma-delimited only; another delimiter fails at the header.
    text = "year;exporter;importer;value\n2000;USA;CAN;5\n"
    with pytest.raises(DataError, match="line 1: header"):
        load_panel(io.StringIO(text))


def test_parse_flows_rejects_invalid_utf8(tmp_path):
    data = b"year,exporter,importer,value\n2000,USA,CAN,1\n2000,US\xff,MEX,2\n"
    path = tmp_path / "flows.csv"
    path.write_bytes(data)
    for source in (data, path, io.BytesIO(data)):
        with pytest.raises(DataError, match="line 3: not valid UTF-8"):
            load_panel(source)


def test_parse_sizes_basic():
    panel = load_panel(io.StringIO(FLOWS), io.StringIO(SIZES))
    assert size_rows(panel) == [
        (1999, "USA", 9.2e12),
        (2000, "CAN", 7.4e11),
        (2000, "USA", 9.8e12),
    ]


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("2000,USA,0", "nonpositive"),
        ("2000,USA,-5", "nonpositive"),
        ("2000,USA,nan", "bad gdp"),
        ("2000,USA", "expected 3 fields"),
    ],
)
def test_parse_sizes_rejects_bad_rows(row, fragment):
    text = f"year,country,gdp\n{row}\n"
    with pytest.raises(DataError, match=fragment):
        load_panel(io.StringIO(FLOWS), io.StringIO(text))


def test_parse_sizes_duplicate():
    text = "year,country,gdp\n2000,USA,1\n2000,USA,2\n"
    with pytest.raises(DataError, match="duplicate"):
        load_panel(io.StringIO(FLOWS), io.StringIO(text))


def test_assemble_panel_registry_and_years():
    panel = load_panel(io.StringIO(FLOWS), io.StringIO(SIZES))
    assert panel.registry.codes == ("CAN", "MEX", "USA")
    assert panel.years == (1999, 2000)
    assert panel.registry.position("MEX") == 1
    assert (panel.flow_year == 2000).sum() == 2


def test_assemble_panel_flags_missing_gdp():
    panel = panel_from_rows([(2000, "DEU", "USA", 5.0)], [(2000, "USA", 1.0)])
    assert (2000, "DEU") in panel.missing_gdp
    assert np.isnan(panel.gdp[0, panel.registry.position("DEU")])


def test_assemble_panel_importer_only_country_kept():
    panel = panel_from_rows([(2000, "USA", "XYZ", 5.0)], [(2000, "USA", 1.0)])
    assert "XYZ" in panel.registry


def test_assemble_panel_empty_flows():
    with pytest.raises(DataError, match="no flow records"):
        panel_from_rows([], [(2000, "USA", 1.0)])


def test_assemble_panel_cross_list_duplicates():
    # The first repeated key is reported at its later row, however far apart
    # the two rows are and whatever lies between them.
    flows = "year,exporter,importer,value\n" + "".join(
        f"{row}\n"
        for row in (
            "2000,USA,CAN,1",
            "1999,USA,CAN,3",
            "2000,CAN,USA,1",
            "1999,CAN,USA,4",
            "2000,USA,CAN,2",
            "1999,CAN,USA,5",
        )
    )
    with pytest.raises(DataError, match=r"line 6: duplicate flow \(2000, 'USA', 'CAN'\)"):
        load_panel(io.StringIO(flows))
    sizes = "year,country,gdp\n2000,USA,1\n2000,CAN,1\n# note\n2000,USA,2\n"
    with pytest.raises(DataError, match=r"line 5: duplicate size record \(2000, 'USA'\)"):
        load_panel(io.StringIO(FLOWS), io.StringIO(sizes))


def saved_bytes(panel, directory) -> tuple[bytes, bytes]:
    fp, sp = directory / "f.csv", directory / "s.csv"
    save_panel(panel, fp, sp)
    return fp.read_bytes(), sp.read_bytes()


def test_registry_deterministic_under_row_permutation(tmp_path):
    base = saved_bytes(load_panel(io.StringIO(FLOWS), io.StringIO(SIZES)), tmp_path)
    header_f, *flow_lines = FLOWS.splitlines(keepends=True)
    header_s, *size_lines = SIZES.splitlines(keepends=True)
    shuffler = random.Random(3)
    for _ in range(5):
        shuffler.shuffle(flow_lines)
        shuffler.shuffle(size_lines)
        panel = load_panel(
            io.StringIO(header_f + "".join(flow_lines)),
            io.StringIO(header_s + "".join(size_lines)),
        )
        assert saved_bytes(panel, tmp_path) == base


def test_panel_round_trip(tmp_path):
    panel = load_panel(io.StringIO(FLOWS), io.StringIO(SIZES))
    saved = saved_bytes(panel, tmp_path)
    assert saved_bytes(load_panel(*saved), tmp_path) == saved
    assert flow_rows(load_panel(saved[0])) == flow_rows(panel)


def test_panel_round_trip_awkward_values(tmp_path):
    flows = [
        (1981, "AAA", "BBB", 0.1 + 0.2),
        (1981, "BBB", "AAA", 1.2345678901234567e-9),
        (1981, "AAA", "CCC", 0.0),
    ]
    sizes = [(1981, "AAA", 9.87654321e12)]
    panel = panel_from_rows(flows, sizes)
    saved = saved_bytes(panel, tmp_path)
    reloaded = load_panel(*saved)
    assert saved_bytes(reloaded, tmp_path) == saved
    assert sorted(flow_rows(reloaded)) == sorted(flows)
    assert size_rows(reloaded) == sizes


def test_load_panel_logs_one_info_line(caplog):
    with caplog.at_level(logging.INFO, logger="wnet.ingest"):
        load_panel(io.StringIO(FLOWS), io.StringIO(SIZES))
    [record] = [r for r in caplog.records if r.levelno == logging.INFO]
    assert record.name == "wnet.ingest"
    assert re.fullmatch(
        r"read 3 flow rows \(0 in plain blocks, keys out of order\) and 3 GDP rows "
        r"\(3 in plain blocks, keys out of order\): 3 countries, 2 years, \d+\.\d{3} s",
        record.getMessage(),
    )


@pytest.mark.parametrize("flows", [
    "year,exporter,importer,value\n2000,A,B,1\n2000,B,A,2\n",
    "# exported from a spreadsheet\nyear,exporter,importer,value\n2000,A,B,1\n2000,B,A,2\n",
    '"year","exporter","importer","value"\n2000,A,B,1\n2000,B,A,2\n',
], ids=["plain", "comment", "quoted"])
@pytest.mark.parametrize("kind", ["bytes", "binary", "text", "path"])
def test_one_byte_order_mark_is_skipped(tmp_path, caplog, flows, kind):
    sizes = "year,country,gdp\n2000,A,5\n2000,B,7\n"

    def source(text: str, name: str):
        data = ("\ufeff" + text).encode("utf-8")
        (tmp_path / name).write_bytes(data)
        return {"bytes": data, "binary": io.BytesIO(data), "text": io.StringIO(data.decode()),
                "path": tmp_path / name}[kind]

    with caplog.at_level(logging.INFO, logger="wnet.ingest"):
        panel = load_panel(source(flows, "flows.csv"), source(sizes, "sizes.csv"))
    assert flow_rows(panel) == [(2000, "A", "B", 1.0), (2000, "B", "A", 2.0)]
    assert size_rows(panel) == [(2000, "A", 5.0), (2000, "B", 7.0)]
    # The rows after the header are read as plain blocks: the bytes path seeks
    # past the mark's three bytes too.
    assert "read 2 flow rows (2 in plain blocks, keys in order) and 2 GDP rows (2 in plain " \
        "blocks, keys in order)" in caplog.records[-1].getMessage()
    with mock.patch.object(ingest, "_read_table", read_table_rowwise):
        reference = load_panel(source(flows, "flows.csv"), source(sizes, "sizes.csv"))
    assert flow_rows(reference) == flow_rows(panel) and size_rows(reference) == size_rows(panel)


@pytest.mark.parametrize("data, line", [
    (b"\xef\xbb\xbf\xef\xbb\xbfyear,exporter,importer,value\n2000,A,B,1\n", 1),
    (b"\n\xef\xbb\xbfyear,exporter,importer,value\n2000,A,B,1\n", 2),
])
def test_only_one_byte_order_mark_on_line_one_is_skipped(data, line):
    _assert_fault(data, line, "header must name exactly year,exporter,importer,value; got \ufeffyear")


def test_load_panel_without_sizes(tmp_path):
    fp = tmp_path / "f.csv"
    fp.write_text("year,exporter,importer,value\n2000,USA,CAN,5\n", encoding="utf-8")
    panel = load_panel(fp)
    assert panel.registry.codes == ("CAN", "USA")
    assert panel.missing_gdp == ((2000, "USA"),)


# One block of distinct rows: each of _SIDE exporters C000, C001, ... sends
# to each of _SIDE importers D000, D001, ...
_SIDE = int(ingest._BLOCK**0.5)
_LAST_ROW = f"2000,C{_SIDE - 1:03d},D{_SIDE - 1:03d},1"


@pytest.fixture(scope="module")
def full_block() -> bytes:
    """A header and exactly one block of good, distinct flow rows."""
    assert _SIDE * _SIDE == ingest._BLOCK
    rows = (f"2000,C{i // _SIDE:03d},D{i % _SIDE:03d},1\n" for i in range(ingest._BLOCK))
    return ("year,exporter,importer,value\n" + "".join(rows)).encode()


def _second_block_fault(full_block: bytes, lead: int, fault: list[bytes]) -> bytes:
    """A header, a first block of plain rows and ``fault`` from line
    _BLOCK + 2 - lead on.  The header is line 1, so line _BLOCK + 1 opens the
    second block of lines and line _BLOCK + 2 the second block of rows;
    dropping ``lead`` good rows puts the fault's first line on either."""
    header, *rows = full_block.splitlines(keepends=True)
    return header + b"".join(rows[lead:]) + b"\n".join(fault) + b"\n"


def _assert_fault(data: bytes, lineno: int, message: str) -> None:
    with pytest.raises(DataError) as caught:
        load_panel(data)
    assert str(caught.value).startswith(f"line {lineno}: {message}")
    with mock.patch.object(ingest, "_read_table", read_table_rowwise):
        with pytest.raises(DataError) as reference:
            load_panel(data)
    assert str(caught.value) == str(reference.value)


@pytest.mark.parametrize("lead", [0, 1])
@pytest.mark.parametrize(
    "fault,message",
    [
        ([b"2000,USA,USA,5"], "self-flow for 'USA'"),
        ([b"2000,USA,C\rAN,5"], "expected 4 fields, got 3"),  # a lone CR ends a line
        ([b"2000,US\xff,CAN,5"], "not valid UTF-8"),
        ([_LAST_ROW.encode()], f"duplicate flow {(2000, *_LAST_ROW.split(',')[1:3])}"),
        ([b"2000,USA,CAN,-1", b"2000,US\xff,CAN,5"], "negative flow value -1.0"),
    ],
)
def test_fault_in_the_second_block(full_block, lead, fault, message):
    _assert_fault(_second_block_fault(full_block, lead, fault), ingest._BLOCK + 2 - lead, message)


@pytest.mark.parametrize("lead", [0, 1])
@pytest.mark.parametrize(
    "switch,fault,message",
    [
        (b"# note", b"2000,USA,USA,5", "self-flow for 'USA'"),
        (b"", b"2000,USA,CAN,-1", "negative flow value -1.0"),
        (b"2000,USA,CAN,5\r", b"2000,USA,USA,5", "self-flow for 'USA'"),
        (b"2000,USA,CAN,5\r", _LAST_ROW.encode(), "duplicate flow"),
        (b"2000,USA,CAN,5\r", b"2000,US\xff,CAN,5", "not valid UTF-8"),
        (b"2000,\"US\nA\",CAN,5", b"2000,USA,-", "expected 4 fields, got 3"),
        (b"# note", b"2000,USA,C\rAN,5", "expected 4 fields, got 3"),
    ],
)
def test_fault_after_the_switch_off_the_plain_path(full_block, lead, switch, fault, message):
    # A comment, blank, CRLF or quoted line after a first block of plain rows
    # hands the rest of the file to the csv module; the fault follows it.
    data = _second_block_fault(full_block, lead, [switch, fault])
    _assert_fault(data, ingest._BLOCK + 3 - lead + switch.count(b"\n"), message)


def _key_order_note(caplog, data: bytes) -> str:
    """Whether ``load_panel`` found the flow keys of ``data`` in order, from its log."""
    with caplog.at_level(logging.INFO, logger="wnet.ingest"):
        load_panel(data)
    [record] = [r for r in caplog.records if r.levelno == logging.INFO]
    caplog.clear()
    pattern = r"flow rows \(\d+ in plain blocks, (keys [a-z ]+ order)\)"
    return re.search(pattern, record.getMessage())[1]


@pytest.mark.parametrize("lead", [-1, 0, 1])
def test_adjacent_duplicate_at_a_block_boundary(full_block, caplog, lead):
    # The rows are in key order, so only the duplicate takes the file off the
    # sorted fast path; the pair ends one line before, at or after the first
    # line of the second block.
    assert _key_order_note(caplog, full_block) == "keys in order"
    header, *rows = full_block.splitlines(keepends=True)
    at = ingest._BLOCK + lead - 1  # the row whose copy follows it
    rows.insert(at, rows[at - 1])
    key = (2000, *rows[at].decode().split(",")[1:3])
    _assert_fault(header + b"".join(rows), ingest._BLOCK + lead + 1, f"duplicate flow {key}")


def test_sorted_but_the_last_row(full_block, caplog):
    data = full_block + b"1999,C000,D000,5\n"
    assert _key_order_note(caplog, data) == "keys out of order"
    panel = load_panel(data)
    assert flow_rows(panel)[0] == (1999, "C000", "D000", 5.0)
    assert flow_rows(panel)[1:] == flow_rows(load_panel(full_block))


def test_decreasing_importer_within_year_and_exporter(caplog):
    data = b"year,exporter,importer,value\n2000,A,C,1\n2000,A,B,2\n2000,B,A,3\n"
    assert _key_order_note(caplog, data) == "keys out of order"
    assert flow_rows(load_panel(data)) == [
        (2000, "A", "B", 2.0), (2000, "A", "C", 1.0), (2000, "B", "A", 3.0)
    ]


@pytest.mark.parametrize("ascending", [True, False])
def test_extreme_years_in_key_order(caplog, ascending):
    # Keys are compared a column at a time: a year and two country positions
    # packed into one int64 key (4 * year + 2 * exporter + importer, say)
    # would wrap around here and misjudge the order.
    rows = [f"{-(2**63)},A,B,1", "0,A,B,2", "0,B,A,3", f"{2**63 - 1},A,B,4"]
    rows = rows if ascending else rows[::-1]
    data = ("year,exporter,importer,value\n" + "\n".join(rows) + "\n").encode()
    assert _key_order_note(caplog, data) == f"keys {'in' if ascending else 'out of'} order"
    assert flow_rows(load_panel(data)) == [
        (-(2**63), "A", "B", 1.0),
        (0, "A", "B", 2.0),
        (0, "B", "A", 3.0),
        (2**63 - 1, "A", "B", 4.0),
    ]
    duplicate = data + f"{2**63 - 1},A,B,5\n".encode()
    _assert_fault(duplicate, 6, f"duplicate flow {(2**63 - 1, 'A', 'B')}")


def test_cell_bytes_below_the_comma_stay_plain(caplog):
    # The separator scan looks only at bytes below ","; tab, space, "!", "$"
    # to "+" among them are cell bytes, so these rows are all plain.
    rows = ["\t2000,A,B,+1", " 2000,A, C ,2", "2000,$%&,'()*,3", "2000,!x,B,4 "]
    data = ("year,exporter,importer,value\n" + "\n".join(rows) + "\n").encode()
    with caplog.at_level(logging.INFO, logger="wnet.ingest"):
        panel = load_panel(data)
    assert "read 4 flow rows (4 in plain blocks" in caplog.records[-1].getMessage()
    with mock.patch.object(ingest, "_read_table", read_table_rowwise):
        assert flow_rows(panel) == flow_rows(load_panel(data))


def test_byte_blocks_stop_at_lines_no_plain_block_holds():
    # A line longer than 1 KiB is never plain, so a block that cannot reach its
    # last line within 1 KiB a line is cut short instead of read whole (here a
    # file of lone-CR line ends, which only the text lines split).
    data = b"2000,A,B,1\r" * (300_000)
    with mock.patch.object(ingest, "_BLOCK", 2):
        first = next(ingest._byte_blocks(io.BytesIO(data), 0))
    assert len(first) == 1 << 20
    with mock.patch.object(ingest, "_BLOCK", 1 << 14):
        assert list(ingest._byte_blocks(io.BytesIO(data), 0)) == [data]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_path_to_a_pipe(tmp_path, caplog):
    # A pipe cannot seek back, so it is read whole first; then its lines end
    # where those of a regular file do (here at a lone CR after the header),
    # and its plain rows are read as plain blocks.
    data = b"year,exporter,importer,value\r2000,A,B,1\n2000,B,A,2\n2001,A,B,3\n2001,B,A,4\n"
    fifo, regular = tmp_path / "flows.pipe", tmp_path / "flows.csv"
    os.mkfifo(fifo)
    regular.write_bytes(data)

    def read_pipe():
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            return flow_rows(load_panel(fifo))
        finally:
            writer.join(timeout=10)

    with caplog.at_level(logging.INFO, logger="wnet.ingest"):
        assert read_pipe() == flow_rows(load_panel(regular))
    [note, _] = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert note.startswith("read 4 flow rows (4 in plain blocks")
    with mock.patch.object(ingest, "_read_table", read_table_rowwise):
        assert read_pipe() == flow_rows(load_panel(regular))
