"""Property test: the reader turns any input into a panel or a DataError."""

from __future__ import annotations

import operator

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wnet import DataError, load_panel  # noqa: E402

_year = st.integers(1998, 2001).map(str)
_code = st.sampled_from(["A", "B", " C ", "D", "E"])
_value = st.floats(0, 1e12).map(repr)
_odd_line = st.lists(
    st.text(max_size=4) | st.sampled_from(['"A,B"', '"', "", "-1", "nan", "1e400", "\r", "\x00"]),
    max_size=5,
).map(",".join) | st.sampled_from(["# note", ""])


def _table(header: str, codes_per_row: int):
    """Raw bytes, or a valid header, well-formed rows, at most one odd line
    among them, and sometimes a few raw bytes after them."""
    codes = st.lists(_code, min_size=codes_per_row, max_size=codes_per_row, unique=True)
    row = st.tuples(_year, codes.map(",".join), _value).map(",".join)
    lines = st.builds(
        lambda rows, odd, at: rows[:at] + odd + rows[at:],
        st.lists(row, max_size=6),
        st.lists(_odd_line, max_size=1),
        st.integers(0, 6),
    )
    text = lines.map(lambda body: (header + "\n" + "\n".join(body) + "\n").encode())
    return st.binary(max_size=80) | text | st.builds(operator.add, text, st.binary(max_size=4))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    _table("year,exporter,importer,value", 2), st.none() | _table("year,country,gdp", 1)
)
def test_load_panel_returns_panel_or_data_error(flows, sizes):
    try:
        panel = load_panel(flows, sizes)
    except DataError:
        return
    assert list(panel.years) == sorted(set(panel.years))
    assert list(panel.codes) == sorted(panel.codes)
    assert panel.gdp.shape == (len(panel.years), len(panel.codes))
