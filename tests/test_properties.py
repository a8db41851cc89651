"""Properties of the statistics under relabelling and rescaling of the input.

Each panel goes through ``load_panel``, so the sorted codes, the scatter build
and the symmetrization are all exercised, not only the statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wnet import WeightScheme, WeightVariant, build_directed, node_stats, symmetrize  # noqa: E402

from conftest import panel_from_rows  # noqa: E402

STATISTICS = ("nd", "ns", "annd", "anns", "bcc", "wcc")


@st.composite
def panel_rows(draw):
    """Flow and GDP rows over 3-8 countries and one or two years; every year
    has at least one flow."""
    codes = [f"K{i}" for i in range(draw(st.integers(3, 8)))]
    years = draw(st.sampled_from([(2000,), (1999, 2000)]))
    flows = []
    for year in years:
        for a in codes:
            for b in codes:
                if a != b and ((a, b) == (codes[0], codes[1]) or draw(st.booleans())):
                    flows.append((year, a, b, draw(st.floats(1e-3, 1e12))))
    sizes = [(year, c, draw(st.floats(1e6, 1e13))) for year in years for c in codes]
    return codes, flows, sizes


def networks(panel, scheme):
    return [symmetrize(build_directed(panel, year, scheme)) for year in panel.years]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(panel_rows(), st.data())
def test_relabelling_permutes_the_node_statistics(rows, data):
    codes, flows, sizes = rows
    names = data.draw(
        st.lists(st.text("ABXYZ", min_size=1, max_size=3), min_size=len(codes),
                 max_size=len(codes), unique=True)
    )
    rename = dict(zip(codes, names))
    panel = panel_from_rows(flows, sizes)
    relabelled = panel_from_rows(
        [(y, rename[a], rename[b], v) for y, a, b, v in flows],
        [(y, rename[c], g) for y, c, g in sizes],
    )
    # Node i of the panel is node perm[i] of the relabelled one.
    perm = [relabelled.codes.index(rename[c]) for c in panel.codes]
    for net, other in zip(networks(panel, WeightScheme()), networks(relabelled, WeightScheme())):
        assert np.array_equal(net.weights, other.weights[np.ix_(perm, perm)])
        table, moved = node_stats(net), node_stats(other)
        for name in ("nd", "annd", "bcc"):  # integer arithmetic: exact
            assert np.array_equal(table[name], moved[name][perm], equal_nan=True)
        for name in ("ns", "anns", "wcc"):  # sums taken in another order
            np.testing.assert_allclose(table[name], moved[name][perm], rtol=1e-12, atol=0)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    panel_rows(),
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.sampled_from([WeightVariant.EXPORTER_GDP, WeightVariant.IMPORTER_GDP, WeightVariant.RAW]),
)
def test_power_of_two_rescaling_changes_no_bit(rows, flow_exp, gdp_exp, variant):
    _, flows, sizes = rows
    scheme = WeightScheme(variant)
    panel = panel_from_rows(flows, sizes)
    scaled = panel_from_rows(
        [(y, a, b, v * 2.0**flow_exp) for y, a, b, v in flows],
        [(y, c, g * 2.0**gdp_exp) for y, c, g in sizes],
    )
    for net, other in zip(networks(panel, scheme), networks(scaled, scheme)):
        assert net.weights.tobytes() == other.weights.tobytes()
        table, rescaled = node_stats(net), node_stats(other)
        for name in STATISTICS:
            assert table[name].tobytes() == rescaled[name].tobytes(), name
