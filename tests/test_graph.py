from __future__ import annotations

import math

import numpy as np
import pytest

from wnet import (
    DataError,
    DirectedTradeNetwork,
    PipelineConfig,
    ValidationError,
    WeightScheme,
    WeightVariant,
    build_directed,
    run_pipeline,
    save_panel,
    symmetrize,
    symmetry_index,
)
from wnet.pipeline import bundle_names, read_bundle

from conftest import panel_from_rows, random_panel, rescaled_panel
from oracles import frobenius_oracle


def panel_of(flows, sizes=None):
    if sizes is None:
        countries = {f[1] for f in flows} | {f[2] for f in flows}
        sizes = [(flows[0][0], c, 1000.0) for c in sorted(countries)]
    return panel_from_rows(flows, sizes)


def test_build_exporter_gdp_weight():
    panel = panel_of([(2000, "A", "B", 100.0)])
    net = build_directed(panel, 2000, WeightScheme())
    i, j = panel.codes.index("A"), panel.codes.index("B")
    assert net.adjacency[i, j] == 1
    assert net.weights[i, j] == pytest.approx(0.1)
    assert net.adjacency[j, i] == 0 and net.weights[j, i] == 0


def test_build_importer_gdp_and_raw():
    flows = [(2000, "A", "B", 100.0)]
    sizes = [(2000, "A", 1000.0), (2000, "B", 500.0)]
    panel = panel_from_rows(flows, sizes)
    i, j = panel.codes.index("A"), panel.codes.index("B")
    importer = build_directed(panel, 2000, WeightScheme(WeightVariant.IMPORTER_GDP))
    assert importer.weights[i, j] == pytest.approx(0.2)
    raw = build_directed(panel, 2000, WeightScheme(WeightVariant.RAW))
    assert raw.weights[i, j] == 100.0


def test_build_zero_flow_makes_no_link():
    panel = panel_of([(2000, "A", "B", 0.0), (2000, "B", "A", 5.0)])
    net = build_directed(panel, 2000, WeightScheme())
    i, j = panel.codes.index("A"), panel.codes.index("B")
    assert net.adjacency[i, j] == 0 and net.weights[i, j] == 0
    assert net.adjacency[j, i] == 1


def test_build_threshold_is_strict():
    flows = [(2000, "A", "B", 5.0), (2000, "B", "A", 50.0)]
    panel = panel_of(flows)
    net = build_directed(panel, 2000, WeightScheme(threshold=10.0))
    i, j = panel.codes.index("A"), panel.codes.index("B")
    assert net.adjacency[i, j] == 0 and net.weights[i, j] == 0
    assert net.adjacency[j, i] == 1
    at_cut = build_directed(panel, 2000, WeightScheme(threshold=5.0))
    assert at_cut.adjacency[i, j] == 0  # strictly greater than the threshold


def test_build_errors():
    panel = panel_of([(2000, "A", "B", 5.0)])
    with pytest.raises(DataError, match="year 1999"):
        build_directed(panel, 1999, WeightScheme())
    with pytest.raises(DataError, match="threshold"):
        build_directed(panel, 2000, WeightScheme(threshold=10.0))


def test_build_missing_gdp_names_country():
    flows = [(2000, "A", "B", 5.0), (2000, "B", "A", 5.0)]
    panel = panel_from_rows(flows, [(2000, "A", 1000.0)])
    with pytest.raises(DataError, match="exporter-gdp missing for B"):
        build_directed(panel, 2000, WeightScheme())
    with pytest.raises(DataError, match="importer-gdp missing for B"):
        build_directed(panel, 2000, WeightScheme(WeightVariant.IMPORTER_GDP))
    build_directed(panel, 2000, WeightScheme(WeightVariant.RAW))  # no GDP needed


def test_missing_gdp_only_fatal_if_divided_by():
    # B only imports: exporter-GDP never divides by B's GDP.
    flows = [(2000, "A", "B", 5.0)]
    panel = panel_from_rows(flows, [(2000, "A", 1000.0)])
    net = build_directed(panel, 2000, WeightScheme())
    assert net.n_links == 1
    with pytest.raises(DataError, match="B"):
        build_directed(panel, 2000, WeightScheme(WeightVariant.IMPORTER_GDP))


def test_negative_threshold_rejected():
    with pytest.raises(ValidationError):
        WeightScheme(threshold=-1.0)


def test_symmetrize_single_one_way_link():
    panel = panel_of([(2000, "A", "B", 200.0)])
    net = build_directed(panel, 2000, WeightScheme())  # w~_AB = 0.2
    und = symmetrize(net)
    i, j = panel.codes.index("A"), panel.codes.index("B")
    assert und.normalizer == pytest.approx(0.1)
    assert und.weights[i, j] == 1.0 and und.weights[j, i] == 1.0
    assert und.adjacency[i, j] == 1 and und.adjacency[j, i] == 1


def test_symmetrize_link_union():
    # a~_AB = 1, a~_BA = 0 still yields an undirected link both ways.
    flows = [(2000, "A", "B", 5.0), (2000, "A", "C", 1.0)]
    panel = panel_of(flows)
    und = symmetrize(build_directed(panel, 2000, WeightScheme()))
    assert (und.adjacency == und.adjacency.T).all()
    assert und.adjacency[panel.codes.index("B"), panel.codes.index("A")] == 1


def test_symmetrize_symmetric_input_is_fixed_point(rng):
    panel = random_panel(rng, n=6, p=1.0)  # complete directed graph
    net = build_directed(panel, 2000, WeightScheme(WeightVariant.RAW))
    sym_weights = 0.5 * (net.weights + net.weights.T)
    und = symmetrize(net)
    expected = sym_weights / sym_weights.max()
    assert np.allclose(und.weights, expected, rtol=0, atol=1e-15)
    assert und.weights.max() == 1.0


def test_symmetrize_contract_random(rng):
    for _ in range(10):
        panel = random_panel(rng, n=9, p=0.4)
        und = symmetrize(build_directed(panel, 2000, WeightScheme()))
        assert (und.weights == und.weights.T).all()
        assert (und.adjacency == und.adjacency.T).all()
        assert (und.weights.diagonal() == 0).all()
        assert und.weights.max() == 1.0
        assert ((und.weights > 0) == (und.adjacency == 1)).all()


def test_scale_invariance(rng):
    panel = random_panel(rng, n=8, p=0.5)
    base = symmetrize(build_directed(panel, 2000, WeightScheme()))
    factor = 137.5
    rescaled = symmetrize(build_directed(rescaled_panel(panel, factor), 2000, WeightScheme()))
    assert (base.adjacency == rescaled.adjacency).all()
    assert np.allclose(base.weights, rescaled.weights, rtol=0, atol=1e-12)
    assert rescaled.normalizer == pytest.approx(base.normalizer * factor)


def test_threshold_monotonicity(rng):
    panel = random_panel(rng, n=10, p=0.6)
    thresholds = [0.0, 1e3, 1e4, 1e5, 1e6]
    counts = []
    for t in thresholds:
        try:
            counts.append(build_directed(panel, 2000, WeightScheme(threshold=t)).n_links)
        except DataError:
            counts.append(0)
    assert counts == sorted(counts, reverse=True)


def test_symmetry_index_symmetric_zero():
    flows = [(2000, "A", "B", 7.0), (2000, "B", "A", 7.0)]
    panel = panel_of(flows)
    net = build_directed(panel, 2000, WeightScheme(WeightVariant.RAW))
    assert symmetry_index(net) == 0.0


def test_symmetry_index_one_way_is_one():
    panel = panel_of([(2000, "A", "B", 7.0)])
    net = build_directed(panel, 2000, WeightScheme(WeightVariant.RAW))
    assert symmetry_index(net) == pytest.approx(1.0)


def test_symmetry_index_three_to_one_ratio():
    # w~_AB = 3, w~_BA = 1: hand-computed Frobenius ratio is 0.5.
    flows = [(2000, "A", "B", 3.0), (2000, "B", "A", 1.0)]
    panel = panel_of(flows)
    net = build_directed(panel, 2000, WeightScheme(WeightVariant.RAW))
    expected = frobenius_oracle(net.weights - net.weights.T) / frobenius_oracle(
        net.weights + net.weights.T
    )
    assert expected == pytest.approx(0.5)
    assert symmetry_index(net) == pytest.approx(expected, abs=1e-12)


def test_symmetry_index_matches_oracle_random(rng):
    for _ in range(5):
        panel = random_panel(rng, n=7, p=0.5)
        net = build_directed(panel, 2000, WeightScheme())
        expected = frobenius_oracle(net.weights - net.weights.T) / frobenius_oracle(
            net.weights + net.weights.T
        )
        assert symmetry_index(net) == pytest.approx(expected, abs=1e-12)


def test_symmetry_index_scale_invariant(rng):
    panel = random_panel(rng, n=7, p=0.5)
    net = build_directed(panel, 2000, WeightScheme(WeightVariant.RAW))
    scaled_net = build_directed(
        rescaled_panel(panel, 9.25), 2000, WeightScheme(WeightVariant.RAW)
    )
    assert symmetry_index(scaled_net) == pytest.approx(symmetry_index(net), abs=1e-12)


@pytest.mark.parametrize("exponent", [-560, 520, 1020])
def test_symmetry_index_is_exact_at_any_power_of_two_scale(exponent):
    # Unscaled, the squared norms underflow to 0 at 2**-560 and overflow at
    # 2**520; scaled by a power of two first, the index keeps every bit.
    flows = [(2000, "A", "B", 3.0), (2000, "B", "A", 1.0), (2000, "B", "C", 2.5)]
    scheme = WeightScheme(WeightVariant.RAW)
    base = symmetry_index(build_directed(panel_of(flows), 2000, scheme))
    scaled = [(y, a, b, math.ldexp(v, exponent)) for y, a, b, v in flows]
    assert symmetry_index(build_directed(panel_of(scaled), 2000, scheme)) == base


def link_tables(tmp_path, panel, scheme=WeightScheme()):
    """The manifest and the ``links_<year>.csv`` columns of a ``links`` run over
    ``panel``, read back through ``read_bundle``."""
    flows, sizes = tmp_path / "flows.csv", tmp_path / "gdp.csv"
    save_panel(panel, flows, sizes)
    config = PipelineConfig(flows, sizes, scheme, panel.years, tmp_path / "out",
                            analyses=frozenset({"links"}))
    run_pipeline(config)
    return read_bundle(config.out_dir, bundle_names(config.analyses, panel.years))


def test_link_table_round_trip(tmp_path, rng):
    panel = random_panel(rng, n=8, p=0.5)
    und = symmetrize(build_directed(panel, 2000, WeightScheme()))
    manifest, files = link_tables(tmp_path, panel)
    table = files["links", 2000]
    i, j = (np.array([panel.codes.index(c) for c in table[k]]) for k in ("country_i", "country_j"))
    assert list(zip(i, j)) == sorted(zip(i, j)) and (i < j).all()  # in code order, each pair once
    assert und.adjacency[i, j].all() and len(i) == und.adjacency.sum() // 2  # every link
    assert manifest["normalizers"] == {"2000": und.normalizer}  # bit-exact
    assert np.array_equal(table["weight"].view(np.uint64), und.weights[i, j].view(np.uint64))


def test_link_table_cells_are_the_shortest_round_trip_digits(tmp_path):
    # Raw weights over 600 decades: the maximum's 1.0, cells below 1e-4 (which
    # repr writes in scientific form), a subnormal, and a link whose weight
    # underflows to 0.0, which is still listed.
    flows = [
        (2000, "A", "B", 1e300), (2000, "B", "A", 1e300), (2000, "A", "C", 3e295),
        (2000, "C", "D", 7e-10), (2000, "B", "D", 1e-300), (2000, "E", "A", 0.3),
    ]
    panel, scheme = panel_of(flows), WeightScheme(WeightVariant.RAW)
    und = symmetrize(build_directed(panel, 2000, scheme))
    i, j = np.nonzero(np.triu(und.adjacency, 1))
    weights = und.weights[i, j]
    assert 1.0 in weights and 0.0 in weights and ((weights > 0) & (weights < 1e-4)).sum() == 3
    assert ((weights > 0) & (weights < 2.0**-1022)).any()  # a subnormal
    _, files = link_tables(tmp_path, panel, scheme)
    text = (tmp_path / "out" / "links_2000.csv").read_text(encoding="utf-8")
    assert text.splitlines() == ["country_i,country_j,weight", *(
        f"{panel.codes[a]},{panel.codes[b]},{w!r}" for a, b, w in zip(i, j, weights.tolist())
    )]
    assert np.array_equal(files["links", 2000]["weight"].view(np.uint64), weights.view(np.uint64))


def test_symmetrize_rejects_linkless_network():
    from wnet import DirectedTradeNetwork

    empty = DirectedTradeNetwork(
        2000, ("A", "B"), np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2))
    )
    with pytest.raises(DataError, match="no links"):
        symmetrize(empty)
    with pytest.raises(DataError, match="without links"):
        symmetry_index(empty)


def test_a_weight_that_overflows_is_a_data_error():
    # 1e10 over a GDP of 1e-300 is infinite, and W would be NaN.
    panel = panel_from_rows(
        [(2000, "A", "B", 1e10), (2000, "B", "A", 5.0)], [(2000, "A", 1e-300), (2000, "B", 1.0)]
    )
    message = r"^year 2000: a link weight overflows to infinity$"
    with pytest.raises(DataError, match=message):
        build_directed(panel, 2000, WeightScheme())
    # symmetrize keeps its own check, for a network built otherwise.
    weights = np.array([[0.0, np.inf], [5.0, 0.0]])
    net = DirectedTradeNetwork(2000, panel.codes, (weights > 0).astype(np.int64), weights)
    with pytest.raises(DataError, match=message):
        symmetrize(net)
