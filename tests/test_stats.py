from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from wnet import (
    DataError,
    annd,
    anns,
    bcc,
    node_degree,
    node_stats,
    node_strength,
    wcc,
)

from wnet.ingest import format_table
from wnet.pipeline import LAYOUT
from wnet.stats import moments_rows

from conftest import make_undirected, random_undirected
from oracles import (
    annd_oracle,
    anns_oracle,
    assert_vectors_match,
    bcc_oracle,
    degree_oracle,
    strength_oracle,
    wcc_oracle,
)


def triangle(weight: float = 1.0):
    w = np.full((3, 3), weight)
    np.fill_diagonal(w, 0.0)
    return make_undirected(w, normalize=False)


def star(leaves: int):
    n = leaves + 1
    w = np.zeros((n, n))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    return make_undirected(w, normalize=False)


def path3():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
    return make_undirected(w, normalize=False)


def test_triangle_all_statistics():
    net = triangle()
    table = node_stats(net)
    assert list(table) == LAYOUT["stats"][0].split(",")
    assert table["nd"].dtype == np.int64
    assert table["nd"].tolist() == [2, 2, 2]
    assert table["ns"].tolist() == [2.0, 2.0, 2.0]
    assert table["annd"].tolist() == [2.0, 2.0, 2.0]
    assert table["anns"].tolist() == [2.0, 2.0, 2.0]
    assert table["bcc"].tolist() == [1.0, 1.0, 1.0]
    assert table["wcc"].tolist() == [1.0, 1.0, 1.0]


def test_star_statistics():
    net = star(4)
    nd = node_degree(net)
    assert nd[0] == 4 and set(nd[1:].tolist()) == {1}
    a = annd(net)
    assert a[0] == 1.0  # leaves all have degree 1
    assert (a[1:] == 4.0).all()  # each leaf's only neighbor is the hub
    b = bcc(net)
    assert b[0] == 0.0  # no links among the hub's neighbors
    assert np.isnan(b[1:]).all()  # degree-1 leaves excluded


def test_single_leaf_star_hub_clustering_undefined():
    net = star(1)
    assert np.isnan(bcc(net)).all()
    assert np.isnan(wcc(net)).all()


def test_path_middle_no_triangle():
    net = path3()
    b = bcc(net)
    assert b[1] == 0.0
    assert np.isnan(b[0]) and np.isnan(b[2])


def test_two_nodes_one_unit_link():
    w = np.zeros((2, 2))
    w[0, 1] = w[1, 0] = 1.0
    net = make_undirected(w, normalize=False)
    assert anns(net).tolist() == [1.0, 1.0]
    assert annd(net).tolist() == [1.0, 1.0]


def test_isolated_node_marked_undefined():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 0.5
    w[0, 2] = w[2, 0] = 1.0
    net = make_undirected(w, normalize=False)
    table = node_stats(net)
    assert table["nd"][3] == 0 and table["ns"][3] == 0.0
    assert np.isnan(table["annd"][3]) and np.isnan(table["anns"][3])
    assert np.isnan(table["bcc"][3]) and np.isnan(table["wcc"][3])


def test_uniform_weight_proportionality(rng):
    net = random_undirected(rng, n=9, p=0.6)
    w = np.where(net.weights > 0, 0.37, 0.0)
    uniform = make_undirected(w, normalize=False)
    assert np.allclose(node_strength(uniform), 0.37 * node_degree(uniform))
    assert_vectors_match(anns(uniform), 0.37 * annd(uniform), tol=1e-12)


def test_uniform_triangle_wcc_equals_weight():
    net = triangle(weight=0.125)
    assert wcc(net) == pytest.approx([0.125, 0.125, 0.125])


def test_matrix_formulas_match_oracles(rng):
    for _ in range(25):
        n = int(rng.integers(2, 13))
        net = random_undirected(rng, n=n, p=float(rng.uniform(0.2, 0.9)))
        assert_vectors_match(node_degree(net), degree_oracle(net.adjacency))
        assert_vectors_match(node_strength(net), strength_oracle(net.weights))
        assert_vectors_match(annd(net), annd_oracle(net.adjacency))
        assert_vectors_match(anns(net), anns_oracle(net.adjacency, net.weights))
        assert_vectors_match(bcc(net), bcc_oracle(net.adjacency))
        assert_vectors_match(wcc(net), wcc_oracle(net.adjacency, net.weights))


def test_binary_degeneration(rng):
    for _ in range(10):
        net = random_undirected(rng, n=10, p=0.5, binary=True)
        assert_vectors_match(node_strength(net), node_degree(net), tol=1e-12)
        assert_vectors_match(anns(net), annd(net), tol=1e-12)
        assert_vectors_match(wcc(net), bcc(net), tol=1e-12)


def test_strength_bounded_by_degree(rng):
    for _ in range(10):
        net = random_undirected(rng, n=12, p=0.5)
        nd = node_degree(net)
        ns = node_strength(net)
        assert (ns <= nd + 1e-12).all()
        # equality exactly where every incident weight is 1
        all_ones = [
            bool(net.adjacency[i].sum() > 0)
            and bool((net.weights[i][net.adjacency[i] == 1] == 1.0).all())
            for i in range(len(nd))
        ]
        for i, flag in enumerate(all_ones):
            assert (ns[i] == nd[i]) == (flag or nd[i] == 0)


def test_permutation_equivariance(rng):
    net = random_undirected(rng, n=11, p=0.5)
    perm = rng.permutation(11)
    permuted = make_undirected(net.weights[np.ix_(perm, perm)], normalize=False)
    for fn in (node_degree, node_strength, annd, anns, bcc, wcc):
        assert_vectors_match(fn(permuted), np.asarray(fn(net), dtype=float)[perm], tol=1e-12)


def test_bcc_range(rng):
    for _ in range(10):
        net = random_undirected(rng, n=10, p=0.6)
        b = bcc(net)
        defined = b[~np.isnan(b)]
        assert ((defined >= 0) & (defined <= 1)).all()


def test_stats_csv_layout():
    net = star(2)
    text = format_table(LAYOUT["stats"][0], *node_stats(net).values())
    lines = text.strip().split("\n")
    assert lines[0] == "country,nd,ns,annd,anns,bcc,wcc"
    assert lines[1].startswith("N000,2,")
    # leaf row: bcc and wcc cells empty
    assert lines[2].endswith(",,")


def test_format_table_cells():
    floats = [math.nan, -0.0, math.inf, -math.inf, 5e-324, 0.1 + 0.2, np.float64(2.5)]
    text = format_table(
        "x,n,s",
        np.array(floats),
        [np.int64(7), 0, -3, 2**53 + 1, np.int64(-1), 12, 5],
        ["C1", "a b", "", "nan", "1.0", "x", "y"],
    )
    assert text == (
        "x,n,s\n"
        ",7,C1\n"
        "-0.0,0,a b\n"
        "inf,-3,\n"
        "-inf,9007199254740993,nan\n"
        "5e-324,-1,1.0\n"
        "0.30000000000000004,12,x\n"
        "2.5,5,y\n"
    )
    # A list of numpy floats is a float column: no cell reads np.float64(...).
    assert format_table("v", [np.float64(0.1), 1.5, math.nan]) == "v\n0.1\n1.5\n\n"
    assert format_table("v") == "v\n"
    with pytest.raises(ValueError):
        format_table("a,b", [1.0, 2.0], ["x"])
    # A label that holds a comma, a double quote, CR or LF is quoted, inner
    # quotes doubled; a trailing NUL stays; numbers are never quoted.
    labels = ("Korea, Rep.", 'say "hi"', "a\rb", "a\nb", "a\x00", "plain")
    assert format_table("s,n", labels, range(6)) == (
        's,n\n"Korea, Rep.",0\n"say ""hi""",1\n"a\rb",2\n"a\nb",3\na\x00,4\nplain,5\n'
    )


def repr_table(header: str, *columns) -> str:
    """``format_table`` of float columns as one ``repr`` a cell writes it: the oracle."""
    cells = [["" if v != v else repr(v) for v in np.asarray(c).tolist()] for c in columns]
    return "\n".join([header, *map(",".join, zip(*cells, strict=True))]) + "\n"


def test_float_cells_are_repr_on_any_bits():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # Bit patterns bring NaN payloads, both infinities, subnormals and -0.0.
    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.lists(st.integers(0, 2**64 - 1)), st.lists(st.floats()))
    def check(bits, floats):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert format_table("x", values) == repr_table("x", values)
        assert format_table("x", floats) == repr_table("x", floats)

    check()


def test_float_cells_are_repr():
    rng = np.random.default_rng(20261019)
    bits = np.frombuffer(rng.bytes(8 * 10**6), np.float64)
    mantissas = [repr(m) for m in [1.0, 9.999999999999998, *rng.uniform(1, 10, 20).tolist()]]
    decades = np.array([float(f"{sign}{m}e{k}") for k in range(-324, 309) for m in mantissas
                        for sign in "+-"])
    decades = np.concatenate([decades, np.nextafter(decades, 0), np.nextafter(decades, np.inf)])
    # Where repr switches form: 1e-4 and 1e16 with their neighbours, the
    # largest double below 1e16 and the smallest subnormal.
    switches = np.array([1e-4, 1e16, 9999999999999998.0, 5e-324])
    switches = np.concatenate([switches, np.nextafter(switches, 0), np.nextafter(switches, np.inf)])
    switches = np.concatenate([switches, -switches])
    for values in (bits, decades, switches):
        assert format_table("x", values) == repr_table("x", values)
    # Columns as callers pass them: a reversed view (as rank_size_rows' sizes),
    # columns of a 2-D array, float32, an empty column, numpy floats in a list.
    grid = np.geomspace(1e-6, 1e18, 3000).reshape(1000, 3)
    for columns in (
        (decades[::-1],), (grid[:, 1], grid[:, 2]), (grid[:, 0].astype(np.float32),),
        (np.array([]),), ([],), ([np.float64(v) for v in switches],),
    ):
        assert format_table("a", *columns) == repr_table("a", *columns)


def test_moments_closed_form():
    m = moments_rows(np.array([[1.0, 2.0, 3.0]]))
    assert m["mean"][0] == pytest.approx(2.0)
    assert m["std"][0] == pytest.approx(math.sqrt(2.0 / 3.0))
    assert m["count"][0] == 3


def test_moments_skips_undefined():
    m = moments_rows(np.array([[1.0, np.nan, 2.0, 3.0, np.nan]]))
    assert m["count"][0] == 3
    assert m["mean"][0] == pytest.approx(2.0)


def test_moments_constant_vector():
    m = moments_rows(np.array([[5.0, 5.0, 5.0]]))
    assert m["std"][0] == 0.0
    assert math.isnan(m["skewness"][0]) and math.isnan(m["kurtosis"][0])


def test_moments_too_few():
    with pytest.raises(DataError, match=">= 2"):
        moments_rows(np.array([[1.0, np.nan]]))


def test_moments_monte_carlo_normal():
    sample = np.random.default_rng(42).standard_normal(100_000)
    m = moments_rows(sample[None])
    assert abs(m["skewness"][0]) < 0.05
    assert abs(m["kurtosis"][0] - 3.0) < 0.1


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-107, 1e-80, 1e80, 1e200, 1e300])
def test_moments_at_extreme_scales_are_those_at_scale_one(scale):
    # Third and fourth powers of these deviations leave the normal range: at
    # 1e-80 the fourth powers are subnormal, at 1e-107 they are 0, and at
    # 1e80 std**4 overflows.  The row's twin at scale 1 differs from it by an
    # exact power of two, so it must get the same skewness and kurtosis.
    row = np.array([[1.0, 2.0, 3.0, 5.0]]) * scale
    exponent = math.frexp(scale)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = moments_rows(row), moments_rows(np.ldexp(row, -exponent))
    for name in ("skewness", "kurtosis"):
        assert abs(got[name][0] - want[name][0]) <= np.spacing(want[name][0]), name
    assert got["skewness"][0] == pytest.approx(0.43465076, rel=1e-8)
    assert got["kurtosis"][0] == pytest.approx(1.84571429, rel=1e-8)
    assert got["std"][0] == np.ldexp(want["std"][0], exponent)


def test_moments_of_a_row_whose_sum_overflows():
    # The sum of this row is above the float range, so its plain mean is inf;
    # its copy scaled by 2**-4 sums to a finite value.  Both are scaled by a
    # power of two before the mean, so their moments differ by exactly 2**4.
    row = np.array([[1.7e308, 1.7e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, copy = moments_rows(row), moments_rows(np.ldexp(row, -4))
    assert got["mean"][0] == np.ldexp(copy["mean"][0], 4) and math.isfinite(got["mean"][0])
    assert got["std"][0] == np.ldexp(copy["std"][0], 4) and math.isfinite(got["std"][0])
    # Two equal values and one smaller: skewness -1/sqrt(2), kurtosis 3/2.
    assert got["skewness"][0] == pytest.approx(-1 / math.sqrt(2), rel=1e-12)
    assert got["kurtosis"][0] == pytest.approx(1.5, rel=1e-12)
    assert got["count"].tolist() == [3]
