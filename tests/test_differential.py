"""Differential tests of the node statistics against networkx.

networkx's ``clustering`` and ``average_neighbor_degree`` are independent
implementations that loop over neighbour sets.  Its weighted clustering is
the Onnela et al. geometric-mean definition on max-normalised weights,
which is wnet's WCC.  networkx reports 0 where wnet reports NaN (isolated
nodes, degree <= 1), so those nodes are checked separately and left out of
the value comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from wnet import annd, bcc, node_degree, wcc

from conftest import random_undirected

nx = pytest.importorskip("networkx")

#: A sparse case (mean degree about 2, so isolated and degree-1 nodes occur)
#: and a dense one at each size.
CASES = [(n, p) for n in (50, 159) for p in (2 / n, 0.4)]


def network(n: int, p: float):
    return random_undirected(np.random.default_rng(n), n, p)


def network_and_graph(n: int, p: float):
    net = network(n, p)
    return net, nx.from_numpy_array(net.weights)


def compare_defined(ours: np.ndarray, reference: dict, defined: np.ndarray):
    """Values at defined nodes, after checking NaN marks exactly the rest."""
    assert (np.isnan(ours) == ~defined).all()
    theirs = np.array([reference[i] for i in range(len(ours))], dtype=float)
    return ours[defined], theirs[defined]


@pytest.mark.parametrize("n,p", CASES)
def test_bcc_equals_networkx_clustering(n, p):
    net, graph = network_and_graph(n, p)
    ours, theirs = compare_defined(bcc(net), nx.clustering(graph), node_degree(net) > 1)
    assert ours.size > 0
    assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("n,p", CASES)
def test_annd_equals_networkx_average_neighbor_degree(n, p):
    net, graph = network_and_graph(n, p)
    ours, theirs = compare_defined(
        annd(net), nx.average_neighbor_degree(graph), node_degree(net) > 0
    )
    assert ours.size > 0
    assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("n,p", CASES)
def test_wcc_matches_networkx_weighted_clustering(n, p):
    net, graph = network_and_graph(n, p)
    assert net.weights.max() == 1.0
    ours, theirs = compare_defined(
        wcc(net), nx.clustering(graph, weight="weight"), node_degree(net) > 1
    )
    assert ours.size > 0
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


def test_sparse_cases_include_undefined_nodes():
    """The sparse cases must exercise the NaN exclusion for every statistic."""
    for n, p in CASES:
        if p < 0.4:
            nd = node_degree(network(n, p))
            assert (nd == 0).any() and (nd == 1).any()
