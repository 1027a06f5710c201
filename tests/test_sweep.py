import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_ids
from netcent import (CascadeConfig, closeness_centrality,
                     preferential_attachment, random_digraph)
from netcent import sweep
from netcent.simulate import _trial_counts


@st.composite
def path_graphs(draw):
    """Graphs on <= 80 nodes: random edges over a directed path prefix, so
    long narrow levels, lanes past 64 sources and isolated nodes occur."""
    n = draw(st.integers(1, 80))
    node = st.integers(0, n - 1)
    pairs = set(draw(st.lists(st.tuples(node, node), max_size=40)))
    pairs |= {(i, i + 1) for i in range(draw(st.integers(0, n)) - 1)}
    return graph_from_ids(n, sorted((s, d) for s, d in pairs if s != d))


def traversal_outputs(g):
    """Every consumer of the kernel, as exact values."""
    first, last = g.labels[0], g.labels[-1]
    cascade = CascadeConfig(seeds=(first,), p=0.5, trials=70, seed=4)
    reach = CascadeConfig(seeds=(first,), model="reachability")
    return [closeness_centrality(g, mode="exact").scores,
            closeness_centrality(g, mode="sampled", sample_size=g.n,
                                 seed=1).scores,
            closeness_centrality(g, mode="sampled",
                                 sample_size=(g.n + 1) // 2, seed=2).scores,
            *_trial_counts(g, cascade, [[last]]),
            *_trial_counts(g, reach, [[last]])]


@given(path_graphs())
@settings(max_examples=60, deadline=None)
def test_push_and_pull_reach_the_same_words(g):
    results = []
    for fraction in (0.0, math.inf, sweep.PUSH_FRACTION):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "PUSH_FRACTION", fraction)
            results.append(traversal_outputs(g))
    pulled, pushed, mixed = results
    for a, b, c in zip(pulled, pushed, mixed):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_levels_yield_first_reach_per_traversal():
    # 0 -> 1 -> 2 and 3 -> 2: traversal 0 starts at 0, traversal 1 at 3
    g = graph_from_ids(5, [(0, 1), (1, 2), (3, 2)])
    got = [(nodes.tolist(), words.tolist()) for nodes, words in
           sweep.Sweep(g).levels(np.array([0, 3]), sweep.unit_words(2))]
    assert got == [([1, 2], [1, 2]), ([2], [1])]


@pytest.mark.parametrize("size", [0, 1, 9, 300])
def test_popcounts_and_bit_counts_match_python_bits(size):
    words = np.random.default_rng(size).integers(
        0, 2**64 - 1, size, dtype=np.uint64, endpoint=True)
    ints = [int(w) for w in words]
    assert sweep.popcounts(words).tolist() == [bin(w).count("1") for w in ints]
    assert sweep.bit_counts(words).tolist() == [
        sum(w >> j & 1 for w in ints) for j in range(64)]


@given(st.lists(st.integers(0, 5), max_size=30), st.data())
@settings(max_examples=200, deadline=None)
def test_out_edges_lists_each_nodes_edges_with_its_owner(degrees, data):
    """Random CSRs with zero-fanout nodes; ``nodes`` may be empty, and
    need be neither sorted nor distinct."""
    out_ptr = np.concatenate(([0], np.cumsum(degrees, dtype=np.int64)))
    nodes = np.array(data.draw(st.lists(st.integers(0, len(degrees) - 1),
                                        max_size=40) if degrees
                               else st.just([])), dtype=np.int64)
    fanout = np.diff(out_ptr)[nodes]
    edges, owner = sweep.out_edges(out_ptr, nodes, fanout)
    # the form out_edges had before it returned each edge's owner
    before = np.repeat(out_ptr[nodes] - np.cumsum(fanout) + fanout, fanout)
    before += np.arange(before.size)
    assert edges.tolist() == before.tolist() == [
        e for v in nodes.tolist() for e in range(out_ptr[v], out_ptr[v + 1])]
    assert owner.tolist() == np.repeat(np.arange(len(nodes)), fanout).tolist()


@pytest.mark.parametrize("g", [graph_from_ids(1, []),
                               graph_from_ids(4, [(2, 0), (0, 1), (3, 0)]),
                               preferential_attachment(3_000, 10, seed=4),
                               random_digraph(5_000, 7_500, seed=5)],
                         ids=["no-edges", "tiny", "hubs", "sparse"])
def test_in_order_matches_a_stable_sort_by_destination(g):
    """The in-adjacency and ``Sweep.out_to_in`` sort (dst, src) keys,
    which are distinct, so any sort gives the stable sort's order."""
    src, dst, w = g.edge_arrays()
    # the edges ascend by (src, dst), so a stable sort by dst alone
    # orders them by (dst, src)
    order = np.argsort(dst, kind="stable")
    assert np.array_equal(g.in_src, src[order])
    assert np.array_equal(g.in_w, w[order])
    out_to_in = np.empty(g.num_edges, dtype=np.int64)
    out_to_in[order] = np.arange(g.num_edges)
    assert np.array_equal(sweep.Sweep(g).out_to_in, out_to_in)
