import errno
import hashlib
import logging
import math
import os
import select
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (assert_no_child_left, graph_from_ids,
                      random_edge_list, random_graph, strongly_connected_graph,
                      use_cpus)
from netcent import (DataError, DirectedGraph, InvalidParameter, PcConfig,
                     PowerIterationConfig, ZeroMatrix,
                     betweenness_centrality, closeness_centrality,
                     degree_centrality, dic, eigenvector_centrality,
                     from_edges, preferential_attachment,
                     propagation_centrality, random_digraph, top_k)
from netcent import traditional
from netcent.rng import stream
from netcent.traditional import (_brandes_from_source, _pick_pivots,
                                 power_iterate, worker_count)

# module constants that force each way of building a Brandes tier
PULL_RULES = {"push": {"PULL_MIN_EDGES": math.inf},
              "pull": {"PULL_MIN_EDGES": 0, "PULL_NODE_COST": -math.inf},
              "default": {}}
# sources per batched Brandes pass; 1 is the per-source kernel
WIDTHS = (1, 2, 3, 64)


def open_fds():
    """This process's open fds, or None where there is no /proc to list."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    return sorted(os.listdir("/proc/self/fd"))


def force_width(mp, width):
    """Make betweenness run ``width`` sources per level pass."""
    mp.setattr(traditional, "_batch_width", lambda _: width)


@st.composite
def brandes_graphs(draw):
    """Digraphs on <= 60 nodes with diamonds (a -> b_i -> d for 2..5
    middles b_i, so several tier edges reach one new node and path counts
    leave thirds and fifths), sink sources, isolated nodes and a part the
    rest cannot reach: no edge runs from below ``cut`` to at or above it."""
    n = draw(st.integers(1, 60))
    node = st.integers(0, n - 1)
    pairs = set(draw(st.lists(st.tuples(node, node), max_size=150)))
    for a, d, middle in draw(st.lists(
            st.tuples(node, node, st.lists(node, min_size=2, max_size=5)),
            max_size=10)):
        pairs |= {(a, b) for b in middle} | {(b, d) for b in middle}
    sinks = draw(st.sets(node, max_size=6))
    isolated = draw(st.sets(node, max_size=3))
    cut = draw(st.integers(0, n))
    edges = sorted((s, d) for s, d in pairs
                   if s != d and s not in sinks and s not in isolated
                   and d not in isolated and not s < cut <= d)
    return graph_from_ids(n, edges)


def layered_dag(layers, size, seed):
    """``layers`` levels of ``size`` nodes, each node pointing at 2 to 6
    seeded nodes of the next level. Returns the graph and the exact
    number of paths from node 0 to each node."""
    rng = stream(seed)
    edges = []
    for level in range(layers - 1):
        below = (level + 1) * size
        for a in range(level * size, below):
            heads = rng.choice(size, size=int(rng.integers(2, 7)),
                               replace=False)
            edges += [(a, below + int(b)) for b in heads]
    paths = [1] + [0] * (layers * size - 1)
    for a, b in sorted(edges):
        paths[b] += paths[a]
    return graph_from_ids(layers * size, edges), paths


def tail_into_core(core):
    """A 30-node path into a hub, which points at every node of a complete
    digraph on ``core`` nodes; each core node also points at 5 seeded
    nodes of a 100-node fringe, and the fringe is a path back to the tail.

    From a tail node a source's levels are narrow until the core is the
    frontier, whose out-edges nearly all lead back into the core.
    """
    hub = 30
    cores = range(hub + 1, hub + 1 + core)
    fringes = np.arange(hub + 1 + core, hub + 101 + core)
    rng = stream(0)
    edges = {(i, i + 1) for i in range(hub)}
    edges |= {(hub, c) for c in cores}
    edges |= {(a, b) for a in cores for b in cores if a != b}
    edges |= {(c, int(f)) for c in cores
              for f in rng.choice(fringes, size=5, replace=False)}
    edges |= {(int(f), int(f) + 1) for f in fringes[:-1]}
    edges.add((int(fringes[-1]), 0))
    return graph_from_ids(int(fringes[-1]) + 1, sorted(edges))


def count_tiers(mp, g):
    """Count from here on the tiers pushed over g's out-edges and pulled
    over its in-edges: {"push": p, "pull": q}. The traversals run in this
    process, on one usable CPU, so the counts see them."""
    use_cpus(mp, 1)
    counts = {"push": 0, "pull": 0}
    out_edges = traditional.out_edges

    def counted(ptr, nodes, fanout):
        counts["pull" if ptr is g.in_ptr else "push"] += 1
        return out_edges(ptr, nodes, fanout)

    mp.setattr(traditional, "out_edges", counted)
    return counts


# per-edge weight draws. Near the float maximum 1/w is so small that
# fl(d + 1/w) == d once d is not tiny; below about 5.6e-309, 1/w overflows
# to inf and the edge leads nowhere
WEIGHT_DRAWS = {
    "integer": lambda rng, k: rng.integers(1, 9, size=k).astype(float),
    "uniform": lambda rng, k: rng.uniform(0.01, 10.0, size=k),
    "lognormal": lambda rng, k: rng.lognormal(0.0, 8.0, size=k),
    "huge": lambda rng, k: rng.uniform(1e307, np.finfo(float).max, size=k),
    "tiny": lambda rng, k: rng.uniform(5e-324, 5e-309, size=k),
}


@st.composite
def weighted_graphs(draw):
    """Digraphs on <= 40 nodes, possibly edgeless, with a cycle through
    up to 8 drawn nodes and isolated nodes; each edge's weight comes from
    one of up to three drawn WEIGHT_DRAWS, so one graph can mix them."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    pairs = set(draw(st.lists(st.tuples(node, node), max_size=120)))
    ring = draw(st.lists(node, unique=True, max_size=8))
    pairs |= set(zip(ring, ring[1:] + ring[:1]))
    isolated = draw(st.sets(node, max_size=3))
    edges = sorted((s, d) for s, d in pairs
                   if s != d and s not in isolated and d not in isolated)
    kinds = draw(st.lists(st.sampled_from(sorted(WEIGHT_DRAWS)), min_size=1,
                          max_size=3, unique=True))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    kind = rng.integers(len(kinds), size=len(edges))
    weights = np.empty(len(edges))
    for i, name in enumerate(kinds):
        weights[kind == i] = WEIGHT_DRAWS[name](rng, int((kind == i).sum()))
    return graph_from_ids(n, edges, weights=weights)


def weighted_distances(g, pivot):
    """The package's distances to ``pivot`` and the heap oracle's."""
    with np.errstate(over="ignore"):
        cost = 1.0 / g.in_w
        want = oracles.dijkstra_distances(g.in_ptr, g.in_src, g.in_w, pivot,
                                          g.n)
    return (traditional._weighted_distances(g, np.diff(g.in_ptr), cost, pivot),
            want)


class TestDegreeCentrality:
    def test_star_out_mode(self):
        g = from_edges([("c", f"l{i}") for i in range(4)])
        sv = degree_centrality(g, "out")
        scores = dict(zip(sv.labels, sv.scores))
        assert scores["c"] == 4.0
        assert all(scores[f"l{i}"] == 0.0 for i in range(4))

    def test_cycle_symmetric(self, cycle_abc):
        for mode in ("in", "out"):
            assert np.all(degree_centrality(cycle_abc, mode).scores == 1.0)

    def test_matches_degree_oracle(self):
        g, edges = random_graph(30, 120, seed=5)
        ind, outd, total = oracles.degree_counts(edges, 30)
        assert np.array_equal(degree_centrality(g, "in").scores, ind)
        assert np.array_equal(degree_centrality(g, "out").scores, outd)
        assert np.array_equal(degree_centrality(g, "total").scores, total)

    def test_metric_id_carries_mode(self):
        g = from_edges([("a", "b")])
        assert degree_centrality(g, "in").metric == "degree_in"


class TestCloseness:
    def test_directed_path(self, path_abc):
        scores = dict(zip(path_abc.labels,
                          closeness_centrality(path_abc).scores))
        assert scores == {"a": 1.5, "b": 1.0, "c": 0.0}

    def test_two_disconnected_mutual_pairs(self):
        g = from_edges([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
        assert np.all(closeness_centrality(g).scores == 1.0)

    def test_matches_bfs_oracle(self):
        for seed in range(6):
            g, edges = random_graph(40, 200, seed=seed)
            got = closeness_centrality(g, mode="exact").scores
            want = oracles.harmonic_closeness(edges, 40)
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_transpose_measures_reachability_to(self, path_abc):
        scores = dict(zip(path_abc.labels,
                          closeness_centrality(path_abc.transpose()).scores))
        assert scores == {"a": 0.0, "b": 1.0, "c": 1.5}

    def test_sampled_with_all_pivots_matches_exact(self):
        g, _ = random_graph(40, 200, seed=2)
        exact = closeness_centrality(g, mode="exact").scores
        sampled = closeness_centrality(g, mode="sampled", sample_size=40,
                                       seed=1).scores
        assert np.allclose(sampled, exact, atol=1e-9)

    def test_sampled_with_all_pivots_is_bit_identical_to_exact(self):
        for seed in range(4):
            g, _ = random_graph(130, 500, seed=seed)
            exact = closeness_centrality(g, mode="exact").scores
            sampled = closeness_centrality(g, mode="sampled", sample_size=130,
                                           seed=seed).scores
            assert np.array_equal(sampled, exact)

    def test_equal_distance_histograms_tie_in_label_order(self):
        # the three nodes have equal distance histograms; summing 1/d per
        # target in node order used to split them in the last bit
        g = preferential_attachment(300, 3, seed=0)
        sv = closeness_centrality(g, mode="exact")
        tied = ["137", "222", "237"]
        scores = {lab: sv.scores[g.id_of(lab)] for lab in tied}
        assert len(set(scores.values())) == 1
        ranked = [lab for _, lab, _ in top_k(sv, g.n).entries if lab in tied]
        assert ranked == tied

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_lane_boundaries_match_bfs_oracle(self, n):
        g, edges = random_graph(n, 4 * n, seed=n)
        got = closeness_centrality(g, mode="exact").scores
        want = oracles.harmonic_closeness(edges, n)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [1, 63, 64, 65])
    def test_sampled_lane_boundaries_match_pivot_oracle(self, k):
        g, edges = random_graph(130, 520, seed=k)
        got = closeness_centrality(g, mode="sampled", sample_size=k,
                                   seed=k).scores
        want = oracles.sampled_harmonic_closeness(
            edges, 130, _pick_pivots(130, k, k))
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_sampled_estimator_is_reasonable(self):
        g, _ = random_graph(300, 2500, seed=4)
        exact = closeness_centrality(g, mode="exact").scores
        est = closeness_centrality(g, mode="sampled", sample_size=150,
                                   seed=9).scores
        # crude but seeded: mean relative error under 15%
        big = exact > 1.0
        rel = np.abs(est[big] - exact[big]) / exact[big]
        assert rel.mean() < 0.15

    def test_weighted_mode_uses_inverse_weight_distances(self):
        g = from_edges([("a", "b", 2.0), ("b", "c", 4.0)])
        scores = dict(zip(g.labels, closeness_centrality(
            g, mode="exact", weighted=True).scores))
        # d(a,b)=0.5, d(a,c)=0.75
        assert scores["a"] == pytest.approx(2.0 + 1 / 0.75)

    def test_rerun_is_bit_identical(self):
        g, _ = random_graph(60, 400, seed=3)
        first = closeness_centrality(g, mode="exact").scores
        second = closeness_centrality(g, mode="exact").scores
        assert np.array_equal(first, second)

    @given(weighted_graphs())
    @settings(max_examples=150, deadline=None)
    def test_weighted_distances_equal_heap_oracle(self, g):
        for pivot in range(g.n):
            got, want = weighted_distances(g, pivot)
            assert got.tobytes() == want.tobytes()

    def test_weighted_distances_when_every_round_improves_every_node(
            self, monkeypatch):
        # node i has a chain edge to i - 1 at cost 1 and, for i >= 2, a
        # direct edge to 0 at cost 2i: after round r node i >= r is at
        # 2i - r + 1, so nodes 1..k improve in k rounds, k(k + 1)/2 times
        k = 60
        edges = [(i, i - 1) for i in range(1, k + 1)] + \
                [(i, 0) for i in range(2, k + 1)]
        weights = [1.0] * k + [1 / (2 * i) for i in range(2, k + 1)]
        g = graph_from_ids(k + 1, edges, weights=weights)
        expand = traditional.out_edges
        frontiers = []

        def counted(ptr, nodes, fanout):
            frontiers.append(nodes.size)
            return expand(ptr, nodes, fanout)

        monkeypatch.setattr(traditional, "out_edges", counted)
        got, want = weighted_distances(g, 0)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, np.arange(k + 1.0))
        # the pivot, k improving rounds, and node k's last, empty expansion
        assert len(frontiers) == k + 1
        assert sum(frontiers) == 1 + k * (k + 1) // 2

    def test_weighted_closeness_that_overflows_is_a_data_error(self):
        huge, tiny = np.finfo(float).max, 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 1/tiny overflows to inf, so that edge leads nowhere
            g = from_edges([("a", "b", tiny), ("c", "a", 1.0)])
            scores = closeness_centrality(g, "exact", weighted=True).scores
            assert scores.tolist() == [0.0, 0.0, 1.0]
            # d(c, a) = 1/huge is subnormal, and 1/d overflows
            g = from_edges([("a", "b", 1.0), ("c", "a", huge)])
            for mode in ("exact", "sampled"):
                with pytest.raises(DataError, match="^closeness: the weighted "
                                   "closeness of node 'c' overflows"):
                    closeness_centrality(g, mode, sample_size=2,
                                         weighted=True)

    def test_sampled_weighted_full_pivots_matches_exact_weighted(self):
        g = from_edges([("a", "b", 2.0), ("b", "c", 4.0), ("c", "a", 1.0),
                        ("a", "c", 0.5)])
        exact = closeness_centrality(g, mode="exact", weighted=True).scores
        sampled = closeness_centrality(g, mode="sampled", sample_size=g.n,
                                       seed=2, weighted=True).scores
        assert np.array_equal(sampled, exact)


class TestBetweenness:
    def test_directed_path(self, path_abc):
        scores = dict(zip(path_abc.labels,
                          betweenness_centrality(path_abc, mode="exact").scores))
        assert scores == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_directed_cycle(self, cycle_abc):
        assert np.all(betweenness_centrality(cycle_abc, mode="exact").scores == 1.0)

    def test_complete_digraph_is_zero(self):
        edges = [(i, j) for i in range(6) for j in range(6) if i != j]
        g = graph_from_ids(6, edges)
        assert np.all(betweenness_centrality(g, mode="exact").scores == 0.0)

    def test_matches_path_counting_oracle(self):
        for seed in range(6):
            g, edges = random_graph(30, 140, seed=seed + 20)
            got = betweenness_centrality(g, mode="exact").scores
            want = oracles.betweenness(edges, 30)
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_sampled_full_pivots_bit_identical_to_exact(self):
        g, _ = random_graph(50, 260, seed=8)
        exact = betweenness_centrality(g, mode="exact").scores
        sampled = betweenness_centrality(g, mode="sampled", sample_size=50,
                                         seed=123).scores
        assert np.array_equal(sampled, exact)

    def test_invalid_sample_sizes(self, path_abc):
        with pytest.raises(InvalidParameter):
            betweenness_centrality(path_abc, mode="sampled", sample_size=0)
        with pytest.raises(InvalidParameter):
            betweenness_centrality(path_abc, mode="sampled", sample_size=4)

    def test_rerun_is_bit_identical(self):
        g, _ = random_graph(80, 500, seed=14)
        first = betweenness_centrality(g, mode="exact").scores
        second = betweenness_centrality(g, mode="exact").scores
        assert np.array_equal(first, second)

    @given(brandes_graphs(), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_pre_rewrite_kernel(self, g, seed, data):
        out_degree, in_degree = g.out_degrees(), g.in_degrees()
        k = data.draw(st.integers(1, g.n - 1)) if g.n > 1 else None
        exact = oracles.brandes_betweenness(g, range(g.n))
        if k is not None:
            sampled = oracles.brandes_betweenness(
                g, _pick_pivots(g.n, k, seed)) * (g.n / k)

        def check_betweenness():
            assert np.array_equal(
                betweenness_centrality(g, mode="exact").scores, exact)
            assert np.array_equal(betweenness_centrality(
                g, mode="sampled", sample_size=g.n, seed=seed).scores, exact)
            if k is not None:
                assert np.array_equal(betweenness_centrality(
                    g, mode="sampled", sample_size=k, seed=seed).scores,
                    sampled)

        for rule in PULL_RULES.values():
            with pytest.MonkeyPatch.context() as mp:
                for name, value in rule.items():
                    mp.setattr(traditional, name, value)
                for s in range(g.n):
                    got = _brandes_from_source(g, out_degree, in_degree, s)
                    assert np.array_equal(got,
                                          oracles.brandes_from_source(g, s))
                force_width(mp, 1)
                check_betweenness()
        for width in WIDTHS[1:]:
            with pytest.MonkeyPatch.context() as mp:
                force_width(mp, width)
                check_betweenness()

    @pytest.mark.parametrize("width", [3, 5, 8, 33, 64])
    @pytest.mark.parametrize("sink_every", [None, 5])
    def test_batch_and_chunk_boundaries_match_oracle(self, monkeypatch,
                                                     width, sink_every):
        """Source counts on each side of a batch (width) and of a chunk
        (64 sources); with ``sink_every``, one node in every
        ``sink_every`` has no out-edges, so batches skip sinks from their
        middle. Below 64 a chunk holds several batches, and each after
        the first folds onto the chunk's running sum. On 129 = 2^7 + 1
        nodes a row's keys span 256, nearly half of them padding."""
        for count in (width - 1, width, width + 1, 63, 64, 65):
            n = count + 9
            edges = [(s, d) for s, d in random_edge_list(n, 4 * n, count)
                     if not sink_every or s % sink_every != 2]
            g = graph_from_ids(n, edges)
            force_width(monkeypatch, width)
            sampled = betweenness_centrality(g, mode="sampled",
                                             sample_size=count, seed=count)
            want = oracles.brandes_betweenness(
                g, _pick_pivots(n, count, count)) * (n / count)
            assert np.array_equal(sampled.scores, want)
            sub = graph_from_ids(count, [(s, d) for s, d in edges
                                         if s < count and d < count])
            force_width(monkeypatch, width)
            assert np.array_equal(
                betweenness_centrality(sub, mode="exact").scores,
                oracles.brandes_betweenness(sub, range(count)))
        edges = [(s, d) for s, d in random_edge_list(129, 4 * 129, 7)
                 if not sink_every or s % sink_every != 2]
        g = graph_from_ids(129, edges)
        assert np.array_equal(betweenness_centrality(g, mode="exact").scores,
                              oracles.brandes_betweenness(g, range(g.n)))

    @pytest.mark.parametrize("width", [3, 5, 64])
    def test_rounded_path_counts_keep_the_per_source_order(self, monkeypatch,
                                                           width):
        """A layered DAG 40 levels deep whose path counts pass 2^53, so
        sigma's sums round and their order shows: every batch row has the
        per-source kernel's bytes, and the sum the oracle's."""
        g, paths = layered_dag(layers=40, size=8, seed=width)
        assert max(paths) > 2 ** 53
        out_degree, in_degree = g.out_degrees(), g.in_degrees()
        sources = np.flatnonzero(out_degree)
        for first in range(0, sources.size, width):
            batch = sources[first:first + width]
            block = traditional._brandes_batch(g, out_degree, batch)
            for row, s in zip(block, batch.tolist()):
                assert np.array_equal(
                    row, _brandes_from_source(g, out_degree, in_degree, s))
        force_width(monkeypatch, width)
        assert np.array_equal(betweenness_centrality(g, mode="exact").scores,
                              oracles.brandes_betweenness(g, range(g.n)))

    def test_width_rule_picks_the_kernel(self, monkeypatch):
        # 90 nodes make two chunks: one CPU keeps both in this process
        use_cpus(monkeypatch, 1)
        g, _ = random_graph(90, 400, seed=21)
        runs = {"batch": 0, "source": 0}
        for kernel, name in ((traditional._brandes_batch, "batch"),
                             (traditional._brandes_from_source, "source")):
            def counted(*args, kernel=kernel, name=name):
                runs[name] += 1
                return kernel(*args)
            monkeypatch.setattr(traditional, kernel.__name__, counted)
        want = oracles.brandes_betweenness(g, range(g.n))
        # the probe pushes every level and 64 sources fit: batches only
        assert np.array_equal(betweenness_centrality(g, mode="exact").scores,
                              want)
        assert runs["source"] == 0 and runs["batch"] > 0
        # a probe that pulls runs one source at a time
        runs.update(batch=0)
        for name, value in PULL_RULES["pull"].items():
            monkeypatch.setattr(traditional, name, value)
        assert np.array_equal(betweenness_centrality(g, mode="exact").scores,
                              want)
        assert runs == {"batch": 0, "source": int(np.sum(g.out_degrees() > 0))}

    def test_width_is_the_largest_power_of_two_in_budget(self):
        def width(n, m, depth=1, pulled=False):
            return traditional._width_for(n, m, depth, pulled)
        budget = traditional.BATCH_BUDGET
        cap = traditional.BATCH_DEPTH_CAP
        # B * (n + m) equal to the budget, and one node or edge over it
        assert width(1, budget // 64 - 1) == 64
        assert width(1, budget // 64) == 32
        assert width(1, budget // 2 - 1) == 2
        assert width(1, budget // 2) == 1
        # the budget is per level of the probe's depth
        assert width(1, 5 * budget // 64 - 1, depth=5) == 64
        assert width(1, 5 * budget // 64, depth=5) == 32
        # a depth above the cap counts as the cap
        assert width(1, cap * budget // 64 - 1, depth=cap + 1) == 64
        assert width(1, cap * budget // 64, depth=cap + 1) == 32
        assert width(1, cap * budget // 64, depth=10 ** 6) == 32
        # a probe that reached no level fits nothing
        assert width(1, 0, depth=0) == 1
        # a probe that pulled runs one source at a time, however small
        assert width(1, 0, depth=cap, pulled=True) == 1

    def test_width_on_the_benchmark_graph_shapes(self):
        # sparse-exact's and intervention-ic's shapes batch 64 sources;
        # a graph of m = 10, as social-run's, pulls at its hub
        assert traditional._batch_width(
            random_digraph(8_000, 12_000, seed=0)) == 64
        assert traditional._batch_width(
            preferential_attachment(1_000, 4, seed=0)) == 64
        g = preferential_attachment(3_000, 10, seed=0)
        assert g.num_edges >= traditional.PULL_MIN_EDGES
        assert traditional._batch_width(g) == 1

    @pytest.mark.parametrize("shape", ["tail_into_core", "hubs", "deep"])
    def test_probe_agrees_with_the_kernel(self, monkeypatch, shape):
        """The probe pulls exactly when the per-source pass from the same
        hub calls ``_pull_tier``, and its depth is that pass's level count
        and the hub's largest hop distance."""
        g, pulls = {
            "tail_into_core": (tail_into_core(130), True),
            "hubs": (preferential_attachment(3_000, 10, seed=1), True),
            "deep": (random_digraph(4_000, 6_000, seed=2), False),
        }[shape]
        probed = []
        width_for = traditional._width_for

        def recorded(n, m, depth, pulled):
            probed.append((depth, pulled))
            return width_for(n, m, depth, pulled)

        monkeypatch.setattr(traditional, "_width_for", recorded)
        traditional._batch_width(g)
        [(depth, pulled)] = probed
        out_degree = g.out_degrees()
        hub = int(np.argmax(out_degree))
        # a level scans in-edges only in _pull_tier, and the pass ends
        # on a level that reaches nothing
        counts = count_tiers(monkeypatch, g)
        _brandes_from_source(g, out_degree, g.in_degrees(), hub)
        assert pulled == (counts["pull"] > 0) == pulls
        assert depth == counts["push"] + counts["pull"] - 1
        src, dst, _ = g.edge_arrays()
        adj = oracles.adjacency_dict(zip(src.tolist(), dst.tolist()), g.n)
        assert depth == max(oracles.bfs_dist(adj, hub, g.n).values())

    def test_graph_without_edges_runs_one_source_at_a_time(self):
        for g in (graph_from_ids(5, []), DirectedGraph([], [], [], [])):
            assert traditional._batch_width(g) == 1
            assert not betweenness_centrality(g, mode="exact").scores.any()

    def test_default_rule_pushes_narrow_levels_and_pulls_the_core(
            self, monkeypatch):
        g = tail_into_core(130)
        assert g.num_edges >= traditional.PULL_MIN_EDGES
        counts = count_tiers(monkeypatch, g)
        got = _brandes_from_source(g, g.out_degrees(), g.in_degrees(), 0)
        # 30 tail levels, the hub and the fringe path push; the core pulls
        assert counts["pull"] == 1 and counts["push"] > 30
        assert np.array_equal(got, oracles.brandes_from_source(g, 0))

    def test_tail_into_core_matches_oracle_bit_for_bit(self, monkeypatch):
        g = tail_into_core(130)
        want = oracles.brandes_betweenness(g, range(g.n))
        # the probe pulls at the core, so the width rule runs one source
        # at a time
        assert traditional._batch_width(g) == 1
        counts = count_tiers(monkeypatch, g)
        exact = betweenness_centrality(g, mode="exact").scores
        assert counts["pull"] > 0 and counts["push"] > 0
        assert np.array_equal(exact, want)
        sampled = betweenness_centrality(g, mode="sampled", sample_size=g.n,
                                         seed=5).scores
        assert np.array_equal(sampled, exact)
        # a batch of 8 gives the same bytes
        force_width(monkeypatch, 8)
        assert np.array_equal(betweenness_centrality(g, mode="exact").scores,
                              want)

    def test_graph_below_the_floor_never_pulls(self, monkeypatch):
        g = tail_into_core(120)
        assert g.num_edges < traditional.PULL_MIN_EDGES
        force_width(monkeypatch, 1)
        counts = count_tiers(monkeypatch, g)
        exact = betweenness_centrality(g, mode="exact").scores
        assert counts["pull"] == 0 and counts["push"] > 0
        assert np.array_equal(exact,
                              oracles.brandes_betweenness(g, range(g.n)))

    def test_relabelling_permutes_scores_for_every_metric(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("d", "a")]
        renamed = [(s.upper() + "x", d.upper() + "x") for s, d in edges]
        g1, g2 = from_edges(edges), from_edges(renamed)
        runs = [
            lambda g: degree_centrality(g, "total"),
            lambda g: closeness_centrality(g, mode="exact"),
            lambda g: betweenness_centrality(g, mode="exact"),
            eigenvector_centrality,
        ]
        for run in runs:
            sv1, sv2 = run(g1), run(g2)
            m1 = dict(zip(sv1.labels, sv1.scores))
            m2 = dict(zip(sv2.labels, sv2.scores))
            for lab in m1:
                assert m1[lab] == pytest.approx(m2[lab.upper() + "x"],
                                                abs=1e-12)


def shared_closeness(g):
    """Exact betweenness run with ``harmonic``: (betweenness, closeness)."""
    harmonic = np.zeros(g.n)
    between = betweenness_centrality(g, mode="exact", harmonic=harmonic)
    return between.scores, harmonic


class TestSharedClosenessPass:
    """Exact betweenness fills ``harmonic`` with exact hop closeness, the
    same bytes as ``closeness_centrality(g, "exact")``, and its own
    scores do not move."""

    def check(self, g):
        between, harmonic = shared_closeness(g)
        assert np.array_equal(harmonic,
                              closeness_centrality(g, mode="exact").scores)
        assert np.array_equal(between,
                              oracles.brandes_betweenness(g, range(g.n)))

    @given(brandes_graphs())
    @settings(max_examples=60, deadline=None)
    def test_every_kernel_gives_closeness_bytes(self, g):
        for rule in PULL_RULES.values():
            with pytest.MonkeyPatch.context() as mp:
                for name, value in rule.items():
                    mp.setattr(traditional, name, value)
                force_width(mp, 1)
                self.check(g)
        for width in WIDTHS[1:]:
            with pytest.MonkeyPatch.context() as mp:
                force_width(mp, width)
                self.check(g)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_sinks_isolated_nodes_and_no_edges(self, monkeypatch, width):
        # 0 -> 1 -> 2 and 0 -> 3, with 2 and 3 sinks and 4 isolated
        for g in (graph_from_ids(5, [(0, 1), (1, 2), (0, 3)]),
                  graph_from_ids(5, []), graph_from_ids(1, [])):
            force_width(monkeypatch, width)
            self.check(g)
        between, harmonic = shared_closeness(
            graph_from_ids(5, [(0, 1), (1, 2), (0, 3)]))
        assert harmonic.tolist() == [2.5, 1.0, 0.0, 0.0, 0.0]

    def test_pulled_levels_give_closeness_bytes(self, monkeypatch):
        g = tail_into_core(130)
        force_width(monkeypatch, 1)
        counts = count_tiers(monkeypatch, g)
        self.check(g)
        assert counts["pull"] > 0

    def test_sampled_mode_with_harmonic_raises(self, monkeypatch):
        g, _ = random_graph(40, 120, seed=3)
        harmonic = np.zeros(g.n)
        with pytest.raises(InvalidParameter):
            betweenness_centrality(g, mode="sampled", sample_size=g.n,
                                   harmonic=harmonic)
        # auto mode samples above the exact limit
        monkeypatch.setattr(traditional, "EXACT_NODE_LIMIT", g.n - 1)
        with pytest.raises(InvalidParameter):
            betweenness_centrality(g, harmonic=harmonic)
        assert not harmonic.any()


def wait_for(read_fd):
    """Block until a byte arrives on ``read_fd``, for at most 30 s."""
    ready, _, _ = select.select([read_fd], [], [], 30)
    assert ready and os.read(read_fd, 1), "no worker ran a chunk"


class TestWorkers:
    """Source chunks on forked workers: the serial run's bytes, the serial
    run's error, and no process or fd left behind. 200 nodes make four
    64-source chunks, so each worker may sum more than one; random
    digraphs have many equal shortest paths, so a sum in another order
    would move the last bits."""

    @pytest.mark.parametrize("width", [None, 1], ids=["batch", "per-source"])
    def test_exact_betweenness_same_bytes(self, forks, monkeypatch, width):
        g, _ = random_graph(200, 900, seed=8)
        if width:
            force_width(monkeypatch, width)
        use_cpus(monkeypatch, 1)
        serial = betweenness_centrality(g, "exact").scores
        assert not forks
        use_cpus(monkeypatch, 2)
        forked = betweenness_centrality(g, "exact").scores
        assert len(forks) == 2
        assert np.array_equal(forked, serial)
        assert_no_child_left()

    def test_sampled_betweenness_same_bytes(self, forks, monkeypatch):
        g, _ = random_graph(300, 1400, seed=9)
        runs = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            runs.append(betweenness_centrality(g, "sampled", sample_size=190,
                                               seed=4).scores)
        assert len(forks) == 2
        assert np.array_equal(*runs)

    def test_sampled_weighted_closeness_same_bytes(self, forks, monkeypatch):
        edges = random_edge_list(200, 800, seed=10)
        weights = stream(10).integers(1, 9, size=len(edges)) / 4
        g = DirectedGraph([f"{i:03d}" for i in range(200)],
                          [s for s, _ in edges], [d for _, d in edges],
                          weights)
        runs = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            runs.append(closeness_centrality(g, "sampled", sample_size=150,
                                             seed=3, weighted=True).scores)
        assert len(forks) == 2
        assert np.array_equal(*runs)

    @pytest.mark.parametrize("procs", [1, 2, 3])
    def test_partials_added_in_chunk_order_whatever_order_they_arrive(
            self, forks, monkeypatch, procs):
        # chunk i sleeps 10 (8 - i) ms, so the later chunks finish first; the
        # partials span 12 orders of magnitude, so a sum in arrival order
        # would move the last bits. With workers, none runs in this process
        use_cpus(monkeypatch, procs)
        monkeypatch.setattr(traditional, "WORKERS", procs)
        chunks = 8
        parent = os.getpid()

        def per_chunk(chunk):
            i = int(chunk[0]) // 64
            time.sleep((chunks - i) / 100)
            return stream(i).standard_normal(50) * 10.0 ** (3 * (i % 5))

        serial = np.zeros(50)
        for first in range(0, 64 * chunks, 64):
            serial += per_chunk(np.arange(first, first + 64))

        def in_a_worker(chunk):
            if procs > 1 and os.getpid() == parent:
                raise AssertionError("a chunk ran in the parent")
            return per_chunk(chunk)

        got = traditional._accumulate_over_sources(np.arange(64 * chunks),
                                                   in_a_worker, 50)
        assert got.tobytes() == serial.tobytes()
        assert len(forks) == (procs if procs > 1 else 0)
        assert_no_child_left()

    def test_worker_error_is_raised_in_the_parent(self, forks, monkeypatch):
        g, _ = random_graph(200, 900, seed=8)
        batch = traditional._brandes_batch
        parent = os.getpid()
        ran, tell = os.pipe()

        def failing(g, out_degree, sources, *rest):
            # the first worker takes chunk 0 while the parent waits, and
            # fails; the one forked next fails on every other chunk
            if os.getpid() != parent:
                os.write(tell, b"\0")
                raise DataError(f"no path past {sources.min()}")
            return batch(g, out_degree, sources, *rest)

        def meanwhile():
            wait_for(ran)
            yield

        monkeypatch.setattr(traditional, "_brandes_batch", failing)
        try:
            with pytest.raises(DataError, match="^no path past 0$"):
                betweenness_centrality(g, "exact", meanwhile=meanwhile())
        finally:
            os.close(ran)
            os.close(tell)
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("procs", [1, 2, 3])
    def test_lowest_failing_chunk_is_raised_whatever_order_errors_arrive(
            self, forks, monkeypatch, procs):
        # chunks 1, 2 and 3 fail, each naming itself; chunk 1 takes the
        # longest, so with workers a higher chunk's error is in hand first
        use_cpus(monkeypatch, procs)
        monkeypatch.setattr(traditional, "WORKERS", procs)

        def per_chunk(chunk):
            i = int(chunk[0]) // 64
            time.sleep(0.2 if i == 1 else 0.001)
            if i:
                raise DataError(f"chunk {i} failed")
            return np.zeros(3)

        fds = open_fds()
        with pytest.raises(DataError, match="^chunk 1 failed$"):
            traditional._accumulate_over_sources(np.arange(256), per_chunk, 3)
        assert len(forks) == (procs if procs > 1 else 0)
        assert_no_child_left()
        assert open_fds() == fds

    def test_failing_meanwhile_kills_the_workers(self, forks):
        fds = open_fds()

        def per_chunk(chunk):
            time.sleep(0.01)
            return np.zeros(3)

        def meanwhile():
            yield
            raise DataError("meanwhile failed")

        with pytest.raises(DataError, match="^meanwhile failed$"):
            traditional._accumulate_over_sources(np.arange(64 * 400),
                                                 per_chunk, 3, meanwhile())
        assert len(forks) == 1
        assert_no_child_left()
        assert open_fds() == fds

    def test_worker_that_dies_silently_is_an_error(self, forks):
        fds = open_fds()
        parent = os.getpid()
        ran, tell = os.pipe()

        def per_chunk(chunk):
            # the first worker takes chunk 0 while the parent waits, and
            # ends as an OOM kill would end it: without a message; so does
            # the second
            if os.getpid() != parent:
                os.write(tell, b"\0")
                os._exit(9)
            return np.zeros(200)

        def meanwhile():
            wait_for(ran)
            yield from ()

        try:
            with pytest.raises(RuntimeError, match="^a worker process ended "
                               "before sending its result$"):
                traditional._accumulate_over_sources(
                    np.arange(200), per_chunk, 200, meanwhile())
        finally:
            os.close(ran)
            os.close(tell)
        assert len(forks) == 2
        assert_no_child_left()
        assert open_fds() == fds

    def test_failed_fork_leaks_no_fd(self, forks, monkeypatch):
        if open_fds() is None:
            pytest.skip("no /proc to list this process's fds")
        # the second fork, of the worker taking this process's place,
        # fails after the first worker runs
        fork = os.fork
        calls = []

        def fork_once():
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        fds = open_fds()
        with pytest.raises(OSError) as caught:
            traditional._accumulate_over_sources(
                np.arange(200), lambda chunk: np.zeros(200), 200)
        assert caught.value.errno == errno.EAGAIN
        assert len(forks) == 1
        assert_no_child_left()
        assert open_fds() == fds

    def test_worker_exits_at_its_next_write_once_the_parent_is_gone(self):
        pool = traditional._Pool([np.arange(4)] * 100,
                                 lambda chunk: np.zeros(1 << 16), 1 << 16)
        queue = pool.queue()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                traditional._worker(pool, queue, write_fd, [read_fd])
            finally:
                os._exit(2)
        os.close(queue)
        os.close(write_fd)
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 1

    def test_queue_never_blocks_and_covers_every_chunk(self):
        # above PIPE_BUF // 4 chunks an entry takes consecutive chunks
        for count in (1, 2, 1023, 1024, 1025, 5000, 100_000):
            pool = traditional._Pool([None] * count, None, 1)
            queue = pool.queue()
            try:
                taken = [c for chunks in iter(lambda: pool.take(queue), range(0))
                         for c in chunks]
            finally:
                os.close(queue)
            assert taken == list(range(count)), count

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_worker_count_within_cpus_and_chunks(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        for workers in (1, 2, 3, 16):
            monkeypatch.setattr(traditional, "WORKERS", workers)
            for chunks in (0, 1, 2, 3, 5, 100):
                assert worker_count(chunks) == max(1, min(workers, cpus,
                                                          chunks))

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_serial_where_the_platform_cannot_fork(self, monkeypatch,
                                                   missing):
        g, _ = random_graph(200, 900, seed=8)
        serial = betweenness_centrality(g, "exact").scores
        monkeypatch.delattr(os, missing)
        monkeypatch.setattr(traditional, "WORKERS", 4)
        assert worker_count(10) == 1
        assert np.array_equal(
            betweenness_centrality(g, "exact").scores, serial)


class TestEigenvector:
    def test_symmetric_triangle_uniform(self):
        g = from_edges([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"),
                        ("a", "c"), ("c", "a")])
        sv = eigenvector_centrality(g)
        assert np.allclose(sv.scores, 1 / np.sqrt(3))
        assert sv.params["converged"]

    def test_mutual_pair_plus_isolated(self):
        g = from_edges([("a", "b"), ("b", "a")], extra_labels=["z"])
        scores = dict(zip(g.labels, eigenvector_centrality(g).scores))
        assert scores["a"] == pytest.approx(scores["b"])
        assert scores["z"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_eigensolver(self):
        # the iteration approximates the left Perron vector of the
        # influence adjacency A^T, which is the right Perron vector of A
        for seed in range(5):
            g, edges = strongly_connected_graph(20, extra=30, seed=seed)
            sv = eigenvector_centrality(
                g, PowerIterationConfig(tolerance=1e-13, max_iterations=20000))
            want = oracles.dominant_eigenvector(edges, 20)
            cos = float(np.dot(sv.scores, want))
            assert cos >= 1 - 1e-8

    def test_zero_edges_rejected(self):
        from netcent import build_graph, InteractionRecord
        g = build_graph([InteractionRecord("a", "a")])
        with pytest.raises(ZeroMatrix):
            eigenvector_centrality(g)

    def test_non_convergence_is_flagged_not_fatal(self):
        g, _ = strongly_connected_graph(15, extra=20, seed=3)
        sv = eigenvector_centrality(
            g, PowerIterationConfig(tolerance=1e-16, max_iterations=2))
        assert sv.params["converged"] is False
        assert sv.iterations_run == 2

    def test_collapse_to_zero_keeps_last_iterate(self):
        # on the endorsement orientation c -> b -> a, the iterate moves to
        # the path's end and then has nowhere to go
        sv = eigenvector_centrality(from_edges([("a", "b"), ("b", "c")]))
        assert sv.scores.tolist() == [1.0, 0.0, 0.0]
        assert sv.iterations_run == 2
        assert sv.params["converged"] is False
        assert "note" in sv.params
        assert sv.params["eigenvalue"] == math.sqrt(0.5)

    def test_iterate_norm_is_one_and_nonnegative(self):
        for seed in range(4):
            g, _ = random_graph(25, 100, seed=seed + 40)
            if g.num_edges == 0:
                continue
            sv = eigenvector_centrality(g)
            assert np.linalg.norm(sv.scores) == pytest.approx(1.0)
            assert np.all(sv.scores >= 0)

    def test_convergence_on_strongly_connected_graphs(self):
        # Perron-Frobenius consequence: expect >= 99/100 to converge
        converged = 0
        for seed in range(100):
            g, _ = strongly_connected_graph(12, extra=25, seed=seed)
            sv = eigenvector_centrality(
                g, PowerIterationConfig(tolerance=1e-10, max_iterations=5000))
            converged += bool(sv.params["converged"])
        assert converged >= 99


# sha256 of the scores' bytes, iterations_run and converged, recorded
# before eigenvector and pc shared one power-iteration loop
POWER_ITERATION_PINS = {
    ("pa", "eigenvector", True): (
        "cb9f256114a49ceceb0c62568e91233e674673264a8d769a3421c95b6cb930f1",
        35, True),
    ("pa", "eigenvector", False): (
        "67fdb0785cd54b2eadadc6cbf0e032c68c356c244c3808f572a24487fe55fc25",
        35, True),
    ("pa", "pc", False, False): (
        "f48427bf9f65459ef573507b720f0a9dc3fdae87562d5bdee34c4352ffa4ab83",
        35, True),
    ("pa", "pc", False, True): (
        "66a9080993372f57c6ee81e15bf696b3609fc733c13a5f4619b0083243a0b735",
        42, True),
    ("pa", "pc", True, False): (
        "f48427bf9f65459ef573507b720f0a9dc3fdae87562d5bdee34c4352ffa4ab83",
        35, True),
    ("pa", "pc", True, True): (
        "66a9080993372f57c6ee81e15bf696b3609fc733c13a5f4619b0083243a0b735",
        42, True),
    ("sparse", "eigenvector", True): (
        "0bd21585159412436d4db78780aea6198c8e103e2c91856115029a53a2332ac3",
        100, False),
    ("sparse", "eigenvector", False): (
        "d6137b02d01d6d48d7ef5fd84ee3786cec71885da1ec0ce5398da5fcf7ef0ac6",
        100, False),
    ("sparse", "pc", False, False): (
        "6f7dfe65e6d5f06417a44c9ac82ac41558306b3ab7c5f14bf3e7761effd6e952",
        43, True),
    ("sparse", "pc", False, True): (
        "72fa06917923f492844c4f653ff02ba68b87e2a5a2075f5484254ccdbf2abbb1",
        43, True),
    ("sparse", "pc", True, False): (
        "6f7dfe65e6d5f06417a44c9ac82ac41558306b3ab7c5f14bf3e7761effd6e952",
        43, True),
    ("sparse", "pc", True, True): (
        "72fa06917923f492844c4f653ff02ba68b87e2a5a2075f5484254ccdbf2abbb1",
        43, True),
}
POWER_GRAPHS = {"pa": lambda: preferential_attachment(300, 3, seed=1),
                # eigenvector stops unconverged here at 100 iterations
                "sparse": lambda: random_digraph(8000, 12000, seed=0)}


class TestPowerIteration:
    @pytest.fixture(scope="class")
    def graphs(self):
        return {name: make() for name, make in POWER_GRAPHS.items()}

    @pytest.mark.parametrize("key", POWER_ITERATION_PINS,
                             ids=lambda key: "-".join(map(str, key)))
    def test_scores_keep_their_pinned_bytes(self, graphs, key):
        name, metric, *flags = key
        if metric == "eigenvector":
            sv = eigenvector_centrality(graphs[name], reverse=flags[0])
        else:
            weighted, reverse = flags
            sv = propagation_centrality(
                graphs[name], PcConfig(weighted=weighted, reverse=reverse))
        digest = hashlib.sha256(sv.scores.tobytes()).hexdigest()
        assert (digest, sv.iterations_run, sv.params["converged"]) \
            == POWER_ITERATION_PINS[key]

    def test_unconverged_eigenvector_logs_one_warning(self, caplog):
        g = random_digraph(3000, 4500, seed=11)
        with caplog.at_level(logging.WARNING):
            sv = eigenvector_centrality(g)
        assert sv.params["converged"] is False and sv.iterations_run == 100
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage().startswith("eigenvector did not converge")
        assert "after 100 iterations" in record.getMessage()

    def test_pc_over_its_budget_warns(self, caplog):
        g, _ = random_graph(40, 160, seed=2)
        with caplog.at_level(logging.WARNING):
            sv = propagation_centrality(g, PcConfig(max_iterations=2))
        assert sv.params["converged"] is False
        (record,) = caplog.records
        assert record.getMessage().startswith("pc did not converge")
        assert "after 2 iterations" in record.getMessage()

    def test_converged_runs_and_dic_log_nothing(self, caplog):
        g = preferential_attachment(300, 3, seed=1)
        with caplog.at_level(logging.DEBUG):
            assert eigenvector_centrality(g).params["converged"]
            assert propagation_centrality(g).params["converged"]
            dic(g)
        assert caplog.records == []

    def test_step_returning_none_stops_with_the_last_iterate(self, caplog):
        steps = iter([np.array([0.5]), None])
        with caplog.at_level(logging.WARNING):
            x, *rest = power_iterate(lambda x: next(steps), np.array([1.0]),
                                     PowerIterationConfig(), "probe")
        assert x.tolist() == [0.5] and rest == [1, 0.5, False]
        assert caplog.records[0].getMessage().startswith("probe did not converge")
