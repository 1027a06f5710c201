import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (graph_from_ids, random_edge_list, random_graph,
                      strongly_connected_graph)
from netcent import (InvalidParameter, PowerIterationConfig, ZeroMatrix,
                     betweenness_centrality, closeness_centrality,
                     degree_centrality, eigenvector_centrality, from_edges,
                     preferential_attachment, top_k)
from netcent import traditional
from netcent.rng import stream
from netcent.traditional import _brandes_from_source, _pick_pivots

# module constants that force each way of building a Brandes tier
PULL_RULES = {"push": {"PULL_MIN_EDGES": math.inf},
              "pull": {"PULL_MIN_EDGES": 0, "PULL_NODE_COST": -math.inf},
              "default": {}}
# sources per batched Brandes pass; 1 is the per-source kernel
WIDTHS = (1, 2, 3, 64)


def force_width(mp, g, width):
    """Make betweenness run g ``width`` sources per pass: through the
    budget for a power of two, which the width rule alone can pick."""
    if width & (width - 1):
        mp.setattr(traditional, "_batch_width", lambda _: width)
    else:
        mp.setattr(traditional, "BATCH_BUDGET", width * (g.n + g.num_edges))
    assert traditional._batch_width(g) == width


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
    over its in-edges: {"push": p, "pull": q}."""
    counts = {"push": 0, "pull": 0}
    out_edges = traditional.out_edges

    def counted(ptr, nodes, fanout):
        counts["pull" if ptr is g.in_ptr else "push"] += 1
        return out_edges(ptr, nodes, fanout)

    mp.setattr(traditional, "out_edges", counted)
    return counts


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

    def test_sampled_weighted_full_pivots_matches_exact_weighted(self):
        g = from_edges([("a", "b", 2.0), ("b", "c", 4.0), ("c", "a", 1.0),
                        ("a", "c", 0.5)])
        exact = closeness_centrality(g, mode="exact", weighted=True).scores
        sampled = closeness_centrality(g, mode="sampled", sample_size=g.n,
                                       seed=2, weighted=True).scores
        assert np.allclose(sampled, exact, atol=1e-12)


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
                force_width(mp, g, 1)
                check_betweenness()
        for width in WIDTHS[1:]:
            with pytest.MonkeyPatch.context() as mp:
                force_width(mp, g, width)
                check_betweenness()

    @pytest.mark.parametrize("width", [8, 64])
    @pytest.mark.parametrize("sink_every", [None, 5])
    def test_batch_and_chunk_boundaries_match_oracle(self, monkeypatch,
                                                     width, sink_every):
        """Source counts on each side of a batch (width) and of a chunk
        (64 sources); with ``sink_every``, one node in every
        ``sink_every`` has no out-edges, so batches skip sinks from their
        middle."""
        for count in (width - 1, width, width + 1, 63, 64, 65):
            n = count + 9
            edges = [(s, d) for s, d in random_edge_list(n, 4 * n, count)
                     if not sink_every or s % sink_every != 2]
            g = graph_from_ids(n, edges)
            force_width(monkeypatch, g, width)
            sampled = betweenness_centrality(g, mode="sampled",
                                             sample_size=count, seed=count)
            want = oracles.brandes_betweenness(
                g, _pick_pivots(n, count, count)) * (n / count)
            assert np.array_equal(sampled.scores, want)
            sub = graph_from_ids(count, [(s, d) for s, d in edges
                                         if s < count and d < count])
            force_width(monkeypatch, sub, width)
            assert np.array_equal(
                betweenness_centrality(sub, mode="exact").scores,
                oracles.brandes_betweenness(sub, range(count)))

    def test_width_rule_picks_the_kernel(self, monkeypatch):
        g, _ = random_graph(90, 400, seed=21)
        size = g.n + g.num_edges
        runs = {"batch": 0, "source": 0}
        for kernel, name in ((traditional._brandes_batch, "batch"),
                             (traditional._brandes_from_source, "source")):
            def counted(*args, kernel=kernel, name=name):
                runs[name] += 1
                return kernel(*args)
            monkeypatch.setattr(traditional, kernel.__name__, counted)
        want = oracles.brandes_betweenness(g, range(g.n))
        # over the budget even at B = 2: one source at a time
        monkeypatch.setattr(traditional, "BATCH_BUDGET", 2 * size - 1)
        assert np.array_equal(betweenness_centrality(g, mode="exact").scores,
                              want)
        assert runs == {"batch": 0, "source": int(np.sum(g.out_degrees() > 0))}
        # under it: batches only
        runs.update(source=0)
        monkeypatch.setattr(traditional, "BATCH_BUDGET", 2 * size)
        assert np.array_equal(betweenness_centrality(g, mode="exact").scores,
                              want)
        assert runs["source"] == 0 and runs["batch"] > 0

    def test_width_is_the_largest_power_of_two_in_budget(self):
        def width(n, m):
            return traditional._batch_width(SimpleNamespace(n=n, num_edges=m))
        budget = traditional.BATCH_BUDGET
        assert width(1, budget // 64 - 1) == 64
        assert width(1, budget // 64) == 32
        assert width(1, budget // 2 - 1) == 2
        assert width(1, budget // 2) == 1
        # the benchmark's graph shapes: sparse-exact, intervention-ic,
        # social-run and the 1e6-edge scale graph
        assert width(8_000, 12_000) == 8
        assert width(1_000, 4_000) == 32
        assert width(30_000, 300_000) == 1
        assert width(100_000, 1_000_000) == 1

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
        # the width rule batches this graph; one source at a time, it pulls
        assert traditional._batch_width(g) == 8
        assert np.array_equal(betweenness_centrality(g, mode="exact").scores,
                              want)
        force_width(monkeypatch, g, 1)
        counts = count_tiers(monkeypatch, g)
        exact = betweenness_centrality(g, mode="exact").scores
        assert counts["pull"] > 0 and counts["push"] > 0
        assert np.array_equal(exact, want)
        sampled = betweenness_centrality(g, mode="sampled", sample_size=g.n,
                                         seed=5).scores
        assert np.array_equal(sampled, exact)

    def test_graph_below_the_floor_never_pulls(self, monkeypatch):
        g = tail_into_core(120)
        assert g.num_edges < traditional.PULL_MIN_EDGES
        force_width(monkeypatch, g, 1)
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
                force_width(mp, g, 1)
                self.check(g)
        for width in WIDTHS[1:]:
            with pytest.MonkeyPatch.context() as mp:
                force_width(mp, g, width)
                self.check(g)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_sinks_isolated_nodes_and_no_edges(self, monkeypatch, width):
        # 0 -> 1 -> 2 and 0 -> 3, with 2 and 3 sinks and 4 isolated
        for g in (graph_from_ids(5, [(0, 1), (1, 2), (0, 3)]),
                  graph_from_ids(5, []), graph_from_ids(1, [])):
            force_width(monkeypatch, g, width)
            self.check(g)
        between, harmonic = shared_closeness(
            graph_from_ids(5, [(0, 1), (1, 2), (0, 3)]))
        assert harmonic.tolist() == [2.5, 1.0, 0.0, 0.0, 0.0]

    def test_pulled_levels_give_closeness_bytes(self, monkeypatch):
        g = tail_into_core(130)
        force_width(monkeypatch, g, 1)
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
