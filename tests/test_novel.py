import math
import re
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import cli_failure, graph_from_ids, random_graph
from netcent import (DicConfig, InvalidParameter, MissingAttribute, MvcConfig,
                     NodeAttributes, PcConfig, dic, from_edges, mvc,
                     propagation_centrality)
from netcent.novel import _dic_iterate


class TestPropagationCentrality:
    def test_single_node_scores_one(self):
        from netcent import build_graph, InteractionRecord
        g = build_graph([InteractionRecord("a", "a")])
        sv = propagation_centrality(g)
        assert sv.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_cycle_is_uniform(self, cycle_abc):
        assert np.allclose(propagation_centrality(cycle_abc).scores, 1 / 3)

    def test_scores_sum_to_one_at_every_iteration(self):
        g, _ = random_graph(40, 160, seed=2)
        for iters in range(1, 12):
            sv = propagation_centrality(
                g, PcConfig(tolerance=1e-30, max_iterations=iters))
            assert sv.scores.sum() == pytest.approx(1.0, abs=1e-9)
            assert sv.iterations_run == iters

    def test_matches_dense_fixed_point(self):
        for seed in range(6):
            g, edges = random_graph(15, 50, seed=seed)
            sv = propagation_centrality(g)
            # influence direction reverses the stored edges
            want = oracles.pagerank_dense([(d, s) for s, d in edges], 15)
            assert np.max(np.abs(sv.scores - want)) <= 1e-8

    def test_weighted_variant_matches_weighted_dense_oracle(self):
        edges = [("a", "b", 3.0), ("a", "c", 1.0), ("b", "c", 2.0),
                 ("c", "a", 1.0)]
        g = from_edges(edges)
        sv = propagation_centrality(g, PcConfig(weighted=True, reverse=False))
        idx = {lab: i for i, lab in enumerate(g.labels)}
        want = oracles.pagerank_dense(
            [(idx[s], idx[d]) for s, d, _ in edges], 3,
            weights=[w for _, _, w in edges])
        assert np.max(np.abs(sv.scores - want)) <= 1e-8

    def test_regular_bidirectional_graph_is_uniform(self):
        # bidirectional cycle: every node has identical in/out structure
        n = 8
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [((i + 1) % n, i) for i in range(n)]
        g = graph_from_ids(n, sorted(edges))
        assert np.allclose(propagation_centrality(g).scores, 1 / n, atol=1e-12)

    def test_scores_strictly_positive(self):
        g, _ = random_graph(30, 60, seed=9)
        assert np.all(propagation_centrality(g).scores > 0)

    def test_converges_within_default_budget(self):
        g, _ = random_graph(500, 2500, seed=1)
        sv = propagation_centrality(g)
        assert sv.params["converged"]
        assert sv.iterations_run <= 100

    def test_damping_validation(self):
        with pytest.raises(InvalidParameter):
            PcConfig(damping=1.0)
        with pytest.raises(InvalidParameter):
            PcConfig(damping=0.0)


def attrs_for(g, values):
    return NodeAttributes({"vulnerability_0": dict(zip(g.labels, values))})


class TestMvc:
    def test_zero_in_degree_scores_zero(self):
        g = from_edges([("a", "b")])
        for steps in (1, 5, 10):
            sv = mvc(g, attrs_for(g, [0.9, 0.9]),
                     MvcConfig(init="attribute", steps=steps))
            score = dict(zip(sv.labels, sv.scores))
            assert score["a"] == 0.0

    def test_equal_exposure_minmax_two_points(self):
        # mutual pair: both nodes have in-degree 1
        g = from_edges([("a", "b"), ("b", "a")])
        sv = mvc(g, attrs_for(g, [0.2, 0.8]), MvcConfig(init="attribute"))
        score = dict(zip(sv.labels, sv.scores))
        assert score["a"] == 0.0 and score["b"] == 1.0

    def test_live_nodes_stay_above_pinned_zeros(self):
        # zero-exposure sources force the pinned-zero branch; the weakest
        # live node must still rank strictly above the zero class
        g = from_edges([("x", "a"), ("y", "b")])
        sv = mvc(g, attrs_for(g, [0.2, 0.8, 0.5, 0.5]),
                 MvcConfig(init="attribute"))
        score = dict(zip(sv.labels, sv.scores))
        assert score["b"] == 1.0
        assert 0.0 < score["a"] < 1.0
        assert score["x"] == score["y"] == 0.0

    def test_rank_matches_exact_closed_form(self):
        for steps in (1, 5, 10):
            g, _ = random_graph(25, 100, seed=31)
            cfg = MvcConfig(init="seeded_uniform", seed=77, steps=steps)
            sv = mvc(g, None, cfg)
            # recompute the same draws, then rank by exact Fraction values
            from netcent.rng import stream
            vul0 = stream(77).random(25)
            exposure = [g.degree(v, "in") for v in range(25)]
            exact = oracles.mvc_exact(exposure, vul0, steps)
            by_label = dict(zip(g.labels, exact))
            impl_order = [sv.labels[i] for i in sv.ordering()]
            assert impl_order == oracles.sort_by_exact(exact, list(g.labels))
            assert oracles.is_valid_descending_order(impl_order, by_label)

    @pytest.mark.parametrize("mode", ["out_degree", "total_degree"])
    def test_exposure_modes_count_info_flow_neighbours(self, mode):
        n, steps = 25, 4
        g, edges = random_graph(n, 90, seed=8)
        twin = graph_from_ids(n, [(d, s) for s, d in edges], "endorsement")
        # distinct neighbours in the info-flow orientation, by brute force
        senders = [len({s for s, d in edges if d == v}) for v in range(n)]
        receivers = [len({d for s, d in edges if s == v}) for v in range(n)]
        exposure = receivers if mode == "out_degree" else \
            [a + b for a, b in zip(senders, receivers)]
        from netcent.rng import stream
        exact = oracles.mvc_exact(exposure, stream(77).random(n), steps)
        cfg = MvcConfig(init="seeded_uniform", seed=77, steps=steps,
                        exposure_mode=mode)
        runs = [mvc(graph, None, cfg) for graph in (g, twin)]
        for sv in runs:
            assert sv.params["exposure_mode"] == mode
            impl_order = [sv.labels[i] for i in sv.ordering()]
            assert impl_order == oracles.sort_by_exact(exact, list(g.labels))
        assert np.array_equal(runs[0].scores, runs[1].scores)

    def test_ranking_invariant_under_vul0_scaling(self):
        g, _ = random_graph(20, 70, seed=12)
        base = np.round(np.linspace(0.05, 0.95, 20), 3)
        cfg = MvcConfig(init="attribute")
        sv1 = mvc(g, attrs_for(g, base), cfg)
        # vulnerability_0 must stay in [0,1]; a generic column may scale freely
        scaled = NodeAttributes({"suscept": dict(zip(g.labels, base * 1e4))})
        sv2 = mvc(g, scaled, MvcConfig(init="attribute", attribute="suscept"))
        assert np.allclose(sv1.scores, sv2.scores, atol=1e-9)
        assert list(sv1.ordering()) == list(sv2.ordering())

    def test_monotone_in_exposure_for_equal_vul0(self):
        # chain of rising in-degree: 1, 2, 3 incoming edges
        edges = [("s1", "a"), ("s1", "b"), ("s2", "b"),
                 ("s1", "c"), ("s2", "c"), ("s3", "c")]
        g = from_edges(edges)
        sv = mvc(g, attrs_for(g, [0.5] * g.n), MvcConfig(init="attribute"))
        score = dict(zip(sv.labels, sv.scores))
        assert score["a"] < score["b"] < score["c"]

    def test_missing_attribute_names_node(self):
        g = from_edges([("a", "b")])
        attrs = NodeAttributes({"vulnerability_0": {"a": 0.5}})
        with pytest.raises(MissingAttribute) as exc:
            mvc(g, attrs, MvcConfig(init="attribute"))
        assert exc.value.node == "b"

    def test_seeded_init_requires_seed(self):
        g = from_edges([("a", "b")])
        with pytest.raises(InvalidParameter):
            mvc(g, None, MvcConfig(init="seeded_uniform", seed=None))

    def test_attribute_bounds_and_finiteness(self):
        with pytest.raises(InvalidParameter):
            NodeAttributes({"vulnerability_0": {"a": 1.5}})
        with pytest.raises(InvalidParameter):
            NodeAttributes({"retweet_count": {"a": -2.0}})
        with pytest.raises(InvalidParameter):
            NodeAttributes({"anything": {"a": float("inf")}})
        with pytest.raises(InvalidParameter):
            NodeAttributes({"anything": {"a": float("nan")}})

    def test_deterministic_given_seed(self):
        g, _ = random_graph(15, 60, seed=3)
        a = mvc(g, None, MvcConfig(seed=5)).scores
        b = mvc(g, None, MvcConfig(seed=5)).scores
        assert np.array_equal(a, b)

    def test_normalised_flag_and_range(self):
        g, _ = random_graph(15, 60, seed=3)
        sv = mvc(g, None, MvcConfig(seed=5))
        assert sv.normalised
        assert sv.scores.min() == 0.0 and sv.scores.max() == 1.0


class TestDic:
    def test_two_node_hand_case(self):
        g = from_edges([("A", "B")])
        sv = dic(g, DicConfig(steps=1))
        score = dict(zip(sv.labels, sv.scores))
        assert score["A"] == 0.0 and score["B"] == 1.0

    def test_edgeless_graph_all_zero(self):
        from netcent import build_graph, InteractionRecord
        g = build_graph([InteractionRecord("a", "a"),
                         InteractionRecord("b", "b")])
        assert np.all(dic(g).scores == 0.0)

    def test_rescaled_ratios_match_exact_recurrence(self):
        g, edges = random_graph(12, 40, seed=21)
        got = _dic_iterate(g, steps=10)
        exact = oracles.dic_exact(edges, 12, steps=10)
        ref = int(np.argmax(got))
        for v in range(12):
            want = Fraction(exact[v], exact[ref])
            assert abs(got[v] / got[ref] - float(want)) <= 1e-12 * float(want)

    def test_final_ranking_matches_exact_recurrence(self):
        for seed in (4, 17, 40):
            g, edges = random_graph(20, 70, seed=seed)
            sv = dic(g, DicConfig(steps=10))
            exact = oracles.dic_exact(edges, 20, steps=10)
            by_label = dict(zip(g.labels, exact))
            impl_order = [sv.labels[i] for i in sv.ordering()]
            assert oracles.is_valid_descending_order(impl_order, by_label)

    def test_final_ranking_on_dag(self):
        from netcent.rng import stream
        rng = stream(61)
        edges = sorted({(int(a), int(b)) for a, b in
                        zip(rng.integers(0, 19, 60), rng.integers(1, 20, 60))
                        if a < b})
        g = graph_from_ids(20, edges)
        sv = dic(g, DicConfig(steps=10))
        by_label = dict(zip(g.labels, oracles.dic_exact(edges, 20, 10)))
        impl_order = [sv.labels[i] for i in sv.ordering()]
        assert oracles.is_valid_descending_order(impl_order, by_label)

    def test_path_graph_binomial_closed_form(self):
        for k in range(2, 7):
            for steps in (k, 8, 10):
                edges = [(i, i + 1) for i in range(k - 1)]
                exact = oracles.dic_exact(edges, k, steps)
                want = [sum(math.comb(steps, i) for i in range(j + 1))
                        for j in range(k)]
                assert exact == want
                # and the implementation reproduces those ratios
                g = graph_from_ids(k, edges)
                got = _dic_iterate(g, steps)
                assert np.allclose(got / got[-1],
                                   np.array(want) / want[-1], rtol=1e-12)

    def test_reverse_flag_accumulates_on_transpose(self):
        g = from_edges([("A", "B")])
        sv = dic(g, DicConfig(steps=1, reverse=True))
        score = dict(zip(sv.labels, sv.scores))
        assert score["A"] == 1.0 and score["B"] == 0.0


class TestOrientationAwareDefaults:
    # the same interactions must score the same under either storage
    # convention: orientation-sensitive metrics resolve from metadata

    def build(self, convention):
        from netcent import InteractionRecord, build_graph
        recs = [InteractionRecord("r1", "author"),
                InteractionRecord("r2", "author"),
                InteractionRecord("r3", "author"),
                InteractionRecord("author", "r1"),
                InteractionRecord("r2", "r3")]
        return build_graph(recs, convention)

    def test_pc_matches_across_conventions(self):
        a = propagation_centrality(self.build("info_flow"))
        b = propagation_centrality(self.build("endorsement"))
        assert np.allclose(a.scores, b.scores)
        assert a.params["reverse"] != b.params["reverse"]

    def test_dic_matches_across_conventions(self):
        a = dic(self.build("info_flow"))
        b = dic(self.build("endorsement"))
        assert np.allclose(a.scores, b.scores)

    def test_mvc_exposure_matches_across_conventions(self):
        cfg = MvcConfig(seed=4)
        a = mvc(self.build("info_flow"), None, cfg)
        b = mvc(self.build("endorsement"), None, cfg)
        assert np.allclose(a.scores, b.scores)

    def test_eigenvector_matches_across_conventions(self):
        from netcent import eigenvector_centrality
        a = eigenvector_centrality(self.build("info_flow"))
        b = eigenvector_centrality(self.build("endorsement"))
        assert np.allclose(a.scores, b.scores, atol=1e-9)

    def test_deterministic(self):
        g, _ = random_graph(15, 60, seed=2)
        assert np.array_equal(dic(g).scores, dic(g).scores)


def _negative_custom_column(tmp_path):
    g = from_edges([("a", "b"), ("b", "c")])
    attrs = tmp_path / "attrs.csv"
    attrs.write_text("node,suscept\na,0.5\nb,-0.25\nc,1\n")
    path = tmp_path / "edges.csv"
    path.write_text("src,dst\na,b\nb,c\n")
    return (lambda: mvc(g, NodeAttributes.from_csv(attrs),
                        MvcConfig(init="attribute", attribute="suscept")),
            ("run", "--input", path, "--format", "edges", "--metrics", "mvc",
             "--mvc-init", "attribute", "--mvc-attribute", "suscept",
             "--attributes", attrs, "--out", tmp_path / "out"))


# each case fails a check of the novel module: (make the call and the
# command line reaching the check, None where the run's own choices
# check comes first; the error, a part of its message, the exit code)
NOVEL_CHECKS = {
    "mvc attribute init on a negative custom value": (
        _negative_custom_column, InvalidParameter, "must be finite and >= 0", 1),
    "mvc unknown init": (
        lambda tmp_path: (lambda: MvcConfig(init="zero"), None),
        InvalidParameter, "mvc init must be one of", None),
    "mvc unknown exposure mode": (
        lambda tmp_path: (lambda: MvcConfig(exposure_mode="degree"), None),
        InvalidParameter, "exposure mode must be one of", None),
}


@pytest.mark.parametrize("case", sorted(NOVEL_CHECKS))
def test_novel_input_checks(tmp_path, capsys, case):
    make, error, message, code = NOVEL_CHECKS[case]
    call, argv = make(tmp_path)
    with pytest.raises(error, match=re.escape(message)):
        call()
    if argv is None:
        return
    raised, exit_code = cli_failure(*argv)
    assert type(raised) is error and message in str(raised)
    assert exit_code == code
