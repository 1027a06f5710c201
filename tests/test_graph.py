import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_graph
from netcent import (DataError, DirectedGraph, EmptyInput, InteractionRecord,
                     Interactions, InvalidNode, InvalidParameter, ParseError,
                     build_graph, from_edges)


def rec(actor, target, kind="retweet"):
    return InteractionRecord(actor, target, kind)


class TestBuildGraph:
    def test_endorsement_aggregates_duplicates(self):
        g = build_graph([rec("A", "B"), rec("A", "B"), rec("C", "B", "mention")],
                        "endorsement")
        assert g.n == 3
        src, dst, w = g.edge_arrays()
        edges = {(g.labels[s], g.labels[d]): wt for s, d, wt in zip(src, dst, w)}
        assert edges == {("A", "B"): 2.0, ("C", "B"): 1.0}

    def test_info_flow_reverses_convention(self):
        g = build_graph([rec("A", "B"), rec("A", "B"), rec("C", "B", "mention")],
                        "info_flow")
        src, dst, w = g.edge_arrays()
        edges = {(g.labels[s], g.labels[d]): wt for s, d, wt in zip(src, dst, w)}
        assert edges == {("B", "A"): 2.0, ("B", "C"): 1.0}

    def test_self_loop_only_yields_isolated_node(self):
        g = build_graph([rec("A", "A")])
        assert g.n == 1 and g.num_edges == 0
        assert g.self_loops_dropped == 1

    def test_empty_records_rejected(self):
        with pytest.raises(EmptyInput):
            build_graph([])

    def test_malformed_record_names_line(self):
        with pytest.raises(ParseError) as exc:
            build_graph([rec("A", "B"), InteractionRecord("", "B")])
        assert exc.value.line == 2

    def test_ids_follow_sorted_labels(self):
        g = build_graph([rec("zeta", "alpha"), rec("mid", "zeta")], "endorsement")
        assert g.labels == ("alpha", "mid", "zeta")

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_record_order_never_matters(self, order):
        base = [rec("a", "b"), rec("b", "c"), rec("a", "b"), rec("c", "a"),
                rec("d", "a"), rec("b", "d")]
        shuffled = [base[i] for i in order]
        assert build_graph(shuffled, "endorsement") == build_graph(base, "endorsement")

    def test_record_weights_sum(self):
        g = build_graph([InteractionRecord("a", "b", weight=0.5),
                         InteractionRecord("a", "b", weight=2.0)], "endorsement")
        assert g.edge_arrays()[2][0] == 2.5


class TestTranspose:
    def test_single_edge(self):
        g = from_edges([("A", "B")])
        t = g.transpose()
        src, dst, _ = t.edge_arrays()
        assert (t.labels[src[0]], t.labels[dst[0]]) == ("B", "A")

    def test_involution(self):
        g, _ = random_graph(12, 30, seed=3)
        assert g.transpose().transpose() == g

    def test_edgeless_graph_unchanged(self):
        g = build_graph([rec("A", "A")])
        assert g.transpose().num_edges == 0 and g.transpose().labels == g.labels

    def test_shares_labels_and_arrays(self, cycle_abc):
        t = cycle_abc.transpose()
        assert t.labels is cycle_abc.labels
        assert t.out_dst is cycle_abc.in_src and t.in_src is cycle_abc.out_dst

    def test_three_cycle_reverses(self, cycle_abc):
        t = cycle_abc.transpose()
        src, dst, _ = t.edge_arrays()
        got = {(t.labels[s], t.labels[d]) for s, d in zip(src, dst)}
        assert got == {("a", "c"), ("c", "b"), ("b", "a")}


LABEL_ORDER_CASES = st.lists(st.text(max_size=3), min_size=1, max_size=8,
                             unique=True).flatmap(lambda labels: st.tuples(
    st.just(sorted(labels)), st.permutations(range(len(labels))),
    st.lists(st.tuples(st.integers(0, len(labels) - 1),
                       st.integers(0, len(labels) - 1)), max_size=20)))


class TestLabelOrder:
    @given(LABEL_ORDER_CASES)
    @settings(max_examples=100, deadline=None)
    def test_constructor_sorts_labels_given_in_any_order(self, case):
        labels, perm, edges = case
        shuffled = [labels[i] for i in perm]
        where = {old: new for new, old in enumerate(perm)}
        w = [1.0 + i for i in range(len(edges))]
        g = DirectedGraph(shuffled, [where[s] for s, _ in edges],
                          [where[d] for _, d in edges], w)
        assert g == DirectedGraph(labels, [s for s, _ in edges],
                                  [d for _, d in edges], w)
        assert all(a < b for a, b in zip(g.labels, g.labels[1:]))

    def test_id_of_finds_only_its_labels(self):
        g = from_edges([("b", "d")])
        assert (g.id_of("b"), g.id_of("d")) == (0, 1)
        for label in ("a", "c", "e", "b\0", 5):
            with pytest.raises(InvalidNode):
                g.id_of(label)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidParameter, match="unique"):
            DirectedGraph(["b", "a", "b"], [0], [1], [1.0])

    def test_constructor_drops_and_counts_self_loops(self, caplog):
        with caplog.at_level(logging.WARNING, logger="netcent.graph"):
            g = DirectedGraph(["b", "a"], [0, 1, 0], [0, 1, 1], [1.0, 1.0, 2.0])
        assert g.self_loops_dropped == 2
        assert g.num_edges == 1 and g.labels == ("a", "b")
        assert g.edge_arrays()[0].tolist() == [1] and g.out_w.tolist() == [2.0]
        assert "dropped 2 self-loop edge(s)" in caplog.text

    def test_from_edges_rejects_an_empty_label(self):
        with pytest.raises(InvalidParameter, match="missing"):
            from_edges([("", "b")])

    @pytest.mark.parametrize("label", ["\ud800", "a\udfff", "\ud83d\ude00"])
    def test_labels_utf8_cannot_encode_are_rejected(self, label):
        with pytest.raises(InvalidParameter, match="UTF-8"):
            DirectedGraph(["b", label], [0], [1], [1.0])
        with pytest.raises(InvalidParameter, match="UTF-8"):
            from_edges([("b", label)])


class TestRemoveNodes:
    def test_path_becomes_isolated(self, path_abc):
        g, mapping = path_abc.remove_nodes([path_abc.id_of("b")])
        assert g.labels == ("a", "c") and g.num_edges == 0
        assert mapping == {0: 0, 2: 1}

    def test_remove_nothing_is_identity(self, path_abc):
        g, mapping = path_abc.remove_nodes([])
        assert g == path_abc
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_unknown_node_rejected(self, path_abc):
        with pytest.raises(InvalidNode):
            path_abc.remove_nodes([7])

    def test_edge_count_matches_filtered_edge_list(self):
        g, edges = random_graph(10, 40, seed=11)
        victims = {1, 4, 8}
        got, _ = g.remove_nodes(victims)
        expected = [(s, d) for s, d in edges if s not in victims and d not in victims]
        assert got.num_edges == len(expected)

    def test_surviving_degrees_match_edge_list_oracle(self):
        for seed in range(5):
            g, edges = random_graph(30, 150, seed=seed)
            victims = {2, 5, 17, (seed * 7) % 30}
            got, mapping = g.remove_nodes(victims)
            kept = [(s, d) for s, d in edges
                    if s not in victims and d not in victims]
            ind, outd, _ = oracles.degree_counts(
                [(mapping[s], mapping[d]) for s, d in kept], got.n)
            for old, new in mapping.items():
                assert got.degree(new, "in") == ind[new]
                assert got.degree(new, "out") == outd[new]
                assert got.labels[new] == g.labels[old]


class TestDegree:
    def test_single_edge_modes(self):
        g = from_edges([("A", "B")])
        a = g.id_of("A")
        assert g.degree(a, "out") == 1
        assert g.degree(a, "in") == 0
        assert g.degree(a, "total") == 1

    def test_isolated_node_zero(self):
        g = build_graph([rec("A", "A")])
        assert all(g.degree(0, m) == 0 for m in ("in", "out", "total"))

    def test_matches_edge_list_scan(self):
        g, edges = random_graph(50, 300, seed=7)
        ind, outd, total = oracles.degree_counts(edges, 50)
        for v in range(50):
            assert g.degree(v, "in") == ind[v]
            assert g.degree(v, "out") == outd[v]
            assert g.degree(v, "total") == total[v]

    def test_degree_sums_equal_edge_count(self):
        for seed in range(8):
            g, _ = random_graph(25, 90, seed=seed)
            outs = sum(g.degree(v, "out") for v in range(g.n))
            ins = sum(g.degree(v, "in") for v in range(g.n))
            assert outs == ins == g.num_edges

    def test_out_degree_equals_transpose_in_degree(self):
        g, _ = random_graph(20, 70, seed=9)
        t = g.transpose()
        for v in range(g.n):
            assert g.degree(v, "out") == t.degree(v, "in")

    def test_invalid_node(self, path_abc):
        with pytest.raises(InvalidNode):
            path_abc.degree(99, "in")


def test_graph_arrays_are_read_only():
    g = from_edges([("a", "b")])
    with pytest.raises(ValueError):
        g.out_dst[0] = 0


def test_non_positive_edge_weight_rejected():
    with pytest.raises(InvalidParameter):
        from_edges([("a", "b", 0.0)])
    with pytest.raises(InvalidParameter):
        from_edges([("a", "b", -1.5)])


def test_record_with_non_positive_weight_names_line():
    with pytest.raises(ParseError) as exc:
        build_graph([rec("a", "b"), InteractionRecord("b", "c", weight=0.0)])
    assert exc.value.line == 2


@pytest.mark.parametrize("w", [float("nan"), float("inf")])
def test_non_finite_edge_weight_rejected(w):
    with pytest.raises(InvalidParameter):
        from_edges([("a", "b", w)])
    with pytest.raises(InvalidParameter):
        DirectedGraph(["a", "b"], [0], [1], [w])


@pytest.mark.parametrize("w", [float("nan"), float("inf"), None])
def test_record_with_non_finite_weight_names_line(w):
    with pytest.raises(ParseError) as exc:
        build_graph([rec("a", "b"), InteractionRecord("b", "c", weight=w)])
    assert exc.value.line == 2


# each case fails a check of the graph module: (the call, the error, a
# part of its message)
GRAPH_CHECKS = {
    "unknown direction": (
        lambda: DirectedGraph(["a", "b"], [0], [1], [1.0], "sideways"),
        InvalidParameter, "unknown direction 'sideways'"),
    "edge endpoint out of range": (
        lambda: DirectedGraph(["a", "b"], [0], [2], [1.0]),
        InvalidNode, "edge endpoint outside node range"),
    "degree with a bad mode": (
        lambda: from_edges([("a", "b")]).degree(0, "sideways"),
        InvalidParameter, "degree mode must be one of"),
    "no edges and no nodes": (lambda: from_edges([]), EmptyInput,
                              "no edges and no nodes"),
    "unknown convention": (
        lambda: build_graph([rec("a", "b")], "sideways"),
        InvalidParameter, "unknown direction convention 'sideways'"),
    "summed weight overflows": (
        lambda: DirectedGraph(["a", "b", "c"], [0, 2, 0], [1, 1, 1],
                              [1e308, 1.0, 1e308]),
        DataError, "edge ('a', 'b'): its summed weight overflows"),
}


@pytest.mark.parametrize("case", sorted(GRAPH_CHECKS))
def test_graph_input_checks(case):
    call, error, message = GRAPH_CHECKS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and message in str(raised.value)


def test_columns_and_records_build_the_same_graph():
    records = [InteractionRecord("b", "a", "reply", 5.0, 2.0),
               InteractionRecord("c", "c"), InteractionRecord("a", "b")]
    cols = Interactions.from_records(records)
    assert len(cols) == 3 and cols.labels == ["b", "a", "c"]
    assert build_graph(cols, "endorsement") == build_graph(records, "endorsement")
    assert build_graph(cols).self_loops_dropped == 1


@given(st.integers(1, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_csr_arrays_match_lexsort(n, data):
    """Edge lists with repeated pairs and self-loops build the same six
    CSR arrays as sorting with np.lexsort, duplicates summed in order."""
    node = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=120))
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=40)
                       if pairs else st.just([]))
    src = np.array([s for s, _ in pairs], dtype=np.int64)
    dst = np.array([d for _, d in pairs], dtype=np.int64)
    w = np.array(data.draw(st.lists(st.floats(0.125, 8.0), min_size=len(pairs),
                                    max_size=len(pairs))))
    labels = [f"{i:02d}" for i in range(n)]
    g = DirectedGraph(labels, src, dst, w)
    got = (g.out_ptr, g.out_dst, g.out_w, g.in_ptr, g.in_src, g.in_w)
    for mine, want in zip(got, oracles.lexsort_csr(n, src, dst, w)):
        assert np.array_equal(mine, want)
