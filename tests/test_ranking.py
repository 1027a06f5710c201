import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from netcent import (DegenerateBaseline, InsufficientData, InvalidParameter,
                     NodeAttributes, RankingTable, ScoreVector,
                     UndefinedCorrelation, overlap_report, rank_correlation,
                     top_k)
from netcent.rng import stream

# Published top-10 identities for the four traditional metrics and the
# novel-metric additions (node ids as reported for the COVID reshare net).
DEGREE_TOP10 = [26, 756, 11019, 11248, 33091, 40327, 64409, 83247, 84148, 142153]
EIGEN_TOP10 = [15, 26, 93, 102, 235, 522, 526, 593, 756, 11248]
BETWEENNESS_TOP10 = [2, 15, 26, 93, 102, 235, 522, 526, 756, 1371]
CLOSENESS_TOP10 = [4, 5, 6, 14, 28, 42, 43, 62, 66, 83]
PC_TOP10 = [26, 11019, 11248, 15, 33091, 40327, 64409, 83247, 84148, 5398]
MVC_EXCLUSIVE = [101358, 72378, 130371]
DIC_EXCLUSIVE = [49905, 54048, 5958, 18119, 36077, 36393, 37557, 72479,
                 73960, 85735]

TRADITIONAL_IDS = ("betweenness", "closeness", "degree_total", "eigenvector")


def table(metric, ids):
    entries = [(rank, str(node), float(len(ids) - rank + 1))
               for rank, node in enumerate(ids, start=1)]
    return RankingTable(metric=metric, k=len(ids), entries=entries)


def fixture_rankings(include_novel=False, dic_ids=DIC_EXCLUSIVE):
    rankings = {
        "degree_total": table("degree_total", DEGREE_TOP10),
        "eigenvector": table("eigenvector", EIGEN_TOP10),
        "betweenness": table("betweenness", BETWEENNESS_TOP10),
        "closeness": table("closeness", CLOSENESS_TOP10),
    }
    if include_novel:
        rankings["pc"] = table("pc", PC_TOP10)
        rankings["mvc"] = table("mvc", MVC_EXCLUSIVE + DEGREE_TOP10[:7])
        rankings["dic"] = table("dic", dic_ids)
    return rankings


class TestTopK:
    def test_tie_broken_by_label(self):
        sv = ScoreVector("degree_total", ("A", "B", "C"),
                         np.array([3.0, 3.0, 1.0]))
        assert [lab for _, lab, _ in top_k(sv, 2).entries] == ["A", "B"]

    def test_k_larger_than_n_keeps_full_order(self):
        sv = ScoreVector("pc", ("a", "b", "c"), np.array([0.1, 0.7, 0.2]))
        entries = top_k(sv, 10).entries
        assert [lab for _, lab, _ in entries] == ["b", "c", "a"]
        assert [r for r, _, _ in entries] == [1, 2, 3]

    def test_matches_full_sort_prefix(self):
        rng = stream(55)
        scores = rng.random(100)
        labels = tuple(f"n{i:03d}" for i in range(100))
        sv = ScoreVector("pc", labels, scores)
        got = [lab for _, lab, _ in top_k(sv, 10).entries]
        want = [lab for _, lab in
                sorted(zip(-scores, labels))][:10]
        assert got == want

    def test_k_below_one_rejected(self):
        sv = ScoreVector("pc", ("a",), np.array([1.0]))
        with pytest.raises(InvalidParameter):
            top_k(sv, 0)

    def test_invariant_under_positive_affine_transform(self):
        rng = stream(56)
        scores = rng.random(40)
        labels = tuple(f"n{i:02d}" for i in range(40))
        base = top_k(ScoreVector("pc", labels, scores), 12)
        shifted = top_k(ScoreVector("pc", labels, scores * 3.5 + 11.0), 12)
        assert base.labels() == shifted.labels()


class TestOverlapReport:
    def test_published_region_counts(self):
        report = overlap_report(fixture_rankings(), TRADITIONAL_IDS)
        counts = report.region_counts()
        assert counts[frozenset({"degree_total", "eigenvector", "betweenness"})] == 2
        assert counts[frozenset({"degree_total", "eigenvector"})] == 1
        assert counts[frozenset({"eigenvector", "betweenness"})] == 6
        assert counts[frozenset({"degree_total"})] == 7
        assert counts[frozenset({"eigenvector"})] == 1
        assert counts[frozenset({"betweenness"})] == 2
        assert counts[frozenset({"closeness"})] == 10
        assert len(report.union_traditional) == 29

    def test_published_region_identities(self):
        report = overlap_report(fixture_rankings(), TRADITIONAL_IDS)
        by_sig = {frozenset(r.metrics): set(r.nodes) for r in report.regions}
        assert by_sig[frozenset({"degree_total", "eigenvector", "betweenness"})] \
            == {"26", "756"}
        assert by_sig[frozenset({"degree_total", "eigenvector"})] == {"11248"}
        assert by_sig[frozenset({"eigenvector"})] == {"593"}

    def test_novel_sets_produce_their_actual_counts(self):
        # the published exclusives sum to 14 new nodes over the 29
        report = overlap_report(fixture_rankings(include_novel=True),
                                TRADITIONAL_IDS)
        assert len(report.union_traditional) == 29
        assert len(report.union_all) == 43
        exclusive_novel = [r for r in report.regions
                           if set(r.metrics) <= {"pc", "mvc", "dic"}]
        assert sum(r.count for r in exclusive_novel) == 14

    def test_coverage_gain_for_42_union(self):
        # novel sets contributing 13 fresh nodes on top of the 29
        dic_ids = DIC_EXCLUSIVE[:9] + [756]
        report = overlap_report(
            fixture_rankings(include_novel=True, dic_ids=dic_ids),
            TRADITIONAL_IDS)
        assert len(report.union_all) == 42
        assert report.coverage_gain_pct == pytest.approx(44.83, abs=0.01)

    def test_identical_rankings_single_region_zero_gain(self):
        r = fixture_rankings()
        rankings = {"degree_total": r["degree_total"],
                    "pc": table("pc", DEGREE_TOP10)}
        report = overlap_report(rankings, ["degree_total"])
        assert len(report.regions) == 1
        assert report.regions[0].metrics == ("degree_total", "pc")
        assert report.coverage_gain_pct == 0.0

    def test_too_few_rankings_rejected(self):
        with pytest.raises(InvalidParameter):
            overlap_report({"pc": table("pc", PC_TOP10)}, [])

    def test_absent_traditional_metric_rejected(self):
        r = fixture_rankings()
        with pytest.raises(InvalidParameter):
            overlap_report(r, ["pc"])

    def test_empty_baseline_rejected(self):
        rankings = {"pc": table("pc", PC_TOP10), "dic": table("dic", DIC_EXCLUSIVE)}
        with pytest.raises(DegenerateBaseline):
            overlap_report(rankings, [])

    @given(st.lists(st.lists(st.integers(0, 25), min_size=1, max_size=12),
                    min_size=2, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_partition_reconstructs_union(self, id_lists):
        rankings = {f"m{i}": table(f"m{i}", ids)
                    for i, ids in enumerate(id_lists)}
        # name one metric per ranking as traditional so the baseline exists
        report = overlap_report(rankings, ["m0"])
        all_nodes = [n for r in report.regions for n in r.nodes]
        assert len(all_nodes) == len(set(all_nodes))  # pairwise disjoint
        assert set(all_nodes) == set(report.union_all)
        for region in report.regions:
            for node in region.nodes:
                member_of = {m for m in rankings
                             if node in rankings[m].label_set()}
                assert member_of == set(region.metrics)

    def test_gain_invariant_under_relabelling(self):
        plain = overlap_report(fixture_rankings(include_novel=True),
                               TRADITIONAL_IDS)
        renamed = {
            m: RankingTable(m, t.k, [(r, f"u{lab}", s) for r, lab, s in t.entries])
            for m, t in fixture_rankings(include_novel=True).items()}
        assert overlap_report(renamed, TRADITIONAL_IDS).coverage_gain_pct \
            == plain.coverage_gain_pct


# each case fails a check of the scores module: (the call, the error, a
# part of its message)
SCORES_CHECKS = {
    "score vector of the wrong length": (
        lambda: ScoreVector("pc", ("a", "b"), [1.0]), InvalidParameter,
        "score vector length must equal node count"),
    "score that is not finite": (
        lambda: ScoreVector("pc", ("a", "b"), [1.0, np.nan]), InvalidParameter,
        "scores must be finite"),
}


@pytest.mark.parametrize("case", sorted(SCORES_CHECKS))
def test_scores_input_checks(case):
    call, error, message = SCORES_CHECKS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and message in str(raised.value)


def make_attrs(labels, values, column="retweet_count"):
    return NodeAttributes({column: dict(zip(labels, values))})


class TestRankCorrelation:
    def test_perfect_monotone(self):
        labels = tuple(f"n{i}" for i in range(10))
        scores = ScoreVector("pc", labels, np.arange(10, dtype=float))
        attrs = make_attrs(labels, [v ** 3 + 1 for v in range(10)])
        res = rank_correlation(scores, attrs, "retweet_count")
        assert res.rho == pytest.approx(1.0)
        assert res.n_effective == 10

    def test_perfect_antitone(self):
        labels = tuple(f"n{i}" for i in range(8))
        scores = ScoreVector("pc", labels, np.arange(8, dtype=float))
        attrs = make_attrs(labels, list(range(8, 0, -1)))
        assert rank_correlation(scores, attrs, "retweet_count").rho \
            == pytest.approx(-1.0)

    def test_matches_scipy_with_ties(self):
        rng = stream(99)
        labels = tuple(f"n{i:02d}" for i in range(20))
        x = np.round(rng.random(20), 1)  # induces ties
        y = np.round(rng.random(20), 1)
        res = rank_correlation(ScoreVector("pc", labels, x),
                               make_attrs(labels, y), "retweet_count")
        want = scipy.stats.spearmanr(x, y).statistic
        assert res.rho == pytest.approx(want, abs=1e-12)

    def test_only_attributed_nodes_count(self):
        labels = ("a", "b", "c", "d", "e")
        scores = ScoreVector("pc", labels, np.array([1.0, 2, 3, 4, 5]))
        attrs = make_attrs(("a", "c", "e"), [10, 20, 30])
        res = rank_correlation(scores, attrs, "retweet_count")
        assert res.n_effective == 3
        assert res.rho == pytest.approx(1.0)

    def test_too_few_nodes(self):
        labels = ("a", "b", "c")
        scores = ScoreVector("pc", labels, np.array([1.0, 2, 3]))
        with pytest.raises(InsufficientData):
            rank_correlation(scores, make_attrs(("a", "b"), [1, 2]),
                             "retweet_count")

    def test_zero_variance(self):
        labels = ("a", "b", "c", "d")
        scores = ScoreVector("pc", labels, np.array([1.0, 2, 3, 4]))
        with pytest.raises(UndefinedCorrelation):
            rank_correlation(scores, make_attrs(labels, [7, 7, 7, 7]),
                             "retweet_count")

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_monotone_transforms(self, seed):
        rng = stream(seed)
        labels = tuple(f"n{i:02d}" for i in range(12))
        x = rng.random(12)
        y = rng.random(12)
        base = rank_correlation(ScoreVector("pc", labels, x),
                                make_attrs(labels, y), "retweet_count").rho
        warped = rank_correlation(
            ScoreVector("pc", labels, np.exp(4 * x)),
            make_attrs(labels, list(np.cbrt(y) + 2)), "retweet_count").rho
        assert warped == pytest.approx(base, abs=1e-9)
