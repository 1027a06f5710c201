"""Acceptance gate: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

import oracles
from conftest import (graph_from_ids, random_graph, strongly_connected_graph,
                      use_cpus)
from netcent import (CascadeConfig, DicConfig, MvcConfig, NodeAttributes,
                     PcConfig, PowerIterationConfig, betweenness_centrality,
                     closeness_centrality, degree_centrality, dic,
                     eigenvector_centrality, from_edges,
                     intervention_experiment, metric_removal_set, mvc,
                     preferential_attachment, propagation_centrality, top_k)
from netcent.cli import main as cli_main
from netcent.novel import _dic_iterate
from netcent.pipeline import RunConfig, compute_metric
from netcent.rng import derive_seed, stream, substream
from test_ranking import TRADITIONAL_IDS, fixture_rankings, DIC_EXCLUSIVE
from netcent.ranking import overlap_report


@pytest.fixture(autouse=True)
def criterion_banner(request):
    started = time.monotonic()
    yield
    rep = getattr(request.node, "rep_call", None)
    if rep is None:
        return
    status = "PASS" if rep.passed else "FAIL"
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {request.node.name}: {status} ({elapsed:.1f}s)")


def test_criterion_1_oracle_equivalence():
    """Closeness/betweenness/degree vs brute force on 200 random digraphs;
    eigenvector vs a dense eigensolver on strongly connected graphs."""
    started = time.monotonic()
    rng = stream(1001)
    for trial in range(200):
        n = int(rng.integers(2, 51))
        # mix sparse and dense instances, up to ~40% of all possible edges
        m = int(rng.integers(0, max(2, int(0.4 * n * (n - 1))) + 1))
        g, edges = random_graph(n, m, seed=10_000 + trial)

        ind, outd, total = oracles.degree_counts(edges, n)
        assert np.array_equal(degree_centrality(g, "in").scores, ind)
        assert np.array_equal(degree_centrality(g, "out").scores, outd)
        assert np.array_equal(degree_centrality(g, "total").scores, total)

        got_c = closeness_centrality(g, mode="exact").scores
        assert np.max(np.abs(got_c - oracles.harmonic_closeness(edges, n))) <= 1e-9

        got_b = betweenness_centrality(g, mode="exact").scores
        assert np.max(np.abs(got_b - oracles.betweenness(edges, n))) <= 1e-9

    for trial in range(25):
        n = int(stream(77 + trial).integers(4, 21))
        g, edges = strongly_connected_graph(n, extra=2 * n, seed=500 + trial)
        sv = eigenvector_centrality(
            g, PowerIterationConfig(tolerance=1e-13, max_iterations=50_000))
        want = oracles.dominant_eigenvector(edges, n)
        assert float(np.dot(sv.scores, want)) >= 1 - 1e-8

    assert time.monotonic() - started < 60.0


def test_criterion_2_pc_contract():
    """Unit mass every iteration, convergence within 100 iterations at
    1e-10 up to 1e4 nodes, dense fixed-point agreement on small graphs."""
    g_small, _ = random_graph(40, 170, seed=2)
    for iters in range(1, 13):
        sv = propagation_centrality(
            g_small, PcConfig(tolerance=1e-300, max_iterations=iters))
        assert abs(sv.scores.sum() - 1.0) <= 1e-9

    for seed in range(10):
        g, edges = random_graph(15, 55, seed=100 + seed)
        sv = propagation_centrality(g)
        want = oracles.pagerank_dense([(d, s) for s, d in edges], 15)
        assert np.max(np.abs(sv.scores - want)) <= 1e-8
        assert abs(sv.scores.sum() - 1.0) <= 1e-9

    big = [random_graph(100, 500, seed=1)[0],
           random_graph(1000, 5000, seed=2)[0],
           random_graph(10_000, 50_000, seed=3)[0],
           preferential_attachment(10_000, 4, seed=4)]
    for g in big:
        sv = propagation_centrality(g)  # defaults: tol 1e-10, max 100
        assert sv.params["converged"], f"no convergence on n={g.n}"
        assert sv.iterations_run <= 100
        assert abs(sv.scores.sum() - 1.0) <= 1e-9
        assert np.all(sv.scores > 0)


def test_criterion_3_mvc_contract():
    """Exact zeros for unexposed nodes; ranking identical to the
    extended-precision closed form for T in {1, 5, 10}; scale-free."""
    for steps in (1, 5, 10):
        for seed in (3, 14, 62):
            g, _ = random_graph(25, 95, seed=seed)
            cfg = MvcConfig(init="seeded_uniform", seed=seed * 11, steps=steps)
            sv = mvc(g, None, cfg)
            vul0 = stream(seed * 11).random(25)
            exposure = [g.degree(v, "in") for v in range(25)]
            exact = oracles.mvc_exact(exposure, vul0, steps)

            for v in range(25):
                if exposure[v] == 0:
                    assert sv.scores[v] == 0.0
            impl_order = [sv.labels[i] for i in sv.ordering()]
            assert impl_order == oracles.sort_by_exact(exact, list(g.labels))

    g, _ = random_graph(20, 80, seed=9)
    base = np.round(np.linspace(0.001, 0.9, 20), 4)
    sv1 = mvc(g, NodeAttributes({"v": dict(zip(g.labels, base))}),
              MvcConfig(init="attribute", attribute="v"))
    sv2 = mvc(g, NodeAttributes({"v": dict(zip(g.labels, base * 517.0))}),
              MvcConfig(init="attribute", attribute="v"))
    assert list(sv1.ordering()) == list(sv2.ordering())
    assert np.allclose(sv1.scores, sv2.scores, atol=1e-9)


def test_criterion_4_dic_contract():
    """Hand case, rank agreement with the exact recurrence at T=10, and
    the binomial closed form on directed paths."""
    two = from_edges([("A", "B")])
    sv = dic(two, DicConfig(steps=1))
    score = dict(zip(sv.labels, sv.scores))
    assert (score["A"], score["B"]) == (0.0, 1.0)

    for seed in (5, 23, 71, 90):
        g, edges = random_graph(20, 75, seed=seed)
        sv = dic(g, DicConfig(steps=10))
        exact = oracles.dic_exact(edges, 20, steps=10)
        by_label = dict(zip(g.labels, exact))
        impl_order = [sv.labels[i] for i in sv.ordering()]
        assert oracles.is_valid_descending_order(impl_order, by_label)

    for k in range(2, 7):
        for steps in (k, 10):
            edges = [(i, i + 1) for i in range(k - 1)]
            closed_form = [sum(math.comb(steps, i) for i in range(j + 1))
                           for j in range(k)]
            assert oracles.dic_exact(edges, k, steps) == closed_form
            got = _dic_iterate(graph_from_ids(k, edges), steps)
            assert np.allclose(got / got[-1],
                               np.array(closed_form) / closed_form[-1],
                               rtol=1e-12)


def test_criterion_5_published_fixture_reproduction():
    """Published top-10 identities reproduce every region count, the
    29-node traditional union, and the 44.83% coverage gain at union 42."""
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

    # the published novel sets themselves add 14 nodes (set-level fact)
    full = overlap_report(fixture_rankings(include_novel=True), TRADITIONAL_IDS)
    assert len(full.union_all) == 43

    # a combined union of 42 over the same baseline gives the 44.83% gain
    report42 = overlap_report(
        fixture_rankings(include_novel=True,
                         dic_ids=DIC_EXCLUSIVE[:9] + [756]),
        TRADITIONAL_IDS)
    assert len(report42.union_all) == 42
    assert report42.coverage_gain_pct == pytest.approx(44.83, abs=0.01)
    assert report42.coverage_gain_pct == pytest.approx(100 * 13 / 29, abs=1e-9)


def _directional_replicate(gseed, p=0.2, trials=1000):
    g = preferential_attachment(1000, 4, seed=gseed)
    vectors = {
        "degree_total": degree_centrality(g, "total"),
        "closeness": closeness_centrality(g, mode="exact"),
        "betweenness": betweenness_centrality(g, mode="exact"),
        "eigenvector": eigenvector_centrality(g),
        "pc": propagation_centrality(g),
        "mvc": mvc(g, None, MvcConfig(seed=derive_seed(gseed, "mvc_init"))),
        "dic": dic(g),
    }
    deep = {m: top_k(sv, sv.n) for m, sv in vectors.items()}
    seeds = tuple(sorted(
        g.labels[i] for i in
        substream(gseed, "sim_seeds").choice(g.n, 20, replace=False)))
    cascade = CascadeConfig(seeds=seeds, p=p, trials=trials,
                            seed=derive_seed(gseed, "cascade"))

    combined = metric_removal_set(deep, "combined_union", k=10)
    budget = len(combined)
    traditional = metric_removal_set(deep, "traditional_union", k=10,
                                     budget=budget, universe=g.labels,
                                     seed=derive_seed(gseed, "removal_pad"))
    rand = metric_removal_set(deep, "random", budget=budget,
                              universe=g.labels,
                              seed=derive_seed(gseed, "removal_random"))
    return [res.reduction_pct for res in intervention_experiment(
        g, [combined, traditional, rand], cascade)]


def test_criterion_6_intervention_directionality():
    """Equal-budget removal: combined beats traditional beats random over
    30 replicate scale-free digraphs (n=1000, mean out-degree 4)."""
    started = time.monotonic()
    rows = np.array([_directional_replicate(gseed) for gseed in range(30)])
    combined, traditional, rand = rows[:, 0], rows[:, 1], rows[:, 2]

    assert combined.mean() > traditional.mean() > rand.mean()
    assert (combined - traditional).mean() >= 0.0

    wins = int((combined > rand).sum())
    p_value = scipy.stats.binomtest(wins, 30, alternative="greater").pvalue
    assert p_value < 0.05

    assert time.monotonic() - started < 300.0


def test_criterion_7_exact_cascade_oracle():
    """Monte Carlo means within 3 exact standard errors of live-edge
    enumeration; p=1 equals reachability exactly."""
    from netcent import spread_volume

    trials = 3000
    for seed in (6, 13, 27):
        g, edges = random_graph(8, 10, seed=seed)
        assert g.num_edges <= 10
        root = int(np.argmax([g.degree(v, "out") for v in range(8)]))
        for p in (0.3, 0.6):
            exact_mean, exact_var = oracles.live_edge_expectation(
                edges, 8, [root], p)
            vol = spread_volume(
                g, CascadeConfig(seeds=(g.labels[root],), p=p, trials=trials,
                                 seed=seed))
            assert abs(vol - exact_mean) <= 3 * math.sqrt(exact_var / trials)

    for seed in range(8):
        g, _ = random_graph(30, 120, seed=40 + seed)
        seeds = (g.labels[0], g.labels[5])
        unit = spread_volume(g, CascadeConfig(seeds=seeds, p=1.0, trials=7,
                                              seed=1))
        reach = spread_volume(g, CascadeConfig(seeds=seeds,
                                               model="reachability"))
        assert unit == reach


def test_criterion_8_pipeline_determinism(tmp_path, monkeypatch, forks):
    """Byte-identical report.json across reruns and CPU counts."""
    src = tmp_path / "interactions.csv"
    rows = ["actor,target,kind,timestamp,weight"]
    rng = stream(88)
    # 150 users: three 64-source chunks, so two CPUs fork two workers
    for _ in range(600):
        a, b = rng.integers(0, 150, size=2)
        rows.append(f"u{a},u{b},retweet,,")
    src.write_text("\n".join(rows) + "\n")

    out = tmp_path / "out"
    base = ["run", "--input", str(src), "--out", str(out), "--seed", "5",
            "--k", "6", "--simulate", "--sim-random-seeds", "3",
            "--ic-trials", "200"]
    assert cli_main(base) == 0
    first = (out / "report.json").read_bytes()
    # two for betweenness' chunks, one for the cascades' four lanes
    assert len(forks) == 3
    use_cpus(monkeypatch, 1)
    assert cli_main(base) == 0
    assert (out / "report.json").read_bytes() == first
    assert len(forks) == 3
    assert json.loads(first)["interventions"]


def test_criterion_9_performance_smoke():
    """All seven metrics on 1e5 nodes / 1e6 edges in under ten minutes."""
    started = time.monotonic()
    g = preferential_attachment(100_000, 10, seed=1)
    assert g.n == 100_000 and g.num_edges >= 900_000
    cfg = RunConfig(input="unused", seed=7)
    for metric in ("degree_total", "closeness", "betweenness",
                   "eigenvector", "pc", "mvc", "dic"):
        sv = compute_metric(g, metric, cfg)
        assert sv.n == g.n
        if metric in ("closeness", "betweenness"):
            assert sv.params["mode"] == "sampled"
    assert time.monotonic() - started < 600.0
