import math
import os
import select
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netcent.rng
import oracles
from conftest import (assert_no_child_left, random_edge_list, random_graph,
                      use_cpus)
from netcent import (CascadeConfig, DataError, DirectedGraph, InvalidNode,
                     InvalidParameter, from_edges,
                     intervention_experiment, metric_removal_set,
                     simulate, spread_volume, traditional)
from netcent.rng import stream
from netcent.simulate import MODELS, _lanes, _trial_counts
from netcent.sweep import Sweep, popcounts
from test_ranking import (DEGREE_TOP10, EIGEN_TOP10, BETWEENNESS_TOP10,
                          CLOSENESS_TOP10, PC_TOP10, MVC_EXCLUSIVE,
                          DIC_EXCLUSIVE, fixture_rankings, table)


def reach_cfg(*seeds):
    return CascadeConfig(seeds=tuple(seeds), model="reachability")


TRIAL_COUNTS = (1, 13, 63, 64, 65, 130)


def weighted_graph(n, edges, weights):
    """Graph over ids 0..n-1 with one weight per (sorted) edge."""
    labels = [f"n{i}" for i in range(n)]
    return DirectedGraph(labels, [s for s, _ in edges], [d for _, d in edges],
                         weights)


@st.composite
def cascade_cases(draw, model="independent_cascade", p=None):
    """(graph, edges, weights, seed ids, removed ids, config) on <= 9 nodes."""
    n = draw(st.integers(2, 9))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=24))
    edges = sorted({(s, d) for s, d in pairs if s != d})
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=len(edges),
                            max_size=len(edges)))
    g = weighted_graph(n, edges, np.array(weights))
    seeds = sorted(draw(st.sets(node, min_size=1)))
    removed = sorted(draw(st.sets(node)))
    cfg = CascadeConfig(
        seeds=tuple(g.labels[v] for v in seeds), model=model,
        p=draw(st.floats(0.05, 1.0)) if p is None else p,
        trials=draw(st.sampled_from(TRIAL_COUNTS)),
        seed=draw(st.integers(0, 2**64 - 1)), weight_scaled=draw(st.booleans()))
    return g, edges, weights, seeds, removed, cfg


@pytest.fixture
def raw_draws(monkeypatch):
    """Sizes of the raw-word draws cascade lanes make, in order."""
    sizes = []
    trial_stream = netcent.rng.trial_stream

    def counted(seed, lane):
        random_raw = trial_stream(seed, lane).bit_generator.random_raw

        def draw(size):
            sizes.append(size)
            return random_raw(size)
        return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=draw))

    monkeypatch.setattr(netcent.rng, "trial_stream", counted)
    return sizes


def in_order(edges, weights):
    """Edges and their weights sorted by (dst, src): the draw order."""
    pairs = sorted(zip(edges, weights), key=lambda t: (t[0][1], t[0][0]))
    return [e for e, _ in pairs], [w for _, w in pairs]


def edge_probs(cfg, weights):
    if cfg.weight_scaled:
        return [1.0 - (1.0 - cfg.p) ** w for w in weights]
    return [cfg.p] * len(weights)


class TestSpreadVolume:
    def test_reachability_on_path(self, path_abc):
        assert spread_volume(path_abc, reach_cfg("a")) == 3.0
        assert spread_volume(path_abc, reach_cfg("b")) == 2.0
        assert spread_volume(path_abc, reach_cfg("c")) == 1.0

    def test_empty_seed_set_rejected(self):
        with pytest.raises(InvalidParameter):
            CascadeConfig(seeds=())

    def test_unknown_seed_rejected(self, path_abc):
        with pytest.raises(InvalidNode):
            spread_volume(path_abc, reach_cfg("zz"))

    def test_p_one_equals_reachability(self):
        for seed in range(5):
            g, _ = random_graph(25, 90, seed=seed)
            seeds = (g.labels[0], g.labels[7])
            cascade = CascadeConfig(seeds=seeds, p=1.0, trials=13, seed=seed)
            assert spread_volume(g, cascade) \
                == spread_volume(g, reach_cfg(*seeds))

    def test_monte_carlo_tracks_exhaustive_enumeration(self):
        g, edges = random_graph(8, 10, seed=6)
        assert g.num_edges <= 10
        seeds = (g.labels[2],)
        for p in (0.3, 0.5, 0.8):
            exact_mean, exact_var = oracles.live_edge_expectation(
                edges, 8, [2], p)
            trials = 4000
            got = spread_volume(g, CascadeConfig(seeds=seeds, p=p,
                                                 trials=trials, seed=11))
            se = np.sqrt(exact_var / trials)
            assert abs(got - exact_mean) <= 3 * se

    def test_weight_scaled_probability(self):
        g = from_edges([("a", "b", 3.0)])
        p = 0.5
        exact = 1.0 + (1.0 - (1.0 - p) ** 3)  # seed + one neighbour
        got = spread_volume(g, CascadeConfig(seeds=("a",), p=p, trials=6000,
                                             seed=4, weight_scaled=True))
        assert got == pytest.approx(exact, abs=0.05)

    def test_bit_identical_across_runs_and_workers(self):
        g, _ = random_graph(40, 160, seed=2)
        cfg = CascadeConfig(seeds=(g.labels[1],), p=0.3, trials=700, seed=9)
        a = spread_volume(g, cfg)
        b = spread_volume(g, cfg)
        c = spread_volume(g, cfg)
        assert a == b == c


class TestInterventionExperiment:
    def test_path_mid_removal(self, path_abc):
        res, = intervention_experiment(path_abc, [["b"]], reach_cfg("a"))
        assert res.baseline_volume == 3.0
        assert res.treated_volume == 1.0
        assert res.reduction_pct == pytest.approx(200 / 3)

    def test_remove_nothing_zero_reduction(self, path_abc):
        res, = intervention_experiment(path_abc, [[]], reach_cfg("a"))
        assert res.reduction_pct == 0.0

    def test_removed_seed_is_neutralised(self):
        g = from_edges([("hub", f"x{i}") for i in range(9)])
        res, = intervention_experiment(g, [["hub"]], reach_cfg("hub"))
        assert res.baseline_volume == 10.0
        assert res.treated_volume == 0.0
        assert res.reduction_pct == 100.0

    def test_unknown_removal_label_rejected(self, path_abc):
        for removals in ([["nope"]], [["b"], ["c", "nope"]]):
            with pytest.raises(InvalidNode):
                intervention_experiment(path_abc, removals, reach_cfg("a"))

    def test_bare_string_removal_rejected(self, path_abc):
        # "bc" would otherwise be read as the set {b, c}
        for removals in ("bc", ["bc"], [["b"], "c"]):
            with pytest.raises(InvalidParameter):
                intervention_experiment(path_abc, removals, reach_cfg("a"))

    def test_monotone_in_removal_set_exact(self):
        # exhaustive: expected volume never rises when the removal grows
        for gseed in range(4):
            g, edges = random_graph(7, 9, seed=gseed + 50)
            labels = g.labels
            seeds = [0]
            r1 = {labels[3]}
            r2 = {labels[3], labels[5]}

            def exact_after(removal):
                victims = {g.id_of(lab) for lab in removal}
                kept = [(s, d) for s, d in edges
                        if s not in victims and d not in victims]
                remap = {}
                for v in range(7):
                    if v not in victims:
                        remap[v] = len(remap)
                mean, _ = oracles.live_edge_expectation(
                    [(remap[s], remap[d]) for s, d in kept], len(remap),
                    [remap[0]], 0.5)
                return mean

            assert exact_after(r2) <= exact_after(r1) + 1e-12

    def test_monte_carlo_monotone_with_paired_seeds(self):
        g, _ = random_graph(120, 600, seed=77)
        seeds = (g.labels[0],)
        small = {g.labels[i] for i in (10, 11)}
        large = small | {g.labels[i] for i in (12, 13, 14, 15)}
        cfg = CascadeConfig(seeds=seeds, p=0.25, trials=1500, seed=5)
        res_small, res_large = intervention_experiment(g, [small, large], cfg)
        assert res_large.treated_volume <= res_small.treated_volume + 2.0

    def test_monte_carlo_standard_errors(self):
        g, _ = random_graph(60, 240, seed=12)
        cfg = CascadeConfig(seeds=(g.labels[0], g.labels[1]), p=0.3,
                            trials=500, seed=17)
        removal = [g.labels[i] for i in (2, 3, 4, 5, 6)]
        res, = intervention_experiment(g, [removal], cfg)
        assert [res] == intervention_experiment(g, [removal], cfg)
        assert (res.baseline_se, res.treated_se, res.difference_se) \
            == pytest.approx((0.41111681316644816, 0.33260610584185996,
                              0.16906606599001078), rel=1e-12)
        # baseline and treated share each trial's draw, so they co-vary
        assert res.difference_se < math.hypot(res.baseline_se, res.treated_se)
        baseline, treated = _trial_counts(g, cfg, [removal])
        assert res.difference_se == pytest.approx(
            np.std(baseline - treated, ddof=1) / math.sqrt(500), rel=1e-12)
        entry = res.to_dict()
        assert entry["difference_se"] == res.difference_se

    def test_single_trial_and_reachability_standard_errors(self, path_abc):
        one, = intervention_experiment(path_abc, [["b"]], CascadeConfig(
            seeds=("a",), p=0.5, trials=1, seed=2))
        assert one.to_dict()["baseline_se"] is None
        reach, = intervention_experiment(path_abc, [["b"]], reach_cfg("a"))
        assert not {"baseline_se", "treated_se", "difference_se"} \
            & set(reach.to_dict())

    @pytest.mark.parametrize("model", MODELS)
    def test_one_call_equals_a_call_per_removal_set(self, model):
        g, _ = random_graph(60, 150, seed=31)
        seeds = (g.labels[0], g.labels[1])
        cfg = CascadeConfig(seeds=seeds, model=model, p=0.3, trials=150,
                            seed=13)
        r1 = [g.labels[i] for i in (4, 5, 6)]
        r2 = [g.labels[i] for i in (7, 8)] + [seeds[0]]
        removals = [[], r1, r2]
        shared = intervention_experiment(g, removals, cfg)
        assert shared == [intervention_experiment(g, [removal], cfg)[0]
                          for removal in removals]
        assert [res.removed for res in shared] \
            == [(), tuple(sorted(r1)), tuple(sorted(r2))]
        assert len({res.treated_volume for res in shared}) == 3

    def test_every_removal_set_shares_each_trial_stream(self, monkeypatch):
        # draws made in a forked worker never reach this list
        use_cpus(monkeypatch, 1)
        g, _ = random_graph(60, 150, seed=31)
        cfg = CascadeConfig(seeds=(g.labels[0], g.labels[1]), p=0.3,
                            trials=150, seed=13)
        drawn = []
        trial_stream = netcent.rng.trial_stream

        def counted(seed, trial):
            drawn.append((seed, trial))
            return trial_stream(seed, trial)

        monkeypatch.setattr(netcent.rng, "trial_stream", counted)
        intervention_experiment(
            g, [[], [g.labels[4]], [g.labels[7], g.labels[0]]], cfg)
        assert drawn == [(13, 0), (13, 1), (13, 2)]

    def test_bit_identical_result(self):
        g, _ = random_graph(30, 120, seed=8)
        cfg = CascadeConfig(seeds=(g.labels[2],), p=0.4, trials=400, seed=3)
        a = intervention_experiment(g, [[g.labels[5]]], cfg)
        b = intervention_experiment(g, [[g.labels[5]]], cfg)
        assert a == b


class TestLiveEdgeEngine:
    @given(cascade_cases())
    @settings(max_examples=60, deadline=None)
    def test_trials_are_keyed_live_edge_draws(self, case):
        g, edges, weights, seeds, removed, cfg = case
        baseline, treated = _trial_counts(
            g, cfg, [[g.labels[v] for v in removed]])
        edges, weights = in_order(edges, weights)
        probs = edge_probs(cfg, weights)
        assert baseline.tolist() == oracles.keyed_cascade_sizes(
            edges, g.n, seeds, probs, cfg.seed, cfg.trials)
        assert treated.tolist() == oracles.keyed_cascade_sizes(
            edges, g.n, seeds, probs, cfg.seed, cfg.trials, removed=removed)

    @given(cascade_cases())
    @settings(max_examples=60, deadline=None)
    def test_treated_never_exceeds_baseline(self, case):
        g, _, _, _, removed, cfg = case
        removal = [g.labels[v] for v in removed]
        baseline, treated = _trial_counts(g, cfg, [removal])
        assert np.all(treated <= baseline)
        res, = intervention_experiment(g, [removal], cfg)
        assert res.reduction_pct >= 0.0

    @given(st.data(), st.sampled_from(MODELS))
    @settings(max_examples=60, deadline=None)
    def test_baseline_volume_counts_every_seed(self, data, model):
        # every trial counts its originators, so reduction_pct never divides by 0
        g, _, _, seeds, removed, cfg = data.draw(cascade_cases(model))
        baseline, _ = _trial_counts(g, cfg, [[]])
        assert baseline.min() >= len(seeds)
        res, = intervention_experiment(g, [[g.labels[v] for v in removed]], cfg)
        assert res.baseline_volume >= len(seeds)

    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_trial_counts_fill_partial_lanes(self, trials):
        g, edges = random_graph(12, 30, seed=trials)
        cfg = CascadeConfig(seeds=(g.labels[0], g.labels[3]), p=0.4,
                            trials=trials, seed=21)
        baseline, treated = _trial_counts(g, cfg, [[g.labels[5]]])
        assert baseline.size == treated.size == trials
        edges = sorted(edges, key=lambda e: (e[1], e[0]))
        want = oracles.keyed_cascade_sizes(edges, 12, [0, 3],
                                           [0.4] * len(edges), 21, trials)
        assert baseline.tolist() == want
        assert spread_volume(g, cfg) == float(np.mean(want))

    @given(st.data(), st.sampled_from(["independent_cascade", "reachability"]))
    @settings(max_examples=60, deadline=None)
    def test_masking_equals_rebuilding(self, data, model):
        g, _, _, seeds, removed, cfg = data.draw(cascade_cases(model, p=1.0))
        res, = intervention_experiment(g, [[g.labels[v] for v in removed]],
                                       cfg)
        surviving = tuple(g.labels[v] for v in seeds if v not in removed)
        if not surviving:
            assert res.treated_volume == 0.0
            return
        rebuilt, _ = g.remove_nodes(removed)
        assert res.treated_volume == spread_volume(
            rebuilt, replace(cfg, seeds=surviving))

    def test_weight_scaled_matches_exhaustive_enumeration(self):
        trials = 4000
        for gseed in (3, 8, 19):
            _, edges = random_graph(7, 9, seed=gseed)
            weights = 0.5 + 3.0 * stream(gseed).random(len(edges))
            g = weighted_graph(7, edges, weights)
            for p in (0.2, 0.5):
                mean, var = oracles.live_edge_expectation(
                    edges, 7, [edges[0][0]], p, weights=list(weights))
                got = spread_volume(g, CascadeConfig(
                    seeds=(g.labels[edges[0][0]],), p=p, trials=trials,
                    seed=gseed, weight_scaled=True))
                assert abs(got - mean) <= 3 * math.sqrt(var / trials)


class TestLiveWords:
    @pytest.mark.parametrize("p, weight_scaled", [
        (0.5, False), (0.1, False), (1 / 3, False), (0.2, False),
        (0.2, True)])
    def test_live_share_is_p(self, p, weight_scaled):
        _, edges = random_graph(400, 4100, seed=5)
        g = weighted_graph(400, edges,
                           0.25 + 4.0 * stream(5).random(len(edges)))
        sweep = Sweep(g)
        trials = 1024
        cfg = CascadeConfig(seeds=(g.labels[0],), p=p, trials=trials, seed=8,
                            weight_scaled=weight_scaled)
        live = sum(int(popcounts(words).sum())
                   for words, _ in _lanes(sweep, cfg))
        probs = 1.0 - (1.0 - p) ** sweep.w if weight_scaled \
            else np.full(sweep.m, p)
        draws = trials * sweep.m
        se = math.sqrt(trials * np.sum(probs * (1.0 - probs))) / draws
        assert abs(live / draws - probs.mean()) <= 4 * se

    def test_one_half_draws_one_word_per_edge(self, raw_draws):
        g, _ = random_graph(50, 300, seed=3)
        cfg = CascadeConfig(seeds=(g.labels[0],), p=0.5, trials=130, seed=1)
        assert len(list(_lanes(Sweep(g), cfg))) == 3
        assert raw_draws == [g.num_edges] * 3

    def test_certain_edges_draw_nothing(self, raw_draws):
        # in-adjacency order: a->b, then b->c; 1 - 0.5**60 rounds to 1.0
        g = from_edges([("a", "b", 60.0), ("b", "c", 1.0)])
        ones, tail = 2**64 - 1, 2**36 - 1
        cfg = CascadeConfig(seeds=("a",), p=1.0, trials=100, seed=4)
        assert [live.tolist() for live, _ in _lanes(Sweep(g), cfg)] \
            == [[ones, ones], [tail, tail]]
        assert raw_draws == []
        scaled = replace(cfg, p=0.5, weight_scaled=True)
        assert [live[0] for live, _ in _lanes(Sweep(g), scaled)] \
            == [ones, tail]
        assert raw_draws == [1, 1]

    def test_weight_scaled_p_that_rounds_to_zero_is_never_live(self,
                                                                raw_draws):
        g = from_edges([("a", "b", 2.0), ("b", "c", 0.5)])
        cfg = CascadeConfig(seeds=("a",), p=1e-20, trials=100, seed=2,
                            weight_scaled=True)
        assert not any(live.any() for live, _ in _lanes(Sweep(g), cfg))
        assert raw_draws == []
        assert spread_volume(g, cfg) == 1.0


def fan_out_case():
    """A 60-node weighted graph and three removal sets, one holding a seed."""
    edges = random_edge_list(60, 150, seed=31)
    g = weighted_graph(60, edges, 0.5 + 3.0 * stream(31).random(len(edges)))
    return g, [[], [g.labels[4]], [g.labels[7], g.labels[0]]]


def lane_configs(g):
    seeds = (g.labels[0], g.labels[1])
    ic = [CascadeConfig(seeds=seeds, p=0.3, trials=trials, seed=13)
          for trials in (1, 63, 64, 65, 200)]
    return ic + [CascadeConfig(seeds=seeds, p=0.3, trials=200, seed=13,
                               weight_scaled=True),
                 CascadeConfig(seeds=seeds, model="reachability")]


class TestLaneFanOut:
    """Cascade lanes as chunks of the source loop: the serial run's
    counts on any process count, the lowest failing lane's error, and no
    process left behind."""

    @pytest.mark.parametrize("procs", [1, 2, 3])
    def test_same_counts_on_any_process_count(self, forks, monkeypatch,
                                              procs):
        g, removals = fan_out_case()
        use_cpus(monkeypatch, 1)
        serial = [(_trial_counts(g, cfg, removals),
                   intervention_experiment(g, removals, cfg))
                  for cfg in lane_configs(g)]
        assert not forks
        use_cpus(monkeypatch, procs)
        monkeypatch.setattr(traditional, "WORKERS", procs)
        expected_forks = 0
        for cfg, (counts, results) in zip(lane_configs(g), serial):
            got = _trial_counts(g, cfg, removals)
            assert [c.dtype for c in got] == [np.dtype(np.int64)] * 4
            assert [c.tobytes() for c in got] \
                == [c.tobytes() for c in counts]
            assert intervention_experiment(g, removals, cfg) == results
            # one lane, 64 trials or fewer, runs here without a fork
            lanes = -(-cfg.trials // 64) if cfg.model != "reachability" else 1
            expected_forks += 2 * (min(procs, lanes) - 1)
        assert len(forks) == expected_forks
        assert_no_child_left()

    def test_lanes_grouped_into_fewer_chunks_give_the_same_counts(
            self, forks, monkeypatch):
        # 200 trials make four lanes; two chunks take two lanes each, so
        # three usable CPUs fork one worker, not two
        g, removals = fan_out_case()
        cfg = lane_configs(g)[-2]
        use_cpus(monkeypatch, 1)
        serial = _trial_counts(g, cfg, removals)
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(traditional, "WORKERS", 3)
        monkeypatch.setattr(simulate, "_LANE_CHUNKS", 2)
        grouped = _trial_counts(g, cfg, removals)
        assert [c.tobytes() for c in grouped] == [c.tobytes() for c in serial]
        assert len(forks) == 1
        assert_no_child_left()

    def test_bad_removal_sets_raise_before_any_fork(self, forks):
        g, _ = fan_out_case()
        cfg = lane_configs(g)[-2]
        with pytest.raises(InvalidParameter, match="bare string"):
            _trial_counts(g, cfg, ["n4"])
        with pytest.raises(InvalidNode):
            _trial_counts(g, cfg, [["n4", "nobody"]])
        assert not forks

    @pytest.mark.parametrize("procs", [2, 3])
    @pytest.mark.parametrize("where", ["worker", "parent", "both"])
    def test_lowest_failing_lane_is_raised(self, forks, monkeypatch, procs,
                                           where):
        # lanes fail in ``where``, each naming itself, and a process takes
        # no lane after its first fails. A worker sends its failing lane
        # down a pipe; unless only this process fails, its first lane waits
        # until a worker has failed, so a worker's error is in hand. With
        # "both", this process then fails on its next lane, a higher one
        use_cpus(monkeypatch, procs)
        monkeypatch.setattr(traditional, "WORKERS", procs)
        g, removals = fan_out_case()
        cfg = CascadeConfig(seeds=(g.labels[0],), p=0.3, trials=8 * 64,
                            seed=13)
        parent = os.getpid()
        lane_of = simulate._lane
        failed, tell = os.pipe()
        taken, failed_here = [], []

        def failing(sweep, cfg, prob, lane):
            if os.getpid() != parent:
                if where != "parent":
                    os.write(tell, bytes((lane,)))
                    raise DataError(f"lane {lane} failed")
                return lane_of(sweep, cfg, prob, lane)
            taken.append(lane)
            if where == "parent" or (where == "both" and len(taken) == 2):
                failed_here.append(lane)
                raise DataError(f"lane {lane} failed")
            if len(taken) == 1:
                assert select.select([failed], [], [], 30)[0]
            return lane_of(sweep, cfg, prob, lane)

        monkeypatch.setattr(simulate, "_lane", failing)
        try:
            with pytest.raises(DataError) as raised:
                intervention_experiment(g, removals, cfg)
        finally:
            os.close(tell)
        with os.fdopen(failed, "rb") as pipe:
            by_workers = list(pipe.read())
        if where == "both":
            assert failed_here and min(by_workers) < failed_here[0]
        lowest = min(by_workers + failed_here)
        assert str(raised.value) == f"lane {lowest} failed"
        assert len(forks) == procs - 1
        assert_no_child_left()


# each case fails a check of the simulate module: (the call, the error,
# a part of its message)
SIMULATE_CHECKS = {
    "unknown model": (lambda: CascadeConfig(seeds=("a",), model="sir"),
                      InvalidParameter, "model must be one of"),
    "random with no budget or k": (
        lambda: metric_removal_set({}, "random", universe=["a", "b"], seed=1),
        InvalidParameter, "random strategy needs a positive budget or k"),
    "random with no universe": (
        lambda: metric_removal_set({}, "random", k=2, seed=1),
        InvalidParameter, "random strategy needs the node universe"),
    "no rankings for the strategy": (
        lambda: metric_removal_set({}, "traditional_union"),
        InvalidParameter, "no rankings available for strategy"),
    "budget 0": (
        lambda: metric_removal_set(fixture_rankings(), "traditional_union",
                                   budget=0),
        InvalidParameter, "budget must be >= 1, got 0"),
    "budget -1": (
        lambda: metric_removal_set(fixture_rankings(), "traditional_union",
                                   budget=-1),
        InvalidParameter, "budget must be >= 1, got -1"),
    "random with budget 0": (
        lambda: metric_removal_set({}, "random", k=2, budget=0,
                                   universe=["a", "b"], seed=1),
        InvalidParameter, "budget must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_CHECKS))
def test_simulate_input_checks(case):
    call, error, message = SIMULATE_CHECKS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and message in str(raised.value)


class TestMetricRemovalSet:
    def test_traditional_union_is_29_nodes(self):
        got = metric_removal_set(fixture_rankings(), "traditional_union")
        assert len(got) == 29
        want = set(map(str, DEGREE_TOP10 + EIGEN_TOP10 + BETWEENNESS_TOP10
                       + CLOSENESS_TOP10))
        assert got == want

    def test_combined_union_extends_traditional(self):
        rankings = fixture_rankings(include_novel=True)
        trad = metric_removal_set(rankings, "traditional_union")
        combined = metric_removal_set(rankings, "combined_union")
        assert trad < combined
        assert set(map(str, MVC_EXCLUSIVE + DIC_EXCLUSIVE)) <= combined

    def test_single_metric(self):
        got = metric_removal_set(fixture_rankings(include_novel=True),
                                 "single", metric="pc")
        assert got == set(map(str, PC_TOP10))

    def test_random_is_seeded_and_sized(self):
        universe = [f"n{i}" for i in range(50)]
        a = metric_removal_set({}, "random", k=10, universe=universe, seed=3)
        b = metric_removal_set({}, "random", k=10, universe=universe, seed=3)
        c = metric_removal_set({}, "random", k=10, universe=universe, seed=4)
        assert a == b and len(a) == 10
        assert a != c

    def test_budget_pads_with_seeded_neutral_filler(self):
        deep = {"degree_total": table("degree_total", DEGREE_TOP10)}
        universe = [str(n) for n in DEGREE_TOP10] + [f"f{i}" for i in range(20)]
        natural = metric_removal_set(deep, "single", metric="degree_total", k=10)
        padded = metric_removal_set(deep, "single", metric="degree_total",
                                    k=10, budget=14, universe=universe, seed=6)
        again = metric_removal_set(deep, "single", metric="degree_total",
                                   k=10, budget=14, universe=universe, seed=6)
        assert len(natural) == 10 and len(padded) == 14
        assert natural < padded and padded == again
        assert all(lab.startswith("f") for lab in padded - natural)

    def test_budget_truncates_by_best_rank(self):
        got = metric_removal_set(fixture_rankings(), "traditional_union",
                                 budget=4)
        # rank-1 nodes of the four metrics sort first
        assert got == {"26", "15", "2", "4"}

    def test_padding_needs_universe_and_seed(self):
        with pytest.raises(InvalidParameter):
            metric_removal_set(fixture_rankings(), "traditional_union",
                               budget=40)
        with pytest.raises(InvalidParameter):
            metric_removal_set(fixture_rankings(), "traditional_union",
                               budget=40, universe=[str(i) for i in range(500)])

    def test_budget_beyond_universe_rejected(self):
        with pytest.raises(InvalidParameter):
            metric_removal_set(fixture_rankings(), "traditional_union",
                               budget=1000, universe=[str(i) for i in range(50)],
                               seed=1)

    def test_unknown_strategy_and_metric(self):
        with pytest.raises(InvalidParameter):
            metric_removal_set(fixture_rankings(), "nonsense")
        with pytest.raises(InvalidParameter):
            metric_removal_set(fixture_rankings(), "single", metric="nope")
