"""Spread models and node-removal intervention experiments.

Two spread models ship: deterministic reachability (nodes reachable from
the seed set along the info-flow direction) and the one-shot independent
cascade, estimated by Monte Carlo over its live-edge form (Kempe,
Kleinberg & Tardos 2003). Edge e, indexing the in-adjacency (edges
sorted by destination, then source), is live with probability p, or
1 - (1-p)**w when weight-scaled; the trial's spread is the number of
nodes the seeds reach over live edges. Trials run 64 to a ``uint64``
lane of the traversal kernel in :mod:`netcent.sweep`, bit j of a word
being trial 64*lane + j, so one level advances 64 cascades.
Reachability is the same traversal with one trial and every edge live.

A lane's live words are drawn bit-sliced (Knuth & Yao 1976): each trial
compares a uniform variate with p one binary digit at a time. Round r
draws a raw 64-bit word of ``rng.trial_stream(seed, lane)`` for each
edge still undecided, in in-adjacency order; bit j of the word is digit
r of trial j's variate. Where p's digit is 1, an undecided 0 bit is
live; where it is 0, an undecided 1 bit is dead. An edge draws no more
once all its bits are decided or p has no nonzero digit left, and its
undecided bits are then dead. So each bit is live with probability
exactly p; a lane draws about 7.3 words per edge for most p, one for
p = 0.5 and none for p >= 1. A partial lane draws every bit and masks
the unused ones, so trial t depends only on (seed, t // 64).

An intervention draws each lane once for one baseline and every treated
set: a treated run clears the live bits of every edge touching a removed
node and drops removed seeds, so no trial's treated spread exceeds its
baseline, and each paired difference has its own standard error.

Node identity in this module is the node *label*: removal sets come from
rankings, and seed sets are given by label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import rng as _rng
from .errors import InvalidParameter
from .graph import DirectedGraph
from .ranking import RankingTable
from .scores import NOVEL_METRICS, TRADITIONAL_METRICS
from .sweep import LANE, Sweep, bit_counts

MODELS = ("independent_cascade", "reachability")
STRATEGIES = ("traditional_union", "combined_union", "single", "random")
_ONES = np.uint64(2**64 - 1)


@dataclass
class CascadeConfig:
    """Spread model choice plus the misinformation originator set."""

    seeds: tuple[str, ...]
    model: str = "independent_cascade"
    p: float = 0.1
    trials: int = 1000
    seed: int = 0
    weight_scaled: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidParameter(f"model must be one of {MODELS}")
        if not self.seeds:
            raise InvalidParameter("seed set must be non-empty")
        self.seeds = tuple(sorted(set(self.seeds)))
        if self.model == "independent_cascade":
            if not 0.0 < self.p <= 1.0:
                raise InvalidParameter("activation probability must be in (0, 1]")
            if self.trials < 1:
                raise InvalidParameter("trials must be >= 1")

    def to_dict(self) -> dict:
        d = {"model": self.model, "seeds": list(self.seeds)}
        if self.model == "independent_cascade":
            d.update({"p": self.p, "trials": self.trials, "seed": self.seed,
                      "weight_scaled": self.weight_scaled})
        return d


@dataclass
class InterventionResult:
    """Baseline vs treated spread volumes for one removal experiment.

    ``*_se`` are the Monte Carlo standard errors of the two means and of
    their per-trial difference: None with one trial or under reachability.
    """

    baseline_volume: float
    treated_volume: float
    removed: tuple[str, ...]
    reduction_pct: float
    model: dict
    baseline_se: float | None = None
    treated_se: float | None = None
    difference_se: float | None = None

    def to_dict(self) -> dict:
        d = {"baseline_volume": self.baseline_volume,
             "treated_volume": self.treated_volume,
             "removed": list(self.removed),
             "reduction_pct": self.reduction_pct,
             "model": self.model,
             "trials": self.model.get("trials"),
             "seed": self.model.get("seed")}
        if self.model["model"] == "independent_cascade":
            d.update(baseline_se=self.baseline_se, treated_se=self.treated_se,
                     difference_se=self.difference_se)
        return d


def _node_ids(g: DirectedGraph, labels: Iterable[str]) -> np.ndarray:
    return np.array(sorted(g.id_of(lab) for lab in labels), dtype=np.int64)


def _live_words(prob: np.ndarray, m: int, random_raw) -> np.ndarray:
    """One lane's live word per edge: each bit of word e is 1 with
    probability ``prob[e]``, or ``prob[0]`` for every edge when ``prob``
    has length 1; ``random_raw(k)`` returns k raw 64-bit words."""
    live = np.zeros(m, dtype=np.uint64)
    live[np.broadcast_to(prob >= 1.0, m)] = _ONES
    idx = np.flatnonzero(np.broadcast_to((prob > 0.0) & (prob < 1.0), m))
    rest = prob[idx] if prob.size > 1 else prob.copy()  # p's digits not yet used
    undecided = np.full(idx.size, _ONES)  # bits of edge idx[i] left
    while idx.size:
        rest += rest
        one = rest >= 1.0
        rest -= one
        digit = np.negative(one, dtype=np.uint64)  # p's digit, in every bit
        flip = random_raw(idx.size)
        flip ^= digit
        flip &= undecided  # undecided bits whose digit differs from p's
        undecided ^= flip
        flip &= digit
        live[idx] |= flip
        undecided *= rest != 0.0  # no digit of p left: the rest are dead
        keep = np.flatnonzero(undecided)
        idx, undecided = idx[keep], undecided[keep]
        if rest.size > 1:
            rest = rest[keep]
    return live


def _lanes(sweep: Sweep, cfg: CascadeConfig):
    """Yield (live, width) per lane: bit j of live[e] is trial j's edge e."""
    if cfg.model == "reachability":
        yield np.ones(sweep.m, dtype=np.uint64), 1
        return
    prob = (1.0 - (1.0 - cfg.p) ** sweep.w if cfg.weight_scaled
            else np.array([cfg.p], dtype=np.float64))
    for lane, first in enumerate(range(0, cfg.trials, LANE)):
        width = min(LANE, cfg.trials - first)
        words = _rng.trial_stream(cfg.seed, lane).bit_generator.random_raw
        live = _live_words(prob, sweep.m, words)
        live &= np.uint64(2**width - 1)
        yield live, width


def _spread(sweep: Sweep, seed_ids: np.ndarray, live: np.ndarray,
            width: int) -> np.ndarray:
    """Activated count of each of the lane's ``width`` trials."""
    active = np.zeros(sweep.n, dtype=np.uint64)
    start = np.full(seed_ids.size, np.uint64(2**width - 1))
    for _ in sweep.levels(seed_ids, start, live, active):
        pass
    return bit_counts(active)[:width]


def _trial_counts(g: DirectedGraph, cfg: CascadeConfig,
                  removals: Iterable[Iterable[str]] = ()) -> list[np.ndarray]:
    """Per-trial spread counts: the baseline's, then each removal set's.

    A treated run drops removed seeds and clears the live bits of every
    edge touching a removed node, so each trial's runs share its draws.
    """
    sweep = Sweep(g)
    seed_ids = _node_ids(g, cfg.seeds)
    runs = [(seed_ids, _ONES)]
    for removal in removals:
        if isinstance(removal, str):
            raise InvalidParameter(f"removal set {removal!r} is a bare string")
        gone = np.zeros(g.n, dtype=bool)
        gone[_node_ids(g, removal)] = True  # raises InvalidNode for unknown labels
        runs.append((seed_ids[~gone[seed_ids]],
                     np.where(gone[sweep.src] | gone[sweep.dst], np.uint64(0),
                              _ONES)))
    counts = [[] for _ in runs]
    for live, width in _lanes(sweep, cfg):
        for out, (ids, keep) in zip(counts, runs):
            out.append(_spread(sweep, ids, live & keep, width))
    return [np.concatenate(c) for c in counts]


def _standard_error(x: np.ndarray) -> float | None:
    return float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else None


def spread_volume(g: DirectedGraph, cfg: CascadeConfig) -> float:
    """Expected infected count from the seed set."""
    counts, = _trial_counts(g, cfg)
    return float(counts.mean())


def intervention_experiment(g: DirectedGraph,
                            removals: Iterable[Iterable[str]],
                            cfg: CascadeConfig) -> list[InterventionResult]:
    """Baseline spread on g vs spread with each set's nodes removed, in order.

    Removed nodes lose every edge; removed seeds are treated as
    neutralised originators and dropped from the treated seed set. The
    baseline and every treated run of a trial share its live edges.
    """
    removals = list(removals)
    baseline, *treated = _trial_counts(g, cfg, removals)
    base_volume = float(baseline.mean())
    volumes = [float(counts.mean()) for counts in treated]
    return [InterventionResult(
        baseline_volume=base_volume, treated_volume=volume,
        removed=tuple(sorted(set(removal))),
        reduction_pct=100.0 * (base_volume - volume) / base_volume,
        model=cfg.to_dict(), baseline_se=_standard_error(baseline),
        treated_se=_standard_error(counts),
        difference_se=_standard_error(baseline - counts))
        for removal, counts, volume in zip(removals, treated, volumes)]


def _merged_order(tables: list[RankingTable], k: int | None) -> tuple[list[str], int]:
    """Nodes ordered by best rank across the tables, then label.

    Returns the full ordering over every ranked node plus the size of
    the natural union (nodes whose best rank is within k).
    """
    best: dict[str, int] = {}
    for table in tables:
        for rank, label, _ in table.entries:
            if label not in best or rank < best[label]:
                best[label] = rank
    ordered = sorted(best, key=lambda lab: (best[lab], lab))
    depth = max(t.k for t in tables) if k is None else k
    natural = sum(1 for lab in ordered if best[lab] <= depth)
    return ordered, natural


def _seeded_draw(pool, size, seed):
    if seed is None:
        raise InvalidParameter("a seed is required for random draws")
    pool = sorted(pool)
    if size > len(pool):
        raise InvalidParameter(f"cannot draw {size} of {len(pool)} nodes")
    picks = _rng.stream(seed).choice(len(pool), size=size, replace=False)
    return {pool[i] for i in picks}


def metric_removal_set(rankings: Mapping[str, RankingTable], strategy: str,
                       metric: str | None = None, k: int | None = None,
                       budget: int | None = None,
                       universe: Iterable[str] | None = None,
                       seed: int | None = None) -> frozenset[str]:
    """Node labels to remove under a selection strategy.

    ``traditional_union`` unions the traditional metrics' top-k sets and
    ``combined_union`` adds the novel metrics' sets. ``random`` draws
    ``budget`` (or ``k``) labels uniformly without replacement from
    ``universe``, seeded.

    ``budget`` makes strategies comparable at equal total size: a set
    larger than the budget is truncated along the merged best-rank
    order; a smaller one is padded with seeded neutral filler drawn
    uniformly from the rest of ``universe``, so the comparison isolates
    what the metric picks contribute over spending slots blindly.
    """
    if strategy not in STRATEGIES:
        raise InvalidParameter(f"strategy must be one of {STRATEGIES}")

    if strategy == "random":
        size = budget if budget is not None else k
        if size is None or size < 1:
            raise InvalidParameter("random strategy needs a positive budget or k")
        if universe is None:
            raise InvalidParameter("random strategy needs the node universe")
        return frozenset(_seeded_draw(set(universe), size, seed))

    if strategy == "single":
        if metric is None or metric not in rankings:
            raise InvalidParameter(f"unknown metric {metric!r}")
        tables = [rankings[metric]]
    elif strategy == "traditional_union":
        tables = [rankings[m] for m in sorted(rankings) if m in TRADITIONAL_METRICS]
    else:
        tables = [rankings[m] for m in sorted(rankings)
                  if m in TRADITIONAL_METRICS or m in NOVEL_METRICS]
    if not tables:
        raise InvalidParameter(f"no rankings available for strategy {strategy!r}")

    ordered, natural = _merged_order(tables, k)
    chosen = set(ordered[:natural])
    if budget is None or budget == natural:
        return frozenset(chosen)
    if budget < natural:
        return frozenset(ordered[:budget])
    if universe is None:
        raise InvalidParameter("padding to a budget needs the node universe")
    filler = _seeded_draw(set(universe) - chosen, budget - natural, seed)
    return frozenset(chosen | filler)
