"""Degree, harmonic closeness, betweenness, and eigenvector centralities.

All operations are pure functions over the immutable graph. Closeness
and betweenness distances are unweighted hop counts by default: edge
weights encode interaction frequency, not cost. A weighted mode
(distance = 1/weight, Dijkstra) exists behind a flag.

Exact all-pairs traversal is O(n(n+m)); above ``EXACT_NODE_LIMIT`` nodes
the auto mode switches to seeded pivot sampling with
``k = max(256, n // 100)`` and rescales by n/k. Hop-count closeness
runs 64 sources to a lane of the bit-parallel traversal in
:mod:`netcent.sweep` and adds count/L level by level, so a score depends
only on the node's distance histogram. Betweenness runs Brandes'
accumulation with one of two kernels, chosen by graph size. Where
B * (n + m) <= ``BATCH_BUDGET`` for some B >= 2, the largest such power
of two up to 64 sources share each BFS level's vectorised pass, on
(node, source) keys. A larger graph runs one source at a time, each
level pushing over the frontier's out-edges or, on a wide level of a
large graph, pulling over the unvisited nodes' in-edges. Both add every
term in the same order, so they give the same bytes; a source without
out-edges adds nothing and is skipped. Betweenness and weighted
closeness sum per-pivot contributions in ascending pivot order within
fixed-size chunks, then add the chunk sums in ascending order.

Exact betweenness can also give exact hop closeness from its own
forward pass (``harmonic``): each level's node count over its distance,
added in ascending distance as the lanes add it, so the bytes match.
:func:`netcent.pipeline.compute_metrics` uses it whenever a run asks for
both metrics, both resolve to exact and closeness is unweighted. Exact
closeness run alone keeps the lanes, which are cheaper than Brandes'
forward pass.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import rng as _rng
from .errors import InvalidParameter, ZeroMatrix
from .graph import DEGREE_MODES, INFO_FLOW, DirectedGraph
from .scores import ScoreVector
from .sweep import (LANE, Sweep, bit_counts, out_edges, popcounts,
                    unit_words)

EXACT_NODE_LIMIT = 20_000
SAMPLING_MODES = ("auto", "exact", "sampled")
_SOURCE_CHUNK = 64
# a Brandes level may pull only when its frontier has this many out-edges:
# below it numpy's per-call cost outweighs the edge scans a pull saves
PULL_MIN_EDGES = 1 << 14
# edge scans a pull spends per node to find the unvisited ones
PULL_NODE_COST = 1 / 4
# betweenness runs B sources per level pass while B * (n + m) fits this;
# a batch's scratch takes 7-11 bytes per unit, so it stays under 3 MB
BATCH_BUDGET = 1 << 18


def default_sample_size(n: int) -> int:
    return max(256, n // 100)


@dataclass
class PowerIterationConfig:
    """Stopping rule for power-iteration methods (L1 change threshold)."""

    tolerance: float = 1e-10
    max_iterations: int = 100

    def __post_init__(self):
        if not self.tolerance > 0:
            raise InvalidParameter("tolerance must be positive")
        if self.max_iterations < 1:
            raise InvalidParameter("max_iterations must be >= 1")


# -- shared traversal kernels ---------------------------------------------

def _dijkstra_distances(ptr, adj, w, source: int, n: int) -> np.ndarray:
    """Weighted distances with cost 1/weight; inf = unreachable."""
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for i in range(ptr[u], ptr[u + 1]):
            v = adj[i]
            nd = d + 1.0 / w[i]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _accumulate_over_sources(sources, per_chunk, n):
    """Sum per-chunk float arrays in ascending chunk order."""
    sources = np.asarray(sources, dtype=np.int64)
    total = np.zeros(n)
    for first in range(0, sources.size, _SOURCE_CHUNK):
        total += per_chunk(sources[first:first + _SOURCE_CHUNK])
    return total


def resolves_exact(n: int, mode: str) -> bool:
    """Whether ``mode`` runs every source on a graph of n nodes."""
    return mode == "exact" or (mode == "auto" and n <= EXACT_NODE_LIMIT)


def _resolve_sampling(n, mode, sample_size, op):
    """Map (mode, sample_size) to the pivot count, or None for exact."""
    if resolves_exact(n, mode):
        return None
    if mode not in SAMPLING_MODES:
        raise InvalidParameter(f"{op}: mode must be one of {SAMPLING_MODES}")
    k = default_sample_size(n) if sample_size is None else int(sample_size)
    if k < 1 or k > n:
        raise InvalidParameter(f"{op}: sample size must be in 1..{n}, got {k}")
    return k


def _pick_pivots(n, k, seed):
    pivots = _rng.stream(seed).choice(n, size=k, replace=False)
    pivots.sort()
    return pivots.astype(np.int64)


# -- degree ----------------------------------------------------------------

def degree_centrality(g: DirectedGraph, mode: str = "total") -> ScoreVector:
    """Raw distinct-neighbour degree as a score; not normalised."""
    if mode not in DEGREE_MODES:
        raise InvalidParameter(f"degree mode must be one of {DEGREE_MODES}")
    if mode == "in":
        scores = g.in_degrees().astype(np.float64)
    elif mode == "out":
        scores = g.out_degrees().astype(np.float64)
    else:
        scores = (g.in_degrees() + g.out_degrees()).astype(np.float64)
    return ScoreVector(metric=f"degree_{mode}", labels=g.labels, scores=scores,
                       params={"mode": mode})


# -- harmonic closeness ------------------------------------------------------

def _hop_closeness(sweep: Sweep) -> np.ndarray:
    """Each node's sum of 1/L over the nodes it reaches at hop L."""
    scores = np.zeros(sweep.n)
    for first in range(0, sweep.n, LANE):
        lane = np.arange(first, min(first + LANE, sweep.n))
        steps = sweep.levels(lane, unit_words(lane.size))
        for level, (_, words) in enumerate(steps, 1):
            scores[lane] += bit_counts(words)[:lane.size] / level
    return scores


def _hop_closeness_to(sweep: Sweep, pivots: np.ndarray) -> np.ndarray:
    """Each node's sum of 1/L over the pivots it reaches at hop L.

    ``sweep`` runs on the transpose, and every lane advances one level
    at a time so each node's count at hop L is a whole-sample integer.
    """
    lanes = [sweep.levels(lane, unit_words(lane.size))
             for lane in (pivots[i:i + LANE] for i in range(0, pivots.size, LANE))]
    scores = np.zeros(sweep.n)
    for level, steps in enumerate(zip_longest(*lanes), 1):
        count = np.zeros(sweep.n, dtype=np.int64)
        for nodes, words in filter(None, steps):
            count[nodes] += popcounts(words)
        scores += count / level
    return scores


def _weighted_closeness(g: DirectedGraph) -> np.ndarray:
    """Each node's sum of reciprocal Dijkstra distances to the others."""
    scores = np.zeros(g.n)
    for v in range(g.n):
        d = _dijkstra_distances(g.out_ptr, g.out_dst, g.out_w, v, g.n)
        scores[v] = (1.0 / d[np.isfinite(d) & (d > 0)]).sum()
    return scores


def _weighted_closeness_to(g: DirectedGraph, pivots: np.ndarray) -> np.ndarray:
    """Each node's sum of reciprocal Dijkstra distances to the pivots."""
    def per_chunk(chunk):
        out = np.zeros(g.n)
        for p in chunk:
            # reverse traversal from the pivot: d(v, p) for every v
            d = _dijkstra_distances(g.in_ptr, g.in_src, g.in_w, int(p), g.n)
            reach = np.isfinite(d) & (d > 0)
            out[reach] += 1.0 / d[reach]
        return out

    return _accumulate_over_sources(pivots, per_chunk, g.n)


def closeness_centrality(g: DirectedGraph, mode: str = "auto",
                         sample_size: int | None = None, seed: int = 0,
                         weighted: bool = False) -> ScoreVector:
    """Harmonic closeness: sum of reciprocal outgoing distances.

    Unreachable targets contribute zero, so disconnected graphs are
    fine and isolated nodes score 0. Sampled mode estimates the sum
    from k seeded target pivots (reverse traversals) rescaled by n/k.
    Supply ``g.transpose()`` to measure reachability-to instead.

    Hop scores add count_L / L in ascending L from each node's distance
    histogram, so nodes with equal histograms score bit-identically and
    sampled mode with k = n equals exact bit for bit.
    """
    n = g.n
    k = _resolve_sampling(n, mode, sample_size, "closeness")
    params = {"weighted": weighted,
              "mode": "exact" if k is None else "sampled"}

    if k is None:
        scores = _weighted_closeness(g) if weighted else _hop_closeness(Sweep(g))
    else:
        params.update({"sample_size": k, "seed": seed})
        pivots = _pick_pivots(n, k, seed)
        if weighted:
            scores = _weighted_closeness_to(g, pivots)
        else:
            scores = _hop_closeness_to(Sweep(g.transpose()), pivots)
        scores *= n / k

    return ScoreVector(metric="closeness", labels=g.labels, scores=scores,
                       params=params)


# -- betweenness (Brandes) ---------------------------------------------------

def _pull_tier(g: DirectedGraph, in_degree, dist, level: int):
    """A level's tier from the unvisited nodes' in-edges, in (dst, src) order."""
    unseen = np.flatnonzero(dist < 0)
    fanin = in_degree[unseen]
    tails = g.in_src[out_edges(g.in_ptr, unseen, fanin)]
    on_tier = dist[tails] == level - 1
    return tails[on_tier], np.repeat(unseen, fanin)[on_tier]


def _brandes_from_source(g: DirectedGraph, out_degree, in_degree,
                         s: int, harmonic: np.ndarray | None = None
                         ) -> np.ndarray:
    """Source dependencies delta_s(.) on unweighted shortest paths.

    With ``harmonic``, ``harmonic[s]`` gets s's hop closeness added:
    each level's node count over its distance, in ascending distance.

    Level L's tier holds the edges from the nodes at distance L-1 to the
    nodes first reached at L. A level pushes or pulls it:

    * push scans the frontier's out-edges and keeps those whose head is
      unvisited, so the tier comes out in ascending (src, dst) order;
    * pull scans the unvisited nodes' in-edges and keeps those whose
      tail is at L-1, so the tier comes out in ascending (dst, src) order.

    Either way ``sigma[v]`` takes its terms in ascending source order
    and ``delta[u]`` in ascending destination order, and bincount adds
    them in that order, so both give the same bytes. A level pulls when
    the frontier has at least ``PULL_MIN_EDGES`` out-edges and they
    outnumber the unvisited nodes' in-edges plus ``PULL_NODE_COST``
    scans per node for finding those nodes (Beamer, Asanovic & Patterson,
    SC 2012). The in-edge count is kept running, so the choice costs
    O(1) a level; a graph with fewer than ``PULL_MIN_EDGES`` edges never
    pulls and keeps no count.
    """
    n = g.n
    dist = np.full(n, -1, dtype=np.int64)
    dist[s] = 0
    sigma = np.zeros(n)
    sigma[s] = 1.0
    frontier = np.array([s], dtype=np.int64)
    level = 0
    tiers = []
    closeness = 0.0
    # in-edges of the unvisited nodes, counted only on a graph that can pull
    unseen_in = (g.num_edges - int(in_degree[s])
                 if g.num_edges >= PULL_MIN_EDGES else None)
    while True:
        level += 1
        fanout = out_degree[frontier]
        if unseen_in is not None and (
                PULL_MIN_EDGES <= (push_edges := int(fanout.sum()))
                and push_edges > unseen_in + PULL_NODE_COST * n):
            t_src, t_dst = _pull_tier(g, in_degree, dist, level)
            if not t_dst.size:
                break
        else:
            t_dst = g.out_dst[out_edges(g.out_ptr, frontier, fanout)]
            # nothing is at distance `level` yet, so every unvisited head is new
            on_tier = dist[t_dst] < 0
            t_dst = t_dst[on_tier]
            if not t_dst.size:
                break
            t_src = np.repeat(frontier, fanout)[on_tier]
        dist[t_dst] = level
        carried = sigma[t_src]
        sigma += np.bincount(t_dst, weights=carried, minlength=n)
        tiers.append((t_src, t_dst, carried))
        frontier = np.flatnonzero(dist == level)
        closeness += frontier.size / level
        if unseen_in is not None:
            unseen_in -= int(in_degree[frontier].sum())
    if harmonic is not None:
        harmonic[s] += closeness
    delta = np.zeros(n)
    for t_src, t_dst, carried in reversed(tiers):
        # sigma of a level-(L-1) node is final once level L-1 is done
        share = carried / sigma[t_dst] * (1.0 + delta[t_dst])
        delta += np.bincount(t_src, weights=share, minlength=n)
    delta[s] = 0.0
    return delta


def _batch_level(g: DirectedGraph, out_degree, width: int, unseen, pos,
                 frontier: np.ndarray, sigma: np.ndarray):
    """The level after ``frontier`` in ``_brandes_batch``, or None.

    Returns the level's sorted keys, their sigma, and the frontier slot
    (tail) and level slot (head) of each tier edge into it, both int32.
    """
    nodes, cols = np.divmod(frontier, width)
    fanout = out_degree[nodes]
    heads = g.out_dst[out_edges(g.out_ptr, nodes, fanout)]
    heads *= width
    heads += np.repeat(cols, fanout)
    fresh = unseen[heads]
    heads = heads[fresh]
    if not heads.size:
        return None
    tails = np.repeat(np.arange(frontier.size), fanout)[fresh]
    keys = np.sort(heads)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    unseen[keys] = False
    pos[keys] = np.arange(keys.size, dtype=np.int32)
    slots = pos[heads]
    sigma = np.bincount(slots, weights=sigma[tails], minlength=keys.size)
    return keys, sigma, tails.astype(np.int32), slots


def _brandes_batch(g: DirectedGraph, out_degree, sources: np.ndarray,
                   width: int, harmonic: np.ndarray | None = None
                   ) -> np.ndarray:
    """Dependencies delta_s(.) of each source in ``sources``, one row each.

    Column c runs ``sources[c]`` on keys ``node * width + c``, one level
    for every column at a time. A level expands the sorted frontier's
    keys over their nodes' out-edges in CSR order, keeps the heads whose
    key is unseen, and sorts and dedupes those into the next frontier;
    a head's slot in it indexes that frontier's ``sigma`` and ``delta``.
    Within a column the frontier ascends by node, so every ``sigma`` and
    ``delta`` term comes in the order the per-source push adds it in and
    the bytes match. Each level keeps its keys, sigma and int32 tier
    slots for the pass back; a level's scratch dies with its call.

    With ``harmonic``, each source's hop closeness is added to its entry,
    as in ``_brandes_from_source``, from one count of the kept levels'
    keys by (level, column) (``_batch_closeness``).
    """
    n = g.n
    unseen = np.ones(n * width, dtype=bool)
    pos = np.empty(unseen.size, dtype=np.int32)
    frontier = sources * width + np.arange(sources.size)
    unseen[frontier] = False
    levels = [(frontier, np.ones(sources.size), None, None)]
    while (level := _batch_level(g, out_degree, width, unseen, pos,
                                 *levels[-1][:2])) is not None:
        levels.append(level)
    # the forward scratch goes before delta takes its place, and each
    # level as soon as the pass back has used it
    del unseen, pos
    if harmonic is not None and len(levels) > 1:
        harmonic[sources] += _batch_closeness(
            [keys for keys, *_ in levels[1:]], width)[:sources.size]
    delta = np.zeros(n * width)
    # the last level depends on nothing, and the sources' own delta is 0
    _, sigma, tails, slots = levels.pop()
    after = np.zeros(sigma.size)
    while len(levels) > 1:
        keys, before, *into = levels.pop()
        # int32 gathers take numpy's slow path: widen them once
        tails, slots = tails.astype(np.intp), slots.astype(np.intp)
        share = before[tails] / sigma[slots] * (1.0 + after[slots])
        after = np.bincount(tails, weights=share, minlength=keys.size)
        delta[keys] = after
        sigma, (tails, slots) = before, into
    return delta.reshape(n, width)[:, :sources.size].T


def _batch_closeness(reached: list[np.ndarray], width: int) -> np.ndarray:
    """Each column's sum of count_L / L in ascending L, where ``reached``
    holds the keys first reached at hop 1, 2, ... of ``_brandes_batch``."""
    depth = len(reached)
    tags = np.concatenate(reached)
    # the column of a key; a mask costs a tenth of % for widths 2^k
    if width & (width - 1):
        tags %= width
    else:
        tags &= width - 1
    tags += np.repeat(np.arange(0, width * depth, width),
                      [keys.size for keys in reached])
    counts = np.bincount(tags, minlength=width * depth).reshape(depth, width)
    # cumsum adds row after row, so each column sums in level order
    return np.cumsum(counts / np.arange(1, depth + 1)[:, None], axis=0)[-1]


def _batch_width(g: DirectedGraph) -> int:
    """Sources per batched Brandes pass: the largest power of two up to
    64 whose keys and edge scans fit ``BATCH_BUDGET``, else 1."""
    width = _SOURCE_CHUNK
    while width > 1 and width * (g.n + g.num_edges) > BATCH_BUDGET:
        width //= 2
    return width


def betweenness_centrality(g: DirectedGraph, mode: str = "auto",
                           sample_size: int | None = None, seed: int = 0,
                           harmonic: np.ndarray | None = None) -> ScoreVector:
    """Freeman betweenness over ordered pairs, unnormalised.

    Exact mode runs Brandes accumulation from every source; sampled mode
    uses k seeded source pivots rescaled by n/k. With k = n the pivot
    set is every source in ascending order, so sampled output matches
    exact bit for bit.

    A graph runs B sources per level pass (``_brandes_batch``), B the
    largest power of two up to 64 with B * (n + m) <= ``BATCH_BUDGET``;
    where not even B = 2 fits, it runs one source at a time
    (``_brandes_from_source``). Both give the same bytes.

    ``harmonic``, n zeros, takes each node's exact hop closeness from the
    same traversal: the terms of ``closeness_centrality(g, "exact")`` in
    its order, so the same bytes. Only exact mode reaches every source,
    so a sampled mode with ``harmonic`` raises InvalidParameter.
    """
    n = g.n
    k = _resolve_sampling(n, mode, sample_size, "betweenness")
    if harmonic is not None and k is not None:
        raise InvalidParameter(
            "betweenness: harmonic closeness needs exact mode")
    params = {"mode": "exact" if k is None else "sampled"}

    out_degree, in_degree = g.out_degrees(), g.in_degrees()
    width = _batch_width(g)

    def per_chunk(chunk):
        out = np.zeros(n)
        # a source without out-edges depends on nothing: its delta is all 0
        chunk = chunk[out_degree[chunk] > 0]
        if width == 1:
            for v in chunk:
                out += _brandes_from_source(g, out_degree, in_degree, int(v),
                                            harmonic)
            return out
        for first in range(0, chunk.size, width):
            batch = chunk[first:first + width]
            for delta in _brandes_batch(g, out_degree, batch, width,
                                        harmonic):
                out += delta
        return out

    if k is None:
        scores = _accumulate_over_sources(np.arange(n), per_chunk, n)
    else:
        params.update({"sample_size": k, "seed": seed})
        pivots = _pick_pivots(n, k, seed)
        scores = _accumulate_over_sources(pivots, per_chunk, n)
        scores *= n / k

    return ScoreVector(metric="betweenness", labels=g.labels, scores=scores,
                       params=params)


# -- eigenvector -------------------------------------------------------------

def eigenvector_centrality(g: DirectedGraph,
                           cfg: PowerIterationConfig | None = None,
                           reverse: bool | None = None) -> ScoreVector:
    """Dominant-eigenvector scores by power iteration, L2-normalised each step.

    The iteration runs on the endorsement orientation (status flows from
    in-edges there), so resharing confers influence; ``reverse`` forces
    the transpose of the stored graph (True) or the stored orientation
    as-is (False). Non-convergence is not an error: the last iterate is
    returned with ``converged=False`` in params. Graphs that are not
    strongly connected are allowed; the result is the dominant-subspace
    projection reachable from the uniform start, and a params note marks
    the degenerate case where the iterate collapses to zero.
    """
    if g.num_edges == 0:
        raise ZeroMatrix("eigenvector centrality needs at least one edge")
    cfg = cfg or PowerIterationConfig()
    if reverse is None:
        reverse = g.direction == INFO_FLOW
    n = g.n
    esrc, edst, ew = g.edge_arrays()

    def matvec(x):
        if reverse:
            # in-edges of the transpose are the stored out-edges
            return np.bincount(esrc, weights=ew * x[edst], minlength=n)
        return np.bincount(edst, weights=ew * x[esrc], minlength=n)

    x = np.full(n, 1.0 / np.sqrt(n))
    params = {"tolerance": cfg.tolerance, "max_iterations": cfg.max_iterations,
              "reverse": reverse, "converged": False}
    iterations = 0
    eigenvalue = 0.0
    for _ in range(cfg.max_iterations):
        y = matvec(x)
        # numpy's pairwise sum adds in a fixed order, so the norm has the
        # same bytes on every CPU; a BLAS dot product's order varies
        norm = float(np.sqrt(np.add.reduce(y * y)))
        if norm == 0.0:
            # nilpotent direction: iterate collapsed to zero, keep last x
            params["note"] = "iterate collapsed to zero (nilpotent adjacency)"
            break
        y /= norm
        iterations += 1
        eigenvalue = norm
        change = float(np.abs(y - x).sum())
        x = y
        if change < cfg.tolerance:
            params["converged"] = True
            break
    params["eigenvalue"] = eigenvalue
    return ScoreVector(metric="eigenvector", labels=g.labels, scores=x,
                       params=params, iterations_run=iterations)
