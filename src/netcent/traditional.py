"""Degree, harmonic closeness, betweenness, and eigenvector centralities.

All operations are pure functions over the immutable graph. Closeness
and betweenness distances are unweighted hop counts by default: edge
weights encode interaction frequency, not cost. A weighted closeness
mode (distance = 1/weight) exists behind a flag.

Exact all-pairs traversal is O(n(n+m)); above ``EXACT_NODE_LIMIT`` nodes
the auto mode switches to seeded pivot sampling with
``k = max(256, n // 100)`` and rescales by n/k. Hop-count closeness
runs 64 sources to a lane of the bit-parallel traversal in
:mod:`netcent.sweep` and adds count/L level by level, so a score depends
only on the node's distance histogram. Betweenness runs Brandes'
accumulation with one of two kernels, chosen by one probe pass from the
node with the most out-edges. Where a probe level pulls, sources run one
at a time, each level pushing over the frontier's out-edges or pulling
over the unvisited nodes' in-edges; a batch cannot pull. Otherwise B
sources share each BFS level's vectorised pass: the largest power of two
B up to 64 with B * (n + m) <= ``BATCH_BUDGET`` times the probe's depth,
counting at most ``BATCH_DEPTH_CAP`` levels. A batch keys source c's
nodes ``c << shift | node``, one row of keys per source, and one sort of
each level's (head, tail) pairs gives the next frontier and the order
both passes add in, at any width. It returns a row of dependencies per
source, and the chunk's sum adds the rows in source order. Both kernels
add every term in the same order, so they give the same bytes; a source
without out-edges adds nothing and is skipped.

Betweenness and weighted closeness run one source loop,
``_accumulate_over_sources``: exact mode makes every node a pivot, in
ascending order. Each fixed-size chunk of pivots sums its
contributions in ascending pivot order, and the chunk sums are added in
ascending chunk order. Up to ``WORKERS`` processes compute at a time,
never more than the usable CPUs: this one, while it does whatever
other work its caller gave it (``meanwhile``), and forked workers,
one more of which then takes its place. The workers take their chunks
from one shared queue. This process still adds the chunk sums in
ascending order, so any process count and any arrival order give the
same bytes. With one usable CPU (``taskset -c 0``), one chunk, or no
``os.fork`` and ``os.sched_getaffinity`` on the platform, they run
serially in this process.

Exact betweenness can also give exact hop closeness from its own
forward pass (``harmonic``): each level's node count over its distance,
added in ascending distance as the lanes add it, so the bytes match.
A chunk then sums a second row holding its sources' closeness.
:func:`netcent.pipeline.compute_metrics` uses it whenever a run asks for
both metrics, both resolve to exact and closeness is unweighted. Exact
closeness run alone keeps the lanes, which are cheaper than Brandes'
forward pass.
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict, dataclass
from itertools import zip_longest

import numpy as np

from . import rng as _rng
from .errors import DataError, InvalidParameter, ZeroMatrix
from .graph import DEGREE_MODES, INFO_FLOW, DirectedGraph
from .scores import ScoreVector
from .sweep import (LANE, Sweep, bit_counts, out_edges, popcounts,
                    unit_words)

log = logging.getLogger(__name__)

EXACT_NODE_LIMIT = 20_000
SAMPLING_MODES = ("auto", "exact", "sampled")
_SOURCE_CHUNK = 64
# processes a source loop may keep computing at a time, the calling one
# included while it runs its caller's other work, fewer where fewer CPUs
# are usable (worker_count). Each worker holds its own traversal scratch:
# on the benchmark's sparse-exact input a worker's peak RSS reads about
# 41 MB, so memory grows with the count; counts above 2 have not been
# measured
WORKERS = 2
# the most processes one source loop ran on since it was last set to 0;
# run_pipeline reports it in timings.json
workers_used = 0
# a Brandes level may pull only when its frontier has this many out-edges:
# below it numpy's per-call cost outweighs the edge scans a pull saves
PULL_MIN_EDGES = 1 << 14
# edge scans a pull spends per node to find the unvisited ones
PULL_NODE_COST = 1 / 4
# betweenness runs B sources per level pass while B * (n + m) fits this
# many units for each level of the probe pass, counting at most
# BATCH_DEPTH_CAP levels. A batch's scratch took 9-13.5 bytes per unit on
# graphs 13-34 levels deep and 14.5-15 on graphs 6-7 deep, whose budget is
# at most 8 levels', so it stays under about 28 MB per process; on the
# benchmark's sparse-exact input (B = 64) a worker's peak RSS reads about
# 41 MB. The budget also keeps a batch's keys, B << shift with 2^shift < 2n,
# below 2^22
BATCH_BUDGET = 1 << 16
BATCH_DEPTH_CAP = 32
# the widest batch betweenness ran since it was last set to 0 (1: one
# source at a time); run_pipeline reports it in timings.json
width_used = 0


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


def power_iterate(step, x: np.ndarray, cfg: PowerIterationConfig, metric: str):
    """Apply ``x = step(x)`` until the L1 change drops below ``cfg.tolerance``.

    Runs at most ``cfg.max_iterations`` steps; ``step`` may return None
    to stop early, keeping the last iterate. Returns (x, iterations, the
    last L1 change, converged). Stopping unconverged logs one warning.
    """
    iterations, residual = 0, float("inf")
    while iterations < cfg.max_iterations:
        y = step(x)
        if y is None:
            break
        iterations += 1
        residual = float(np.abs(y - x).sum())
        x = y
        if residual < cfg.tolerance:
            return x, iterations, residual, True
    log.warning("%s did not converge: L1 change %.2e against tolerance %g after "
                "%d iterations", metric, residual, cfg.tolerance, iterations)
    return x, iterations, residual, False


# -- shared traversal kernels ---------------------------------------------

def _weighted_distances(g: DirectedGraph, in_degree, cost, pivot: int):
    """d(v, pivot) for every v at ``cost`` an edge, inf if unreachable, by
    label-correcting rounds. fl(a + c) is monotone in a and costs are
    positive, so every relaxation order ends at each node's minimum over
    paths of the path's left-to-right sum."""
    dist = np.full(g.n, np.inf)
    dist[pivot] = 0.0
    frontier = np.array([pivot])
    while frontier.size:
        edges, owner = out_edges(g.in_ptr, frontier, in_degree[frontier])
        heads, reached = g.in_src[edges], dist[frontier][owner] + cost[edges]
        better = np.flatnonzero(reached < dist[heads])
        better = better[np.argsort(heads[better])]
        firsts = np.flatnonzero(np.diff(heads[better], prepend=-1))
        frontier = heads[better[firsts]]
        dist[frontier] = np.minimum.reduceat(reached[better], firsts)
    return dist


def worker_count(chunks: int) -> int:
    """Processes to compute ``chunks`` source chunks at a time, this one
    included while it runs other work.

    That is ``WORKERS``, capped by the usable CPUs and by ``chunks``. It
    is 1, a serial run in this process, where the platform has no
    ``os.fork`` or ``os.sched_getaffinity``.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(WORKERS, len(os.sched_getaffinity(0)), chunks))


def _accumulate_over_sources(sources, per_chunk, shape, meanwhile=()):
    """Sum ``per_chunk``'s float arrays of ``shape`` in ascending chunk order.

    ``meanwhile`` is iterated once in this process before any chunk runs
    here; each item it yields marks a point where partials that are
    ready get read. It starts no source loop of its own, whose workers
    would compute next to this loop's. With P = ``worker_count(chunks)``
    above 1, this process forks P - 1 workers and runs ``meanwhile``,
    then forks one more worker in its own place, so P processes compute
    at a time and this one's peak RSS holds no traversal scratch. The
    workers take chunks from one queue, so whichever is free runs the
    next chunk. A worker sends back each chunk's partial sum as raw
    float64 bytes. The parent adds the partials in ascending chunk order
    and holds any that arrive early, as the serial loop adds them, so
    every process count and arrival order gives the same bytes. Where
    chunks fail, the lowest failing chunk's exception is raised, as the
    serial loop raises it. Every worker is reaped before this returns,
    and on an exception killed first.
    """
    sources = np.asarray(sources, dtype=np.int64)
    chunks = [sources[first:first + _SOURCE_CHUNK]
              for first in range(0, sources.size, _SOURCE_CHUNK)]
    procs = worker_count(len(chunks))
    global workers_used
    workers_used = max(workers_used, procs)
    if procs > 1:
        return _Pool(chunks, per_chunk, shape).run(procs, meanwhile)
    for _ in meanwhile:
        pass
    total = np.zeros(shape)
    for chunk in chunks:
        total += per_chunk(chunk)
    return total


_ENDED = "a worker process ended before sending its result"
# a message's 5-byte header: its kind, then the chunk it is about
_PARTIAL, _FAILED, _DONE = range(3)
# a result pipe holds this many bytes where the platform allows it, so a
# worker seldom waits while the parent runs its other work: 4 partials of
# the benchmark's 30k-node graph
_PIPE_BYTES = 1 << 20


class _Pool:
    """One ``_accumulate_over_sources`` run on forked workers.

    The queue is a pipe filled before the fork with 4-byte entries and
    then closed for writing, so a read gets the next entry or, once
    every entry is taken, end of file; a read of 4 bytes is atomic, so
    no two processes take one entry. An entry names the first of
    ``group`` consecutive chunks. The entries fit ``select.PIPE_BUF``
    bytes, which any pipe holds, so filling the queue never blocks:
    ``group`` is 1 up to 1024 chunks on Linux and grows above that.
    """

    def __init__(self, chunks, per_chunk, shape):
        import select
        self.chunks, self.per_chunk, self.shape = chunks, per_chunk, shape
        self.group = -(-len(chunks) // (select.PIPE_BUF // 4))
        # the partials added so far, in chunk order, and how many
        self.total, self.added = np.zeros(shape), 0
        # chunk index -> a partial that came early, or the exception it
        # raised
        self.received = {}
        # result pipes of the workers yet to say they are done, by fd
        self.live = {}
        self.poll = select.poll()

    def take(self, queue):
        """A worker's next chunk indices, from the next queue entry; none
        once the queue is empty."""
        entry = os.read(queue, 4)
        if not entry:
            return range(0)
        first = int.from_bytes(entry, "little")
        return range(first, min(first + self.group, len(self.chunks)))

    def queue(self) -> int:
        """A new queue holding every entry; its read end."""
        firsts = np.arange(0, len(self.chunks), self.group, dtype="<u4")
        queue, fill = os.pipe()
        try:
            os.write(fill, firsts.tobytes())
        finally:
            os.close(fill)
        return queue

    def run(self, procs, meanwhile):
        import signal
        queue = self.queue()
        pids, pipes = [], []
        try:
            # fork, not spawn: a worker starts with the graph already in
            # memory, where spawn would import netcent again and copy the
            # graph over. netcent starts no threads, and OpenBLAS shuts
            # its pool down at fork
            for _ in range(procs - 1):
                self._fork(queue, pids, pipes)
            for _ in meanwhile:
                self._receive(block=False)
            # the last worker takes this process's place: this one holds
            # the run's other state, and a batch's scratch on top of it
            # raised its peak RSS by a tenth on a 1000-node graph
            self._fork(queue, pids, pipes)
            while self.added < len(self.chunks):
                # only an exception waits at the head of the chunk order
                if self.added in self.received:
                    raise self.received[self.added]
                self._receive(block=True)
            return self.total
        except BaseException:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(queue)
            for pipe in pipes:
                pipe.close()
            for pid in pids:
                os.waitpid(pid, 0)

    def _fork(self, queue, pids, pipes):
        """Start one worker on ``queue``; its pid joins ``pids`` and its
        result pipe ``pipes``. The read end joins ``pipes`` before the
        fork and the write end is closed whatever the fork does, so a
        failed fork leaks neither."""
        import select
        read_fd, write_fd = os.pipe()
        pipes.append(open(read_fd, "rb", buffering=0))
        try:
            try:
                import fcntl
                fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            except (ImportError, AttributeError, OSError):
                pass  # not Linux, or over the system's pipe limits
            pid = os.fork()
            if pid == 0:
                _worker(self, queue, write_fd,
                        [pipe.fileno() for pipe in pipes])
            pids.append(pid)
        finally:
            os.close(write_fd)
        self.live[read_fd] = pipes[-1]
        self.poll.register(read_fd, select.POLLIN)

    def _receive(self, block: bool) -> None:
        """Read every message the workers have ready; with ``block``,
        wait for one first."""
        while True:
            if block and not self.live:
                raise RuntimeError(_ENDED)
            ready = self.poll.poll(None if block else 0)
            if not ready:
                return
            block = False
            for fd, _ in ready:
                self._read_message(fd)

    def _read_message(self, fd: int) -> None:
        pipe = self.live[fd]
        header = bytearray(5)
        _read_into(pipe, header)
        kind, chunk = header[0], int.from_bytes(header[1:], "little")
        if kind == _PARTIAL:
            self.received[chunk] = partial = np.empty(self.shape)
            _read_into(pipe, partial)
            while isinstance(self.received.get(self.added), np.ndarray):
                self.total += self.received.pop(self.added)
                self.added += 1
            return
        if kind == _FAILED:
            import pickle
            self.received[chunk] = pickle.loads(pipe.readall())
        self.poll.unregister(fd)
        del self.live[fd]


def _read_into(pipe, buffer) -> None:
    """Fill ``buffer`` from a worker's raw ``pipe``; end of file first is
    an error."""
    view = memoryview(buffer).cast("B")
    while view.nbytes:
        n = pipe.readinto(view)
        if not n:
            raise RuntimeError(_ENDED)
        view = view[n:]


def _header(kind: int, chunk: int) -> bytes:
    return bytes((kind,)) + chunk.to_bytes(4, "little")


def _worker(pool: _Pool, queue: int, write_fd: int, readers):
    """A forked worker's life; it never returns.

    It takes queue entries until the queue is empty and sends each
    chunk's partial sum as raw float64 bytes after a header naming the
    chunk, then a last header saying it is done. A chunk's exception
    goes as a header and the pickled exception, and the worker stops
    there. Nothing it writes to memory reaches the parent. It closes its
    copies of the parent's ``readers``, so once the parent is gone the
    next write raises BrokenPipeError and the worker exits.
    """
    status = 1
    try:
        for fd in readers:
            os.close(fd)
        with open(write_fd, "wb") as out:
            while chunks := pool.take(queue):
                for chunk in chunks:
                    try:
                        partial = pool.per_chunk(pool.chunks[chunk])
                    except BaseException as exc:
                        import pickle
                        out.write(_header(_FAILED, chunk)
                                  + pickle.dumps(exc))
                        return
                    out.write(_header(_PARTIAL, chunk))
                    out.write(partial)
                    out.flush()
            out.write(_header(_DONE, 0))
        status = 0
    finally:
        os._exit(status)


def resolves_exact(n: int, mode: str) -> bool:
    """Whether ``mode`` runs every source on a graph of n nodes."""
    return mode == "exact" or (mode == "auto" and n <= EXACT_NODE_LIMIT)


def _resolve_pivots(n, mode, sample_size, seed, op):
    """The ascending pivots ``mode`` runs and the params that name them.

    Exact mode makes every node a pivot; sampled mode picks k seeded ones.
    """
    if resolves_exact(n, mode):
        return np.arange(n, dtype=np.int64), {"mode": "exact"}
    if mode not in SAMPLING_MODES:
        raise InvalidParameter(f"{op}: mode must be one of {SAMPLING_MODES}")
    k = default_sample_size(n) if sample_size is None else int(sample_size)
    if k < 1 or k > n:
        raise InvalidParameter(f"{op}: sample size must be in 1..{n}, got {k}")
    return (_pick_pivots(n, k, seed),
            {"mode": "sampled", "sample_size": k, "seed": seed})


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


def _weighted_closeness_to(g: DirectedGraph, pivots: np.ndarray) -> np.ndarray:
    """Each node's sum of reciprocal weighted distances to the pivots.

    A weight whose 1/w overflows to inf makes its edge lead nowhere. A
    sum that overflows stays inf, for the caller to reject.
    """
    in_degree = np.diff(g.in_ptr)
    with np.errstate(over="ignore"):
        cost = 1.0 / g.in_w

    def per_chunk(chunk):
        out = np.zeros(g.n)
        with np.errstate(over="ignore"):
            for p in chunk:
                d = _weighted_distances(g, in_degree, cost, p)
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
    sampled mode with k = n equals exact bit for bit. Weighted closeness
    sums its pivots' ``_weighted_distances`` in ``_accumulate_over_sources``,
    exact mode with every node a pivot, so there too k = n equals exact.
    """
    n = g.n
    pivots, params = _resolve_pivots(n, mode, sample_size, seed, "closeness")
    if weighted:
        scores = _weighted_closeness_to(g, pivots)
    elif params["mode"] == "exact":
        scores = _hop_closeness(Sweep(g))
    else:
        scores = _hop_closeness_to(Sweep(g.transpose()), pivots)
    if pivots.size < n:
        with np.errstate(over="ignore"):
            scores *= n / pivots.size
    # only distances below 1/float max, from weights near it, overflow
    overflow = np.flatnonzero(np.isinf(scores))
    if overflow.size:
        raise DataError(
            f"closeness: the weighted closeness of node "
            f"{g.labels[overflow[0]]!r} overflows: an edge weight near the "
            f"float maximum puts a node at a distance whose reciprocal "
            f"exceeds it")
    return ScoreVector(metric="closeness", labels=g.labels, scores=scores,
                       params={"weighted": weighted, **params})


# -- betweenness (Brandes) ---------------------------------------------------

def _pull_tier(g: DirectedGraph, in_degree, dist, level: int):
    """A level's tier from the unvisited nodes' in-edges, in (dst, src) order."""
    unseen = np.flatnonzero(dist < 0)
    edges, owner = out_edges(g.in_ptr, unseen, in_degree[unseen])
    tails = g.in_src[edges]
    on_tier = np.flatnonzero(dist[tails] == level - 1)
    return tails[on_tier], unseen[owner[on_tier]]


def _forward_pass(g: DirectedGraph, out_degree, in_degree, s: int):
    """Brandes' forward pass from s: (tiers, sigma, closeness, pulled).

    Level L's tier holds the edges from the nodes at distance L-1 to the
    nodes first reached at L, as (src, dst, sigma[src]); ``closeness``
    adds each level's node count over its distance, in ascending
    distance, and ``pulled`` says whether any level chose to pull. A
    level pushes or pulls its tier:

    * push scans the frontier's out-edges and keeps those whose head is
      unvisited, so the tier comes out in ascending (src, dst) order;
    * pull scans the unvisited nodes' in-edges and keeps those whose
      tail is at L-1, so the tier comes out in ascending (dst, src) order.

    Either way ``sigma[v]`` takes its terms in ascending source order
    and, in the pass back, ``delta[u]`` in ascending destination order,
    and bincount adds them in that order, so both give the same bytes.
    A level pulls when the frontier has at least ``PULL_MIN_EDGES``
    out-edges and they outnumber the unvisited nodes' in-edges plus
    ``PULL_NODE_COST`` scans per node for finding those nodes (Beamer,
    Asanovic & Patterson, SC 2012). The in-edge count is kept running, so
    the choice costs O(1) a level; a graph with fewer than
    ``PULL_MIN_EDGES`` edges never pulls and keeps no count.
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
    pulled = False
    # in-edges of the unvisited nodes, counted only on a graph that can pull
    unseen_in = (g.num_edges - int(in_degree[s])
                 if g.num_edges >= PULL_MIN_EDGES else None)
    while True:
        level += 1
        fanout = out_degree[frontier]
        if unseen_in is not None and (
                PULL_MIN_EDGES <= (push_edges := int(fanout.sum()))
                and push_edges > unseen_in + PULL_NODE_COST * n):
            pulled = True
            t_src, t_dst = _pull_tier(g, in_degree, dist, level)
            if not t_dst.size:
                break
        else:
            edges, owner = out_edges(g.out_ptr, frontier, fanout)
            t_dst = g.out_dst[edges]
            # nothing is at distance `level` yet, so every unvisited head is new
            on_tier = np.flatnonzero(dist[t_dst] < 0)
            if not on_tier.size:
                break
            t_dst, t_src = t_dst[on_tier], frontier[owner[on_tier]]
        dist[t_dst] = level
        carried = sigma[t_src]
        sigma += np.bincount(t_dst, weights=carried, minlength=n)
        tiers.append((t_src, t_dst, carried))
        frontier = np.flatnonzero(dist == level)
        closeness += frontier.size / level
        if unseen_in is not None:
            unseen_in -= int(in_degree[frontier].sum())
    return tiers, sigma, closeness, pulled


def _brandes_from_source(g: DirectedGraph, out_degree, in_degree,
                         s: int, harmonic: np.ndarray | None = None
                         ) -> np.ndarray:
    """Source dependencies delta_s(.) on unweighted shortest paths.

    With ``harmonic``, ``harmonic[s]`` gets s's hop closeness added.
    The tiers come from ``_forward_pass``, which pushes or pulls each.
    """
    tiers, sigma, closeness, _ = _forward_pass(g, out_degree, in_degree, s)
    if harmonic is not None:
        harmonic[s] += closeness
    delta = np.zeros(g.n)
    for t_src, t_dst, carried in reversed(tiers):
        # sigma of a level-(L-1) node is final once level L-1 is done
        share = carried / sigma[t_dst] * (1.0 + delta[t_dst])
        delta += np.bincount(t_src, weights=share, minlength=g.n)
    delta[s] = 0.0
    return delta


def _batch_level(g: DirectedGraph, out_degree, shift: int, unseen,
                 frontier: np.ndarray, sigma: np.ndarray):
    """The level after ``frontier`` in ``_brandes_batch``, or None.

    Returns the level's ascending keys, their sigma, and the frontier
    slot (tail) and level slot (head) of each tier edge into it, in
    ascending (head, tail) order.
    """
    nodes = frontier & ((1 << shift) - 1)
    edges, tails = out_edges(g.out_ptr, nodes, out_degree[nodes])
    heads = g.out_dst[edges]
    del edges
    # a head takes its tail's column bits
    heads |= (frontier ^ nodes)[tails]
    fresh = np.flatnonzero(unseen[heads])
    if not fresh.size:
        return None
    # one sort of (head, tail) pairs gives the keys, each tier edge's
    # slots and the order both passes add in. The width rule keeps heads
    # below 2^22 and tails are below 2^bits, so a pair fits in int64
    bits = frontier.size.bit_length()
    pairs = heads[fresh]
    del heads
    pairs <<= bits
    pairs |= tails[fresh]
    del tails, fresh
    pairs.sort()
    heads = pairs >> bits
    tails = pairs
    tails &= (1 << bits) - 1
    first = np.empty(heads.size, dtype=bool)
    first[0] = True
    np.not_equal(heads[1:], heads[:-1], out=first[1:])
    # compress: a boolean index took 4-5 times as long on numpy 2.4
    keys = np.compress(first, heads)
    unseen[keys] = False
    slots = np.cumsum(first)
    slots -= 1
    return keys, np.bincount(slots, weights=sigma[tails]), tails, slots


def _brandes_batch(g: DirectedGraph, out_degree, sources: np.ndarray,
                   harmonic: np.ndarray | None = None) -> np.ndarray:
    """Dependencies delta_s(.) of the k ``sources`` as a (k, n) block, a
    row per source.

    Row c runs ``sources[c]`` on keys ``c << shift | node``, with
    ``1 << shift`` the power of two at or above n, one level for every
    row at a time. A level expands the frontier's nodes over their
    out-edges, keeps the heads whose key is unseen, and sorts the tier's
    (head, tail) pairs once; the distinct heads are the next frontier.
    Within a head the tails ascend, and within a tail the heads, so every
    ``sigma`` and ``delta`` term comes in the order the per-source push
    adds it in and the bytes match. Each level keeps its keys, sigma and
    tier slots for the pass back; a level's scratch dies with its call.

    With ``harmonic``, each source's hop closeness is added to its entry,
    as in ``_brandes_from_source``, from each level's key count per row.
    """
    k = sources.size
    shift = (g.n - 1).bit_length()
    unseen = np.ones(k << shift, dtype=bool)
    frontier = np.arange(k) << shift | sources
    unseen[frontier] = False
    levels = [(frontier, np.ones(k), None, None)]
    counts = []
    while (level := _batch_level(g, out_degree, shift, unseen,
                                 *levels[-1][:2])) is not None:
        levels.append(level)
        if harmonic is not None:
            counts.append(np.bincount(level[0] >> shift, minlength=k))
    # the forward scratch goes before delta takes its place, and each
    # level as soon as the pass back has used it
    del unseen
    if counts:
        # cumsum adds level after level, so each row sums in level order
        harmonic[sources] += np.cumsum(
            counts / np.arange(1.0, len(counts) + 1)[:, None], axis=0)[-1]
    delta = np.zeros(k << shift)
    # the last level depends on nothing, and the sources' own delta is 0
    _, sigma, tails, slots = levels.pop()
    after = np.zeros(sigma.size)
    while len(levels) > 1:
        keys, before, *into = levels.pop()
        share = before[tails] / sigma[slots] * (1.0 + after[slots])
        after = np.bincount(tails, weights=share, minlength=keys.size)
        delta[keys] = after
        sigma, (tails, slots) = before, into
    return delta.reshape(k, -1)[:, :g.n]


def _batch_width(g: DirectedGraph) -> int:
    """Sources per Brandes level pass, from ``_forward_pass`` run as a
    probe from the node with the most out-edges (lowest id on ties). A
    graph without edges, perhaps without nodes, runs one at a time."""
    if not g.num_edges:
        return 1
    out_degree = g.out_degrees()
    tiers, _, _, pulled = _forward_pass(g, out_degree, g.in_degrees(),
                                        int(np.argmax(out_degree)))
    return _width_for(g.n, g.num_edges, len(tiers), pulled)


def _width_for(n: int, m: int, depth: int, pulled: bool) -> int:
    """1 if the probe pulled, as a batch cannot; else the largest power of
    two B up to 64 with B * (n + m) <= ``BATCH_BUDGET`` * min(depth,
    ``BATCH_DEPTH_CAP``), or 1 where none fits."""
    if pulled:
        return 1
    budget = BATCH_BUDGET * min(depth, BATCH_DEPTH_CAP)
    width = _SOURCE_CHUNK
    while width > 1 and width * (n + m) > budget:
        width //= 2
    return width


def betweenness_centrality(g: DirectedGraph, mode: str = "auto",
                           sample_size: int | None = None, seed: int = 0,
                           harmonic: np.ndarray | None = None, *,
                           meanwhile=()) -> ScoreVector:
    """Freeman betweenness over ordered pairs, unnormalised.

    Exact mode runs Brandes accumulation from every source; sampled mode
    uses k seeded source pivots rescaled by n/k. With k = n the pivot
    set is every source in ascending order, so sampled output matches
    exact bit for bit.

    ``_batch_width`` picks the sources per level pass from a probe pass:
    one at a time (``_brandes_from_source``) where the probe pulled or not
    even B = 2 fits its depth's budget, else B at a time
    (``_brandes_batch``). Both give the same bytes.

    ``harmonic``, n zeros, takes each node's exact hop closeness from the
    same traversal: the terms of ``closeness_centrality(g, "exact")`` in
    its order, so the same bytes. Only exact mode reaches every source,
    so a sampled mode with ``harmonic`` raises InvalidParameter.

    The 64-source chunks run through ``_accumulate_over_sources``, with
    the same bytes for any process count. A chunk's partial has one row
    of dependency sums and, with ``harmonic``, a second row holding its
    sources' closeness and 0.0 everywhere else; adding 0.0 is exact.
    ``meanwhile`` goes to that loop: an iterable of other work for this
    process to do while a forked worker starts on the chunks.
    """
    n = g.n
    pivots, params = _resolve_pivots(n, mode, sample_size, seed,
                                     "betweenness")
    if harmonic is not None and params["mode"] != "exact":
        raise InvalidParameter(
            "betweenness: harmonic closeness needs exact mode")
    out_degree, in_degree = g.out_degrees(), g.in_degrees()
    width = _batch_width(g)
    global width_used
    width_used = max(width_used, width)
    rows = 1 if harmonic is None else 2

    def per_chunk(chunk):
        out = np.zeros((rows, n))
        closeness = out[1] if rows == 2 else None
        # a source without out-edges depends on nothing: its delta is all 0
        chunk = chunk[out_degree[chunk] > 0]
        if width == 1:
            for v in chunk:
                out[0] += _brandes_from_source(
                    g, out_degree, in_degree, int(v), closeness)
            return out
        for first in range(0, chunk.size, width):
            # each node's entry adds one source after another, in order
            for row in _brandes_batch(g, out_degree,
                                      chunk[first:first + width], closeness):
                out[0] += row
        return out

    sums = _accumulate_over_sources(pivots, per_chunk, (rows, n), meanwhile)
    if harmonic is not None:
        harmonic += sums[1]
    scores = sums[0]
    if pivots.size < n:
        scores *= n / pivots.size
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
    h = g.transpose() if reverse else g
    n = h.n
    esrc, edst, ew = h.edge_arrays()
    params = {**asdict(cfg), "reverse": reverse, "eigenvalue": 0.0}

    def step(x):
        y = np.bincount(edst, weights=ew * x[esrc], minlength=n)
        # numpy's pairwise sum adds in a fixed order, so the norm has the
        # same bytes on every CPU; a BLAS dot product's order varies
        norm = float(np.sqrt(np.add.reduce(y * y)))
        if norm == 0.0:
            # nilpotent direction: iterate collapsed to zero, keep last x
            params["note"] = "iterate collapsed to zero (nilpotent adjacency)"
            return None
        params["eigenvalue"] = norm
        return y / norm

    x, iterations, _, params["converged"] = power_iterate(
        step, np.full(n, 1.0 / np.sqrt(n)), cfg, "eigenvector")
    return ScoreVector(metric="eigenvector", labels=g.labels, scores=x,
                       params=params, iterations_run=iterations)
