"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately written the dumb way (dict adjacency,
dense matrices, exact integer/Fraction arithmetic, exhaustive
enumeration) and shares no code with the package's fast paths.
"""

import heapq
from collections import deque
from fractions import Fraction

import numpy as np


def adjacency_dict(edges, n):
    adj = {v: [] for v in range(n)}
    for s, d in edges:
        adj[s].append(d)
    return adj


def bfs_dist(adj, source, n):
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def interaction_graph(rows, convention):
    """(sorted labels, {(src, dst): summed weight}, self-loop count) from
    (actor, target, weight) rows; info_flow orients target -> actor."""
    labels = set()
    edges = {}
    loops = 0
    for actor, target, weight in rows:
        labels.update((actor, target))
        if actor == target:
            loops += 1
            continue
        key = (target, actor) if convention == "info_flow" else (actor, target)
        edges[key] = edges.get(key, 0.0) + weight
    return sorted(labels), edges, loops


def degree_counts(edges, n):
    """(in, out, total) per node by scanning the raw edge list."""
    ind = [0] * n
    outd = [0] * n
    seen = set()
    for s, d in edges:
        if (s, d) in seen:
            continue
        seen.add((s, d))
        outd[s] += 1
        ind[d] += 1
    return ind, outd, [i + o for i, o in zip(ind, outd)]


def harmonic_closeness(edges, n):
    adj = adjacency_dict(edges, n)
    scores = []
    for v in range(n):
        dist = bfs_dist(adj, v, n)
        scores.append(sum(1.0 / d for u, d in dist.items() if u != v))
    return np.array(scores)


def sampled_harmonic_closeness(edges, n, pivots):
    """Pivot estimate: one reverse BFS per pivot p adds 1/d(v, p) to each
    v that reaches it, and the sum is rescaled by n/len(pivots)."""
    radj = adjacency_dict([(d, s) for s, d in edges], n)
    scores = [0.0] * n
    for p in pivots:
        for v, d in bfs_dist(radj, int(p), n).items():
            if v != p:
                scores[v] += 1.0 / d
    return np.array(scores) * (n / len(pivots))


def betweenness(edges, n):
    """Freeman betweenness from forward/backward path counting.

    sigma_st(v) = sigma(s->v) * sigma(v->t) when v sits on a shortest
    path, which avoids re-deriving Brandes' accumulation.
    """
    adj = adjacency_dict(edges, n)
    radj = {v: [] for v in range(n)}
    for s, d in edges:
        radj[d].append(s)

    def counts(a, source):
        dist = {source: 0}
        sigma = {source: 1}
        q = deque([source])
        order = []
        while q:
            u = q.popleft()
            order.append(u)
            for v in a[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    sigma[v] = 0
                    q.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
        return dist, sigma

    fwd = [counts(adj, s) for s in range(n)]
    bwd = [counts(radj, t) for t in range(n)]
    scores = np.zeros(n)
    for s in range(n):
        dist_s, sig_s = fwd[s]
        for t in range(n):
            if t == s or t not in dist_s:
                continue
            dist_t, sig_t = bwd[t]
            total = sig_s[t]
            for v in range(n):
                if v in (s, t):
                    continue
                if v in dist_s and v in dist_t \
                        and dist_s[v] + dist_t[v] == dist_s[t]:
                    scores[v] += sig_s[v] * sig_t[v] / total
    return scores


def _frontier_edges(ptr, adj, frontier):
    """All (src, dst) pairs leaving the frontier nodes, vectorised."""
    starts = ptr[frontier]
    counts = ptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    esrc = np.repeat(frontier, counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)
    return esrc, adj[idx]


def brandes_from_source(g, s):
    """Source dependencies delta_s(.) on unweighted shortest paths.

    The level-synchronous Brandes kernel as it stood before the sort-free
    rewrite, kept verbatim (with its edge helper) so the package's kernel
    can be pinned to it bit for bit.
    """
    n = g.n
    dist = np.full(n, -1, dtype=np.int64)
    dist[s] = 0
    sigma = np.zeros(n)
    sigma[s] = 1.0
    frontier = np.array([s], dtype=np.int64)
    level = 0
    tiers = []
    while frontier.size:
        level += 1
        esrc, edst = _frontier_edges(g.out_ptr, g.out_dst, frontier)
        if edst.size == 0:
            break
        fresh = edst[dist[edst] < 0]
        if fresh.size:
            dist[fresh] = level
        on_tier = dist[edst] == level
        t_src, t_dst = esrc[on_tier], edst[on_tier]
        if t_src.size:
            sigma += np.bincount(t_dst, weights=sigma[t_src], minlength=n)
            tiers.append((t_src, t_dst))
        frontier = np.unique(fresh) if fresh.size else fresh
    delta = np.zeros(n)
    for t_src, t_dst in reversed(tiers):
        share = sigma[t_src] / sigma[t_dst] * (1.0 + delta[t_dst])
        delta += np.bincount(t_src, weights=share, minlength=n)
    delta[s] = 0.0
    return delta


def brandes_betweenness(g, sources):
    """Sum of ``brandes_from_source`` over ascending sources, added in
    chunks of 64 and then chunk by chunk, as the package accumulates."""
    total = np.zeros(g.n)
    for first in range(0, len(sources), 64):
        chunk = np.zeros(g.n)
        for s in sources[first:first + 64]:
            chunk += brandes_from_source(g, int(s))
        total += chunk
    return total


def dijkstra_distances(ptr, adj, w, source, n):
    """Distances from ``source`` along the CSR (ptr, adj) at cost 1/weight
    an edge, inf = unreachable: a Python heap Dijkstra, one edge at a time.

    Weighted closeness ran this per pivot before its vectorised
    relaxation, which must give the same bytes.
    """
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


def pagerank_dense(edges, n, damping=0.85, tol=1e-14, weights=None):
    """Dense fixed point with uniform dangling redistribution."""
    A = np.zeros((n, n))
    for i, (s, d) in enumerate(edges):
        A[s, d] += 1.0 if weights is None else weights[i]
    out = A.sum(axis=1)
    P = np.zeros((n, n))
    nz = out > 0
    P[nz] = A[nz] / out[nz, None]
    x = np.full(n, 1.0 / n)
    for _ in range(100_000):
        loose = x[~nz].sum()
        x_new = (1 - damping) / n + damping * (P.T @ x + loose / n)
        if np.abs(x_new - x).sum() < tol:
            return x_new
        x = x_new
    return x


def dominant_eigenvector(edges, n, weights=None):
    """Right Perron vector of the weighted adjacency via numpy.linalg.eig."""
    A = np.zeros((n, n))
    for i, (s, d) in enumerate(edges):
        A[s, d] += 1.0 if weights is None else weights[i]
    vals, vecs = np.linalg.eig(A)
    lead = np.argmax(vals.real)
    v = vecs[:, lead].real
    if v.sum() < 0:
        v = -v
    return v / np.linalg.norm(v)


def mvc_exact(exposure, vul0, steps):
    """Exact exposure**T * vul_0 with Fraction arithmetic."""
    return [Fraction(int(e)) ** steps * Fraction(v) for e, v in zip(exposure, vul0)]


def dic_exact(edges, n, steps):
    """Integer-exact cumulative influence recurrence from all-ones."""
    radj = {v: [] for v in range(n)}
    for s, d in edges:
        radj[d].append(s)
    vec = [1] * n
    for _ in range(steps):
        vec = [vec[v] + sum(vec[u] for u in radj[v]) for v in range(n)]
    return vec


def live_edge_expectation(edges, n, seeds, p, weights=None):
    """Exact cascade mean and variance by enumerating all edge subsets."""
    edges = list(edges)
    m = len(edges)
    probs = [p if weights is None else 1.0 - (1.0 - p) ** weights[i]
             for i in range(m)]
    mean = 0.0
    second = 0.0
    for mask in range(1 << m):
        prob = 1.0
        adj = {v: [] for v in range(n)}
        for i, (s, d) in enumerate(edges):
            if mask >> i & 1:
                prob *= probs[i]
                adj[s].append(d)
            else:
                prob *= 1.0 - probs[i]
        reached = set(seeds)
        q = deque(seeds)
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in reached:
                    reached.add(v)
                    q.append(v)
        size = len(reached)
        mean += prob * size
        second += prob * size * size
    return mean, second - mean * mean


def keyed_live_words(probs, stream_seed, lane):
    """Live word of each edge for the 64 trials of one lane, drawn bit by bit.

    Trial j's variate for edge i is a binary fraction whose digit r is bit
    j of edge i's round-r word. Round r draws, with ``random_raw()`` of
    ``trial_stream(stream_seed, lane)``, one word for each edge that still
    has undecided bits and digits of ``probs[i]`` left, in edge order.
    An undecided bit is live where it is 0 and p's digit is 1, dead where
    it is 1 and p's digit is 0; bits still undecided at the end are dead.
    """
    from netcent.rng import trial_stream

    ones = (1 << 64) - 1
    bits = trial_stream(stream_seed, lane).bit_generator
    live, undecided, rest = [], [], []
    for p in probs:
        live.append(ones if p >= 1 else 0)
        undecided.append(ones if 0 < p < 1 else 0)
        rest.append(Fraction(p))
    while any(undecided):
        for i, word in enumerate(undecided):
            if not word:
                continue
            rest[i] *= 2
            digit = rest[i] >= 1
            rest[i] -= digit
            raw = int(bits.random_raw())
            if digit:
                live[i] |= word & ~raw
                undecided[i] = word & raw
            else:
                undecided[i] = word & ~raw
            if rest[i] == 0:
                undecided[i] = 0
    return live


def keyed_cascade_sizes(edges, n, seeds, probs, stream_seed, trials,
                        removed=()):
    """Per-trial cascade sizes by BFS over each trial's keyed live edges.

    ``edges`` are in the graph's in-adjacency order, sorted by
    (dst, src); edge i is live in trial t iff bit t % 64 of its word in
    ``keyed_live_words(probs, stream_seed, t // 64)`` is set. Removed
    nodes neither seed nor pass on the cascade.
    """
    removed = set(removed)
    sizes = []
    for t in range(trials):
        if t % 64 == 0:
            words = keyed_live_words(probs, stream_seed, t // 64)
        adj = {v: [] for v in range(n)}
        for i, (s, d) in enumerate(edges):
            if words[i] >> t % 64 & 1 and s not in removed and d not in removed:
                adj[s].append(d)
        reached = {v for v in seeds if v not in removed}
        q = deque(reached)
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in reached:
                    reached.add(v)
                    q.append(v)
        sizes.append(len(reached))
    return sizes


def lexsort_csr(n, src, dst, w):
    """Both CSR layouts of an id edge list as ``DirectedGraph`` built them
    with ``np.lexsort``: self-loops dropped, duplicates summed in input
    order. Returns (out_ptr, out_dst, out_w, in_ptr, in_src, in_w)."""
    src, dst, w = (np.asarray(a) for a in (src, dst, w))
    keep = src != dst
    src, dst, w = src[keep], dst[keep], w[keep]
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    starts = np.flatnonzero(np.r_[True, (src[1:] != src[:-1])
                                  | (dst[1:] != dst[:-1])]) if src.size else []
    if src.size:
        src, dst, w = src[starts], dst[starts], np.add.reduceat(w, starts)

    def csr(major, minor, weight):
        order = np.lexsort((minor, major))
        ptr = np.r_[0, np.cumsum(np.bincount(major, minlength=n))]
        return ptr, minor[order], weight[order]

    return (*csr(src, dst, w), *csr(dst, src, w))


def sort_by_exact(values, labels):
    """Descending exact-value order with ascending-label tie-break."""
    return [lab for _, lab in sorted(zip(values, labels),
                                     key=lambda t: (-t[0], t[1]))]


def is_valid_descending_order(ordered_labels, exact_by_label):
    """True when the label sequence never increases in exact value."""
    vals = [exact_by_label[lab] for lab in ordered_labels]
    return all(a >= b for a, b in zip(vals, vals[1:]))


# -- the per-line CSV readers as they stood before block-wise ingest ---------
#
# Kept verbatim, with the row-at-a-time ``Interactions`` they filled, so the
# block readers in ``netcent.io`` can be pinned to them row for row and
# error for error.

import csv
import math
from array import array
from pathlib import Path

from netcent.errors import EmptyInput, ParseError
from netcent.graph import DirectedGraph, from_edges
from netcent.scores import ScoreVector

INFO_FLOW = "info_flow"
INTERACTION_KINDS = ("retweet", "mention", "reply", "share", "other")
_KIND_CODES = {k: i for i, k in enumerate(INTERACTION_KINDS)}


def _check_weight(w):
    """Raise ValueError unless ``w`` is finite and positive."""
    if w is None or not 0 < w < math.inf:
        raise ValueError(f"weight must be finite and positive, got {w}")


class Interactions:
    """Interaction rows held as columns, filled one row at a time."""

    __slots__ = ("_ids", "actor", "target", "kind", "timestamp", "weight")

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.actor = array("q")
        self.target = array("q")
        self.kind = array("b")
        self.timestamp = array("d")
        self.weight = array("d")

    @property
    def labels(self) -> list[str]:
        return list(self._ids)

    def __len__(self):
        return len(self.weight)

    def append(self, actor: str, target: str, kind: str = "other",
               timestamp: float | None = None, weight: float = 1.0):
        """Add one row; ValueError if an endpoint is empty or the weight bad.

        Unknown kinds become ``other``.
        """
        if not actor or not target:
            raise ValueError("missing actor or target")
        _check_weight(weight)
        ids = self._ids
        self.actor.append(ids.setdefault(actor, len(ids)))
        self.target.append(ids.setdefault(target, len(ids)))
        self.kind.append(_KIND_CODES.get(kind.strip().lower(), _KIND_CODES["other"]))
        self.timestamp.append(math.nan if timestamp is None else timestamp)
        self.weight.append(weight)


def _rows(path):
    """Yield (line_number, raw_line) skipping comments and blanks."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, raw


def _split(raw):
    """Fields of one line; a line with a quote is parsed on its own by csv."""
    if '"' in raw:
        return next(csv.reader([raw]))
    return raw.split(",")


def _parse_csv(path, required, optional):
    """Yield (line_number, fields) per data row of a headered CSV.

    ``fields`` lists the stripped values of the required then optional
    columns; a column the header or a short row lacks reads ``''``.
    Raises ParseError with the file line for a missing required column
    or a row with more fields than the header.
    """
    rows = _rows(path)
    try:
        header_line_no, header_raw = next(rows)
    except StopIteration:
        raise EmptyInput(f"{path}: no header row") from None
    header = [h.strip().lower() for h in _split(header_raw)]
    for col in required:
        if col not in header:
            raise ParseError(f"{path}: missing required column {col!r}",
                             line=header_line_no)
    position = {h: i for i, h in enumerate(header)}
    # len(header) is past the end of every row, so an absent column reads ''
    wanted = [position.get(col, len(header)) for col in (*required, *optional)]
    for lineno, raw in rows:
        values = _split(raw)
        if len(values) > len(header):
            raise ParseError(f"{path}: row has {len(values)} fields, header has "
                             f"{len(header)}", line=lineno)
        yield lineno, [values[i].strip() if i < len(values) else "" for i in wanted]


def read_interactions_csv(path) -> Interactions:
    """Read ``actor,target,kind,timestamp,weight`` rows (last three optional)."""
    rows = Interactions()
    for lineno, (actor, target, kind, ts, weight) in _parse_csv(
            path, ("actor", "target"), ("kind", "timestamp", "weight")):
        try:
            rows.append(actor, target, kind,
                        float(ts) if ts else None,
                        float(weight) if weight else 1.0)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from None
    if not len(rows):
        raise EmptyInput(f"{path}: no interaction records")
    return rows


def read_edge_csv(path, direction: str = INFO_FLOW) -> DirectedGraph:
    """Read a pre-built ``src,dst,weight`` edge list (weight optional, default 1)."""
    edges = []
    for lineno, (s, d, w) in _parse_csv(path, ("src", "dst"), ("weight",)):
        if not s or not d:
            raise ParseError(f"{path}: missing src or dst", line=lineno)
        try:
            w = float(w) if w else 1.0
            _check_weight(w)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from None
        edges.append((s, d, w))
    if not edges:
        raise EmptyInput(f"{path}: no edges")
    return from_edges(edges, direction=direction)


def read_scores_csv(path, metric: str | None = None) -> ScoreVector:
    """Read a score CSV back; metric defaults to the ``<metric>.scores.csv`` stem."""
    if metric is None:
        metric = Path(path).name.split(".")[0]
    labels, values, lines = [], [], []
    for lineno, (label, score) in _parse_csv(path, ("node_label", "score"), ()):
        if not label:
            raise ParseError(f"{path}: missing node label", line=lineno)
        try:
            values.append(float(score))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from None
        if not np.isfinite(values[-1]):
            raise ParseError(f"{path}: score {values[-1]} is not finite",
                             line=lineno)
        labels.append(label)
        lines.append(lineno)
    if not labels:
        raise EmptyInput(f"{path}: no scores")
    seen = set()
    for label, lineno in zip(labels, lines):
        if label in seen:
            raise ParseError(f"{path}: duplicate node label {label!r}", line=lineno)
        seen.add(label)
    order = sorted(range(len(labels)), key=lambda i: labels[i])
    return ScoreVector(metric=metric,
                       labels=tuple(labels[i] for i in order),
                       scores=np.array([values[i] for i in order]))


def csv_writer_text(rows):
    """``rows`` as ``csv.writer`` writes them with ``\\n`` line ends."""
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()
