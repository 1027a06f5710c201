"""Directed interaction graph: construction and structural operations.

The graph is immutable after construction and stored in compressed
adjacency form in both orientations, so transposition is O(1) and in-
and out-neighbour queries are array slices. Node ids are dense 0..n-1
assigned in sorted-label order by the constructor itself, whichever
builder called it, which makes construction deterministic regardless of
record order and makes id order the "ascending label" tie order.

Two edge-direction conventions are supported for interaction data:

* ``info_flow``   -- edge author -> resharer (information travels)
* ``endorsement`` -- edge resharer -> author (credit/influence accrues)

The canonical stored direction is whatever the builder was told; metrics
that need the opposite orientation work on :meth:`DirectedGraph.transpose`.
"""

from __future__ import annotations

import logging
import operator
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cells import Cells, LabelTable
from .errors import (DataError, EmptyInput, InvalidNode, InvalidParameter,
                     ParseError)

log = logging.getLogger(__name__)

INFO_FLOW = "info_flow"
ENDORSEMENT = "endorsement"
DIRECTIONS = (INFO_FLOW, ENDORSEMENT)

DEGREE_MODES = ("in", "out", "total")


@dataclass(frozen=True)
class InteractionRecord:
    """One actor->target interaction (retweet, mention, ...) from raw data.

    ``kind`` and ``timestamp`` describe the record but are not stored:
    no metric reads them. ``weight`` defaults to 1 so plain interaction
    counts aggregate into edge weights.
    """

    actor: str
    target: str
    kind: str = "other"
    timestamp: float | None = None
    weight: float = 1.0


class RowError(ValueError):
    """A check over columns failed; ``row`` is the 0-based index of the row."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def first_fault(*faults: RowError | None) -> RowError | None:
    """The fault on the earliest row, the first listed on a tie; None if none."""
    return min(filter(None, faults), key=lambda f: f.row, default=None)


def missing(message: str, *columns: Cells) -> RowError | None:
    """A RowError for the first row where any column's cell is ``''``."""
    rows = [int(np.argmin(col.length)) for col in columns if not col.length.all()]
    return RowError(min(rows), message) if rows else None


def bad_weight(weights: Sequence[float]) -> RowError | None:
    """A RowError for the first weight that is not finite and positive."""
    w = np.asarray(weights, dtype=np.float64)
    bad = np.flatnonzero(~((w > 0) & (w < np.inf)))
    if not bad.size:
        return None
    row = int(bad[0])
    return RowError(row, f"weight must be finite and positive, got {weights[row]}")


class Interactions:
    """Interaction rows held as columns, one entry per row.

    ``actor`` and ``target`` are provisional ids into ``labels`` (first
    appearance order, labels equal exactly when their UTF-8 bytes are).
    ``len()`` is the row count. Rows are checked as they are added, so a
    column set always builds a graph.
    """

    __slots__ = ("_table", "_labels", "actor", "target", "weight")

    def __init__(self):
        self._table = LabelTable()
        self._labels: list[str] = []
        self.actor = array("q")
        self.target = array("q")
        self.weight = array("d")

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    def __len__(self):
        return len(self.weight)

    def extend(self, actor: Cells, target: Cells, weight: Sequence[float]):
        """Add rows given as equal-length columns.

        ``actor`` and ``target`` are :class:`Cells` over one buffer.
        Raises RowError, adding nothing, for the first row with an empty
        endpoint or a weight that is not finite and positive (the
        endpoint first within a row).
        """
        fault = first_fault(missing("missing actor or target", actor, target),
                            bad_weight(weight))
        if fault:
            raise fault
        pairs = actor.interleave(target)
        codes, new = self._table.intern(pairs)
        self._labels += pairs[new].strings()
        self.actor.frombytes(codes[::2].tobytes())
        self.target.frombytes(codes[1::2].tobytes())
        self.weight.frombytes(np.asarray(weight, dtype=np.float64).tobytes())

    @classmethod
    def from_records(cls, records: Iterable[InteractionRecord]) -> "Interactions":
        """Columns from records; a bad record's ParseError line is its 1-based index."""
        records = list(records)
        cols = cls()
        try:
            pairs = Cells.of([label or "" for rec in records
                              for label in (rec.actor, rec.target)])
            cols.extend(pairs[::2], pairs[1::2], [rec.weight for rec in records])
        except RowError as exc:
            raise ParseError(f"record {exc}", line=exc.row + 1) from None
        return cols


def _aggregate_edges(src, dst, w):
    """Sort edge triplets by (src, dst) and sum weights of duplicates."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if src.size == 0:
        return src, dst, w
    # one stable sort of src * (max dst + 1) + dst is lexsort((dst, src))
    order = np.argsort(src * (dst.max() + 1) + dst, kind="stable")
    src, dst, w = src[order], dst[order], w[order]
    new_edge = np.empty(src.size, dtype=bool)
    new_edge[0] = True
    np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=new_edge[1:])
    starts = np.flatnonzero(new_edge)
    with np.errstate(over="ignore"):  # the caller names an overflowed sum
        agg_w = np.add.reduceat(w, starts)
    return src[starts], dst[starts], agg_w


def _csr_from_sorted(src, dst, w, n):
    """CSR pointers for edges already sorted by src; rows keep dst order."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    return ptr, dst.copy(), w.copy()


def check_utf8(labels: Sequence[str]):
    """Raise InvalidParameter for a label that UTF-8 output files cannot hold."""
    try:
        "".join(labels).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidParameter(f"node label holds {exc.object[exc.start]!r}, "
                               "which UTF-8 cannot encode") from None


class DirectedGraph:
    """Immutable weighted digraph with dense ids and dual CSR adjacency.

    ``labels`` may come in any order, with ``src`` and ``dst`` as
    positions in it: the graph keeps the labels sorted and renumbers the
    edges to match, so node i is the i-th smallest label. Labels must be
    unique and encodable as UTF-8. Parallel edges aggregate by summed
    weight, and a sum that overflows raises DataError naming the edge;
    self-loops are dropped with a counted warning.
    """

    __slots__ = (
        "n", "labels", "direction", "self_loops_dropped",
        "out_ptr", "out_dst", "out_w",
        "in_ptr", "in_src", "in_w",
    )

    def __init__(self, labels: Sequence[str], src, dst, weights,
                 direction: str = INFO_FLOW):
        if direction not in DIRECTIONS:
            raise InvalidParameter(f"unknown direction {direction!r}")
        by_label = sorted(range(len(labels)), key=labels.__getitem__)
        self.n = len(labels)
        self.labels = tuple(map(labels.__getitem__, by_label))
        self.direction = direction
        if any(map(operator.eq, self.labels, self.labels[1:])):
            raise InvalidParameter("node labels must be unique")
        check_utf8(self.labels)

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.size and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= self.n):
            raise InvalidNode("edge endpoint outside node range")
        rank = np.empty(self.n, dtype=np.int64)
        rank[by_label] = np.arange(self.n)
        src, dst = rank[src], rank[dst]
        w = np.asarray(weights, dtype=np.float64)
        loops = src == dst
        self.self_loops_dropped = int(np.count_nonzero(loops))
        if self.self_loops_dropped:
            log.warning("dropped %d self-loop edge(s)", self.self_loops_dropped)
            src, dst, w = src[~loops], dst[~loops], w[~loops]
        if not np.all((w > 0) & (w < np.inf)):
            raise InvalidParameter("edge weights must be finite and positive")
        src, dst, w = _aggregate_edges(src, dst, w)
        if np.isinf(w).any():  # finite weights whose sum overflowed
            i = np.argmax(w)
            edge = self.labels[src[i]], self.labels[dst[i]]
            raise DataError(f"edge {edge!r}: its summed weight overflows")

        self.out_ptr, self.out_dst, self.out_w = _csr_from_sorted(src, dst, w, self.n)
        # the (dst, src) keys are distinct, so any sort orders them alike
        order = np.argsort(dst * self.n + src)
        self.in_ptr, self.in_src, self.in_w = _csr_from_sorted(
            dst[order], src[order], w[order], self.n)
        for arr in (self.out_ptr, self.out_dst, self.out_w,
                    self.in_ptr, self.in_src, self.in_w):
            arr.setflags(write=False)

    # -- basic queries -------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.out_dst.size)

    def id_of(self, label: str) -> int:
        try:
            i = bisect_left(self.labels, label)
        except TypeError:  # a label of a type the labels do not compare with
            i = self.n
        if i == self.n or self.labels[i] != label:
            raise InvalidNode(f"unknown node label {label!r}")
        return i

    def _check_node(self, v: int):
        if not 0 <= int(v) < self.n:
            raise InvalidNode(f"node id {v} out of range 0..{self.n - 1}")

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_ptr)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_ptr)

    def degree(self, v: int, mode: str = "total") -> int:
        """Distinct-neighbour degree; weights are ignored."""
        self._check_node(v)
        if mode not in DEGREE_MODES:
            raise InvalidParameter(f"degree mode must be one of {DEGREE_MODES}")
        out_d = int(self.out_ptr[v + 1] - self.out_ptr[v])
        in_d = int(self.in_ptr[v + 1] - self.in_ptr[v])
        if mode == "out":
            return out_d
        if mode == "in":
            return in_d
        return in_d + out_d

    def edge_arrays(self):
        """Edges as (src, dst, weight) arrays sorted by (src, dst)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.out_ptr))
        return src, self.out_dst, self.out_w

    # -- structural operations ------------------------------------------

    def transpose(self) -> "DirectedGraph":
        """Reversed graph sharing this graph's labels and arrays; O(1)."""
        t = object.__new__(DirectedGraph)
        t.n, t.labels = self.n, self.labels
        t.self_loops_dropped = self.self_loops_dropped
        t.direction = ENDORSEMENT if self.direction == INFO_FLOW else INFO_FLOW
        t.out_ptr, t.out_dst, t.out_w = self.in_ptr, self.in_src, self.in_w
        t.in_ptr, t.in_src, t.in_w = self.out_ptr, self.out_dst, self.out_w
        return t

    def remove_nodes(self, victims: Iterable[int]):
        """Drop the victim ids and every incident edge.

        Returns (graph, old_to_new) where old_to_new maps surviving old
        ids to their re-densified ids. Labels are preserved.
        """
        victim_set = set()
        for v in victims:
            self._check_node(v)
            victim_set.add(int(v))
        keep = np.ones(self.n, dtype=bool)
        keep[list(victim_set)] = False
        new_ids = np.cumsum(keep) - 1
        old_to_new = {old: int(new_ids[old]) for old in range(self.n) if keep[old]}

        src, dst, w = self.edge_arrays()
        mask = keep[src] & keep[dst]
        g = DirectedGraph(
            [lab for lab, k in zip(self.labels, keep) if k],
            new_ids[src[mask]], new_ids[dst[mask]], w[mask],
            direction=self.direction,
        )
        g.self_loops_dropped = self.self_loops_dropped
        return g, old_to_new

    def __eq__(self, other):
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (self.labels == other.labels
                and self.direction == other.direction
                and np.array_equal(self.out_ptr, other.out_ptr)
                and np.array_equal(self.out_dst, other.out_dst)
                and np.array_equal(self.out_w, other.out_w))

    def __hash__(self):
        return hash((self.labels, self.direction, self.num_edges))

    def __repr__(self):
        return (f"DirectedGraph(n={self.n}, m={self.num_edges}, "
                f"direction={self.direction!r})")


# -- builders ------------------------------------------------------------

def from_edges(edges, direction: str = INFO_FLOW,
               extra_labels: Iterable[str] = ()) -> DirectedGraph:
    """Build from (src_label, dst_label[, weight]) triples, or from
    checked :class:`Interactions` columns read as actor -> target edges.

    Triples get the checks of interaction rows: an empty label or a
    weight that is not finite and positive raises InvalidParameter.
    Labels mentioned only in ``extra_labels`` become isolated nodes.
    """
    if not isinstance(edges, Interactions):
        triples, edges = list(edges), Interactions()
        try:
            pairs = Cells.of([label for e in triples for label in (e[0], e[1])])
            edges.extend(pairs[::2], pairs[1::2],
                         [float(e[2]) if len(e) > 2 else 1.0 for e in triples])
        except RowError as exc:
            s, d = triples[exc.row][:2]
            raise InvalidParameter(f"edge ({s!r}, {d!r}): {exc}") from None
    labels = [*edges.labels, *extra_labels]
    if len(labels) > len(edges.labels):
        _, first = LabelTable().intern(Cells.of(labels))
        labels = list(map(labels.__getitem__, first.tolist()))
    if not labels:
        raise EmptyInput("no edges and no nodes")
    return DirectedGraph(labels, edges.actor, edges.target, edges.weight, direction)


def build_graph(records: Interactions | Sequence[InteractionRecord],
                convention: str = INFO_FLOW) -> DirectedGraph:
    """Build the canonical graph from interaction columns or records.

    ``info_flow`` orients each row target -> actor (author to
    resharer); ``endorsement`` orients actor -> target. Duplicate pairs
    aggregate into the edge weight; actor == target rows are counted
    and dropped but still contribute the node.
    """
    if convention not in DIRECTIONS:
        raise InvalidParameter(f"unknown direction convention {convention!r}")
    if not isinstance(records, Interactions):
        records = Interactions.from_records(records)
    if not len(records):
        raise EmptyInput("no interaction records")
    src, dst = records.target, records.actor
    if convention == ENDORSEMENT:
        src, dst = dst, src
    return DirectedGraph(records.labels, src, dst, records.weight, convention)
