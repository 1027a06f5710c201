"""Bit-parallel breadth-first traversal shared by closeness and spreads.

A lane runs up to 64 traversals at once: every node holds one ``uint64``
word whose bit j says traversal j has reached it (Then et al., "The More
the Merrier: Efficient Multi-Source Graph Traversal", VLDB 2015). Each
level either pulls, OR-ing the frontier words of every node's
in-neighbours over all m in-edges, or pushes over the frontier's own
out-edges when those number fewer than ``PUSH_FRACTION * m`` (Beamer,
Asanovic & Patterson, "Direction-Optimizing Breadth-First Search",
SC 2012). Both steps reach the same words, so the choice moves only the
cost: a level costs O(m) pulled and O(f log f) pushed over f frontier
out-edges, which keeps long narrow traversals off O(m x depth).

An optional ``live`` word per edge removes edge e from traversal j where
its bit j is clear; e indexes the in-adjacency (edges sorted by
destination, then source) whichever way a level runs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .graph import DirectedGraph

LANE = 64
# push a level when its frontier's out-edges are fewer than this share of m
PUSH_FRACTION = 1 / 16

# _BITS8[v, i] is bit i of the byte value v (float for bit_counts' matmul)
_BITS8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                       bitorder="little").astype(np.float64)
_POPCOUNT8 = _BITS8.sum(axis=1).astype(np.int64)
_BYTE_BINS = 256 * np.arange(8)


def out_edges(out_ptr: np.ndarray, nodes: np.ndarray,
              fanout: np.ndarray) -> np.ndarray:
    """Out-adjacency indices of the edges leaving ``nodes``, node by node.

    ``fanout`` is the nodes' out-degrees; each node's edges keep their
    CSR order, so the result ascends when ``nodes`` does.
    """
    edges = np.repeat(out_ptr[nodes] - np.cumsum(fanout) + fanout, fanout)
    edges += np.arange(edges.size)
    return edges


def unit_words(width: int) -> np.ndarray:
    """Start words of a lane's ``width`` single-node traversals: bit j for j."""
    return np.uint64(1) << np.arange(width, dtype=np.uint64)


def popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits of each word."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return _POPCOUNT8[octets].reshape(-1, 8).sum(axis=1)


def bit_counts(words: np.ndarray) -> np.ndarray:
    """For each of the 64 bit positions, the number of words with it set."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    # how often each byte position holds each value, times that value's bits
    hist = np.bincount((octets.reshape(-1, 8) + _BYTE_BINS).ravel(),
                       minlength=8 * 256).reshape(8, 256)
    return (hist @ _BITS8).astype(np.int64).ravel()


class Sweep:
    """A graph's adjacency laid out for 64-wide traversals along its edges."""

    def __init__(self, g: DirectedGraph):
        in_degree = np.diff(g.in_ptr)
        self.n = g.n
        self.m = g.num_edges
        self.src = g.in_src
        self.dst = np.repeat(np.arange(g.n), in_degree)
        self.w = g.in_w
        self.targets = np.flatnonzero(in_degree)
        self.heads = g.in_ptr[self.targets]
        self.out_ptr = g.out_ptr
        self.out_degree = np.diff(g.out_ptr)
        self.out_dst = g.out_dst

    @cached_property
    def out_to_in(self) -> np.ndarray:
        """In-adjacency index of each out-edge, so pushes read ``live`` too."""
        out_to_in = np.empty(self.m, dtype=np.int64)
        out_to_in[np.argsort(self.out_dst, kind="stable")] = np.arange(self.m)
        return out_to_in

    def levels(self, nodes: np.ndarray, words: np.ndarray,
               live: np.ndarray | None = None,
               active: np.ndarray | None = None):
        """Yield (nodes, words) newly reached at hop 1, 2, ...

        Distinct ``nodes`` start with ``words``; a yielded word holds the
        bits of the traversals that first reach its node at that hop, and
        no node repeats within a hop. ``active``, a zeroed array of n
        words if given, ends up holding every word reached, start
        words included.
        """
        if active is None:
            active = np.zeros(self.n, dtype=np.uint64)
        active[nodes] = words
        while nodes.size and self.m:
            fanout = self.out_degree[nodes]
            if int(fanout.sum()) < PUSH_FRACTION * self.m:
                nodes, words = self._push(nodes, words, fanout, live, active)
            else:
                nodes, words = self._pull(nodes, words, live, active)
            if not nodes.size:
                return
            yield nodes, words

    def _pull(self, nodes, words, live, active):
        frontier = np.zeros(self.n, dtype=np.uint64)
        frontier[nodes] = words
        carried = frontier[self.src]
        if live is not None:
            carried &= live
        reached = np.bitwise_or.reduceat(carried, self.heads)
        seen = active[self.targets]
        reached &= ~seen
        seen |= reached
        active[self.targets] = seen
        hit = reached.nonzero()[0]
        return self.targets[hit], reached[hit]

    def _push(self, nodes, words, fanout, live, active):
        edges = out_edges(self.out_ptr, nodes, fanout)
        dst = self.out_dst[edges]
        carried = np.repeat(words, fanout)
        if live is not None:
            carried &= live[self.out_to_in[edges]]
        carried &= ~active[dst]
        hit = carried.nonzero()[0]
        order = hit[np.argsort(dst[hit])]
        dst, carried = dst[order], carried[order]
        if not dst.size:
            return dst, carried
        first = np.empty(dst.size, dtype=bool)
        first[0] = True
        np.not_equal(dst[1:], dst[:-1], out=first[1:])
        first = first.nonzero()[0]
        nodes, words = dst[first], np.bitwise_or.reduceat(carried, first)
        active[nodes] |= words
        return nodes, words
