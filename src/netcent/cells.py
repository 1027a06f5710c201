"""Text cells as spans of UTF-8 bytes, and the label interner.

A :class:`Cells` column keeps its cells as spans of one byte buffer, so
ingest can hand a CSV block's label columns to :class:`LabelTable`
without making a Python string per cell. The table numbers labels in
first-appearance order with sorts and array compares, not a dict:

* each label's length and bytes, packed into uint64 words, hash to one
  uint64;
* a batch's hashes are grouped by one ``np.unique``, and the groups are
  looked up with ``searchsorted`` in a sorted table of the labels seen
  so far;
* every occurrence is compared word for word with one occurrence of its
  group, and every group found in the table with the label stored
  there. A mismatch is a hash collision, and the batch is grouped by
  exact bytes instead.

So two labels get one id exactly when their UTF-8 bytes are equal.
"""

from __future__ import annotations

import numpy as np

# MASKS[r] keeps the low r bytes of a word
MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
_U = np.uint64


class Cells:
    """A column of text cells, cell i being ``data[start[i]:start[i] + length[i]]``.

    ``data`` is a uint8 array with at least 8 bytes after the last span,
    so every cell reads as whole little-endian words (:meth:`word`).
    """

    __slots__ = ("data", "start", "length")

    def __init__(self, data: np.ndarray, start: np.ndarray, length: np.ndarray):
        self.data = data
        self.start = start
        self.length = length

    @classmethod
    def of(cls, strings) -> "Cells":
        """The strings' UTF-8 bytes; a lone surrogate keeps the 3 bytes
        ``surrogatepass`` gives it, so distinct strings stay distinct."""
        joined = "".join(strings)
        if joined.isascii():
            raw = joined.encode()
            length = np.fromiter(map(len, strings), np.int64, len(strings))
        else:
            parts = [s.encode("utf-8", "surrogatepass") for s in strings]
            raw = b"".join(parts)
            length = np.fromiter(map(len, parts), np.int64, len(parts))
        start = np.zeros(length.size, dtype=np.int64)
        np.cumsum(length[:-1], out=start[1:])
        return cls(padded(raw), start, length)

    def __len__(self):
        return self.start.size

    def __getitem__(self, rows) -> "Cells":
        return Cells(self.data, self.start[rows], self.length[rows])

    def word(self, j: int) -> np.ndarray:
        """Bytes ``8j`` to ``8j + 7`` of each cell as a little-endian
        uint64, zero past the cell's end."""
        # the word starting at each byte of the buffer
        words = np.ndarray((self.data.size - 7,), "<u8", self.data, strides=(1,))
        if not j:
            return words[self.start] & MASKS[np.minimum(self.length, 8)]
        # a cell no longer than 8j reads some other word, which the mask clears
        at = np.minimum(self.start + 8 * j, self.data.size - 8)
        return words[at] & MASKS[np.minimum(np.maximum(self.length - 8 * j, 0), 8)]

    def strings(self) -> list[str]:
        """The cells decoded, as :meth:`of` encoded them."""
        raw = self.data.tobytes()
        return [raw[s:s + n].decode("utf-8", "surrogatepass")
                for s, n in zip(self.start.tolist(), self.length.tolist())]

    def interleave(self, other: "Cells") -> "Cells":
        """self[0], other[0], self[1], ...; ``other`` shares this buffer."""
        start = np.empty(2 * len(self), dtype=np.int64)
        length = np.empty_like(start)
        start[::2], start[1::2] = self.start, other.start
        length[::2], length[1::2] = self.length, other.length
        return Cells(self.data, start, length)

    def bytes(self) -> tuple[np.ndarray, np.ndarray]:
        """(the cells' bytes end to end, each cell's offset into them)."""
        offset = np.zeros(len(self), dtype=np.int64)
        np.cumsum(self.length[:-1], out=offset[1:])
        at = np.arange(int(self.length.sum()), dtype=np.int64)
        at += np.repeat(self.start - offset, self.length)
        return self.data[at], offset


def padded(raw) -> np.ndarray:
    """``raw`` as a uint8 array followed by 8 zero bytes."""
    data = np.zeros(len(raw) + 8, dtype=np.uint8)
    data[:len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return data


def cell_words(cells: Cells) -> list:
    """(j, rows, words) for j = 0, 1, ...: the cells longer than 8j, as
    ``slice(None)`` if that is every cell, and their j-th words."""
    out = [(0, slice(None), cells.word(0))]
    while (rows := np.flatnonzero(cells.length > 8 * len(out))).size:
        if rows.size == len(cells):
            rows = slice(None)
        out.append((len(out), rows, cells[rows].word(len(out))))
    return out


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, in place."""
    x ^= x >> _U(30)
    x *= _U(0xBF58476D1CE4E5B9)
    x ^= x >> _U(27)
    x *= _U(0x94D049BB133111EB)
    x ^= x >> _U(31)
    return x


def label_hash(length: np.ndarray, words: list) -> np.ndarray:
    """One uint64 per cell from its length and words (:func:`cell_words`)."""
    h = _mix(length.astype(np.uint64))
    for _, rows, word in words:
        h[rows] = _mix(h[rows] ^ word)
    return h


def same(length: np.ndarray, words: list, at: np.ndarray,
         other: Cells | None = None) -> bool:
    """Whether cell ``at[i]`` holds the bytes of cell i of ``other``, for every i.

    ``length`` and ``words`` (:func:`cell_words`) describe the cells
    ``at`` indexes; ``other`` defaults to those same cells.
    """
    if not np.array_equal(length[at], length if other is None else other.length):
        return False
    for j, rows, word in words:
        if other is None:
            longer = rows
        else:
            longer = np.flatnonzero(other.length > 8 * j) if j else slice(None)
        mine = at[longer]
        if not isinstance(rows, slice):
            slot = np.zeros(length.size, dtype=np.int64)
            slot[rows] = np.arange(rows.size)
            mine = slot[mine]
        theirs = word if other is None else other[longer].word(j)
        if not np.array_equal(word[mine], theirs):
            return False
    return True


def _exact_ranks(cells: Cells) -> np.ndarray:
    """Ranks of the cells in (length, bytes) order, equal for equal bytes."""
    rank = cells.length
    for j in range(-(-int(rank.max(initial=0)) // 8)):
        word = cells.word(j)
        order = np.lexsort((word, rank))
        rank, word = rank[order], word[order]
        step = np.ones(rank.size, dtype=np.int64)
        step[1:] = (rank[1:] != rank[:-1]) | (word[1:] != word[:-1])
        rank = np.empty_like(step)
        rank[order] = np.cumsum(step)
    return rank


class LabelTable:
    """Distinct labels numbered 0, 1, ... in first-appearance order.

    ``known`` holds label i's bytes as cell i of a growing buffer;
    ``keys`` is their hashes, sorted, with ``key_ids`` the label each
    belongs to. Memory is O(distinct labels).
    """

    __slots__ = ("keys", "key_ids", "known", "_used")

    def __init__(self):
        self.keys = np.empty(0, dtype=np.uint64)
        self.key_ids = np.empty(0, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self.known = Cells(np.zeros(64, dtype=np.uint8), empty, empty)
        self._used = 0

    def __len__(self):
        return len(self.known)

    def intern(self, cells: Cells) -> tuple[np.ndarray, np.ndarray]:
        """(each cell's id, the cells that introduced new labels, by id).

        Labels new to the table take the next ids in the order they
        first occur among ``cells``.
        """
        inverse, ids = (self._hashed_groups(cells, cell_words(cells))
                        or self._exact_groups(cells))
        fresh = np.flatnonzero(ids[inverse] < 0)
        _, at = np.unique(inverse[fresh], return_index=True)
        first = fresh[np.sort(at)]
        ids[inverse[first]] = np.arange(len(self), len(self) + first.size)
        self._add(cells[first])
        return ids[inverse], first

    def _hashed_groups(self, cells, words):
        """(inverse, ids): cell i is in group ``inverse[i]``, and group g
        is known label ``ids[g]``, or new if -1. None if the hash gives
        two distinct labels one key."""
        keys, inverse = np.unique(label_hash(cells.length, words),
                                  return_inverse=True)
        # numpy 2.0.0 shapes the inverse like the input; keep it flat
        inverse = inverse.reshape(-1)
        rep = np.empty(keys.size, dtype=np.int64)
        rep[inverse] = np.arange(inverse.size)      # some cell of each group
        if not same(cells.length, words, rep[inverse]):
            return None
        ids = np.full(keys.size, -1, dtype=np.int64)
        if self.keys.size:
            at = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
            hit = np.flatnonzero(self.keys[at] == keys)
            ids[hit] = self.key_ids[at[hit]]
            if not same(cells.length, words, rep[hit], self.known[ids[hit]]):
                return None
        return inverse, ids

    def _exact_groups(self, cells):
        """:meth:`_hashed_groups` by exact bytes, for when the hash collides."""
        rank = _exact_ranks(_joined(self.known, cells))
        ranks, inverse = np.unique(rank[len(self):], return_inverse=True)
        id_of_rank = np.full(rank.size + 1, -1, dtype=np.int64)
        id_of_rank[rank[:len(self)]] = np.arange(len(self))
        return inverse.reshape(-1), id_of_rank[ranks]

    def _add(self, new: Cells):
        """Store the new labels' bytes and keys."""
        if not len(new):
            return
        raw, offset = new.bytes()
        data = self.known.data
        if self._used + raw.size + 8 > data.size:
            data = np.zeros(2 * (self._used + raw.size + 8), dtype=np.uint8)
            data[:self._used] = self.known.data[:self._used]
        data[self._used:self._used + raw.size] = raw
        self.known = Cells(data, np.concatenate([self.known.start,
                                                 offset + self._used]),
                           np.concatenate([self.known.length, new.length]))
        self._used += raw.size
        keys = label_hash(new.length, cell_words(new))
        order = np.argsort(keys, kind="stable")
        at = np.searchsorted(self.keys, keys[order])
        first_new = len(self) - len(new)
        self.keys = np.insert(self.keys, at, keys[order])
        self.key_ids = np.insert(self.key_ids, at, first_new + order)


def _joined(a: Cells, b: Cells) -> Cells:
    """The cells of ``a`` then of ``b``, over one buffer."""
    return Cells(np.concatenate([a.data, b.data]),
                 np.concatenate([a.start, b.start + a.data.size]),
                 np.concatenate([a.length, b.length]))
