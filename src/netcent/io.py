"""File formats: interaction CSV, edge-list CSV, score CSV, attributes CSV.

All CSVs are UTF-8 and comma-separated; lines starting with ``#`` are
ignored everywhere. A label list is UTF-8 with one label per line.
Writers go through an atomic temp-file + rename so a failed run never
leaves a truncated file behind.

The headered readers parse a file in blocks of whole lines. A block
with no ``"``, ``#``, blank line or padding around a field takes the
byte path: its UTF-8 text becomes one uint8 array, and its cells stay
spans of it (:class:`~netcent.cells.Cells`). Any other block is split
line by line. A number column whose cells in a block are all ASCII
digits (at most 15, or empty where a default applies) is converted
without ``float()``. Labels are interned by
:class:`~netcent.cells.LabelTable`, so two labels name one node exactly
when their UTF-8 bytes are equal.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np

from .cells import Cells, padded
from .errors import DataError, EmptyInput, ParseError
from .graph import (INFO_FLOW, DirectedGraph, Interactions, RowError, first_fault,
                    from_edges, missing)
from .scores import ScoreVector

INTERACTION_COLUMNS = ("actor", "target", "kind", "timestamp", "weight")
EDGE_COLUMNS = ("src", "dst", "weight")

# characters read per block; a block ends at its last line end. Each
# block of the byte path costs a few dozen numpy calls, so small blocks
# are slow, and large ones raise peak RSS: on a 450k-row file, ingest
# takes 0.94, 0.52 and 0.50 s with 32 KiB, 128 KiB and 1 MiB blocks, and
# a whole run's VmHWM is 86.4, 87.1 and 88.6 MB with 32, 128 and 256 KiB.
BLOCK_CHARS = 1 << 17
# every character str.strip() removes, except the line end blocks split at
_SPACES = ("\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
           + "".join(map(chr, range(0x2000, 0x200b)))
           + "\u2028\u2029\u202f\u205f\u3000")
_UNCLEAN = '"#' + _SPACES
# characters that make csv.writer quote a cell, with "\n" ending its rows
_QUOTED = ',"\n'
_U = np.uint64
_ZEROS = _U(0x3030303030303030)                 # eight "0"
_ZERO_FILL = np.array([0x3030303030303030 >> 8 * c if c < 8 else 0
                       for c in range(9)], dtype=np.uint64)
_SHIFTS = np.array([8 * (8 - c) if c else 0 for c in range(9)], dtype=np.uint64)
_POWERS = np.array([10 ** c for c in range(9)], dtype=np.uint64)


def open_input(path, errors="strict"):
    """``path`` opened to read as UTF-8 text.

    A missing file raises FileNotFoundError; one that cannot be read
    otherwise, such as a directory, raises DataError naming it.
    """
    try:
        return open(path, "r", encoding="utf-8", errors=errors)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _blocks(path):
    r"""Yield (first line number, text) for runs of whole lines of the file.

    Line ends are read as ``\n`` whichever of ``\n``, ``\r\n`` or ``\r``
    the file uses, and each text ends with one. A byte that is not UTF-8
    raises ParseError as its run is yielded, after the runs before it.
    """
    with open_input(path, errors="surrogateescape") as fh:
        lineno, tail = 1, ""
        for chunk in iter(lambda: fh.read(BLOCK_CHARS), ""):
            text = tail + chunk
            cut = text.rfind("\n") + 1
            text, tail = text[:cut], text[cut:]
            if text:
                yield lineno, _utf8(path, lineno, text)
                lineno += text.count("\n")
        if tail:
            yield lineno, _utf8(path, lineno, tail + "\n")


def _utf8(path, lineno, text):
    """``text``, whose first line is file line ``lineno``, if it is all UTF-8.

    Files are decoded with ``surrogateescape``, so a byte that is not
    UTF-8 is a lone surrogate here; it raises ParseError at its line.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(text[exc.start]) - 0xdc00
            raise ParseError(f"{path}: byte 0x{byte:02x} is not valid UTF-8",
                             line=lineno + text.count("\n", 0, exc.start)) from None
    return text


def _data_lines(first, text):
    """(line number, line) for each line of ``text`` that is not blank or a comment."""
    return ((n, raw) for n, raw in enumerate(text.split("\n"), first)
            if (stripped := raw.strip()) and stripped[0] != "#")


def _split(raw):
    """Fields of one line; a line with a quote is parsed on its own by csv."""
    if '"' in raw:
        return next(csv.reader([raw]))
    return raw.split(",")


def _byte_cells(first, text, width, wanted):
    """Rows of a block with no quote, comment, blank line or padding.

    Returns (lines, columns, too_wide): column j holds the ``wanted[j]``
    cell of each row as :class:`Cells` over the block's UTF-8 bytes,
    ``''`` where a short row or the header lacks it; rows stop before
    the first row with more fields than ``width``, which ``too_wide``
    gives as (line, fields).
    """
    data = padded(text.encode())
    body = data[:-8]
    ends = np.flatnonzero((body == 44) | (body == 10))      # "," and "\n"
    last = np.flatnonzero(body[ends] == 10)                 # each row's last field
    fields = np.diff(last, prepend=-1)
    too_wide = None
    wide = np.flatnonzero(fields > width)
    if wide.size:
        row = int(wide[0])
        too_wide = (first + row, int(fields[row]))
        last, fields = last[:row], fields[:row]
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    head = last - fields + 1
    short = fields.size and fields.min() < width
    columns = []
    for j in wanted:
        if j is None:
            none = np.zeros_like(head)
            columns.append(Cells(data, none, none))
        elif not short:
            columns.append(Cells(data, starts[head + j], lengths[head + j]))
        else:
            has = fields > j
            at = np.where(has, head + j, 0)
            columns.append(Cells(data, starts[at], np.where(has, lengths[at], 0)))
    return range(first, first + head.size), columns, too_wide


def _loose_cells(first, text, width, wanted):
    """:func:`_byte_cells` for any block, one line at a time, as strings."""
    lines, cells, too_wide = [], [], None
    for lineno, raw in _data_lines(first, text):
        values = _split(raw)
        if len(values) > width:
            too_wide = (lineno, len(values))
            break
        lines.append(lineno)
        cells += [v.strip() for v in values]
        cells += [""] * (width - len(values))
    return lines, [[""] * len(lines) if j is None else cells[j::width]
                   for j in wanted], too_wide


def _read_csv(path, required, optional):
    """Yield (lines, columns) per block of data rows of a headered CSV.

    ``columns`` holds the stripped cells of the required then optional
    columns, ``''`` where the header or a short row lacks one, as
    :class:`Cells` for a clean block and strings otherwise; ``lines[i]``
    is the file line of row i. Raises EmptyInput without a header, and
    ParseError with the file line for a missing required column or,
    once the rows before it are yielded, for a row with more fields
    than the header.
    """
    blocks = _blocks(path)
    for first, text in blocks:
        head = next(_data_lines(first, text), None)
        if head:
            break
    else:
        raise EmptyInput(f"{path}: no header row")
    header_line, header_raw = head
    header = [h.strip().lower() for h in _split(header_raw)]
    for col in required:
        if col not in header:
            raise ParseError(f"{path}: missing required column {col!r}",
                             line=header_line)
    width = len(header)
    position = {h: i for i, h in enumerate(header)}
    wanted = [position.get(col) for col in (*required, *optional)]
    # the header's block goes on with the lines after the header
    rest = text.split("\n", header_line - first + 1)[-1]
    for first, text in chain([(header_line + 1, rest)], blocks):
        if not text:
            continue
        clean = not any(c in text for c in _UNCLEAN) and "\n\n" not in text \
            and text[0] != "\n"
        lines, columns, too_wide = (_byte_cells if clean else _loose_cells)(
            first, text, width, wanted)
        if lines:
            yield lines, columns
        if too_wide:
            line, fields = too_wide
            raise ParseError(f"{path}: row has {fields} fields, header has "
                             f"{width}", line=line)


def _digits(cells, empty):
    """The values of cells that are each 1 to 15 ASCII digits, or empty
    if ``empty`` is given for them; None if any cell is not."""
    length = cells.length
    longest = int(length.max(initial=0))
    if longest > 15 or (empty is None and not length.all()):
        return None
    value = np.zeros(length.size, dtype=np.uint64)
    for j in range(-(-longest // 8)):
        count = np.minimum(np.maximum(length - 8 * j, 0), 8)
        # the count digits at the low end of the word, after 8 - count zeros
        word = (cells.word(j) << _SHIFTS[count]) | _ZERO_FILL[count]
        if not _all_digits(word):
            return None
        value = value * _POWERS[count] + _eight_digits(word)
    value = value.astype(np.float64)
    if empty is not None:
        value[length == 0] = empty
    return value


def _all_digits(word):
    """Whether every byte of every word is an ASCII digit."""
    high = _U(0xF0F0F0F0F0F0F0F0)
    return bool(np.all((word & high) == _ZEROS)
                and np.all(((word + _U(0x0606060606060606)) & high) == _ZEROS))


def _eight_digits(word):
    """The number eight ASCII digits spell, the first in the low byte."""
    word = word - _ZEROS
    word = word * _U(10) + (word >> _U(8))
    pairs = _U(0x000000FF000000FF)
    return ((word & pairs) * _U(100 + (1000000 << 32))
            + ((word >> _U(16)) & pairs) * _U(1 + (10000 << 32))) >> _U(32)


def _floats(cells, empty=None):
    """(values, fault): the cells as floats, ``empty`` for ``''`` if given.

    At the first cell float() rejects, values stop and fault is a
    RowError with float's message.
    """
    if empty is not None and "" in cells:
        cells = list(map({"": empty}.get, cells, cells))
    try:
        return list(map(float, cells)), None
    except ValueError:
        pass
    for row, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError as exc:
            return list(map(float, cells[:row])), RowError(row, str(exc))


def _numbers(cells, empty=None):
    """:func:`_floats` for strings or :class:`Cells`; digit-only Cells
    skip float()."""
    if isinstance(cells, Cells):
        values = _digits(cells, empty)
        if values is not None:
            return values, None
        cells = cells.strings()
    return _floats(cells, empty)


def _extend(path, lines, rows, fault, *columns):
    """Add the rows before ``fault`` (every row if None), then raise it.

    A fault names its file line; an earlier bad row found by
    :meth:`Interactions.extend` is raised instead.
    """
    if fault:
        columns = [col[:fault.row] for col in columns]
    try:
        rows.extend(*columns)
        if fault:
            raise fault
    except RowError as exc:
        raise ParseError(f"{path}: {exc}", line=lines[exc.row]) from None


def read_interactions_csv(path) -> Interactions:
    """Read ``actor,target,kind,timestamp,weight`` rows (last three optional).

    ``kind`` may hold any text and is not read. Each ``timestamp`` must
    be a number, or empty, but is not kept.
    """
    rows = Interactions()
    for lines, (actor, target, ts, weight) in _read_csv(
            path, ("actor", "target"), ("timestamp", "weight")):
        _, ts_fault = _numbers(ts, 0.0)
        weight, fault = _numbers(weight, 1.0)
        _extend(path, lines, rows, first_fault(ts_fault, fault),
                actor, target, weight)
    if not len(rows):
        raise EmptyInput(f"{path}: no interaction records")
    return rows


def read_edge_csv(path, direction: str = INFO_FLOW) -> DirectedGraph:
    """Read a pre-built ``src,dst,weight`` edge list (weight optional, default 1)."""
    edges = Interactions()
    for lines, (src, dst, weight) in _read_csv(path, ("src", "dst"), ("weight",)):
        weight, fault = _numbers(weight, 1.0)
        _extend(path, lines, edges,
                first_fault(missing("missing src or dst", src, dst), fault),
                src, dst, weight)
    if not len(edges):
        raise EmptyInput(f"{path}: no edges")
    return from_edges(edges, direction=direction)


def write_atomic(path, text: str):
    """Write text via temp file + rename in the destination directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_cells(labels):
    """The labels as csv.writer's default dialect writes them."""
    if not any(c in "".join(labels) for c in _QUOTED):
        return labels
    return ['"' + lab.replace('"', '""') + '"' if any(c in lab for c in _QUOTED)
            else lab for lab in labels]


def write_rows(path, header, labels, values):
    """Write ``header``, then per row its cell of each label column and repr(value).

    Cells are quoted as csv.writer quotes them; every row ends with a newline.
    """
    rows = map(",".join, zip(*map(_csv_cells, labels), map(repr, values)))
    write_atomic(path, "\n".join(chain([",".join(header)], rows)) + "\n")


def write_edge_csv(g: DirectedGraph, path):
    """Export edges sorted by (src, dst) label with full-precision weights."""
    src, dst, w = g.edge_arrays()
    labels = g.labels.__getitem__
    write_rows(path, EDGE_COLUMNS,
               [list(map(labels, src.tolist())), list(map(labels, dst.tolist()))],
               w.tolist())


def write_scores_csv(sv: ScoreVector, path):
    """Export ``node_label,score`` sorted by descending score, ascending label."""
    order = sv.ordering()
    write_rows(path, ("node_label", "score"),
               [list(map(sv.labels.__getitem__, order.tolist()))],
               sv.scores[order].tolist())


def read_scores_csv(path, metric: str | None = None) -> ScoreVector:
    """Read a score CSV back; metric defaults to the ``<metric>.scores.csv`` stem.

    A label given twice raises ParseError at its second line, once every
    row has parsed; a score that is not finite raises it at its line.
    """
    if metric is None:
        metric = Path(path).name.split(".")[0]
    labels, values, rows = [], [], []
    for lines, (label, score) in _read_csv(path, ("node_label", "score"), ()):
        score, fault = _numbers(score)
        bad = np.flatnonzero(~np.isfinite(score))
        if bad.size:
            row = int(bad[0])
            fault = first_fault(fault, RowError(row, f"score {score[row]} "
                                                     "is not finite"))
        fault = first_fault(missing("missing node label", label), fault)
        if fault:
            raise ParseError(f"{path}: {fault}", line=lines[fault.row])
        labels += label.strings() if isinstance(label, Cells) else label
        values += list(score)
        rows += lines
    if not labels:
        raise EmptyInput(f"{path}: no scores")
    if len(set(labels)) != len(labels):
        seen = set()
        row = next(i for i, label in enumerate(labels)
                   if label in seen or seen.add(label))
        raise ParseError(f"{path}: duplicate node label {labels[row]!r}",
                         line=rows[row])
    return ScoreVector(metric=metric, labels=tuple(labels), scores=values)


def read_labels(path) -> list[str]:
    """Labels of a file holding one per line, whitespace stripped and
    blank lines skipped."""
    return [label for _, text in _blocks(path)
            for label in map(str.strip, text.split("\n")) if label]


# the closed range each known attribute column must lie in
ATTRIBUTE_BOUNDS = {"vulnerability_0": (0.0, 1.0),
                    "retweet_count": (0.0, np.inf),
                    "emotion_word_count": (0.0, np.inf)}


def attribute_fault(column: str, value: float) -> str | None:
    """Why ``value`` cannot stand in attribute ``column``, or None if it can."""
    if not np.isfinite(value):
        return "is not finite"
    lo, hi = ATTRIBUTE_BOUNDS.get(column, (-np.inf, np.inf))
    if not lo <= value <= hi:
        return f"is out of range [{lo:g}, {hi:g}]"
    return None


def read_attributes_csv(path) -> dict[str, dict[str, float]]:
    """Read per-node attributes: first column ``node``, one column per attribute.

    Empty cells mean the node lacks that attribute. Returns
    {column -> {node_label -> value}}. A row wider than the header, a
    node given twice, or a cell that float() rejects, reads as nan or
    infinite, or falls outside its column's ``ATTRIBUTE_BOUNDS`` raises
    ParseError at its line.
    """
    rows = (row for first, text in _blocks(path) for row in _data_lines(first, text))
    try:
        header_line_no, header_raw = next(rows)
    except StopIteration:
        raise EmptyInput(f"{path}: no header row") from None
    header = [h.strip() for h in next(csv.reader([header_raw]))]
    if not header or header[0].lower() != "node":
        raise ParseError(f"{path}: first column must be 'node'", line=header_line_no)
    columns: dict[str, dict[str, float]] = {c: {} for c in header[1:]}
    nodes = set()
    for lineno, raw in rows:
        values = next(csv.reader([raw]))
        if len(values) > len(header):
            raise ParseError(f"{path}: row has {len(values)} fields, header has "
                             f"{len(header)}", line=lineno)
        if not values or not values[0].strip():
            raise ParseError(f"{path}: missing node label", line=lineno)
        node = values[0].strip()
        if node in nodes:
            raise ParseError(f"{path}: duplicate node {node!r}", line=lineno)
        nodes.add(node)
        for col, cell in zip(header[1:], values[1:]):
            cell = cell.strip()
            if not cell:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{path}: bad number {cell!r} in column {col!r}",
                                 line=lineno) from None
            fault = attribute_fault(col, value)
            if fault:
                raise ParseError(f"{path}: {cell!r} in column {col!r} {fault}",
                                 line=lineno)
            columns[col][node] = value
    return columns


def write_json(obj, path):
    """Deterministic JSON: sorted keys, 2-space indent, trailing newline."""
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
