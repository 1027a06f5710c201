"""File formats: interaction CSV, edge-list CSV, score CSV, attributes CSV.

All CSVs are UTF-8 and comma-separated; lines starting with ``#`` are
ignored everywhere. Writers go through an atomic temp-file + rename so a
failed run never leaves a truncated file behind.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import tempfile
from itertools import chain, repeat
from pathlib import Path

from .errors import DataError, EmptyInput, ParseError
from .graph import (INFO_FLOW, DirectedGraph, Interactions, RowError, first_fault,
                    from_edges, missing)
from .scores import ScoreVector

INTERACTION_COLUMNS = ("actor", "target", "kind", "timestamp", "weight")
EDGE_COLUMNS = ("src", "dst", "weight")

# characters read per block; a block ends at its last line end. Larger
# blocks parse no faster but leave more freed memory behind: peak RSS of a
# run on a 450k-row file is 94.8 MB with 32 KiB blocks, 99.0 MB with 256 KiB.
BLOCK_CHARS = 1 << 15
# every character str.strip() removes, except the line end blocks split at
_SPACES = ("\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
           + "".join(map(chr, range(0x2000, 0x200b)))
           + "\u2028\u2029\u202f\u205f\u3000")
_UNCLEAN = '"#' + _SPACES
# characters that make csv.writer quote a cell, with "\n" ending its rows
_QUOTED = ',"\n'


def _blocks(path):
    r"""Yield (first line number, text) for runs of whole lines of the file.

    Line ends are read as ``\n`` whichever of ``\n``, ``\r\n`` or ``\r``
    the file uses, and each text ends with one. A byte that is not UTF-8
    raises ParseError as its run is yielded, after the runs before it.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
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


def _clean_cells(first, text, width):
    """Cells of a block with no quote, comment, blank line or padding.

    Returns (lines, cells, too_wide): ``cells`` holds ``width`` cells per
    row, short rows padded with ``''``; rows stop before the first row
    with more fields than ``width``, which ``too_wide`` gives as
    (line, fields).
    """
    lines = text.split("\n")
    lines.pop()
    commas = list(map(str.count, lines, repeat(",")))
    too_wide = None
    if max(commas) >= width:
        row = next(i for i, c in enumerate(commas) if c >= width)
        too_wide = (first + row, commas[row] + 1)
        del lines[row:], commas[row:]
    if lines and min(commas) < width - 1:
        pads = ["," * (width - 1 - c) for c in range(width)]
        lines = list(map(operator.add, lines, map(pads.__getitem__, commas)))
    cells = ",".join(lines).split(",") if lines else []
    return range(first, first + len(lines)), cells, too_wide


def _loose_cells(first, text, width):
    """:func:`_clean_cells` for any block, one line at a time."""
    lines, cells = [], []
    for lineno, raw in _data_lines(first, text):
        values = _split(raw)
        if len(values) > width:
            return lines, cells, (lineno, len(values))
        lines.append(lineno)
        cells += [v.strip() for v in values]
        cells += [""] * (width - len(values))
    return lines, cells, None


def _read_csv(path, required, optional):
    """Yield (lines, columns) per block of data rows of a headered CSV.

    ``columns`` holds the stripped cells of the required then optional
    columns, ``''`` where the header or a short row lacks one, and
    ``lines[i]`` is the file line of row i. Raises EmptyInput without a
    header, and ParseError with the file line for a missing required
    column or, once the rows before it are yielded, for a row with more
    fields than the header.
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
        lines, cells, too_wide = (_clean_cells if clean else _loose_cells)(
            first, text, width)
        if lines:
            yield lines, [[""] * len(lines) if j is None else cells[j::width]
                          for j in wanted]
        if too_wide:
            line, fields = too_wide
            raise ParseError(f"{path}: row has {fields} fields, header has "
                             f"{width}", line=line)


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
        _, ts_fault = _floats(ts, 0.0)
        weight, fault = _floats(weight, 1.0)
        _extend(path, lines, rows, first_fault(ts_fault, fault),
                actor, target, weight)
    if not len(rows):
        raise EmptyInput(f"{path}: no interaction records")
    return rows


def read_edge_csv(path, direction: str = INFO_FLOW) -> DirectedGraph:
    """Read a pre-built ``src,dst,weight`` edge list (weight optional, default 1)."""
    edges = Interactions()
    for lines, (src, dst, weight) in _read_csv(path, ("src", "dst"), ("weight",)):
        weight, fault = _floats(weight, 1.0)
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
    """Read a score CSV back; metric defaults to the ``<metric>.scores.csv`` stem."""
    if metric is None:
        metric = Path(path).name.split(".")[0]
    labels, values = [], []
    for lines, (label, score) in _read_csv(path, ("node_label", "score"), ()):
        score, fault = _floats(score)
        fault = first_fault(missing("missing node label", label), fault)
        if fault:
            raise ParseError(f"{path}: {fault}", line=lines[fault.row])
        labels += label
        values += score
    if not labels:
        raise EmptyInput(f"{path}: no scores")
    if len(set(labels)) != len(labels):
        raise DataError(f"{path}: duplicate node labels")
    return ScoreVector(metric=metric, labels=tuple(labels), scores=values)


def read_attributes_csv(path) -> dict[str, dict[str, float]]:
    """Read per-node attributes: first column ``node``, one column per attribute.

    Empty cells mean the node lacks that attribute. Returns
    {column -> {node_label -> value}}.
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
    for lineno, raw in rows:
        values = next(csv.reader([raw]))
        if not values or not values[0].strip():
            raise ParseError(f"{path}: missing node label", line=lineno)
        node = values[0].strip()
        for col, cell in zip(header[1:], values[1:]):
            cell = cell.strip()
            if not cell:
                continue
            try:
                columns[col][node] = float(cell)
            except ValueError:
                raise ParseError(f"{path}: bad number {cell!r} in column {col!r}",
                                 line=lineno) from None
    return columns


def write_json(obj, path):
    """Deterministic JSON: sorted keys, 2-space indent, trailing newline."""
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
