"""File formats: interaction CSV, edge-list CSV, score CSV, attributes CSV.

All CSVs are UTF-8 and comma-separated; lines starting with ``#`` are
ignored everywhere. Writers go through an atomic temp-file + rename so a
failed run never leaves a truncated file behind.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from pathlib import Path
import numpy as np

from .errors import DataError, EmptyInput, ParseError
from .graph import INFO_FLOW, DirectedGraph, Interactions, _check_weight, from_edges
from .scores import ScoreVector

INTERACTION_COLUMNS = ("actor", "target", "kind", "timestamp", "weight")
EDGE_COLUMNS = ("src", "dst", "weight")


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


def write_edge_csv(g: DirectedGraph, path):
    """Export edges sorted by (src, dst) with full-precision weights."""
    src, dst, w = g.edge_arrays()
    rows = sorted(
        (g.labels[s], g.labels[d], wt) for s, d, wt in zip(src, dst, w)
    )
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EDGE_COLUMNS)
    for s, d, wt in rows:
        writer.writerow([s, d, repr(float(wt))])
    write_atomic(path, buf.getvalue())


def write_scores_csv(sv: ScoreVector, path):
    """Export ``node_label,score`` sorted by descending score, ascending label."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node_label", "score"])
    for i in sv.ordering():
        writer.writerow([sv.labels[i], repr(float(sv.scores[i]))])
    write_atomic(path, buf.getvalue())


def read_scores_csv(path, metric: str | None = None) -> ScoreVector:
    """Read a score CSV back; metric defaults to the ``<metric>.scores.csv`` stem."""
    if metric is None:
        metric = Path(path).name.split(".")[0]
    labels, values = [], []
    for lineno, (label, score) in _parse_csv(path, ("node_label", "score"), ()):
        if not label:
            raise ParseError(f"{path}: missing node label", line=lineno)
        try:
            values.append(float(score))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from None
        labels.append(label)
    if not labels:
        raise EmptyInput(f"{path}: no scores")
    if len(set(labels)) != len(labels):
        raise DataError(f"{path}: duplicate node labels")
    order = sorted(range(len(labels)), key=lambda i: labels[i])
    return ScoreVector(metric=metric,
                       labels=tuple(labels[i] for i in order),
                       scores=np.array([values[i] for i in order]))


def read_attributes_csv(path) -> dict[str, dict[str, float]]:
    """Read per-node attributes: first column ``node``, one column per attribute.

    Empty cells mean the node lacks that attribute. Returns
    {column -> {node_label -> value}}.
    """
    rows = _rows(path)
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
