"""Output checks that hold for any correct ``netcent run``.

No golden digests: tie bits of closeness and cascade draws may change
legitimately. Each check compares the outputs with invariants of the
metric or with the benchmark's own computation on the edges it
generated. Every function returns a list of failure messages.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import Input, Workload

METRICS = ("degree_total", "closeness", "betweenness", "eigenvector", "pc",
           "mvc", "dic")
CLOSENESS_SAMPLE = 32
REL_TOL = 1e-9


def normalised_report(out_dir: Path) -> str:
    """report.json with the output directory blanked, for rerun comparison."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    report["config"]["out"] = ""
    return json.dumps(report, indent=2, sort_keys=True)


def read_scores(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["node_label", "score"]:
        raise ValueError(f"{path.name}: bad header")
    labels = [r[0] for r in rows[1:]]
    return labels, np.array([float(r[1]) for r in rows[1:]])


def _check_scores(metric, labels, scores, inp: Input, index) -> list[str]:
    if len(labels) != inp.n or len(set(labels)) != inp.n \
            or not all(lab in index for lab in labels):
        return [f"{metric}: expected one row per node ({inp.n}), "
                f"got {len(labels)} rows"]
    fails = []
    if not np.all(np.isfinite(scores)):
        fails.append(f"{metric}: non-finite score")
    lab = np.array(labels)
    ordered = (scores[:-1] > scores[1:]) | (
        (scores[:-1] == scores[1:]) & (lab[:-1] < lab[1:]))
    if not ordered.all():
        row = int(np.flatnonzero(~ordered)[0]) + 2
        fails.append(f"{metric}: rows {row}-{row + 1} break the "
                     "descending-score, ascending-label order")
    return fails


def _reachable(n, src, dst, sources, removed=()) -> int:
    """Nodes reachable from the sources along out-edges, sources included."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    keep = np.ones(n, dtype=bool)
    keep[list(removed)] = False
    sources = [s for s in sources if keep[s]]
    if not sources:
        return 0
    live = keep[src] & keep[dst]
    # a super-source at id n turns the multi-source search into one BFS
    s = np.concatenate([src[live], np.full(len(sources), n)])
    d = np.concatenate([dst[live], sources])
    adj = csr_matrix((np.ones(s.size), (s, d)), shape=(n + 1, n + 1))
    return breadth_first_order(adj, n, directed=True,
                               return_predecessors=False).size - 1


def _closeness_oracle(labels, scores, inp: Input, seed: int) -> list[str]:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    adj = csr_matrix((np.ones(inp.src.size), (inp.src, inp.dst)),
                     shape=(inp.n, inp.n))
    nodes = np.random.default_rng(seed).choice(
        inp.n, size=min(CLOSENESS_SAMPLE, inp.n), replace=False)
    dist = shortest_path(adj, directed=True, unweighted=True, indices=nodes)
    with np.errstate(divide="ignore"):
        expected = np.where(np.isfinite(dist) & (dist > 0), 1.0 / dist,
                            0.0).sum(axis=1)
    got = dict(zip(labels, scores))
    all_labels = inp.labels
    fails = []
    for v, want in zip(nodes, expected):
        have = got[all_labels[v]]
        if not math.isclose(have, want, rel_tol=REL_TOL, abs_tol=1e-12):
            fails.append(f"closeness of {all_labels[v]}: {have!r}, "
                         f"BFS gives {want!r}")
    return fails


def _interventions(report, inp: Input, wl: Workload) -> list[str]:
    entries = report.get("interventions") or []
    if not entries:
        return ["report has no interventions"]
    index = {lab: i for i, lab in enumerate(inp.labels)}
    fails = []
    for e in entries:
        seeds = [index[s] for s in e["model"]["seeds"]]
        base, treated = e["baseline_volume"], e["treated_volume"]
        if "cascade_bounds" in wl.extra_checks \
                and not len(seeds) <= base <= inp.n:
            fails.append(f"{e['strategy']}: baseline {base} outside "
                         f"[{len(seeds)}, {inp.n}]")
        if "reachability_oracle" in wl.extra_checks:
            removed = [index[s] for s in e["removed"]]
            want_base = _reachable(inp.n, inp.src, inp.dst, seeds)
            want_treated = _reachable(inp.n, inp.src, inp.dst, seeds, removed)
            if base != want_base or treated != want_treated:
                fails.append(f"{e['strategy']}: reachability {base}/{treated}, "
                             f"BFS gives {want_base}/{want_treated}")
            if treated > base:
                fails.append(f"{e['strategy']}: treated {treated} > "
                             f"baseline {base}")
    return fails


def check_output(out_dir: Path, inp: Input, wl: Workload, seed: int) -> list[str]:
    """Every check of one run's output directory against its input."""
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        scores = {m: read_scores(out_dir / f"{m}.scores.csv") for m in METRICS}
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    index = {lab: i for i, lab in enumerate(inp.labels)}
    fails = []
    for metric, (labels, values) in scores.items():
        fails += _check_scores(metric, labels, values, inp, index)
    if fails:
        return fails

    def by_id(metric):
        labels, values = scores[metric]
        out = np.empty(inp.n)
        out[[index[lab] for lab in labels]] = values
        return out

    degree = (np.bincount(inp.src, minlength=inp.n)
              + np.bincount(inp.dst, minlength=inp.n))
    if not np.array_equal(by_id("degree_total"), degree):
        fails.append("degree_total differs from the generated edges' degrees")
    pc_sum = math.fsum(scores["pc"][1])
    if abs(pc_sum - 1.0) > 1e-9:
        fails.append(f"pc sums to {pc_sum!r}, not 1")
    for metric in ("mvc", "dic"):
        values = scores[metric][1]
        if values.min() < 0.0 or values.max() > 1.0 \
                or abs(values.max() - 1.0) > 1e-12:
            fails.append(f"{metric}: range [{values.min()!r}, {values.max()!r}]"
                         ", expected within [0, 1] with maximum 1")
    if "closeness_oracle" in wl.extra_checks:
        fails += _closeness_oracle(*scores["closeness"], inp, seed)
    if {"cascade_bounds", "reachability_oracle"} & set(wl.extra_checks):
        fails += _interventions(report, inp, wl)
    return fails
