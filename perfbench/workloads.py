"""Seeded workload definitions and input generation for the benchmark.

Each workload names a graph generator from ``netcent.generators``, the
CSV format the program reads, and the ``netcent run`` flags it is timed
with. Inputs are a pure function of (workload, benchmark seed): they are
written once per pair into a cache directory, outside any timing, next
to the ground truth the output checks use (the distinct directed edges
the program should build) and a structural description of the graph.

Run ``python3 perfbench/workloads.py --seed 0`` to print that
description for every workload; ``workloads.json`` keeps its output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

KINDS = np.array(["retweet", "mention", "reply", "share"])
# rows per edge are 1 + Poisson(EXTRA_ROWS); one node in SELF_SHARE also
# interacts with itself, which ingest must count and drop
EXTRA_ROWS = 0.5
SELF_SHARE = 0.01
# structural statistics are measured from this many fixed sources
STAT_SOURCES = 64


@dataclass(frozen=True)
class Workload:
    """One seeded input family plus the ``netcent run`` flags it runs with."""

    name: str
    why: str
    generator: str                 # function name in netcent.generators
    params: dict                   # generator keyword arguments besides seed
    fmt: str                       # "interactions" or "edges"
    run_args: tuple[str, ...]      # flags after --input/--format/--seed/--out
    replicates: int = 1            # distinct input graphs per seed
    extra_checks: tuple[str, ...] = ()
    tiny: dict = field(default_factory=dict)   # overrides for the test variant

    def tiny_variant(self) -> "Workload":
        """The same workload at test size: every check still applies."""
        return replace(self, params=self.tiny.get("params", self.params),
                       run_args=self.tiny.get("run_args", self.run_args),
                       tiny={})


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="social-run",
            why=("the paper's main analysis on a 30k-node social graph: CSV "
                 "ingest and 300-pivot sampled closeness/betweenness do the "
                 "work, simulation does none"),
            generator="preferential_attachment",
            params={"n": 30_000, "m": 10},
            fmt="interactions",
            run_args=("--k", "10"),
            tiny={"params": {"n": 400, "m": 3},
                  "run_args": ("--k", "10", "--closeness-mode", "sampled",
                               "--betweenness-mode", "sampled",
                               "--closeness-samples", "40",
                               "--betweenness-samples", "40")},
        ),
        Workload(
            name="intervention-ic",
            why=("criterion-6 intervention: Monte Carlo cascades (20 "
                 "originators, p=0.2, 1000 trials, 3 strategies) dominate; "
                 "exact traversal on n=1000 does the rest"),
            generator="preferential_attachment",
            params={"n": 1000, "m": 4},
            fmt="interactions",
            run_args=("--k", "10", "--closeness-mode", "exact",
                      "--betweenness-mode", "exact", "--simulate",
                      "--sim-random-seeds", "20", "--ic-p", "0.2",
                      "--ic-trials", "1000"),
            replicates=3,
            extra_checks=("cascade_bounds",),
            tiny={"params": {"n": 120, "m": 3},
                  "run_args": ("--k", "10", "--closeness-mode", "exact",
                               "--betweenness-mode", "exact", "--simulate",
                               "--sim-random-seeds", "5", "--ic-p", "0.2",
                               "--ic-trials", "40")},
        ),
        Workload(
            name="sparse-exact",
            why=("exact metrics on a sparse long-diameter digraph (mean "
                 "out-degree 1.5): many narrow BFS levels, edge-list ingest "
                 "and the reachability model"),
            generator="random_digraph",
            params={"n": 8000, "m": 12_000},
            fmt="edges",
            run_args=("--k", "10", "--closeness-mode", "exact",
                      "--betweenness-mode", "exact", "--simulate",
                      "--sim-model", "reachability", "--sim-random-seeds",
                      "20"),
            extra_checks=("closeness_oracle", "reachability_oracle"),
            tiny={"params": {"n": 300, "m": 450},
                  "run_args": ("--k", "10", "--closeness-mode", "exact",
                               "--betweenness-mode", "exact", "--simulate",
                               "--sim-model", "reachability",
                               "--sim-random-seeds", "5")},
        ),
    )
}


@dataclass
class Input:
    """One generated input file with the truth the checks compare against."""

    csv: Path
    labels: list[str]    # every node the rows mention, sorted
    src: np.ndarray      # distinct directed edges, info-flow orientation,
    dst: np.ndarray      # as indices into labels
    rows: int

    @property
    def n(self) -> int:
        return len(self.labels)


def derive(seed: int, *names) -> int:
    """Stable 63-bit sub-seed, independent of netcent's own seeding code."""
    key = "/".join([str(int(seed))] + [str(x) for x in names]).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(),
                          "little") >> 1


def _generate_graph(wl: Workload, gen_seed: int):
    from netcent import generators
    return getattr(generators, wl.generator)(seed=gen_seed, **wl.params)


def _write_lines(path: Path, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_input(wl: Workload, seed: int, replicate: int, path: Path):
    """Write one CSV; return (labels, src, dst, rows) as the program should
    see them: the nodes the rows mention, in sorted-label order, and the
    distinct non-self edges between them as indices into those labels."""
    g = _generate_graph(wl, derive(seed, wl.name, "graph", replicate))
    src, dst, _ = g.edge_arrays()
    rs, rd = np.asarray(src), np.asarray(dst)
    labels = np.asarray(g.labels)
    rng = np.random.default_rng(derive(seed, wl.name, "rows", replicate))
    if wl.fmt == "edges":
        # canonical edge list, sorted by (src, dst) as `netcent ingest` writes
        _write_lines(path, "src,dst,weight",
                     (f"{s},{d},1" for s, d in zip(labels[rs].tolist(),
                                                   labels[rd].tolist())))
    else:
        reps = 1 + rng.poisson(EXTRA_ROWS, size=rs.size)
        rs, rd = np.repeat(rs, reps), np.repeat(rd, reps)
        selfs = rng.choice(g.n, size=max(1, int(g.n * SELF_SHARE)),
                           replace=False)
        rs, rd = np.concatenate([rs, selfs]), np.concatenate([rd, selfs])
        # interaction logs arrive in time order, not sorted by node
        perm = rng.permutation(rs.size)
        rs, rd = rs[perm], rd[perm]
        kinds = KINDS[rng.integers(0, KINDS.size, size=rs.size)]
        stamps = np.sort(rng.integers(1_600_000_000, 1_700_000_000,
                                      size=rs.size))
        # info-flow orientation: the edge s -> d is an interaction by
        # actor d on content authored by target s
        _write_lines(path, "actor,target,kind,timestamp,weight",
                     (f"{a},{t},{k},{ts},1" for a, t, k, ts in zip(
                         labels[rd].tolist(), labels[rs].tolist(),
                         kinds.tolist(), stamps.tolist())))
    # generator labels are zero-padded ids, so sorted ids are sorted labels
    present, ids = np.unique(np.concatenate([rs, rd]), return_inverse=True)
    s, d = ids[:rs.size], ids[rs.size:]
    keep = s != d
    pairs = np.unique(np.stack([s[keep], d[keep]], axis=1), axis=0)
    return labels[present], pairs[:, 0], pairs[:, 1], int(rs.size)


def csr_bytes(n: int, m: int) -> int:
    """Computed size of the dual CSR: int64 pointers, int64 ids, float64 weights."""
    return 2 * ((n + 1) * 8 + m * (8 + 8))


def structure(n: int, src: np.ndarray, dst: np.ndarray) -> dict:
    """BFS depth and reach over a fixed sample of sources (out-edges)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    adj = csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    sources = np.random.default_rng(0).choice(n, size=min(STAT_SOURCES, n),
                                              replace=False)
    dist = shortest_path(adj, directed=True, unweighted=True, indices=sources)
    finite = np.isfinite(dist)
    depth = np.where(finite, dist, 0).max(axis=1)
    return {"stat_sources": int(sources.size),
            "bfs_depth_mean": float(depth.mean()),
            "bfs_depth_max": int(depth.max()),
            "reach_mean": float(finite.sum(axis=1).mean() / n)}


def prepare(wl: Workload, seed: int, cache: Path) -> tuple[list[Input], dict]:
    """Generate (or reuse) the inputs of one (workload, seed) pair.

    Returns the inputs and a description: generator parameters, n, m,
    row count, BFS depth and reach, and computed CSR bytes per input.
    """
    # the generator parameters are part of the key, so the tiny variant and
    # a changed workload never reuse stale inputs
    spec = json.dumps([wl.generator, wl.params, wl.fmt, wl.replicates],
                      sort_keys=True)
    digest = hashlib.blake2b(spec.encode(), digest_size=4).hexdigest()
    final = cache / f"{wl.name}-{int(seed)}-{digest}"
    if not (final / "description.json").is_file():
        tmp = cache / f".{final.name}.{os.getpid()}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        inputs = []
        for r in range(wl.replicates):
            labels, src, dst, rows = _write_input(wl, seed, r,
                                                  tmp / f"input{r}.csv")
            np.savez(tmp / f"truth{r}.npz", labels=labels, src=src, dst=dst,
                     rows=rows)
            n = labels.size
            inputs.append({"replicate": r, "n": n, "m": int(src.size),
                           "rows": rows, "csr_bytes": csr_bytes(n, src.size),
                           **structure(n, src, dst)})
        desc = {"workload": wl.name, "why": wl.why, "seed": int(seed),
                "generator": {"function": wl.generator, **wl.params,
                              "seed": "derived from (benchmark seed, "
                                      "workload, replicate)"},
                "format": wl.fmt, "run_args": list(wl.run_args),
                "rows_per_edge": f"1 + Poisson({EXTRA_ROWS})"
                                 if wl.fmt == "interactions" else "1",
                "inputs": inputs}
        (tmp / "description.json").write_text(json.dumps(desc, indent=2) + "\n")
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    desc = json.loads((final / "description.json").read_text())
    inputs = []
    for r in range(wl.replicates):
        with np.load(final / f"truth{r}.npz") as t:
            inputs.append(Input(csv=final / f"input{r}.csv",
                                labels=t["labels"].tolist(),
                                src=t["src"], dst=t["dst"],
                                rows=int(t["rows"])))
    return inputs, desc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    out = {name: prepare(wl, args.seed, root / ".perfbench" / "inputs")[1]
           for name, wl in WORKLOADS.items()}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
