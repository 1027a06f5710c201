"""netcent benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload social-run --seed 1 --seconds 25 --trace 0

The seed generates the workload's inputs (see ``workloads.py``); the
program receives only the CSV and ``--seed``. Each repetition runs
``netcent run`` with ``workers=1`` in a fresh Python process and checks
its outputs (see ``checks.py``). Repetitions continue while another
one is predicted to end within ``--seconds``; there is always at least
one. A few extra processes only import ``netcent.cli``, to sample
set-up time.

End-to-end metrics (``--trace 0``), medians over the repetitions:

* ``run_s`` -- wall time of the ``netcent.cli.main`` call, import excluded
* ``setup_s`` -- from spawning the process until ``netcent.cli`` is imported
* ``peak_rss_mb`` -- the process's peak RSS from its own rusage

``error_rate`` (repetitions that exit non-zero or fail a check, over
repetitions attempted) is printed and carried by the ``failed`` and
``attempted`` fields of the result line. With ``--trace 1`` the
repetitions come in pairs on the same input, one untraced and one with
spans around calls into each netcent module (see ``spans.py``), and the
result line carries the per-layer metrics; ``trace.overhead_s`` is the
traced minus the untraced run time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
with every sample and the run's metadata, is written to
``.perfbench/results/``. The benchmark exits 2 without a result when
the netcent sources are not next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 5
REP_TIMEOUT_S = 150.0
# no repetition starts once this much of a run has gone, so the whole
# run ends well inside its 180 s limit
RUN_DEADLINE_S = 100.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Rep:
    """One ``netcent run`` process and what became of it."""

    input_index: int
    traced: bool
    run_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    failures: list = field(default_factory=list)
    report: str | None = None
    spans: list | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # the load is one single-threaded process, as with workers=1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(result: Path, trace: bool, argv: list[str], log: Path
          ) -> tuple[int, dict, float]:
    """Run child.py; returns (exit code, its result, spawn monotonic time).

    The child is always waited for: on timeout it is killed and reaped.
    """
    cmd = [sys.executable, str(HERE / "child.py"), str(result),
           "1" if trace else "0", *argv]
    with open(log, "wb") as fh:
        spawned_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        try:
            rc = proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -9, {}, spawned_ns
    try:
        data = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    return rc, data, spawned_ns


def probe_setup(scratch: Path) -> float:
    """Set-up time of one process that only imports netcent.cli."""
    rc, data, spawned_ns = spawn(scratch / "probe.json", False, [],
                                 scratch / "probe.log")
    if rc != 0 or "imported_ns" not in data:
        raise RuntimeError(f"netcent.cli failed to import: see {scratch / 'probe.log'}")
    return (data["imported_ns"] - spawned_ns) / 1e9


def run_rep(wl, inp, index: int, seed: int, traced: bool, out_dir: Path) -> Rep:
    """One repetition: spawn, time, check; the output directory is removed."""
    rep = Rep(input_index=index, traced=traced)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = ["run", "--input", str(inp.csv), "--format", wl.fmt,
            "--seed", str(seed), "--out", str(out_dir / "out"), *wl.run_args]
    rc, data, spawned_ns = spawn(out_dir / "child.json", traced, argv,
                                 out_dir / "child.log")
    if rc != 0 or data.get("rc") != 0:
        tail = (out_dir / "child.log").read_text(errors="replace")[-400:]
        rep.failures.append(f"exit code {rc}: {tail.strip()}")
        return rep
    rep.run_s = data["run_s"]
    rep.setup_s = (data["imported_ns"] - spawned_ns) / 1e9
    rep.peak_rss_mb = data["peak_rss_mb"]
    rep.spans = data.get("spans")
    rep.failures = checks.check_output(out_dir / "out", inp, wl, seed)
    if not rep.failures:
        rep.report = checks.normalised_report(out_dir / "out")
        shutil.rmtree(out_dir)
    return rep


def run_workload(wl, inputs, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> tuple[list[Rep], list[float]]:
    """Repetitions within the time budget plus set-up probes.

    Untraced repetitions cycle through the inputs. Traced runs come in
    (untraced, traced) pairs on the same input. A report must be
    byte-identical, once its output path is blanked, to every earlier
    report on the same input; a difference fails the later repetition.
    """
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    setup = [probe_setup(scratch) for _ in range(SETUP_PROBES)]
    reps: list[Rep] = []
    reports: dict[int, str] = {}
    started = time.perf_counter()
    step = 0
    while True:
        index = step % len(inputs)
        batch = [False, True] if trace else [False]
        for traced in batch:
            rep = run_rep(wl, inputs[index], index, seed, traced,
                          scratch / f"rep{len(reps)}")
            if rep.report is not None:
                first = reports.setdefault(index, rep.report)
                if rep.report != first:
                    rep.failures.append("report.json differs from an earlier "
                                        "repetition on the same input")
            reps.append(rep)
        step += 1
        elapsed = time.perf_counter() - started
        per_step = elapsed / step
        if elapsed + per_step > min(seconds, RUN_DEADLINE_S):
            break
    if not any(r.failures for r in reps):
        shutil.rmtree(scratch)
    return reps, setup


def error_rate(reps: list[Rep]) -> float:
    """Repetitions that exited non-zero or failed a check, over those run."""
    return sum(1 for r in reps if r.failures) / len(reps)


def end_to_end(reps: list[Rep], setup: list[float]) -> dict:
    ok = [r for r in reps if not r.failures and not r.traced]
    setup = setup + [r.setup_s for r in reps if not r.failures]
    out = {"setup_s": (statistics.median(setup), len(setup))}
    if ok:
        out["run_s"] = (statistics.median(r.run_s for r in ok), len(ok))
        out["peak_rss_mb"] = (statistics.median(r.peak_rss_mb for r in ok),
                              len(ok))
    return out


def per_layer(reps: list[Rep]) -> dict:
    pairs = [(u, t) for u, t in zip(reps[::2], reps[1::2])
             if not u.failures and not t.failures]
    if not pairs:
        return {}
    runs = [spans.layer_metrics(t.spans) for _, t in pairs]
    for run, (u, t) in zip(runs, pairs):
        run["trace.overhead_s"] = t.run_s - u.run_s
    return {name: (statistics.median(r[name] for r in runs), len(runs))
            for name in runs[0]}


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def metadata() -> dict:
    import numpy

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    llc = max(((int(_read(c / "level")), _read(c / "size")) for c in caches
               if _read(c / "level").isdigit()), default=(0, "unknown"))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    nproc = os.cpu_count()
    return {
        "nproc": nproc, "cpu_model": cpu,
        "llc": f"L{llc[0]} {llc[1]}" if llc[0] else "unknown",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_rev": rev or "unknown (not a git checkout)", "workers": 1,
        "notes": [
            "graph.csr_bytes is computed from array sizes, not measured: the "
            "CSR working set of these workloads (about 10 MB at most) is far "
            "below 4x the last-level cache, so no memory-bandwidth figure is "
            "claimed",
            f"measured on a shared machine with {nproc} CPUs; other tenants' "
            "load adds noise",
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "netcent" / "cli.py").is_file():
        print(f"perfbench: netcent sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs, description = workloads.prepare(wl, args.seed, WORK / "inputs")
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    reps, setup = run_workload(wl, inputs, args.seed, args.seconds,
                               bool(args.trace), WORK / "runs" / tag)

    failed = sum(1 for r in reps if r.failures)
    e2e = end_to_end(reps, setup)
    layers = per_layer(reps) if args.trace else {}
    units = spans.UNITS if args.trace else END_TO_END_UNITS
    all_units = {**END_TO_END_UNITS, **spans.UNITS}
    chosen = layers if args.trace else e2e
    complete = all(name in chosen for name in units)

    for name, (value, samples) in {**e2e, **layers}.items():
        print(f"{wl.name} {name} = {value:.6g} {all_units[name]} "
              f"(median of {samples})")
    print(f"{wl.name} error_rate = {error_rate(reps):.6g} ratio "
          f"({failed} of {len(reps)} repetitions)")
    for i, rep in enumerate(reps):
        for failure in rep.failures:
            print(f"{wl.name} rep {i} FAILED: {failure}", file=sys.stderr)

    record = {
        "workload": description, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": metadata(),
        "error_rate": error_rate(reps), "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": all_units[name], "samples": n}
                    for name, (v, n) in {**e2e, **layers}.items()},
        "repetitions": [{"input": r.input_index, "traced": r.traced,
                         "run_s": r.run_s, "setup_s": r.setup_s,
                         "peak_rss_mb": r.peak_rss_mb,
                         "failures": r.failures} for r in reps],
        "setup_probes_s": setup,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": len(reps), "failed": failed,
        "metrics": {name: {"value": chosen[name][0], "unit": unit}
                    for name, unit in units.items() if name in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
