"""One fresh process of the benchmark: import netcent, run it, report.

Usage: ``python3 child.py RESULT.json TRACE [netcent arguments...]``,
with ``src`` on PYTHONPATH. With no netcent arguments the process only
imports ``netcent.cli`` (a set-up probe). The result file holds the
monotonic time at which the import finished, the wall time of the
``netcent.cli.main`` call, the exit code, this process's peak RSS from
its own rusage and, when TRACE is 1, the spans of the run.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import netcent.cli
    imported_ns = time.monotonic_ns()
    out = {"imported_ns": imported_ns}
    if argv:
        tracer = None
        if trace:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        start = time.perf_counter_ns()
        rc = netcent.cli.main(argv)
        out["run_s"] = (time.perf_counter_ns() - start) / 1e9
        out["rc"] = rc
        if tracer is not None:
            out["spans"] = spans.export(tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return out.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
