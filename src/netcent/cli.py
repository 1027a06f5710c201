"""Command-line frontend.

Subcommands mirror the pipeline stages so each is usable standalone on
intermediate files: ``ingest``, ``compute``, ``compare``, ``correlate``,
``simulate``, ``run`` (full pipeline), and ``emit-plots``. Exit codes:
0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as _io
from . import __version__
from .errors import NetcentError, UsageError, exit_code_for
from .graph import build_graph
from .novel import NodeAttributes
from .pipeline import (DEFAULT_METRICS, RunConfig, cascade_config,
                       compute_metric, emit_plot_data, load_config_file,
                       load_graph, removal_for, run_pipeline)
from .ranking import overlap_report, rank_correlation, top_k
from .scores import TRADITIONAL_METRICS
from .simulate import MODELS, STRATEGIES, intervention_experiment


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract wants 1
    def error(self, message):
        raise UsageError(message)


def _csv_list(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _add_input_args(p):
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--format", choices=("interactions", "edges"),
                   default="interactions")
    p.add_argument("--direction", choices=("info-flow", "endorsement"),
                   default="info-flow")


def _direction(flag: str) -> str:
    return flag.replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netcent", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="interactions CSV -> canonical edge-list CSV")
    _add_input_args(p)
    p.add_argument("--out", required=True, help="edge-list CSV to write")

    p = sub.add_parser("compute", help="compute metrics, write score CSVs")
    _add_input_args(p)
    p.add_argument("--metrics", type=_csv_list, default=DEFAULT_METRICS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--attributes", help="node attributes CSV (for mvc attribute init)")
    p.add_argument("--out", required=True, help="output directory")
    _add_metric_overrides(p)

    p = sub.add_parser("compare", help="score CSVs -> overlap report JSON")
    p.add_argument("--scores", nargs="+", required=True,
                   help="per-metric <metric>.scores.csv files")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--traditional", type=_csv_list, default=None,
                   help="metric ids forming the baseline union "
                        "(default: the traditional family)")
    p.add_argument("--out", help="overlap JSON path (default stdout)")

    p = sub.add_parser("correlate", help="scores + attributes -> Spearman rho")
    p.add_argument("--scores", required=True, help="one <metric>.scores.csv")
    p.add_argument("--attributes", required=True)
    p.add_argument("--proxy", required=True, help="attribute column name")
    p.add_argument("--out", help="result JSON path (default stdout)")

    p = sub.add_parser("simulate", help="node-removal intervention experiment")
    _add_input_args(p)
    p.add_argument("--seeds", type=_csv_list, default=(),
                   help="misinformation originator labels")
    p.add_argument("--random-seeds", type=int, default=0,
                   help="draw this many originators at random instead")
    p.add_argument("--model", choices=MODELS, default="independent_cascade")
    p.add_argument("--ic-p", type=float, default=0.1)
    p.add_argument("--ic-trials", type=int, default=1000)
    p.add_argument("--ic-weight-scaled", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--remove", type=_csv_list, default=(),
                   help="explicit node labels to remove")
    p.add_argument("--removal-file", help="file with one label per line")
    p.add_argument("--strategy", choices=STRATEGIES,
                   help="derive the removal set from score CSVs instead")
    p.add_argument("--scores", nargs="*", default=(),
                   help="score CSVs for --strategy")
    p.add_argument("--metric", help="metric for --strategy single")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", help="result JSON path (default stdout)")

    p = sub.add_parser("run", help="full pipeline from a config file and/or flags")
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--input")
    p.add_argument("--format", choices=("interactions", "edges"))
    p.add_argument("--direction", choices=("info-flow", "endorsement"))
    p.add_argument("--metrics", type=_csv_list)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--workers", type=int)
    p.add_argument("--attributes")
    p.add_argument("--emit-plots", action="store_true", default=None)
    p.add_argument("--correlate", type=_csv_list,
                   help="metric:proxy pairs, comma separated")
    p.add_argument("--simulate", action="store_true", default=None)
    p.add_argument("--sim-seeds", type=_csv_list)
    p.add_argument("--sim-random-seeds", type=int)
    p.add_argument("--sim-strategies", type=_csv_list)
    p.add_argument("--sim-budget", choices=("equal", "natural"))
    p.add_argument("--sim-model", choices=MODELS)
    _add_metric_overrides(p)

    p = sub.add_parser("emit-plots", help="report.json -> figure data CSVs")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True, help="output directory")

    return parser


def _flag_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise UsageError(f"expected a boolean, got {raw!r}")


def _add_metric_overrides(p):
    p.add_argument("--pc-damping", type=float, default=None)
    p.add_argument("--pc-tolerance", type=float, default=None)
    p.add_argument("--pc-max-iterations", type=int, default=None)
    p.add_argument("--pc-weighted", action="store_true", default=None)
    p.add_argument("--pc-reverse", type=_flag_bool, default=None,
                   metavar="BOOL")
    p.add_argument("--eig-tolerance", type=float, default=None)
    p.add_argument("--eig-max-iterations", type=int, default=None)
    p.add_argument("--eig-reverse", type=_flag_bool, default=None,
                   metavar="BOOL")
    p.add_argument("--mvc-steps", type=int, default=None)
    p.add_argument("--mvc-init", choices=("seeded_uniform", "attribute"),
                   default=None)
    p.add_argument("--mvc-attribute", default=None)
    p.add_argument("--mvc-exposure",
                   choices=("in_degree", "out_degree", "total_degree"),
                   default=None)
    p.add_argument("--dic-steps", type=int, default=None)
    p.add_argument("--dic-reverse", type=_flag_bool, default=None,
                   metavar="BOOL")
    p.add_argument("--betweenness-mode", choices=("auto", "exact", "sampled"),
                   default=None)
    p.add_argument("--betweenness-samples", type=int, default=None)
    p.add_argument("--closeness-mode", choices=("auto", "exact", "sampled"),
                   default=None)
    p.add_argument("--closeness-samples", type=int, default=None)
    p.add_argument("--closeness-weighted", action="store_true", default=None)
    p.add_argument("--ic-p", type=float, default=None, dest="sim_p")
    p.add_argument("--ic-trials", type=int, default=None, dest="sim_trials")
    p.add_argument("--ic-weight-scaled", action="store_true", default=None,
                   dest="sim_weight_scaled")


_FLAG_FIELDS = (
    "input", "format", "metrics", "k", "seed", "out", "workers", "attributes",
    "emit_plots", "correlate", "simulate", "sim_seeds", "sim_random_seeds",
    "sim_strategies", "sim_budget", "sim_model", "sim_p", "sim_trials",
    "sim_weight_scaled",
    "pc_damping", "pc_tolerance", "pc_max_iterations", "pc_weighted",
    "pc_reverse", "eig_tolerance", "eig_max_iterations", "eig_reverse",
    "mvc_steps", "mvc_init", "mvc_attribute", "mvc_exposure",
    "dic_steps", "dic_reverse",
    "betweenness_mode", "betweenness_samples",
    "closeness_mode", "closeness_samples", "closeness_weighted",
)


def _config_from_args(args) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    for name in _FLAG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if getattr(args, "direction", None) is not None:
        values["direction"] = _direction(args.direction)
    if not values.get("input"):
        raise UsageError("an input file is required (--input or config [run] input)")
    return RunConfig.from_dict(values)


def _print_or_write(obj, out_path):
    if out_path:
        _io.write_json(obj, out_path)
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_ingest(args) -> int:
    g = build_graph(_io.read_interactions_csv(args.input), _direction(args.direction))
    _io.write_edge_csv(g, args.out)
    print(f"wrote {args.out}: {g.n} nodes, {g.num_edges} edges "
          f"({g.self_loops_dropped} self-loops dropped)")
    return 0


def _cmd_compute(args) -> int:
    overrides = {name: getattr(args, name) for name in _FLAG_FIELDS
                 if getattr(args, name, None) is not None}
    overrides["direction"] = _direction(args.direction)
    overrides["out"] = args.out
    cfg = RunConfig.from_dict(overrides)
    g = load_graph(cfg)
    attrs = NodeAttributes.from_csv(cfg.attributes) if cfg.attributes else None
    out_dir = Path(cfg.out)
    for metric in cfg.metrics:
        sv = compute_metric(g, metric, cfg, attrs)
        path = out_dir / f"{metric}.scores.csv"
        _io.write_scores_csv(sv, path)
        print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    rankings = {}
    for path in args.scores:
        sv = _io.read_scores_csv(path)
        rankings[sv.metric] = top_k(sv, args.k)
    traditional = (args.traditional if args.traditional is not None
                   else [m for m in rankings if m in TRADITIONAL_METRICS])
    report = overlap_report(rankings, traditional)
    _print_or_write(report.to_dict(), args.out)
    return 0


def _cmd_correlate(args) -> int:
    sv = _io.read_scores_csv(args.scores)
    attrs = NodeAttributes.from_csv(args.attributes)
    result = rank_correlation(sv, attrs, args.proxy)
    _print_or_write(result.to_dict(), args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = RunConfig.from_dict({
        "input": args.input, "format": args.format,
        "direction": _direction(args.direction), "seed": args.seed,
        "k": args.k, "workers": args.workers, "sim_seeds": args.seeds,
        "sim_random_seeds": args.random_seeds, "sim_model": args.model,
        "sim_p": args.ic_p, "sim_trials": args.ic_trials,
        "sim_weight_scaled": args.ic_weight_scaled,
    })
    g = load_graph(cfg)
    cascade = cascade_config(g, cfg)

    removal = set(args.remove)
    if args.removal_file:
        text = Path(args.removal_file).read_text(encoding="utf-8")
        removal.update(line.strip() for line in text.splitlines() if line.strip())
    if args.strategy:
        rankings = {}
        for path in args.scores:
            sv = _io.read_scores_csv(path)
            rankings[sv.metric] = top_k(sv, sv.n)
        if not rankings and args.strategy != "random":
            raise UsageError("--strategy needs --scores files")
        strategy = f"{args.strategy}:{args.metric}" if args.metric else args.strategy
        removal |= removal_for(g, rankings, strategy, cfg, args.budget)
    if not removal:
        raise UsageError("nothing to remove: use --remove, --removal-file, "
                         "or --strategy")

    result = intervention_experiment(g, removal, cascade, workers=cfg.workers)
    _print_or_write(result.to_dict(), args.out)
    return 0


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    report = run_pipeline(cfg)
    out = Path(cfg.out)
    print(f"report: {out / 'report.json'}")
    for metric in report.metrics:
        print(f"scores: {out / (metric + '.scores.csv')}")
    return 0


def _cmd_emit_plots(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    for path in emit_plot_data(report, args.out):
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "compute": _cmd_compute,
    "compare": _cmd_compare,
    "correlate": _cmd_correlate,
    "simulate": _cmd_simulate,
    "run": _cmd_run,
    "emit-plots": _cmd_emit_plots,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (NetcentError, FileNotFoundError) as exc:
        print(f"netcent: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except Exception as exc:  # internal error
        print(f"netcent: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
