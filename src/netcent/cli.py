"""Command-line frontend.

Subcommands mirror the pipeline stages so each is usable standalone on
intermediate files: ``ingest``, ``compute``, ``compare``, ``correlate``,
``simulate``, ``run`` (full pipeline), and ``emit-plots``. Exit codes:
0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import shutil
import sys
from pathlib import Path

from . import io as _io
from . import __version__
from .errors import NetcentError, UsageError, exit_code_for
from .novel import NodeAttributes
from .pipeline import (RunConfig, boolean, cascade_config, compute_metrics,
                       emit_plot_data, load_config_file, load_graph,
                       option_parser, removal_for, run_pipeline, str_list)
from .ranking import overlap_report, rank_correlation, top_k
from .scores import TRADITIONAL_METRICS
from .simulate import STRATEGIES, intervention_experiment


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract wants 1
    def error(self, message):
        raise UsageError(message)


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_INPUT = ("input", "format", "direction")
_CASCADE = ("sim_p", "sim_trials", "sim_weight_scaled")
_METRIC_OPTIONS = tuple(
    name for name, f in _CONFIG_FIELDS.items()
    if f.metadata["ini"][0] in ("pc", "eigenvector", "mvc", "dic",
                                "betweenness", "closeness"))


def _add_config_flags(p, names, spellings=None):
    """One flag per named RunConfig field; an unset flag leaves it None.

    ``spellings`` renames a field's flag for this subcommand only.
    """
    for name in names:
        f = _CONFIG_FIELDS[name]
        section, key = f.metadata["ini"]
        flag = ((spellings or {}).get(name) or f.metadata["flag"]
                or "--" + name.replace("_", "-"))
        help = f"{f.metadata['help']} ([{section}] {key})".lstrip()
        parse = option_parser(f)
        if parse is boolean and f.default is False:
            p.add_argument(flag, dest=name, action="store_true", default=None,
                           help=help)
        else:
            p.add_argument(flag, dest=name, type=parse, help=help,
                           choices=f.metadata["choices"],
                           metavar="BOOL" if parse is boolean else None)


def _config_from_args(args) -> RunConfig:
    config = getattr(args, "config", None)
    values = load_config_file(config) if config else {}
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if not values.get("input"):
        raise UsageError("an input file is required (--input or config [run] input)")
    return RunConfig.from_dict(values)


def _ingest_flags(p):
    _add_config_flags(p, _INPUT)
    p.add_argument("--out", dest="out_file", required=True,
                   help="edge-list CSV to write")


def _compute_flags(p):
    _add_config_flags(p, (*_INPUT, "metrics", "seed", "attributes", "out",
                          *_METRIC_OPTIONS))
    p.add_argument("--workers", type=int, help="accepted and ignored")


def _compare_flags(p):
    p.add_argument("--scores", nargs="+", required=True,
                   help="per-metric <metric>.scores.csv files")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--traditional", type=str_list, default=None,
                   help="metric ids forming the baseline union "
                        "(default: the traditional family)")
    p.add_argument("--out", help="overlap JSON path (default stdout)")


def _correlate_flags(p):
    p.add_argument("--scores", required=True, help="one <metric>.scores.csv")
    p.add_argument("--attributes", required=True)
    p.add_argument("--proxy", required=True, help="attribute column name")
    p.add_argument("--out", help="result JSON path (default stdout)")


def _simulate_flags(p):
    _add_config_flags(p, (*_INPUT, "sim_seeds", "sim_random_seeds", "sim_model",
                          *_CASCADE, "seed", "k"),
                      spellings={"sim_seeds": "--seeds",
                                 "sim_random_seeds": "--random-seeds",
                                 "sim_model": "--model"})
    p.add_argument("--workers", type=int, help="accepted and ignored")
    p.add_argument("--remove", type=str_list, default=(),
                   help="explicit node labels to remove")
    p.add_argument("--removal-file", help="file with one label per line")
    p.add_argument("--strategy", choices=STRATEGIES,
                   help="derive the removal set from score CSVs instead")
    p.add_argument("--scores", nargs="*", default=(),
                   help="score CSVs for --strategy")
    p.add_argument("--metric", help="metric for --strategy single")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", dest="out_file",
                   help="result JSON path (default stdout)")


def _run_flags(p):
    p.add_argument("--config", help="INI config file; flags override it")
    _add_config_flags(p, _CONFIG_FIELDS)
    p.add_argument("--workers", type=int, help="accepted and ignored")


def _emit_plots_flags(p):
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True, help="output directory")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The netcent parser; with ``command``, only that subcommand's flags.

    Adding every subcommand's flags costs a few milliseconds, so a run
    builds only the one it names. None builds them all, as ``--help``,
    ``--version`` and an unknown or missing command need.
    """
    # argparse sizes a formatter for every flag it adds; measure the
    # terminal once, which gives the widths each would have measured
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="netcent", description=__doc__,
                     formatter_class=formatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, add_flags, _) in _COMMANDS.items():
        if command in (None, name):
            add_flags(sub.add_parser(name, help=help, formatter_class=formatter))
    return parser


def _print_or_write(obj, out_path):
    if out_path:
        _io.write_json(obj, out_path)
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_ingest(args) -> int:
    cfg = _config_from_args(args)
    g = load_graph(cfg)
    _io.write_edge_csv(g, args.out_file)
    print(f"wrote {args.out_file}: {g.n} nodes, {g.num_edges} edges "
          f"({g.self_loops_dropped} self-loops dropped)")
    return 0


def _cmd_compute(args) -> int:
    cfg = _config_from_args(args)
    g = load_graph(cfg)
    attrs = NodeAttributes.from_csv(cfg.attributes) if cfg.attributes else None
    out_dir = Path(cfg.out)
    for metric, sv in compute_metrics(g, cfg, attrs).items():
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
    cfg = _config_from_args(args)
    g = load_graph(cfg)
    cascade = cascade_config(g, cfg)

    removal = set(args.remove)
    if args.removal_file:
        removal.update(_io.read_labels(args.removal_file))
    if args.strategy:
        rankings = {}
        for path in args.scores:
            sv = _io.read_scores_csv(path)
            rankings[sv.metric] = top_k(sv, cfg.k)
        if not rankings and args.strategy != "random":
            raise UsageError("--strategy needs --scores files")
        strategy = f"{args.strategy}:{args.metric}" if args.metric else args.strategy
        removal |= removal_for(g, rankings, strategy, cfg, args.budget)
    if not removal:
        raise UsageError("nothing to remove: use --remove, --removal-file, "
                         "or --strategy")

    result, = intervention_experiment(g, [removal], cascade)
    _print_or_write(result.to_dict(), args.out_file)
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
    for path in emit_plot_data(args.report, args.out):
        print(f"wrote {path}")
    return 0


# each subcommand's help line, the function adding its flags, its runner
_COMMANDS = {
    "ingest": ("input CSV -> canonical edge-list CSV", _ingest_flags,
               _cmd_ingest),
    "compute": ("compute metrics, write score CSVs", _compute_flags,
                _cmd_compute),
    "compare": ("score CSVs -> overlap report JSON", _compare_flags,
                _cmd_compare),
    "correlate": ("scores + attributes -> Spearman rho", _correlate_flags,
                  _cmd_correlate),
    "simulate": ("node-removal intervention experiment", _simulate_flags,
                 _cmd_simulate),
    "run": ("full pipeline from a config file and/or flags", _run_flags,
            _cmd_run),
    "emit-plots": ("report.json -> figure data CSVs", _emit_plots_flags,
                   _cmd_emit_plots),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        *_, run = _COMMANDS[args.command]
        return run(args)
    except (NetcentError, FileNotFoundError) as exc:
        print(f"netcent: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except Exception as exc:  # internal error
        print(f"netcent: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
