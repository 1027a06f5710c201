"""Config-driven pipeline: ingest -> metrics -> rankings -> overlap ->
correlation -> intervention, with file outputs.

Every stochastic component draws from a named sub-stream of the single
config seed, so adding or dropping one metric never perturbs another's
results. The consolidated ``report.json`` contains only reproducible
content (wall-clock stage timings go to a ``timings.json`` sidecar), so
two runs with identical inputs, config, and seed are byte-identical.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as _io
from . import traditional as _traditional
from . import __version__ as _pkg_version
from .errors import (DataError, InvalidParameter, NothingToEmit,
                     PipelineError)
from .graph import DIRECTIONS, INFO_FLOW, DirectedGraph
from .ranking import RankingTable, overlap_report, rank_correlation, top_k
from .novel import (EXPOSURE_MODES, MVC_INITS, DicConfig, MvcConfig,
                    NodeAttributes, PcConfig, dic, mvc, propagation_centrality)
from .rng import derive_seed, substream
from .scores import METRICS, TRADITIONAL_METRICS, ScoreVector
from .simulate import (MODELS, STRATEGIES, CascadeConfig,
                       intervention_experiment, metric_removal_set)
from .traditional import (SAMPLING_MODES, PowerIterationConfig,
                          betweenness_centrality, closeness_centrality,
                          degree_centrality, eigenvector_centrality,
                          resolves_exact)

DEFAULT_METRICS = ("degree_total", "closeness", "betweenness", "eigenvector",
                   "pc", "mvc", "dic")
METRIC_ALIASES = {"degree": "degree_total"}
FORMATS = ("interactions", "edges")
BUDGET_MODES = ("equal", "natural")


def boolean(raw: str) -> bool:
    """Strict boolean: true/yes/on/1 or false/no/off/0, in any case."""
    value = raw.strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def str_list(raw: str) -> tuple[str, ...]:
    """Comma-separated values, blanks dropped."""
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _direction(raw: str) -> str:
    # flags spell it info-flow, the graph stores info_flow
    return raw.replace("-", "_")


# the parser of each RunConfig annotation, for file values and flags alike
_PARSERS = {"str": str, "str | None": str, "int": int, "int | None": int,
            "float": float, "bool": boolean, "bool | None": boolean,
            "tuple[str, ...]": str_list}


def _option(default, section: str, key: str, *, flag: str | None = None,
            parse=None, choices: tuple[str, ...] | None = None,
            help: str = ""):
    """A RunConfig field, read from ``[section] key`` and from ``flag``.

    ``flag`` defaults to the field name spelt with dashes and ``parse``
    to the parser of the field's annotation; ``choices`` are checked on
    every config, however it was built.
    """
    return field(default=default, metadata={
        "ini": (section, key), "flag": flag, "parse": parse,
        "choices": choices, "help": help})


@dataclass
class RunConfig:
    """Flat, file-loadable description of one pipeline run.

    Each field declares its config-file key and command-line flag;
    command-line values override config-file values. The echo stored in
    the report reproduces the run.
    """

    input: str = _option("", "run", "input", help="input CSV path")
    format: str = _option("interactions", "run", "format", choices=FORMATS)
    direction: str = _option(INFO_FLOW, "run", "direction", parse=_direction,
                             choices=DIRECTIONS)
    metrics: tuple[str, ...] = _option(DEFAULT_METRICS, "run", "metrics")
    k: int = _option(10, "run", "k")
    seed: int = _option(0, "run", "seed")
    out: str = _option("netcent-out", "run", "out", help="output directory")
    attributes: str | None = _option(None, "run", "attributes",
                                     help="node attributes CSV")
    emit_plots: bool = _option(False, "run", "emit_plots")
    # propagation centrality
    pc_damping: float = _option(0.85, "pc", "damping")
    pc_tolerance: float = _option(1e-10, "pc", "tolerance")
    pc_max_iterations: int = _option(100, "pc", "max_iterations")
    pc_weighted: bool = _option(False, "pc", "weighted")
    # None = orientation-aware default (endorsement direction carries rank)
    pc_reverse: bool | None = _option(None, "pc", "reverse")
    # eigenvector
    eig_tolerance: float = _option(1e-10, "eigenvector", "tolerance")
    eig_max_iterations: int = _option(100, "eigenvector", "max_iterations")
    eig_reverse: bool | None = _option(None, "eigenvector", "reverse")
    # vulnerability centrality
    mvc_steps: int = _option(5, "mvc", "steps")
    mvc_init: str = _option("seeded_uniform", "mvc", "init", choices=MVC_INITS)
    mvc_attribute: str = _option("vulnerability_0", "mvc", "attribute")
    mvc_exposure: str = _option("in_degree", "mvc", "exposure_mode",
                                choices=EXPOSURE_MODES)
    # dynamic influence centrality
    dic_steps: int = _option(10, "dic", "steps")
    dic_reverse: bool | None = _option(None, "dic", "reverse")
    # shortest-path metrics
    betweenness_mode: str = _option("auto", "betweenness", "mode",
                                    choices=SAMPLING_MODES)
    betweenness_samples: int | None = _option(None, "betweenness",
                                              "sample_size")
    closeness_mode: str = _option("auto", "closeness", "mode",
                                  choices=SAMPLING_MODES)
    closeness_samples: int | None = _option(None, "closeness", "sample_size")
    closeness_weighted: bool = _option(False, "closeness", "weighted")
    correlate: tuple[str, ...] = _option((), "correlate", "pairs",
                                         help="metric:proxy pairs")
    # intervention simulation
    simulate: bool = _option(False, "simulate", "enabled")
    sim_model: str = _option("independent_cascade", "simulate", "model",
                             choices=MODELS)
    sim_p: float = _option(0.1, "simulate", "p", flag="--ic-p")
    sim_trials: int = _option(1000, "simulate", "trials", flag="--ic-trials")
    sim_seeds: tuple[str, ...] = _option(
        (), "simulate", "seeds", help="misinformation originator labels")
    sim_random_seeds: int = _option(
        0, "simulate", "random_seeds",
        help="draw this many originators at random instead")
    sim_strategies: tuple[str, ...] = _option(
        ("traditional_union", "combined_union", "random"), "simulate",
        "strategies")
    sim_budget: str = _option("equal", "simulate", "budget",
                              choices=BUDGET_MODES)
    sim_weight_scaled: bool = _option(False, "simulate", "weight_scaled",
                                      flag="--ic-weight-scaled")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            choices = f.metadata["choices"]
            value = getattr(self, f.name)
            if choices and value not in choices:
                raise InvalidParameter(
                    f"{f.name} must be one of {choices}, got {value!r}")
        if self.k < 1:
            raise InvalidParameter("k must be >= 1")
        resolved = []
        for name in self.metrics:
            name = METRIC_ALIASES.get(name, name)
            if name not in METRICS:
                raise InvalidParameter(f"unknown metric {name!r}")
            if name not in resolved:
                resolved.append(name)
        self.metrics = tuple(resolved)
        strategies = []
        for entry in self.sim_strategies:
            name, colon, metric = entry.partition(":")
            metric = METRIC_ALIASES.get(metric, metric)
            if name == "single" and metric in self.metrics:
                strategies.append(f"single:{metric}")
            elif name in STRATEGIES and name != "single" and not colon:
                strategies.append(name)
            else:
                raise InvalidParameter(
                    f"bad strategy {entry!r}: expected one of {STRATEGIES}, "
                    f"with single:<metric> naming a computed metric")
        self.sim_strategies = tuple(strategies)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for key, value in d.items():
            if isinstance(value, tuple):
                d[key] = list(value)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if isinstance(value, list):
                value = tuple(value)
            kwargs[f.name] = value
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise InvalidParameter(f"unknown config keys: {sorted(unknown)}")
        return cls(**kwargs)


def option_parser(f: dataclasses.Field):
    """The function that turns a file value or flag into field ``f``."""
    return f.metadata["parse"] or _PARSERS[f.type]


_FILE_KEYS = {f.metadata["ini"]: f for f in dataclasses.fields(RunConfig)}


def load_config_file(path) -> dict:
    """Parse the INI-style config file into RunConfig keyword values."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with _io.open_input(path) as fh:
        parser.read_file(fh)
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            f = _FILE_KEYS.get((section, key))
            if f is None:
                raise InvalidParameter(f"{path}: unknown config key [{section}] {key}")
            try:
                values[f.name] = option_parser(f)(raw.strip())
            except ValueError:
                raise InvalidParameter(
                    f"{path}: bad value {raw!r} for [{section}] {key}") from None
    return values


@dataclass
class AnalysisReport:
    """Everything one run produced; to_report_dict() is the stable subset."""

    version: str
    config: dict
    graph_summary: dict
    metrics: dict
    overlap: dict | None = None
    correlations: list = field(default_factory=list)
    interventions: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_report_dict(self) -> dict:
        # timings are wall-clock and excluded so reports stay byte-identical
        return {"version": self.version, "config": self.config,
                "graph": self.graph_summary, "metrics": self.metrics,
                "overlap": self.overlap, "correlations": self.correlations,
                "interventions": self.interventions}


def load_graph(cfg: RunConfig) -> DirectedGraph:
    if cfg.format == "interactions":
        from .graph import build_graph
        return build_graph(_io.read_interactions_csv(cfg.input), cfg.direction)
    return _io.read_edge_csv(cfg.input, direction=cfg.direction)


def _betweenness(g: DirectedGraph, cfg: RunConfig, **kwargs) -> ScoreVector:
    return betweenness_centrality(
        g, mode=cfg.betweenness_mode, sample_size=cfg.betweenness_samples,
        seed=derive_seed(cfg.seed, "betweenness_pivots"), **kwargs)


def compute_metric(g: DirectedGraph, metric: str, cfg: RunConfig,
                   attrs: NodeAttributes | None = None) -> ScoreVector:
    """Run one metric with parameters and named sub-seeds from the config."""
    if metric.startswith("degree_"):
        return degree_centrality(g, metric.removeprefix("degree_"))
    if metric == "closeness":
        return closeness_centrality(
            g, mode=cfg.closeness_mode, sample_size=cfg.closeness_samples,
            seed=derive_seed(cfg.seed, "closeness_pivots"),
            weighted=cfg.closeness_weighted)
    if metric == "betweenness":
        return _betweenness(g, cfg)
    if metric == "eigenvector":
        return eigenvector_centrality(
            g, PowerIterationConfig(tolerance=cfg.eig_tolerance,
                                    max_iterations=cfg.eig_max_iterations),
            reverse=cfg.eig_reverse)
    if metric == "pc":
        return propagation_centrality(
            g, PcConfig(damping=cfg.pc_damping, tolerance=cfg.pc_tolerance,
                        max_iterations=cfg.pc_max_iterations,
                        weighted=cfg.pc_weighted, reverse=cfg.pc_reverse))
    if metric == "mvc":
        return mvc(g, attrs, MvcConfig(
            init=cfg.mvc_init, seed=derive_seed(cfg.seed, "mvc_init"),
            attribute=cfg.mvc_attribute, steps=cfg.mvc_steps,
            exposure_mode=cfg.mvc_exposure))
    if metric == "dic":
        return dic(g, DicConfig(steps=cfg.dic_steps, reverse=cfg.dic_reverse))
    raise InvalidParameter(f"unknown metric {metric!r}")


def compute_metrics(g: DirectedGraph, cfg: RunConfig,
                    attrs: NodeAttributes | None,
                    out_dir: Path) -> dict[str, ScoreVector]:
    """Every metric of ``cfg.metrics``, in that order, by metric name,
    each written to ``out_dir / "<metric>.scores.csv"``.

    When closeness and betweenness are both asked for, both resolve to
    exact mode and closeness counts hops, one traversal serves both:
    betweenness' Brandes pass also sums each source's count_L / L, in
    the order ``closeness_centrality(g, "exact")`` adds them, so the
    closeness scores are the same bytes. Any other metric is computed
    on its own through ``compute_metric``. A shared run never calls
    ``closeness_centrality``, so the benchmark's traced runs count
    closeness inside the betweenness span and read
    ``traditional.closeness_s`` as 0.

    The source loops, each a traversal from every source on forked
    workers, run one after another in ``cfg.metrics`` order: betweenness
    (or the shared pass) and weighted closeness. This process computes
    and writes the other metrics, in ``cfg.metrics`` order, while
    betweenness' first worker starts on its source chunks
    (``meanwhile``); their spans nest inside the betweenness span. The
    error raised is the one the metrics run one after another would
    raise: the first failing metric in ``cfg.metrics`` order, and only
    then the first failing write. A metric ranked before every loop yet
    to succeed fails at once and stops betweenness; the other errors
    wait until betweenness has finished, since its own error may outrank
    them. No metric ranked after a failure runs.
    """
    order = {metric: i for i, metric in enumerate(cfg.metrics)}
    loops = []
    if "betweenness" in order:
        loops.append(("betweenness",))
        if ("closeness" in order and not cfg.closeness_weighted
                and resolves_exact(g.n, cfg.closeness_mode)
                and resolves_exact(g.n, cfg.betweenness_mode)):
            loops[0] = ("closeness", "betweenness")
    if "closeness" in order and cfg.closeness_weighted:
        loops.append(("closeness",))

    def rank(loop):
        return min(order[metric] for metric in loop)

    loops.sort(key=rank)
    # the ranks of the loops yet to succeed, then one past every metric's
    pending = [rank(loop) for loop in loops] + [len(order)]
    vectors: dict[str, ScoreVector] = {}
    # (rank, exception): a metric's rank is its place in cfg.metrics, a
    # write's comes after every metric's
    failures = []

    def write(metric):
        try:
            _io.write_scores_csv(vectors[metric],
                                 out_dir / f"{metric}.scores.csv")
        except Exception as exc:
            failures.append((len(order) + order[metric], exc))

    def outranked(rank):
        return any(failed < rank for failed, _ in failures)

    def others():
        for metric in cfg.metrics:
            if any(metric in loop for loop in loops):
                continue
            if outranked(order[metric]):
                return
            try:
                vectors[metric] = compute_metric(g, metric, cfg, attrs)
            except Exception as exc:
                failures.append((order[metric], exc))
                if order[metric] < pending[0]:
                    raise
                return
            write(metric)
            yield

    # betweenness runs what it can of them; whatever is left runs below
    rest = others()
    for loop in loops:
        if outranked(rank(loop)):
            break
        try:
            if "betweenness" in loop:
                harmonic = np.zeros(g.n) if "closeness" in loop else None
                vectors["betweenness"] = _betweenness(
                    g, cfg, harmonic=harmonic, meanwhile=rest)
                if harmonic is not None:
                    vectors["closeness"] = ScoreVector(
                        metric="closeness", labels=g.labels, scores=harmonic,
                        params={"weighted": False, "mode": "exact"})
            else:
                vectors["closeness"] = compute_metric(g, "closeness", cfg,
                                                      attrs)
        except Exception as exc:
            # a metric raised from rest is in failures at its own, lower rank
            failures.append((rank(loop), exc))
            break
        pending.pop(0)
        for metric in loop:
            write(metric)
    for _ in rest:
        pass
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return {metric: vectors[metric] for metric in cfg.metrics}


def _metric_summary(sv: ScoreVector, table: RankingTable) -> dict:
    return {"params": sv.params, "iterations_run": sv.iterations_run,
            "normalised": sv.normalised, "top": table.to_dict()["entries"]}


def cascade_config(g: DirectedGraph, cfg: RunConfig) -> CascadeConfig:
    """The run's spread model; originators not given are drawn, seeded."""
    seeds = cfg.sim_seeds
    if not seeds:
        if cfg.sim_random_seeds < 1:
            raise InvalidParameter("simulation needs sim_seeds or sim_random_seeds")
        picks = substream(cfg.seed, "sim_seeds").choice(
            g.n, size=min(cfg.sim_random_seeds, g.n), replace=False)
        seeds = tuple(g.labels[i] for i in picks)
    return CascadeConfig(seeds=seeds, model=cfg.sim_model, p=cfg.sim_p,
                         trials=cfg.sim_trials,
                         seed=derive_seed(cfg.seed, "cascade"),
                         weight_scaled=cfg.sim_weight_scaled)


def removal_for(g: DirectedGraph, rankings, strategy: str,
                cfg: RunConfig, budget: int | None) -> frozenset[str]:
    """Removal set of one strategy; ``single:<metric>`` targets one ranking.

    A ranking need hold only its top ``cfg.k``: the natural union, its
    truncation to a budget and the padding never read a deeper rank.
    """
    name, _, metric = strategy.partition(":")
    if name == "random":
        return metric_removal_set(
            rankings, "random", budget=budget if budget is not None else cfg.k,
            universe=g.labels, seed=derive_seed(cfg.seed, "removal_random"))
    return metric_removal_set(
        rankings, name, metric=metric or None, k=cfg.k, budget=budget,
        universe=g.labels, seed=derive_seed(cfg.seed, "removal_pad"))


def _run_interventions(g: DirectedGraph, rankings, cfg: RunConfig) -> list:
    cascade = cascade_config(g, cfg)
    natural = [len(removal_for(g, rankings, s, cfg, None))
               for s in cfg.sim_strategies if s.partition(":")[0] != "random"]
    budget = max(natural) if (cfg.sim_budget == "equal" and natural) else None
    removals = [removal_for(g, rankings, s, cfg, budget)
                for s in cfg.sim_strategies]
    results = intervention_experiment(g, removals, cascade)
    return [{"strategy": s, "budget": len(res.removed), **res.to_dict()}
            for s, res in zip(cfg.sim_strategies, results)]


def run_pipeline(cfg: RunConfig) -> AnalysisReport:
    """Execute every configured stage and write the output files.

    Outputs land in ``cfg.out``: one ``<metric>.scores.csv`` per metric,
    ``overlap.json`` when two or more metrics ran, ``report.json``,
    ``timings.json``, and the plot-data CSVs when requested. All writes
    are atomic. Stage failures raise PipelineError naming the stage.

    ``timings.json`` holds each stage's seconds, then ``workers``, the
    most processes a source loop kept computing at a time, this one
    included while it ran the other metrics (0: none ran), ``brandes_width``,
    the sources per Brandes level pass betweenness ran (1: one at a time,
    0: betweenness did not run), and ``children_peak_rss_mb``, the
    largest reaped child's peak RSS.
    """
    out_dir = Path(cfg.out)
    timings: dict[str, float] = {}
    _traditional.workers_used = _traditional.width_used = 0

    def stage(name, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            raise PipelineError(name, exc) from exc
        timings[name] = time.perf_counter() - start
        return result

    g = stage("ingest", lambda: load_graph(cfg))
    attrs = stage("attributes", lambda: (
        NodeAttributes.from_csv(cfg.attributes) if cfg.attributes else None))

    score_vectors = stage("metrics",
                          lambda: compute_metrics(g, cfg, attrs, out_dir))

    rankings = stage("rank", lambda: {m: top_k(sv, cfg.k)
                                      for m, sv in score_vectors.items()})

    overlap_dict = None
    traditional_present = [m for m in score_vectors if m in TRADITIONAL_METRICS]
    if len(score_vectors) >= 2 and traditional_present:
        def build_overlap():
            report = overlap_report(rankings, traditional_present)
            _io.write_json(report.to_dict(), out_dir / "overlap.json")
            return report.to_dict()

        overlap_dict = stage("overlap", build_overlap)

    correlations = []
    if cfg.correlate:
        def run_correlations():
            if attrs is None:
                raise InvalidParameter("correlation requires an attributes file")
            out = []
            for pair in cfg.correlate:
                metric, _, proxy = pair.partition(":")
                if not proxy or metric not in score_vectors:
                    raise InvalidParameter(
                        f"correlate entries are 'metric:proxy' over computed "
                        f"metrics, got {pair!r}")
                out.append(rank_correlation(score_vectors[metric], attrs,
                                            proxy).to_dict())
            return out

        correlations = stage("correlate", run_correlations)

    interventions = []
    if cfg.simulate:
        interventions = stage("simulate",
                              lambda: _run_interventions(g, rankings, cfg))

    report = AnalysisReport(
        version=_pkg_version,
        config=cfg.to_dict(),
        graph_summary={"nodes": g.n, "edges": g.num_edges,
                       "direction": g.direction,
                       "self_loops_dropped": g.self_loops_dropped},
        metrics={m: _metric_summary(sv, rankings[m])
                 for m, sv in score_vectors.items()},
        overlap=overlap_dict,
        correlations=correlations,
        interventions=interventions,
        timings=timings,
    )

    def write_report():
        _io.write_json(report.to_report_dict(), out_dir / "report.json")
        timings["workers"] = _traditional.workers_used
        timings["brandes_width"] = _traditional.width_used
        try:
            import resource
        except ImportError:  # Windows, where traversals run in this process
            pass
        else:
            # the workers' peak, which this process's own rusage leaves out
            timings["children_peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        _io.write_json(report.timings, out_dir / "timings.json")

    stage("report", write_report)
    if cfg.emit_plots:
        stage("emit_plots", lambda: emit_plot_data(report, out_dir))
    return report


def emit_plot_data(report, out_dir) -> list[Path]:
    """Write tabular series for external figure rendering.

    ``report`` is an AnalysisReport, its dict, or the path of its
    ``report.json``; a file that is not JSON, that holds a string UTF-8
    cannot encode, or that lacks a key or type a report has raises
    DataError naming it. ``venn_regions.csv`` holds one row per overlap
    region (metric names joined by ``&``); ``topk_bars.csv`` holds
    per-metric top-k bars.
    """
    path = "report"
    if isinstance(report, AnalysisReport):
        report = report.to_report_dict()
    elif isinstance(report, (str, Path)):
        path = report
        try:
            with _io.open_input(path) as fh:
                report = json.load(fh)
            # json.load turns an escaped lone surrogate such as \ud800 into
            # one, which the UTF-8 output files cannot hold
            json.dumps(report, ensure_ascii=False).encode("utf-8")
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
    try:
        overlap = report.get("overlap")
        if not overlap or not overlap.get("regions"):
            raise NothingToEmit("report has no overlap section")
        venn = ([["&".join(r["metrics"]) for r in overlap["regions"]]],
                [r["count"] for r in overlap["regions"]])
        bars = [(metric, row) for metric in sorted(report.get("metrics", {}))
                for row in report["metrics"][metric]["top"]]
        nodes = [row["node"] for _, row in bars]
        if not all(isinstance(node, str) for node in nodes):
            raise TypeError("a top-k node label is not a string")
        bar_rows = ([[m for m, _ in bars],
                     [str(row["rank"]) for _, row in bars], nodes],
                    [row["score"] for _, row in bars])
    except (AttributeError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not shaped like a report: "
                        f"{type(exc).__name__}: {exc}") from None
    out_dir = Path(out_dir)
    venn_path = out_dir / "venn_regions.csv"
    _io.write_rows(venn_path, ("metrics", "count"), *venn)
    bars_path = out_dir / "topk_bars.csv"
    _io.write_rows(bars_path, ("metric", "rank", "node_label", "score"),
                   *bar_rows)
    return [venn_path, bars_path]
