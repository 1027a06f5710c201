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
from .simulate import (MODELS, STRATEGIES, CascadeConfig, check_spread,
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
    the report reproduces the run. Metric and cascade fields take their
    defaults and, before ingest, their checks from the classes they feed.
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
    pc_damping: float = _option(PcConfig.damping, "pc", "damping")
    pc_tolerance: float = _option(PcConfig.tolerance, "pc", "tolerance")
    pc_max_iterations: int = _option(PcConfig.max_iterations, "pc",
                                     "max_iterations")
    pc_weighted: bool = _option(PcConfig.weighted, "pc", "weighted")
    # None = orientation-aware default (endorsement direction carries rank)
    pc_reverse: bool | None = _option(PcConfig.reverse, "pc", "reverse")
    # eigenvector
    eig_tolerance: float = _option(PowerIterationConfig.tolerance,
                                   "eigenvector", "tolerance")
    eig_max_iterations: int = _option(PowerIterationConfig.max_iterations,
                                      "eigenvector", "max_iterations")
    eig_reverse: bool | None = _option(None, "eigenvector", "reverse")
    # vulnerability centrality
    mvc_steps: int = _option(MvcConfig.steps, "mvc", "steps")
    mvc_init: str = _option(MvcConfig.init, "mvc", "init", choices=MVC_INITS)
    mvc_attribute: str = _option(MvcConfig.attribute, "mvc", "attribute")
    mvc_exposure: str = _option(MvcConfig.exposure_mode, "mvc",
                                "exposure_mode", choices=EXPOSURE_MODES)
    # dynamic influence centrality
    dic_steps: int = _option(DicConfig.steps, "dic", "steps")
    dic_reverse: bool | None = _option(DicConfig.reverse, "dic", "reverse")
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
    sim_model: str = _option(CascadeConfig.model, "simulate", "model",
                             choices=MODELS)
    sim_p: float = _option(CascadeConfig.p, "simulate", "p", flag="--ic-p")
    sim_trials: int = _option(CascadeConfig.trials, "simulate", "trials",
                              flag="--ic-trials")
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
    sim_weight_scaled: bool = _option(CascadeConfig.weight_scaled,
                                      "simulate", "weight_scaled",
                                      flag="--ic-weight-scaled")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            choices = f.metadata["choices"]
            value = getattr(self, f.name)
            if choices and value not in choices:
                raise _bad(f.name, f"{f.name} must be one of {choices}, "
                                   f"got {value!r}")
        if self.k < 1:
            raise _bad("k", "k must be >= 1")
        if not self.metrics:
            raise _bad("metrics", "no metric named")
        resolved = []
        for name in self.metrics:
            name = METRIC_ALIASES.get(name, name)
            if name not in METRICS:
                raise _bad("metrics", f"unknown metric {name!r}")
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
                raise _bad("sim_strategies",
                           f"bad strategy {entry!r}: expected one of "
                           f"{STRATEGIES}, with single:<metric> naming a "
                           f"computed metric")
        self.sim_strategies = tuple(strategies)
        if self.correlate and not self.attributes:
            raise _bad("correlate", "correlation requires an attributes file")
        for pair in self.correlate:
            metric, _, proxy = pair.partition(":")
            if not proxy or metric not in self.metrics:
                raise _bad("correlate",
                           f"correlate entries are 'metric:proxy' over "
                           f"computed metrics, got {pair!r}")
        # what compute_metric runs with: attributes, which to_dict() omits
        self.eig_config = self._build(
            PowerIterationConfig, tolerance="eig_tolerance",
            max_iterations="eig_max_iterations")
        self.pc_config = self._build(
            PcConfig, damping="pc_damping", tolerance="pc_tolerance",
            max_iterations="pc_max_iterations", weighted="pc_weighted",
            reverse="pc_reverse")
        self.mvc_config = dataclasses.replace(self._build(
            MvcConfig, init="mvc_init", attribute="mvc_attribute",
            steps="mvc_steps", exposure_mode="mvc_exposure"),
            seed=derive_seed(self.seed, "mvc_init"))
        self.dic_config = self._build(DicConfig, steps="dic_steps",
                                      reverse="dic_reverse")
        _flagged("sim_p", lambda: check_spread(
            self.sim_model, self.sim_p, CascadeConfig.trials))
        _flagged("sim_trials", lambda: check_spread(
            self.sim_model, CascadeConfig.p, self.sim_trials))

    def _build(self, cls, **fields):
        """``cls`` with each named attribute read from its RunConfig field.

        Each attribute is first checked alone, beside ``cls``'s other
        defaults, so a bad value's error names the flag that set it.
        """
        values = {attr: getattr(self, name) for attr, name in fields.items()}
        for attr, name in fields.items():
            _flagged(name, lambda: cls(**{attr: values[attr]}))
        return cls(**values)

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


def flag_of(name: str) -> str:
    """The command-line flag of RunConfig field ``name``."""
    return (_FIELDS[name].metadata["flag"]
            or "--" + name.replace("_", "-"))


def _bad(name: str, message: str) -> InvalidParameter:
    """The error for a bad value of field ``name``, naming its flag."""
    return InvalidParameter(f"{flag_of(name)}: {message}")


def _flagged(name: str, check) -> None:
    """Run ``check``; its InvalidParameter is raised again naming the
    flag of field ``name``."""
    try:
        check()
    except InvalidParameter as exc:
        raise _bad(name, str(exc)) from None


def option_parser(f: dataclasses.Field):
    """The function that turns a file value or flag into field ``f``."""
    return f.metadata["parse"] or _PARSERS[f.type]


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_FILE_KEYS = {f.metadata["ini"]: f for f in _FIELDS.values()}


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
        return eigenvector_centrality(g, cfg.eig_config,
                                      reverse=cfg.eig_reverse)
    if metric == "pc":
        return propagation_centrality(g, cfg.pc_config)
    if metric == "mvc":
        return mvc(g, attrs, cfg.mvc_config)
    if metric == "dic":
        return dic(g, cfg.dic_config)
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


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute every configured stage, write the output files, and
    return the dict written as ``report.json``.

    Outputs land in ``cfg.out``: one ``<metric>.scores.csv`` per metric,
    ``overlap.json`` when two or more metrics ran, ``report.json``,
    ``timings.json``, and the plot-data CSVs when requested. All writes
    are atomic. Stage failures raise PipelineError naming the stage.

    ``timings.json`` holds each stage's seconds, then ``workers``, the
    most processes a source loop kept computing at a time, this one
    included while it ran the other metrics (0: none ran), ``brandes_width``,
    the sources per Brandes level pass betweenness ran (1: one at a time,
    0: betweenness did not run), and ``children_peak_rss_mb``, the
    largest reaped child's peak RSS. That peak counts the pages a child
    shares with this process, so it is not what the workers add: a
    worker forked after the other metrics ran counts their vectors too.
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

    # timings are wall-clock and stay out, so reports are byte-identical
    report = {"version": _pkg_version, "config": cfg.to_dict(),
              "graph": {"nodes": g.n, "edges": g.num_edges,
                        "direction": g.direction,
                        "self_loops_dropped": g.self_loops_dropped},
              "metrics": {m: _metric_summary(sv, rankings[m])
                          for m, sv in score_vectors.items()},
              "overlap": None, "correlations": [], "interventions": []}

    traditional_present = [m for m in score_vectors if m in TRADITIONAL_METRICS]
    if len(score_vectors) >= 2 and traditional_present:
        def build_overlap():
            overlap = overlap_report(rankings, traditional_present).to_dict()
            _io.write_json(overlap, out_dir / "overlap.json")
            return overlap

        report["overlap"] = stage("overlap", build_overlap)

    if cfg.correlate:
        report["correlations"] = stage("correlate", lambda: [
            rank_correlation(score_vectors[metric], attrs, proxy).to_dict()
            for metric, _, proxy in (pair.partition(":")
                                     for pair in cfg.correlate)])

    if cfg.simulate:
        report["interventions"] = stage(
            "simulate", lambda: _run_interventions(g, rankings, cfg))

    def write_report():
        _io.write_json(report, out_dir / "report.json")
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
        _io.write_json(timings, out_dir / "timings.json")

    stage("report", write_report)
    if cfg.emit_plots:
        stage("emit_plots", lambda: emit_plot_data(report, out_dir))
    return report


def emit_plot_data(report, out_dir) -> list[Path]:
    """Write tabular series for external figure rendering.

    ``report`` is the dict ``run_pipeline`` returns, or the path of its
    ``report.json``; a file that is not JSON, that holds a string UTF-8
    cannot encode, or that lacks a key or type a report has raises
    DataError naming it. ``venn_regions.csv`` holds one row per overlap
    region (metric names joined by ``&``); ``topk_bars.csv`` holds
    per-metric top-k bars.
    """
    path = "report"
    if isinstance(report, (str, Path)):
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
