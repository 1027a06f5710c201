"""In-memory spans around calls into netcent's modules, and the layer
metrics derived from them.

The traced run replaces public functions at the names their callers
look them up by: ``pipeline`` binds its metric and ranking functions at
import, so those are patched on ``netcent.pipeline``; ``pipeline`` and
``simulate`` reach ``io``, ``rng`` and ``DirectedGraph.remove_nodes``
by attribute lookup, so those are patched on their home module or class.
Each span records its name, start, end, parent and a few counts; spans
stay in memory and are exported when the run ends.
"""

from __future__ import annotations

import functools
import time

from workloads import csr_bytes

LAYERS = ("io", "graph", "traditional", "novel", "scores", "ranking",
          "simulate", "rng")
ROOT = "pipeline"


class Tracer:
    """Span recorder: rows of [name, start_ns, end_ns, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # the graph ingest built: spreads on it are baselines
        self.base_graph = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        """fn wrapped in a span; attrs(result, args, kwargs) -> dict of counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if attrs is not None:
                self.spans[idx][4] = attrs(result, args, kwargs)
            return result
        return traced


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _sources(sv, args, kwargs):
    # pivots when sampled, every node when exact
    return {"sources": sv.params.get("sample_size", sv.n)}


def _iterations(sv, args, kwargs):
    return {"iterations": sv.iterations_run}


def _graph_size(g):
    return {"nodes": g.n, "edges": g.num_edges}


def install(tracer: Tracer) -> None:
    """Patch the traced call sites, for a process that exits after the run."""
    import netcent.cli
    import netcent.graph
    import netcent.io
    import netcent.pipeline
    import netcent.rng
    import netcent.scores
    import netcent.simulate

    def built(g, args, kwargs):
        tracer.base_graph = g
        return _graph_size(g)

    def built_from_edges(g, args, kwargs):
        return {"rows": len(_arg(args, kwargs, 0, "edges")),
                **built(g, args, kwargs)}

    def spread(volume, args, kwargs):
        g = _arg(args, kwargs, 0, "g")
        cfg = _arg(args, kwargs, 1, "cfg")
        key = hash((g.labels, g.num_edges, cfg.seeds, cfg.model, cfg.p,
                    cfg.trials, cfg.seed, cfg.weight_scaled))
        out = {"key": key, "model": cfg.model,
               "role": "baseline" if g is tracer.base_graph else "treated"}
        if cfg.model == "independent_cascade":
            out["trials"] = cfg.trials
        return out

    sites = [
        (netcent.io, "read_interactions_csv", "io.parse",
         lambda recs, a, k: {"rows": len(recs)}),
        (netcent.io, "read_edge_csv", "io.parse", None),
        (netcent.io, "from_edges", "graph.build", built_from_edges),
        (netcent.io, "write_scores_csv", "io.write_scores", None),
        (netcent.io, "write_json", "io.write_json", None),
        (netcent.graph, "build_graph", "graph.build", built),
        (netcent.graph.DirectedGraph, "remove_nodes", "graph.remove_nodes", None),
        (netcent.pipeline, "degree_centrality", "traditional.degree", None),
        (netcent.pipeline, "closeness_centrality", "traditional.closeness",
         _sources),
        (netcent.pipeline, "betweenness_centrality", "traditional.betweenness",
         _sources),
        (netcent.pipeline, "eigenvector_centrality", "traditional.eigenvector",
         _iterations),
        (netcent.pipeline, "propagation_centrality", "novel.pc", _iterations),
        (netcent.pipeline, "mvc", "novel.mvc", None),
        (netcent.pipeline, "dic", "novel.dic", None),
        (netcent.scores.ScoreVector, "ordering", "scores.ordering", None),
        (netcent.pipeline, "top_k", "ranking.top_k", None),
        (netcent.pipeline, "overlap_report", "ranking.overlap", None),
        (netcent.pipeline, "metric_removal_set", "simulate.removal_set", None),
        (netcent.pipeline, "intervention_experiment", "simulate.intervention",
         None),
        (netcent.simulate, "spread_volume", "simulate.spread", spread),
        (netcent.rng, "trial_stream", "rng.trial_stream", None),
        (netcent.cli, "main", ROOT, None),
    ]
    for owner, attr, name, attrs in sites:
        setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], attrs))


def export(tracer: Tracer) -> list[dict]:
    return [{"name": n, "start_ns": s, "end_ns": e, "parent": p,
             "attrs": a or {}} for n, s, e, p, a in tracer.spans]


# -- layer metrics -----------------------------------------------------------

# name -> unit for every metric layer_metrics() returns, in report order
UNITS = {
    "io.parse_s": "s", "io.rows": "count", "io.write_scores_s": "s",
    "io.write_json_s": "s",
    "graph.build_s": "s", "graph.nodes": "count", "graph.edges": "count",
    "graph.rows_per_edge": "ratio", "graph.csr_bytes": "bytes",
    "graph.remove_nodes_s": "s",
    "traditional.degree_s": "s",
    "traditional.closeness_s": "s", "traditional.closeness_sources": "count",
    "traditional.closeness_ms_per_source": "ms",
    "traditional.betweenness_s": "s",
    "traditional.betweenness_sources": "count",
    "traditional.betweenness_ms_per_source": "ms",
    "traditional.eigenvector_s": "s",
    "traditional.eigenvector_iterations": "count",
    "novel.pc_s": "s", "novel.pc_iterations": "count", "novel.mvc_s": "s",
    "novel.dic_s": "s",
    "scores.ordering_s": "s", "scores.ordering_calls": "count",
    "ranking.top_k_s": "s", "ranking.top_k_calls": "count",
    "ranking.overlap_s": "s",
    "simulate.spread_s": "s", "simulate.spread_calls": "count",
    "simulate.useful_spread_ratio": "ratio", "simulate.baseline_s": "s",
    "simulate.treated_s": "s", "simulate.trials": "count",
    "simulate.trial_ms": "ms", "simulate.reach_s": "s",
    "simulate.removal_set_s": "s",
    "rng.trial_streams": "count", "rng.trial_stream_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "pipeline.self_s": "s",
    "trace.wall_s": "s", "trace.coverage": "ratio", "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers from one traced run's spans.

    ``<layer>.<function>_s`` is the total time of the calls into that
    function, nested calls included, except ``io.parse_s``, which leaves
    out the graph build nested in edge-list reading. ``<layer>.self_s``
    is time in the layer with nested spans removed; those and
    ``pipeline.self_s`` partition ``trace.wall_s``. ``trace.coverage`` is
    the share of the wall time the layer spans cover.
    """
    dur = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans]
    own = list(dur)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            own[s["parent"]] -= dur[i]

    def total(name, values=dur):
        return sum(v for s, v in zip(spans, values) if s["name"] == name)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def first_attr(name, key):
        return next((s["attrs"][key] for s in spans
                     if s["name"] == name and key in s["attrs"]), 0)

    def spread_time(where):
        return sum(d for s, d in zip(spans, dur)
                   if s["name"] == "simulate.spread" and where(s["attrs"]))

    wall = total(ROOT)
    nodes = first_attr("graph.build", "nodes")
    edges = first_attr("graph.build", "edges")
    rows = attr_sum("io.parse", "rows") + attr_sum("graph.build", "rows")
    closeness_sources = attr_sum("traditional.closeness", "sources")
    betweenness_sources = attr_sum("traditional.betweenness", "sources")
    spreads = [s["attrs"] for s in spans if s["name"] == "simulate.spread"]
    trials = sum(a.get("trials", 0) for a in spreads)
    ic_time = spread_time(lambda a: a["model"] == "independent_cascade")
    pipeline_self = total(ROOT, own)

    m = {
        "io.parse_s": total("io.parse", own),
        "io.rows": rows,
        "io.write_scores_s": total("io.write_scores"),
        "io.write_json_s": total("io.write_json"),
        "graph.build_s": total("graph.build"),
        "graph.nodes": nodes,
        "graph.edges": edges,
        "graph.rows_per_edge": rows / edges if edges else 0.0,
        "graph.csr_bytes": csr_bytes(nodes, edges) if nodes else 0,
        "graph.remove_nodes_s": total("graph.remove_nodes"),
        "traditional.degree_s": total("traditional.degree"),
        "traditional.closeness_s": total("traditional.closeness"),
        "traditional.closeness_sources": closeness_sources,
        "traditional.closeness_ms_per_source": (
            1e3 * total("traditional.closeness") / closeness_sources
            if closeness_sources else 0.0),
        "traditional.betweenness_s": total("traditional.betweenness"),
        "traditional.betweenness_sources": betweenness_sources,
        "traditional.betweenness_ms_per_source": (
            1e3 * total("traditional.betweenness") / betweenness_sources
            if betweenness_sources else 0.0),
        "traditional.eigenvector_s": total("traditional.eigenvector"),
        "traditional.eigenvector_iterations": attr_sum(
            "traditional.eigenvector", "iterations"),
        "novel.pc_s": total("novel.pc"),
        "novel.pc_iterations": attr_sum("novel.pc", "iterations"),
        "novel.mvc_s": total("novel.mvc"),
        "novel.dic_s": total("novel.dic"),
        "scores.ordering_s": total("scores.ordering"),
        "scores.ordering_calls": count("scores.ordering"),
        "ranking.top_k_s": total("ranking.top_k"),
        "ranking.top_k_calls": count("ranking.top_k"),
        "ranking.overlap_s": total("ranking.overlap"),
        "simulate.spread_s": total("simulate.spread"),
        "simulate.spread_calls": len(spreads),
        # distinct (graph, seed set, model) spreads per call; repeats are waste
        "simulate.useful_spread_ratio": (
            len({a["key"] for a in spreads}) / len(spreads) if spreads else 0.0),
        "simulate.baseline_s": spread_time(lambda a: a["role"] == "baseline"),
        "simulate.treated_s": spread_time(lambda a: a["role"] == "treated"),
        "simulate.trials": trials,
        "simulate.trial_ms": 1e3 * ic_time / trials if trials else 0.0,
        "simulate.reach_s": spread_time(lambda a: a["model"] == "reachability"),
        "simulate.removal_set_s": total("simulate.removal_set"),
        "rng.trial_streams": count("rng.trial_stream"),
        "rng.trial_stream_s": total("rng.trial_stream"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v for s, v in zip(spans, own) if s["name"].split(".")[0] == layer)
    m["pipeline.self_s"] = pipeline_self
    m["trace.wall_s"] = wall
    m["trace.coverage"] = 1.0 - pipeline_self / wall if wall else 0.0
    return m
