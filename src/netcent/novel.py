"""Misinformation-oriented centralities: PC, MVC, and DIC.

Propagation centrality (PC) is a damped PageRank-style steady state on
the influence-direction graph. Misinformation vulnerability centrality
(MVC) amplifies an initial per-node vulnerability by the node's exposure
degree raised to the step count; it is evaluated in the log domain
because ``degree**T`` overflows at realistic degrees, which changes no
ranking. Dynamic influence centrality (DIC) runs the cumulative
recurrence s_{t+1} = (I + A^T) s_t from an all-ones start with per-step
max rescaling (rank-preserving for a homogeneous linear recurrence) and
a final min-max.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng as _rng
from .errors import InvalidParameter, MissingAttribute
from .graph import ENDORSEMENT, INFO_FLOW, DirectedGraph
from .io import attribute_fault, read_attributes_csv
from .scores import ScoreVector, min_max
from .traditional import PowerIterationConfig, power_iterate

EXPOSURE_MODES = ("in_degree", "out_degree", "total_degree")
MVC_INITS = ("seeded_uniform", "attribute")


@dataclass
class NodeAttributes:
    """Optional per-node reals keyed by column name then node label.

    Every value must be finite, and known columns carry range checks
    (``io.ATTRIBUTE_BOUNDS``): ``vulnerability_0`` must lie in [0, 1];
    ``retweet_count`` and ``emotion_word_count`` must be non-negative.
    Arbitrary extra columns are allowed for custom proxies.
    ``from_csv`` checks each cell at its file line.
    """

    columns: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        for col, values in self.columns.items():
            for node, value in values.items():
                fault = attribute_fault(col, value)
                if fault:
                    raise InvalidParameter(
                        f"attribute {col}={value} for node {node!r} {fault}")

    def column(self, name: str) -> dict[str, float]:
        return self.columns.get(name, {})

    @classmethod
    def from_csv(cls, path) -> "NodeAttributes":
        return cls(columns=read_attributes_csv(path))


@dataclass
class PcConfig(PowerIterationConfig):
    damping: float = 0.85
    weighted: bool = False
    # None resolves from the graph's direction metadata: rank runs on the
    # endorsement orientation so resharing confers influence
    reverse: bool | None = None

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.damping < 1.0:
            raise InvalidParameter("damping must be in (0, 1)")


@dataclass
class MvcConfig:
    init: str = "seeded_uniform"
    seed: int | None = None
    attribute: str = "vulnerability_0"
    steps: int = 5
    exposure_mode: str = "in_degree"

    def __post_init__(self):
        if self.init not in MVC_INITS:
            raise InvalidParameter(f"mvc init must be one of {MVC_INITS}")
        if self.exposure_mode not in EXPOSURE_MODES:
            raise InvalidParameter(f"exposure mode must be one of {EXPOSURE_MODES}")
        if self.steps < 1:
            raise InvalidParameter("steps must be >= 1")


@dataclass
class DicConfig:
    steps: int = 10
    # None resolves from the graph's direction metadata: accumulation runs
    # on the info-flow orientation so influence travels with information;
    # True/False force the transpose / stored orientation
    reverse: bool | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise InvalidParameter("steps must be >= 1")


def propagation_centrality(g: DirectedGraph,
                           cfg: PcConfig | None = None) -> ScoreVector:
    """Damped steady-state influence scores (PageRank fixed point).

    Initialised uniformly at 1/n and iterated until the L1 change drops
    below tolerance. Dangling-node mass is redistributed uniformly each
    step, which keeps the scores summing to 1 and preserves convergence.
    Unweighted by default (mass splits over out-degree); the weighted
    flag splits mass proportionally to edge weight instead.
    """
    cfg = cfg or PcConfig()
    reverse = (g.direction == INFO_FLOW) if cfg.reverse is None else cfg.reverse
    h = g.transpose() if reverse else g
    n = h.n
    # h's edges grouped by target, as eigenvector_centrality reads them
    edst, esrc, ew = h.transpose().edge_arrays()
    outdeg = h.out_degrees().astype(np.float64)
    dangling = outdeg == 0.0
    if cfg.weighted:
        out_wsum = np.bincount(esrc, weights=ew, minlength=n)
        edge_frac = ew / out_wsum[esrc] if esrc.size else ew
    else:
        edge_frac = 1.0 / outdeg[esrc] if esrc.size else np.empty(0)

    d = cfg.damping

    def step(x):
        inflow = np.bincount(edst, weights=x[esrc] * edge_frac, minlength=n)
        loose = float(x[dangling].sum())
        return (1.0 - d) / n + d * (inflow + loose / n)

    x, iterations, _, converged = power_iterate(step, np.full(n, 1.0 / n),
                                                cfg, "pc")
    params = {**asdict(cfg), "reverse": reverse, "converged": converged}
    return ScoreVector(metric="pc", labels=g.labels, scores=x, params=params,
                       iterations_run=iterations)


def _exposure(g: DirectedGraph, mode: str) -> np.ndarray:
    # exposure counts sources that can reach a node, i.e. in-degree in the
    # info-flow orientation, whatever orientation the graph is stored in
    base = g if g.direction == INFO_FLOW else g.transpose()
    if mode == "in_degree":
        return base.in_degrees().astype(np.float64)
    if mode == "out_degree":
        return base.out_degrees().astype(np.float64)
    return (base.in_degrees() + base.out_degrees()).astype(np.float64)


def _initial_vulnerability(g, attrs, cfg) -> np.ndarray:
    if cfg.init == "seeded_uniform":
        if cfg.seed is None:
            raise InvalidParameter("seeded_uniform init requires a seed")
        # one counter-based stream: draw i belongs to node id i, and ids
        # are sorted-label indices, so draws are construction-order free
        return _rng.stream(cfg.seed).random(g.n)
    column = (attrs or NodeAttributes()).column(cfg.attribute)
    vul0 = np.empty(g.n)
    for i, label in enumerate(g.labels):
        if label not in column:
            raise MissingAttribute(label, column=cfg.attribute)
        vul0[i] = column[label]
    if np.any(vul0 < 0) or not np.all(np.isfinite(vul0)):
        raise InvalidParameter("initial vulnerabilities must be finite and >= 0")
    return vul0


def mvc(g: DirectedGraph, attrs: NodeAttributes | None = None,
        cfg: MvcConfig | None = None) -> ScoreVector:
    """Exposure-amplified vulnerability, min-max normalised to [0, 1].

    Closed form: vul_T(v) = exposure(v)**T * vul_0(v), evaluated as
    T*log(exposure) + log(vul_0) to stay finite. Nodes with zero
    exposure or zero initial vulnerability score exactly 0 and act as
    the raw minimum of the min-max, exactly as in the literal
    recurrence, so the final ranking matches it too.
    """
    cfg = cfg or MvcConfig()
    exposure = _exposure(g, cfg.exposure_mode)
    vul0 = _initial_vulnerability(g, attrs, cfg)

    scores = np.zeros(g.n)
    alive = (exposure > 0) & (vul0 > 0)
    if alive.any():
        logv = cfg.steps * np.log(exposure[alive]) + np.log(vul0[alive])
        hi = float(logv.max())
        if not alive.all():
            # pinned zeros are the raw minimum, so raw min-max reduces to
            # division by the maximum: exp(log v - log max) lands in (0, 1]
            # and no live node can collapse onto the zero class
            scores[alive] = np.exp(logv - hi)
        else:
            lo = float(logv.min())
            if hi > lo:
                # raw min-max (v - min)/(max - min), evaluated stably
                low_frac = np.exp(lo - hi)
                scores[alive] = (np.exp(logv - hi) - low_frac) / (1.0 - low_frac)

    params = {"steps": cfg.steps, "exposure_mode": cfg.exposure_mode,
              "init": cfg.init, "evaluation": "log_domain"}
    if cfg.init == "seeded_uniform":
        params["seed"] = cfg.seed
    else:
        params["attribute"] = cfg.attribute
    return ScoreVector(metric="mvc", labels=g.labels, scores=scores,
                       params=params, iterations_run=cfg.steps,
                       normalised=True)


def _dic_iterate(g: DirectedGraph, steps: int,
                 reverse: bool | None = None) -> np.ndarray:
    """Per-step max-rescaled cumulative influence vector (before min-max)."""
    if reverse is None:
        reverse = g.direction == ENDORSEMENT
    n = g.n
    # the edges grouped by target, as eigenvector_centrality reads them
    edst, esrc, _ = (g if reverse else g.transpose()).edge_arrays()
    s = np.ones(n)
    for _ in range(steps):
        received = np.bincount(edst, weights=s[esrc], minlength=n)
        s = s + received
        s /= s.max()
    return s


def dic(g: DirectedGraph, cfg: DicConfig | None = None) -> ScoreVector:
    """Cumulative influence after T accumulation steps, min-max normalised.

    Each step adds the influence of incoming neighbours, per the
    recurrence s_{t+1} = (I + A^T) s_t on the stored info-flow graph, so
    influence travels with information; set ``reverse`` to accumulate on
    the transpose. The vector is rescaled by its maximum every step to
    avoid overflow without touching the ranking.
    """
    cfg = cfg or DicConfig()
    reverse = (g.direction == ENDORSEMENT) if cfg.reverse is None else cfg.reverse
    s = _dic_iterate(g, cfg.steps, reverse)
    params = {"steps": cfg.steps, "reverse": reverse,
              "per_step_rescale": "max", "final": "min_max"}
    return ScoreVector(metric="dic", labels=g.labels, scores=min_max(s),
                       params=params, iterations_run=cfg.steps,
                       normalised=True)
