"""Per-node score vectors produced by every centrality metric."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
import numpy as np

from .errors import InvalidParameter
from .graph import check_utf8

METRICS = (
    "degree_in", "degree_out", "degree_total",
    "closeness", "betweenness", "eigenvector",
    "pc", "mvc", "dic",
)

TRADITIONAL_METRICS = frozenset(
    {"degree_in", "degree_out", "degree_total",
     "closeness", "betweenness", "eigenvector"})
NOVEL_METRICS = frozenset({"pc", "mvc", "dic"})


@dataclass
class ScoreVector:
    """Scores for one metric over one graph's nodes.

    ``labels[i]`` names node i, in ascending label order as in
    :class:`~netcent.graph.DirectedGraph`; labels given in another order
    are sorted together with their scores. ``params`` records every
    parameter that influenced the values (damping, tolerance, seed, ...)
    so results are reproducible from the metadata alone.
    """

    metric: str
    labels: tuple[str, ...]
    scores: np.ndarray
    params: dict = field(default_factory=dict)
    iterations_run: int = 0
    normalised: bool = False

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.labels),):
            raise InvalidParameter("score vector length must equal node count")
        if self.scores.size and not np.all(np.isfinite(self.scores)):
            raise InvalidParameter("scores must be finite")
        self.labels = tuple(self.labels)
        check_utf8(self.labels)
        if any(map(operator.gt, self.labels, self.labels[1:])):
            order = sorted(range(self.n), key=self.labels.__getitem__)
            self.labels = tuple(map(self.labels.__getitem__, order))
            self.scores = self.scores[order]

    @property
    def n(self) -> int:
        return len(self.labels)

    def ordering(self) -> np.ndarray:
        """Node indices sorted by descending score, ties by ascending label."""
        return np.argsort(-self.scores, kind="stable")


def min_max(values: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0, 1]; an all-equal vector maps to all zeros."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)
