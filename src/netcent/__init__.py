"""netcent: directed-graph centrality toolkit and spread-experiment pipeline."""

from .errors import (DataError, DegenerateBaseline, EmptyInput, InsufficientData,
                     InvalidNode, InvalidParameter, MissingAttribute, NetcentError,
                     NothingToEmit, ParseError, PipelineError, UndefinedCorrelation,
                     UsageError, ZeroMatrix)
from .generators import preferential_attachment, random_digraph
from .graph import (DIRECTIONS, ENDORSEMENT, INFO_FLOW, DirectedGraph,
                    InteractionRecord, Interactions, build_graph, from_edges)
from .novel import (DicConfig, MvcConfig, NodeAttributes, PcConfig, dic, mvc,
                    propagation_centrality)
from .ranking import (CorrelationResult, OverlapReport, RankingTable,
                      overlap_report, rank_correlation, top_k)
from .scores import METRICS, NOVEL_METRICS, TRADITIONAL_METRICS, ScoreVector
from .simulate import (CascadeConfig, InterventionResult, intervention_experiment,
                       metric_removal_set, spread_volume)
from .traditional import (PowerIterationConfig, betweenness_centrality,
                          closeness_centrality, degree_centrality,
                          eigenvector_centrality)

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph", "InteractionRecord", "Interactions", "build_graph",
    "from_edges",
    "INFO_FLOW", "ENDORSEMENT", "DIRECTIONS",
    "ScoreVector", "METRICS", "TRADITIONAL_METRICS", "NOVEL_METRICS",
    "degree_centrality", "closeness_centrality", "betweenness_centrality",
    "eigenvector_centrality", "PowerIterationConfig",
    "propagation_centrality", "mvc", "dic",
    "PcConfig", "MvcConfig", "DicConfig", "NodeAttributes",
    "top_k", "overlap_report", "rank_correlation",
    "RankingTable", "OverlapReport", "CorrelationResult",
    "CascadeConfig", "InterventionResult", "spread_volume",
    "intervention_experiment", "metric_removal_set",
    "preferential_attachment", "random_digraph",
    "NetcentError", "UsageError", "DataError", "EmptyInput", "ParseError",
    "InvalidNode", "InvalidParameter", "ZeroMatrix", "MissingAttribute",
    "InsufficientData", "UndefinedCorrelation", "DegenerateBaseline",
    "NothingToEmit", "PipelineError",
]
