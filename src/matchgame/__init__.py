"""Exact solver, strategies, and invariant checks for the matching game.

Two players alternately add pairwise-disjoint edges of a graph to a
matching until it is maximal; Max wants the final matching large, Min
wants it small.  The package computes the game values for both
starting players, simulates scripted strategies, and checks the known
bounds over exhaustive and constructed corpora.
"""

from .cache import SOLVER_VERSION, CacheEntry, cache_get, cache_put
from .canon import are_isomorphic, canonical_certificate, canonical_form
from .corpus import (
    CorpusItem,
    connected_cubic_classes,
    corpus_from_spec,
    exhaustive_classes,
    random_forests,
    tree_classes,
)
from .families import FAMILIES, build_family
from .graph import Edge, Graph, GraphError, from_edges, induced_delete, residual
from .graph6 import Graph6Error
from .graph6 import emit as emit_graph6
from .graph6 import parse as parse_graph6
from .matching import (
    WitnessResult,
    compatibility_witness,
    covering_max_matching,
    is_maximal,
    matching_number,
    maximum_matching,
    min_maximal_matching,
    min_maximal_number,
)
from .solver import (
    DEFAULT_BUDGET,
    GameState,
    MemoBudgetError,
    Player,
    SolveResult,
    StrategyForfeit,
    Transcript,
    game_values,
    play,
    solve,
)
from .strategies import STRATEGIES, Strategy, make_strategy
from .verify import CHECKS, Report, Violation, run_check

__version__ = "0.1.0"

__all__ = [
    "CacheEntry", "cache_get", "cache_put", "SOLVER_VERSION",
    "canonical_certificate", "canonical_form", "are_isomorphic",
    "CorpusItem", "corpus_from_spec", "exhaustive_classes", "tree_classes",
    "connected_cubic_classes", "random_forests",
    "FAMILIES", "build_family",
    "Graph", "GraphError", "Edge", "from_edges", "residual", "induced_delete",
    "Graph6Error", "parse_graph6", "emit_graph6",
    "matching_number", "maximum_matching", "min_maximal_matching",
    "min_maximal_number", "is_maximal", "covering_max_matching",
    "compatibility_witness", "WitnessResult",
    "Player", "GameState", "SolveResult", "Transcript",
    "solve", "game_values", "play",
    "MemoBudgetError", "StrategyForfeit", "DEFAULT_BUDGET",
    "Strategy", "STRATEGIES", "make_strategy",
    "CHECKS", "run_check", "Report", "Violation",
]
