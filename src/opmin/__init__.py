"""Operation-count minimization for multivariate expressions.

Pipeline: parse -> Horner scheme -> shared DAG -> pair elimination -> count.
Scheme orders are searched with MCTS using UCT or SA-UCT selection; sweeps
over the exploration constant quantify how forgiving each criterion is.
"""

from .expr import (
    AtomTable,
    Expression,
    OpCount,
    ParseError,
    Term,
    eval_mod_p,
    naive_op_count,
    parse,
    to_string,
    variables,
)
from .horner import (
    Direction,
    Scheme,
    apply_scheme,
    effective_order,
    occurrence_order,
    scheme_from_string,
    scheme_to_string,
    tree_op_count,
)
from .cse import (
    Dag,
    DeltaScorer,
    SimplifyResult,
    build_dag,
    dag_listing,
    dag_op_count,
    eval_dag_mod_p,
    simplify,
)
from .mcts import (
    Criterion,
    SearchParams,
    SearchResult,
    brute_force_search,
    search,
)
from .benchgen import PRESETS, RandomExprParams, preset_expr, random_expr, resultant_expr
from .sweep import SweepConfig, SweepRow, analyze_rows, run_sweep

__all__ = [
    "AtomTable",
    "Expression",
    "OpCount",
    "ParseError",
    "Term",
    "eval_mod_p",
    "naive_op_count",
    "parse",
    "to_string",
    "variables",
    "Direction",
    "Scheme",
    "apply_scheme",
    "effective_order",
    "occurrence_order",
    "scheme_from_string",
    "scheme_to_string",
    "tree_op_count",
    "Dag",
    "SimplifyResult",
    "build_dag",
    "dag_listing",
    "dag_op_count",
    "eval_dag_mod_p",
    "simplify",
    "Criterion",
    "SearchParams",
    "SearchResult",
    "brute_force_search",
    "search",
    "DeltaScorer",
    "PRESETS",
    "RandomExprParams",
    "preset_expr",
    "random_expr",
    "resultant_expr",
    "SweepConfig",
    "SweepRow",
    "analyze_rows",
    "run_sweep",
]

__version__ = "0.1.0"
