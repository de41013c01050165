"""Operation-count minimization for multivariate expressions.

Pipeline: parse -> Horner scheme -> shared DAG -> pair elimination -> count.
Scheme orders are searched with MCTS using UCT or SA-UCT selection; sweeps
over the exploration constant quantify how forgiving each criterion is.
"""

from .expr import (
    Atom,
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
    Const,
    Direction,
    Power,
    Product,
    Scheme,
    Sum,
    Var,
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
    eliminate_pairs,
    eval_dag_mod_p,
    simplify,
)
from .mcts import (
    Schedule,
    SearchParams,
    SearchResult,
    brute_force_search,
    repeat_search,
    search,
    temperature,
)
from .benchgen import PRESETS, RandomExprParams, preset_expr, random_expr, resultant_expr
from .sweep import SweepConfig, SweepRow, analyze_rows, roi_width, run_sweep

__all__ = [
    "Atom",
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
    "Const",
    "Direction",
    "Power",
    "Product",
    "Scheme",
    "Sum",
    "Var",
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
    "eliminate_pairs",
    "eval_dag_mod_p",
    "simplify",
    "Schedule",
    "SearchParams",
    "SearchResult",
    "brute_force_search",
    "repeat_search",
    "search",
    "temperature",
    "DeltaScorer",
    "PRESETS",
    "RandomExprParams",
    "preset_expr",
    "random_expr",
    "resultant_expr",
    "SweepConfig",
    "SweepRow",
    "analyze_rows",
    "roi_width",
    "run_sweep",
]

__version__ = "0.1.0"
