"""Optimizer: local passes, liveness, dependence analysis, loop transforms."""

from .copyprop import propagate_copies
from .cse import eliminate_common_subexpressions
from .dataflow import (
    BlockFacts,
    facts_of,
    mask_of,
    solve_backward_masks,
    solve_backward_sets,
    unpack_solution,
)
from .dce import eliminate_dead_code
from .dependence import (
    ANTI,
    DependenceEdge,
    DependenceGraph,
    IO,
    MEMORY,
    OUTPUT,
    Subscript,
    TRUE,
    build_dependence_graph,
    classify_subscript,
    find_induction_register,
)
from .fold import fold_constants
from .gconst import propagate_constants_globally
from .inline import inline_calls_in_function, inline_calls_in_module
from .licm import hoist_loop_invariants
from .liveness import block_use_def, live_variables
from .pass_manager import PassManager, PassStats
from .simplify import simplify_control_flow
from .unroll import unroll_constant_loops

__all__ = [
    "ANTI",
    "BlockFacts",
    "DependenceEdge",
    "DependenceGraph",
    "IO",
    "MEMORY",
    "OUTPUT",
    "PassManager",
    "PassStats",
    "Subscript",
    "TRUE",
    "block_use_def",
    "build_dependence_graph",
    "classify_subscript",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "facts_of",
    "find_induction_register",
    "fold_constants",
    "hoist_loop_invariants",
    "inline_calls_in_function",
    "inline_calls_in_module",
    "live_variables",
    "mask_of",
    "propagate_constants_globally",
    "propagate_copies",
    "simplify_control_flow",
    "solve_backward_masks",
    "solve_backward_sets",
    "unpack_solution",
    "unroll_constant_loops",
]
