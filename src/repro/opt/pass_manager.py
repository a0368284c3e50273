"""Pass manager: runs the optimization pipeline and accounts for its work.

Besides orchestrating the passes, the manager counts *work units* — the
number of instructions each pass visited.  Those counters are the
deterministic cost metric consumed by the workstation-cluster simulator:
the paper's observation that "optimizing compilers for supercomputers are
particularly slow" is, in our reproduction, a measured property of this
very pipeline rather than an assumed constant.

Every pass is handed the function's :class:`~repro.ir.cfg.Cfg`.  Inside
:meth:`PassManager.run` only simplify-cfg changes the CFG — gconst
rewrites a ``br`` operand, never a label; LICM inserts before a
preheader's terminator; DCE never removes a terminator — so the ``Cfg``
is replaced only after a simplify-cfg run that reports a change (or
level 0 cuts a block), and codegen takes the last, :attr:`PassManager.cfg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.cfg import Cfg, FunctionIR
from .copyprop import propagate_copies
from .cse import eliminate_common_subexpressions
from .dce import eliminate_dead_code
from .fold import fold_constants
from .gconst import propagate_constants_globally
from .licm import hoist_loop_invariants
from .simplify import simplify_control_flow

#: A pass takes a function and its CFG facts; returns how many changes.
PassFn = Callable[[FunctionIR, Cfg], int]

#: Level 2 stops after this many rounds even short of a fixpoint.
MAX_ROUNDS = 10

_PIPELINE: List[Tuple[str, PassFn]] = [
    ("simplify-cfg", simplify_control_flow),
    ("copy-propagation", propagate_copies),
    ("global-constant-propagation", propagate_constants_globally),
    ("constant-folding", fold_constants),
    ("local-cse", eliminate_common_subexpressions),
    ("loop-invariant-code-motion", hoist_loop_invariants),
    ("dead-code-elimination", eliminate_dead_code),
]


@dataclass
class PassStats:
    """Per-pass counters for one function's optimization."""

    runs: Dict[str, int] = field(default_factory=dict)
    changes: Dict[str, int] = field(default_factory=dict)
    instructions_visited: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0

    def record(self, name: str, changed: int, visited: int) -> None:
        self.runs[name] = self.runs.get(name, 0) + 1
        self.changes[name] = self.changes.get(name, 0) + changed
        self.instructions_visited[name] = (
            self.instructions_visited.get(name, 0) + visited
        )

    @property
    def total_changes(self) -> int:
        return sum(self.changes.values())

    @property
    def work_units(self) -> int:
        """Instructions visited across all pass executions."""
        return sum(self.instructions_visited.values())

    def merge(self, other: "PassStats") -> None:
        for name, count in other.runs.items():
            self.runs[name] = self.runs.get(name, 0) + count
        for name, count in other.changes.items():
            self.changes[name] = self.changes.get(name, 0) + count
        for name, count in other.instructions_visited.items():
            self.instructions_visited[name] = (
                self.instructions_visited.get(name, 0) + count
            )
        self.rounds += other.rounds


class PassManager:
    """Runs the local-optimization pipeline at a given optimization level.

    - level 0: no optimization (unreachable-block removal only);
    - level 1: a single round of the pipeline;
    - level 2: rounds until a fixpoint (at most :data:`MAX_ROUNDS`).
    """

    def __init__(self, opt_level: int = 2):
        if opt_level not in (0, 1, 2):
            raise ValueError(f"unsupported optimization level {opt_level}")
        self.opt_level = opt_level
        #: the function's CFG facts after the last :meth:`run`
        self.cfg: Optional[Cfg] = None

    def run(self, function: FunctionIR, cfg: Cfg) -> PassStats:
        stats = PassStats()
        if self.opt_level == 0:
            if function.remove_unreachable_blocks():
                cfg = Cfg(function)
            function.validate()
            self.cfg = cfg
            return stats
        limit = 1 if self.opt_level == 1 else MAX_ROUNDS
        for _ in range(limit):
            stats.rounds += 1
            round_changes = 0
            for name, pass_fn in _PIPELINE:
                visited = function.instruction_count()
                changed = pass_fn(function, cfg)
                if changed and name == "simplify-cfg":
                    cfg = Cfg(function)
                stats.record(name, changed, visited)
                round_changes += changed
            if round_changes == 0:
                break
        function.validate()
        self.cfg = cfg
        return stats
