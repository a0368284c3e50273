"""The options of a compile, as one value: what both compilers take,
what a :class:`~repro.driver.function_master.FunctionTask` carries, what
the service keeps on a job and what the cache fingerprints hash — field
by field, so an option added here is salted without anyone remembering
to.  Its range checks are the only ones there are.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CompileOptions:
    opt_level: int = 2
    #: cells in the target array
    cell_count: int = 10
    #: variant-search codegen knobs (both 0 = the standard pipeline):
    #: full-unroll budget for constant-trip loops, and a cap on the
    #: modulo scheduler's initiation-interval search (1 disables
    #: pipelining)
    unroll_budget: int = 0
    ii_budget: int = 0

    def __post_init__(self):
        if self.opt_level not in (0, 1, 2):
            raise ValueError(f"opt_level must be 0..2, got {self.opt_level}")
        if self.cell_count < 1:
            raise ValueError(f"need at least one cell, got {self.cell_count}")
        if self.unroll_budget < 0 or self.ii_budget < 0:
            raise ValueError(
                f"budgets must be >= 0, got unroll={self.unroll_budget} "
                f"ii={self.ii_budget}"
            )
