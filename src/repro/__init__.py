"""repro: Parallel Compilation for a Parallel Machine (PLDI 1989).

A full reimplementation of the Gross/Zobel/Zolg parallel Warp compiler:

- :mod:`repro.lang` — the W2-like source language (lexer, parser, sema)
- :mod:`repro.ir` / :mod:`repro.opt` — IR, flowgraph, optimizer (phase 2)
- :mod:`repro.codegen` — software pipelining + VLIW scheduling (phase 3)
- :mod:`repro.asmlink` — assembler, linker, download modules (phase 4)
- :mod:`repro.warpsim` — functional simulator for the Warp array
- :mod:`repro.driver` — sequential and parallel compiler drivers
  (both take one :class:`~repro.options.CompileOptions`)
- :mod:`repro.parallel` — execution backends (serial, multiprocessing)
- :mod:`repro.cache` — persistent function-level artifact cache
- :mod:`repro.cluster` — discrete-event workstation-network simulator
- :mod:`repro.workloads` — the paper's synthetic and user programs
- :mod:`repro.metrics` — speedup and overhead accounting (§4)

Quick start::

    from repro import SequentialCompiler, ParallelCompiler
    result = SequentialCompiler().compile(source_text)
"""

from .cluster import ClusterSimulation, ClusterCostModel
from .driver import ParallelCompiler, SequentialCompiler
from .machine import WarpArrayModel, WarpCellModel
from .options import CompileOptions
from .warpsim import run_module

__version__ = "1.0.0"

from .cache import ArtifactCache  # noqa: E402 (needs __version__ for salts)

__all__ = [
    "ArtifactCache",
    "ClusterSimulation",
    "ClusterCostModel",
    "CompileOptions",
    "ParallelCompiler",
    "SequentialCompiler",
    "WarpArrayModel",
    "WarpCellModel",
    "run_module",
    "__version__",
]
