"""Predictive compilation: a learned cost model plus watch-mode speculation.

Two halves, both feeding the compile service:

- :mod:`repro.predict.observe` — a persistent per-fingerprint store of
  observed compile times (a fifth :class:`~repro.cache.store.Store`
  tier) and :class:`LearnedCostModel`, an EWMA estimator the
  compile service asks once per task, as the task enters its queue; the
  answer replaces the static §4.3 ``window_cost_hint`` in the task's
  ``cost_hint``, which the fair-share queue, the LPT batch packer and
  the supervision deadlines read.  Unseen fingerprints keep the static
  hint.
- :mod:`repro.predict.watch` — watch-mode speculation: clients stream
  edited sources, the server fingerprints the module, diffs it against
  the previous snapshot, and precompiles the changed functions as
  ``batch``-priority jobs under a dedicated speculation tenant so the
  eventual interactive submit is mostly cache hits.

Neither half can change compile *results*: learned costs only reorder
dispatch (results are routed by (section, function) key), and
speculation only warms the ordinary content-addressed caches.
"""

from .observe import (
    LearnedCostModel,
    CostObservation,
    ObservationStore,
    task_fingerprint,
)
from .watch import SPECULATION_TENANT, SpeculationManager

__all__ = [
    "LearnedCostModel",
    "CostObservation",
    "ObservationStore",
    "SPECULATION_TENANT",
    "SpeculationManager",
    "task_fingerprint",
]
