"""Predictive compilation: watch-mode speculation.

:mod:`repro.predict.watch` — clients stream edited sources, the server
fingerprints the module, diffs it against the previous snapshot, and
precompiles the changed functions as ``batch``-priority jobs under a
dedicated speculation tenant so the eventual interactive submit is
mostly cache hits.

Speculation cannot change compile *results*: it only warms the
ordinary content-addressed caches.
"""

from .watch import SPECULATION_TENANT, SpeculationManager

__all__ = [
    "SPECULATION_TENANT",
    "SpeculationManager",
]
