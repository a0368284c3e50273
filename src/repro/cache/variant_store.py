"""Fourth cache tier: measured variant scores (the search's memory).

Variant search is compile-bound *and* simulate-bound: every candidate
config costs a phase-2/3 compile (amortized by the artifact cache) plus
a warpsim run over the scoring inputs.  This tier memoizes the second
half.  A score is keyed by

- the **variant salt** — compiler version, artifact-cache schema, and
  the warpsim :data:`~repro.warpsim.scoring.SCORING_SCHEMA_VERSION`, so
  a timing-model change invalidates every cached score rather than
  silently flipping winners;
- the **function fingerprint** at the *reference* config — identifying
  the function body and its placement, not the knobs;
- the **config key** (``o2u64i1``-style) being measured;
- the **input-set digest** of the scoring inputs.

The stored :class:`VariantScore` records the summed simulated cycles,
the observed outputs (so a cached score still participates in the
semantic check against the baseline), and the error classification for
variants that failed to simulate.

Scores are measured with the candidate swapped into the *baseline*
module; the key does not capture the other functions' code.  That is an
approximation the search compensates for: the final winner module is
always re-simulated end-to-end before shipping, so a stale or even
poisoned score can cost a wasted measurement, never a wrong or slower
module.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .fingerprint import compiler_salt
from .store import FactsCodec, Store

Number = Union[int, float]


def variant_salt() -> str:
    """Everything global that can change a variant's measured score."""
    from ..warpsim.scoring import SCORING_SCHEMA_VERSION

    return f"{compiler_salt()}+sim{SCORING_SCHEMA_VERSION}"


def variant_key(
    base_fingerprint: str, config_key: str, input_digest: str
) -> str:
    """Content key for one (function, config, input set) measurement."""
    h = hashlib.sha256()
    for part in (variant_salt(), base_fingerprint, config_key, input_digest):
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


@dataclass
class VariantScore:
    """One measured variant: cycles + outputs, or a classified failure."""

    config_key: str
    cycles: Optional[int]
    outputs: Optional[Tuple[Tuple[Number, ...], ...]]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.cycles is not None


class VariantStore(Store):
    """Persistent store of variant scores (``variants/`` tier); a score
    is numbers, strings and tuples of numbers, so an entry is its header
    (``outputs`` come back as tuples, ints and floats kept apart)."""

    SUBDIR = "variants"
    SCHEMA = 2  # 2: header facts with an empty body (1 was a pickle)
    codec = FactsCodec(VariantScore)
