"""Variant spaces: the config lattice the search explores.

A :class:`VariantConfig` is one point in the compiler's optimization
lattice — opt level × full-unroll budget × modulo-scheduling II budget,
exactly the knobs :func:`repro.codegen.compiler.compile_function`
exposes.  A :class:`VariantSpace` is an *ordered* tuple of configs; the
order matters twice:

- the **reference config** (index 0) defines the baseline the search
  measures against and the semantic signature every variant must match;
- ties on simulated cycles break toward the *earlier* config, so the
  winner — and therefore the output module digest — is a pure function
  of (source, space, inputs), never of timing or backend.

Configs serialize to compact keys (``o2u64i1``) used in cache keys,
reports, ``--space`` command lines, and JSON output.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, replace
from typing import Iterable, List, Sequence, Tuple

from ..options import CompileOptions

#: The standard pipeline: what ``warpcc compile`` produces today.
REFERENCE_KEY = "o2u0i0"

_KEY_RE = re.compile(r"^o(\d+)u(\d+)i(\d+)$")


@dataclass(frozen=True, order=True)
class VariantConfig:
    """One compiler configuration the search may try: a point in three
    of the five fields of :class:`~repro.options.CompileOptions`."""

    opt_level: int = 2
    unroll_budget: int = 0
    ii_budget: int = 0

    def __post_init__(self):
        self.options(CompileOptions())  # the range checks live there

    def options(self, base: CompileOptions) -> CompileOptions:
        """``base`` moved to this point of the space."""
        return replace(base, **asdict(self))

    def key(self) -> str:
        return f"o{self.opt_level}u{self.unroll_budget}i{self.ii_budget}"

    @property
    def is_reference(self) -> bool:
        return self.key() == REFERENCE_KEY

    @classmethod
    def from_key(cls, key: str) -> "VariantConfig":
        match = _KEY_RE.match(key.strip())
        if not match:
            raise ValueError(
                f"bad variant key {key!r} (want oNuNiN, e.g. 'o2u64i0')"
            )
        return cls(
            opt_level=int(match.group(1)),
            unroll_budget=int(match.group(2)),
            ii_budget=int(match.group(3)),
        )


REFERENCE_CONFIG = VariantConfig(2, 0, 0)


class VariantSpace:
    """An ordered, duplicate-free set of configs, reference first.

    The reference config is inserted at index 0 if the caller's list
    does not already contain it — the search cannot run without its
    baseline, and putting it first makes "prefer the standard pipeline
    on a tie" the automatic consequence of index-order tie-breaking.
    """

    def __init__(self, configs: Iterable[VariantConfig]):
        ordered: List[VariantConfig] = []
        seen = set()
        for config in configs:
            if not isinstance(config, VariantConfig):
                raise TypeError(
                    f"VariantSpace holds VariantConfig, got {type(config)!r}"
                )
            if config.key() in seen:
                continue
            seen.add(config.key())
            ordered.append(config)
        if not ordered:
            raise ValueError("a variant space needs at least one config")
        if REFERENCE_KEY not in seen:
            ordered.insert(0, REFERENCE_CONFIG)
        elif not ordered[0].is_reference:
            ordered.remove(REFERENCE_CONFIG)
            ordered.insert(0, REFERENCE_CONFIG)
        self.configs: Tuple[VariantConfig, ...] = tuple(ordered)

    def __iter__(self):
        return iter(self.configs)

    def __len__(self) -> int:
        return len(self.configs)

    def __getitem__(self, index: int) -> VariantConfig:
        return self.configs[index]

    @property
    def reference(self) -> VariantConfig:
        return self.configs[0]

    def keys(self) -> List[str]:
        return [config.key() for config in self.configs]

    def index_of(self, config: VariantConfig) -> int:
        return self.configs.index(config)

    def digest_text(self) -> str:
        """Canonical text form — part of the search's determinism story."""
        return ",".join(self.keys())

    @classmethod
    def from_keys(cls, keys: Sequence[str]) -> "VariantSpace":
        return cls(VariantConfig.from_key(key) for key in keys)

    @classmethod
    def parse(cls, spec: str) -> "VariantSpace":
        """Parse a ``--space`` argument: comma-separated config keys."""
        keys = [part for part in (p.strip() for p in spec.split(",")) if part]
        if not keys:
            raise ValueError("empty variant-space spec")
        return cls.from_keys(keys)

    def __repr__(self) -> str:
        return f"VariantSpace([{self.digest_text()}])"


def default_space() -> VariantSpace:
    """The stock lattice: small on purpose — each config costs one
    (cached) whole-module compile plus one simulation per function.

    - ``o2u0i0`` — the standard pipeline (reference);
    - ``o2u0i1`` — pipelining disabled: wins when a software-pipelined
      loop's fill/drain overhead exceeds its steady-state gain
      (short-trip loops);
    - ``o2u8i0`` / ``o2u64i0`` — full unrolling of constant-trip loops
      up to 8 / 64 iterations: trades code space for zero loop
      overhead and straight-line scheduling freedom;
    - ``o2u64i1`` — both: unrolled loops need no pipelining.
    """
    return VariantSpace(
        [
            REFERENCE_CONFIG,
            VariantConfig(2, 0, 1),
            VariantConfig(2, 8, 0),
            VariantConfig(2, 64, 0),
            VariantConfig(2, 64, 1),
        ]
    )
