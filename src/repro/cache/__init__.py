"""Persistent function-level artifact cache (incremental compilation).

The paper's correctness argument — "function masters are pure: the same
task always produces the same object code" — makes phase-2/3 results
cacheable not just within a run (the warm farm's phase-1 LRU) but
*across* runs.  This package keys each function's compiled artifact by a
content fingerprint of everything that can influence phases 2 and 3
(:mod:`repro.cache.fingerprint`) and stores the result — a small
checked header and the object function in the serial form of
:mod:`repro.asmlink.encode` — in an on-disk, concurrency-safe,
size-bounded store (:mod:`repro.cache.store`).  The driver consults it
before dispatching tasks to a backend, so editing one function of a
module re-runs phases 2-3 for exactly that function.

A second tier (:mod:`repro.cache.parse_store`) does the same for phase
1: per-function parse+sema results keyed by span hash and sibling
signatures, so editing one function re-*parses* exactly that function
too.

A third tier (:mod:`repro.cache.link_store`) does the same for phase
4: per-section linked cell programs keyed by the ordered payload
digests of their object functions, plus one record per clean compile
keyed by its source text, so editing one function re-*links* exactly
one section and a no-edit recompile parses and links nothing.

A fourth tier (:mod:`repro.cache.variant_store`) memoizes the variant
search's simulated scores: per-(function, config, input set) cycle
counts and outputs, salted with the warpsim scoring schema so a timing
model change invalidates scores instead of flipping winners.
"""

from .fingerprint import (
    CACHE_SCHEMA_VERSION,
    compiler_salt,
    function_fingerprint,
    module_fingerprints,
)
from .link_store import (
    LINK_SCHEMA_VERSION,
    LinkCache,
    ModuleStore,
    SectionLinkStore,
    link_salt,
    module_link_key,
    section_link_key,
)
from .parse_store import (
    PARSE_SCHEMA_VERSION,
    ParseCache,
    parse_salt,
    signature_table_hash,
    window_key,
)
from .store import ArtifactCache, default_cache_dir
from .variant_store import (
    VariantScore,
    VariantStore,
    variant_key,
    variant_salt,
)

__all__ = [
    "ArtifactCache",
    "CACHE_SCHEMA_VERSION",
    "LINK_SCHEMA_VERSION",
    "LinkCache",
    "ModuleStore",
    "PARSE_SCHEMA_VERSION",
    "ParseCache",
    "SectionLinkStore",
    "VariantScore",
    "VariantStore",
    "compiler_salt",
    "default_cache_dir",
    "function_fingerprint",
    "link_salt",
    "module_fingerprints",
    "module_link_key",
    "parse_salt",
    "section_link_key",
    "variant_key",
    "variant_salt",
    "signature_table_hash",
    "window_key",
]
