#!/usr/bin/env python3
"""Host-free counter guards over the end-to-end smoke run.

    python scripts/e2e_counters.py [benchmarks/out/e2e/smoke/e2e.seed7.json]

Counts from the smoke run's traced legs (``python -m pytest
benchmarks/e2e/test_smoke.py`` writes the file), so they do not depend
on the runner's speed.  The II search starts at the recurrence bound: 13
of cold_loopnest's 43 attempts succeed (0.30; a climb from ResMII read
0.019), and no workload may take a fallback.  warm_edit's leg makes 36
cache lookups of which 20 hit — which lookups happen is part of the
design, so the share is pinned exactly.  The leg is a fill, two
one-edit compiles and three no-edit compiles of a 4-function,
1-section module.  The fill misses 10 times: the module record, 4
parse entries, 4 artifacts, 1 section program.  A one-edit compile
makes the same 10 lookups and hits 7: its record misses, 3 of each 4
parse entries and artifacts hit, and so does the section program (the
session's edits leave the object code as it was).  A no-edit compile
is 2 lookups, both hits: the record and its one section program (it
was 17 before the module record was keyed by the source text: 8 parse
entries, 8 artifacts, the module).  Hits 2*7 + 3*2 = 20 of
10 + 2*10 + 3*2 = 36.  The leg leaves 58,596 bytes on disk (96,567
while a parse entry also held its tree and scope, pickled; 85,911
while it stored neither its facts nor its fingerprint text,
the text being most of the growth; 141,186
while a parse entry's nodes held ``Span`` and ``Position`` objects
instead of offset pairs; 142,068
while a function's report carried two variant-search fields; 143,940
while it also carried four cache-telemetry counts; 144,480
while a parse entry also stored its window's base position and
filename; 152,780 while the module tier stored whole modules; pickled
entries: 378,352), held under a ceiling.  serve_mix's 26
tasks send back 94,930 bytes of results (95,892 with the search
fields on each report, 97,894 with the telemetry too) — a result is
its encoded code and a few flat fields (as pickled object graphs: 539,834) — also held
under a ceiling.

The work the two cold workloads do is pinned exactly (``WORK``): tokens
lexed, IR instructions lowered, optimizer rounds, pass runs, changes,
instructions visited and instructions left, bundles emitted, the sum of
initiation intervals, modulo-scheduling attempts, loops pipelined and
spill slots.  ``FunctionReport.work_units`` — what the
paper's figures are drawn from — are built from these counts, so a
faster optimizer or lexer leaves them all where they are; a change that
moves one must say why, here.  No timing enters this file.

Exit status 1 when any guard fails.
"""

import json
import sys

SMOKE = "benchmarks/out/e2e/smoke/e2e.seed7.json"

#: workload -> per-layer count -> its value in the smoke run
WORK = {
    "cold_branchy": {
        "lang.tokens": 6591,
        "ir.instructions": 1910,
        "opt.rounds": 38,
        "opt.pass_runs": 266,
        "opt.changes": 1582,
        "opt.instructions_visited": 30686,
        "opt.ir_after": 1229,
        "codegen.bundles": 3318,
        "codegen.ii_sum": 183,
        "codegen.modulo_attempts": 12,
        "codegen.pipelined_loops": 7,
        "codegen.spill_slots": 0,
    },
    "cold_loopnest": {
        "lang.tokens": 1550,
        "ir.instructions": 652,
        "opt.rounds": 9,
        "opt.pass_runs": 63,
        "opt.changes": 330,
        "opt.instructions_visited": 12362,
        "opt.ir_after": 542,
        "codegen.bundles": 3005,
        "codegen.ii_sum": 815,
        "codegen.modulo_attempts": 43,
        "codegen.pipelined_loops": 13,
        "codegen.spill_slots": 0,
    },
}


def main(path: str = SMOKE) -> int:
    with open(path) as handle:
        workloads = json.load(handle)["workloads"]
    layer = lambda name, metric: workloads[name]["per_layer"][metric]["value"]
    share = layer("cold_loopnest", "codegen.modulo_success_share")
    fallbacks = {name: layer(name, "driver.fallbacks") for name in workloads}
    print(f"cold_loopnest codegen.modulo_success_share = {share:.3f} (floor 0.20)")
    print(f"driver.fallbacks = {fallbacks}")
    hit_share = layer("warm_edit", "cache.hit_share")
    on_disk = layer("warm_edit", "cache.bytes_on_disk")
    print(f"warm_edit cache.hit_share = {hit_share!r} (exactly 20/36)")
    print(f"warm_edit cache.bytes_on_disk = {on_disk:.0f} (ceiling 191700)")
    result_bytes = layer("serve_mix", "parallel.result_bytes")
    print(f"serve_mix parallel.result_bytes = {result_bytes:.0f} (ceiling 135000)")
    moved = [
        f"{name} {metric} = {layer(name, metric):.0f} (pinned {pinned})"
        for name, pins in WORK.items()
        for metric, pinned in pins.items()
        if layer(name, metric) != pinned
    ]
    print(f"work counts moved: {moved or 'none'}")
    return int(
        bool(moved)
        or share < 0.20
        or any(fallbacks.values())
        or hit_share != 20 / 36
        or on_disk > 191_700
        or result_bytes > 135_000
    )


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
