"""The compiler's output does not depend on the interpreter's hash seed.

``FUClass`` and ``Opcode`` hash by identity and strings hash by a
per-process random seed, so any set or dict ordering that leaked into
code generation would show up as a digest or work-unit difference between
interpreters started with different ``PYTHONHASHSEED`` values.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import hashlib, json, tempfile
from repro import CompileOptions, ParallelCompiler, SequentialCompiler
from repro.cache import ArtifactCache, module_fingerprints
from repro.fabric.wire import decode_result, encode_result
from repro.driver.phases import phase1_parallel
from repro.parallel import SerialBackend, WarmPoolBackend
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.workloads.synthetic import synthetic_program
from repro.workloads.user_program import user_program
from repro.driver.master import function_tasks

programs = {
    "s2_medium": synthetic_program("medium", 2),
    "user_program": user_program(),
    "fz3": generate_program(3, config_for_size_class("large")).source,
    "fz9": generate_program(9, config_for_size_class("large")).source,
}
out = {}
for name, source in programs.items():
    result = SequentialCompiler().compile(source, name + ".w2")
    out[name] = {
        "digest": hashlib.sha256(result.digest.encode()).hexdigest(),
        "work_units": [
            [f.section_name, f.name, f.work_units]
            for f in result.profile.functions
        ],
    }

# Payload digests key the link tier: one that moved with the hash seed, or
# with who handed the result over, would turn link hits into silent misses.
def payload_digests(results):
    return sorted([r.section_name, r.function_name, r.payload_digest] for r in results)

with WarmPoolBackend(2) as pool, tempfile.TemporaryDirectory() as tmp:
    for name in ("s2_medium", "user_program"):
        parsed = phase1_parallel(programs[name])
        tasks = function_tasks(
            parsed, parsed.module.all_functions(), CompileOptions()
        )
        serial = list(SerialBackend().run_tasks_streaming(tasks))
        for index, result in enumerate(serial):
            ArtifactCache(tmp).put(f"{index:064x}", result)
        served = [ArtifactCache(tmp).get(f"{index:064x}") for index in range(len(serial))]
        digests = payload_digests(serial)
        assert len(digests) == len(tasks)
        assert digests == payload_digests(pool.run_tasks_streaming(tasks))
        assert digests == payload_digests(served)
        assert digests == payload_digests(
            decode_result(encode_result(r, "w0.0")) for r in serial
        )
        out[name]["payload_digests"] = digests
        # Fingerprints key the artifact tier; their input is an options
        # value hashed field by field, which must not move with the seed.
        out[name]["fingerprints"] = [
            sorted(module_fingerprints(parsed.module, options).values())
            for options in (
                CompileOptions(),
                CompileOptions(opt_level=1, cell_count=4, ii_budget=1),
            )
        ]
print(json.dumps(out, sort_keys=True))
"""


@functools.lru_cache(maxsize=None)
def outputs_per_seed():
    runs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", SCRIPT],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    outputs = []
    for run in runs:
        stdout, stderr = run.communicate(timeout=120)
        assert run.returncode == 0, stderr
        outputs.append(json.loads(stdout))
    return outputs


def test_digests_and_work_units_equal_across_hash_seeds():
    outputs = outputs_per_seed()
    assert set(outputs[0]) == {"s2_medium", "user_program", "fz3", "fz9"}
    assert all(fns["work_units"] for fns in outputs[0].values())
    assert outputs[0] == outputs[1] == outputs[2]


def test_payload_digests_equal_across_hash_seeds_and_origins():
    """Within each interpreter the script has already held serial,
    warm-pool, cache-served and wire-round-tripped results to one digest
    per function."""
    outputs = outputs_per_seed()
    for name in ("s2_medium", "user_program"):
        per_seed = [output[name]["payload_digests"] for output in outputs]
        assert per_seed[0] and per_seed[0] == per_seed[1] == per_seed[2]
        assert all(len(digest) == 64 for _, _, digest in per_seed[0])
        default, other = outputs[0][name]["fingerprints"]
        assert len(set(default)) == len(default) and not set(default) & set(other)
