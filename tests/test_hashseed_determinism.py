"""The compiler's output does not depend on the interpreter's hash seed.

``FUClass`` and ``Opcode`` hash by identity and strings hash by a
per-process random seed, so any set or dict ordering that leaked into
code generation would show up as a digest or work-unit difference between
interpreters started with different ``PYTHONHASHSEED`` values.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import hashlib, json
from repro import SequentialCompiler
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.workloads.synthetic import synthetic_program
from repro.workloads.user_program import user_program

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
print(json.dumps(out, sort_keys=True))
"""


def test_digests_and_work_units_equal_across_hash_seeds():
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
    assert set(outputs[0]) == {"s2_medium", "user_program", "fz3", "fz9"}
    assert all(fns["work_units"] for fns in outputs[0].values())
    assert outputs[0] == outputs[1] == outputs[2]
