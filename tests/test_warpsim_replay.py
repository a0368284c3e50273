"""Exact replay of recorded warpsim runs.

``tests/fixtures/warpsim_runs.json`` holds, for every case below, what
one simulator run produced: the cycle count, the outputs (floats as
``float.hex``, so ``-0.0`` and the last bit count), each cell's
``bundles_executed`` / ``stall_cycles`` / ``busy_cycles`` and the input
left over — or the ``repr`` of the error it raised.  The cases are the
benchmark's probe programs, ``examples/search_kernel.w2``, the fuzz
corpus, generator seeds at ``small`` and ``large``, compiled programs
that trap, starve or hit the cycle ceiling, and hand-built bundles for
the traps and timing corners a compiler never emits.

A compiled case also records its module digest, so a compiler change
shows as a digest failure, not as a simulator one.  The fixture is
written by the simulator it is meant to hold fixed; rewrite it only
with a deliberate timing change (and a ``SCORING_SCHEMA_VERSION`` bump)::

    PYTHONPATH=src:tests python tests/test_warpsim_replay.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict

import pytest

from helpers import wrap_function
from repro import CompileOptions
from repro.asmlink.objformat import (
    AssembledFunction,
    Bundle,
    CellProgram,
    DownloadModule,
    MachineOp,
)
from repro.driver.sequential import SequentialCompiler
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.ir.instructions import Opcode
from repro.machine.resources import FUClass, PhysReg
from repro.machine.warp_array import WarpArrayModel
from repro.machine.warp_cell import WarpCellModel
from repro.warpsim.array_runner import run_module
from repro.workloads import lines_for, synthetic_function

TESTS = Path(__file__).parent
FIXTURE = TESTS / "fixtures" / "warpsim_runs.json"

#: name -> () -> (module, inputs, array, max_cycles, digest or None)
CASES: Dict[str, Callable[[], tuple]] = {}


def compiled(name, source, inputs, max_cycles=1_000_000, opt_level=2):
    def build():
        options = CompileOptions(opt_level=opt_level)
        result = SequentialCompiler(options).compile(source)
        return result.download, inputs, None, max_cycles, result.digest

    CASES[name] = build


def kernel_probe(kernels: int) -> str:
    """The e2e benchmark's probe: ``kernels`` f_small loop nests and a
    ``main`` that sends the sum of their results on x and y."""
    names = [f"k{i + 1}" for i in range(kernels)]
    functions = "\n".join(
        synthetic_function(name, lines_for("small")) for name in names
    )
    total = " + ".join(f"{name}(x, y)" for name in names)
    main = (
        "  function main()\n  var x, y, s: float;\n  begin\n"
        "    receive(x);\n    receive(y);\n"
        f"    s := {total};\n    send(s);\n  end"
    )
    return (
        "module kernel_probe\nsection sec1 (cells 0..0)\n"
        f"{functions}\n{main}\nend\nend\n"
    )


def generated(size_class: str, seed: int, name=None, **kw) -> None:
    program = generate_program(seed, config_for_size_class(size_class))
    name = name or f"{size_class}_{seed}"
    compiled(name, program.source, program.inputs(), **kw)


# -- compiled programs -----------------------------------------------------

compiled("kernel_probe4", kernel_probe(4), [1.25, -0.5])
compiled("kernel_probe1_o0", kernel_probe(1), [2.0, 3.5], opt_level=0)
for _seed in (1, 2, 3, 4, 8, 19, 20, 33, 58):  # 2 .. 58: the benchmark's
    generated("large", _seed)
for _seed in range(1, 31):
    generated("small", _seed)

_KERNEL = (TESTS.parent / "examples" / "search_kernel.w2").read_text()
compiled("search_kernel", _KERNEL, [1.5, -2.25, 0.5, 3.0])
compiled("search_kernel_o0", _KERNEL, [0.75, 4.0, -1.0, 2.5], opt_level=0)

for _path in sorted((TESTS / "corpus").glob("fuzz_*.json")):
    _entry = json.loads(_path.read_text())
    compiled(f"corpus_{_path.stem}", _entry["source"], _entry["inputs"])


def _main(body: str) -> str:
    return wrap_function(f"  function main()\n{body}")


compiled("trap_sqrt", _main(
    "  var x: float;\n  begin\n    receive(x);\n    send(sqrt(x));\n  end"
), [-1.0])
compiled("trap_div_zero", _main(
    "  var x: float; n, m: int;\n  begin\n    receive(x);\n    n := 7;\n"
    "    x := x + n / m;\n    send(x);\n  end"
), [1.0])
compiled("trap_store_range", _main(
    "  var x: float; n: int; a: array[8] of float;\n  begin\n"
    "    receive(x);\n    n := 40000;\n    a[n] := x;\n    send(x);\n  end"
), [1.0])
compiled("trap_load_range", _main(
    "  var x: float; n: int; a: array[8] of float;\n  begin\n"
    "    receive(x);\n    n := 0 - 40000;\n    x := a[n];\n    send(x);\n  end"
), [1.0])
compiled("deadlock_no_input", kernel_probe(1), [])
compiled("deadlock_short_input", _KERNEL, [1.0, 2.0, 3.0])
compiled("leftover_input", _KERNEL, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
compiled("ceiling_kernel", kernel_probe(1), [1.0, 2.0], max_cycles=3000)
generated("large", 19, name="ceiling_large_19", max_cycles=5000)

# -- hand-built bundles ----------------------------------------------------

R0, R1, R2 = PhysReg("i", 0), PhysReg("i", 1), PhysReg("i", 2)
F0, F1 = PhysReg("f", 0), PhysReg("f", 1)
INF = float("inf")


def op(opcode, dest=None, operands=(), latency=1, fu=None, **kw):
    if fu is None:
        fu = {
            Opcode.LOAD: FUClass.MEM, Opcode.STORE: FUClass.MEM,
            Opcode.SEND: FUClass.IO, Opcode.RECV: FUClass.IO,
            Opcode.JMP: FUClass.SEQ, Opcode.BR: FUClass.SEQ,
            Opcode.CALL: FUClass.SEQ, Opcode.RET: FUClass.SEQ,
        }.get(opcode, FUClass.IALU)
    return MachineOp(
        op=opcode, fu=fu, latency=latency, dest=dest, operands=operands, **kw
    )


def bundle(*ops) -> Bundle:
    b = Bundle()
    for one in ops:
        b.add(one)
    return b


def handbuilt(name, cells, inputs=(), queue_capacity=512, frames=True):
    """``cells``: cell index -> {function name: (bundles, param regs)};
    each cell's entry is ``main``."""

    def build():
        programs = {}
        for index, functions in cells.items():
            programs[index] = CellProgram(
                section_name="s",
                functions={
                    fn: AssembledFunction(
                        name=fn, section_name="s", bundles=list(bundles),
                        param_regs=list(params),
                    )
                    for fn, (bundles, params) in functions.items()
                },
                entry="main",
                frame_bases={
                    fn: 16 * k for k, fn in enumerate(functions)
                } if frames else {},
                data_words=16 * len(functions),
            )
        array = WarpArrayModel(
            cell_count=2, cell=WarpCellModel(queue_capacity=queue_capacity)
        )
        module = DownloadModule(module_name=name, cell_programs=programs)
        return module, list(inputs), array, 10_000, None

    CASES[f"hand_{name}"] = build


def one(name, bundles, **kw):
    handbuilt(name, {0: {"main": (bundles, ())}}, **kw)


SEND_R0 = bundle(op(Opcode.SEND, operands=(R0,)))
RET = bundle(op(Opcode.RET))

one("fall_off_end", [bundle(op(Opcode.LI, dest=R0, operands=(1,)))])
one("unknown_callee", [
    bundle(op(Opcode.CALL, latency=4, callee="ghost")), RET,
])
handbuilt("arg_count", {0: {
    "main": ([bundle(op(Opcode.CALL, operands=(1,), callee="f")), RET], ()),
    "f": ([RET], (R0, R1)),
}})
handbuilt("no_return_value", {0: {
    "main": ([bundle(op(Opcode.CALL, dest=R1, callee="f")), RET], ()),
    "f": ([RET], ()),
}})
handbuilt("call_depth", {0: {
    "main": ([bundle(op(Opcode.CALL, callee="f")), RET], ()),
    "f": ([bundle(op(Opcode.CALL, callee="f", latency=2)), RET], ()),
}})

# f calls itself while its decremented r0 is positive: N calls deep.
for _depth in (64, 65):  # the deepest call that returns, and one more
    handbuilt(f"call_depth_{_depth}", {0: {
        "main": ([
            bundle(op(Opcode.LI, dest=R0, operands=(_depth,))),
            bundle(op(Opcode.CALL, callee="f")),
            SEND_R0,
            RET,
        ], ()),
        "f": ([
            bundle(op(Opcode.SUB, dest=R0, operands=(R0, 1))),
            bundle(op(Opcode.CGT, dest=R1, operands=(R0, 0))),
            bundle(op(Opcode.BR, operands=(R1,), labels=(3, 4))),
            bundle(op(Opcode.CALL, callee="f", latency=2)),
            RET,
        ], ()),
    }})
# Write-backs in flight across a call and a return land in whatever
# register file is current when they fall due.
handbuilt("writes_across_calls", {0: {
    "main": ([
        bundle(op(Opcode.LI, dest=R0, operands=(5,), latency=6)),
        bundle(op(Opcode.LI, dest=R1, operands=(3,))),
        bundle(
            op(Opcode.CALL, dest=F1, operands=(R1,), callee="f", latency=2)
        ),
        bundle(op(Opcode.SEND, operands=(F1,))),
        SEND_R0,
        bundle(),
        bundle(),
        SEND_R0,
        RET,
    ], ()),
    "f": ([
        SEND_R0,
        bundle(),
        SEND_R0,
        bundle(op(Opcode.LI, dest=R0, operands=(9,), latency=4)),
        bundle(op(Opcode.RET, operands=(R2,), latency=2)),
    ], (R2,)),
}})
# A write due this very cycle lands next cycle, before a write due then.
one("due_order", [
    bundle(op(Opcode.LI, dest=R0, operands=(1,), latency=2)),
    bundle(op(Opcode.LI, dest=R0, operands=(2,), latency=0)),
    bundle(),
    SEND_R0,
    bundle(
        op(Opcode.LI, dest=R0, operands=(3,)),
        op(Opcode.MOV, dest=R0, operands=(4,), fu=FUClass.FALU),
    ),
    SEND_R0,
    RET,
])
one("int_register_overflow", [
    bundle(op(Opcode.LI, dest=R0, operands=(INF,))), SEND_R0, RET,
])
one("trap_ftoi_inf", [
    bundle(op(Opcode.FTOI, dest=R0, operands=(INF,))), SEND_R0, RET,
])
one("trap_mod_zero", [
    bundle(op(Opcode.MOD, dest=R0, operands=(7, 0))), SEND_R0, RET,
])
one("trap_add_overflow", [
    bundle(op(Opcode.ADD, dest=F0, operands=(10 ** 400, 1.0))), RET,
])
one("missing_frame_base", [
    bundle(op(Opcode.LI, dest=R0, operands=(1,))),
    bundle(op(Opcode.LOAD, dest=R1, operands=(R0,), array_offset=0)),
    RET,
], frames=False)
one("register_growth", [
    bundle(op(Opcode.LI, dest=PhysReg("i", 100), operands=(7,))),
    bundle(op(Opcode.LI, dest=PhysReg("f", 90), operands=(2,))),
    bundle(op(Opcode.SEND, operands=(PhysReg("i", 100),))),
    bundle(op(Opcode.SEND, operands=(PhysReg("f", 90),))),
    bundle(op(Opcode.SEND, operands=(PhysReg("i", 99),))),
    RET,
])
one("halt_with_pending", [
    bundle(
        op(Opcode.LI, dest=R0, operands=(1,), latency=12),
        op(Opcode.RET),
    ),
])
_ALU = [
    (Opcode.ADD, R0, (7, 5)), (Opcode.SUB, F0, (1.5, 4)),
    (Opcode.MUL, R0, (-3, 4)), (Opcode.DIV, R0, (-7, 2)),
    (Opcode.DIV, F0, (7.0, 2)), (Opcode.MOD, R0, (-7, 2)),
    (Opcode.NEG, F0, (0.0,)), (Opcode.ABS, R0, (-4,)),
    (Opcode.SQRT, F0, (2.0,)), (Opcode.MIN, F0, (3, 2.5)),
    (Opcode.MAX, R0, (3, 2.5)), (Opcode.NOT, R0, (0,)),
    (Opcode.AND, R0, (1, 0.5)), (Opcode.OR, F0, (0, 0.0)),
    (Opcode.CEQ, R0, (2, 2.0)), (Opcode.CNE, F0, (2, 3)),
    (Opcode.CLT, R0, (1.5, 1)), (Opcode.CLE, R0, (1, 1)),
    (Opcode.CGT, F0, (-1, -2)), (Opcode.CGE, R0, (0.1, 0.2)),
    (Opcode.MOV, F0, (5,)), (Opcode.LI, R0, (2.75,)),
    (Opcode.ITOF, F0, (3,)), (Opcode.FTOI, R0, (-2.9,)),
    (Opcode.MUL, F0, (1e300, 1e300)), (Opcode.SUB, F0, (INF, INF)),
]
one("alu_results", [
    b
    for opcode, dest, operands in _ALU
    for b in (
        bundle(op(opcode, dest=dest, operands=operands)),
        bundle(op(Opcode.SEND, operands=(dest,))),
    )
] + [bundle(op(Opcode.SEND, operands=(7,))), RET])
one("memory_round_trip", [
    bundle(op(Opcode.LI, dest=R0, operands=(3,))),
    bundle(op(Opcode.STORE, operands=(R0, 2.5), array_offset=4, latency=3)),
    bundle(op(Opcode.LOAD, dest=R1, operands=(R0,), array_offset=4)),
    bundle(
        op(Opcode.LOAD, dest=F0, operands=(R0,), array_offset=4, latency=2)
    ),
    bundle(op(Opcode.LOAD, dest=R2, operands=(R0,), array_offset=4)),
    bundle(op(Opcode.SEND, operands=(R1,))),
    bundle(op(Opcode.SEND, operands=(F0,))),
    bundle(op(Opcode.SEND, operands=(R2,))),
    # a store keeps the value it is given: 2**60 + 1 is no float
    bundle(op(Opcode.STORE, operands=(0, 2 ** 60 + 1), array_offset=0)),
    bundle(op(Opcode.LOAD, dest=R0, operands=(0,), array_offset=0)),
    SEND_R0,
    RET,
])
one("branch_loop", [
    bundle(op(Opcode.RECV, dest=R0)),
    bundle(op(Opcode.CGT, dest=R1, operands=(R0, 0))),
    bundle(op(Opcode.BR, operands=(R1,), labels=(3, 6))),
    bundle(op(Opcode.SEND, operands=(R0,))),
    bundle(op(Opcode.SUB, dest=R0, operands=(R0, 1), latency=2)),
    bundle(op(Opcode.JMP, labels=(1,))),
    RET,
], inputs=[3.7])
# Two cells and one-word queues: the sender stalls on a full queue.
handbuilt("backpressure", {
    0: {"main": ([
        bundle(op(Opcode.RECV, dest=F0)),
        bundle(op(Opcode.SEND, operands=(F0,))),
        bundle(op(Opcode.SEND, operands=(1,))),
        bundle(op(Opcode.SEND, operands=(2.0,))),
        RET,
    ], ())},
    1: {"main": ([
        bundle(op(Opcode.RECV, dest=F0)),
        bundle(), bundle(), bundle(),
        # one bundle that both receives and sends: it issues atomically
        bundle(
            op(Opcode.RECV, dest=R0),
            op(Opcode.SEND, operands=(F0,), fu=FUClass.MEM),
        ),
        bundle(op(Opcode.RECV, dest=F1)),
        bundle(op(Opcode.SEND, operands=(R0,))),
        bundle(op(Opcode.SEND, operands=(F1,))),
        RET,
    ], ())},
}, inputs=[0.5, 9.0], queue_capacity=1)
handbuilt("cell_starved", {
    0: {"main": ([bundle(op(Opcode.SEND, operands=(1,))), RET], ())},
    1: {"main": ([
        bundle(op(Opcode.RECV, dest=R0)),
        bundle(op(Opcode.RECV, dest=R1)),
        RET,
    ], ())},
})


# -- the record ------------------------------------------------------------


def _value(v):
    return v.hex() if isinstance(v, float) else v


def replay(name: str) -> dict:
    module, inputs, array, max_cycles, digest = CASES[name]()
    record = {"digest": digest} if digest else {}
    try:
        run = run_module(module, inputs, array=array, max_cycles=max_cycles)
    except Exception as error:  # noqa: BLE001 - the error is the record
        record["error"] = repr(error)
        return record
    record.update(
        cycles=run.cycles,
        outputs=[_value(v) for v in run.outputs],
        cells={
            str(index): [
                stats.bundles_executed, stats.stall_cycles, stats.busy_cycles
            ]
            for index, stats in run.cell_stats.items()
        },
        leftover_input=run.leftover_input,
    )
    return record


def _fixture() -> Dict[str, dict]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(CASES)


def test_fixture_has_every_outcome():
    records = _fixture().values()
    errors = [r["error"] for r in records if "error" in r]
    for fragment in (
        "arithmetic trap", "deadlock at cycle", "did not finish within",
        "out of range", "past the end", "unknown function", "cannot convert",
    ):
        assert any(fragment in error for error in errors), fragment
    assert sum("cycles" in r for r in records) > len(errors)


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_matches_the_record(name):
    expected = _fixture()[name]
    got = replay(name)
    if "digest" in expected:
        assert got["digest"] == expected["digest"], "the compiler changed"
    assert got == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(
        json.dumps({name: replay(name) for name in sorted(CASES)}, indent=1)
        + "\n"
    )
