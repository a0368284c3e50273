"""The optimizer does the work it always has, in fewer steps.

Dead-code elimination solves liveness once per layer of *blocks* on the
bitmasks, LICM decides the static half of its test once per loop, and
registers hash by their id; none of that may change a single instruction
or a single counted work unit.  The one-layer-of-instructions-per-solve
DCE this replaced is kept here as the reference.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.fuzz.generator import config_for_size_class, generate_program
from repro.ir.builder import IRBuilder
from repro.ir.cfg import BasicBlock, FunctionIR
from repro.ir.instructions import Opcode
from repro.ir.lowering import lower_module
from repro.ir.values import IR_INT, VReg, const_int
from repro.opt import dataflow, dce
from repro.opt.dce import eliminate_dead_code
from repro.opt.licm import hoist_loop_invariants
from repro.opt.liveness import live_variables
from repro.opt.pass_manager import _PIPELINE, PassManager

from helpers import parse_ok, single_function_ir, wrap_function

TESTS = Path(__file__).parent


def lower(source):
    module, sema = parse_ok(source)
    return lower_module(module, sema)


def text_of(function):
    return [str(block) for block in function.blocks]


# ---------------------------------------------------------------------------
# DCE: the reference and the differential
# ---------------------------------------------------------------------------


def reference_dce(function: FunctionIR) -> int:
    """One whole-function liveness solve per layer of dead instructions;
    a dead instruction's uses still enter the live set."""
    total = 0
    while True:
        facts = live_variables(function)
        removed = 0
        for block in function.blocks:
            live = set(facts.exit[block.name])
            keep = []
            for instr in reversed(block.instructions):
                is_dead = (
                    instr.dest is not None
                    and instr.dest not in live
                    and not instr.has_side_effects()
                    and not instr.is_terminator()
                )
                if is_dead:
                    removed += 1
                else:
                    keep.append(instr)
                if instr.dest is not None:
                    live.discard(instr.dest)
                live.update(instr.uses())
            keep.reverse()
            block.instructions = keep
        total += removed
        if removed == 0:
            return total


def twin(function: FunctionIR) -> FunctionIR:
    """An independent copy as far as DCE can tell: it rebinds instruction
    lists and never touches an instruction."""
    return dataclasses.replace(
        function,
        blocks=[
            BasicBlock(block.name, list(block.instructions))
            for block in function.blocks
        ],
    )


#: seeds per size class: the first forty where a program costs
#: milliseconds, fewer where forty would take this file past half a
#: minute of tier-1 (all forty of each were compared once, when the
#: rewrite landed)
DIFFERENTIAL_SEEDS = {
    "tiny": 40, "small": 40, "medium": 40, "large": 16, "huge": 4,
}


@pytest.mark.parametrize("size_class", sorted(DIFFERENTIAL_SEEDS))
def test_dce_equals_the_reference_after_every_earlier_pass(size_class):
    config = config_for_size_class(size_class)
    compared = removed = 0
    for seed in range(DIFFERENTIAL_SEEDS[size_class]):
        for function in lower(generate_program(seed, config).source).all_functions():
            for name, earlier_pass in _PIPELINE[:-1]:
                earlier_pass(function)
                expected, got = twin(function), twin(function)
                count = reference_dce(expected)
                where = f"{size_class} seed {seed} {function.name} after {name}"
                assert eliminate_dead_code(got) == count, where
                # The twins share instruction objects, so equal lists are
                # the same instructions (and the same text) block by block.
                assert [b.instructions for b in got.blocks] == [
                    b.instructions for b in expected.blocks
                ], where
                compared += 1
                removed += count
    assert compared and removed


def _loop_function(body_is_its_own_header: bool) -> FunctionIR:
    """``u`` is read only by a dead ``t = u + 1`` inside a loop."""
    function = FunctionIR("f", "s", return_type=IR_INT)
    builder = IRBuilder(function)
    entry = builder.new_block("entry")
    body = builder.new_block("body")
    done = builder.new_block("done")
    builder.set_block(entry)
    n = builder.li(8, IR_INT)
    u = builder.vreg(IR_INT)
    if body_is_its_own_header:
        # ``u`` is defined before the loop and never killed in it.
        builder.mov(u, const_int(5))
    builder.jmp(body)
    builder.set_block(body)
    builder.binary(Opcode.ADD, u, const_int(1), IR_INT)  # t = u + 1: dead
    if not body_is_its_own_header:
        builder.mov(u, n)  # u defined after its only reader, same body
    again = builder.binary(Opcode.CLT, n, const_int(9), IR_INT)
    builder.br(again, body, done)
    builder.set_block(done)
    builder.ret(n)
    function.validate()
    return function


@pytest.mark.parametrize(
    "body_is_its_own_header",
    [False, True],
    ids=["u-defined-after-the-read-in-the-body", "u-defined-before-the-loop"],
)
def test_dead_use_behind_a_back_edge_goes_in_one_call(body_is_its_own_header):
    """The read of ``u`` is dead, but through the back edge it keeps
    ``u`` in the body's own live-out.  With ``u`` defined before the loop
    the body's live-in does not even shrink when the read goes — which is
    why DCE compares each block's gen, not its live-in, to decide whether
    the solution still holds."""
    function = _loop_function(body_is_its_own_header)
    expected = twin(function)
    assert reference_dce(expected) == 2
    assert eliminate_dead_code(function) == 2
    assert text_of(function) == text_of(expected)
    assert not any(
        instr.op in (Opcode.ADD, Opcode.MOV)
        for instr in function.all_instructions()
    )
    assert eliminate_dead_code(function) == 0


def test_dce_solves_liveness_once_per_layer_of_blocks(monkeypatch):
    """cold_branchy's twelve modules: 696 solves when every layer of dead
    instructions cost one, 329 when only a chain across blocks does."""
    solves = []
    solve = dataflow.solve_backward_masks

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dce, "solve_backward_masks", counting)
    runs = 0
    for seed in range(12):
        source = generate_program(seed, config_for_size_class("large")).source
        for function in lower(source).all_functions():
            runs += PassManager().run(function).runs["dead-code-elimination"]
    assert runs == 221
    assert runs <= len(solves) <= 340


# ---------------------------------------------------------------------------
# LICM: the order instructions land in the preheader
# ---------------------------------------------------------------------------


def test_licm_hoists_invariant_chains_in_the_same_order():
    """Two three-deep chains in two blocks of one loop: one hoist per
    block per scan, so the chains interleave in the preheader."""
    function = single_function_ir(
        wrap_function(
            "function f(x: float, y: float) : float\n"
            "var i: int; acc: float;\n"
            "begin\n"
            "for i := 0 to 9 do\n"
            "  acc := acc + ((x * y + x) * y);\n"
            "  if i > 3 then acc := acc - ((y * y + x) * x); end;\n"
            "end;\n"
            "return acc;\nend"
        )
    )
    assert hoist_loop_invariants(function) == 6
    assert [str(instr) for instr in function.entry.instructions[4:]] == [
        "%f6 = mul %f0, %f1",
        "%f11 = mul %f1, %f1",
        "%f7 = add %f6, %f0",
        "%f12 = add %f11, %f0",
        "%f8 = mul %f7, %f1",
        "%f13 = mul %f12, %f0",
        "jmp -> for.header",
    ]


# ---------------------------------------------------------------------------
# Registers hash by id
# ---------------------------------------------------------------------------


def test_registers_hash_by_id_and_compare_by_id_and_type():
    assert hash(VReg(7, "i")) == 7
    assert hash(VReg(7, "i")) == hash(VReg(7, "f"))  # allowed: ids are unique
    assert VReg(7, "i") != VReg(7, "f")
    assert VReg(7, "i") == VReg(7, "i")
    assert len({VReg(7, "i"), VReg(7, "f"), VReg(7, "i")}) == 2


# ---------------------------------------------------------------------------
# PassStats: the bill is the parent's
# ---------------------------------------------------------------------------


def test_corpus_pass_stats_match_the_fixture():
    """Every function of the corpus is charged the runs, changes,
    instructions visited and rounds it was charged before the optimizer
    was made faster (``fixtures/corpus_pass_stats.json``, written at the
    parent commit): work no longer executed is still billed."""
    expected = json.loads(
        (TESTS / "fixtures" / "corpus_pass_stats.json").read_text()
    )
    got = {}
    for path in sorted((TESTS / "corpus").glob("fuzz_*.json")):
        source = json.loads(path.read_text())["source"]
        for function in lower(source).all_functions():
            stats = PassManager().run(function)
            got[f"{path.stem}:{function.section_name}.{function.name}"] = {
                "runs": stats.runs,
                "changes": stats.changes,
                "instructions_visited": stats.instructions_visited,
                "rounds": stats.rounds,
            }
    assert got == expected
