"""The back end does each piece of work once, and bills it as before.

A pipelined loop body's baseline list schedule is also its final one,
the list scheduler keeps one ready queue per functional unit, CSE and
copy propagation index their fact tables, and the loop-nest weight takes
each block's depth in one walk of the nest.  None of that may move an
instruction, a bundle or a counted work unit: every function's
``CodegenInfo`` is pinned (``fixtures/backend_codegen_info.json``,
written at the commit before the rewrite), and the routines it replaced
are kept here as references.
"""

import dataclasses
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.asmlink.objformat import MachineOp
from repro.codegen import compiler
from repro.codegen.compiler import (
    RESERVED_INT_REGS,
    compile_function,
    replace_int_registers,
)
from repro.codegen.regalloc import allocate_registers
from repro.codegen.schedule import _build_edges, _list_schedule
from repro.codegen.select import select_function
from repro.driver.phases import compile_one_function, phase1_parse_and_check
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.ir.cfg import Cfg
from repro.ir.instructions import Instr, Opcode
from repro.ir.loops import loop_nest_weight
from repro.ir.values import VReg
from repro.machine.resources import FUClass, PhysReg
from repro.machine.warp_cell import WarpCellModel
from repro.opt import cse
from repro.opt.copyprop import _propagate_block
from repro.opt.cse import _cse_block
from repro.opt.pass_manager import _PIPELINE, PassManager
from repro.options import CompileOptions
from repro.workloads.synthetic import synthetic_program
from repro.workloads.user_program import user_program

from helpers import lower_ok
from test_optimizer_pins import DIFFERENTIAL_SEEDS

TESTS = Path(__file__).parent


# ---------------------------------------------------------------------------
# The references: the routines as they were before the rewrite
# ---------------------------------------------------------------------------


def reference_list_schedule(ops, edges):
    """Sorts every candidate each cycle and walks the whole list."""
    n = len(ops)
    succs = [[] for _ in range(n)]
    preds_left = [0] * n
    earliest = [0] * n
    for src, dst, delay in edges:
        succs[src].append((dst, delay))
        preds_left[dst] += 1
    height = [op.latency for op in ops]
    for i in range(n - 1, -1, -1):
        for dst, delay in succs[i]:
            height[i] = max(height[i], delay + height[dst])
    ready = [i for i in range(n) if preds_left[i] == 0]
    placed = [None] * n
    remaining = n
    cycle = 0
    work = 0
    while remaining > 0:
        used_slots = set()
        candidates = sorted(
            (i for i in ready if earliest[i] <= cycle),
            key=lambda i: (-height[i], i),
        )
        for i in candidates:
            work += 1
            if ops[i].fu in used_slots:
                continue
            used_slots.add(ops[i].fu)
            placed[i] = cycle
            ready.remove(i)
            remaining -= 1
            for dst, delay in succs[i]:
                earliest[dst] = max(earliest[dst], cycle + delay)
                preds_left[dst] -= 1
                if preds_left[dst] == 0:
                    ready.append(dst)
        cycle += 1
    return placed, work


def reference_cse_block(instructions):
    """Scans the whole table for the values a definition kills."""
    available = {}
    mentioned_by = {}
    changes = 0

    def invalidate_register(reg):
        for key in mentioned_by.pop(reg, []):
            available.pop(key, None)
        for key in [k for k, v in available.items() if v == reg]:
            available.pop(key, None)

    def invalidate_loads(array_name=None):
        for key in [
            k for k in available
            if k[0] is Opcode.LOAD and (array_name is None or k[2] == array_name)
        ]:
            available.pop(key, None)

    for index, instr in enumerate(instructions):
        if instr.op is Opcode.STORE:
            invalidate_loads(instr.array.name)
            continue
        if instr.op is Opcode.CALL:
            invalidate_loads()
            if instr.dest is not None:
                invalidate_register(instr.dest)
            continue
        new_fact = None
        if instr.op in cse._PURE or instr.op is Opcode.LOAD:
            key = cse._expr_key(instr)
            prior = available.get(key)
            if prior is not None and prior != instr.dest:
                instructions[index] = Instr(
                    Opcode.MOV, dest=instr.dest, operands=(prior,)
                )
                instr = instructions[index]
                changes += 1
            elif prior is None and instr.dest not in instr.uses():
                new_fact = (key, instr)
        if instr.dest is not None:
            invalidate_register(instr.dest)
        if new_fact is not None:
            key, producer = new_fact
            available[key] = producer.dest
            for reg in producer.uses():
                mentioned_by.setdefault(reg, []).append(key)
    return changes


def reference_propagate_block(instructions):
    """Scans every copy fact on every definition."""
    copies = {}
    changes = 0
    for index, instr in enumerate(instructions):
        for operand in instr.operands:
            if operand.__class__ is VReg and operand in copies:
                instr = instructions[index] = instr.with_operands(
                    tuple(
                        copies.get(v, v) if v.__class__ is VReg else v
                        for v in instr.operands
                    )
                )
                changes += 1
                break
        dest = instr.dest
        if dest is not None:
            copies.pop(dest, None)
            stale = [d for d, value in copies.items() if value == dest]
            for d in stale:
                del copies[d]
            if instr.op is Opcode.MOV:
                source = instr.operands[0]
                if source != dest:
                    copies[dest] = source
            elif instr.op is Opcode.LI:
                copies[dest] = instr.operands[0]
    return changes


def reference_loop_nest_weight(function):
    """Looks up each block's innermost loop by scanning every loop."""
    nest = Cfg(function).loops
    weight = 0
    for block in function.blocks:
        best = None
        for loop in nest.all_loops():
            if block.name in loop and (best is None or loop.depth > best.depth):
                best = loop
        depth = best.depth if best is not None else 0
        weight += len(block.instructions) * (4 ** depth)
    return weight


# ---------------------------------------------------------------------------
# Each one beside its reference, over the generator's programs
# ---------------------------------------------------------------------------


def text(instructions):
    return [str(instr) for instr in instructions]


def selected_blocks(function):
    """The machine blocks ``compile_function`` list-schedules."""
    cell = WarpCellModel()
    PassManager().run(function, Cfg(function))
    allocation = allocate_registers(
        function,
        replace_int_registers(cell, cell.int_registers - RESERVED_INT_REGS),
        Cfg(function),
    )
    return select_function(function, allocation, cell)


@pytest.mark.parametrize("size_class", sorted(DIFFERENTIAL_SEEDS))
def test_back_end_routines_equal_their_references(size_class):
    """Before every pass of the pipeline, each block goes through local
    CSE and copy propagation beside their references; then every
    selected block is list-scheduled by both schedulers.  (The seeds are
    ``DIFFERENTIAL_SEEDS``; all forty of every size class were compared
    once, when the rewrite landed.)"""
    config = config_for_size_class(size_class)
    local = rewritten = schedules = 0
    for seed in range(DIFFERENTIAL_SEEDS[size_class]):
        source = generate_program(seed, config).source
        for function in lower_ok(source).all_functions():
            where = f"{size_class} seed {seed} {function.name}"
            assert loop_nest_weight(Cfg(function)) == reference_loop_nest_weight(
                function
            ), where
            for name, pass_fn in _PIPELINE:
                for block in function.blocks:
                    for new, reference in (
                        (_cse_block, reference_cse_block),
                        (_propagate_block, reference_propagate_block),
                    ):
                        got = list(block.instructions)
                        expected = list(block.instructions)
                        count = reference(expected)
                        assert new(got) == count, f"{where} before {name}"
                        assert text(got) == text(expected), where
                        local += 1
                        rewritten += count
                pass_fn(function, Cfg(function))
        for function in lower_ok(source).all_functions():
            for sel in selected_blocks(function):
                edges = _build_edges(sel.ops) if sel.ops else []
                assert _list_schedule(sel.ops, edges) == (
                    reference_list_schedule(sel.ops, edges)
                ), f"{size_class} seed {seed} {sel.label}"
                schedules += 1
    assert local and rewritten and schedules


def random_block(rng):
    """Machine ops over a few registers and two arrays: reused registers
    give delay-0 WAR edges, calls are barriers, and most ops compete for
    the integer ALU."""
    regs = [PhysReg(bank, index) for bank in "if" for index in range(3)]
    ops = []
    for _ in range(rng.randrange(1, 28)):
        roll = rng.random()
        reads = tuple(rng.sample(regs, rng.randrange(0, 3)))
        if roll < 0.08:
            ops.append(MachineOp(
                Opcode.CALL, FUClass.SEQ, rng.randrange(1, 5),
                dest=rng.choice([None, *regs]), callee="g",
            ))
        elif roll < 0.3:
            load = rng.random() < 0.5
            ops.append(MachineOp(
                Opcode.LOAD if load else Opcode.STORE, FUClass.MEM,
                2 if load else 1,
                dest=rng.choice(regs) if load else None,
                operands=reads, array_name=rng.choice("ab"),
            ))
        elif roll < 0.4:
            ops.append(MachineOp(
                rng.choice([Opcode.SEND, Opcode.RECV]), FUClass.IO, 1,
                operands=reads,
            ))
        else:
            ops.append(MachineOp(
                Opcode.ADD,
                rng.choice([FUClass.IALU] * 3 + [FUClass.FALU, FUClass.FMUL]),
                rng.randrange(1, 13), dest=rng.choice(regs), operands=reads,
            ))
    if rng.random() < 0.5:
        ops.append(MachineOp(Opcode.JMP, FUClass.SEQ, 1, labels=("next",)))
    return ops


def test_list_scheduler_equals_its_reference_on_random_dags():
    rng = random.Random(26)
    seen = Counter()
    for _ in range(600):
        ops = random_block(rng)
        edges = _build_edges(ops)
        placed, work = _list_schedule(ops, edges)
        assert (placed, work) == reference_list_schedule(ops, edges)
        for src, dst, delay in edges:
            assert placed[dst] >= placed[src] + delay
        slots = Counter((cycle, op.fu) for cycle, op in zip(placed, ops))
        assert max(slots.values()) == 1
        seen["war"] += any(
            delay == 0 and ops[dst].dest in ops[src].operands
            for src, dst, delay in edges
        )
        seen["call"] += any(op.op is Opcode.CALL for op in ops)
        seen["contended"] += max(Counter(op.fu for op in ops).values()) > 3
    assert min(seen.values()) > 100, seen


def test_each_selected_block_is_list_scheduled_once(monkeypatch):
    """A pipelining attempt's baseline schedule of a body is the body's
    schedule: no block is scheduled twice, and every one once."""
    scheduled = Counter()
    selected = []
    schedule_block = compiler.schedule_block
    select = compiler.select_function

    def counting_schedule(sel):
        scheduled[sel.label] += 1
        return schedule_block(sel)

    def recording_select(*args):
        selected.extend(select(*args))
        return selected

    monkeypatch.setattr(compiler, "schedule_block", counting_schedule)
    monkeypatch.setattr(compiler, "select_function", recording_select)
    (function,) = lower_ok(synthetic_program("medium", 1)).all_functions()
    obj = compile_function(function, WarpCellModel())
    assert obj.info.pipelined_loops >= 2
    assert scheduled == Counter(sel.label for sel in selected)
    assert set(scheduled.values()) == {1}


# ---------------------------------------------------------------------------
# CodegenInfo: the bill is the parent's
# ---------------------------------------------------------------------------


def pinned_programs():
    """(family, name, source): the corpus, the paper's user program,
    S_n of every size class for n = 1, 2, 4, 8, and the generator's
    first forty seeds at three size classes."""
    for path in sorted((TESTS / "corpus").glob("fuzz_*.json")):
        yield "corpus", path.stem, json.loads(path.read_text())["source"]
    yield "synthetic", "mech_eng", user_program()
    for size in ("tiny", "small", "medium", "large", "huge"):
        for n in (1, 2, 4, 8):
            yield "synthetic", f"s{n}_{size}", synthetic_program(size, n)
    for size in ("small", "medium", "large"):
        config = config_for_size_class(size)
        for seed in range(40):
            source = generate_program(seed, config).source
            yield f"generated-{size}", f"fz{seed}_{size}", source


def codegen_infos(source):
    """Every function's ``CodegenInfo`` as a dict, by section.function."""
    parsed = phase1_parse_and_check(source)
    infos = {}
    for section in parsed.module.sections:
        for function in section.functions:
            obj, _report = compile_one_function(
                parsed, section.name, function.name, CompileOptions()
            )
            key = f"{section.name}.{function.name}"
            infos[key] = dataclasses.asdict(obj.info)
    return infos


#: The functions the signed-zero fixes of CSE and gconst recompile
#: differently (``test_signed_zero.py``); every other one is the parent's.
SIGNED_ZERO_MOVED = {"fz20_small": "s1.h1_2", "fz9_medium": "s2.main"}

FAMILIES = [
    "corpus", "synthetic",
    "generated-small", "generated-medium", "generated-large",
]


@pytest.mark.parametrize("family", FAMILIES)
def test_codegen_info_matches_the_fixture(family):
    """Work units, pipelined loops, IIs, schedule cycles and spill slots
    of every function of 144 programs, as the parent compiled them."""
    fixture = json.loads(
        (TESTS / "fixtures" / "backend_codegen_info.json").read_text()
    )
    compared = 0
    for program_family, name, source in pinned_programs():
        if program_family != family:
            continue
        got, expected = codegen_infos(source), fixture[name]
        moved = SIGNED_ZERO_MOVED.get(name)
        if moved is not None:
            assert got.pop(moved) != expected.pop(moved), name
        assert got == expected, name
        compared += len(got)
    assert compared
