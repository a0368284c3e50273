"""The optimizer does the work it always has, in fewer steps.

Dead-code elimination solves liveness once per layer of *blocks* on the
bitmasks, LICM decides the static half of its test once per call, every
pass keys its facts by register id, so no ``VReg`` is hashed while the
pass manager runs, and a function's CFG is analysed once per shape (one
``Cfg`` handed from pass to pass); none of that may change a single
instruction or a single counted work unit.  The one-layer-of-instructions-per-solve DCE
this replaced is kept here as the reference, and so are the global
constant propagation and LICM that keyed their facts by ``VReg``.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from repro import CompileOptions, SequentialCompiler
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.ir.builder import IRBuilder
from repro.ir.cfg import BasicBlock, Cfg, FunctionIR
from repro.ir.dominators import DominatorTree
from repro.ir.instructions import Opcode, evaluate_constant
from repro.ir.lowering import lower_module
from repro.ir.values import IR_INT, Const, VReg, const_int
from repro.opt import dataflow, dce, gconst, licm, pass_manager
from repro.opt.dce import eliminate_dead_code
from repro.opt.licm import hoist_loop_invariants
from repro.opt.liveness import live_variables
from repro.opt.pass_manager import _PIPELINE, PassManager
from repro.opt.simplify import simplify_control_flow
from repro.workloads.synthetic import synthetic_program

from helpers import parse_ok, single_function_ir, wrap_function

TESTS = Path(__file__).parent


def lower(source):
    module, _ = parse_ok(source)
    return lower_module(module)


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
        facts = live_variables(function, Cfg(function))
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
                earlier_pass(function, Cfg(function))
                expected, got = twin(function), twin(function)
                count = reference_dce(expected)
                where = f"{size_class} seed {seed} {function.name} after {name}"
                assert eliminate_dead_code(got, Cfg(got)) == count, where
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
    assert eliminate_dead_code(function, Cfg(function)) == 2
    assert text_of(function) == text_of(expected)
    assert not any(
        instr.op in (Opcode.ADD, Opcode.MOV)
        for instr in function.all_instructions()
    )
    assert eliminate_dead_code(function, Cfg(function)) == 0


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
            runs += PassManager().run(function, Cfg(function)).runs["dead-code-elimination"]
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
    assert hoist_loop_invariants(function, Cfg(function)) == 6
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
# Global constant propagation and LICM: the references and the differential
# ---------------------------------------------------------------------------


def reference_gconst(function: FunctionIR) -> int:
    """States keyed by register, every register crossing every edge, and
    each block decoded on its first visit."""
    preds = function.predecessors()
    block_map = function.block_map()
    entry = function.entry.name
    rows, in_states, out_states = {}, {entry: {}}, {}
    worklist, queued = [entry], {entry}
    while worklist:
        name = worklist.pop(0)
        queued.discard(name)
        if name == entry:
            state = in_states[name]
        else:
            state = gconst._meet(
                [out_states[p] for p in preds[name] if p in out_states]
            )
        if name in out_states and state == in_states[name]:
            continue
        in_states[name] = state
        if name not in rows:
            rows[name] = _reference_decode(block_map[name])
        state = dict(state)
        _reference_transfer(rows[name], state)
        if out_states.get(name) != state:
            out_states[name] = state
            for succ in block_map[name].successors():
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)
    changes = 0
    for block in function.blocks:
        block_rows = rows.get(block.name)
        if block_rows is None:  # unreachable: the fixpoint never came here
            block_rows = _reference_decode(block)
        changes += _reference_transfer(
            block_rows, dict(in_states.get(block.name, {})), block
        )
    return changes


def _reference_decode(block):
    return [
        (
            instr.dest,
            instr.op if instr.op in gconst._EVALUATABLE else None,
            tuple(
                v.value if v.__class__ is Const else v for v in instr.operands
            ),
        )
        for instr in block.instructions
    ]


def _reference_transfer(rows, state, rewrite=None):
    changes = 0
    for index, (dest, op, operands) in enumerate(rows):
        if rewrite is not None and state:
            for operand in operands:
                if operand.__class__ is VReg and operand in state:
                    instr = rewrite.instructions[index]
                    rewrite.instructions[index] = instr.with_operands(
                        tuple(
                            Const(state[v], v.type)
                            if v.__class__ is VReg and v in state
                            else v
                            for v in instr.operands
                        )
                    )
                    changes += 1
                    break
        if dest is None:
            continue
        if op is not None:
            values = []
            for operand in operands:
                if operand.__class__ is VReg:
                    operand = state.get(operand)
                    if operand is None:
                        break
                values.append(operand)
            else:
                result = evaluate_constant(op, values)
                if result is not None:
                    state[dest] = (
                        int(result) if dest.type == IR_INT else float(result)
                    )
                    continue
        state.pop(dest, None)
    return changes


def reference_licm(function: FunctionIR) -> int:
    """Definition counts and use blocks in dicts keyed by register, the
    use blocks as sets of names."""
    loops = Cfg(function).loops.all_loops()
    if not loops:
        return 0
    preds = function.predecessors()
    block_map = function.block_map()
    headed = []
    for loop in sorted(loops, key=lambda l: -l.depth):
        preheader = _reference_preheader(preds, block_map, loop)
        if preheader is not None:
            headed.append((loop, preheader))
    defs_count = {}
    for instr in function.all_instructions():
        if instr.dest is not None:
            defs_count[instr.dest] = defs_count.get(instr.dest, 0) + 1
    total = 0
    for _ in range(10):
        uses = {}
        for block in function.blocks:
            for instr in block.instructions:
                for reg in instr.uses():
                    uses.setdefault(reg, set()).add(block.name)
        moved = sum(
            _reference_hoist(block_map, loop, preheader, defs_count, uses)
            for loop, preheader in headed
        )
        if moved == 0:
            break
        total += moved
    return total


def _reference_preheader(preds, block_map, loop):
    outside = [p for p in preds[loop.header] if p not in loop.blocks]
    if len(outside) != 1:
        return None
    preheader = block_map[outside[0]]
    term = preheader.terminator
    if term is None or term.op is not Opcode.JMP:
        return None
    return preheader


def _reference_hoist(block_map, loop, preheader, defs_count, uses):
    loop_blocks = [block_map[name] for name in sorted(loop.blocks)]
    candidates = [
        (
            block,
            [
                instr for instr in block.instructions
                if instr.op in licm._HOISTABLE
                and defs_count.get(instr.dest) == 1
                and uses.get(instr.dest, loop.blocks) <= loop.blocks
            ],
        )
        for block in loop_blocks
    ]
    if not any(pending for _, pending in candidates):
        return 0
    defined_in_loop = {
        instr.dest
        for block in loop_blocks
        for instr in block.instructions
        if instr.dest is not None
    }
    moved = 0
    changed = True
    while changed:
        changed = False
        for block, pending in candidates:
            for position, instr in enumerate(pending):
                if any(
                    operand.__class__ is VReg and operand in defined_in_loop
                    for operand in instr.operands
                ):
                    continue
                del pending[position]
                del block.instructions[licm._index_of(block.instructions, instr)]
                preheader.instructions.insert(
                    len(preheader.instructions) - 1, instr
                )
                defined_in_loop.discard(instr.dest)
                moved += 1
                changed = True
                break
    return moved


REFERENCES = {
    "global-constant-propagation": reference_gconst,
    "loop-invariant-code-motion": reference_licm,
}


def assert_same_cfg(held: Cfg, function: FunctionIR, where: str) -> None:
    """``held`` is what a fresh ``Cfg(function)`` would be: the same
    blocks (the function's own objects), edges, loops and preheaders."""
    fresh = Cfg(function)
    assert held.order == fresh.order, where
    assert all(held.blocks[block.name] is block for block in function.blocks), where
    assert held.preds == fresh.preds, where
    assert held.succs == fresh.succs, where
    assert {
        header: loop.blocks for header, loop in held.loops.by_header.items()
    } == {
        header: loop.blocks for header, loop in fresh.loops.by_header.items()
    }, where
    assert {header: block.name for header, block in held.preheaders.items()} == {
        header: block.name for header, block in fresh.preheaders.items()
    }, where


@pytest.mark.parametrize("size_class", sorted(DIFFERENTIAL_SEEDS))
def test_gconst_and_licm_equal_their_references_after_every_pass(
    size_class, monkeypatch
):
    """The optimizer's rounds, run by the pass manager.  Before each pass
    the ``Cfg`` the manager hands it must equal a fresh one (only a
    simplify-cfg run that reports a change may replace it), and so must
    the one it holds at the end.  At each global constant propagation and
    LICM the reference runs on a twin first, and the two must change as
    many instructions and leave the same text."""
    config = config_for_size_class(size_class)
    seen = Counter()
    where = [""]

    def checked(name, pass_fn):
        reference = REFERENCES.get(name)

        def run(function, cfg):
            seen[name] += 1
            here = f"{where[0]} {name} run {seen[name]}"
            assert_same_cfg(cfg, function, here)
            if reference is None:
                return pass_fn(function, cfg)
            expected = twin(function)
            count = reference(expected)
            assert pass_fn(function, cfg) == count, here
            assert text_of(function) == text_of(expected), here
            seen["compared"] += 1
            seen["changed"] += count
            return count

        return run

    monkeypatch.setattr(
        pass_manager,
        "_PIPELINE",
        [(name, checked(name, pass_fn)) for name, pass_fn in _PIPELINE],
    )
    for seed in range(DIFFERENTIAL_SEEDS[size_class]):
        for function in lower(generate_program(seed, config).source).all_functions():
            where[0] = f"{size_class} seed {seed} {function.name}"
            manager = PassManager()
            manager.run(function, Cfg(function))
            assert_same_cfg(manager.cfg, function, f"{where[0]} at the end")
    assert seen["compared"] and seen["changed"]


def test_level_zero_rebuilds_the_cfg_after_cutting_a_block():
    """Level 0's unreachable-block removal is the one edit to the CFG the
    pass manager makes outside simplify-cfg."""
    function = _loop_function(body_is_its_own_header=True)
    builder = IRBuilder(function)
    builder.set_block(builder.new_block("orphan"))
    builder.jmp(function.blocks[1])
    cfg = Cfg(function)
    manager = PassManager(opt_level=0)
    manager.run(function, cfg)
    assert "orphan" in cfg.order and "orphan" not in manager.cfg.order
    assert_same_cfg(manager.cfg, function, "level 0")


# ---------------------------------------------------------------------------
# One CFG analysis per shape
# ---------------------------------------------------------------------------


def test_one_dominator_tree_per_cfg_shape(monkeypatch):
    """Compiling the corpus builds one ``Cfg`` and one dominator tree per
    function after lowering, plus one per simplify-cfg run that reported a
    change, and no other: the weight, every pass and codegen share them.
    Over the corpus that is 7 trees for 5 functions; before, every pass
    and codegen found the loops again and built 22 (and one
    ``cold_branchy`` round 375 for its 135 shapes)."""
    built = Counter()
    for cls, kind in ((Cfg, "cfgs"), (DominatorTree, "trees")):
        def counting(self, arg, init=cls.__init__, kind=kind):
            built[kind] += 1
            init(self, arg)

        monkeypatch.setattr(cls, "__init__", counting)

    def counting_simplify(function, cfg):
        changed = simplify_control_flow(function, cfg)
        built["changed_simplify_runs"] += changed > 0
        return changed

    monkeypatch.setattr(
        pass_manager,
        "_PIPELINE",
        [
            (name, counting_simplify if name == "simplify-cfg" else pass_fn)
            for name, pass_fn in _PIPELINE
        ],
    )
    functions = 0
    for path in sorted((TESTS / "corpus").glob("fuzz_*.json")):
        source = json.loads(path.read_text())["source"]
        result = SequentialCompiler().compile(source, path.stem + ".w2")
        functions += len(result.profile.functions)
    shapes = functions + built["changed_simplify_runs"]
    assert built == {
        "cfgs": shapes, "trees": shapes,
        "changed_simplify_runs": built["changed_simplify_runs"],
    }
    assert shapes == 7 and functions == 5


# ---------------------------------------------------------------------------
# Registers hash by id
# ---------------------------------------------------------------------------


def test_registers_hash_by_id_and_compare_by_id_and_type():
    assert hash(VReg(7, "i")) == 7
    assert hash(VReg(7, "i")) == hash(VReg(7, "f"))  # allowed: ids are unique
    assert VReg(7, "i") != VReg(7, "f")
    assert VReg(7, "i") == VReg(7, "i")
    assert len({VReg(7, "i"), VReg(7, "f"), VReg(7, "i")}) == 2


def corpus_functions():
    for path in sorted((TESTS / "corpus").glob("fuzz_*.json")):
        source = json.loads(path.read_text())["source"]
        yield from lower(source).all_functions()


def test_no_register_is_hashed_inside_the_pass_manager(monkeypatch):
    """Every pass keys its facts by ``reg.id``, an int hashed in C: over
    the corpus's functions the pipeline calls ``VReg.__hash__`` not once
    (1,353,353 times over one round of ``cold_branchy`` before it did)."""
    functions = list(corpus_functions())
    hashes = []
    by_id = VReg.__hash__

    def counting(reg):
        hashes.append(reg)
        return by_id(reg)

    monkeypatch.setattr(VReg, "__hash__", counting)
    assert {VReg(3, IR_INT)} and len(hashes) == 1  # the count is live
    hashes.clear()
    for function in functions:
        assert PassManager().run(function, Cfg(function)).rounds
    assert hashes == []


# ---------------------------------------------------------------------------
# PassStats: the bill is the parent's
# ---------------------------------------------------------------------------


#: options under which something besides simplify-cfg edits the CFG
OPTIONS_THAT_EDIT_THE_CFG = {
    "opt_level=0": CompileOptions(opt_level=0),
    "opt_level=1": CompileOptions(opt_level=1),
    "unroll_budget=8,ii_budget=6": CompileOptions(unroll_budget=8, ii_budget=6),
}


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
            stats = PassManager().run(function, Cfg(function))
            got[f"{path.stem}:{function.section_name}.{function.name}"] = {
                "runs": stats.runs,
                "changes": stats.changes,
                "instructions_visited": stats.instructions_visited,
                "rounds": stats.rounds,
            }
    assert got == expected


def test_digests_at_options_that_change_the_cfg_match_the_fixture():
    """Level 0 cuts unreachable blocks and an unroll budget unrolls before
    the pipeline: both edit the CFG outside the pass manager, which must
    then build its ``Cfg`` again.  The corpus's modules (and a synthetic
    one with loops to unroll) compile to the digests and work units they
    had before the CFG facts were shared
    (``fixtures/corpus_option_digests.json``)."""
    expected = json.loads(
        (TESTS / "fixtures" / "corpus_option_digests.json").read_text()
    )
    programs = {
        path.stem: json.loads(path.read_text())["source"]
        for path in sorted((TESTS / "corpus").glob("fuzz_*.json"))
    }
    programs["synthetic_small_1"] = synthetic_program("small", 1)
    got = {}
    for stem, source in programs.items():
        for label, options in OPTIONS_THAT_EDIT_THE_CFG.items():
            result = SequentialCompiler(options).compile(source, stem + ".w2")
            got[f"{stem} {label}"] = {
                "digest": result.digest,
                "work_units": [
                    [f.section_name, f.name, f.work_units]
                    for f in result.profile.functions
                ],
            }
    assert got == expected
