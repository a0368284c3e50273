"""Backward iterative dataflow over basic blocks, on int bitsets.

:func:`solve_backward_masks` solves a backward may-problem with gen/kill
transfer functions using a worklist.  Per-block sets are Python ints
used as bitsets: a union is ``|``, a difference is ``& ~``, and the
convergence test is one int comparison — the inner loop moves a machine
word at a time instead of hashing frozenset elements.  Liveness and
dead-code elimination need no numbering of their own: a virtual
register's bit is its id, which lowering hands out densely per function.
Facts without such a number are numbered on first use by
:func:`mask_of`; :func:`unpack_solution` turns a mask solution back into
a :class:`BlockFacts` of frozensets, given the facts in bit order.

The original frozenset solver is kept as :func:`solve_backward_sets` for
differential testing and benchmarking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Tuple

from ..ir.cfg import Cfg, FunctionIR

Fact = Hashable
FactSet = FrozenSet[Fact]

#: entry/exit bitsets per block name, as returned by the mask kernels
MaskFacts = Dict[str, int]


@dataclass
class BlockFacts:
    """Solution at block granularity: facts on entry and on exit."""

    entry: Dict[str, FactSet]
    exit: Dict[str, FactSet]


def mask_of(facts: Iterable[Fact], index: Dict[Fact, int]) -> int:
    """Pack ``facts`` into a bitset, assigning fresh bit indices on first
    use — ``index`` is the (mutable) fact numbering shared by one solve."""
    mask = 0
    for fact in facts:
        bit = index.get(fact)
        if bit is None:
            bit = index[fact] = len(index)
        mask |= 1 << bit
    return mask


def facts_of(mask: int, universe: List[Fact]) -> FactSet:
    """Unpack a bitset back to a frozenset; ``universe`` lists facts in
    bit-index order (i.e. ``list(index)``).

    Walks the mask a 64-bit word at a time so the per-bit arithmetic
    happens on machine-word ints, not on the full arbitrary-precision
    mask.
    """
    out = []
    base = 0
    while mask:
        word = mask & 0xFFFFFFFFFFFFFFFF
        while word:
            low = word & -word
            out.append(universe[base + low.bit_length() - 1])
            word ^= low
        mask >>= 64
        base += 64
    return frozenset(out)


def solve_backward_masks(
    cfg: Cfg,
    gen: MaskFacts,
    kill: MaskFacts,
    boundary: int = 0,
) -> Tuple[MaskFacts, MaskFacts]:
    """Backward may-analysis over int bitsets, on the function's CFG:
    in = gen | (out & ~kill), out = OR of successors' in.

    ``boundary`` seeds the out-set of every exit block (blocks with no
    successors).
    """
    names = cfg.order
    preds = cfg.preds
    succs = cfg.succs
    entry: MaskFacts = {n: 0 for n in names}
    exit_: MaskFacts = {n: 0 for n in names}
    for name in names:
        if not succs[name]:
            exit_[name] = boundary

    worklist = deque(reversed(names))
    queued = set(names)
    while worklist:
        name = worklist.popleft()
        queued.discard(name)
        if succs[name]:
            merged = 0
            for succ in succs[name]:
                merged |= entry[succ]
            exit_[name] = merged
        new_entry = gen[name] | (exit_[name] & ~kill[name])
        if new_entry != entry[name]:
            entry[name] = new_entry
            for pred in preds[name]:
                if pred not in queued:
                    worklist.append(pred)
                    queued.add(pred)
    return entry, exit_


def unpack_solution(
    entry_m: MaskFacts, exit_m: MaskFacts, universe: List[Fact]
) -> BlockFacts:
    """Unpack a mask solution to :class:`BlockFacts`, memoizing by mask
    value — adjacent blocks in straight-line code share entry/exit sets,
    so most unpacks are dictionary hits."""
    cache: Dict[int, FactSet] = {}

    def unpack(mask: int) -> FactSet:
        got = cache.get(mask)
        if got is None:
            got = cache[mask] = facts_of(mask, universe)
        return got

    return BlockFacts(
        entry={n: unpack(m) for n, m in entry_m.items()},
        exit={n: unpack(m) for n, m in exit_m.items()},
    )


# ---------------------------------------------------------------------------
# Reference frozenset solver.  Kept verbatim for differential tests
# (bitset solution == set solution on every CFG) and for the benchmark
# that documents the bitset kernel's speedup; not used on the hot path.
# ---------------------------------------------------------------------------


def solve_backward_sets(
    function: FunctionIR,
    gen: Dict[str, FactSet],
    kill: Dict[str, FactSet],
    boundary: FactSet = frozenset(),
) -> BlockFacts:
    """Reference backward solver over frozensets (see module docstring)."""
    names = [b.name for b in function.blocks]
    block_map = function.block_map()
    preds = function.predecessors()
    entry: Dict[str, FactSet] = {n: frozenset() for n in names}
    exit_: Dict[str, FactSet] = {n: frozenset() for n in names}
    for name in names:
        if not block_map[name].successors():
            exit_[name] = boundary

    worklist: List[str] = list(reversed(names))
    in_worklist = set(worklist)
    while worklist:
        name = worklist.pop(0)
        in_worklist.discard(name)
        succs = block_map[name].successors()
        if succs:
            exit_[name] = frozenset().union(*(entry[s] for s in succs))
        new_entry = gen[name] | (exit_[name] - kill[name])
        if new_entry != entry[name]:
            entry[name] = new_entry
            for pred in preds[name]:
                if pred not in in_worklist:
                    worklist.append(pred)
                    in_worklist.add(pred)
    return BlockFacts(entry=entry, exit=exit_)
