"""Reaching-definitions analysis.

A definition is identified by ``(block name, index, register)``.  The
solution says, for each block entry, which definitions may reach it.  It
is one of the analyses the paper lists for phase 2; no pass in ``src/``
consumes it today — the tests exercise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from ..ir.cfg import FunctionIR
from ..ir.values import VReg
from .dataflow import BlockFacts, solve_forward_masks, unpack_solution

#: (block name, instruction index within block, defined register)
Definition = Tuple[str, int, VReg]


@dataclass
class ReachingDefinitions:
    """Reaching-definition facts plus handy lookup helpers."""

    facts: BlockFacts
    all_definitions: List[Definition]

    def reaching_entry(self, block_name: str) -> FrozenSet[Definition]:
        return self.facts.entry[block_name]

    def definitions_of(self, reg: VReg) -> List[Definition]:
        return [d for d in self.all_definitions if d[2] == reg]


def reaching_definitions(function: FunctionIR) -> ReachingDefinitions:
    """Solve reaching definitions with definitions numbered once.

    Each definition site gets one bit; gen/kill are built directly as
    bitsets (a block kills every other definition of the registers it
    writes, including the boundary/parameter definition).
    """
    all_defs: List[Definition] = []
    index: Dict[Definition, int] = {}
    local_last_of: Dict[str, Dict[VReg, Definition]] = {}
    for block in function.blocks:
        local_last: Dict[VReg, Definition] = {}
        for position, instr in enumerate(block.instructions):
            if instr.dest is not None:
                definition = (block.name, position, instr.dest)
                all_defs.append(definition)
                index[definition] = len(index)
                local_last[instr.dest] = definition
        local_last_of[block.name] = local_last

    # Parameters are definitions from 'outside'; model them as boundary
    # facts with index -1 in the entry block.
    boundary_defs = [
        (function.entry.name, -1, reg) for reg in function.param_regs
    ]
    for definition in boundary_defs:
        index[definition] = len(index)

    #: every definition bit (boundary included) of each register
    reg_mask: Dict[VReg, int] = {}
    for definition, bit in index.items():
        reg = definition[2]
        reg_mask[reg] = reg_mask.get(reg, 0) | 1 << bit

    gen: Dict[str, int] = {}
    kill: Dict[str, int] = {}
    boundary_mask = 0
    for definition in boundary_defs:
        boundary_mask |= 1 << index[definition]
    for block in function.blocks:
        gen_mask = 0
        kill_mask = 0
        for reg, definition in local_last_of[block.name].items():
            bit = 1 << index[definition]
            gen_mask |= bit
            kill_mask |= reg_mask[reg] & ~bit
        gen[block.name] = gen_mask
        kill[block.name] = kill_mask

    entry_m, exit_m = solve_forward_masks(
        function, gen, kill, boundary=boundary_mask
    )
    facts = unpack_solution(entry_m, exit_m, list(index))
    return ReachingDefinitions(facts=facts, all_definitions=all_defs)
