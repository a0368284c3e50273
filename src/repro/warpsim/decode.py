"""The form warpsim executes: each cell's program, decoded once per run.

An operand becomes a ``(list, index)`` slot into its cell's own lists —
a register's bank and number, or an immediate's place in the constant
list — so reading it is one subscript.  A bundle is ``(ops, receives,
sends)``; an op is one flat tuple ``(kind, fn, latency, conv, dest_list,
dest_index, a_list, a_index, b_list, b_index, extra)``: ``fn`` is what
it computes (or the callee, or a memory op's name for its trap),
``conv`` makes a result the destination's type, ``a`` and ``b`` are the
first two operands, and ``extra`` is what one kind needs — a frame
address, branch targets, or the opcode and every operand slot.
"""

from __future__ import annotations

import operator
from typing import Dict, NamedTuple, Tuple

from ..asmlink.objformat import CellProgram, MachineOp
from ..ir.instructions import Opcode
from ..machine.resources import PhysReg

# Op kinds, in the order the engine tests them (commonest first).
BINARY, MOVE, LOAD, STORE, BRANCH, JUMP, EVALUATE = range(7)
SEND, RECV, CALL, RETURN = range(7, 11)

#: Ops that are one C call.  A comparison's bool becomes 1/0 (or
#: 1.0/0.0) through ``conv``, as ``evaluate_constant``'s 1/0 does.
_BINARY = {
    Opcode.ADD: operator.add, Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul, Opcode.MIN: min, Opcode.MAX: max,
    Opcode.CEQ: operator.eq, Opcode.CNE: operator.ne,
    Opcode.CLT: operator.lt, Opcode.CLE: operator.le,
    Opcode.CGT: operator.gt, Opcode.CGE: operator.ge,
}
#: The rest of the arithmetic goes through ``evaluate_constant``.
_EVALUATED = {
    Opcode.DIV, Opcode.MOD, Opcode.SQRT, Opcode.NOT, Opcode.AND, Opcode.OR,
    Opcode.NEG, Opcode.ABS, Opcode.ITOF, Opcode.FTOI,
}
_PLAIN = {
    Opcode.SEND: SEND, Opcode.RECV: RECV,
    Opcode.CALL: CALL, Opcode.RET: RETURN,
}


def _stored(value):
    return value


class DecodedFunction(NamedTuple):
    name: str
    bundles: tuple
    #: (list, index, conv) per parameter register
    params: Tuple[tuple, ...]


def decode_program(
    program: CellProgram, iregs: list, fregs: list, consts: list
) -> Dict[str, DecodedFunction]:
    """Every function of ``program``, decoded against these lists.

    A register numbered past the end of its list grows the list in
    place: the lists keep their identity, so a call frame saves copies
    and a return copies them back.
    """

    def register(reg: PhysReg) -> tuple:
        if reg.bank == "i":
            regs, default, conv = iregs, 0, int
        else:
            regs, default, conv = fregs, 0.0, float
        if reg.index >= len(regs):
            regs.extend([default] * (reg.index + 1 - len(regs)))
        return regs, reg.index, conv

    def slot(operand) -> tuple:
        if isinstance(operand, PhysReg):
            return register(operand)[:2]
        consts.append(operand)
        return consts, len(consts) - 1

    def decode_op(op: MachineOp, frame: str) -> tuple:
        opcode = op.op
        slots = tuple(slot(v) for v in op.operands)
        a_list, a_index = slots[0] if slots else (None, 0)
        b_list, b_index = slots[1] if len(slots) > 1 else (None, 0)
        dest = register(op.dest) if op.dest is not None else (None, 0, None)
        fn, conv, extra = None, dest[2], (opcode, slots)
        if opcode in _BINARY and len(slots) >= 2:
            kind, fn = BINARY, _BINARY[opcode]
        elif opcode in (Opcode.LI, Opcode.MOV) and slots:
            kind = MOVE
        elif opcode in _BINARY or opcode in _EVALUATED:
            kind, fn = EVALUATE, opcode  # exact for any operand count
        elif opcode is Opcode.LOAD:
            kind, fn = LOAD, "memory access"
            extra = program.frame_bases[frame] + op.array_offset
        elif opcode is Opcode.STORE:
            kind, fn, conv = STORE, "store", _stored
            extra = program.frame_bases[frame] + op.array_offset
        elif opcode is Opcode.JMP:
            kind, extra = JUMP, op.labels[0]
        elif opcode is Opcode.BR:
            kind, extra = BRANCH, (op.labels[0], op.labels[1])
        elif opcode in _PLAIN:
            kind, fn, extra = _PLAIN[opcode], op.callee, slots
        else:  # pragma: no cover - exhaustive over opcodes
            raise ValueError(f"unexecutable op {opcode}")
        return (kind, fn, op.latency, conv, dest[0], dest[1],
                a_list, a_index, b_list, b_index, extra)

    functions = {}
    for name, function in program.functions.items():
        bundles = []
        for bundle in function.bundles:
            ops = bundle.all_ops()
            opcodes = [op.op for op in ops]
            bundles.append((
                tuple(decode_op(op, function.name) for op in ops),
                opcodes.count(Opcode.RECV),
                opcodes.count(Opcode.SEND),
            ))
        params = tuple(register(reg) for reg in function.param_regs)
        functions[name] = DecodedFunction(
            function.name, tuple(bundles), params
        )
    return functions
