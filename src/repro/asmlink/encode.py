"""Binary download-module format (phase 4 "format conversion").

The paper's phase 4 ends with "linking, format conversion for download
modules" — the artifact shipped to the Warp interface unit.  This module
defines that wire format: a compact little-endian encoding of a
:class:`DownloadModule`, with a string table, per-section programs
(deduplicated — a section downloads once however many cells run it), and
fully resolved bundles.

The format round-trips exactly: ``decode_module(encode_module(m))``
yields a module whose digest equals the original's, and the decoded
module runs on the array simulator.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Dict, List, Optional, Tuple

from ..ir.instructions import Opcode
from ..machine.resources import FU_SLOTS, PhysReg
from .objformat import (
    AssembledFunction,
    Bundle,
    CellProgram,
    DownloadModule,
    MachineOp,
)

MAGIC = b"WARP"
VERSION = 1

#: Stable wire ids for opcodes and functional units (enum order is part
#: of the format; bump VERSION when it changes).
_OPCODE_LIST = list(Opcode)
_OPCODE_ID = {op: i for i, op in enumerate(_OPCODE_LIST)}
_FU_ID = {fu: i for i, fu in enumerate(FU_SLOTS)}

_OPERAND_REG = 0
_OPERAND_INT = 1
_OPERAND_FLOAT = 2


class FormatError(Exception):
    """The byte stream is not a valid download module."""


class _Writer:
    def __init__(self):
        self.buffer = io.BytesIO()
        self.strings: Dict[str, int] = {}
        self.string_list: List[str] = []

    def intern(self, text: str) -> int:
        index = self.strings.get(text)
        if index is None:
            index = len(self.string_list)
            self.strings[text] = index
            self.string_list.append(text)
        return index

    def u8(self, value: int) -> None:
        self.buffer.write(struct.pack("<B", value))

    def u16(self, value: int) -> None:
        self.buffer.write(struct.pack("<H", value))

    def u32(self, value: int) -> None:
        self.buffer.write(struct.pack("<I", value))

    def i64(self, value: int) -> None:
        self.buffer.write(struct.pack("<q", value))

    def f64(self, value: float) -> None:
        self.buffer.write(struct.pack("<d", value))


class _Reader:
    def __init__(self, data: bytes):
        self.buffer = io.BytesIO(data)
        self.strings: List[str] = []

    def _read(self, size: int) -> bytes:
        data = self.buffer.read(size)
        if len(data) != size:
            raise FormatError("truncated download module")
        return data

    def u8(self) -> int:
        return struct.unpack("<B", self._read(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._read(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._read(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self._read(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._read(8))[0]

    def string(self) -> str:
        index = self.u32()
        if index >= len(self.strings):
            raise FormatError(f"string index {index} out of range")
        return self.strings[index]


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_module(module: DownloadModule) -> bytes:
    """Serialize a download module to bytes."""
    writer = _Writer()
    # Body is written first into `writer.buffer`; the header and string
    # table are prepended at the end (interning happens during the walk).
    programs: List[Tuple[str, CellProgram]] = []
    seen = set()
    for cell in sorted(module.cell_programs):
        program = module.cell_programs[cell]
        if id(program) not in seen:
            seen.add(id(program))
            programs.append((program.section_name, program))

    writer.u32(writer.intern(module.module_name))
    writer.u32(writer.intern(module.diagnostics_text))
    writer.u16(len(programs))
    for _name, program in programs:
        _encode_program(writer, program)
    writer.u16(len(module.cell_programs))
    section_index = {name: i for i, (name, _p) in enumerate(programs)}
    for cell in sorted(module.cell_programs):
        writer.u16(cell)
        writer.u16(section_index[module.cell_programs[cell].section_name])

    body = writer.buffer.getvalue()
    head = io.BytesIO()
    head.write(MAGIC)
    head.write(struct.pack("<H", VERSION))
    head.write(struct.pack("<I", len(writer.string_list)))
    for text in writer.string_list:
        raw = text.encode("utf-8")
        head.write(struct.pack("<I", len(raw)))
        head.write(raw)
    return head.getvalue() + body


def _encode_program(writer: _Writer, program: CellProgram) -> None:
    writer.u32(writer.intern(program.section_name))
    writer.u32(writer.intern(program.entry))
    writer.u32(program.data_words)
    writer.u16(len(program.functions))
    for name in sorted(program.functions):
        function = program.functions[name]
        writer.u32(writer.intern(name))
        writer.u32(program.frame_bases[name])
        _encode_function(writer, function)


def _encode_function(writer: _Writer, function: AssembledFunction) -> None:
    writer.u32(writer.intern(function.section_name))
    writer.u8(len(function.param_regs))
    for reg in function.param_regs:
        _encode_reg(writer, reg)
    banks = {None: 0, "i": 1, "f": 2}
    writer.u8(banks[function.return_bank])
    writer.u32(function.frame_words)
    writer.u32(len(function.bundles))
    for bundle in function.bundles:
        ops = bundle.all_ops()
        writer.u8(len(ops))
        for op in ops:
            _encode_op(writer, op)


def _encode_reg(writer: _Writer, reg: PhysReg) -> None:
    writer.u8(1 if reg.bank == "i" else 2)
    writer.u16(reg.index)


def _encode_op(writer: _Writer, op: MachineOp) -> None:
    writer.u8(_OPCODE_ID[op.op])
    writer.u8(_FU_ID[op.fu])
    writer.u8(op.latency)
    if op.dest is None:
        writer.u8(0)
    else:
        _encode_reg(writer, op.dest)
    writer.u8(len(op.operands))
    for operand in op.operands:
        if isinstance(operand, PhysReg):
            writer.u8(_OPERAND_REG)
            _encode_reg(writer, operand)
        elif isinstance(operand, int):
            writer.u8(_OPERAND_INT)
            writer.i64(operand)
        else:
            writer.u8(_OPERAND_FLOAT)
            writer.f64(float(operand))
    if op.array_offset is None:
        writer.u8(0)
    else:
        writer.u8(1)
        writer.u32(op.array_offset)
        writer.u32(writer.intern(op.array_name or ""))
    writer.u8(len(op.labels))
    for label in op.labels:
        if not isinstance(label, int):
            raise FormatError(
                f"unresolved label {label!r}: assemble before encoding"
            )
        writer.u32(label)
    if op.callee is None:
        writer.u8(0)
    else:
        writer.u8(1)
        writer.u32(writer.intern(op.callee))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def decode_module(data: bytes) -> DownloadModule:
    """Reconstruct a download module from its wire format."""
    if data[:4] != MAGIC:
        raise FormatError("not a Warp download module (bad magic)")
    version = struct.unpack("<H", data[4:6])[0]
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}")
    (string_count,) = struct.unpack("<I", data[6:10])
    offset = 10
    strings: List[str] = []
    for _ in range(string_count):
        (length,) = struct.unpack("<I", data[offset:offset + 4])
        offset += 4
        strings.append(data[offset:offset + length].decode("utf-8"))
        offset += length

    reader = _Reader(data[offset:])
    reader.strings = strings

    module_name = reader.string()
    diagnostics = reader.string()
    program_count = reader.u16()
    programs = [_decode_program(reader) for _ in range(program_count)]
    module = DownloadModule(
        module_name=module_name, diagnostics_text=diagnostics
    )
    cell_count = reader.u16()
    for _ in range(cell_count):
        cell = reader.u16()
        index = reader.u16()
        if index >= len(programs):
            raise FormatError(f"program index {index} out of range")
        module.cell_programs[cell] = programs[index]
    return module


def _decode_program(reader: _Reader) -> CellProgram:
    section_name = reader.string()
    entry = reader.string()
    data_words = reader.u32()
    program = CellProgram(
        section_name=section_name, entry=entry, data_words=data_words
    )
    for _ in range(reader.u16()):
        name = reader.string()
        frame_base = reader.u32()
        function = _decode_function(reader, name)
        program.functions[name] = function
        program.frame_bases[name] = frame_base
    return program


def _decode_function(reader: _Reader, name: str) -> AssembledFunction:
    section_name = reader.string()
    params = [_decode_reg(reader) for _ in range(reader.u8())]
    bank_code = reader.u8()
    return_bank = {0: None, 1: "i", 2: "f"}[bank_code]
    frame_words = reader.u32()
    bundles: List[Bundle] = []
    for _ in range(reader.u32()):
        bundle = Bundle()
        for _ in range(reader.u8()):
            bundle.add(_decode_op(reader))
        bundles.append(bundle)
    return AssembledFunction(
        name=name,
        section_name=section_name,
        bundles=bundles,
        param_regs=params,
        return_bank=return_bank,
        frame_words=frame_words,
    )


def _decode_reg(reader: _Reader) -> PhysReg:
    bank_code = reader.u8()
    if bank_code not in (1, 2):
        raise FormatError(f"bad register bank code {bank_code}")
    index = reader.u16()
    return PhysReg("i" if bank_code == 1 else "f", index)


def _decode_op(reader: _Reader) -> MachineOp:
    opcode_id = reader.u8()
    if opcode_id >= len(_OPCODE_LIST):
        raise FormatError(f"bad opcode id {opcode_id}")
    op = _OPCODE_LIST[opcode_id]
    fu = FU_SLOTS[reader.u8()]
    latency = reader.u8()
    dest: Optional[PhysReg] = None
    bank_code = reader.u8()
    if bank_code:
        if bank_code not in (1, 2):
            raise FormatError(f"bad register bank code {bank_code}")
        dest = PhysReg("i" if bank_code == 1 else "f", reader.u16())
    operands = []
    for _ in range(reader.u8()):
        tag = reader.u8()
        if tag == _OPERAND_REG:
            operands.append(_decode_reg(reader))
        elif tag == _OPERAND_INT:
            operands.append(reader.i64())
        elif tag == _OPERAND_FLOAT:
            operands.append(reader.f64())
        else:
            raise FormatError(f"bad operand tag {tag}")
    array_offset = None
    array_name = None
    if reader.u8():
        array_offset = reader.u32()
        array_name = reader.string() or None
    labels = tuple(reader.u32() for _ in range(reader.u8()))
    callee = None
    if reader.u8():
        callee = reader.string()
    return MachineOp(
        op=op,
        fu=fu,
        latency=latency,
        dest=dest,
        operands=tuple(operands),
        array_offset=array_offset,
        array_name=array_name,
        labels=labels,
        callee=callee,
    )


def write_module(module: DownloadModule, path: str) -> int:
    """Encode to a file; returns the byte count."""
    data = encode_module(module)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def read_module(path: str) -> DownloadModule:
    with open(path, "rb") as handle:
        return decode_module(handle.read())
