"""The one serial form of object code (phase 4 "format conversion").

The paper's phase 4 ends with "linking, format conversion for download
modules" — the artifact shipped to the Warp interface unit.  This module
defines that format, and everything that holds object code as bytes
holds it in this format:

- a **download module** (the ``.warp`` file) is ``MAGIC, VERSION, name,
  diagnostics``, then each distinct program's blob behind its length,
  then the cell table.  Its SHA-256 is the module digest
  (:func:`repro.asmlink.download.module_digest`);
- a **program blob** (one :class:`CellProgram`; the body of a section
  cache entry) is self-contained — ``section, entry, data words, size in
  words``, its own string table, its functions in name order — so a
  module is built from programs by concatenation and a program is a
  slice of the module that holds it;
- a **function blob** (the ``code`` of a function master's result and
  the body of an artifact cache entry) is one function's *assembled*
  code — ``size in words``, its own string table, then the function as
  a program holds it, branch targets bundle indices — which the linker
  splices into a program (:func:`splice_program`).  It holds the code,
  not the accounting: ``info`` travels in the result's
  :class:`~repro.driver.results.FunctionReport`, so an edit that leaves
  a function's code alone leaves its blob — and the hash of it, which
  keys the link tier — alone, however much work compiling it took.

Every number is an unsigned LEB128 varint; strings are UTF-8 behind
their length; an integer immediate is two's complement behind its byte
count, so the encoding is total over what the code generator can emit.
Each bundle sits behind its byte length (``{nop}`` is the single byte 0).
That frame is what makes every direction cheap: generated code repeats
itself — the 6,720 ops of an 8 × ``f_medium`` module are 299 distinct
ones — so the encoder remembers each op's bytes, and the decoder and
the splice each bundle's, per blob, because string references are the
blob's own.

Only the form the encoder writes is read, so ``decode_module`` and
:func:`splice_program` of anything else raise :class:`FormatError` and
nothing but, and what they accept encodes back to the same bytes.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from ..gcpause import collector_paused
from ..ir.instructions import Opcode
from ..machine.resources import FU_SLOTS, PhysReg
from .assembler import AssemblyError, block_indices
from .objformat import (
    AssembledFunction,
    Bundle,
    CellProgram,
    DownloadModule,
    MachineOp,
    ObjectFunction,
)

MAGIC = b"WARP"
#: 2: varints, per-program string tables, framed bundles, integer
#: immediates of any size.
VERSION = 2

#: Stable wire ids for opcodes and functional units (enum order is part
#: of the format; bump VERSION when it changes).
_OPCODE_LIST = list(Opcode)
_OPCODE_ID = {op: i for i, op in enumerate(_OPCODE_LIST)}
_FU_ID = {fu: i for i, fu in enumerate(FU_SLOTS)}
_BANK_ID = {None: 0, "i": 1, "f": 2}
_BANKS = (None, "i", "f")

_OPERAND_REG = 0
_OPERAND_INT = 1
_OPERAND_FLOAT = 2

#: the kind byte before every branch target (it is a bundle index)
_LABEL_INDEX = 0

#: which optional fields an op carries
_HAS_DEST = 1
_HAS_ARRAY_OFFSET = 2
_HAS_ARRAY_NAME = 4
_HAS_CALLEE = 8

_F64 = struct.Struct("<d")
_HEAD = struct.Struct("<4sH")
_SMALL = [bytes((value,)) for value in range(0x80)]


class FormatError(Exception):
    """The bytes are not valid object code (or the object code cannot
    be written: a label name in a download module)."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _uint(value: int) -> bytes:
    if 0 <= value < 0x80:
        return _SMALL[value]
    if value < 0:
        raise FormatError(f"cannot encode negative count or index {value}")
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _text(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _uint(len(raw)) + raw


def _reg(reg: PhysReg) -> bytes:
    return _SMALL[_BANK_ID[reg.bank]] + _uint(reg.index)


class _BlobWriter:
    """One blob's body, its string table, and its op memo."""

    def __init__(self, labels: Optional[Dict[str, int]] = None):
        #: block label -> bundle index, for a function that is assembled
        #: while it is encoded; a program holds assembled code only, so
        #: a label name there is an error
        self.labels = labels
        self.body = bytearray()
        self.words = 0
        self._strings: Dict[str, int] = {}
        self._op_by_id: Dict[int, bytes] = {}
        self._op_by_value: Dict[object, bytes] = {}

    def ref(self, text: str) -> bytes:
        return _uint(self._strings.setdefault(text, len(self._strings)))

    def string_table(self) -> bytes:
        return _uint(len(self._strings)) + b"".join(map(_text, self._strings))

    def signature(self, function) -> None:
        """The fields object and assembled functions share."""
        body = self.body
        body += self.ref(function.name)
        body += self.ref(function.section_name)
        body += _uint(len(function.param_regs))
        for reg in function.param_regs:
            body += _reg(reg)
        body += _SMALL[_BANK_ID[function.return_bank]]
        body += _uint(function.frame_words)

    def bundles(self, bundles: List[Bundle]) -> None:
        """Each bundle behind its byte length (the count is the caller's)."""
        body = self.body
        by_id = self._op_by_id
        for bundle in bundles:
            ops = bundle.ops
            self.words += 1 + len(ops)
            if not ops:
                body.append(0)
                continue
            raw = b""
            for op in bundle.all_ops():
                encoded = by_id.get(id(op))
                if encoded is None:
                    encoded = by_id[id(op)] = self._op(op)
                raw += encoded
            body += _uint(len(raw))
            body += raw

    def _op(self, op: MachineOp) -> bytes:
        # Equal ops have equal bytes — except that 1 == 1.0 and
        # 0.0 == -0.0, so the key also says what each immediate is.
        immediates = tuple(
            [
                value.hex() if type(value) is float else type(value)
                for value in op.operands
                if type(value) is not PhysReg
            ]
        )
        key = (op, immediates) if immediates else op
        encoded = self._op_by_value.get(key)
        if encoded is None:
            encoded = self._op_by_value[key] = self._encode_op(op)
        return encoded

    def _encode_op(self, op: MachineOp) -> bytes:
        flags = (
            (_HAS_DEST if op.dest is not None else 0)
            | (_HAS_ARRAY_OFFSET if op.array_offset is not None else 0)
            | (_HAS_ARRAY_NAME if op.array_name is not None else 0)
            | (_HAS_CALLEE if op.callee is not None else 0)
        )
        out = bytearray((_OPCODE_ID[op.op], _FU_ID[op.fu], flags))
        out += _uint(op.latency)
        if op.dest is not None:
            out += _reg(op.dest)
        out += _uint(len(op.operands))
        for operand in op.operands:
            if isinstance(operand, PhysReg):
                out.append(_OPERAND_REG)
                out += _reg(operand)
            elif isinstance(operand, int):
                raw = operand.to_bytes(
                    operand.bit_length() // 8 + 1, "little", signed=True
                )
                out.append(_OPERAND_INT)
                out += _uint(len(raw))
                out += raw
            elif isinstance(operand, float):
                out.append(_OPERAND_FLOAT)
                out += _F64.pack(operand)
            else:
                raise FormatError(f"cannot encode operand {operand!r}")
        if op.array_offset is not None:
            out += _uint(op.array_offset)
        if op.array_name is not None:
            out += self.ref(op.array_name)
        out += _uint(len(op.labels))
        for label in op.labels:
            if not isinstance(label, int):
                if self.labels is None:
                    raise FormatError(
                        f"unresolved label {label!r}: assemble before encoding"
                    )
                if label not in self.labels:
                    raise AssemblyError(f"unresolved label {label!r}")
                label = self.labels[label]
            out.append(_LABEL_INDEX)
            out += _uint(label)
        if op.callee is not None:
            out += self.ref(op.callee)
        return bytes(out)


def encode_program(program: CellProgram) -> bytes:
    """One linked program as a self-contained blob."""
    writer = _BlobWriter()
    body = writer.body
    body += _uint(len(program.functions))
    for name in sorted(program.functions):
        function = program.functions[name]
        body += _uint(program.frame_bases[name])
        writer.signature(function)
        body += _uint(len(function.bundles))
        writer.bundles(function.bundles)
    return b"".join(
        (
            _text(program.section_name),
            _text(program.entry),
            _uint(program.data_words),
            _uint(writer.words),
            writer.string_table(),
            body,
        )
    )


def encode_function(obj: ObjectFunction) -> bytes:
    """One function's blob, assembled as it is encoded: branch targets
    resolved to bundle indices, each op in the bytes a program holds it
    in.  Raises what :func:`~repro.asmlink.assembler.assemble_function`
    would."""
    writer = _BlobWriter(block_indices(obj))
    body = writer.body
    writer.signature(obj)
    body += _uint(obj.bundle_count())
    for block in obj.blocks:
        writer.bundles(block.bundles)
    return _uint(writer.words) + writer.string_table() + body


def function_words(blob: bytes) -> int:
    """A function blob's first varint: its size in words (assembly work)."""
    return _uint_at(blob, 0)[0]


def encode_module(module: DownloadModule) -> bytes:
    """Serialize a download module to bytes."""
    # Programs in order of their first cell; replicated cells share one
    # program, which downloads once.
    index_of: Dict[int, int] = {}
    blobs: List[bytes] = []
    cells: List[bytes] = []
    for cell in sorted(module.cell_programs):
        program = module.cell_programs[cell]
        index = index_of.get(id(program))
        if index is None:
            index = index_of[id(program)] = len(index_of)
            blob = program.encoded()
            blobs += (_uint(len(blob)), blob)
        cells += (_uint(cell), _uint(index))
    return b"".join(
        [
            _HEAD.pack(MAGIC, VERSION),
            _text(module.module_name),
            _text(module.diagnostics_text),
            _uint(len(index_of)),
            *blobs,
            _uint(len(cells) // 2),
            *cells,
        ]
    )


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _uint_at(data: bytes, pos: int) -> Tuple[int, int]:
    """The varint at ``pos`` and the position behind it (IndexError when
    it runs off the end).  Only its shortest form is a number: a longer
    one would decode, and encode back to other bytes."""
    value = data[pos]
    pos += 1
    if value < 0x80:
        return value, pos
    value &= 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if byte == 0:
                raise FormatError("number not in its shortest form")
            return value, pos
        shift += 7
        if shift > 63:
            raise FormatError("oversized number")


def _register_at(raw: bytes, pos: int) -> Tuple[Tuple[int, int], int]:
    bank = raw[pos]
    if bank not in (1, 2):
        raise FormatError(f"bad register bank code {bank}")
    index, pos = _uint_at(raw, pos + 1)
    return (bank, index), pos


def _ref_at(raw: bytes, pos: int) -> Tuple[Tuple[int, int, int], int]:
    index, end = _uint_at(raw, pos)
    return (pos, end, index), end


def _read_bundle(raw: bytes) -> List[tuple]:
    """The ops of one framed bundle (one per slot, in slot order), each
    ``(opcode id, unit id, latency, dest, operands, array offset, array
    name, labels, callee)``: a register is ``(bank, index)``, a string
    reference ``(start, end, index)`` of its number in ``raw``.  The
    frame is the bundle's own: IndexError is a truncated op."""
    end = len(raw)
    ops = []
    last_fu = -1
    pos = 0
    while pos < end:
        opcode_id, fu_id, flags = raw[pos], raw[pos + 1], raw[pos + 2]
        if opcode_id >= len(_OPCODE_LIST):
            raise FormatError(f"bad opcode id {opcode_id}")
        if not last_fu < fu_id < len(FU_SLOTS):
            raise FormatError(f"bad functional unit id {fu_id} in its bundle")
        if flags > 15:
            raise FormatError(f"bad op flags {flags:#x}")
        last_fu = fu_id
        latency, pos = _uint_at(raw, pos + 3)
        dest = array_offset = array_name = callee = None
        if flags & _HAS_DEST:
            dest, pos = _register_at(raw, pos)
        count, pos = _uint_at(raw, pos)
        operands = []
        for _ in range(count):
            tag = raw[pos]
            if tag == _OPERAND_REG:
                reg, pos = _register_at(raw, pos + 1)
                operands.append(reg)
            elif tag == _OPERAND_INT:
                size, pos = _uint_at(raw, pos + 1)
                if pos + size > end:
                    raise IndexError
                value = int.from_bytes(raw[pos : pos + size], "little", signed=True)
                if size != value.bit_length() // 8 + 1:
                    raise FormatError("integer not in its shortest form")
                operands.append(value)
                pos += size
            elif tag == _OPERAND_FLOAT:
                if pos + 9 > end:
                    raise IndexError
                operands.append(_F64.unpack_from(raw, pos + 1)[0])
                pos += 9
            else:
                raise FormatError(f"bad operand tag {tag}")
        if flags & _HAS_ARRAY_OFFSET:
            array_offset, pos = _uint_at(raw, pos)
        if flags & _HAS_ARRAY_NAME:
            array_name, pos = _ref_at(raw, pos)
        count, pos = _uint_at(raw, pos)
        labels = []
        for _ in range(count):
            if raw[pos] != _LABEL_INDEX:
                raise FormatError(f"bad label kind {raw[pos]}")
            target, pos = _uint_at(raw, pos + 1)
            labels.append(target)
        if flags & _HAS_CALLEE:
            callee, pos = _ref_at(raw, pos)
        ops.append((
            opcode_id, fu_id, latency, dest, operands, array_offset,
            array_name, tuple(labels), callee,
        ))
    return ops


class _Reader:
    """A cursor over a module or a blob; running off the end is a
    FormatError.  A blob's string table is read up front and its
    bundles are remembered by their bytes."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what
        self.strings: List[str] = []
        #: size of the bundles read so far: a word each, and one per op
        self.words = 0
        self._bundles: Dict[bytes, Dict] = {}
        self._regs: Dict[Tuple[int, int], PhysReg] = {}

    def uint(self) -> int:
        try:
            value, self.pos = _uint_at(self.data, self.pos)
        except IndexError:
            raise FormatError(f"truncated {self.what}") from None
        return value

    def take(self, size: int) -> bytes:
        raw = self.data[self.pos : self.pos + size]
        if len(raw) != size:
            raise FormatError(f"truncated {self.what}")
        self.pos += size
        return raw

    def text(self) -> str:
        try:
            return self.take(self.uint()).decode("utf-8")
        except UnicodeDecodeError as error:
            raise FormatError(f"bad string in {self.what}: {error}") from None

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"trailing bytes after {self.what}")

    def string_table(self) -> None:
        self.strings = [self.text() for _ in range(self.uint())]

    def ref(self) -> str:
        index = self.uint()
        if index >= len(self.strings):
            raise FormatError(f"string index {index} out of range")
        return self.strings[index]

    def _reg(self, bank: int, index: int) -> PhysReg:
        reg = self._regs.get((bank, index))
        if reg is None:
            if bank not in (1, 2):
                raise FormatError(f"bad register bank code {bank}")
            reg = self._regs[bank, index] = PhysReg(_BANKS[bank], index)
        return reg

    def signature(self) -> dict:
        name = self.ref()
        section_name = self.ref()
        params = [
            self._reg(self.uint(), self.uint()) for _ in range(self.uint())
        ]
        bank = self.uint()
        if bank > 2:
            raise FormatError(f"bad return bank code {bank}")
        return dict(
            name=name,
            section_name=section_name,
            param_regs=params,
            return_bank=_BANKS[bank],
            frame_words=self.uint(),
        )

    def bundles(self) -> List[Bundle]:
        known = self._bundles
        data = self.data
        bundles: List[Bundle] = []
        count = self.uint()
        self.words += count
        pos = self.pos
        try:
            for _ in range(count):
                size = data[pos]
                pos += 1
                if size == 0:
                    bundles.append(Bundle())
                    continue
                if size >= 0x80:
                    size, pos = _uint_at(data, pos - 1)
                raw = data[pos : pos + size]
                pos += size
                ops = known.get(raw)
                if ops is None:
                    if len(raw) != size:
                        raise IndexError
                    ops = known[raw] = self._decode_bundle(raw)
                self.words += len(ops)
                bundles.append(Bundle(dict(ops)))
        except IndexError:
            raise FormatError(
                f"malformed {self.what}: a field runs past its frame or "
                f"names a string the table lacks"
            ) from None
        self.pos = pos
        return bundles

    def _decode_bundle(self, raw: bytes) -> Dict:
        """The ops of one bundle, by slot."""
        strings, reg = self.strings, self._reg
        ops: Dict = {}
        for opcode, fu, latency, dest, operands, offset, name, labels, callee in (
            _read_bundle(raw)
        ):
            fu = FU_SLOTS[fu]
            ops[fu] = MachineOp(
                op=_OPCODE_LIST[opcode],
                fu=fu,
                latency=latency,
                dest=None if dest is None else reg(*dest),
                operands=tuple(
                    reg(*value) if type(value) is tuple else value
                    for value in operands
                ),
                array_offset=offset,
                array_name=None if name is None else strings[name[2]],
                labels=labels,
                callee=None if callee is None else strings[callee[2]],
            )
        return ops


def program_head(blob: bytes) -> Tuple[_Reader, str, str, int, int]:
    """A program blob's fixed head — ``(section, entry, data words, size
    in words)`` — and the reader positioned behind it.  What a cached
    link needs of a program is here; nothing behind it is touched."""
    reader = _Reader(blob, "program")
    return reader, reader.text(), reader.text(), reader.uint(), reader.uint()


@collector_paused()
def decode_program(blob: bytes) -> CellProgram:
    """Rebuild one program from its blob."""
    reader, section_name, entry, data_words, words = program_head(blob)
    reader.string_table()
    program = CellProgram(
        section_name=section_name, entry=entry, data_words=data_words
    )
    for _ in range(reader.uint()):
        frame_base = reader.uint()
        signature = reader.signature()
        name = signature["name"]
        if name in program.functions:
            raise FormatError(f"function {name!r} appears twice")
        program.functions[name] = AssembledFunction(
            bundles=reader.bundles(), **signature
        )
        program.frame_bases[name] = frame_base
    reader.finish()
    if reader.words != words:
        raise FormatError(f"program says {words} words, holds {reader.words}")
    return program


# ---------------------------------------------------------------------------
# Splicing: function blobs into a program blob
# ---------------------------------------------------------------------------


class FunctionBlob:
    """A function blob read up to its bundles: size in words, string
    table, the signature's fields, and where its bundles start."""

    def __init__(self, blob: bytes):
        reader = _Reader(blob, "function blob")
        self.blob = blob
        self.words = reader.uint()
        reader.string_table()
        self.strings = reader.strings
        self.__dict__.update(reader.signature())
        self.code = reader.pos


def splice_program(
    section_name: str,
    entry: str,
    data_words: int,
    functions: List[Tuple[int, FunctionBlob]],
) -> Tuple[bytes, Dict[str, List[str]]]:
    """The program blob of ``functions`` — ``(frame base, blob)`` pairs
    in name order — byte for byte what :func:`encode_program` writes, and
    each function's callees.  Bundles are copied but for their string
    references, renumbered into the program's table in the order they
    are met, as :func:`encode_program` numbers them; each distinct
    bundle is read once and rewritten once per function holding it."""
    writer = _BlobWriter()
    body = writer.body
    body += _uint(len(functions))
    read: Dict[bytes, Tuple[int, list]] = {}
    callees: Dict[str, List[str]] = {}
    words = 0
    for frame_base, function in functions:
        body += _uint(frame_base)
        writer.signature(function)
        blob, table = function.blob, function.strings
        calls = callees[function.name] = []
        rewritten: Dict[bytes, bytes] = {}
        try:
            count, pos = _uint_at(blob, function.code)
            body += blob[function.code : pos]
            copied, found = pos, count
            for _ in range(count):
                start = pos
                if blob[pos] == 0:
                    pos += 1
                    continue
                size, pos = _uint_at(blob, pos)
                raw = blob[pos : pos + size]
                if len(raw) != size:
                    raise IndexError
                pos += size
                known = read.get(raw)
                if known is None:
                    ops = _read_bundle(raw)
                    refs = [(*op[6], False) for op in ops if op[6]]
                    refs += [(*op[8], True) for op in ops if op[8]]
                    known = read[raw] = (len(ops), sorted(refs))
                found += known[0]
                if not known[1]:
                    continue
                framed = rewritten.get(raw)
                if framed is None:
                    pieces, last = [], 0
                    for begin, end, index, is_callee in known[1]:
                        pieces += (raw[last:begin], writer.ref(table[index]))
                        last = end
                        if is_callee and table[index] not in calls:
                            calls.append(table[index])
                    pieces.append(raw[last:])
                    spliced = b"".join(pieces)
                    framed = rewritten[raw] = _uint(len(spliced)) + spliced
                body += blob[copied:start]
                body += framed
                copied = pos
        except IndexError:
            raise FormatError(
                f"malformed function blob {function.name!r}: a field runs "
                f"past its frame or names a string the table lacks"
            ) from None
        body += blob[copied:pos]
        if pos != len(blob):
            raise FormatError(f"trailing bytes after function {function.name!r}")
        if found != function.words:
            raise FormatError(
                f"function {function.name!r} says {function.words} words, "
                f"holds {found}"
            )
        words += found
    return (
        b"".join((
            _text(section_name), _text(entry), _uint(data_words),
            _uint(words), writer.string_table(), body,
        )),
        callees,
    )


def decode_module(data: bytes) -> DownloadModule:
    """Reconstruct a download module from its wire format."""
    if data[:4] != MAGIC:
        raise FormatError("not a Warp download module (bad magic)")
    reader = _Reader(data, "download module")
    if len(data) < _HEAD.size:
        raise FormatError("truncated download module")
    version = _HEAD.unpack_from(data)[1]
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}")
    reader.pos = _HEAD.size
    module = DownloadModule(
        module_name=reader.text(), diagnostics_text=reader.text()
    )
    programs = [
        decode_program(reader.take(reader.uint()))
        for _ in range(reader.uint())
    ]
    for _ in range(reader.uint()):
        cell, index = reader.uint(), reader.uint()
        if index >= len(programs):
            raise FormatError(f"program index {index} out of range")
        if cell in module.cell_programs:
            raise FormatError(f"cell {cell} appears twice")
        module.cell_programs[cell] = programs[index]
    reader.finish()
    return module


def write_module(module: DownloadModule, path: str) -> int:
    """Encode to a file; returns the byte count."""
    data = module.encoded()
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def read_module(path: str) -> DownloadModule:
    with open(path, "rb") as handle:
        return decode_module(handle.read())
