"""Object-code format for Warp cell programs.

Code generation (phase 3) produces one :class:`ObjectFunction` per source
function; its *function master* resolves the labels to bundle indices as
it encodes it, and ships those bytes.  The linker splices a section's
functions into a :class:`CellProgram` per processing element, whose
decoded form holds :class:`AssembledFunction` s.

A :class:`Bundle` is one wide instruction: at most one operation per
functional unit, all issued in the same cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..ir.instructions import Opcode
from ..machine.resources import FU_SLOTS, FUClass, PhysReg

#: Machine operands are physical registers or immediate numbers.
MachineOperand = Union[PhysReg, int, float]


@dataclass(frozen=True)
class MachineOp:
    """One operation inside a wide instruction."""

    op: Opcode
    fu: FUClass
    latency: int
    dest: Optional[PhysReg] = None
    operands: Tuple[MachineOperand, ...] = ()
    #: word offset of the accessed array within the function frame
    array_offset: Optional[int] = None
    #: source-level array identity, kept for alias analysis and debugging
    array_name: Optional[str] = None
    #: branch targets: label strings before assembly, bundle indices after
    labels: Tuple[Union[str, int], ...] = ()
    callee: Optional[str] = None

    def __str__(self) -> str:
        parts = [self.op.value]
        if self.dest is not None:
            parts.insert(0, f"{self.dest} =")
        if self.callee:
            parts.append(self.callee)
        if self.array_offset is not None:
            parts.append(f"[frame+{self.array_offset}]")
        if self.operands:
            parts.append(", ".join(str(v) for v in self.operands))
        if self.labels:
            parts.append("-> " + ", ".join(str(l) for l in self.labels))
        return " ".join(parts)


@dataclass
class Bundle:
    """One VLIW instruction: ops keyed by the functional unit they occupy."""

    ops: Dict[FUClass, MachineOp] = field(default_factory=dict)

    def add(self, op: MachineOp) -> None:
        if op.fu in self.ops:
            raise ValueError(f"slot {op.fu} already occupied in bundle")
        self.ops[op.fu] = op

    def occupied(self, fu: FUClass) -> bool:
        return fu in self.ops

    def is_empty(self) -> bool:
        return not self.ops

    def all_ops(self) -> List[MachineOp]:
        """Ops in a fixed slot order (deterministic for printing/digests)."""
        ops = self.ops
        if len(ops) < 2:  # most bundles: a nop, or one op
            return list(ops.values())
        return [ops[fu] for fu in FU_SLOTS if fu in ops]

    def __str__(self) -> str:
        if self.is_empty():
            return "{nop}"
        return "{" + " | ".join(str(op) for op in self.all_ops()) + "}"


@dataclass
class ScheduledBlock:
    """A scheduled basic block: label plus its bundle sequence."""

    label: str
    bundles: List[Bundle] = field(default_factory=list)

    @property
    def cycle_count(self) -> int:
        return len(self.bundles)


@dataclass
class CodegenInfo:
    """Accounting attached to each object function (drives the cost model
    and the EXPERIMENTS reporting; not needed to execute the code)."""

    schedule_cycles: int = 0
    pipelined_loops: int = 0
    initiation_intervals: List[int] = field(default_factory=list)
    work_units: int = 0
    spill_slots: int = 0


@dataclass
class ObjectFunction:
    """Relocatable code for one function (pre-link)."""

    name: str
    section_name: str
    blocks: List[ScheduledBlock] = field(default_factory=list)
    param_regs: List[PhysReg] = field(default_factory=list)
    return_bank: Optional[str] = None  # 'i' / 'f' / None for void
    frame_words: int = 0
    info: CodegenInfo = field(default_factory=CodegenInfo)

    def bundle_count(self) -> int:
        return sum(len(b.bundles) for b in self.blocks)

    def digest_text(self) -> str:
        """Deterministic printable form of the code (not of ``info``):
        the readable side of a failed comparison.  What crosses a
        boundary, is hashed and is compared, is the encoded form."""
        lines = [
            f"func {self.section_name}.{self.name} "
            f"params=({', '.join(str(r) for r in self.param_regs)}) "
            f"ret={self.return_bank or 'void'} frame={self.frame_words}"
        ]
        for block in self.blocks:
            lines.append(f"{block.label}:")
            lines.extend(f"  {bundle}" for bundle in block.bundles)
        return "\n".join(lines)


@dataclass
class AssembledFunction:
    """Code after label resolution: a flat bundle list."""

    name: str
    section_name: str
    bundles: List[Bundle] = field(default_factory=list)
    param_regs: List[PhysReg] = field(default_factory=list)
    return_bank: Optional[str] = None
    frame_words: int = 0
    info: CodegenInfo = field(default_factory=CodegenInfo)


@dataclass
class CellProgram:
    """Everything one cell needs: linked functions and frame layout.

    A program is also its blob (:func:`repro.asmlink.encode.encode_program`):
    :meth:`encoded` computes it once — a program is not edited after it
    is linked — and one built by :meth:`from_encoded` starts from the
    blob and decodes its code when that is first read.
    """

    section_name: str
    functions: Dict[str, AssembledFunction] = field(default_factory=dict)
    entry: str = "main"
    #: function name -> base word address of its (static) frame
    frame_bases: Dict[str, int] = field(default_factory=dict)
    data_words: int = 0

    @classmethod
    def from_encoded(cls, blob: bytes) -> "CellProgram":
        """The program ``blob`` encodes, read as far as the blob's head:
        ``functions`` and ``frame_bases`` are decoded when first asked
        for (see :meth:`__getattr__`)."""
        from .encode import program_head

        _, section_name, entry, data_words, words = program_head(blob)
        program = cls.__new__(cls)
        program.__dict__.update(
            section_name=section_name,
            entry=entry,
            data_words=data_words,
            _encoded=blob,
            _words=words,
        )
        return program

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance does not have:
        # after from_encoded, its code.
        if name in ("functions", "frame_bases") and "_encoded" in self.__dict__:
            from .encode import decode_program

            whole = decode_program(self._encoded)
            self.functions = whole.functions
            self.frame_bases = whole.frame_bases
            return self.__dict__[name]
        raise AttributeError(name)

    def encoded(self) -> bytes:
        blob = self.__dict__.get("_encoded")
        if blob is None:
            from .encode import encode_program

            blob = self._encoded = encode_program(self)
        return blob

    def size_words(self) -> int:
        """Download size: one word per operation plus one per bundle."""
        words = self.__dict__.get("_words")
        if words is None:
            words = self._words = sum(
                1 + len(bundle.ops)
                for function in self.functions.values()
                for bundle in function.bundles
            )
        return words

    def total_bundles(self) -> int:
        return sum(len(f.bundles) for f in self.functions.values())


@dataclass
class DownloadModule:
    """The final artifact of phase 4: one program per cell of the array.

    :meth:`encoded` is the ``.warp`` form, computed once — a module is
    not edited after it is built; its SHA-256 is the module digest.
    """

    module_name: str
    #: cell index -> program for that cell
    cell_programs: Dict[int, CellProgram] = field(default_factory=dict)
    diagnostics_text: str = ""

    @property
    def cells_used(self) -> int:
        return len(self.cell_programs)

    def encoded(self) -> bytes:
        data = self.__dict__.get("_encoded")
        if data is None:
            from .encode import encode_module

            data = self._encoded = encode_module(self)
        return data
