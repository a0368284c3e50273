"""Linker: lay a section's functions out into per-cell programs.

Each function's frame (its arrays plus spill area) gets a static base
address in the cell's data memory — the language forbids recursion, so
static allocation is exact.  Every cell of a section runs the same
program; the entry function is ``main`` if the section has one, otherwise
the section's first function.

The function masters assembled their functions (labels are local), so
linking is Katseff's short sequential fixup [9] over the sealed bytes:
merge the string tables, patch the references to them
(:func:`~repro.asmlink.encode.splice_program`).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, List

from ..machine.warp_cell import WarpCellModel
from .encode import FunctionBlob, splice_program
from .objformat import CellProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..driver.function_master import FunctionTaskResult


class LinkError(Exception):
    """The section does not fit the cell or references are unresolved."""


class PayloadCorruption(Exception):
    """A result's ``code`` does not hash to its sealed ``payload_digest``."""


def link_section(
    section_name: str,
    results: List["FunctionTaskResult"],
    cell: WarpCellModel,
) -> CellProgram:
    """Link one section's sealed results, in source order, into a cell
    program.  Bytes that do not hash to their seal are refused
    (:class:`PayloadCorruption`), malformed ones too
    (:class:`~repro.asmlink.encode.FormatError`)."""
    if not results:
        raise LinkError(f"section {section_name!r} has no functions to link")
    functions = []
    for result in results:
        if hashlib.sha256(result.code).hexdigest() != result.payload_digest:
            raise PayloadCorruption(
                f"object code of {result.section_name}."
                f"{result.function_name} does not match its payload digest"
            )
        functions.append(FunctionBlob(result.code))
    names = [function.name for function in functions]
    if len(set(names)) != len(names):
        raise LinkError(f"duplicate function names in section {section_name!r}")

    frame_bases, base = {}, 0
    for function in functions:
        if function.section_name != section_name:
            raise LinkError(
                f"function {function.name!r} belongs to section "
                f"{function.section_name!r}, not {section_name!r}"
            )
        frame_bases[function.name] = base
        base += function.frame_words

    if base > cell.data_memory_words:
        raise LinkError(
            f"section {section_name!r} needs {base} data words; the cell "
            f"has {cell.data_memory_words}"
        )

    entry = "main" if "main" in frame_bases else names[0]
    blob, callees = splice_program(section_name, entry, base, [
        (frame_bases[function.name], function)
        for function in sorted(functions, key=lambda f: f.name)
    ])
    for name in names:
        for callee in callees[name]:
            if callee not in frame_bases:
                raise LinkError(
                    f"call to {callee!r} from {name!r} "
                    f"cannot be resolved within section {section_name!r}"
                )
    return CellProgram.from_encoded(blob)


def link_work_units(results: List["FunctionTaskResult"]) -> int:
    """Cost proxy for linking: bundles touched plus symbol table size."""
    return sum(result.report.bundles for result in results) + len(results)
