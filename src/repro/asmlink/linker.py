"""Linker: lay a section's functions out into per-cell programs.

Each function's frame (its arrays plus spill area) gets a static base
address in the cell's data memory — the language forbids recursion, so
static allocation is exact.  Every cell of a section runs the same
program; the entry function is ``main`` if the section has one, otherwise
the section's first function.
"""

from __future__ import annotations

from typing import Dict, List

from ..machine.warp_cell import WarpCellModel
from .assembler import assemble_function
from .objformat import AssembledFunction, CellProgram, ObjectFunction


class LinkError(Exception):
    """The section does not fit the cell or references are unresolved."""


def link_section(
    section_name: str,
    objects: List[ObjectFunction],
    cell: WarpCellModel,
) -> CellProgram:
    """Assemble and link one section's functions into a cell program."""
    if not objects:
        raise LinkError(f"section {section_name!r} has no functions to link")
    names = [o.name for o in objects]
    if len(set(names)) != len(names):
        raise LinkError(f"duplicate function names in section {section_name!r}")

    assembled: Dict[str, AssembledFunction] = {}
    frame_bases: Dict[str, int] = {}
    base = 0
    for obj in objects:
        if obj.section_name != section_name:
            raise LinkError(
                f"function {obj.name!r} belongs to section "
                f"{obj.section_name!r}, not {section_name!r}"
            )
        assembled[obj.name] = assemble_function(obj)
        frame_bases[obj.name] = base
        base += obj.frame_words

    if base > cell.data_memory_words:
        raise LinkError(
            f"section {section_name!r} needs {base} data words; the cell "
            f"has {cell.data_memory_words}"
        )

    _check_call_targets(section_name, assembled)

    entry = "main" if "main" in assembled else objects[0].name
    return CellProgram(
        section_name=section_name,
        functions=assembled,
        entry=entry,
        frame_bases=frame_bases,
        data_words=base,
    )


def _check_call_targets(
    section_name: str, assembled: Dict[str, AssembledFunction]
) -> None:
    for function in assembled.values():
        for bundle in function.bundles:
            for op in bundle.all_ops():
                if op.callee is not None and op.callee not in assembled:
                    raise LinkError(
                        f"call to {op.callee!r} from {function.name!r} "
                        f"cannot be resolved within section {section_name!r}"
                    )


def link_work_units(objects: List[ObjectFunction]) -> int:
    """Cost proxy for linking: bundles touched plus symbol table size."""
    return sum(o.bundle_count() for o in objects) + len(objects)
