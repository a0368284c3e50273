"""Assembler: resolve block labels into bundle indices (phase 4 work).

Assembly is cheap relative to optimization and code generation — the
paper keeps it sequential for exactly that reason (§3.4: "the time spent
in the assembly stage is short compared to the time spent on code
generation") — but it must be deterministic: the section masters feed the
assembler "the same input ... as the sequential compiler".

Labels are function-local, so each function master resolves its own as
it seals the function (:func:`~repro.asmlink.encode.encode_function`)
and the section link splices bytes, as in Katseff's scheme [9].
:func:`assemble_function` builds the object graph instead, for
:mod:`~repro.asmlink.parallel_assembler` and as the tests' reference.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from .objformat import (
    AssembledFunction,
    Bundle,
    ObjectFunction,
    ScheduledBlock,
)


class AssemblyError(Exception):
    """A label could not be resolved or the layout is malformed."""


def block_indices(obj: ObjectFunction) -> Dict[str, int]:
    """Block label -> index of its first bundle in the flattened code."""
    label_to_index: Dict[str, int] = {}
    index = 0
    for block in obj.blocks:
        if block.label in label_to_index:
            raise AssemblyError(
                f"duplicate label {block.label!r} in {obj.name!r}"
            )
        if not block.bundles:
            raise AssemblyError(
                f"empty block {block.label!r} in {obj.name!r}"
            )
        label_to_index[block.label] = index
        index += len(block.bundles)
    return label_to_index


def assemble_function(obj: ObjectFunction) -> AssembledFunction:
    """Flatten blocks into one bundle list and resolve branch targets."""
    label_to_index = block_indices(obj)
    bundles: List[Bundle] = []
    for block in obj.blocks:
        for bundle in block.bundles:
            bundles.append(_resolve_bundle(bundle, label_to_index, obj.name))

    return AssembledFunction(
        name=obj.name,
        section_name=obj.section_name,
        bundles=bundles,
        param_regs=list(obj.param_regs),
        return_bank=obj.return_bank,
        frame_words=obj.frame_words,
        info=obj.info,
    )


def _resolve_bundle(
    bundle: Bundle, label_to_index: Dict[str, int], function_name: str
) -> Bundle:
    resolved = Bundle()
    if not bundle.ops:
        return resolved
    for op in bundle.all_ops():
        if op.labels:
            try:
                targets = tuple(
                    label_to_index[label] if isinstance(label, str) else label
                    for label in op.labels
                )
            except KeyError as missing:
                raise AssemblyError(
                    f"unresolved label {missing.args[0]!r} in {function_name!r}"
                ) from None
            op = replace(op, labels=targets)
        resolved.add(op)
    return resolved


def assembly_work_units(obj: ObjectFunction) -> int:
    """Cost proxy for assembling one function: ops touched."""
    return sum(len(b.ops) + 1 for block in obj.blocks for b in block.bundles)
