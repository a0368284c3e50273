"""Download-module construction and deterministic serialization.

``build_download_module`` is the tail of phase 4: it replicates each
section's linked program onto the cells that section claims.  The module
digest — the hash of the encoded module — is what our integration tests
compare to prove the parallel compiler produces byte-identical output to
the sequential compiler, the paper's §3.2 correctness requirement.
"""

from __future__ import annotations

import hashlib
from itertools import zip_longest
from typing import Dict, List, Tuple

from .objformat import CellProgram, DownloadModule


def build_download_module(
    module_name: str,
    section_cells: Dict[str, Tuple[int, int]],
    programs: Dict[str, CellProgram],
    diagnostics_text: str = "",
) -> DownloadModule:
    """Assign each section's program to its cell range."""
    module = DownloadModule(
        module_name=module_name, diagnostics_text=diagnostics_text
    )
    for section_name, (first, last) in section_cells.items():
        program = programs.get(section_name)
        if program is None:
            raise KeyError(f"no linked program for section {section_name!r}")
        for cell in range(first, last + 1):
            module.cell_programs[cell] = program
    return module


def module_digest(module: DownloadModule) -> str:
    """SHA-256 of the encoded module — of the file ``--emit binary``
    writes, so ``sha256sum m.warp`` prints it.  The encoding covers
    every field of every op, the frame layout, the cell table and the
    diagnostics, so equal digests mean bit-identical modules."""
    return hashlib.sha256(module.encoded()).hexdigest()


def module_listing(module: DownloadModule) -> str:
    """Deterministic, human-readable dump of a download module: what
    ``warpcc disasm`` prints and what a failed comparison quotes."""
    lines: List[str] = [f"download-module {module.module_name}"]
    # Replicated cells share one CellProgram: its functions render once.
    rendered: Dict[int, List[str]] = {}
    for cell in sorted(module.cell_programs):
        program = module.cell_programs[cell]
        lines.append(
            f"cell {cell}: section {program.section_name} "
            f"entry={program.entry} data={program.data_words}"
        )
        body = rendered.get(id(program))
        if body is None:
            body = rendered[id(program)] = []
            for name in sorted(program.functions):
                function = program.functions[name]
                body.append(
                    f"  {name}: frame@{program.frame_bases[name]} params=("
                    f"{', '.join(str(r) for r in function.param_regs)}) "
                    f"ret={function.return_bank or 'void'}"
                )
                for index, bundle in enumerate(function.bundles):
                    body.append(f"    {index:4d} {bundle}")
        lines.extend(body)
    if module.diagnostics_text:
        lines.append("diagnostics:")
        lines.append(module.diagnostics_text)
    return "\n".join(lines)


def listing_difference(got: DownloadModule, want: DownloadModule) -> str:
    """Where two modules' listings first differ, for a mismatch report
    (modules that differ only in a field the listing omits say so)."""
    pairs = zip_longest(
        module_listing(got).splitlines(),
        module_listing(want).splitlines(),
        fillvalue="<end of listing>",
    )
    for number, (line, other) in enumerate(pairs, 1):
        if line != other:
            return f"listing line {number}: {line!r} != {other!r}"
    return "identical listings; the encodings differ in a field not listed"


def module_size_words(module: DownloadModule) -> int:
    """Rough download size: one word per operation plus headers.

    Used by the cluster simulator to price moving the module from the
    compile host to the Warp interface unit over the network.
    Replicated sections download once per cell.
    """
    return sum(
        program.size_words() for program in module.cell_programs.values()
    )
