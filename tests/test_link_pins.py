"""The section link splices bytes, and writes the program the old link wrote.

A function master seals its function's *assembled* code and the link
merges string tables and renumbers references over those bytes
(:func:`repro.asmlink.encode.splice_program`).  The link it replaced
assembled every function's object graph in the master and encoded the
program afresh; it is kept here as the reference, and every program
blob of the corpus below must equal its bytes.  (It read each function
back from an object-function blob first; that decode rebuilt the graph
the code generator built, which is what the reference is handed here.)
"""

import pytest

from repro import CompileOptions
from repro.asmlink.assembler import assemble_function
from repro.asmlink.encode import encode_program
from repro.asmlink.linker import link_section
from repro.asmlink.objformat import CellProgram
from repro.driver.function_master import attach_assembly
from repro.driver.phases import compile_one_function, phase1_parse_and_check
from repro.fuzz import config_for_size_class, generate_program
from repro.machine.warp_cell import WarpCellModel
from repro.workloads import synthetic_program, user_program


def reference_program(section_name, objects) -> bytes:
    """The old link: assemble each function, lay the frames out in
    source order, ``main`` or the first function as the entry, encode."""
    functions, frame_bases, base = {}, {}, 0
    for obj in objects:
        functions[obj.name] = assemble_function(obj)
        frame_bases[obj.name] = base
        base += obj.frame_words
    return encode_program(
        CellProgram(
            section_name=section_name,
            functions=functions,
            entry="main" if "main" in functions else objects[0].name,
            frame_bases=frame_bases,
            data_words=base,
        )
    )


def programs():
    """(family, name, source): the optimizer's 154-program list — the
    end-to-end benchmark's cold modules (``cold_branchy``'s ``fz0`` to
    ``fz11``, ``cold_loopnest``'s four and its two smoke modules), the
    generator's seeds 0–39 at three size classes and ``S_n`` of four size
    classes for n = 1, 2, 4, 8 — each distinct module once (138)."""
    listed = [
        ("cold", "s2_large", synthetic_program("large", 2)),
        ("cold", "s1_huge", synthetic_program("huge", 1)),
        ("cold", "s4_medium", synthetic_program("medium", 4)),
        ("cold", "mech_eng", user_program()),
        ("cold", "s2_small", synthetic_program("small", 2)),
        ("cold", "s1_medium", synthetic_program("medium", 1)),
    ]
    for size in ("small", "medium", "large"):
        config = config_for_size_class(size)
        listed += [
            (f"generated-{size}", f"fz{seed}_{size}",
             generate_program(seed, config).source)
            for seed in range(40)
        ]
    listed += [
        ("synthetic", f"s{n}_{size}", synthetic_program(size, n))
        for size in ("tiny", "small", "medium", "large")
        for n in (1, 2, 4, 8)
    ]
    seen = set()
    for family, name, source in listed:
        if source not in seen:
            seen.add(source)
            yield family, name, source


FAMILIES = [
    "cold", "generated-small", "generated-medium", "generated-large",
    "synthetic",
]


def test_the_list_is_the_optimizers():
    assert len({source for _, _, source in programs()}) == 138
    assert {family for family, _, _ in programs()} == set(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_program_blob_is_the_old_links(family):
    cell = WarpCellModel()
    modules = sections = 0
    for program_family, name, source in programs():
        if program_family != family:
            continue
        parsed = phase1_parse_and_check(source)
        for section in parsed.module.sections:
            objects, sealed = [], []
            for function in section.functions:
                obj, report = compile_one_function(
                    parsed, section.name, function.name, CompileOptions()
                )
                objects.append(obj)
                sealed.append(attach_assembly(obj, report))
            got = link_section(section.name, sealed, cell).encoded()
            assert got == reference_program(section.name, objects), (
                name, section.name,
            )
            sections += 1
        modules += 1
    assert modules and sections >= modules
