"""Object code on disk as verified bytes; the digest as their SHA-256.

What these tests pin, each meaningless before the change:

- the module digest *is* the hash of the ``.warp`` bytes, through every
  way of getting a module (compilers cold / one-edit / warm, the
  service, the CLI);
- the hash discriminates at least as well as the listing it replaced;
- a no-edit compile reads one record and its sections: it lexes,
  parses, unpickles and decodes nothing, and anything wrong with the
  record is a counted miss;
- corruption in any tier is counted, quarantined and recompiled;
- the laziness is invisible: whatever is read off a warm result is what
  a cold compile gives;
- a compiled function has one form, and it is bytes: one result class,
  one payload digest (the hash of the code, which is also the cache
  entry's), nothing but bytes in a result wherever it is, assembled by
  its function master as it is sealed; the section link splices those
  bytes and builds no assembled object graph.
"""

import ast
import dataclasses
import functools
import hashlib
import json
import os
import pickle
import pickletools
import re
import struct
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.asmlink import encode
from repro.asmlink.download import (
    listing_difference,
    module_digest,
    module_listing,
    module_size_words,
)
from repro.asmlink import assembler, objformat
from repro.asmlink.encode import decode_module, encode_module
from repro.asmlink.objformat import CellProgram, DownloadModule
from repro import CompileOptions
from repro.cache import ArtifactCache, LinkCache, ParseCache
from repro.cache import store as store_module
from repro.cache.link_store import ModuleStore
from repro.cli import main
from repro.driver import function_master
from repro.driver.function_master import (
    FunctionTaskResult,
    clear_phase1_cache,
    result_payload_digest,
)
from repro.driver.master import ParallelCompiler
from repro.driver import phases
from repro.driver.phases import phase1_parse_and_check, phase4_link_and_download
from repro.driver.sequential import SequentialCompiler
from repro.fabric.wire import decode_result, encode_result
from repro.fuzz import config_for_size_class, generate_program
from repro.ir.instructions import Opcode
from repro.lang import lexer
from repro.machine.resources import FUClass, PhysReg
from repro.machine.warp_array import WarpArrayModel
from repro.parallel.local import SerialBackend
from repro.parallel.warm_pool import WarmPoolBackend
from repro.service import CompileService, EditSessionSpec, plan_edit_session
from repro.warpsim.array_runner import run_module
from repro.workloads import synthetic_program, user_program

from helpers import function_tasks

CORPUS = Path(__file__).parent / "corpus"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cached_compile(root, source, filename="<input>", options=CompileOptions()):
    """One ``warpcc compile`` per call: fresh handles on ``root``, a new
    compiler, no in-process memo.  Returns (result, compiler)."""
    clear_phase1_cache()
    compiler = ParallelCompiler(
        options=options,
        cache=ArtifactCache(root),
        parse_cache=ParseCache(root),
        link_cache=LinkCache(root),
    )
    return compiler.compile(source, filename), compiler


@functools.lru_cache(maxsize=None)
def sequential(source: str):
    """The reference compile of ``source`` (once per source)."""
    return SequentialCompiler().compile(source)


def edit_of(source: str) -> str:
    """``source`` with one literal changed where it changes the code."""
    for match in re.finditer(r"\b\d+\.\d+\b", source):
        edited = source[: match.end()] + "1" + source[match.end() :]
        if sequential(edited).digest != sequential(source).digest:
            return edited
    raise AssertionError("no literal of the program reaches its object code")


PROGRAMS = {
    "s2_medium": synthetic_program("medium", 2),
    "user_program": user_program(),
    "generated_3": generate_program(3, config_for_size_class("medium")).source,
    "generated_11": generate_program(11, config_for_size_class("small")).source,
}


# ---------------------------------------------------------------------------
# (a) one digest, however the module was come by
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_digest_is_the_hash_of_the_encoded_module(name, tmp_path):
    source = PROGRAMS[name]
    edited = edit_of(source)
    want = sequential(source).digest
    want_edited = sequential(edited).digest
    assert re.fullmatch(r"[0-9a-f]{64}", want)

    cold = ParallelCompiler().compile(source)
    fill, _ = cached_compile(tmp_path / "c", source)
    warm, warm_compiler = cached_compile(tmp_path / "c", source)
    one_edit, edit_compiler = cached_compile(tmp_path / "c", edited)
    assert warm_compiler.last_phase4_stats.mode == "cached"
    assert one_edit.profile.counts["artifact_cache.hits"] > 0
    assert one_edit.profile.counts["artifact_cache.misses"] > 0
    for result, digest in (
        (sequential(source), want),
        (cold, want),
        (fill, want),
        (warm, want),
        (one_edit, want_edited),
    ):
        assert result.digest == digest
        assert module_digest(result.download) == digest
        assert sha256(encode_module(result.download)) == digest
        assert sha256(result.download.encoded()) == digest

    with CompileService(SerialBackend()) as service:
        job = service.wait(service.submit(source), timeout=120.0)
    assert job.digest == want

    path = tmp_path / f"{name}.w2"
    path.write_text(source)
    out = tmp_path / f"{name}.warp"
    for _ in range(2):  # cold, then the module a record rebuilds
        assert main([
            "compile", str(path), "--parallel", "--cache-dir",
            str(tmp_path / "cli"), "--emit", "binary", "-o", str(out),
        ]) == 0
        assert sha256(out.read_bytes()) == want


# ---------------------------------------------------------------------------
# (b) the hash tells apart whatever the listing told apart, and more
# ---------------------------------------------------------------------------


def test_digests_are_equal_exactly_when_listings_are():
    sources = [
        json.loads(path.read_text())["source"]
        for path in sorted(CORPUS.glob("*.json"))
    ]
    sources += [
        generate_program(seed, config_for_size_class("small")).source
        for seed in range(10)
    ]
    seen = set()
    for source in sources:
        for compiler in (
            SequentialCompiler(CompileOptions(opt_level=1)),
            SequentialCompiler(CompileOptions(opt_level=2)),
            ParallelCompiler(options=CompileOptions(opt_level=1)),
        ):
            result = compiler.compile(source)
            seen.add((result.digest, module_listing(result.download)))
    digests = {digest for digest, _ in seen}
    listings = {listing for _, listing in seen}
    assert len(digests) == len(listings) == len(seen)
    assert len(seen) > len(sources)  # the pool does hold different modules


@pytest.fixture(scope="module")
def two_section_module():
    source = """
module two
section a (cells 0..1)
  function helper(v: float) : float begin return v + 1.0; end
  function main()
  var v: float; k: int; a: array[4] of float;
  begin for k := 1 to 2 do receive(v); a[k] := v; send(helper(a[k])); end; end
end
section b (cells 2..2)
  function main()
  var v: float; k: int;
  begin for k := 1 to 2 do receive(v); send(v * 2.0); end; end
end
end
"""
    return SequentialCompiler().compile(source).download.encoded()


def _some_op(module, wanted):
    """(program, function, bundle, op) of the first op ``wanted`` accepts."""
    for cell in sorted(module.cell_programs):
        program = module.cell_programs[cell]
        for name in sorted(program.functions):
            function = program.functions[name]
            for bundle in function.bundles:
                for op in bundle.all_ops():
                    if wanted(op):
                        return program, function, bundle, op
    raise AssertionError("no such op in the module")


OP_MUTATIONS = {
    "op": (lambda op: True, lambda op: replace(
        op, op=Opcode.SUB if op.op is not Opcode.SUB else Opcode.ADD)),
    "latency": (lambda op: True, lambda op: replace(op, latency=op.latency + 1)),
    "dest": (lambda op: op.dest is not None, lambda op: replace(
        op, dest=PhysReg(op.dest.bank, op.dest.index + 1))),
    "operands": (lambda op: op.operands, lambda op: replace(
        op, operands=op.operands[:-1])),
    "array_offset": (lambda op: op.array_offset is not None, lambda op: replace(
        op, array_offset=op.array_offset + 1)),
    "array_name": (lambda op: op.array_name is not None, lambda op: replace(
        op, array_name=op.array_name + "x")),
    "labels": (lambda op: op.labels, lambda op: replace(
        op, labels=tuple(target + 1 for target in op.labels))),
    "callee": (lambda op: op.callee is not None, lambda op: replace(
        op, callee="main")),
}


@pytest.mark.parametrize("field", sorted(OP_MUTATIONS))
def test_every_field_of_an_op_is_in_the_digest(field, two_section_module):
    wanted, mutate = OP_MUTATIONS[field]
    module = decode_module(two_section_module)
    _, _, bundle, op = _some_op(module, wanted)
    bundle.ops[op.fu] = mutate(op)
    assert bundle.ops[op.fu] != op
    assert module_digest(module) != sha256(two_section_module)


def test_the_functional_unit_is_in_the_digest(two_section_module):
    """``fu`` keys the bundle as well: move the op to a free slot."""
    module = decode_module(two_section_module)
    _, _, bundle, op = _some_op(module, lambda op: True)
    free = next(fu for fu in FUClass if fu not in bundle.ops)
    del bundle.ops[op.fu]
    bundle.add(replace(op, fu=free))
    assert module_listing(module) == module_listing(
        decode_module(two_section_module)
    ), "the listing never showed the unit"
    assert module_digest(module) != sha256(two_section_module)


def test_layout_cells_and_diagnostics_are_in_the_digest(two_section_module):
    want = sha256(two_section_module)

    def changed(change):
        module = decode_module(two_section_module)
        change(module)
        return module_digest(module)

    def frame_base(module):
        module.cell_programs[0].frame_bases["main"] += 1

    def entry(module):
        module.cell_programs[0].entry = "helper"

    def data_words(module):
        module.cell_programs[2].data_words += 1

    def cell_assignment(module):
        module.cell_programs[1] = module.cell_programs[2]

    def one_more_cell(module):
        module.cell_programs[3] = module.cell_programs[2]

    def diagnostics(module):
        module.diagnostics_text = "warning: something"

    def name(module):
        module.module_name += "x"

    digests = [
        changed(change)
        for change in (
            frame_base, entry, data_words, cell_assignment, one_more_cell,
            diagnostics, name,
        )
    ]
    assert want not in digests and len(set(digests)) == len(digests)
    assert changed(lambda module: None) == want


def test_a_mismatch_names_the_first_differing_listing_line(two_section_module):
    ours = decode_module(two_section_module)
    theirs = decode_module(two_section_module)
    _, _, bundle, op = _some_op(theirs, lambda op: op.dest is not None)
    bundle.ops[op.fu] = replace(op, dest=PhysReg(op.dest.bank, op.dest.index + 7))
    message = listing_difference(ours, theirs)
    assert message.startswith("listing line ")
    assert str(op.dest) in message and len(message) < 400
    # A field the listing never showed: the message says so.
    _, _, bundle, op = _some_op(ours, lambda op: True)
    bundle.ops[op.fu] = replace(op, latency=op.latency + 1)
    assert "not listed" in listing_difference(
        ours, decode_module(two_section_module)
    )
    # One listing a prefix of the other: the end is where they differ.
    shorter = decode_module(two_section_module)
    del shorter.cell_programs[2]
    assert "<end of listing>" in listing_difference(
        shorter, decode_module(two_section_module)
    )


# ---------------------------------------------------------------------------
# (c) a no-edit compile reads one record and its sections
# ---------------------------------------------------------------------------

SESSION = plan_edit_session(
    EditSessionSpec(
        seed=5, edits=2, functions=8, size_class="small", module_name="warm"
    )
)

#: what must not depend on how warm the caches were
STABLE_PROFILE_KEYS = (
    "parse_work", "sema_work", "assembly_work", "link_work", "download_words",
    "source_lines", "total_work", "function_work",
)
STABLE_FUNCTION_KEYS = (
    "section", "name", "source_lines", "ir_instructions", "loop_weight",
    "work_units", "bundles", "pipelined_loops", "initiation_intervals",
    "frame_words",
)


def stable_view(document: dict) -> dict:
    profile = document["profile"]
    return {
        **{key: document[key] for key in (
            "module", "digest", "diagnostics", "download_cells", "download_words",
        )},
        **{key: profile[key] for key in STABLE_PROFILE_KEYS},
        "functions": [
            {key: function[key] for key in STABLE_FUNCTION_KEYS}
            for function in profile["functions"]
        ],
    }


def refuse(what):
    def boom(*args, **kwargs):
        raise AssertionError(f"a warm compile called {what}")
    return boom


def refuse_everywhere(monkeypatch, original, what):
    """Rebind ``original`` to a function that fails the test, in every
    ``repro`` module that imported it."""
    import sys

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "repro":
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, refuse(what))


def test_a_no_edit_compile_decodes_nothing(tmp_path, monkeypatch):
    """One record and its section programs: no lex, no parse, no
    unpickle, no decoded instruction, no artifact read, no window parsed
    again."""
    source = SESSION[0].source
    cold, _ = cached_compile(tmp_path, source)
    assert cold.profile.counts["artifact_cache.misses"] == 8
    sections = len(phase1_parse_and_check(source).module.sections)

    refuse_everywhere(monkeypatch, lexer.tokenize, "tokenize")
    for name in ("decode_program", "splice_program", "decode_module"):
        refuse_everywhere(monkeypatch, getattr(encode, name), name)
    for name in ("bundles", "_decode_bundle", "string_table"):
        monkeypatch.setattr(encode._Reader, name, refuse(name))
    monkeypatch.setattr(pickle, "loads", refuse("pickle.loads"))
    monkeypatch.setattr(pickle, "Unpickler", refuse("pickle.Unpickler"))
    opened = []
    open_entry = store_module.open_entry
    monkeypatch.setattr(
        store_module, "open_entry",
        lambda data, tier, schema: opened.append(tier)
        or open_entry(data, tier, schema),
    )

    warm, compiler = cached_compile(tmp_path, source)

    assert sorted(opened) == ["link", "modules"]
    assert compiler.cache.counts["hits"] + compiler.cache.counts["misses"] == 0
    # what the record answer read: the record and its section programs
    assert warm.profile.counts == {
        "module_cache.hits": 1,
        "link_cache.hits": sections,
    }
    assert (warm.profile.phase1_mode, warm.profile.phase4_mode) == (
        "cached", "cached",
    )
    assert compiler.last_phase4_stats.mode == "cached"
    assert warm.digest == cold.digest == sha256(warm.download.encoded())
    assert warm.profile.download_words == cold.profile.download_words
    assert module_size_words(warm.download) == cold.profile.download_words
    assert stable_view(warm.to_dict()) == stable_view(cold.to_dict())
    assert warm.report_lines() == cold.report_lines()


def test_the_record_is_keyed_by_what_the_user_hands_in(tmp_path):
    """A changed filename, any option flipped, one more whitespace byte:
    each misses the record — and compiles to the sequential digest."""
    from test_artifact_cache import another_value

    source, filename = PROGRAMS["generated_11"], "m.w2"
    cached_compile(tmp_path, source, filename)
    base = CompileOptions()
    variants = [
        (source, "n.w2", base),
        (source + " ", filename, base),
        (" " + source, filename, base),
    ] + [
        (source, filename, dataclasses.replace(
            base, **{field.name: another_value(base, field.name)}
        ))
        for field in dataclasses.fields(base)
    ]
    assert len(variants) == 3 + 4
    for text, name, options in variants:
        result, compiler = cached_compile(tmp_path, text, name, options)
        assert compiler.link_cache.modules.counts["misses"] == 1, (name, options)
        assert compiler.last_phase1_stats.mode != "cached"
        want = SequentialCompiler(options).compile(text, name).digest
        assert result.digest == want
    # ...and each of them left a record of its own.
    assert len(entries_of(tmp_path, "modules")) == 1 + len(variants)


def test_a_warning_served_from_the_record_is_byte_identical(
    tmp_path, monkeypatch
):
    """The module embeds the master's diagnostics; a record serves the
    same text, with the filename it renders, and the same digest."""
    check_module = phases.check_module

    def warning_check(module, sink):
        sema = check_module(module, sink)
        sink.warning("unused result", module.sections[0].functions[0].span)
        return sema

    monkeypatch.setattr(phases, "check_module", warning_check)
    source = PROGRAMS["s2_medium"]
    want = SequentialCompiler().compile(source, "warn.w2")
    assert "warn.w2" in want.diagnostics_text
    assert "warning: unused result" in want.diagnostics_text

    def compile_once():
        clear_phase1_cache()
        compiler = ParallelCompiler(
            cache=ArtifactCache(tmp_path), link_cache=LinkCache(tmp_path)
        )
        return compiler.compile(source, "warn.w2"), compiler

    cold, _ = compile_once()
    monkeypatch.setattr(phases, "check_module", lambda *a: pytest.fail("sema"))
    warm, compiler = compile_once()
    assert compiler.last_phase1_stats.mode == "cached"
    for result in (cold, warm):
        assert result.diagnostics_text == want.diagnostics_text
        assert result.download.diagnostics_text == want.diagnostics_text
        assert result.digest == want.digest


def reseal_record(root, change):
    """Rewrite the one record under ``root`` with ``change(facts)``
    applied, well sealed: only what the record says is wrong."""
    (path,) = entries_of(root, "modules")
    facts, body = store_module.open_entry(
        path.read_bytes(), "modules", ModuleStore.SCHEMA
    )
    del facts["sha256"]
    change(facts)
    path.write_bytes(
        store_module.seal_entry("modules", ModuleStore.SCHEMA, facts, body)
    )


def mistyped_fact(root):
    reseal_record(root, lambda facts: facts.update(parse_work="many"))


def missing_link_entry(root):
    for path in entries_of(root, "link"):
        path.unlink()


def another_digest(root):
    reseal_record(root, lambda facts: facts.update(digest="0" * 64))


def cells_out_of_range(root):
    reseal_record(
        root, lambda facts: facts["sections"][0].update(last_cell=99)
    )


@pytest.mark.parametrize(
    "flaw",
    [mistyped_fact, missing_link_entry, another_digest, cells_out_of_range],
)
def test_a_flawed_record_is_a_counted_miss(flaw, tmp_path):
    source = PROGRAMS["generated_11"]
    cached_compile(tmp_path, source)
    flaw(tmp_path)

    result, compiler = cached_compile(tmp_path, source)

    assert result.digest == sequential(source).digest
    assert compiler.last_phase1_stats.mode != "cached"
    assert compiler.last_phase4_stats.mode == "parallel"
    modules, sections = compiler.link_cache.modules, compiler.link_cache.sections
    if flaw is missing_link_entry:
        linked = len(phase1_parse_and_check(source).module.sections)
        assert modules.counts["hits"] == 1
        assert sections.counts["misses"] == 1 + linked
    else:
        assert (modules.counts["hits"], modules.counts["misses"]) == (0, 1)
        assert modules.counts["corrupt"] == 1
    # The ordinary path wrote a good record back: the next one is served.
    again, compiler = cached_compile(tmp_path, source)
    assert compiler.last_phase1_stats.mode == "cached"
    assert again.digest == result.digest


def test_a_one_edit_compile_builds_its_module_from_bytes(tmp_path, monkeypatch):
    """The edit leaves the object code as it was (a dead statement), so
    the section tier hits and the module is header + cached blob + cell
    table: nothing is decoded, and only the edited function encoded."""
    cached_compile(tmp_path, SESSION[0].source)
    want = SequentialCompiler().compile(SESSION[1].source).digest

    def boom(*args, **kwargs):
        raise AssertionError("a one-edit compile decoded or re-encoded code")

    for name in ("decode_program", "encode_program"):
        monkeypatch.setattr(encode, name, boom)
    sealed = []
    seal = function_master.encode_function
    monkeypatch.setattr(
        function_master, "encode_function",
        lambda obj: sealed.append(obj.name) or seal(obj),
    )
    result, compiler = cached_compile(tmp_path, SESSION[1].source)
    assert len(sealed) == 1  # by its function master; put writes those bytes
    assert compiler.last_phase4_stats.mode == "parallel"
    assert result.profile.counts["link_cache.hits"] == 1
    assert "link_cache.misses" not in result.profile.counts
    assert result.profile.counts["artifact_cache.misses"] == 1
    assert result.digest == want


# ---------------------------------------------------------------------------
# (d) corruption in every tier
# ---------------------------------------------------------------------------


def entries_of(root, tier):
    return sorted((Path(root) / tier).glob("*/*.entry"))


def drop_records(root):
    """Delete the module tier's records: the other tiers are read only
    when the record misses."""
    for path in entries_of(root, "modules"):
        path.unlink()


def flip_body_byte(path, other):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x40
    path.write_bytes(bytes(data))


def flip_header_byte(path, other):
    data = bytearray(path.read_bytes())
    data[data.index(b'"tier"') + 2] ^= 0x01
    path.write_bytes(bytes(data))


def truncate(path, other):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) * 2 // 3])


def swap_with_another_tier(path, other):
    mine, theirs = path.read_bytes(), other.read_bytes()
    path.write_bytes(theirs)
    other.write_bytes(mine)


@pytest.mark.parametrize(
    "damage",
    [flip_body_byte, flip_header_byte, truncate, swap_with_another_tier],
)
@pytest.mark.parametrize("tier", ["objects", "parse", "link", "modules"])
def test_a_damaged_entry_is_counted_quarantined_and_recompiled(
    tier, damage, tmp_path
):
    source = PROGRAMS["generated_11"]
    want = sequential(source).digest
    cached_compile(tmp_path, source)
    if tier != "modules":
        drop_records(tmp_path)
    victim = entries_of(tmp_path, tier)[0]
    other_tier = "parse" if tier != "parse" else "objects"
    other = entries_of(tmp_path, other_tier)[0]
    damage(victim, other)

    result, compiler = cached_compile(tmp_path, source)

    assert result.digest == want
    counts = {
        "objects": compiler.cache.counts,
        "parse": compiler.parse_cache.counts,
        "link": compiler.link_cache.sections.counts,
        "modules": compiler.link_cache.modules.counts,
    }
    assert counts[tier]["corrupt"] == 1
    if damage is swap_with_another_tier:
        assert counts[other_tier]["corrupt"] == 1
    assert sum(c["corrupt"] for c in counts.values()) == (
        2 if damage is swap_with_another_tier else 1
    )
    # The store counts the damage; the compile counts only its lookups.
    assert not [name for name in result.profile.counts if "corrupt" in name]
    # Quarantined and written afresh: the next compile is clean and warm.
    again, compiler = cached_compile(tmp_path, source)
    assert again.digest == want
    assert compiler.last_phase4_stats.mode == "cached"
    assert "artifact_cache.misses" not in again.profile.counts
    assert compiler.cache.counts["corrupt"] == 0
    assert compiler.parse_cache.counts["corrupt"] == 0
    assert compiler.link_cache.counts["corrupt"] == 0


def test_a_parse_entry_naming_a_foreign_global_is_corrupt(tmp_path):
    """No tier unpickles: a parse entry whose sound header sits beside a
    pickle naming ``os.system`` is a body that is no fingerprint text —
    a counted corrupt miss, deleted and written afresh by its window's
    parse — and nothing it names runs."""
    source = PROGRAMS["generated_11"]
    want = sequential(source).digest
    cached_compile(tmp_path, source)
    canary = tmp_path / "pwned"

    class Evil:
        def __reduce__(self):
            return (os.system, (f"touch {canary}",))

    drop_records(tmp_path)
    victim = entries_of(tmp_path, "parse")[0]
    facts, _ = store_module.open_entry(
        victim.read_bytes(), "parse", ParseCache.SCHEMA
    )
    del facts["sha256"]
    victim.write_bytes(store_module.seal_entry(
        "parse", ParseCache.SCHEMA, facts, pickle.dumps(Evil())
    ))
    result, compiler = cached_compile(tmp_path, source)
    assert compiler.parse_cache.counts["corrupt"] == 1
    assert result.profile.counts["parse_cache.misses"] == 1
    assert not canary.exists()
    assert result.digest == want


def test_no_pickle_on_the_object_code_path():
    """Reading or writing an objects/, link/ or modules/ entry imports
    no pickle: the modules that do it do not name it."""
    import ast
    import repro.asmlink.encode
    import repro.asmlink.objformat
    import repro.cache.link_store
    import repro.cache.store

    for module in (
        repro.cache.store, repro.cache.link_store,
        repro.asmlink.encode, repro.asmlink.objformat,
    ):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } | {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        }
        assert not {"pickle", "pickled", "marshal", "shelve"} & imported, module


def test_no_pickle_is_left_in_src():
    """An AST walk over ``src/``, not a grep: no module imports pickle
    (or marshal), no ``PickleCodec(...)`` is constructed — no byte read
    from disk or a socket is unpickled; only ``multiprocessing``'s IPC
    pickles — and no tier is named ``netblobs``."""
    import ast
    import repro

    src = Path(repro.__file__).parent
    codecs, tiers = [], []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.split(".")[-1] for alias in node.names}
                names.add((getattr(node, "module", None) or "").split(".")[-1])
                assert not {"pickle", "pickled", "marshal"} & names, path
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if callee == "PickleCodec":
                    codecs.append(path.name)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, ast.Assign)
                        and getattr(item.targets[0], "id", "") == "SUBDIR"
                        and getattr(item.value, "value", "")
                    ):
                        tiers.append(item.value.value)
    assert codecs == []
    assert sorted(tiers) == [
        "link", "modules", "objects", "parse", "variants",
    ]


def test_one_unit_of_dispatch_is_a_fact_of_the_types():
    """The same kind of walk: nothing under ``src/`` compares a
    ``function_name`` with ``None`` — a task names its function, so no
    layer has a section-level case to test for — and ``granularity`` is
    no field, parameter, attribute or keyword."""
    import ast
    import repro

    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                names = {getattr(side, "attr", None) for side in sides}
                nones = [
                    side for side in sides
                    if isinstance(side, ast.Constant) and side.value is None
                ]
                assert not ("function_name" in names and nones), (path, node.lineno)
            named = (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "arg", None),
            )
            assert "granularity" not in named, (path, node.lineno)


# ---------------------------------------------------------------------------
# (e) the laziness is invisible
# ---------------------------------------------------------------------------


def test_what_a_warm_result_hands_out_is_what_a_cold_one_does(tmp_path):
    program = generate_program(3, config_for_size_class("medium"))
    cold = SequentialCompiler().compile(program.source)
    cached_compile(tmp_path, program.source)
    warm, compiler = cached_compile(tmp_path, program.source)
    assert compiler.last_phase4_stats.mode == "cached"

    cold_run = run_module(cold.download, program.inputs(), max_cycles=2_000_000)
    warm_run = run_module(warm.download, program.inputs(), max_cycles=2_000_000)
    assert warm_run.outputs == cold_run.outputs
    assert warm_run.cycles == cold_run.cycles

    assert [r.code for r in warm.results] == [r.code for r in cold.results]
    assert warm.results is warm.results  # produced once
    assert module_listing(warm.download) == module_listing(cold.download)
    assert warm.download.cells_used == cold.download.cells_used
    assert decode_module(warm.download.encoded()) == decode_module(
        cold.download.encoded()
    )


def test_a_cache_served_result_is_a_plain_result_to_everyone_else(tmp_path):
    source = PROGRAMS["s2_medium"]
    ParallelCompiler(cache=ArtifactCache(tmp_path)).compile(source)
    fresh = {
        result.function_name: result
        for result in SerialBackend().run_tasks_streaming(
            list(function_tasks(source).values())
        )
    }

    cache = ArtifactCache(tmp_path)
    for path in entries_of(tmp_path, "objects"):
        served = cache.get(path.stem)
        assert type(served) is FunctionTaskResult
        want = fresh[served.function_name]
        # It is the result its function master sealed, field for field
        # (but for the per-run state no entry keeps): its code is the
        # code that was compiled, its report the accounting...
        assert served == replace(want, diagnostics=[], window=None)
        assert set(vars(served)) == set(FunctionTaskResult.__dataclass_fields__)
        assert served.code == want.code and served.report == want.report
        # ...and the pool's IPC pickles it as its fields and its code,
        # never as a graph; what crosses the wire is the entry it was
        # read from.
        revived = pickle.loads(pickle.dumps(served))
        assert revived == served
        assert pickle.dumps(served) == pickle.dumps(revived)
        assert ArtifactCache.seal(served) == path.read_bytes()
        assert decode_result(encode_result(served, "w0.0")) == served


def test_a_stored_program_decodes_on_first_read_only(tmp_path):
    source = PROGRAMS["s2_medium"]
    cold, _ = cached_compile(tmp_path, source)
    warm, _ = cached_compile(tmp_path, source)
    program = warm.download.cell_programs[0]
    assert isinstance(program, CellProgram)
    assert "functions" not in program.__dict__
    assert (program.section_name, program.entry, program.data_words) == (
        cold.download.cell_programs[0].section_name,
        cold.download.cell_programs[0].entry,
        cold.download.cell_programs[0].data_words,
    )
    assert program.size_words() == cold.download.cell_programs[0].size_words()
    assert "functions" not in program.__dict__
    assert program.total_bundles() == cold.download.cell_programs[0].total_bundles()
    assert "functions" in program.__dict__ and "frame_bases" in program.__dict__
    assert isinstance(warm.download, DownloadModule)
    with pytest.raises(AttributeError):
        program.no_such_attribute


# ---------------------------------------------------------------------------
# (f) a compiled function is its bytes: one form, one digest
# ---------------------------------------------------------------------------


def tasks_of(source, filename="<input>"):
    return list(function_tasks(source, filename).values())


def entry_header(path) -> dict:
    data = path.read_bytes()
    (size,) = struct.unpack_from("<I", data, 4)
    return json.loads(data[40 : 40 + size])


@pytest.fixture(scope="module")
def warm_pool():
    with WarmPoolBackend(2) as pool:
        yield pool


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_payload_digest_is_the_hash_of_the_code(name, tmp_path, warm_pool):
    """One digest, whoever hands the result over: the seal, the function
    of a result, the hash of its bytes and the hash in its cache entry's
    header are one value — and the bytes are the function."""
    source = PROGRAMS[name]
    tasks = tasks_of(source)
    cache = ArtifactCache(tmp_path)
    sources = {"serial": list(SerialBackend().run_tasks_streaming(tasks))}
    sources["warm_pool"] = list(warm_pool.run_tasks_streaming(tasks))
    sources["wire"] = [
        decode_result(encode_result(result, "w0.0"))
        for result in sources["serial"]
    ]
    for index, result in enumerate(sources["serial"]):
        cache.put(f"{index:064x}", result)
    sources["cache"] = [
        ArtifactCache(tmp_path).get(f"{index:064x}")
        for index in range(len(tasks))
    ]
    headers = {
        (header["section_name"], header["function_name"]): header
        for header in map(entry_header, entries_of(tmp_path, "objects"))
    }

    parsed = phase1_parse_and_check(source)
    order = [
        (section.name, function.name)
        for section in parsed.module.sections
        for function in section.functions
    ]
    for origin, results in sources.items():
        by_key = {(r.section_name, r.function_name): r for r in results}
        assert sorted(by_key) == sorted(order), origin
        sealed = {section.name: [] for section in parsed.module.sections}
        for key in order:
            result = by_key[key]
            assert (
                result.payload_digest
                == sha256(result.code)
                == result_payload_digest(result)
                == headers[key]["sha256"]
            ), (origin, key)
            assert "payload_digest" not in headers[key]  # stored once
            assert result.assembly_work == headers[key]["assembly_work"]
            sealed[key[0]].append(result)
        module, _, _ = phase4_link_and_download(
            parsed, sealed, WarpArrayModel(), parsed.sink.render()
        )
        assert module_digest(module) == sequential(source).digest, origin


@pytest.fixture
def assemblies(monkeypatch):
    """Every assembled object graph built: ``AssembledFunction``'s
    constructor and ``assemble_function``, wherever it was imported."""
    built = []
    init = objformat.AssembledFunction.__init__

    def counting_init(self, *args, **kwargs):
        built.append("AssembledFunction")
        init(self, *args, **kwargs)

    monkeypatch.setattr(objformat.AssembledFunction, "__init__", counting_init)
    original = assembler.assemble_function
    counting = lambda obj: built.append("assemble_function") or original(obj)
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("repro"):
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, counting)
    return built


def test_a_result_crosses_a_process_boundary_as_bytes(
    assemblies, monkeypatch, warm_pool
):
    """The count guard, host-independent.  From another process a result
    arrives holding no graph, and its pickle names nothing of the object
    code's classes; in and out of process the master decodes nothing
    and assembles nothing — each function was assembled by its function
    master, as it was sealed, and the section link splices bytes."""
    source = PROGRAMS["s2_medium"]
    received, decoded = [], []
    for name in ("decode_program", "decode_module"):
        monkeypatch.setattr(
            encode, name, lambda *args, _name=name: decoded.append(_name)
        )

    class Receiving:
        """The pool, with a look at each result as the master gets it."""

        effective_worker_count = 2

        def run_tasks_streaming(self, tasks):
            for result in warm_pool.run_tasks_streaming(tasks):
                received.append(pickle.dumps(result))
                yield result

    result = ParallelCompiler(backend=Receiving()).compile(source)
    assert result.digest == sequential(source).digest
    assert len(received) == len(sequential(source).profile.functions)
    for blob in received:
        assert len(blob) < 25_000
        # Globals are named by strings (an argument of GLOBAL, or pushed
        # for STACK_GLOBAL): none of them names an object-code module.
        strings = {
            arg for _, arg, _ in pickletools.genops(blob) if isinstance(arg, str)
        }
        assert "repro.driver.function_master" in strings
        assert not any(
            string.startswith(("repro.asmlink", "repro.machine", "repro.ir"))
            for string in strings
        )
    result = ParallelCompiler(backend=SerialBackend()).compile(source)
    assert result.digest == sequential(source).digest
    assert decoded == [] and assemblies == []
    assert not hasattr(function_master, "assemble_function")


#: cold_branchy's ``fz1`` and the paper's user program
ASSEMBLY_FREE = {
    "fz1": generate_program(1, config_for_size_class("large")).source,
    "user_program": user_program(),
}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_FREE))
def test_no_compile_builds_an_assembled_function(name, assemblies, warm_pool):
    """The byte path end to end: compiling, sealing and linking build no
    ``AssembledFunction`` — in process, through the serial backend and
    through a process pool — and the module is the sequential one."""
    source = ASSEMBLY_FREE[name]
    digests = {
        compiler.compile(source, f"{name}.w2").digest
        for compiler in (
            ParallelCompiler(),
            ParallelCompiler(backend=SerialBackend()),
            ParallelCompiler(backend=warm_pool),
            SequentialCompiler(),
        )
    }
    assert len(digests) == 1
    assert assemblies == []


def test_there_is_one_form_of_a_compiled_function():
    """An AST walk over ``src/``: nothing subclasses the result type,
    nothing reads or declares a shipped assembly, the linker takes none,
    and only the Katseff comparison builds assembled object graphs."""
    import repro

    root = Path(repro.__file__).parent
    assemblers = set()
    for path in sorted(root.rglob("*.py")):
        where = str(path.relative_to(root))
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {
                    getattr(base, "id", getattr(base, "attr", None))
                    for base in node.bases
                }
                assert "FunctionTaskResult" not in bases, (where, node.name)
                if node.name in ("FunctionTaskResult", "CombinedSection"):
                    declared = {
                        getattr(getattr(item, "target", item), "id", None)
                        or getattr(item, "name", None)
                        for item in node.body
                    }
                    assert "assembled" not in declared, (where, node.name)
            elif isinstance(node, ast.Attribute):
                assert node.attr != "assembled", (where, node.lineno)
            elif isinstance(node, (ast.arg, ast.keyword)):
                assert node.arg != "preassembled", (where, node.lineno)
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee == "assemble_function":
                    assemblers.add(where)
    assert assemblers == {"asmlink/parallel_assembler.py"}


def test_a_report_has_one_dict_form(tmp_path):
    """``to_dict`` is the fields (a cache entry's header holds the same
    dict, the section under its field name) plus the computed sums, so a
    new field reaches ``--json`` without being listed a second time."""
    from dataclasses import asdict, fields

    result, _ = cached_compile(tmp_path, PROGRAMS["generated_11"])
    profile = result.profile
    report = profile.functions[0]
    as_fields = asdict(report)
    assert report.to_dict() == {
        "section": as_fields.pop("section_name"), **as_fields
    }
    header = entry_header(entries_of(tmp_path, "objects")[0])
    assert set(header["report"]) == {field.name for field in fields(report)}
    document = profile.to_dict()
    computed = {"total_work", "function_work"}
    assert set(document) == {field.name for field in fields(profile)} | computed
    assert document["functions"] == [f.to_dict() for f in profile.functions]
    assert document["counts"]["artifact_cache.misses"] == len(profile.functions)
    assert "phase4_assembly_ms" not in document
    json.dumps(result.to_dict())  # and all of it is JSON


# ---------------------------------------------------------------------------
# (f) no stored record carries run telemetry; printed counts are events
# ---------------------------------------------------------------------------


def test_no_stored_record_carries_run_telemetry(tmp_path):
    """What a compile counted is its own, never a fact of what it stored:
    after a fill and again after a no-edit compile, no ``objects/``
    header carries a ``*_cache_*`` key, and every report in the
    ``modules/`` record is the report a fresh compile makes.  A variant
    search's results live in its outcome: no header, result frame or
    record report has a search field."""
    search_keys = {"winner_config", "simulated_cycles"}
    source = PROGRAMS["generated_11"]
    fresh = ParallelCompiler().compile(source).profile.functions
    for run in ("fill", "no-edit"):
        cached_compile(tmp_path, source)
        for path in entries_of(tmp_path, "objects"):
            header = entry_header(path)
            keys = [*header, *header["report"]]
            assert not [key for key in keys if "_cache_" in key], (run, path)
            assert not search_keys & set(keys), (run, path)
            frame = encode_result(ArtifactCache.open(path.read_bytes()), "t")
            decoded = dataclasses.asdict(decode_result(frame))
            assert not search_keys & {*decoded, *decoded["report"]}, run
        (record,) = entries_of(tmp_path, "modules")
        stored = ModuleStore.open(record.read_bytes()).functions
        assert stored == fresh, run
        assert not [
            key for report in stored for key in dataclasses.asdict(report)
            if key in search_keys
        ], run


def test_printed_counts_are_the_events_that_happened(tmp_path, capsys):
    """The report's ``supervision:`` line, the tier lines and the
    ``status`` line print through one renderer: the nonzero counts only."""
    from repro.parallel import ChaosBackend, FaultSchedule, SupervisedBackend
    from repro.service import ServiceClient, ServiceSocketServer

    source = PROGRAMS["generated_11"]
    path = tmp_path / "m.w2"
    path.write_text(source)
    compile_argv = ["compile", str(path), "--parallel", "--jobs", "1"]
    cached = [*compile_argv, "--cache-dir", str(tmp_path / "cache")]
    for argv in (cached, cached, [*compile_argv, "--no-cache", "--chaos", "5"]):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        counted = [
            line for line in lines
            if line.startswith(("supervision:", "artifact cache:",
                                "parse cache:", "link cache:"))
        ]
        assert counted and not [line for line in counted if " 0 " in line]
    assert counted[0].startswith("supervision: ")  # the chaos compile's

    flaky = ChaosBackend(
        SerialBackend(), FaultSchedule(1, {"crash": 1.0}, {"crash": 1})
    )
    backend = SupervisedBackend(flaky, hedge_after=None)
    backend.health.quarantine_after = 100
    server = ServiceSocketServer(CompileService(backend))
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    try:
        ServiceClient(server.address).submit_and_wait(source, timeout=60.0)
        assert main(["status", "--connect", server.address]) == 0
    finally:
        server.request_shutdown(drain=False)
        thread.join(timeout=30.0)
    (line,) = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("supervision: ")
    ]
    assert line == f"supervision: {flaky.schedule.fired['crash']} retries"
