"""Binary download-module format: round-trip and robustness."""

import gc
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.asmlink import encode
from repro.asmlink.download import module_digest, module_listing
from repro.asmlink.encode import (
    FormatError,
    FunctionBlob,
    decode_module,
    decode_program,
    encode_function,
    encode_module,
    encode_program,
    read_module,
    splice_program,
    write_module,
)
from repro.driver.sequential import SequentialCompiler
from repro.warpsim.array_runner import run_module

from helpers import echo_module, object_functions, wrap_function

SOURCE = echo_module(
    "  var i: int; acc: float; a: array[8] of float;\n"
    "  begin\n"
    "    for i := 0 to 7 do a[i] := x + i; end;\n"
    "    acc := 0.0;\n"
    "    for i := 0 to 7 do acc := acc + a[i]; end;\n"
    "    return acc;\n"
    "  end",
    2,
)

MULTI_SECTION = """
module two
section a (cells 0..1)
  function helper(v: float) : float begin return v + 1.0; end
  function main()
  var v: float; k: int;
  begin for k := 1 to 2 do receive(v); send(helper(v)); end; end
end
section b (cells 2..2)
  function main()
  var v: float; k: int;
  begin for k := 1 to 2 do receive(v); send(v * 2.0); end; end
end
end
"""


@pytest.fixture(scope="module")
def compiled():
    return SequentialCompiler().compile(SOURCE)


@pytest.fixture(scope="module")
def compiled_multi():
    return SequentialCompiler().compile(MULTI_SECTION)


class TestRoundTrip:
    def test_digest_preserved(self, compiled):
        data = encode_module(compiled.download)
        decoded = decode_module(data)
        assert module_digest(decoded) == compiled.digest

    def test_multi_section_digest_preserved(self, compiled_multi):
        decoded = decode_module(encode_module(compiled_multi.download))
        assert module_digest(decoded) == compiled_multi.digest

    def test_decoded_module_executes_identically(self, compiled):
        decoded = decode_module(encode_module(compiled.download))
        original = run_module(compiled.download, [1.0, 2.0])
        replayed = run_module(decoded, [1.0, 2.0])
        assert replayed.outputs == original.outputs
        assert replayed.cycles == original.cycles

    def test_replicated_sections_share_one_program(self, compiled_multi):
        decoded = decode_module(encode_module(compiled_multi.download))
        assert decoded.cell_programs[0] is decoded.cell_programs[1]
        assert decoded.cell_programs[2] is not decoded.cell_programs[0]

    def test_file_round_trip(self, compiled, tmp_path):
        path = tmp_path / "module.warp"
        size = write_module(compiled.download, str(path))
        assert path.stat().st_size == size
        loaded = read_module(str(path))
        assert module_digest(loaded) == compiled.digest

    def test_encoding_deterministic(self, compiled):
        assert encode_module(compiled.download) == encode_module(
            compiled.download
        )


class TestRobustness:
    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="magic"):
            decode_module(b"NOPE" + b"\x00" * 32)

    def test_bad_version_rejected(self, compiled):
        data = bytearray(encode_module(compiled.download))
        data[4] = 0xFF
        with pytest.raises(FormatError, match="version"):
            decode_module(bytes(data))

    def test_truncation_rejected(self, compiled):
        data = encode_module(compiled.download)
        with pytest.raises(FormatError):
            decode_module(data[: len(data) // 2])

    def test_size_reasonable(self, compiled):
        """The binary form is smaller than the listing."""
        data = encode_module(compiled.download)
        assert len(data) < len(module_listing(compiled.download).encode("utf-8"))


class TestCollectorPausedAroundDecode:
    """Decoding a program switches the cyclic collector off for the
    load and puts it back the way it found it
    (:func:`repro.gcpause.collector_paused`)."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @pytest.fixture
    def during(self, monkeypatch):
        """Whether the collector was on, each time a decode built a
        program."""
        seen = []
        build = encode.CellProgram

        def spy(**fields):
            for _ in range(2000):  # Python code: a thread switch can land here
                pass
            seen.append(gc.isenabled())
            return build(**fields)

        monkeypatch.setattr(encode, "CellProgram", spy)
        return seen

    @staticmethod
    def _blob(compiled):
        return encode_program(next(iter(compiled.download.cell_programs.values())))

    def test_off_during_the_load_and_restored_after_it(self, compiled, during):
        blob = self._blob(compiled)
        for before in (True, False):
            (gc.enable if before else gc.disable)()
            decode_program(blob)
            assert gc.isenabled() is before
        assert during == [False, False]

    def test_restored_when_the_load_raises(self, compiled):
        blob = self._blob(compiled)
        for before in (True, False):
            (gc.enable if before else gc.disable)()
            with pytest.raises(FormatError):
                decode_program(blob[: len(blob) // 2])
            assert gc.isenabled() is before

    def test_two_threads_leave_it_as_they_found_it(self, compiled, during):
        """The switch is process-wide: if saves and restores from two
        threads interleaved, the first to finish would turn the collector
        back on under the other's load, or the last would put back the
        "off" it saw while another had it paused."""
        blob = self._blob(compiled)
        failures = []

        def reader():
            try:
                for _ in range(50):
                    decode_program(blob)
            except BaseException as exc:  # pragma: no cover - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        gc.enable()
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(during) == 4 * 50 and not any(during)
        assert gc.isenabled()


class TestSeededRoundTripProperty:
    """Seeded generator property: for every size class, the binary
    encoding is lossless down to the module digest — the invariant the
    link/module cache and the download path both lean on."""

    @pytest.mark.parametrize(
        "size_class", ["tiny", "small", "medium", "large", "huge"]
    )
    def test_decode_encode_preserves_module_digest(self, size_class):
        from repro.fuzz import config_for_size_class, generate_program

        config = config_for_size_class(size_class)
        seeds = range(5) if size_class in ("large", "huge") else range(12)
        for seed in seeds:
            source = generate_program(seed, config).source
            compiled = SequentialCompiler().compile(source)
            decoded = decode_module(encode_module(compiled.download))
            assert module_digest(decoded) == compiled.digest, (
                f"{size_class} seed {seed}"
            )
            assert decoded.cells_used == compiled.download.cells_used
            assert decoded.diagnostics_text == (
                compiled.download.diagnostics_text
            )


# ---------------------------------------------------------------------------
# Totality: everything the code generator can emit encodes, and every
# byte string decodes to a module or raises FormatError.
# ---------------------------------------------------------------------------

BIG = 99999999999999999999999  # needs 77 bits

BIG_IMMEDIATE = f"""
module big
section s (cells 0..0)
  function main()
  var i, m: int; x: float;
  begin
    receive(x);
    m := 0;
    for i := 1 to 4 do
      m := m + i * {BIG};
    end;
    send(m);
  end
end
end
"""


def _pipelines(tmp_path):
    """The same module through every way of compiling it in-process."""
    from repro.cache import ArtifactCache, LinkCache, ParseCache
    from repro.driver.master import ParallelCompiler

    def cached():
        return ParallelCompiler(
            cache=ArtifactCache(tmp_path),
            parse_cache=ParseCache(tmp_path),
            link_cache=LinkCache(tmp_path),
        )

    return [
        ("sequential", SequentialCompiler()),
        ("parallel", ParallelCompiler()),
        ("cache fill", cached()),
        ("cache warm", cached()),
    ]


class TestIntegerImmediatesOfAnySize:
    """The language accepts an integer literal of any size and the
    listing prints it; version 1 packed immediates into 64 bits and
    raised ``struct.error`` — harmless while only ``--emit binary``
    encoded, fatal now that every compile does."""

    def test_compiles_round_trips_and_runs_under_every_pipeline(self, tmp_path):
        from repro.driver.function_master import clear_phase1_cache

        digests = set()
        for name, compiler in _pipelines(tmp_path):
            clear_phase1_cache()
            result = compiler.compile(BIG_IMMEDIATE)
            assert str(BIG) in module_listing(result.download), name
            decoded = decode_module(result.download.encoded())
            assert decoded == _without_codegen_info(result.download), name
            run = run_module(decoded, [1.0])
            assert run.outputs == [10 * BIG], name
            digests.add(result.digest)
        assert len(digests) == 1

    def test_the_constant_is_part_of_the_digest(self):
        one_more = BIG_IMMEDIATE.replace(str(BIG), str(BIG + 1))
        assert (
            SequentialCompiler().compile(one_more).digest
            != SequentialCompiler().compile(BIG_IMMEDIATE).digest
        )

    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 127, 128, -128, -129, 2**63 - 1, 2**63, -(2**63) - 1, 3**200],
    )
    def test_every_integer_round_trips(self, value):
        assert _round_trip_operand(value) == value
        assert type(_round_trip_operand(value)) is int


class TestEqualButDifferentImmediates:
    """``1 == 1.0`` and ``0.0 == -0.0`` — and so do the ops that hold
    them — but they are different instructions: the encoder's memo of
    op bytes must not hand one the other's encoding."""

    @pytest.mark.parametrize(
        "first,second", [(1, 1.0), (1.0, 1), (0.0, -0.0), (-0.0, 0.0), (0, 0.0)]
    )
    def test_both_survive_in_one_program(self, first, second):
        program = _program_of_operands(first, second)
        decoded = decode_program(encode_program(program))
        got = [
            bundle.all_ops()[0].operands[0]
            for bundle in decoded.functions["f"].bundles
        ]
        assert [repr(v) for v in got] == [repr(first), repr(second)]

    def test_swapping_them_changes_the_bytes(self):
        assert encode_program(_program_of_operands(1, 1.0)) != encode_program(
            _program_of_operands(1.0, 1)
        )


def _without_codegen_info(module):
    """A copy of ``module`` as decoding rebuilds it: a download module
    does not carry the code generator's accounting."""
    return decode_module(encode_module(module))


def _program_of_operands(*operands):
    from repro.asmlink.objformat import (
        AssembledFunction,
        Bundle,
        CellProgram,
        MachineOp,
    )
    from repro.ir.instructions import Opcode
    from repro.machine.resources import FUClass, PhysReg

    bundles = []
    for operand in operands:
        bundle = Bundle()
        bundle.add(
            MachineOp(
                op=Opcode.ADD,
                fu=FUClass.IALU,
                latency=1,
                dest=PhysReg("i", 1),
                operands=(operand, PhysReg("i", 2)),
            )
        )
        bundles.append(bundle)
    function = AssembledFunction(name="f", section_name="s", bundles=bundles)
    return CellProgram(
        section_name="s",
        functions={"f": function},
        entry="f",
        frame_bases={"f": 0},
    )


def _round_trip_operand(value):
    decoded = decode_program(encode_program(_program_of_operands(value)))
    return decoded.functions["f"].bundles[0].all_ops()[0].operands[0]


class TestObjectFunctionBlobs:
    """A result's code and the artifact tier's body: one function,
    assembled as it was encoded, in exactly the bytes a program holds it
    in — accounting (``info``) left to the function's report."""

    def test_round_trip_is_exact(self):
        from dataclasses import replace

        from repro.asmlink.assembler import assemble_function
        from repro.asmlink.objformat import CellProgram, CodegenInfo

        for source in (SOURCE, MULTI_SECTION):
            for obj in object_functions(source):
                blob = encode_function(obj)
                assert obj.info.work_units > 0
                program = splice_program(
                    obj.section_name, obj.name, obj.frame_words,
                    [(0, FunctionBlob(blob))],
                )[0]
                assembled = assemble_function(obj)
                assert program == encode_program(
                    CellProgram(
                        section_name=obj.section_name,
                        functions={obj.name: assembled},
                        entry=obj.name,
                        frame_bases={obj.name: 0},
                        data_words=obj.frame_words,
                    )
                )
                assert decode_program(program).functions[obj.name] == (
                    replace(assembled, info=CodegenInfo())
                )
                # Same code, more work spent on it: same bytes.
                busier = replace(
                    obj, info=replace(obj.info, work_units=obj.info.work_units + 14)
                )
                assert encode_function(busier) == blob

    def test_label_names_are_refused_in_a_download_module(self):
        from repro.asmlink.objformat import AssembledFunction, CellProgram

        obj = object_functions(SOURCE)[0]
        unassembled = AssembledFunction(
            name=obj.name,
            section_name=obj.section_name,
            bundles=[b for block in obj.blocks for b in block.bundles],
        )
        program = CellProgram(
            section_name=obj.section_name,
            functions={obj.name: unassembled},
            frame_bases={obj.name: 0},
        )
        with pytest.raises(FormatError, match="unresolved label"):
            encode_program(program)

    def test_a_label_without_a_block_is_refused_when_sealed(self):
        from repro.asmlink.assembler import AssemblyError
        from repro.asmlink.objformat import (
            Bundle,
            MachineOp,
            ObjectFunction,
            ScheduledBlock,
        )
        from repro.ir.instructions import Opcode
        from repro.machine.resources import FUClass

        jump = Bundle()
        jump.add(
            MachineOp(
                op=Opcode.JMP, fu=FUClass.SEQ, latency=1, labels=("nowhere",)
            )
        )
        obj = ObjectFunction(
            name="f", section_name="s", blocks=[ScheduledBlock("entry", [jump])]
        )
        with pytest.raises(AssemblyError, match="nowhere"):
            encode_function(obj)
        obj.blocks.append(ScheduledBlock("entry", [Bundle()]))
        with pytest.raises(AssemblyError, match="duplicate"):
            encode_function(obj)


class TestDecodeIsTotal:
    """``decode_module`` of any bytes returns a module or raises
    ``FormatError`` — version 1 let a bad FU id out as ``IndexError``,
    a bad bank code as ``KeyError``, a short header as ``struct.error``."""

    @staticmethod
    def _decodes_or_refuses(decode, data):
        try:
            decode(data)
        except FormatError:
            pass

    @pytest.fixture(scope="class")
    def modules(self, compiled, compiled_multi):
        return [r.download.encoded() for r in (compiled, compiled_multi)]

    def test_every_truncation(self, modules):
        for data in modules:
            for cut in range(len(data)):
                with pytest.raises(FormatError):
                    decode_module(data[:cut])

    def test_every_single_byte_set_to_every_extreme(self, modules):
        for data in modules:
            for position in range(len(data)):
                for value in (0x00, 0x7F, 0x80, 0xFF):
                    damaged = bytearray(data)
                    damaged[position] = value
                    self._decodes_or_refuses(decode_module, bytes(damaged))

    def test_trailing_bytes_are_refused(self, modules):
        with pytest.raises(FormatError, match="trailing"):
            decode_module(modules[0] + b"\x00")

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_and_truncated_valid_encodings(self, modules, data):
        damaged = mutated(data, data.draw(st.sampled_from(modules)))
        self._decodes_or_refuses(decode_module, damaged)

    @settings(max_examples=200, deadline=None)
    @given(noise=st.binary(max_size=256))
    def test_arbitrary_bytes_behind_a_valid_head(self, noise):
        self._decodes_or_refuses(decode_module, b"WARP\x02\x00" + noise)


def mutated(data, blob: bytes) -> bytes:
    """``blob`` with one to six random edits: a byte set, bytes dropped
    or inserted, or the tail cut off."""
    damaged = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.sampled_from(["set", "drop", "insert", "cut"]))
        at = data.draw(st.integers(0, len(damaged) - 1))
        if kind == "set":
            damaged[at] = data.draw(st.integers(0, 255))
        elif kind == "drop":
            del damaged[at : at + data.draw(st.integers(1, 8))]
        elif kind == "insert":
            damaged[at:at] = data.draw(st.binary(min_size=1, max_size=8))
        else:
            del damaged[at:]
        if not damaged:
            break
    return bytes(damaged)


class TestTheLinkRefusesHostileBlobs:
    """The function blobs a section link splices come from other
    processes, the wire and the disk: whatever they hold, re-sealed so
    the digest check passes, the link raises ``FormatError`` — or, for
    well-formed bytes that say something the section cannot hold (a
    callee renamed away, a frame too large), its own ``LinkError`` — or
    builds a program that ``decode_program`` reads and encodes back to
    the same bytes.  Nothing else escapes, and nothing is copied that
    does not decode to itself."""

    @staticmethod
    def _link(results, index, code):
        """Link ``results``' section with one function's code replaced
        by ``code``, re-sealed."""
        from dataclasses import replace
        from hashlib import sha256

        from repro.asmlink.linker import link_section
        from repro.machine.warp_cell import WarpCellModel

        damaged = list(results)
        damaged[index] = replace(
            results[index], code=code, payload_digest=sha256(code).hexdigest()
        )
        return link_section(results[0].section_name, damaged, WarpCellModel())

    def _links_or_refuses(self, results, index, code) -> bool:
        from repro.asmlink.linker import LinkError

        try:
            program = self._link(results, index, code)
        except (FormatError, LinkError):
            return False
        blob = program.encoded()
        assert encode_program(decode_program(blob)) == blob
        return True

    @pytest.fixture(scope="class")
    def sections(self, compiled_multi):
        """Each section's sealed results, section ``a`` with a call."""
        grouped = {}
        for result in compiled_multi.results:
            grouped.setdefault(result.section_name, []).append(result)
        return list(grouped.values())

    def _each_blob(self, sections):
        for results in sections:
            for index, result in enumerate(results):
                yield results, index, result.code

    def test_every_truncation(self, sections):
        for results, index, code in self._each_blob(sections):
            for cut in range(len(code)):
                with pytest.raises(FormatError):
                    self._link(results, index, code[:cut])

    def test_every_single_byte_set_to_every_extreme(self, sections):
        linked = refused = 0
        for results, index, code in self._each_blob(sections):
            assert self._links_or_refuses(results, index, code)
            for position in range(len(code)):
                for value in (0x00, 0x7F, 0x80, 0xFF):
                    damaged = bytearray(code)
                    damaged[position] = value
                    if self._links_or_refuses(results, index, bytes(damaged)):
                        linked += 1
                    else:
                        refused += 1
        assert linked and refused  # both ways out are taken

    def test_trailing_bytes_are_refused(self, sections):
        results, index, code = next(self._each_blob(sections))
        with pytest.raises(FormatError, match="trailing"):
            self._link(results, index, code + b"\x00")

    def test_a_wrong_word_count_is_refused(self, sections):
        results, index, code = next(self._each_blob(sections))
        assert code[0] < 0x7F  # the count is its first byte
        with pytest.raises(FormatError, match="words"):
            self._link(results, index, bytes([code[0] + 1]) + code[1:])

    def test_a_longer_than_shortest_number_is_refused(self, sections):
        results, index, code = next(self._each_blob(sections))
        padded = bytes([code[0] | 0x80, 0x00]) + code[1:]
        with pytest.raises(FormatError, match="shortest"):
            self._link(results, index, padded)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_and_truncated_valid_blobs(self, sections, data):
        results = data.draw(st.sampled_from(sections))
        index = data.draw(st.integers(0, len(results) - 1))
        self._links_or_refuses(
            results, index, mutated(data, results[index].code)
        )

    @settings(max_examples=200, deadline=None)
    @given(noise=st.binary(max_size=256))
    def test_arbitrary_bytes(self, sections, noise):
        self._links_or_refuses(sections[1], 0, noise)
