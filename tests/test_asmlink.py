"""Assembler, linker, I/O driver, download module, parallel assembler."""

import pytest

from repro.asmlink.assembler import AssemblyError, assemble_function, assembly_work_units
from repro.asmlink.download import build_download_module, module_digest, module_size_words
from repro.asmlink.iodriver import build_io_driver
from repro.asmlink.linker import LinkError, link_section
from repro.asmlink.objformat import (
    Bundle,
    MachineOp,
    ObjectFunction,
    ScheduledBlock,
)
from repro.asmlink.parallel_assembler import assemble_parallel
from repro.codegen.compiler import compile_function
from repro.ir.instructions import Opcode
from repro.machine.resources import FUClass
from repro.machine.warp_cell import WarpCellModel

from helpers import (
    lower_ok,
    object_functions,
    seal,
    single_function_ir,
    wrap_function,
)


def object_for(src: str) -> ObjectFunction:
    return compile_function(single_function_ir(src), WarpCellModel())


def section_objects(src: str):
    ir = lower_ok(src)
    cell = WarpCellModel()
    return {
        name: [compile_function(fn, cell) for fn in fns]
        for name, fns in ir.functions.items()
    }


def section_results(src: str):
    """Each section's functions as their function masters seal them."""
    return {
        name: [seal(obj) for obj in objects]
        for name, objects in section_objects(src).items()
    }


SIMPLE = wrap_function(
    "function f(x: float) : float begin return x * 2.0; end"
)

TWO_FUNCTIONS = wrap_function(
    "function helper(x: float) : float begin return x + 1.0; end\n"
    "function main()\nvar v: float;\n"
    "begin receive(v); send(helper(v)); end"
)


class TestAssembler:
    def test_labels_resolved_to_bundle_indices(self):
        obj = object_for(
            wrap_function(
                "function f(n: int) : int\nbegin\n"
                "while n > 0 do n := n - 1; end;\nreturn n;\nend"
            )
        )
        assembled = assemble_function(obj)
        for bundle in assembled.bundles:
            for op in bundle.all_ops():
                for label in op.labels:
                    assert isinstance(label, int)
                    assert 0 <= label < len(assembled.bundles)

    def test_bundle_count_preserved(self):
        obj = object_for(SIMPLE)
        assembled = assemble_function(obj)
        assert len(assembled.bundles) == obj.bundle_count()

    def test_duplicate_label_rejected(self):
        obj = ObjectFunction(name="f", section_name="s")
        block = ScheduledBlock("dup", [Bundle()])
        block.bundles[0].add(
            MachineOp(op=Opcode.RET, fu=FUClass.SEQ, latency=1)
        )
        obj.blocks = [block, ScheduledBlock("dup", [Bundle()])]
        with pytest.raises(AssemblyError):
            assemble_function(obj)

    def test_unresolved_label_rejected(self):
        block = ScheduledBlock("entry", [Bundle()])
        block.bundles[0].add(
            MachineOp(
                op=Opcode.JMP, fu=FUClass.SEQ, latency=1, labels=("nowhere",)
            )
        )
        obj = ObjectFunction(name="f", section_name="s", blocks=[block])
        with pytest.raises(AssemblyError):
            assemble_function(obj)

    def test_work_units_positive(self):
        assert assembly_work_units(object_for(SIMPLE)) > 0

    def test_a_sealed_result_counts_the_work_of_its_graph(self):
        """A function master reads the assembly work off the blob it
        sealed (its word count): the walk over the graph's bundles."""
        from repro.fuzz import config_for_size_class, generate_program
        from repro.workloads.synthetic import synthetic_program
        from repro.workloads.user_program import user_program

        large = config_for_size_class("large")
        for source in (
            user_program(),
            synthetic_program("medium", 2),
            generate_program(3, large).source,
        ):
            for obj in object_functions(source):
                assert seal(obj).assembly_work == assembly_work_units(obj)


class TestLinker:
    def test_links_section_with_frames(self):
        results = section_results(
            wrap_function(
                "function f(x: float) : float\n"
                "var a: array[10] of float;\n"
                "begin a[0] := x; return a[0]; end\n"
                "function g(x: float) : float\n"
                "var b: array[6] of float;\n"
                "begin b[0] := x; return b[0]; end"
            )
        )
        program = link_section("s", results["s"], WarpCellModel())
        assert program.frame_bases["f"] == 0
        assert program.frame_bases["g"] == 10
        assert program.data_words == 16

    def test_entry_is_main_when_present(self):
        results = section_results(TWO_FUNCTIONS)
        program = link_section("s", results["s"], WarpCellModel())
        assert program.entry == "main"

    def test_entry_defaults_to_first_function(self):
        results = section_results(SIMPLE)
        program = link_section("s", results["s"], WarpCellModel())
        assert program.entry == "f"

    def test_memory_limit_enforced(self):
        results = section_results(
            wrap_function(
                "function f()\nvar a: array[100] of float;\nbegin a[0] := 1.0; end"
            )
        )
        tiny_cell = WarpCellModel(data_memory_words=50)
        with pytest.raises(LinkError, match="data words"):
            link_section("s", results["s"], tiny_cell)

    def test_wrong_section_rejected(self):
        results = section_results(SIMPLE)
        with pytest.raises(LinkError):
            link_section("other", results["s"], WarpCellModel())

    def test_call_targets_checked(self):
        results = section_results(TWO_FUNCTIONS)
        # Drop the callee: the call from main cannot resolve.
        only_main = [r for r in results["s"] if r.function_name == "main"]
        with pytest.raises(LinkError, match="cannot be resolved"):
            link_section("s", only_main, WarpCellModel())


class TestDownloadModule:
    def _module(self):
        results = section_results(TWO_FUNCTIONS)
        program = link_section("s", results["s"], WarpCellModel())
        return build_download_module("m", {"s": (0, 2)}, {"s": program})

    def test_section_replicated_on_cells(self):
        module = self._module()
        assert sorted(module.cell_programs) == [0, 1, 2]
        assert module.cells_used == 3
        # All three cells share the same linked program object.
        assert (
            module.cell_programs[0]
            is module.cell_programs[1]
            is module.cell_programs[2]
        )

    def test_digest_deterministic(self):
        assert module_digest(self._module()) == module_digest(self._module())

    def test_size_words_positive(self):
        assert module_size_words(self._module()) > 0

    def test_io_driver_profiles(self):
        module = self._module()
        driver = build_io_driver(module.cell_programs)
        assert driver.input_cell == 0
        assert driver.output_cell == 2
        profile = driver.profiles[0]
        assert profile.static_receives >= 1
        assert profile.static_sends >= 1
        assert "cell 0" in driver.describe()


class TestParallelAssembler:
    def _objects(self, count: int):
        src = wrap_function(
            "\n".join(
                f"function f{i}(x: float) : float begin return x + {float(i)}; end"
                for i in range(count)
            )
        )
        return section_objects(src)["s"]

    def test_output_matches_sequential_assembly(self):
        objects = self._objects(4)
        parallel = assemble_parallel(objects, workers=3)
        for obj in objects:
            sequential = assemble_function(obj)
            assert (
                len(parallel.functions[obj.name].bundles)
                == len(sequential.bundles)
            )

    def test_work_split_across_workers(self):
        objects = self._objects(6)
        result = assemble_parallel(objects, workers=3)
        busy = [w for w in result.worker_work if w > 0]
        assert len(busy) == 3

    def test_critical_path_below_sequential(self):
        objects = self._objects(8)
        result = assemble_parallel(objects, workers=4)
        assert result.critical_path_work < result.sequential_work

    def test_single_worker_equals_sequential_work(self):
        objects = self._objects(3)
        result = assemble_parallel(objects, workers=1)
        assert result.critical_path_work == result.sequential_work

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            assemble_parallel([], workers=0)
