"""The sequential compiler: all four phases in one process.

This is the baseline "that is commonly in use" (§2.2): one Lisp process
compiling every function in source order.  The parallel compiler must
produce exactly the same download module and diagnostics.
"""

from __future__ import annotations

from typing import Dict, List

from ..asmlink.download import module_digest, module_size_words
from ..machine.warp_array import WarpArrayModel
from ..options import CompileOptions
from .function_master import FunctionTaskResult, attach_assembly
from .phases import (
    ParsedProgram,
    compile_one_function,
    phase1_parse_and_check,
    phase4_link_and_download,
)
from .results import CompilationResult, WorkProfile


class SequentialCompiler:
    """Compile modules one function at a time, in source order."""

    def __init__(self, options: CompileOptions = CompileOptions()):
        self.options = options
        self.array = WarpArrayModel(cell_count=options.cell_count)

    def compile(
        self, source_text: str, filename: str = "<input>"
    ) -> CompilationResult:
        parsed = phase1_parse_and_check(source_text, filename)
        return self.compile_parsed(parsed)

    def compile_parsed(self, parsed: ParsedProgram) -> CompilationResult:
        profile = WorkProfile(
            parse_work=parsed.parse_work,
            sema_work=parsed.sema_work,
            source_lines=parsed.source_lines,
        )
        results: Dict[str, List[FunctionTaskResult]] = {}
        all_results: List[FunctionTaskResult] = []
        for section in parsed.module.sections:
            section_results = results[section.name] = []
            for function in section.functions:
                obj, report = compile_one_function(
                    parsed, section.name, function.name, self.options
                )
                section_results.append(attach_assembly(obj, report))
                profile.functions.append(report)
            all_results += section_results

        diagnostics_text = parsed.sink.render()
        module, assembly_work, link_work = phase4_link_and_download(
            parsed, results, self.array, diagnostics_text
        )
        profile.assembly_work = assembly_work
        profile.link_work = link_work
        profile.download_words = module_size_words(module)
        return CompilationResult(
            module_name=parsed.module.name,
            download=module,
            digest=module_digest(module),
            diagnostics_text=diagnostics_text,
            profile=profile,
            results=all_results,
        )
