"""Section masters: recombination of per-function results.

"When code has been generated for each function of the section, the
section master combines the results so that the parallel compiler
produces the same input for the assembly phase as the sequential
compiler.  Furthermore, the section master process is responsible to
combine the diagnostic output" (§3.2).

Function masters finish in arbitrary order; the section master restores
*source order*, which is what makes the parallel compiler's output
bit-identical to the sequential one.

:class:`StreamingSectionCombiner` is the incremental form: results are
fed in one at a time as they arrive (from the artifact cache or from a
streaming backend), and each section is combined the moment its last
function lands — a module that is mostly cache hits reaches phase 4
without waiting on a global barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..lang import ast_nodes as ast
from .function_master import FunctionTaskResult
from .results import FunctionReport


class SectionCombineError(Exception):
    """Results do not cover the section's functions exactly."""


@dataclass
class CombinedSection:
    """A section's recombined compilation output, in source order."""

    section_name: str
    #: the function masters' results: the section link splices their
    #: code; a link that is served from the cache reads only their
    #: reports and digests
    results: List[FunctionTaskResult] = field(default_factory=list)
    reports: List[FunctionReport] = field(default_factory=list)
    diagnostics: List[str] = field(default_factory=list)
    #: work proxy for the recombination itself (drives the cost model)
    combine_work: int = 0
    #: per-function payload digests in source order — the content
    #: fingerprints the link cache keys a section's CellProgram by
    payload_digests: List[str] = field(default_factory=list)


def combine_section_results(
    section: ast.Section, results: List[FunctionTaskResult]
) -> CombinedSection:
    """Restore source order and merge diagnostics for one section."""
    by_name: Dict[str, FunctionTaskResult] = {}
    for result in results:
        if result.section_name != section.name:
            raise SectionCombineError(
                f"result for {result.section_name}.{result.function_name} "
                f"delivered to section master {section.name!r}"
            )
        if result.function_name in by_name:
            raise SectionCombineError(
                f"duplicate result for function {result.function_name!r}"
            )
        by_name[result.function_name] = result

    expected = [fn.name for fn in section.functions]
    missing = [name for name in expected if name not in by_name]
    if missing:
        raise SectionCombineError(
            f"section {section.name!r} missing results for {missing}"
        )
    extra = [name for name in by_name if name not in expected]
    if extra:
        raise SectionCombineError(
            f"section {section.name!r} got unexpected results for {extra}"
        )

    combined = CombinedSection(section_name=section.name)
    for name in expected:
        result = by_name[name]
        combined.results.append(result)
        combined.reports.append(result.report)
        combined.diagnostics.extend(result.diagnostics)
        combined.combine_work += result.report.bundles + 1
        combined.payload_digests.append(result.payload_digest)
    return combined


class StreamingSectionCombiner:
    """Section masters that combine while function masters still run.

    Feed every :class:`FunctionTaskResult` through :meth:`add`; a section
    is combined (validated, source-ordered) eagerly when its result count
    reaches its function count.  :meth:`finalize` combines whatever
    remains and raises :class:`SectionCombineError` for sections with
    missing, duplicate, or misdelivered results — the same checks the
    barrier-style :func:`combine_section_results` performs.
    """

    def __init__(self, sections: Sequence[ast.Section]):
        self._sections: Dict[str, ast.Section] = {}
        self._pending: Dict[str, List[FunctionTaskResult]] = {}
        self._combined: Dict[str, CombinedSection] = {}
        for section in sections:
            if section.name in self._sections:
                raise SectionCombineError(
                    f"duplicate section {section.name!r}"
                )
            self._sections[section.name] = section
            self._pending[section.name] = []

    def add(self, result: FunctionTaskResult) -> Optional[CombinedSection]:
        """Accept one result; returns the combined section if this result
        completed it, else None."""
        section = self._sections.get(result.section_name)
        if section is None:
            raise SectionCombineError(
                f"result for unknown section {result.section_name!r}"
            )
        if result.section_name in self._combined:
            raise SectionCombineError(
                f"late result for already-combined section "
                f"{result.section_name!r}"
            )
        pending = self._pending[result.section_name]
        pending.append(result)
        if len(pending) < len(section.functions):
            return None
        # combine_section_results re-validates: duplicates masquerading
        # as completeness (two results for one function) raise here.
        combined = combine_section_results(section, pending)
        self._combined[result.section_name] = combined
        del self._pending[result.section_name][:]
        return combined

    @property
    def sections_combined(self) -> int:
        return len(self._combined)

    def combined_sections(self) -> List[CombinedSection]:
        """Sections combined so far, in module order — lets the driver
        start linking cache-served sections before any task returns."""
        return [
            self._combined[name]
            for name in self._sections
            if name in self._combined
        ]

    def finalize(self) -> Dict[str, CombinedSection]:
        """Combine any not-yet-complete sections (raising on missing
        results) and return section name -> combined, for all sections."""
        for name, section in self._sections.items():
            if name not in self._combined:
                self._combined[name] = combine_section_results(
                    section, self._pending[name]
                )
        return self._combined
