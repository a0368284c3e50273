"""``warpcc compile FILE``: compile a module, print the compilation
report; ``--parallel`` uses the master/section/function-master hierarchy
with one OS process per function master.  ``warpcc search FILE``:
optimization-variant search — compile the module under every config in
the variant space, score each function's variants by simulated cycle
count in warpsim, ship the verified per-function winners."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Tuple

from ..driver.master import ParallelCompiler
from ..driver.results import render_counts
from ..driver.sequential import SequentialCompiler
from ..lang.diagnostics import CompileError
from ..machine.warp_array import CellRangeError
from . import options, stack


def register_compile(sub):
    parser = sub.add_parser("compile", help="compile a module")
    parser.add_argument("file", help="source file (or '-' for stdin)")
    options.target(parser)
    parser.add_argument(
        "--parallel", action="store_true",
        help="use the parallel compiler (master hierarchy)",
    )
    options.jobs(parser, None, "cores-1; applies with --parallel")
    options.caches(parser, cache_url=True)
    options.supervision(parser)
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="farm attempts per task before in-process isolation",
    )
    parser.add_argument(
        "--poison-threshold", type=int, default=3, metavar="N",
        help="failures on this many distinct workers flag a task as "
        "poison and isolate it in-process",
    )
    parser.add_argument(
        "--chaos", type=int, default=None, metavar="SEED",
        help="compile on a simulated flaky farm: deterministic faults "
        "(crashes, hangs, corrupt payloads) seeded by SEED; implies "
        "--parallel",
    )
    parser.add_argument(
        "--chaos-poison", default=None, metavar="SECTION.FUNCTION",
        type=_task_key,
        help="with --chaos: make this task crash on every worker",
    )
    parser.add_argument(
        "--emit",
        choices=("report", "digest", "driver", "binary"),
        default="report",
        help="what to print (default: the compilation report)",
    )
    options.json_output(parser)
    parser.add_argument(
        "-o", "--output", default=None,
        help="output path for --emit binary (default: <module>.warp)",
    )
    parser.set_defaults(run=run_compile)
    return parser


def _task_key(text: str) -> Tuple[str, str]:
    section, _, function = text.partition(".")
    if not (section and function):
        raise argparse.ArgumentTypeError(
            f"a task is named SECTION.FUNCTION, got {text!r}"
        )
    return (section, function)


def report_compile_error(error: CompileError, as_json: bool) -> int:
    """Diagnostics as the verb's output format asks; the exit code."""
    rendered = [diagnostic.render() for diagnostic in error.diagnostics]
    if as_json:
        print(json.dumps({"ok": False, "diagnostics": rendered}, indent=2))
    else:
        for line in rendered:
            print(line, file=sys.stderr)
    return 1


def run_compile(args) -> int:
    caches = {}
    backend = None
    try:
        source = options.read_source(args.file)
        compile_options = options.compile_options(args)
        # --parallel with --cache-dir / --no-cache is the one switch for
        # the on-disk tiers.
        if args.parallel or args.chaos is not None:
            caches = stack.open_caches(
                args, "artifact cache", "parse cache", "link cache"
            )
            farm = None
            if args.chaos is not None:
                farm = stack.chaos_farm(args.chaos, args.chaos_poison)
            backend = stack.build_backend(args, farm)
            result = ParallelCompiler(
                backend, compile_options,
                cache=caches.get("artifact cache"),
                parse_cache=caches.get("parse cache"),
                link_cache=caches.get("link cache"),
            ).compile(source, filename=args.file)
        else:
            result = SequentialCompiler(compile_options).compile(
                source, filename=args.file
            )
    except CompileError as error:
        return report_compile_error(error, args.json)
    except (OSError, CellRangeError) as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 1
    finally:
        # This compile built the farm, so it shuts it down (a warm pool
        # used once is the cold pool), and flushes any write-behind
        # pushes to the network cache tier before reporting.
        if backend is not None:
            stack.shutdown_backend(backend)
        stack.close_caches(caches)

    return emit_result(args, result, caches, {})


def emit_result(args, result, caches, json_extra, notes=()) -> int:
    """Print one compile's outcome the way ``--json`` / ``--emit`` ask
    (``notes`` go into the text report, ``json_extra`` into the JSON
    document, each cache tier's counts into both); the exit code."""
    # A poison function that could not even be compiled in-process: the
    # module is partial, signal it without hiding the rest.
    failed = 1 if result.profile.failed_functions() else 0
    tiers = {
        label: stack.cache_counts(store) for label, store in caches.items()
    }
    if args.json:
        document = result.to_dict()
        document["ok"] = not failed
        document.update(json_extra)
        document.update(
            (label.replace(" ", "_"), counts)
            for label, counts in tiers.items()
        )
        print(json.dumps(document, indent=2, sort_keys=True))
        return failed

    if result.diagnostics_text:
        print(result.diagnostics_text, file=sys.stderr)
    if args.emit == "digest":
        print(result.digest)
    elif args.emit == "binary":
        from ..asmlink.encode import write_module

        path = args.output or f"{result.module_name}.warp"
        size = write_module(result.download, path)
        print(f"wrote {path}: {size} bytes, "
              f"{result.download.cells_used} cell(s)")
    elif args.emit == "driver":
        from ..asmlink.iodriver import build_io_driver

        print(build_io_driver(result.download.cell_programs).describe())
    else:
        for line in (*result.report_lines(), *notes):
            print(line)
        print(f"download module: {result.download.cells_used} cell(s), "
              f"{result.profile.download_words} words")
        for label, counts in tiers.items():
            print(f"{label}: {render_counts(counts)}")
    return failed


def register_search(sub):
    parser = sub.add_parser(
        "search",
        help="variant search: compile k configs per function, let "
        "warpsim pick the fastest semantically-identical winner",
    )
    parser.add_argument("file", help="source file (or '-' for stdin)")
    options.target(parser, opt_level=False)
    options.jobs(parser, 1, "1")
    options.caches(parser)
    parser.add_argument(
        "--space", default=None, metavar="KEY,KEY,...",
        help="variant space as comma-separated config keys, e.g. "
        "'o2u0i0,o2u64i0,o2u0i1' (default: the stock lattice; the "
        "reference config o2u0i0 is always included first)",
    )
    parser.add_argument(
        "--inputs", action="append", default=None, metavar="V,V,...",
        help="one recorded scoring input set (comma-separated floats); "
        "repeat for several sets.  Default: seeded synthetic inputs",
    )
    parser.add_argument(
        "--input-seed", type=int, default=0,
        help="seed for the synthetic scoring inputs (default 0)",
    )
    parser.add_argument(
        "--input-sets", type=int, default=2, dest="input_set_count",
        help="how many synthetic input sets to score on (default 2)",
    )
    parser.add_argument(
        "--input-width", type=int, default=4,
        help="values per synthetic input set (default 4)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=2_000_000,
        help="per-run simulation ceiling; a variant that exceeds it is "
        "disqualified (default 2000000)",
    )
    parser.add_argument(
        "--emit", choices=("report", "digest"), default="report",
        help="what to print (default: the compilation report)",
    )
    options.json_output(parser)
    parser.set_defaults(run=run_search)
    return parser


def run_search(args) -> int:
    from ..search import VariantSpace, default_space, search_module
    from ..warpsim.scoring import seeded_input_sets

    source = options.read_source(args.file)
    try:
        space = (
            VariantSpace.parse(args.space)
            if args.space
            else default_space()
        )
    except ValueError as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 2
    if args.inputs:
        input_sets = [options.parse_inputs(text) for text in args.inputs]
    else:
        input_sets = seeded_input_sets(
            args.input_seed, width=args.input_width,
            sets=args.input_set_count,
        )

    caches = stack.open_caches(args, "artifact cache", "variant store")
    backend = stack.build_backend(args)
    try:
        outcome = search_module(
            source,
            filename=args.file,
            space=space,
            input_sets=input_sets,
            options=options.compile_options(args),
            backend=backend,
            cache=caches.get("artifact cache"),
            variant_store=caches.get("variant store"),
            max_cycles=args.max_cycles,
        )
    except CompileError as error:
        return report_compile_error(error, args.json)
    finally:
        stack.shutdown_backend(backend)

    return emit_result(
        args, outcome.result, caches, {"search": outcome.to_dict()},
        outcome.report_lines(),
    )
