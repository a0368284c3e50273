"""The two verbs that take a download module: ``warpcc run FILE
--inputs 1,2,3`` compiles and executes the program on the simulated
Warp array (or executes a prebuilt ``.warp`` module); ``warpcc disasm
FILE`` disassembles a binary download module."""

from __future__ import annotations

import sys

from ..asmlink.download import module_listing
from ..driver.sequential import SequentialCompiler
from ..lang.diagnostics import CompileError
from ..machine.warp_array import CellRangeError, WarpArrayModel
from ..warpsim.array_runner import run_module
from ..warpsim.cell_state import SimulationError
from . import options
from .compile import report_compile_error


def register_run(sub):
    parser = sub.add_parser("run", help="compile and simulate a module")
    parser.add_argument("file")
    parser.add_argument(
        "--inputs", default="",
        help="comma-separated input stream, e.g. 1.0,2.5,3",
    )
    options.target(parser)
    parser.add_argument(
        "--max-cycles", type=int, default=5_000_000,
        help="simulation cycle ceiling (default 5000000)",
    )
    parser.set_defaults(run=run_simulation)
    return parser


def _is_binary_module(path: str) -> bool:
    if path == "-":
        return False
    try:
        with open(path, "rb") as handle:
            return handle.read(4) == b"WARP"
    except OSError:
        return False


def run_simulation(args) -> int:
    from ..asmlink.encode import FormatError, read_module

    try:  # a trap, deadlock or ceiling, or a bad .warp file: one line
        if _is_binary_module(args.file):
            download = read_module(args.file)
        else:
            compiler = SequentialCompiler(options.compile_options(args))
            source = options.read_source(args.file)
            try:
                download = compiler.compile(source, args.file).download
            except CompileError as error:
                return report_compile_error(error, as_json=False)
        outcome = run_module(
            download,
            options.parse_inputs(args.inputs),
            array=WarpArrayModel(cell_count=args.cells),
            max_cycles=args.max_cycles,
        )
    except (SimulationError, FormatError, OSError, CellRangeError) as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 1
    print("outputs:", " ".join(repr(v) for v in outcome.outputs))
    print(f"cycles: {outcome.cycles}")
    return 0


def register_disasm(sub):
    parser = sub.add_parser(
        "disasm", help="disassemble a binary download module"
    )
    parser.add_argument("file", help="a .warp file")
    parser.set_defaults(run=run_disasm)
    return parser


def run_disasm(args) -> int:
    from ..asmlink.encode import FormatError, read_module

    try:
        module = read_module(args.file)
    except (FormatError, OSError) as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 1
    print(module_listing(module))
    return 0
