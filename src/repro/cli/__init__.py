"""``warpcc`` — command-line driver for the Warp parallel compiler.

A module per verb or family of verbs (its docstring says what they
do); each verb ``register``s its subparser and its ``run`` handler.
Flags several verbs share are defined once in :mod:`.options`; the
backend and cache stack they select is built in :mod:`.stack`.
"""

import argparse
from typing import List, Optional

from . import bench, client, compile, fuzz, run, serve

#: each verb's ``register``, in the order ``warpcc --help`` lists them
VERBS = (
    compile.register_compile, compile.register_search, run.register_run,
    run.register_disasm, bench.register, fuzz.register,
    serve.register_serve, serve.register_worker, serve.register_cache_server,
    client.register_submit, client.register_watch, client.register_status,
)


def build_parser() -> argparse.ArgumentParser:
    """The ``warpcc`` parser; ``parser.verbs`` maps each verb's name to
    its subparser (the CLI reference and the flag tests walk it)."""
    parser = argparse.ArgumentParser(
        prog="warpcc",
        description="Parallel compiler for the Warp systolic array "
        "(PLDI 1989 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.verbs = {}
    for register in VERBS:
        command = register(sub)
        name = command.prog.split()[-1]
        if not callable(command.get_default("run")):
            raise TypeError(f"verb {name!r} registered without a run handler")
        parser.verbs[name] = command
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)
