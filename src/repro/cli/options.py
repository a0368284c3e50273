"""Every flag more than one verb takes, defined once.

A verb's ``register`` calls the groups it needs; a flag therefore has
one name, one type, one default and one help text wherever it appears
(``--jobs`` differs by verb in its default, which the caller states).
Flags only one verb takes live in that verb's module.  The two helpers
at the bottom parse the argument *values* several verbs share.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from ..options import CompileOptions


def target(parser, opt_level: bool = True) -> None:
    """What to compile for: ``-O/--opt-level`` and ``--cells``."""
    if opt_level:
        parser.add_argument(
            "-O", "--opt-level", type=int, default=2, choices=(0, 1, 2),
            help="optimization level (default 2)",
        )
    parser.add_argument(
        "--cells", type=int, default=10,
        help="cells in the target array (default 10)",
    )


def compile_options(args) -> CompileOptions:
    """What the ``target`` flags said, as the compile's options (a verb
    without ``-O`` compiles at the default level)."""
    return CompileOptions(
        opt_level=getattr(args, "opt_level", 2), cell_count=args.cells
    )


def caches(parser, no_cache: bool = True, cache_url: bool = False) -> None:
    """Where the on-disk tiers live: ``--cache-dir``, ``--no-cache``
    and (verbs that stack the network tier) ``--cache-url``."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory; every on-disk tier the verb uses lives "
        "under it (default: $WARPCC_CACHE_DIR or ~/.cache/warpcc; "
        "bench: a fresh temporary directory, so round 1 is cold)",
    )
    if no_cache:
        parser.add_argument(
            "--no-cache", action="store_true",
            help="disable every persistent cache tier the verb uses; "
            "nothing is read from or written under the cache directory",
        )
    if cache_url:
        parser.add_argument(
            "--cache-url", default=None, metavar="HOST:PORT",
            help="network artifact-cache tier (see 'warpcc cache-server'); "
            "read-through/write-behind in front of the local cache, and "
            "any cache-tier failure degrades to local-only "
            "(default: $WARPCC_CACHE_URL)",
        )


def supervision(parser) -> None:
    """``--supervised`` and its two tuning flags."""
    parser.add_argument(
        "--supervised", action="store_true",
        help="wrap the backend in the supervision layer (deadlines, "
        "straggler hedging, worker quarantine, poison-task isolation); "
        "on compile it implies --parallel",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="fixed per-attempt deadline for --supervised (default: "
        "derived from each task's cost estimate; 0 disables deadlines)",
    )
    parser.add_argument(
        "--hedge-after", type=float, default=0.75, metavar="FRACTION",
        help="launch duplicate attempts for stragglers once this "
        "fraction of the wave has finished (0 disables hedging)",
    )


def connect(parser, required: bool = False) -> None:
    parser.add_argument(
        "--connect", default=None, required=required, metavar="HOST:PORT",
        help="address to connect to: the compile service ('warpcc "
        "serve' printed it; default: $WARPCC_SERVICE), or for worker "
        "the fabric hub ('serve --fabric-port' printed it; export "
        "WARPCC_FABRIC_SECRET to match a hub that requires "
        "authentication)",
    )


def json_output(parser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="print the result as JSON (the verb's full report "
        "document) instead of text",
    )


def bind(parser) -> None:
    """Where a server listens: ``--host`` and ``--port``."""
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free port and print it)",
    )


_WORKERS_RULE = (
    "N>1 is a warm pool of N processes this command owns, 1 compiles "
    "in-process"
)


def jobs(parser, default: Optional[int], default_doc: str) -> None:
    parser.add_argument(
        "--jobs", type=int, default=default, dest="workers", metavar="N",
        help=f"worker processes: {_WORKERS_RULE} (default: {default_doc})",
    )


def workers(parser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=f"worker processes: {_WORKERS_RULE} (default: cores-1)",
    )


# -- argument values ---------------------------------------------------


def read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def parse_inputs(text: str) -> List[float]:
    if not text.strip():
        return []
    return [float(part) for part in text.split(",") if part.strip()]
