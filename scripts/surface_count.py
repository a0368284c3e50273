#!/usr/bin/env python3
"""Count the public surface ROADMAP aim 2 tracks, and guard it.

    python scripts/surface_count.py                       # print the counts
    python scripts/surface_count.py --check               # exit 1 if any grew
    python scripts/surface_count.py > docs/SURFACE.json   # after a reduction

The counts, all over ``src/**/*.py``:

``src_lines``           physical lines (what ``wc -l`` reports)
``cli_flags``           ``add_argument`` calls whose first name starts ``-``
``env_vars``            distinct ``WARPCC_*`` names
``streaming_backends``  classes implementing ``run_tasks_streaming`` (the
                        ``ExecutionBackend`` protocol declares it and is
                        not one)
``task_surfaces``       distinct public methods, on those backends, whose
                        first parameter is ``tasks`` — every way there is
                        to hand a backend work
``stats_dataclasses``   ``@dataclass`` classes named ``*Stats``
``socket_servers``      classes deriving from a ``socketserver`` class
``socket_clients``      modules that open a socket themselves (call
                        ``socket.create_connection`` or ``.makefile(``)
``wire_pickle_globals`` classes a fabric blob may name: arguments of any
                        ``PickleCodec(...)`` / ``allowed_globals(...)``
                        call under ``fabric/`` (0: the wire sends entries)
``pickle_codecs``       ``PickleCodec(...)`` calls: tiers that pickle
``disk_tiers``          classes with a non-empty ``SUBDIR``
``option_fields``       fields of the ``CompileOptions`` dataclass: each
                        is a value every compile can be asked to vary
``init_params``         parameters, other than ``self``, of every
                        ``__init__`` a class defines itself (``*args``
                        and ``**kwargs`` one each): every value a caller
                        can set when it builds an object
``protocol_verbs``      string keys of every dict literal assigned to a
                        name or attribute called ``verbs``: every request
                        a line-protocol server answers

Every count is an AST walk — none depends on how a name is spelled, so
no grep for a deleted name can trip (or satisfy) one.

``--check`` compares against the committed ``docs/SURFACE.json`` and
fails when any count *exceeds* it: the numbers may fall, and a PR that
makes one fall commits the new file; a PR that needs one to rise has to
say so by editing the file.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
COMMITTED = REPO / "docs" / "SURFACE.json"

ENV_VAR = re.compile(r"\bWARPCC_[A-Z0-9_]+\b")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", ""
        )
        if name == "dataclass":
            return True
    return False


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(getattr(base, "id", "") == "Protocol" for base in node.bases)


def _takes_tasks(method: ast.FunctionDef) -> bool:
    args = method.args.args
    return (
        not method.name.startswith("_")
        and len(args) > 1
        and args[1].arg == "tasks"
    )


def _derives_from_socketserver(node: ast.ClassDef) -> bool:
    return any(
        isinstance(base, ast.Attribute)
        and getattr(base.value, "id", "") == "socketserver"
        for base in node.bases
    )


def _opens_a_socket(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    return node.func.attr == "makefile" or (
        node.func.attr == "create_connection"
        and getattr(node.func.value, "id", "") == "socket"
    )


def _calls(node: ast.AST, *names: str) -> bool:
    return isinstance(node, ast.Call) and bool(
        {getattr(node.func, "id", ""), getattr(node.func, "attr", "")}
        & set(names)
    )


def _wire_pickle_globals(path: Path, node: ast.AST) -> int:
    if path.parent.name == "fabric" and _calls(
        node, "PickleCodec", "allowed_globals"
    ):
        return len(node.args)
    return 0


def _names_a_tier(node: ast.ClassDef) -> bool:
    return any(
        isinstance(item, ast.Assign)
        and getattr(item.targets[0], "id", "") == "SUBDIR"
        and bool(getattr(item.value, "value", ""))
        for item in node.body
    )


def _protocol_verbs(node: ast.AST) -> int:
    if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)):
        return 0
    if not any(
        getattr(target, "id", getattr(target, "attr", "")) == "verbs"
        for target in node.targets
    ):
        return 0
    return sum(
        isinstance(key, ast.Constant) and isinstance(key.value, str)
        for key in node.value.keys
    )


def _init_params(methods) -> int:
    for method in methods:
        if method.name == "__init__":
            args = method.args
            named = len(args.posonlyargs) + len(args.args) - 1  # self
            return (
                named
                + len(args.kwonlyargs)
                + (args.vararg is not None)
                + (args.kwarg is not None)
            )
    return 0


def count_surface() -> dict:
    lines = flags = backends = stats = servers = clients = wire_globals = 0
    pickle_codecs = tiers = option_fields = init_params = verbs = 0
    env_vars = set()
    task_surfaces = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += text.count("\n")
        env_vars.update(ENV_VAR.findall(text))
        nodes = list(ast.walk(ast.parse(text, filename=str(path))))
        clients += any(_opens_a_socket(node) for node in nodes)
        for node in nodes:
            wire_globals += _wire_pickle_globals(path, node)
            pickle_codecs += _calls(node, "PickleCodec")
            verbs += _protocol_verbs(node)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and str(node.args[0].value).startswith("-")
            ):
                flags += 1
            elif isinstance(node, ast.ClassDef):
                methods = [
                    item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
                servers += _derives_from_socketserver(node)
                tiers += _names_a_tier(node)
                init_params += _init_params(methods)
                if node.name == "CompileOptions" and _is_dataclass(node):
                    option_fields += sum(
                        isinstance(item, ast.AnnAssign) for item in node.body
                    )
                if node.name.endswith("Stats") and _is_dataclass(node):
                    stats += 1
                if _is_protocol(node) or "run_tasks_streaming" not in {
                    method.name for method in methods
                }:
                    continue
                backends += 1
                task_surfaces.update(
                    method.name for method in methods if _takes_tasks(method)
                )
    return {
        "src_lines": lines,
        "cli_flags": flags,
        "env_vars": len(env_vars),
        "streaming_backends": backends,
        "task_surfaces": len(task_surfaces),
        "stats_dataclasses": stats,
        "socket_servers": servers,
        "socket_clients": clients,
        "wire_pickle_globals": wire_globals,
        "pickle_codecs": pickle_codecs,
        "disk_tiers": tiers,
        "option_fields": option_fields,
        "init_params": init_params,
        "protocol_verbs": verbs,
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    counts = count_surface()
    if not args:
        print(json.dumps(counts, indent=2))
        return 0
    committed = json.loads(COMMITTED.read_text())
    grew = [
        f"{name}: {counts[name]} > {committed[name]}"
        for name in counts
        if counts[name] > committed[name]
    ]
    for name in counts:
        print(f"{name:20} {counts[name]:>6}  (committed {committed[name]})")
    if grew:
        print(
            "surface grew past docs/SURFACE.json — " + "; ".join(grew),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
