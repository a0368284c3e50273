#!/usr/bin/env python3
"""Generate README's CLI reference table from the ``warpcc`` parser.

    python scripts/cli_reference.py            # print the table
    python scripts/cli_reference.py --check    # exit 1 if README is stale
    python scripts/cli_reference.py --write    # rewrite README's block

One row per flag definition: a flag several verbs share (one definition
in ``repro.cli.options``) is listed once with every verb that takes it,
then each verb's own flags follow in ``warpcc --help`` order.  The block
lives in README.md between the two ``cli-reference`` marker comments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import build_parser  # noqa: E402

README = REPO / "README.md"
BEGIN = "<!-- cli-reference:begin (scripts/cli_reference.py --write) -->"
END = "<!-- cli-reference:end -->"


def _spelling(action: argparse.Action) -> str:
    names = " / ".join(f"`{name}`" for name in action.option_strings)
    if action.nargs == 0:
        return names
    value = action.metavar or (
        "{" + ",".join(map(str, action.choices)) + "}"
        if action.choices
        else action.dest.upper()
    )
    return f"{names} `{value}`"


def _default(action: argparse.Action) -> str:
    if action.required:
        return "required"
    if action.nargs == 0 or action.default in (None, "", []):
        return ""
    return f"`{action.default}`"


def _cell(text: str) -> str:
    return " ".join(text.split()).replace("|", "\\|")


def reference_table() -> str:
    rows = {}  # (spelling, help) -> {verb: default}, in first-seen order
    for verb, parser in build_parser().verbs.items():
        for action in parser._actions:
            if not action.option_strings or action.dest == "help":
                continue
            key = (_spelling(action), action.help or "")
            rows.setdefault(key, {})[verb] = _default(action)
    shared = [item for item in rows.items() if len(item[1]) > 1]
    own = [item for item in rows.items() if len(item[1]) == 1]
    lines = [
        "| flag | verbs | default | meaning |",
        "|---|---|---|---|",
    ]
    for (spelling, help_text), defaults in shared + own:
        if len(set(defaults.values())) == 1:
            default = next(iter(defaults.values()))
        else:  # one definition, stricter on some verb
            default = ", ".join(
                f"{value} ({verb})" for verb, value in defaults.items() if value
            )
        lines.append(
            f"| {spelling} | {', '.join(defaults)} | {default} "
            f"| {_cell(help_text)} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--check"], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    table = reference_table()
    if not args:
        print(table)
        return 0
    readme = README.read_text(encoding="utf-8")
    head, _, rest = readme.partition(BEGIN)
    committed, _, tail = rest.partition(END)
    if not tail:
        print("README.md has no cli-reference block", file=sys.stderr)
        return 1
    if args == ["--write"]:
        README.write_text(
            f"{head}{BEGIN}\n{table}\n{END}{tail}", encoding="utf-8"
        )
        return 0
    if committed.strip() != table:
        print(
            "README.md's CLI reference is stale; run "
            "`python scripts/cli_reference.py --write`",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
