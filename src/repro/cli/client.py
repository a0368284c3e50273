"""The client verbs of a running compile service.

``warpcc submit FILE`` submits a module and (unless ``--no-wait``)
streams its progress until it finishes; ``warpcc watch FILE`` streams
edits to a service with an artifact cache so the changed functions are
speculatively precompiled before the next submit; ``warpcc status``
shows the overview, one job, or the shared pool's Gantt chart.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from typing import Iterator, Optional

from ..driver.results import render_counts
from . import options


def connect(args):
    from ..service import ServiceClient, resolve_address

    return ServiceClient(resolve_address(args.connect))


@contextlib.contextmanager
def service_errors() -> Iterator[None]:
    """Report a failed service call in one line on stderr and leave the
    block; the caller sees its result unset and exits 2."""
    from ..service import ServiceError

    try:
        yield
    except ServiceError as error:
        print(f"warpcc: {error} [{error.reason}]", file=sys.stderr)
    except OSError as error:
        print(f"warpcc: service unreachable: {error}", file=sys.stderr)


def register_submit(sub):
    parser = sub.add_parser(
        "submit", help="submit a module to a running compile service"
    )
    parser.add_argument("file", help="source file (or '-' for stdin)")
    options.connect(parser)
    parser.add_argument(
        "--tenant", default="default", help="tenant identity for fair share"
    )
    parser.add_argument(
        "--priority", default="normal",
        choices=("interactive", "normal", "batch"),
    )
    options.target(parser)
    parser.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without waiting",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the streamed per-function progress events",
    )
    options.json_output(parser)
    parser.set_defaults(run=run_submit)
    return parser


def _format_event(event: dict) -> str:
    name = event.get("event", "?")
    parts = [f"[{event.get('job', '?')}] {name}"]
    if "function" in event:
        parts.append(event["function"])
    if "tasks" in event:
        parts.append(f"({event['tasks']} task(s))")
    return " ".join(parts)


def run_submit(args) -> int:
    source = options.read_source(args.file)
    job = None
    with service_errors():
        client = connect(args)
        job_id = client.submit(
            source,
            tenant=args.tenant,
            filename=args.file,
            priority=args.priority,
            opt_level=args.opt_level,
            cells=args.cells,
        )
        if args.no_wait:
            print(job_id)
            return 0

        def on_event(event: dict) -> None:
            print(_format_event(event), file=sys.stderr)

        job = client.wait(
            job_id,
            stream=not args.quiet,
            on_event=None if args.quiet else on_event,
        )
    if job is None:
        return 2

    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0 if job.get("state") == "done" else 1
    state = job.get("state")
    if state != "done":
        print(f"warpcc: job {job_id} {state}: {job.get('error')}",
              file=sys.stderr)
        diagnostics = job.get("diagnostics")
        if diagnostics:
            print(diagnostics, file=sys.stderr)
        return 1
    print(job["digest"])
    print(
        f"job {job_id}: {job['tasks_done']}/{job['tasks_total']} "
        f"function(s) compiled, {job['cache_served']} served from cache",
        file=sys.stderr,
    )
    return 0


def register_watch(sub):
    parser = sub.add_parser(
        "watch",
        help="stream a file's edits to the service so it precompiles "
        "the changed functions before you submit (speculative, "
        "batch-priority; requires a 'warpcc serve' with a cache)",
    )
    parser.add_argument("file", help="source file to watch")
    options.connect(parser)
    parser.add_argument(
        "--watch-key", default=None, metavar="NAME",
        help="watch identity on the server; edits under one key "
        "supersede each other (default: the file path)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval for file changes (default 0.5)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="send the file's current contents once and exit "
        "(scripts, CI smoke)",
    )
    options.target(parser)
    options.json_output(parser)
    parser.set_defaults(run=run_watch)
    return parser


def _describe_outcome(outcome: dict) -> str:
    reason = outcome.get("reason", "?")
    if reason == "speculating":
        names = ", ".join(outcome.get("functions", ())) or "?"
        line = (
            f"speculating on {outcome.get('dirty', 0)} function(s) "
            f"[job {outcome.get('job', '?')}]: {names}"
        )
        if outcome.get("superseded"):
            line += f" (superseded {outcome['superseded']})"
        return line
    if reason == "clean":
        return "no function changed; nothing to do"
    if reason == "parse-error":
        return "module does not parse yet; waiting for the next edit"
    return f"speculation skipped [{reason}]"


def run_watch(args) -> int:
    client = None
    with service_errors():
        client = connect(args)
    if client is None:
        return 2
    watch_key = args.watch_key or args.file

    def push(source: str) -> Optional[dict]:
        with service_errors():
            return client.watch_update(
                source,
                watch=watch_key,
                filename=args.file,
                opt_level=args.opt_level,
                cells=args.cells,
            )

    def report(outcome: dict) -> None:
        if args.json:
            print(json.dumps(outcome, sort_keys=True), flush=True)
        else:
            print(_describe_outcome(outcome), flush=True)

    try:
        last = options.read_source(args.file)
    except OSError as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 2
    outcome = push(last)
    if outcome is None:
        return 2
    report(outcome)
    if args.once:
        return 0

    print(
        f"watching {args.file} (interval {args.interval}s, ^C to stop)",
        file=sys.stderr,
        flush=True,
    )
    try:
        while True:
            time.sleep(max(args.interval, 0.05))
            try:
                current = options.read_source(args.file)
            except OSError:
                continue  # editor mid-save; retry next tick
            if current == last:
                continue
            last = current
            outcome = push(current)
            if outcome is not None:
                report(outcome)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def register_status(sub):
    parser = sub.add_parser(
        "status", help="inspect a running compile service"
    )
    options.connect(parser)
    parser.add_argument(
        "--job", default=None, help="show one job instead of the overview"
    )
    parser.add_argument(
        "--gantt", action="store_true",
        help="render shared-pool occupancy (slots x time, one glyph "
        "per job)",
    )
    options.json_output(parser)
    parser.set_defaults(run=run_status)
    return parser


def run_status(args) -> int:
    reply = None
    with service_errors():
        client = connect(args)
        reply = client.status(args.job, gantt=args.gantt)
    if reply is None:
        return 2

    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    if args.job is not None:
        job = reply["job"]
        print(f"job {job['job']}: {job['state']} "
              f"(tenant {job['tenant']}, priority {job['priority']})")
        print(f"  tasks: {job['tasks_done']}/{job['tasks_total']} done, "
              f"{job['cache_served']} from cache")
        if job.get("error"):
            print(f"  error: {job['error']}")
        if job.get("digest"):
            print(f"  digest: {job['digest']}")
    else:
        stats = reply["stats"]
        print(
            f"service: {stats['submitted']} submitted, "
            f"{stats['done']} done, {stats['failed']} failed, "
            f"{stats['cancelled']} cancelled, "
            f"{stats['rejected']} rejected; "
            f"utilization {stats['utilization']:.0%} "
            f"over {stats['workers']} worker(s)"
        )
        # what the shared backend did about failures, when it says
        said = {
            name: render_counts(stats.get(name, {}))
            for name in ("supervision", "fabric", "speculation")
        }
        recovery = "; ".join(
            f"{name}: {text}" for name, text in said.items() if text
        )
        if recovery:
            print(recovery)
        for job in reply["jobs"]:
            print(f"  {job['job']}: {job['state']:9s} "
                  f"tenant={job['tenant']} "
                  f"{job['tasks_done']}/{job['tasks_total']} tasks")
    if args.gantt and reply.get("gantt"):
        print(reply["gantt"])
    return 0
