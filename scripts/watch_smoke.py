#!/usr/bin/env python
"""CI smoke test for watch-mode speculation over the full network stack.

Starts ``warpcc serve`` (speculation follows the cache and needs no
flag) as a real subprocess with a fresh cache directory, replays a
fixed-seed edit session through the ``watch`` protocol verb (each edit
speculated, then submitted interactively), and checks:

- every interactive submit's digest matches a direct in-process compile
  of the same source (speculation changes *when* work runs, never
  *what* it produces);
- the speculative jobs actually launched (``status``'s
  ``stats.speculation``) and the final submits were served from the
  shared artifact cache;
- the ``warpcc watch --once`` CLI round-trips against the same server.

Exits non-zero (with a diagnostic) on any mismatch.  Usage::

    PYTHONPATH=src python scripts/watch_smoke.py [--edits N]
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.driver.sequential import SequentialCompiler  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.loadgen import (  # noqa: E402
    EditSessionSpec,
    plan_edit_session,
)

BANNER = re.compile(r"warpcc service on (\S+:\d+)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--edits", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()

    spec = EditSessionSpec(
        seed=args.seed, edits=args.edits, functions=3, size_class="tiny"
    )
    steps = plan_edit_session(spec)
    expected = [
        SequentialCompiler().compile(step.source).digest for step in steps
    ]

    with tempfile.TemporaryDirectory(prefix="warpcc-watch-smoke-") as tmp:
        env = {
            **os.environ,
            "PYTHONPATH": str(REPO / "src"),
            "WARPCC_CACHE_DIR": tmp,
        }
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--workers", "2",
            ],
            cwd=REPO,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = server.stdout.readline()
            match = BANNER.search(banner)
            if not match:
                print(f"no service banner, got: {banner!r}", file=sys.stderr)
                return 1
            address = match.group(1)
            print(f"service up at {address}")

            client = ServiceClient(address, timeout=args.timeout)
            failures = 0
            cache_served_total = 0
            for index, step in enumerate(steps):
                outcome = client.watch_update(
                    step.source, watch="smoke", filename="smoke.w2"
                )
                if outcome["job"] is not None:
                    client.wait(outcome["job"], timeout=args.timeout)
                job = client.submit_and_wait(
                    step.source,
                    tenant="editor",
                    filename="smoke.w2",
                    priority="interactive",
                    timeout=args.timeout,
                )
                cache_served_total += job.get("cache_served", 0)
                if job["state"] != "done":
                    print(
                        f"edit {index}: state {job['state']}: "
                        f"{job.get('error')}",
                        file=sys.stderr,
                    )
                    failures += 1
                elif job["digest"] != expected[index]:
                    print(
                        f"edit {index}: DIGEST MISMATCH vs direct compile",
                        file=sys.stderr,
                    )
                    failures += 1
                else:
                    print(
                        f"edit {index} ({step.function}): speculation "
                        f"{outcome['reason']}, submit done, "
                        f"{job['cache_served']} task(s) from cache, "
                        "digest identical"
                    )

            # a count that never fired is absent
            stats = client.status()["stats"].get("speculation", {})
            print(
                f"speculation: {stats.get('launched', 0)} launched / "
                f"{stats.get('updates', 0)} updates, "
                f"{stats.get('superseded', 0)} superseded"
            )
            if stats.get("launched", 0) < 1:
                print("no speculative job ever launched", file=sys.stderr)
                failures += 1
            if cache_served_total < 1:
                print(
                    "no interactive submit was served from cache",
                    file=sys.stderr,
                )
                failures += 1

            # The CLI round-trip: one more edit via `warpcc watch --once`.
            with tempfile.NamedTemporaryFile(
                "w", suffix=".w2", delete=False
            ) as handle:
                handle.write(steps[-1].source)
                watched_file = handle.name
            try:
                cli = subprocess.run(
                    [
                        sys.executable, "-m", "repro.cli", "watch",
                        watched_file, "--once", "--connect", address,
                        "--watch-key", "smoke-cli",
                    ],
                    cwd=REPO,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=args.timeout,
                )
            finally:
                os.unlink(watched_file)
            if cli.returncode != 0:
                print(
                    f"warpcc watch --once failed: {cli.stderr}",
                    file=sys.stderr,
                )
                failures += 1
            else:
                print(f"warpcc watch --once: {cli.stdout.strip()}")

            client.shutdown(drain=True)
            server.wait(timeout=args.timeout)
            if failures:
                return 1
            print("watch smoke: OK")
            return 0
        finally:
            if server.poll() is None:
                server.terminate()
                server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
