#!/usr/bin/env python
"""CI smoke test for the compile service's full network stack.

Starts ``warpcc serve`` as a real subprocess, submits three modules
concurrently from two tenants over the JSON-lines socket, and checks
every digest against a direct in-process compile of the same source —
the service's whole value proposition is that multiplexing many tenants
over one shared pool changes *when* work runs, never *what* it
produces.

A finished job keeps its reply, not its compile, so the server must not
grow with the modules it has compiled: on Linux the server's ``VmRSS``
after all its jobs (a run of sequential repeats, then three concurrent)
must stay within 2x of its value after the first job.

Exits non-zero (with a diagnostic) on any mismatch, failed job, memory
growth, or timeout.  Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--workers N]
"""

import argparse
import pathlib
import re
import subprocess
import sys
import threading

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.driver.sequential import SequentialCompiler  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.workloads.synthetic import synthetic_program  # noqa: E402

BANNER = re.compile(r"warpcc service on (\S+:\d+)")

MODULES = [
    ("alice", "smoke_a", synthetic_program("tiny", 3, module_name="smoke_a")),
    ("bob", "smoke_b", synthetic_program("small", 2, module_name="smoke_b")),
    ("alice", "smoke_c", synthetic_program("tiny", 4, module_name="smoke_c")),
]

#: sequential resubmissions after the first job, for the RSS check
REPEAT_JOBS = 24


def server_rss_kb(pid: int):
    """The process's resident set in KB from /proc, or None off Linux."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()

    expected = {
        name: SequentialCompiler().compile(source).digest
        for _, name, source in MODULES
    }

    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", str(args.workers), "--no-cache",
        ],
        cwd=REPO,
        env={**__import__("os").environ, "PYTHONPATH": str(REPO / "src")},
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

        # Sequential jobs first; the RSS after the very first one is the
        # baseline the server's memory is held to.
        failures = 0
        rss_first = None
        client = ServiceClient(address, timeout=args.timeout)
        for index in range(1 + REPEAT_JOBS):
            tenant, name, source = MODULES[index % len(MODULES)]
            job = client.submit_and_wait(
                source, tenant=tenant, filename=f"{name}.w2",
                timeout=args.timeout,
            )
            if job["state"] != "done" or job["digest"] != expected[name]:
                print(f"repeat {index} ({name}): {job['state']}, digest "
                      "mismatch or failure", file=sys.stderr)
                failures += 1
            if index == 0:
                rss_first = server_rss_kb(server.pid)

        results, errors = {}, []

        def submit(tenant, name, source):
            try:
                job = ServiceClient(address, timeout=args.timeout).submit_and_wait(
                    source,
                    tenant=tenant,
                    filename=f"{name}.w2",
                    timeout=args.timeout,
                )
                results[name] = job
            except Exception as error:  # noqa: BLE001 - smoke harness
                errors.append(f"{name}: {error!r}")

        threads = [
            threading.Thread(target=submit, args=module)
            for module in MODULES
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=args.timeout)

        if errors:
            print("submission errors:", *errors, sep="\n  ", file=sys.stderr)
            return 1
        for _, name, _ in MODULES:
            job = results.get(name)
            if job is None:
                print(f"{name}: no result", file=sys.stderr)
                failures += 1
            elif job["state"] != "done":
                print(f"{name}: state {job['state']}: {job.get('error')}",
                      file=sys.stderr)
                failures += 1
            elif job["digest"] != expected[name]:
                print(f"{name}: DIGEST MISMATCH vs direct compile",
                      file=sys.stderr)
                failures += 1
            else:
                print(f"{name}: done, digest identical "
                      f"({job['tasks_done']} task(s), "
                      f"tenant {job['tenant']})")

        rss_last = server_rss_kb(server.pid)
        if rss_first is None or rss_last is None:
            print("server RSS: skipped (no /proc)")
        else:
            print(f"server RSS: {rss_first / 1024:.1f} MB after the first "
                  f"job, {rss_last / 1024:.1f} MB after "
                  f"{1 + len(MODULES) + REPEAT_JOBS}")
            if rss_last > 2 * rss_first:
                print("server RSS more than doubled: finished jobs are "
                      "holding memory", file=sys.stderr)
                failures += 1

        overview = ServiceClient(address).status(gantt=True)
        print(overview["gantt"])
        stats = overview["stats"]
        print(f"stats: {stats['done']} done / {stats['submitted']} "
              f"submitted, {stats['tasks_dispatched']} task(s) in "
              f"{stats['waves']} wave(s)")
        ServiceClient(address).shutdown(drain=True)
        server.wait(timeout=args.timeout)
        if failures:
            return 1
        print("service smoke: OK")
        return 0
    finally:
        if server.poll() is None:
            server.terminate()
            server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
