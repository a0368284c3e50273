"""Surviving an unreliable network of workstations (§5.2).

The paper's authors complain that on a network of autonomous UNIX nodes
"it is hard to make a parallel program reliable ... the application code
becomes unwieldy as it tries to account for all possible failures in the
child processes and their host processors."

This example drives one compilation through the full failure taxonomy —
crashes, hangs, corrupt result payloads, and one poison function that
crashes on every worker — and shows the supervision layer absorbing all
of it: hung attempts are abandoned at their deadline, corrupt payloads
are detected by digest and re-run, and the poison function is isolated
and compiled in-process, while the final download module stays
bit-identical to the sequential compiler's.

Run:  python examples/unreliable_network.py
"""

from repro import ParallelCompiler, SequentialCompiler
from repro.parallel import (
    ChaosBackend,
    FaultSchedule,
    SerialBackend,
    SupervisedBackend,
)
from repro.workloads.synthetic import synthetic_program

SOURCE = synthetic_program("small", 6, module_name="flaky_build")


def crashes_only() -> None:
    """The simple story: clean crashes, absorbed by retry alone."""
    sequential = SequentialCompiler().compile(SOURCE)
    # Half of all attempts crash, at most twice per function.
    faults = FaultSchedule(11, {"crash": 0.5}, budgets={"crash": 2})
    backend = SupervisedBackend(
        ChaosBackend(SerialBackend(), faults), max_attempts=3, hedge_after=None
    )
    result = ParallelCompiler(backend=backend).compile(SOURCE)
    print("-- crashes only --")
    print(f"injected crashes          : {faults.fired['crash']}")
    print(f"retries performed         : {backend.counts['retries']}")
    print(f"output identical to the sequential compiler:",
          result.digest == sequential.digest)


def full_chaos() -> None:
    """The real §5.2 weather: crashes, hangs, corruption, and a poison
    task, supervised with deadlines, quarantine, and isolation."""
    sequential = SequentialCompiler().compile(SOURCE)
    faults = FaultSchedule(
        3,
        {
            "crash": 0.25,      # killed Lisp processes
            "hang": 0.3,        # wedged workstations, 1.5 s each
            "corrupt": 0.2,     # damaged IPC payloads
        },
        delay=1.5,
    )
    chaos = ChaosBackend(
        SerialBackend(),
        faults,
        workers=4,
        poison=(("sec1", "f3"),),  # crashes on EVERY worker
    )
    backend = SupervisedBackend(
        chaos,
        # The chaos backend reports when each attempt starts, so the
        # deadline measures the attempt itself (queueing excluded): 1s
        # is loose for an honest compile, tight for a 1.5s hang.
        task_timeout=1.0,
        max_attempts=4,
        poison_threshold=3,     # 3 distinct workers -> isolate in-process
    )
    result = ParallelCompiler(backend=backend).compile(SOURCE)
    counts = backend.counts

    print("\n-- full chaos --")
    print(f"injected crashes          : {faults.fired['crash']}")
    print(f"injected hangs            : {faults.fired['hang']}")
    print(f"injected corruptions      : {faults.fired['corrupt']}")
    print(f"deadline timeouts         : {counts['timeouts']}")
    print(f"corrupt payloads caught   : {counts['corrupt_payloads']}")
    print(f"retries / quarantines     : {counts['retries']} / "
          f"{counts['quarantines']}")
    print(f"poison tasks isolated     : {counts['poisoned_tasks']}")
    poisoned = [f.name for f in result.profile.poisoned_functions()]
    print(f"poisoned functions        : {poisoned}")
    # f3 crashed on three distinct workers, got pulled out of the farm,
    # and compiled in-process — so the module is STILL bit-identical.
    print(f"output identical to the sequential compiler:",
          result.digest == sequential.digest)
    for line in result.report_lines():
        if "f3" in line or line.startswith("supervision:"):
            print(" ", line)


def main() -> None:
    crashes_only()
    full_chaos()


if __name__ == "__main__":
    main()
