"""``warpcc fuzz``: differential fuzzing — generated programs through
every pipeline variant, mismatches minimized into the corpus."""

from __future__ import annotations

import sys

from ..workloads.sizes import SIZE_CLASSES
from . import options


def register(sub):
    parser = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated programs through every "
        "pipeline variant, mismatches minimized into the corpus",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base RNG seed; iteration i uses seed+i (default 0)",
    )
    parser.add_argument(
        "--iterations", type=int, default=50,
        help="programs to generate and check (default 50)",
    )
    parser.add_argument(
        "--size-class", default="small", choices=sorted(SIZE_CLASSES),
        help="generated-program size preset (default small)",
    )
    parser.add_argument(
        "--minimize", action="store_true",
        help="delta-debug the first mismatch and write the reduced "
        "reproducer into the corpus",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop cleanly after this much wall-clock (for CI boxes)",
    )
    parser.add_argument(
        "--pipelines", default=None, metavar="A,B,...",
        help="comma-separated pipeline subset, or 'all' (default: every "
        "in-process variant; 'all' adds the warm multiprocess pool)",
    )
    parser.add_argument(
        "--corpus-dir", default="tests/corpus", metavar="DIR",
        help="where --minimize writes reproducers (default tests/corpus)",
    )
    options.target(parser)
    parser.add_argument(
        "--no-semantics", action="store_true",
        help="skip the execute-vs-reference-interpreter leg",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="collect every mismatch instead of stopping at the first",
    )
    parser.add_argument(
        "--inject-miscompile", default=None, metavar="PIPELINE:FUNCTION",
        help="TESTING ONLY: perturb the named pipeline's digest when the "
        "module defines FUNCTION, to exercise catch/minimize/corpus",
    )
    parser.set_defaults(run=run)
    return parser


def run(args) -> int:
    from ..fuzz.oracle import (
        ALL_PIPELINES,
        DifferentialOracle,
        OracleConfig,
        narrowed_config,
        run_fuzz_campaign,
    )

    if args.pipelines is None:
        pipelines = None  # oracle default: every in-process variant
    elif args.pipelines.strip().lower() == "all":
        pipelines = ALL_PIPELINES
    else:
        pipelines = tuple(
            part.strip() for part in args.pipelines.split(",") if part.strip()
        )
    config_kwargs = dict(
        options=options.compile_options(args),
        check_semantics=not args.no_semantics,
        inject_miscompile=args.inject_miscompile,
    )
    if pipelines is not None:
        config_kwargs["pipelines"] = pipelines
    config = OracleConfig(**config_kwargs)

    def progress(seed: int, report) -> None:
        if not report.ok:
            print(f"seed {seed}: MISMATCH", file=sys.stderr)
            for line in report.describe():
                print(f"  {line}", file=sys.stderr)

    with DifferentialOracle(config) as oracle:
        result = run_fuzz_campaign(
            seed=args.seed,
            iterations=args.iterations,
            size_class=args.size_class,
            oracle=oracle,
            time_budget=args.time_budget,
            on_iteration=progress,
            stop_on_failure=not args.keep_going,
        )
        print(
            f"fuzz: {result.iterations_run} iteration(s), "
            f"{len(result.failures)} mismatch(es), "
            f"{result.elapsed:.1f}s "
            f"[size={args.size_class} base-seed={args.seed}]"
        )
        if result.ok:
            return 0
        counts = ", ".join(
            f"{kind}={count}" for kind, count in sorted(
                result.kind_counts().items()
            )
        )
        print(f"mismatch kinds: {counts}")
        for failure in result.failures:
            print(
                f"reproduce: warpcc fuzz --seed {failure.seed} "
                f"--iterations 1 --size-class {args.size_class}"
            )
        if args.minimize:
            from ..fuzz.reduce import DeltaReducer, write_corpus_entry

            failure = result.failures[0]
            # every candidate pays one oracle run: reduce against only
            # sequential plus the pipelines that disagreed
            with DifferentialOracle(
                narrowed_config(config, failure.report)
            ) as narrow:
                reduction = DeltaReducer(
                    narrow,
                    inputs=failure.program.inputs(),
                    seed=failure.seed,
                ).reduce(failure.program.source)
            print(
                f"minimized: {reduction.function_count} function(s), "
                f"{reduction.statement_count} statement(s) after "
                f"{reduction.oracle_runs} oracle run(s)"
            )
            path = write_corpus_entry(
                args.corpus_dir,
                source=reduction.source,
                seed=failure.seed,
                size_class=args.size_class,
                kinds=reduction.kinds,
                pipelines=list(config.pipelines),
                inputs=failure.program.inputs(),
                notes=(
                    "minimized by warpcc fuzz --minimize; original "
                    f"mismatches: {'; '.join(failure.report.describe())}"
                ),
            )
            print(f"corpus entry written: {path}")
    return 1
