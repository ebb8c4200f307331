"""Command line: ``python -m benchmarks.perf {run,compare,golden}``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from benchmarks.perf.spec import DEFAULT_SEED, BenchmarkSpec, MissingSourceError, ensure_source, load_spec


def _parser(spec: BenchmarkSpec) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads and check their records")
    run.add_argument("--workload", choices=spec.workloads, help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument(
        "--repeats", type=int, default=3, help="untraced repeats at least (default 3, the fewest a quartile needs)"
    )
    run.add_argument(
        "--seconds",
        type=float,
        default=spec.run_seconds,
        help="keep repeating for this long per workload (default: run_seconds of BENCHMARK.json)",
    )
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add one traced repeat and report the per-layer metrics",
    )
    run.add_argument("--out", type=Path, help="append this run's full result as a JSON line")
    run.add_argument(
        "--tiny", action="store_true", help="one problem per category and a one-worker fleet (self-test)"
    )

    compare = commands.add_parser("compare", help="judge a change against its parent")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)

    commands.add_parser("golden", help=f"re-record the seed-{DEFAULT_SEED} reference digests")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ensure_source()
        spec = load_spec()
    except (MissingSourceError, OSError) as exc:
        print(f"benchmarks.perf: {exc}", file=sys.stderr)
        return 2
    args = _parser(spec).parse_args(argv)

    if args.command == "compare":
        from benchmarks.perf.compare import compare

        try:
            return compare(spec, args.parent, args.change)
        except ValueError as exc:
            print(f"benchmarks.perf compare: {exc}", file=sys.stderr)
            return 2

    from benchmarks.perf import harness, workloads
    from benchmarks.perf.digest import write_golden

    if args.command == "golden":
        for input_set in {workloads.WORKLOADS[name].input_set for name in spec.workloads}:
            prep_dir = workloads.prepare(input_set, DEFAULT_SEED, tiny=False)
            print(write_golden(input_set.name, DEFAULT_SEED, workloads.load_reference(prep_dir)))
        return 0

    if args.repeats < 1:
        print("benchmarks.perf run: --repeats must be at least 1", file=sys.stderr)
        return 2
    return harness.run(
        spec,
        [args.workload] if args.workload else list(spec.workloads),
        seed=args.seed,
        repeats=args.repeats,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        out=args.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
