"""Command line of the perf harness.

    python -m benchmarks.perf run [--seed N] [--out SET.json]
    python -m benchmarks.perf compare A.json B.json
    python -m benchmarks.perf --workload W --seed N --seconds S --trace 0|1

The last form is the one ``BENCHMARK.json`` names: one workload, one run,
one JSON object on the last line of standard output. Every workload run
happens in a fresh child interpreter (``PYTHONHASHSEED=0``); this process
only starts children and reads their results, so it never imports ``repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __package__ in (None, ""):  # started as ``python3 benchmarks/perf``
    sys.path.insert(0, str(ROOT))
    __package__ = "benchmarks.perf"

from .runner import (  # noqa: E402
    OUT_DIR,
    HarnessFailure,
    check_environment,
    contract_line,
    load_contract,
    run_child,
)


def child_main(args: argparse.Namespace) -> int:
    """Body of the child interpreter: run, print the full result as JSON."""
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise HarnessFailure(f"imported repro from {repro.__file__}, not from this checkout")
    from .harness import run_workload
    from .workloads import WORKLOADS

    trace_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = str(OUT_DIR / f"trace_{args.workload}.jsonl")
    result = run_workload(
        WORKLOADS[args.workload],
        args.seed,
        trace=bool(args.trace),
        rounds=args.rounds,
        seconds=args.seconds,
        trace_path=trace_path,
    )
    print(json.dumps(result))
    return 0


def single_main(args: argparse.Namespace) -> int:
    contract = load_contract()
    result = run_child(
        args.workload, args.seed, trace=bool(args.trace), seconds=args.seconds, rounds=args.rounds
    )
    for violation in result["violations"]:
        print(f"VIOLATION {violation}")
    print(
        f"{args.workload}: seed {args.seed}, {result['rounds']} timed rounds, "
        f"{result['attempted']} data packets, {result['failed']} failed"
    )
    print(contract_line(result, bool(args.trace), contract))
    return 0


def main(argv: list[str]) -> int:
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, help="time-box the timed rounds")
        p.add_argument("--rounds", type=int, help="smoke size: timed rounds, warm-up cap")
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)

    add_run_args(sub.add_parser("child", help="(internal) run one workload in this process"))
    run_p = sub.add_parser("run", help="a benchmark set: 3 runs per workload + traced pass")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--rounds", type=int, help="smoke size; skips the history append")
    run_p.add_argument("--out", type=Path, default=OUT_DIR / "set.json")
    cmp_p = sub.add_parser("compare", help="compare two sets written by `run`")
    cmp_p.add_argument("a", type=Path)
    cmp_p.add_argument("b", type=Path)

    if argv and argv[0] in ("child", "run", "compare"):
        args = parser.parse_args(argv)
    else:
        single = argparse.ArgumentParser(prog=parser.prog)
        add_run_args(single)
        args = single.parse_args(argv)
        args.command = "single"

    try:
        if args.command == "child":
            return child_main(args)
        if args.command == "compare":
            from .sets import compare_main

            return compare_main(args.a, args.b, load_contract())
        check_environment()
        if args.command == "run":
            from .sets import run_set

            return run_set(args.seed, args.rounds, args.out, load_contract())
        return single_main(args)
    except HarnessFailure as exc:
        print(f"benchmarks.perf: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
