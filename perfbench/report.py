"""Every workload, untraced and traced, in one report.

    python3 perfbench/report.py --seed 3
    python3 perfbench/report.py --seed 3 --workloads multimin,ll-accuracy --seconds 10

Prints the environment once, then per workload every end-to-end metric
(median, quartiles, sample count), the failed/attempted operations, the
exact counts, every other per-layer metric, and the tracing overhead.  Exits 1
when any workload failed an operation, 2 when the benchmark could not
run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import EXACT_UNITS, WORKLOADS, HarnessError, measure  # noqa: E402


def _print_workload(name: str, plain: dict, traced: dict) -> int:
    failed = plain["failed"] + traced["failed"]
    attempted = plain["attempted"] + traced["attempted"]
    print(f"\n== {name}")
    print(f"fail_frac = {failed / attempted!r} ({failed} of {attempted} operations)")
    for failure in sorted(set(plain["failures"] + traced["failures"])):
        print(f"  failed: {failure}")
    print("end to end (untraced):")
    for key, st in plain["stats"].items():
        unit = plain["metrics"][key]["unit"]
        print(f"  {key} = {st['median']!r} {unit}  [q1 {st['q1']!r}, q3 {st['q3']!r}, n {st['n']}]")
    layers = traced["layers"]
    print("exact counts (traced):")
    for key, (value, unit) in layers.items():
        if unit in EXACT_UNITS:
            print(f"  {key} = {value!r} {unit}")
    print("per-layer times, ratios and sizes (traced):")
    for key, (value, unit) in layers.items():
        if unit not in EXACT_UNITS and not key.startswith("trace."):
            print(f"  {key} = {value!r} {unit}")
    print(f"tracing overhead: traced {layers['trace.traced_wall_s'][0]!r} s, "
          f"untraced {layers['trace.untraced_wall_s'][0]!r} s, "
          f"ratio {layers['trace.overhead'][0]!r}")
    if traced["missing_hooks"]:
        print("hooks not installed: " + ", ".join(traced["missing_hooks"]))
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    names = [n for n in args.workloads.split(",") if n]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    env_printed = []

    def log(line: str) -> None:
        if line.startswith("env ") and not env_printed:
            env_printed.append(line)
            print("environment: " + line[4:])

    failed = 0
    try:
        for name in names:
            plain = measure(WORKLOADS[name], args.seed, args.seconds, False, log=log)
            traced = measure(WORKLOADS[name], args.seed, args.seconds, True, log=log)
            failed += _print_workload(name, plain, traced)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"\n{'FAIL' if failed else 'ok'}: {failed} failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
