#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself within its own bounds?

    python3 benchmarks/perf/aa_check.py                  # 6 full runs
    python3 benchmarks/perf/aa_check.py --runs 20        # the driver's size
    python3 benchmarks/perf/aa_check.py --workload stream_mixed --runs 10

Runs the same code N times as two interleaved sets A, B, A, B, ...; run
``2k`` and run ``2k+1`` share seed ``--seed + k``, so the sets see the
same traffic.  Per workload and end-to-end metric it prints both
medians, their gap, the bound, and each set's spread across seeds
(interquartile range over median, by ``statistics.quantiles(n=4)``),
writes ``AA_REPORT.json``, and exits non-zero when a gap exceeds half
the metric's bound.  A spread wider than the bound is marked ``wide``:
it says the machine moved during the session, which the two medians of
an interleaved A/A survive but a single run does not.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run as bench
from harness.workloads import WORKLOADS

def quartile_spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    low, mid, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(mid) if mid else 0.0


def compare(name: str, metric: dict, a: list[float], b: list[float]) -> dict:
    median_a, median_b = statistics.median(a), statistics.median(b)
    gap = abs(median_b - median_a) / abs(median_a) if median_a else 0.0
    row = {"workload": name, "metric": metric["name"], "unit": metric["unit"],
           "bound": metric["bound"], "median_a": median_a,
           "median_b": median_b, "gap": gap,
           "spread_a": quartile_spread(a), "spread_b": quartile_spread(b),
           "values_a": a, "values_b": b}
    row["gap_too_large"] = gap > metric["bound"] / 2
    row["wide"] = any(spread is not None and spread > metric["bound"]
                      for spread in (row["spread_a"], row["spread_b"]))
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--runs", type=int, default=6,
                        help="total runs, alternating A and B (default 6)")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="restrict to these workloads (repeatable)")
    parser.add_argument("--seed", type=int, default=100,
                        help="seed of the first A/B pair")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--output", type=Path,
                        default=bench.PERF / "AA_REPORT.json")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (one A and one B)")
    contract = bench.load_contract()
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload or list(WORKLOADS)
    values = {name: {metric["name"]: ([], [])
                     for metric in contract["end_to_end"]} for name in names}
    bench.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="aa-", dir=bench.OUT))
    started = time.perf_counter()
    environment = None
    rounds = []  # every round of every run, for judging the estimator
    try:
        for index in range(args.runs):
            side, seed = index % 2, args.seed + index // 2
            for name in names:
                result = bench.measure(WORKLOADS[name], contract, seed,
                                       seconds, scratch)
                if not all(result["checks"].values()):
                    print(f"run {index} {name}: verification failed: "
                          f"{result['checks']}", file=sys.stderr)
                    return 1
                environment = result["environment"]
                rounds.append({"run": index, "workload": name,
                               **result["round_values"]})
                for metric, value in result["metrics"].items():
                    values[name][metric][side].append(value)
                print(f"run {index + 1}/{args.runs} set {'AB'[side]} "
                      f"seed {seed} {name}: {result['wall_s']:.1f}s",
                      flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rows = [compare(name, metric, *values[name][metric["name"]])
            for name in names for metric in contract["end_to_end"]]
    print(f"{'workload':<17}{'metric':<19}{'median A':>13}{'median B':>13}"
          f"{'gap':>8}{'bound':>7}{'spread A':>10}{'spread B':>10}")
    for row in rows:
        spreads = "".join(f"{spread:>10.4f}" if spread is not None
                          else f"{'-':>10}"
                          for spread in (row["spread_a"], row["spread_b"]))
        print(f"{row['workload']:<17}{row['metric']:<19}"
              f"{row['median_a']:>13.6g}{row['median_b']:>13.6g}"
              f"{row['gap']:>8.4f}{row['bound']:>7.3f}{spreads}"
              + ("   <-- GAP" if row["gap_too_large"] else "")
              + ("   (wide)" if row["wide"] else ""))
    failed = [row for row in rows if row["gap_too_large"]]
    report = {"runs": args.runs, "first_seed": args.seed, "seconds": seconds,
              "wall_s": time.perf_counter() - started,
              "environment": environment, "passed": not failed, "rows": rows,
              "rounds": rounds}
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"{'PASS' if not failed else 'FAIL'}: {len(failed)} of {len(rows)} "
          f"gaps exceed half their bound, "
          f"{sum(row['wide'] for row in rows)} spreads are wider than their "
          f"bound; report in {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
