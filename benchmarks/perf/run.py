#!/usr/bin/env python3
"""The repo's benchmark: offline -> online workloads, priced end to end.

    python3 benchmarks/perf/run.py                      # every workload
    python3 benchmarks/perf/run.py --workload serve_original --seed 7
    python3 benchmarks/perf/run.py --workload stream_mixed --trace 1
    python3 benchmarks/perf/run.py --trace              # end-to-end + layers
    python3 benchmarks/perf/run.py --record             # append history.jsonl

Every timed phase runs in a fresh subprocess with BLAS pinned to one
thread (``harness/child.py``); this process only spawns, aggregates and
prints, and never imports numpy.  The last line of standard output is
one JSON object; the exit code is non-zero when a verification failed.
``README.md`` in this directory explains the protocol and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from functools import lru_cache
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent.parent
SRC = ROOT / "src"
OUT = PERF / "out"
HISTORY = PERF / "history.jsonl"
sys.path.insert(0, str(PERF))

from harness.stats import median, quietest, spread  # noqa: E402
from harness.workloads import (  # noqa: E402
    ONLINE_PROCESSES,
    PINNED_ENV,
    WORKLOADS,
    Workload,
)

#: A child that outlives this is killed with its whole process group.
CHILD_TIMEOUT_S = 150.0
#: End-to-end metrics taken per round and pooled over all processes.
ROUND_METRICS = ("latency_p50_ms", "latency_p95_ms", "throughput_rps")


class BenchError(RuntimeError):
    """A phase could not run, or broke the benchmark's own rules."""


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# subprocesses
# ----------------------------------------------------------------------
def run_child(phase: str, spec: Workload, artifact: Path, *extra: str) -> dict:
    """Run one phase in a fresh pinned process; its JSON result."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PERF), str(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep))
    command = [sys.executable, "-m", "harness.child", phase,
               "--workload", spec.name, "--artifact", str(artifact), *extra]
    # its own session, so a timeout also reaches the replica a traced
    # child forks
    process = subprocess.Popen(command, env=env, cwd=PERF, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{spec.name}/{phase} exceeded {CHILD_TIMEOUT_S:g} s")
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    if process.returncode != 0:
        raise BenchError(f"{spec.name}/{phase} exited {process.returncode}:\n"
                         f"{stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def summarize(spec: Workload, contract: dict, offline: dict,
              onlines: list[dict]) -> dict:
    """End-to-end metrics of one workload from its child results.

    Per-round timings are pooled over every process and reduced to the
    quietest round; per-process quantities take the median.
    """
    better = {metric["name"]: metric["better"]
              for metric in contract["end_to_end"]}
    rounds = [entry for online in onlines for entry in online["rounds"]]
    attempted = sum(online["attempted"] for online in onlines)
    errors = sum(online["errors"] for online in onlines)
    late = sum(online["late"] for online in onlines)
    metrics = {name: quietest([entry[name] for entry in rounds],
                              better[name])
               for name in ROUND_METRICS}
    noise = {name: spread([entry[name] for entry in rounds])
             for name in ROUND_METRICS}
    for name in ("setup_s", "memory_mb"):
        values = [online[name] for online in onlines]
        metrics[name] = median(values)
        noise[name] = spread(values)
    for name in ("offline_s", "artifact_bytes", "offline_memory_mb"):
        metrics[name] = offline[name]
    metrics["ok_share"] = (attempted - errors - late) / attempted
    metrics["accuracy"] = onlines[0]["accuracy"]

    checks = {"accuracy_measured": onlines[0]["accuracy"] is not None,
              "no_failed_operations": errors == 0,
              "enough_rounds": len(rounds) >= 2 * ONLINE_PROCESSES}
    for online in onlines:
        for name, passed in online["checks"].items():
            checks[name] = checks.get(name, True) and bool(passed)
    first_error = next((online["first_error"] for online in onlines
                        if online["first_error"]), None)
    return {
        "metrics": metrics, "noise": noise, "checks": checks,
        "attempted": attempted, "failed": errors, "late": late,
        "first_error": first_error,
        "rounds": len(rounds),
        "round_values": {name: [entry[name] for entry in rounds]
                         for name in ROUND_METRICS},
        "samples_per_round": min(entry["samples"] for entry in rounds),
    }


def measure(spec: Workload, contract: dict, seed: int, seconds: float,
            scratch: Path) -> dict:
    """One offline process, then three online ones; tracing off."""
    artifact = scratch / f"{spec.name}.npz"
    started = time.perf_counter()
    offline = run_child("offline", spec, artifact)
    onlines = []
    for index in range(ONLINE_PROCESSES):
        extra = ["--seed", str(seed), "--seconds", str(seconds)]
        if index == 0:
            extra.append("--check")  # verification and accuracy, once
        onlines.append(run_child("online", spec, artifact, *extra))
    summary = summarize(spec, contract, offline, onlines)
    summary["wall_s"] = time.perf_counter() - started
    summary["environment"] = environment(onlines[0])
    return summary


def measure_layers(spec: Workload, seed: int, scratch: Path) -> dict:
    """One offline process, then the traced online one."""
    artifact = scratch / f"{spec.name}.npz"
    started = time.perf_counter()
    offline = run_child("offline", spec, artifact)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace_{spec.name}.json"
    traced = run_child("traced", spec, artifact, "--seed", str(seed),
                       "--trace-path", str(trace_path))
    layers = dict(offline["layers"], **traced["layers"])
    return {"metrics": layers, "attempted": traced["attempted"],
            "failed": traced["errors"], "spans": traced["spans"],
            "trace": str(trace_path.relative_to(ROOT)),
            "checks": {"no_failed_operations": traced["errors"] == 0},
            "wall_s": time.perf_counter() - started,
            "environment": environment(traced)}


@lru_cache(maxsize=None)
def git_sha() -> str:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return sha or "unknown"


def environment(child: dict) -> dict:
    """Where the numbers came from, as far as this process can tell."""
    return {"git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "pinned_env": child["pinned_env"],
            **child["versions"]}


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def with_units(values: dict, declared: list[dict], where: str) -> dict:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    names = [metric["name"] for metric in declared]
    if set(values) != set(names):
        raise BenchError(
            f"{where}: measured {sorted(set(values) - set(names))} undeclared "
            f"and missed {sorted(set(names) - set(values))} declared metrics")
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]} for metric in declared}


def print_result(name: str, seed: int, result: dict, metrics: dict) -> None:
    env = result["environment"]
    print(f"== {name}  seed={seed}  sha={env['git_sha']}  nproc={env['nproc']}"
          f"  python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    print(f"   env={env['pinned_env']}\n   wall={result['wall_s']:.1f}s  "
          f"attempted={result['attempted']} failed={result['failed']}"
          + (f" late={result['late']} rounds={result['rounds']} "
             f"samples/round>={result['samples_per_round']}"
             if "rounds" in result else
             f" spans={result['spans']} trace={result['trace']}"))
    for metric, entry in metrics.items():
        line = f"   {metric:<34} {entry['value']:>16.6g} {entry['unit']}"
        if metric in result.get("noise", {}):
            line += f"   noise.{metric}={result['noise'][metric]:.4f}"
        print(line)
    for check, passed in sorted(result["checks"].items()):
        print(f"   check {check:<28} {'ok' if passed else 'FAILED'}")
    if result.get("first_error"):
        print(f"   first error: {result['first_error']}")


def run_workload(spec: Workload, contract: dict, seed: int, seconds: float,
                 trace: str, scratch: Path) -> dict:
    """Measure, print and return ``{correct, attempted, failed, metrics}``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    parts = []
    if trace != "1":
        result = measure(spec, contract, seed, seconds, scratch)
        parts.append((result, with_units(
            result["metrics"], contract["end_to_end"], spec.name)))
    if trace != "0":
        result = measure_layers(spec, seed, scratch)
        parts.append((result, with_units(
            result["metrics"], contract["per_layer"], spec.name)))
    for result, metrics in parts:
        print_result(spec.name, seed, result, metrics)
        merged["correct"] &= all(result["checks"].values())
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(metrics)
    merged["environment"] = parts[0][0]["environment"]
    return merged


def record(seed: int, results: dict, contract: dict) -> None:
    """Append this run's end-to-end values to ``history.jsonl``."""
    names = [metric["name"] for metric in contract["end_to_end"]]
    first = next(iter(results.values()))
    line = {"recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seed": seed, **first["environment"],
            "workloads": {workload: {name: result["metrics"][name]["value"]
                                     for name in names}
                          for workload, result in results.items()}}
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generates the traffic: request order, deltas")
    parser.add_argument("--seconds", type=float, default=None,
                        help="online measuring budget, shared by the three "
                             "processes (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "from a traced run; bare --trace: both")
    parser.add_argument("--record", action="store_true",
                        help="append the end-to-end values to history.jsonl")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], contract, args.seed,
                                         seconds, args.trace, scratch)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.record and args.trace != "1":
        record(args.seed, results, contract)
    for result in results.values():
        del result["environment"]
    if args.workload:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "workloads": results}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
