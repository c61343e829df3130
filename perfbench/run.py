"""sdlat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The run starts fresh worker processes one at
a time: SETUP_RUNS set-ups (import sdlat, generate and emit the documents),
then PASS_RUNS pass processes that each run timed passes over the documents
for S / PASS_RUNS seconds (at least one pass) and check every pass's
outputs.  With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics of the traced passes of one pass process that runs
for S seconds.  The last
line of stdout is one JSON object; the exit code is 0 only when every
output was correct.  --smoke swaps in tiny inputs for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
# A process can run all its passes up to a third slower than the next one,
# started seconds later.  An item's time is its least over the pass
# processes of its median over the process's passes; a fixed number of
# processes keeps that independent of how many passes fit in S seconds.
PASS_RUNS = 3
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(args: list[str], deadline: float) -> dict:
    # a fixed hash seed keeps dict and set layouts, and so timings, alike across runs
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True, text=True, env=env, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Return (context, result) for one run; raises BenchError."""
    if not (ROOT / "src" / "sdlat" / "__init__.py").is_file():
        raise BenchError(f"no sdlat sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    context = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "trace": int(trace),
        "smoke": smoke,
    }
    flags = ["--smoke"] if smoke else []
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [
            _worker(["setup", workload, str(seed), str(workdir), *flags], deadline)
            for _ in range(SETUP_RUNS if not trace else 1)
        ]
        runs, reference = [], "-"
        for _ in range(1 if trace else PASS_RUNS):
            share = seconds if trace else seconds / PASS_RUNS
            runs.append(_worker(
                ["pass", workload, str(seed), str(workdir), str(share), str(int(trace)), reference, *flags], deadline
            ))
            reference = runs[-1]["reference"] or "-"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    passes = _combined(runs)
    if len({s["digest"] for s in setups}) != 1:
        passes["failed"] += 1
        passes["failures"].append("set-ups generated different documents")
    context["setup_s"] = [s["setup_s"] for s in setups]
    context["setup_raw_s"] = [s["setup_raw_s"] for s in setups]
    context["documents"] = setups[0]["documents"]
    return context, passes


def _combined(runs: list[dict]) -> dict:
    """One result from the results of the run's pass processes."""
    combined = dict(runs[0])
    for key in ("passes", "attempted", "failed"):
        combined[key] = sum(r[key] for r in runs)
    for key in ("pass_walls", "failures"):
        combined[key] = [x for r in runs for x in r[key]]
    for key in ("item_s", "item_own_s"):
        combined[key] = [min(times) for times in zip(*(r[key] for r in runs))]
    combined["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    return combined


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metrics(trace: bool, context: dict, result: dict) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json names for this kind of run, with their units."""
    spec = _spec()
    if trace:
        measured = result["per_layer"]
    else:
        items = result["item_s"]
        measured = {
            "wall_s": sum(items),
            "setup_s": statistics.median(context["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "item_p50_ms": 1000 * _percentile(items, 50),
            "item_p90_ms": 1000 * _percentile(items, 90),
        }
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: (measured[m["name"]], m["unit"]) for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in _spec()["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and waits for the running
    # worker, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        context, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        values = metrics(bool(args.trace), context, result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted, failed = result["attempted"], result["failed"]
    print("# context " + json.dumps(context))
    print(f"# passes {result['passes']}, items per pass {result['items_per_pass']}")
    print("# pass walls (s) " + " ".join(f"{w:.4f}" for w in result["pass_walls"]))
    print(f"# unscaled wall_s {sum(result['item_own_s']):.6g} s; setup_s {statistics.median(context['setup_raw_s']):.6g} s")
    print(f"# failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in values.items():
        print(f"# {name} {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
