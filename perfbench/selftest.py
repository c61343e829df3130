"""Self-test of the benchmark on tiny inputs; it finishes in seconds.

    python3 perfbench/selftest.py

Smoke inputs are tamari(4), boolean(3) and three random lattices.  The test
checks that

* every metric BENCHMARK.json names is printed, with its unit, for each
  workload, traced and untraced;
* a corrupted expected digest is reported as a failure;
* the span self times of a traced pass sum to no more than its wall time,
  and removing the wrappers restores sdlat's own functions;
* a step's time is scaled to the reference speed, without the probes that
  ran inside it;
* in a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _scratch() -> tempfile.TemporaryDirectory:
    return tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest-")


class SelfTestFailure(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def metrics_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{workload}: {result}")
            expect(set(result["metrics"]) == {m["name"] for m in spec[kind]}, f"{workload}: metric names differ")
            for metric in spec[kind]:
                name, unit = metric["name"], metric["unit"]
                expect(result["metrics"][name]["unit"] == unit, f"{workload}: {name} has the wrong unit")
                expect(
                    any(line.startswith(f"# {name} ") and line.endswith(f" {unit}") for line in proc.stdout.splitlines()),
                    f"{workload}: {name} is not printed with its unit",
                )


def _corrupted(value):
    if isinstance(value, int):  # an el-search exit code
        return (value + 1) % 3
    if isinstance(value, list):
        return [value[0], value[1][::-1]]
    return value[::-1]


def gate_and_trace() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import sdlat.cli
    import tracing
    import workloads

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    for name, workload in workloads.WORKLOADS.items():
        docs = workload.make_documents(1, smoke=True)
        expected = golden[name]["smoke"]
        with _scratch() as tmp:
            workdir = Path(tmp)
            for doc_name, text in docs.items():
                (workdir / doc_name).write_text(text, encoding="utf-8")
            items = workload.run_pass(docs, workdir)
            expect(workload.check(items, docs, expected, True) == [], f"{name}: smoke pass fails its gate")
            for key in expected:
                corrupted = dict(expected, **{key: _corrupted(expected[key])})
                expect(workload.check(items, docs, corrupted, True), f"{name}: corrupted digest of {key} passed")

            tracer = tracing.Tracer()
            with tracer.installed():
                start = time.perf_counter()
                workload.run_pass(docs, workdir)
                wall = time.perf_counter() - start
        own = tracer.self_times()
        expect(tracer.spans, f"{name}: the traced pass recorded no spans")
        expect(min(own) >= 0, f"{name}: a span has negative self time")
        expect(sum(own) <= wall, f"{name}: span self times {sum(own)} exceed the pass wall time {wall}")
    expect(not hasattr(sdlat.cli._DERIVED["cloUp"], "__wrapped__"), "wrappers were left installed")
    expect(not hasattr(sdlat.core.Lattice.build_from_covers, "__wrapped__"), "wrappers were left installed")


def speed_scaling() -> None:
    import speed

    probe = speed.Speed()
    # probes of twice the reference time every 0.1 s, one inside the step
    for k in range(20):
        probe.times.append(k * 0.1)
        probe.durations.append(2 * speed.REFERENCE_S)
    own = 0.1 - 2 * speed.REFERENCE_S
    expect(abs(probe.own(0.95, 0.1) - own) < 1e-12, "a probe inside a step is not taken out of its time")
    expect(abs(probe.steady(0.95, 0.1) - own / 2) < 1e-12, "a step at half the reference speed is not halved")


def fails_without_sources() -> None:
    with _scratch() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "seq-cloup", 0)
    expect(proc.returncode != 0, "the benchmark succeeded without the sdlat sources")
    expect(proc.stdout.strip() == "", "the benchmark printed a result without the sdlat sources")


def main() -> int:
    try:
        for test in (metrics_printed, gate_and_trace, speed_scaling, fails_without_sources):
            start = time.perf_counter()
            test()
            print(f"ok {test.__name__} ({time.perf_counter() - start:.1f} s)")
    except SelfTestFailure as exc:
        print(f"FAILED: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
