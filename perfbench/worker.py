"""One fresh benchmark process: a set-up, the passes of a run, or a golden record.

    worker.py setup WORKLOAD SEED WORKDIR [--smoke]
    worker.py pass WORKLOAD SEED WORKDIR SECONDS TRACE [REFERENCE] [--smoke]
    worker.py record WORKLOAD SEED [--smoke]

``setup`` times importing sdlat plus generating and emitting the documents,
and writes them to WORKDIR if they are not there yet.  ``pass`` reads them
back and runs passes for SECONDS, at least one; with TRACE=1 it alternates
untraced and traced passes.  REFERENCE is the output digest of a pass that
an earlier pass process checked in full.  Both print one JSON object on
stdout.  ``record`` runs one
pass and stores its outputs as the expected ones in golden.json; run it only
when a change of sdlat's output is intended.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def _import_sdlat() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import sdlat  # noqa: F401
    import sdlat.cli  # noqa: F401


def _setup(name: str, seed: int, workdir: Path, smoke: bool) -> dict:
    import speed  # builds the probe's data, outside the timed steps

    speed.SPEED.start()
    with speed.step():
        _import_sdlat()
        import workloads
    docs = workloads.WORKLOADS[name].make_documents(seed, smoke)
    speed.SPEED.stop()
    manifest = workdir / "manifest.json"
    if not manifest.exists():
        for doc_name, text in docs.items():
            (workdir / doc_name).write_text(text, encoding="utf-8")
        manifest.write_text(json.dumps(list(docs)), encoding="utf-8")
    return {
        # the import and each generated document are steps; the probes
        # between them are not counted
        "setup_s": speed.SPEED.steady_steps(),
        "setup_raw_s": speed.SPEED.own_steps(),
        "documents": len(docs),
        "digest": workloads.digest(docs),
    }


class _Gate:
    """Checks each pass: fully until one passes, then by output digest.

    A ``reference`` digest from an earlier pass process stands for a pass
    that was checked in full.
    """

    def __init__(self, workload, docs: dict, golden: dict, smoke: bool, reference: Optional[str]):
        self.workload, self.docs, self.golden, self.smoke = workload, docs, golden, smoke
        self.reference = reference
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, items) -> None:
        import workloads

        self.attempted += len(items)
        digest = workloads.digest(self.workload.outputs(items))
        if digest == self.reference:
            self.failed += [i.label for i in items if i.error is not None]
            return
        failed = self.workload.check(items, self.docs, self.golden, self.smoke)
        if not failed and self.reference is None:
            self.reference = digest
        self.failed += failed


def _passes(
    name: str, seed: int, workdir: Path, seconds: float, trace: bool, smoke: bool, reference: Optional[str]
) -> dict:
    _import_sdlat()
    import speed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    order = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    docs = {doc: (workdir / doc).read_text(encoding="utf-8") for doc in order}
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(name, {}).get("smoke" if smoke else "full", {})
    gate = _Gate(workload, docs, golden, smoke, reference)

    def timed_pass():
        gc.collect()  # every pass starts from the same collector state
        start = time.perf_counter()
        items = workload.run_pass(docs, workdir)
        return time.perf_counter() - start, items

    speed.SPEED.start()
    walls, timed, traced, layers = [], [], [], []
    if trace:
        setup_tracer = tracing.Tracer()
        with setup_tracer.installed():
            regenerated = workload.make_documents(seed, smoke)
        if regenerated != docs:
            gate.failed.append("set-up is not deterministic")
        # The first pass fills lazy imports and grows the heap, which would
        # count against the untraced side of the overhead; it is checked only.
        gate(timed_pass()[1])
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, items = timed_pass()
        gate(items)
        walls.append(wall)
        timed.append([(i.start, i.seconds) for i in items])
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                wall, items = timed_pass()
            gate(items)
            traced.append([(i.start, i.seconds) for i in items])
            if sum(tracer.self_times()) > wall:
                gate.failed.append("span self times exceed the pass wall time")
            layers.append(tracer.layer_metrics())
    speed.SPEED.stop()
    result = {
        "passes": len(walls),
        "items_per_pass": len(items),
        "pass_walls": walls,
        # each item's median time over the timed passes at the reference
        # speed (speed.py), and unscaled
        "item_s": [statistics.median(speed.SPEED.steady(*step) for step in steps) for steps in zip(*timed)],
        "item_own_s": [statistics.median(speed.SPEED.own(*step) for step in steps) for steps in zip(*timed)],
        "attempted": gate.attempted,
        "failed": min(len(gate.failed), gate.attempted),
        "failures": gate.failed[:10],
        "reference": gate.reference,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        per_layer = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        # generators run only in the set-up, which is traced once
        per_layer["generators.gen_s"] = setup_tracer.inclusive(
            "generators.generate", "generators.random_sd_lattice"
        )
        # pass times at the reference speed, so that a slow phase during one
        # side of the comparison does not read as tracing overhead
        traced_s = statistics.median(sum(speed.SPEED.steady(*step) for step in steps) for steps in traced)
        untraced_s = statistics.median(sum(speed.SPEED.steady(*step) for step in steps) for steps in timed)
        per_layer["trace.pass_s"] = traced_s
        per_layer["trace.overhead_s"] = traced_s - untraced_s
        result["per_layer"] = per_layer
    return result


def _record(name: str, seed: int, smoke: bool) -> dict:
    import tempfile

    _import_sdlat()
    import workloads

    workload = workloads.WORKLOADS[name]
    docs = workload.make_documents(seed, smoke)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        workdir = Path(tmp)
        for doc_name, text in docs.items():
            (workdir / doc_name).write_text(text, encoding="utf-8")
        items = workload.run_pass(docs, workdir)
    values = workload.golden_values(items)
    # the closed forms and the independent checks must hold before recording
    failed = workload.check(items, docs, values, smoke)
    if failed:
        raise SystemExit(f"not recording: failed checks {failed[:5]}")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden.setdefault(name, {})["smoke" if smoke else "full"] = values
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return {"recorded": name, "entries": len(golden[name]["smoke" if smoke else "full"])}


def main(argv: list[str]) -> None:
    smoke = "--smoke" in argv
    args = [a for a in argv if a != "--smoke"]
    mode, name, seed = args[0], args[1], int(args[2])
    if mode == "setup":
        out = _setup(name, seed, Path(args[3]), smoke)
    elif mode == "pass":
        reference = args[6] if len(args) > 6 and args[6] != "-" else None
        out = _passes(name, seed, Path(args[3]), float(args[4]), args[5] == "1", smoke, reference)
    elif mode == "record":
        out = _record(name, seed, smoke)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
