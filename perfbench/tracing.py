"""Spans and counters recorded by wrappers around sdlat's public entry points.

The benchmark installs the wrappers only for its traced passes and removes
them afterwards, so untraced passes run sdlat's own functions.  A wrapper
replaces a function wherever sdlat holds a reference to it: in its own
module, in every sdlat module that imported it by name, in module-level
dicts such as the CLI's subcommand table, and on the class for methods.

Each call records one span (name, start, end, parent) in memory.  A span's
self time is its duration minus the durations of its child spans; calls are
synchronous, so children never overlap.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

import sdlat
import sdlat.cli

# metric name -> the entry points whose span self times it sums
LAYERS = {
    "jsonio.parse_s": [("jsonio", "parse_document")],
    "core.build_s": [("core.Lattice", "build_from_covers")],
    "core.sd_check_s": [("core.Lattice", "semidistributivity_witness")],
    "irreducibles.table_s": [("irreducibles", "irreducible_table")],
    "irreducibles.cover_labels_s": [("irreducibles", "cover_labeling")],
    "irreducibles.kappa_bar_s": [("irreducibles", "kappa_bar_map"), ("irreducibles", "kappa_bar_cycles")],
    "cores.core_data_s": [("cores", "lab_down_map"), ("cores", "lab_up_map"), ("cores", "core_data")],
    "cores.derived_orders_s": [("cores", "kappa_order"), ("cores", "clo_up"), ("cores", "clo_down")],
    "cores.is_lattice_s": [("cores.DerivedPoset", "is_lattice")],
    "canonical.reps_s": [("canonical", "cjr"), ("canonical", "cmr"), ("canonical", "canonical_join_complex")],
    "sequences.enumerate_s": [("sequences", "enumerate_kd_exceptional")],
    "sequences.kd_check_s": [("sequences", "is_kd_exceptional")],
    "sequences.label_clo_up_s": [("sequences", "label_clo_up")],
    "shelling.search_s": [("shelling", "find_el_order")],
    "shelling.verify_s": [("shelling", "is_el_labeling")],
    "cli.self_s": [("cli", "cli_main")],
    "generators.gen_s": [("generators", "generate"), ("generators", "random_sd_lattice")],
}


def _resolve(path: str):
    obj = sdlat
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._built: set = set()

    # -- recording ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, after=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _lattice_init(self, fn: Callable) -> Callable:
        def wrapper(lattice, names, down, covers):
            # one key per top-level call, so rebuilding the same lattice in a
            # later, independent CLI call does not count as wasted work
            self.counts["core.lattices_built"] += 1
            self._built.add((self._stack[0] if self._stack else -1, frozenset(names)))
            fn(lattice, names, down, covers)

        return wrapper

    def _after(self, name: str):
        counts = self.counts
        if name == "irreducible_table":
            return lambda a, k, r: counts.update(["irreducibles.table_calls"])
        if name == "is_kd_exceptional":
            return lambda a, k, r: counts.update(["sequences.kd_checks"])
        if name == "is_el_labeling":
            return lambda a, k, r: counts.update(["shelling.orders_verified"])
        if name == "find_el_order":
            return lambda a, k, r: counts.update(["shelling.orders_found"] if r else [])
        if name == "enumerate_kd_exceptional":

            def listed(args, kwargs, result):
                if kwargs.get("maximal_only", args[1] if len(args) > 1 else False):
                    counts["sequences.maximal_count"] += len(result)

            return listed
        return None

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper, and restore sdlat's functions on exit."""
        replaced: dict[int, Callable] = {}
        undo: list[Callable] = []
        # Lattice.__init__ is wrapped for counting only; it records no span.
        owners = [("core.Lattice", "__init__")] + [t for targets in LAYERS.values() for t in targets]
        for owner_path, attr in owners:
            owner = _resolve(owner_path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(f"{owner_path}.{attr}", raw.__func__))
            elif attr == "__init__":
                wrapped = self._lattice_init(raw)
            else:
                wrapped = self._span(f"{owner_path}.{attr}", raw, self._after(attr))
                replaced[id(raw)] = wrapped
            setattr(owner, attr, wrapped)
            undo.append(lambda o=owner, a=attr, r=raw: setattr(o, a, r))
        # names other sdlat modules imported, and dicts of functions
        for name, module in list(sys.modules.items()):
            if name != "sdlat" and not name.startswith("sdlat."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and callable(value):
                    setattr(module, attr, replaced[id(value)])
                    undo.append(lambda m=module, a=attr, v=value: setattr(m, a, v))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced and callable(item):
                            value[key] = replaced[id(item)]
                            undo.append(lambda d=value, k=key, v=item: d.__setitem__(k, v))
        try:
            yield self
        finally:
            for step in reversed(undo):
                step()

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def inclusive(self, *names: str) -> float:
        """Total duration, children included, of the spans with these names."""
        return sum(end - start for name, start, end, _ in self.spans if name in names)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, counts and ratios of everything recorded."""
        by_span = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            by_span[name] += own
        out = {
            layer: sum(by_span[f"{owner}.{attr}"] for owner, attr in targets)
            for layer, targets in LAYERS.items()
        }
        out["sequences.right_ext_s"] = self.inclusive("sequences.is_kd_exceptional")
        counts = self.counts
        for key in ("core.lattices_built", "irreducibles.table_calls", "sequences.maximal_count",
                    "sequences.kd_checks", "shelling.orders_verified", "shelling.orders_found"):
            out[key] = counts[key]
        built = counts["core.lattices_built"]
        out["core.distinct_ratio"] = len(self._built) / built if built else 0.0
        verified = counts["shelling.orders_verified"]
        out["shelling.found_ratio"] = counts["shelling.orders_found"] / verified if verified else 0.0
        out["trace.spans"] = len(self.spans)
        return out
