"""Inputs, passes and correctness gates of the sdlat benchmark workloads.

A workload has three parts:

* ``make_documents(seed, smoke)`` builds its input documents (JSON text)
  with ``sdlat.generators`` and ``sdlat.jsonio``; this is the set-up.
* ``run_pass(docs, workdir)`` runs one timed pass and returns one ``Item``
  per operation, holding its latency and its output.
* ``check(items, docs, golden, smoke)`` is the correctness gate.  It runs after
  the pass's clock has stopped and returns the labels of the failed items.
  ``golden_values(items)`` gives the expected values it compares with, and
  ``outputs(items)`` the plain data that later passes must reproduce.

The seed reorders the element and cover lists of every document; sdlat
indexes elements canonically, so every output stays the same.  The random
pool of ``el-search`` is drawn with the fixed POOL_SEED, so that all seeds
time the same lattices.  All calls go through module attributes so that
the tracing wrappers, when installed, see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import sdlat
import sdlat.cli
import speed

EL_SIZE_CAP = 9  # find_el_order's default alphabet cap; larger alphabets exit 2
EL_MIN_DOCUMENTS = 100
POOL_SEED = 1


@dataclass
class Item:
    """One operation of a pass: a library call, a CLI call or one document."""

    label: str
    seconds: float
    start: float
    output: object = None
    error: Optional[str] = None


def digest(value) -> str:
    """Short stable digest of a JSON-serialisable value or of a string."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _shuffled_document(obj, rng: random.Random, meta: dict) -> str:
    doc = sdlat.jsonio.to_document(obj, meta=meta)
    rng.shuffle(doc.elements)
    rng.shuffle(doc.covers)
    return sdlat.jsonio.emit_json(doc)


def _doc_name(family: str, n: Optional[int]) -> str:
    return f"{family}{'' if n is None else n}.json"


def _family_meta(family: str, n: Optional[int]) -> dict:
    return {"family": family} if n is None else {"family": family, "n": str(n)}


def _family_documents(families, seed: int) -> dict[str, str]:
    rng = random.Random(seed)
    docs = {}
    for family, n in families:
        with speed.step():
            docs[_doc_name(family, n)] = _shuffled_document(
                sdlat.generators.generate(family, n), rng, _family_meta(family, n)
            )
    return docs


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sdlat.cli.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _timed(items: list[Item], label: str, fn: Callable, *args):
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failing operation is counted, not fatal
        items.append(Item(label, time.perf_counter() - start, start, error=repr(exc)))
        return None
    items.append(Item(label, time.perf_counter() - start, start, result))
    return result


def _plain_outputs(items: list[Item]) -> list:
    return [[i.label, i.output, i.error] for i in items]


# -- kappa-tamari8 -------------------------------------------------------------


class KappaTamari:
    """One library session on the JSON document of tamari(n)."""

    name = "kappa-tamari8"

    @staticmethod
    def size(smoke: bool) -> int:
        return 4 if smoke else 8

    def make_documents(self, seed: int, smoke: bool) -> dict[str, str]:
        return _family_documents([("tamari", self.size(smoke))], seed)

    def run_pass(self, docs: dict[str, str], workdir: Path) -> list[Item]:
        """The session's calls in order; a per-element loop is one item."""
        (text,) = docs.values()
        items: list[Item] = []
        lattice = _timed(items, "parse_json", sdlat.jsonio.parse_json, text)
        if lattice is None:
            return items
        canonical, cores = sdlat.canonical, sdlat.cores
        _timed(items, "irreducible_table", sdlat.irreducibles.irreducible_table, lattice)
        _timed(items, "kappa_bar_cycles", sdlat.irreducibles.kappa_bar_cycles, lattice)
        _timed(items, "cjr+cmr", lambda: [(canonical.cjr(lattice, x), canonical.cmr(lattice, x)) for x in lattice.names])
        _timed(items, "core_data", lambda: [cores.core_data(lattice, x) for x in lattice.names])
        for which in ("kappa_order", "clo_up", "clo_down"):
            derived = _timed(items, which, getattr(cores, which), lattice)
            if derived is not None:
                _timed(items, f"{which}.is_lattice", derived.is_lattice)
        _timed(items, "orders_coincide_report", cores.orders_coincide_report, lattice)
        _timed(items, "canonical_join_complex", canonical.canonical_join_complex, lattice)
        return items

    @staticmethod
    def canonical_outputs(items: list[Item]) -> dict[str, object]:
        """Plain-data form of each item's output, keyed as in golden.json."""
        outputs: dict[str, object] = {}
        for item in items:
            out = item.output
            if item.label == "parse_json":
                value = {"elements": len(out), "covers": len(out.covers)}
            elif item.label == "irreducible_table":
                value = {
                    "cji": out.cji, "cmi": out.cmi, "jstar": out.jstar,
                    "mstar": out.mstar, "kappa": out.kappa, "kappaD": out.kappa_d,
                }
            elif item.label == "cjr+cmr":
                value = [[j.element, j.joinands, m.joinands] for j, m in out]
            elif item.label == "core_data":
                value = [
                    [
                        d.element, d.pop_down, d.pop_up,
                        [d.core_down.lo, d.core_down.hi], [d.core_up.lo, d.core_up.hi],
                        d.lab_down, d.lab_up, d.w_set,
                    ]
                    for d in out
                ]
            elif item.label in ("kappa_order", "clo_up", "clo_down"):
                value = [list(c) for c in out.covers_named()]
            elif item.label == "orders_coincide_report":
                value = [
                    out.kappa_equals_clo_down, out.kappa_equals_clo_up, out.clo_up_equals_clo_down,
                    out.witness_kappa_clo_down, out.witness_kappa_clo_up, out.witness_clo_up_clo_down,
                ]
            elif item.label == "canonical_join_complex":
                value = [out.vertices, sorted(sorted(e) for e in out.edges)]
            else:
                value = out
            outputs[item.label] = value
        return outputs

    def outputs(self, items: list[Item]):
        return self.canonical_outputs([i for i in items if i.error is None])

    def golden_values(self, items: list[Item]) -> dict:
        return {label: digest(value) for label, value in self.canonical_outputs(items).items()}

    def check(self, items: list[Item], docs, golden: dict, smoke: bool) -> list[str]:
        n = self.size(smoke)
        failed = [item.label for item in items if item.error is not None]
        ok = [item for item in items if item.error is None]
        outputs = self.canonical_outputs(ok)
        catalan = math.comb(2 * n, n) // (n + 1)
        closed_form = {
            "parse_json": outputs.get("parse_json") == {"elements": catalan, "covers": (n - 1) * catalan // 2},
            "irreducible_table": (
                "irreducible_table" in outputs
                and len(outputs["irreducible_table"]["cji"]) == n * (n - 1) // 2
                and len(outputs["irreducible_table"]["cmi"]) == n * (n - 1) // 2
            ),
        }
        bad = {label for label, good in closed_form.items() if not good}
        bad |= {label for label, expected in golden.items() if digest(outputs.get(label)) != expected}
        failed += [item.label for item in ok if item.label in bad]
        if len(items) != len(golden):
            failed.append("item count")
        return failed


# -- seq-cloup -----------------------------------------------------------------

SEQ_COMMANDS = (
    ("seq", "--maximal", "--json"),
    ("seq", "--json"),
    ("orders", "--which", "cloUp", "--dot", "--labels"),
)


class SeqCloup:
    """Three in-process CLI calls per document on small lattice families."""

    name = "seq-cloup"

    # Maximal kappa^d-exceptional sequences: n^(n-2) on tamari(n), n! on boolean(n).
    @staticmethod
    def families(smoke: bool):
        if smoke:
            return [("tamari", 4), ("boolean", 3)]
        return [("tamari", 6), ("tamari", 5), ("boolean", 5), ("boolean", 4), ("fig1", None), ("fig4", None)]

    @staticmethod
    def maximal_count(family: str, n: Optional[int]) -> int:
        if family == "tamari":
            return n ** (n - 2)
        if family == "boolean":
            return math.factorial(n)
        return {"fig1": 7, "fig4": 10}[family]

    def make_documents(self, seed: int, smoke: bool) -> dict[str, str]:
        return _family_documents(self.families(smoke), seed)

    def run_pass(self, docs: dict[str, str], workdir: Path) -> list[Item]:
        items: list[Item] = []
        for name in docs:
            path = str(workdir / name)
            for command in SEQ_COMMANDS:
                _timed(items, f"{' '.join(command)} {name}", _cli, [*command, path])
        return items

    outputs = staticmethod(_plain_outputs)

    @staticmethod
    def golden_values(items: list[Item]) -> dict:
        return {i.label: [i.output[0], digest(i.output[1])] for i in items}

    def check(self, items: list[Item], docs, golden: dict, smoke: bool) -> list[str]:
        failed = []
        counts = {_doc_name(f, n): self.maximal_count(f, n) for f, n in self.families(smoke)}
        for item in items:
            if item.error is not None:
                failed.append(item.label)
                continue
            code, stdout, _ = item.output
            good = golden.get(item.label) == [code, digest(stdout)]
            if item.label.startswith("seq --maximal"):
                name = item.label.rsplit(" ", 1)[1]
                good = good and json.loads(stdout)["count"] == counts[name]
            if not good:
                failed.append(item.label)
        if len(items) != len(docs) * len(SEQ_COMMANDS):
            failed.append("item count")
        return failed


# -- el-search -----------------------------------------------------------------


class ElSearch:
    """`el --search` on labeled documents, then `el --order` on each order found."""

    name = "el-search"

    @staticmethod
    def fixed(smoke: bool):
        if smoke:
            return [("boolean", 3)]
        return [
            ("fig1-labeled", None), ("fig4-labeled", None), ("preprojA2", None),
            ("boolean", 5), ("boolean", 6), ("tamari", 4), ("chain", 7),
        ]

    def make_documents(self, seed: int, smoke: bool) -> dict[str, str]:
        gen = sdlat.generators
        rng = random.Random(f"shuffle-{seed}")
        docs = {}
        for family, n in self.fixed(smoke):
            with speed.step():
                obj = gen.generate(family, n)
                if not isinstance(obj, sdlat.shelling.LabeledPoset):
                    obj = sdlat.shelling.lattice_j_labeling(obj)
                docs[_doc_name(family, n)] = _shuffled_document(obj, rng, _family_meta(family, n))
        pool_rng = random.Random(POOL_SEED)
        draws = 0
        while (draws < 3) if smoke else (len(docs) < EL_MIN_DOCUMENTS):
            with speed.step():
                lattice = gen.random_sd_lattice(rng=pool_rng, max_mid=8)
                meta = {"family": "random", "draw": str(draws)}
                docs[f"rand{draws:03d}-j.json"] = _shuffled_document(
                    sdlat.shelling.lattice_j_labeling(lattice), rng, meta
                )
                try:
                    clo = sdlat.sequences.label_clo_up(lattice).to_labeled_poset()
                except sdlat.errors.LatticeError:
                    pass  # the recursive labeling does not apply to this lattice
                else:
                    docs[f"rand{draws:03d}-clo.json"] = _shuffled_document(clo, rng, meta)
            draws += 1
        return docs

    def run_pass(self, docs: dict[str, str], workdir: Path) -> list[Item]:
        items: list[Item] = []
        for name in docs:
            _timed(items, name, self._one, str(workdir / name))
        return items

    @staticmethod
    def _one(path: str):
        search = _cli(["el", "--search", "--json", path])
        verify = None
        if search[0] == 0:
            order = json.loads(search[1])["order"]
            verify = _cli(["el", "--order", ",".join(order), "--json", path])
        return search, verify

    outputs = staticmethod(_plain_outputs)

    @staticmethod
    def golden_values(items: list[Item]) -> dict:
        return {i.label: i.output[0][0] for i in items}

    def check(self, items: list[Item], docs: dict[str, str], golden: dict, smoke: bool) -> list[str]:
        failed = []
        for item in items:
            if item.error is not None or not self._good(item, docs[item.label], golden.get(item.label)):
                failed.append(item.label)
        if len(items) != len(docs) or len(items) != len(golden):
            failed.append("item count")
        return failed

    @staticmethod
    def _good(item: Item, text: str, expected_code: Optional[int]) -> bool:
        """Search exit code as recorded, and the answer checked independently."""
        (code, stdout, _), verify = item.output
        if code != expected_code:
            return False
        doc = json.loads(text)
        alphabet = sorted(set(doc["labels"].values()))
        poset = sdlat.core.Poset.from_covers(doc["elements"], [tuple(c) for c in doc["covers"]])
        if not poset.is_lattice_poset() or len(alphabet) > EL_SIZE_CAP:
            return code == 2 and verify is None
        if code == 0:
            order = json.loads(stdout)["order"]
            return (
                verify is not None
                and verify[0] == 0
                and json.loads(verify[1])["el"] is True
                and bool(sdlat.shelling.is_el_labeling(sdlat.jsonio.parse_json(text), order))
                and el_order_ok(doc, order)
            )
        return (
            code == 1
            and json.loads(stdout) == {"order": None}
            and not any(el_order_ok(doc, perm) for perm in itertools.permutations(alphabet))
        )


def el_order_ok(doc: dict, order) -> bool:
    """Independent EL check of a labeled document under a total label order.

    Same conventions as sdlat.shelling: a maximal chain is increasing when
    the label ranks strictly decrease from bottom to top, and chains are
    compared lexicographically from the top cover down.  Every interval
    needs exactly one increasing chain, and it must be the least.
    """
    rank = {label: k for k, label in enumerate(order)}
    up: dict[str, list[str]] = {e: [] for e in doc["elements"]}
    for lo, hi in doc["covers"]:
        up[lo].append(hi)
    label = {tuple(key.split("->")): value for key, value in doc["labels"].items()}

    def chains_from(lo: str) -> dict[str, list[tuple[int, ...]]]:
        # maximal chains from lo to every element above it, as rank words
        words: dict[str, list[tuple[int, ...]]] = {lo: [()]}
        for node in _linear_extension_above(lo, up):
            for nxt in up[node]:
                step = rank[label[(node, nxt)]]
                words.setdefault(nxt, []).extend(w + (step,) for w in words[node])
        return words

    for lo in doc["elements"]:
        for hi, words in chains_from(lo).items():
            if hi == lo:
                continue
            increasing = [w for w in words if all(a > b for a, b in zip(w, w[1:]))]
            if len(increasing) != 1:
                return False
            if min(w[::-1] for w in words) < increasing[0][::-1]:
                return False
    return True


def _linear_extension_above(lo: str, up: dict[str, list[str]]) -> list[str]:
    seen, order = set(), []

    def visit(node):
        seen.add(node)
        for nxt in up[node]:
            if nxt not in seen:
                visit(nxt)
        order.append(node)

    visit(lo)
    return order[::-1]


WORKLOADS = {w.name: w for w in (KappaTamari(), SeqCloup(), ElSearch())}
