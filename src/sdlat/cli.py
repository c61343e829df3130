"""Command-line surface tying the analyses together.

Exit codes: 0 success, 1 a checked property is negative (not
semidistributive, not an EL-labeling, interval not nuclear, no certifying
order found), 2 input or usage error, 141 (128 + SIGPIPE) stdout closed
before the output was written, as in ``sdlat seq FILE --json | head -1``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

from . import __version__
from .canonical import canonical_join_complex, cjr, cmr
from .cores import (
    clo_down,
    clo_up,
    core_data,
    is_conuclear,
    is_nuclear,
    kappa_order,
)
from .errors import BadParameter, LatticeError, SchemaError
from .generators import generate
from .irreducibles import cover_labeling, irreducible_table, kappa_bar_cycles
from .jsonio import dumps_indented, emit_dot, emit_json, parse_json, to_document
from .sequences import enumerate_kd_exceptional, label_clo_up
from .shelling import LabeledPoset, find_el_order, is_el_labeling

_DERIVED = {"kappa": kappa_order, "cloUp": clo_up, "cloDown": clo_down}
EXIT_BROKEN_PIPE = 141
_CLO_ONLY = "labeling 'clo' applies only to the cloUp order"
_CHUNK = 4096  # items per write of a streamed listing


def _path(name: str) -> Path:
    if not name:  # Path("") is the current directory
        raise BadParameter("empty file name")
    return Path(name)


def _load(path: str):
    try:
        text = _path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8: {exc}") from None
    return parse_json(text)


def _load_lattice(path: str):
    obj = _load(path)
    return obj.poset if isinstance(obj, LabeledPoset) else obj


def _emit(args, human_lines, payload) -> None:
    if args.json:
        print(dumps_indented(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _print_derived_dot(lattice, which: str, labeling: str | None) -> int:
    """Print the derived order ``which`` as DOT, with the recursive clo-up labels if asked.

    Only the cloUp order takes a labeling, and only 'clo'.  The labeling
    is refused only once the order is built, so an error of the build,
    such as a lattice that is not semidistributive, is the one reported.
    """
    derived = _DERIVED[which](lattice)
    if labeling == "clo" and which != "cloUp":
        raise LatticeError(_CLO_ONLY)
    if labeling not in (None, "clo"):
        raise LatticeError("derived posets accept only the 'clo' labeling")
    labels = label_clo_up(lattice).labels if labeling else None
    print(emit_dot(derived, labels=labels, graph_name=which), end="")
    return 0


def _cmd_check(args) -> int:
    lattice = _load_lattice(args.file)
    witness = lattice.semidistributivity_witness()
    sd = witness is None
    lines = [
        f"lattice OK: {len(lattice)} elements, {len(lattice.covers)} covers",
        "semidistributive: yes" if sd else f"not semidistributive: witness {witness}",
    ]
    payload = {
        "elements": len(lattice),
        "covers": len(lattice.covers),
        "semidistributive": sd,
        "witness": list(witness) if witness else None,
    }
    _emit(args, lines, payload)
    return 0 if sd else 1


def _cmd_kappa(args) -> int:
    lattice = _load_lattice(args.file)
    table = irreducible_table(lattice)
    cycles = kappa_bar_cycles(lattice)
    lines = [
        "cji: " + ", ".join(table.cji),
        "cmi: " + ", ".join(table.cmi),
    ]
    lines += [f"kappa({j}) = {table.kappa[j]}   (j_* = {table.jstar[j]})" for j in table.cji]
    lines += [f"kappa_d({m}) = {table.kappa_d[m]}   (m^* = {table.mstar[m]})" for m in table.cmi]
    lines.append(f"kappa_bar cycles: {cycles}")
    payload = {
        "cji": list(table.cji),
        "cmi": list(table.cmi),
        "jstar": table.jstar,
        "mstar": table.mstar,
        "kappa": table.kappa,
        "kappaD": table.kappa_d,
        "kappaBarCycles": cycles,
    }
    _emit(args, lines, payload)
    return 0


def _cmd_cjr(args) -> int:
    lattice = _load_lattice(args.file)
    elements = [args.element] if args.element is not None else list(sorted(lattice.names))
    lines = []
    payload = {}
    for x in elements:
        join_rep = cjr(lattice, x).joinands
        meet_rep = cmr(lattice, x).joinands
        lines.append(f"CJR({x}) = {{{', '.join(join_rep)}}}")
        lines.append(f"CMR({x}) = {{{', '.join(meet_rep)}}}")
        payload[x] = {"cjr": list(join_rep), "cmr": list(meet_rep)}
    _emit(args, lines, payload)
    return 0


def _cmd_complex(args) -> int:
    lattice = _load_lattice(args.file)
    complex_ = canonical_join_complex(lattice)
    edges = sorted(tuple(sorted(e)) for e in complex_.edges)
    lines = ["vertices: " + ", ".join(complex_.vertices)]
    lines += [f"edge: {a} -- {b}" for a, b in edges]
    payload = {"vertices": list(complex_.vertices), "edges": [list(e) for e in edges]}
    _emit(args, lines, payload)
    return 0


def _cmd_cores(args) -> int:
    lattice = _load_lattice(args.file)
    elements = [args.element] if args.element is not None else list(sorted(lattice.names))
    lines = []
    payload = {}
    for x in elements:
        data = core_data(lattice, x)
        lines.append(
            f"{x}: pop_down={data.pop_down} pop_up={data.pop_up} "
            f"core_down=[{data.core_down.lo}, {data.core_down.hi}] "
            f"core_up=[{data.core_up.lo}, {data.core_up.hi}]"
        )
        lines.append(
            f"   lab_down={{{', '.join(data.lab_down)}}} "
            f"lab_up={{{', '.join(data.lab_up)}}} W={{{', '.join(data.w_set)}}}"
        )
        payload[x] = {
            "popDown": data.pop_down,
            "popUp": data.pop_up,
            "coreDown": [data.core_down.lo, data.core_down.hi],
            "coreUp": [data.core_up.lo, data.core_up.hi],
            "labDown": list(data.lab_down),
            "labUp": list(data.lab_up),
            "w": list(data.w_set),
        }
    _emit(args, lines, payload)
    return 0


def _cmd_orders(args) -> int:
    lattice = _load_lattice(args.file)
    if args.dot:
        return _print_derived_dot(lattice, args.which, "clo" if args.labels else None)
    derived = _DERIVED[args.which](lattice)
    if args.labels:
        raise LatticeError("--labels applies only with --dot")
    covers = derived.covers_named()
    lattice_flag = derived.is_lattice()
    lines = [f"{args.which} covers ({len(covers)}):"]
    lines += [f"  {lo} < {hi}" for lo, hi in covers]
    lines.append("forms a lattice: " + ("yes" if lattice_flag else "no"))
    payload = {
        "kind": args.which,
        "covers": [list(c) for c in covers],
        "isLattice": lattice_flag,
    }
    _emit(args, lines, payload)
    return 0


def _cmd_nuclear(args) -> int:
    lattice = _load_lattice(args.file)
    nuclear = is_nuclear(lattice, args.lo, args.hi)
    conuclear = is_conuclear(lattice, args.lo, args.hi)
    lines = [
        f"[{args.lo}, {args.hi}] nuclear: " + ("yes" if nuclear else "no"),
        f"[{args.lo}, {args.hi}] conuclear: " + ("yes" if conuclear else "no"),
    ]
    payload = {"lo": args.lo, "hi": args.hi, "nuclear": nuclear, "conuclear": conuclear}
    _emit(args, lines, payload)
    return 0 if nuclear and conuclear else 1


def _write_joined(head: str, items: Iterator[str], sep: str, tail: str) -> None:
    """Write head, the items joined by sep, and tail to stdout, a chunk of items at a time."""
    write = sys.stdout.write
    write(head)
    before = ""
    while chunk := list(itertools.islice(items, _CHUNK)):
        write(before + sep.join(chunk))
        before = sep
    write(tail)


def _cmd_seq(args) -> int:
    """List the sequences as they are formatted, never as one payload or one string.

    The JSON form is byte for byte ``dumps_indented`` of the payload
    {"count", "maximalOnly", "sequences": [{"entries", "rightExtendable"}]}
    with sorted keys; an entry list is never empty.  ``dumps_indented``
    writes each name as ``encode_basestring_ascii(name)``.  When that is
    the name in quotes for every element name (checked once per lattice),
    a sequence's raw names joined by '",' and the indent, inside one pair
    of quotes, are the bytes of its encoded names joined by ',' and the
    indent; otherwise each name is encoded once and the encoded names are
    joined.  Names are arguments of the item template, never part of it,
    so a '%' in a name is written as it is.
    """
    lattice = _load_lattice(args.file)
    seqs = enumerate_kd_exceptional(
        lattice, maximal_only=args.maximal, mark_right_extendable=args.maximal
    )
    if not args.json:
        extendable = {None: "", False: "", True: "   [extendable to the right]"}
        lines = ("(%s)%s\n" % (",".join(entries), extendable[flag]) for entries, flag in seqs)
        _write_joined("", lines, "", f"count: {len(seqs)}\n")
        return 0
    literal = {None: "null", False: "false", True: "true"}
    head = f'{{\n  "count": {len(seqs)},\n  "maximalOnly": {literal[args.maximal]},\n  "sequences": '
    if not seqs:
        sys.stdout.write(head + "[]\n}\n")
        return 0
    item = '{\n      "entries": [\n        %s\n      ],\n      "rightExtendable": %s\n    }'
    names = lattice.names
    if all(map(str.__eq__, map(encode_basestring_ascii, names), map('"{}"'.format, names))):
        join = '",\n        "'.join
        item = item.replace("%s", '"%s"', 1)
        items = (item % (join(entries), literal[flag]) for entries, flag in seqs)
    else:
        join = ",\n        ".join
        encoded = {x: encode_basestring_ascii(x) for x in names}.__getitem__
        items = (item % (join(map(encoded, entries)), literal[flag]) for entries, flag in seqs)
    _write_joined(head + "[\n    ", items, ",\n    ", "\n  ]\n}\n")
    return 0


def _cmd_el(args) -> int:
    obj = _load(args.file)
    if not isinstance(obj, LabeledPoset):
        raise LatticeError("el requires a document with a 'labels' field")
    if args.search:
        order = find_el_order(obj)
        found = order is not None
        lines = ["certifying order: " + (" < ".join(order) if found else "none found")]
        payload = {"order": list(order) if found else None}
        _emit(args, lines, payload)
        return 0 if found else 1
    # an empty --order is the empty order, not the one label ""
    order = tuple(args.order.split(",")) if args.order else ()
    report = is_el_labeling(obj, order)
    lines = ["EL-labeling: " + ("yes" if report.ok else "no")]
    payload = {"order": list(order), "el": report.ok, "witness": None}
    if not report.ok:
        w = report.witness
        lines.append(
            f"witness interval [{w.interval[0]}, {w.interval[1]}]: {w.kind}; "
            f"chains {w.chains} with words {w.words}"
        )
        payload["witness"] = {
            "interval": list(w.interval),
            "kind": w.kind,
            "chains": [list(c) for c in w.chains],
            "words": [list(c) for c in w.words],
        }
    _emit(args, lines, payload)
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    obj = generate(args.family, args.n)
    meta = {"family": args.family}
    if args.n is not None:
        meta["n"] = str(args.n)
    text = emit_json(to_document(obj, meta=meta))
    if args.output is not None:
        _path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_dot(args) -> int:
    obj = _load(args.file)
    lattice = obj.poset if isinstance(obj, LabeledPoset) else obj
    if args.derived:
        return _print_derived_dot(lattice, args.derived, args.labeling)
    labels = None
    if args.labeling == "j":
        labels = cover_labeling(lattice).jlabel
    elif args.labeling == "m":
        labels = cover_labeling(lattice).mlabel
    elif args.labeling == "custom":
        if not isinstance(obj, LabeledPoset):
            raise LatticeError("labeling 'custom' requires labels in the document")
        labels = obj.labels
    elif args.labeling == "clo":
        raise LatticeError(_CLO_ONLY)
    print(emit_dot(lattice, labels=labels), end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="sdlat", description="Analyze finite semidistributive lattices."
    )
    parser.add_argument("--version", action="version", version=f"sdlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("check", _cmd_check, help="validate a lattice file and test semidistributivity")
    p.add_argument("file")

    p = add("kappa", _cmd_kappa, help="irreducibles, kappa table, kappa_bar cycles")
    p.add_argument("file")

    p = add("cjr", _cmd_cjr, help="canonical join/meet representations")
    p.add_argument("file")
    p.add_argument("--element")

    p = add("complex", _cmd_complex, help="canonical join complex edges")
    p.add_argument("file")

    p = add("cores", _cmd_cores, help="pop operators, cores, and label sets")
    p.add_argument("file")
    p.add_argument("--element")

    p = add("orders", _cmd_orders, help="derived orders: kappa or core label orders")
    p.add_argument("file")
    p.add_argument("--which", required=True, choices=sorted(_DERIVED))
    p.add_argument("--dot", action="store_true")
    p.add_argument("--labels", action="store_true", help="with --dot on cloUp: recursive labels")

    p = add("nuclear", _cmd_nuclear, help="nuclear/conuclear test for an interval")
    p.add_argument("file")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)

    p = add("seq", _cmd_seq, help="kappa_d-exceptional sequences")
    p.add_argument("file")
    p.add_argument("--maximal", action="store_true")

    p = add("el", _cmd_el, help="EL-labeling check or certifying-order search")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", help="comma-separated labels, smallest first")
    group.add_argument("--search", action="store_true")

    p = add("gen", _cmd_gen, help="emit a built-in family as JSON")
    p.add_argument("family")
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("-o", "--output")

    p = add("dot", _cmd_dot, help="Graphviz export of the Hasse diagram")
    p.add_argument("file")
    p.add_argument("--labeling", choices=["j", "m", "custom", "clo"])
    p.add_argument("--derived", choices=sorted(_DERIVED))
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:  # a name that stdout's encoding cannot write
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    code = cli_main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # the reader is gone: the flush at interpreter exit must write nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)
