"""JSON interchange format for (labeled) lattices and deterministic DOT export.

Document layout (schemaVersion "1"):

    {
      "schemaVersion": "1",
      "elements": ["bot", "a", "top"],
      "covers": [["bot", "a"], ["a", "top"]],
      "labels": {"bot->a": "a"},          # optional
      "meta": {"family": "chain"}          # optional
    }

Covers are stored lower-first; DOT arrows are drawn upper -> lower to match
the Hasse-quiver drawing convention, so the two directions deliberately
differ and are documented here to prevent sign confusion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional, Union

from .core import Lattice, Poset
from .errors import SchemaError
from .shelling import LabeledPoset

SCHEMA_VERSION = "1"
_ARROW = "->"


@dataclass
class LatticeDocument:
    elements: list[str]
    covers: list[tuple[str, str]]
    labels: Optional[dict[str, str]] = None
    meta: Optional[dict[str, str]] = None


def parse_document(text: str) -> LatticeDocument:
    """Parse and validate the JSON wire format without building the lattice."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise SchemaError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("not valid JSON: arrays or objects nest too deeply") from None
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    version = raw.get("schemaVersion")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"schemaVersion must be {SCHEMA_VERSION!r}, got {version!r}")
    unknown = set(raw) - {"schemaVersion", "elements", "covers", "labels", "meta"}
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")

    elements = raw.get("elements")
    if not isinstance(elements, list) or not all(
        isinstance(e, str) and e for e in elements
    ):
        raise SchemaError("'elements' must be a list of non-empty strings")
    covers_raw = raw.get("covers")
    if not isinstance(covers_raw, list):
        raise SchemaError("'covers' must be a list of [lower, upper] pairs")
    covers = []
    for k, pair in enumerate(covers_raw):
        # plain isinstance tests, not all() over a generator, which is slower per cover
        if not (
            isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str) and isinstance(pair[1], str)
        ):
            raise SchemaError(f"covers[{k}] must be a pair of strings")
        covers.append((pair[0], pair[1]))

    labels = raw.get("labels")
    if labels is not None:
        if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
        ):
            raise SchemaError("'labels' must map 'lower->upper' strings to label names")
        for key in labels:
            if key.count(_ARROW) != 1:
                raise SchemaError(f"label key {key!r} is not of the form 'lower->upper'")
    meta = raw.get("meta")
    if meta is not None and (
        not isinstance(meta, dict)
        or not all(isinstance(k, str) and isinstance(v, str) for k, v in meta.items())
    ):
        raise SchemaError("'meta' must map strings to strings")
    return LatticeDocument(
        elements=list(elements), covers=covers, labels=labels, meta=meta
    )


def emit_json(doc: LatticeDocument) -> str:
    """Serialize a document; field order is fixed so output is reproducible."""
    for name in doc.elements:
        if doc.labels is not None and _ARROW in name:
            raise SchemaError(
                f"element name {name!r} contains '->' and cannot be used with labels"
            )
    payload: dict = {
        "schemaVersion": SCHEMA_VERSION,
        "elements": list(doc.elements),
        "covers": [list(c) for c in doc.covers],
    }
    if doc.labels is not None:
        payload["labels"] = {k: doc.labels[k] for k in sorted(doc.labels)}
    if doc.meta is not None:
        payload["meta"] = {k: doc.meta[k] for k in sorted(doc.meta)}
    return dumps_indented(payload) + "\n"


def dumps_indented(value, sort_keys: bool = False) -> str:
    """``json.dumps(value, indent=2, sort_keys=sort_keys)``, byte for byte.

    The json module runs its C encoder only when ``indent`` is None; with an
    indent every value goes through its pure-Python generator.  This
    writer, about twice as fast, takes the types the CLI and documents
    use, dispatched on their exact type: dicts with ``str`` keys, lists,
    tuples, ``str`` (encoded by the json module's C function), ``int``,
    ``bool`` and None.  Anything else, a float or a subclass included,
    raises TypeError.
    """
    return _dumps(value, "\n", sort_keys)


def _dumps(value, newline: str, sort_keys: bool) -> str:
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(item) if type(item) is str else _dumps(item, inner, sort_keys)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, item in sorted(value.items()) if sort_keys else value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _dumps(item, inner, sort_keys))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def document_to_lattice(doc: LatticeDocument) -> Lattice:
    return Lattice.build_from_covers(doc.elements, doc.covers)


def document_to_labeled_poset(doc: LatticeDocument) -> LabeledPoset:
    if doc.labels is None:
        raise SchemaError("document has no 'labels' field")
    lattice = document_to_lattice(doc)
    labels = {}
    for key, value in doc.labels.items():
        lo, hi = key.split(_ARROW)
        if lo not in lattice.index or hi not in lattice.index:
            raise SchemaError(f"label key {key!r} mentions an unknown element")
        labels[(lo, hi)] = value
    return LabeledPoset(poset=lattice, labels=labels)


def to_document(
    obj: Union[Lattice, Poset, LabeledPoset], meta: Optional[dict[str, str]] = None
) -> LatticeDocument:
    if isinstance(obj, LabeledPoset):
        labels = {f"{lo}{_ARROW}{hi}": v for (lo, hi), v in obj.labels.items()}
        poset = obj.poset
    else:
        labels = None
        poset = obj
    return LatticeDocument(
        elements=list(poset.names),
        covers=list(poset.covers_named()),
        labels=labels,
        meta=meta,
    )


def parse_json(text: str) -> Union[Lattice, LabeledPoset]:
    """One-step parse: labeled documents come back as LabeledPoset."""
    doc = parse_document(text)
    if doc.labels is not None:
        return document_to_labeled_poset(doc)
    return document_to_lattice(doc)


def emit_dot(
    obj,
    labels: Optional[dict[tuple[str, str], str]] = None,
    graph_name: str = "lattice",
) -> str:
    """Graphviz source with arrows drawn upper -> lower; byte-stable output.

    ``labels`` keys are (lower, upper) cover pairs.  A LabeledPoset supplies
    its own labels unless overridden.
    """
    if isinstance(obj, LabeledPoset):
        if labels is None:
            labels = obj.labels
        poset = obj.poset
    else:
        poset = obj
    names = poset.names
    texts = set(names).union(labels.values()) if labels else names
    quoted = {text: _dot_quote(text) for text in texts}  # each name and label quoted once
    lines = [f"digraph {graph_name} {{"]
    for name in sorted(names):
        lines.append(f"  {quoted[name]};")
    for hi, lo in sorted((names[hi], names[lo]) for lo, hi in poset.covers):
        edge = f"  {quoted[hi]} -> {quoted[lo]}"
        if labels and (lo, hi) in labels:
            lines.append(f"{edge} [label={quoted[labels[(lo, hi)]]}];")
        else:
            lines.append(f"{edge};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    """A DOT quoted string: backslash and double quote are escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
