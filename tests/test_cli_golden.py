"""Every CLI subcommand against recorded output digests.

Each case runs ``cli_main`` in process on one small document, with and
without ``--json``, and compares the sha256 of its stdout, its exit code and
the first line of its stderr with ``cli_golden.json``.  So a refactor that
claims byte-identical CLI output is checked here.  Regenerate the file only
for a deliberate output change, and record that change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import sdlat as S
from sdlat.cli import cli_main
from sdlat.jsonio import emit_json, to_document

from conftest import CLO_UP_OUTSIDE, lattice_from_cover_text, odd_names

GOLDEN = Path(__file__).with_name("cli_golden.json")

DOCUMENTS = {
    "fig1": ("fig1", None),
    "fig4": ("fig4", None),
    "fig1-labeled": ("fig1-labeled", None),
    "tamari4": ("tamari", 4),
    "boolean3": ("boolean", 3),
    "chain3": ("chain", 3),
    "m3": ("m3", None),
    "diamond": ("diamond", None),
    "preprojA2": ("preprojA2", None),
}
DERIVED = ("cloDown", "cloUp", "kappa")
# Lattices whose cloUp is not contained in their order, given by covers;
# only the derived orders are run on them.
COVER_DOCUMENTS = {f"cloUpOutside{k}": text for k, text in enumerate(CLO_UP_OUTSIDE, 1)}
# fig1 with element names that hold a double quote, a backslash, a space and
# a non-ASCII letter, so every form escapes them; no gen command.
ODD_NAMES = "fig1-oddNames"
# Documents on which only seq runs, with and without --maximal: two larger
# ones, and the one-element lattice (no sequences) and the two-element chain.
SEQ_DOCUMENTS = {
    "tamari5": ("tamari", 5), "boolean4": ("boolean", 4), "chain0": ("chain", 0), "chain1": ("chain", 1),
}
CASES = sorted(DOCUMENTS) + sorted(COVER_DOCUMENTS) + [ODD_NAMES] + sorted(SEQ_DOCUMENTS)


def _forms(obj):
    """The argument lists run on one document, after the subcommand's file."""
    labeled = isinstance(obj, S.LabeledPoset)
    lattice = obj.poset if labeled else obj
    names = sorted(lattice.names)
    mid = names[len(names) // 2]
    forms = [
        ["check"], ["kappa"], ["cjr"], ["cjr", "--element", mid], ["complex"],
        ["cores"], ["cores", "--element", mid], ["seq"], ["seq", "--maximal"],
        ["nuclear", "--lo", lattice.bottom, "--hi", lattice.top],
        ["nuclear", "--lo", lattice.bottom, "--hi", mid],
        # unknown names: the first one looked up is the one named
        ["cjr", "--element", "zz"], ["cores", "--element", "zz"],
        ["nuclear", "--lo", "zz", "--hi", "yy"], ["nuclear", "--lo", lattice.bottom, "--hi", "yy"],
    ]
    for which in DERIVED:
        forms += [["orders", "--which", which], ["orders", "--which", which, "--dot"]]
    forms += [["orders", "--which", "cloUp", "--dot", "--labels"], ["dot"]]
    # --labels everywhere else: without --dot, and with --dot on the other orders
    forms += [["orders", "--which", which, "--labels"] for which in DERIVED]
    forms += [["orders", "--which", which, "--dot", "--labels"] for which in ("cloDown", "kappa")]
    forms += [["dot", "--labeling", kind] for kind in ("j", "m", "custom", "clo")]
    forms += [["dot", "--derived", which] for which in DERIVED]
    forms += [
        ["dot", "--derived", "cloUp", "--labeling", "clo"],
        ["dot", "--derived", "kappa", "--labeling", "clo"],
        ["dot", "--derived", "cloDown", "--labeling", "j"],
    ]
    alphabet = sorted(obj.alphabet) if labeled else names
    forms += [
        ["el", "--search"],
        ["el", "--order", ",".join(alphabet)],
        ["el", "--order", ",".join(reversed(alphabet))],
    ]
    return forms


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    first = err.getvalue().split("\n", 1)[0]
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(), code, first]


def run_cases(doc, workdir):
    """Case id -> [sha256 of stdout, exit code, first stderr line] for one document."""
    path = Path(workdir) / f"{doc}.json"
    if doc in COVER_DOCUMENTS:
        obj = lattice_from_cover_text(COVER_DOCUMENTS[doc])
        commands = [["orders", str(path), "--which", which] for which in DERIVED]
    elif doc == ODD_NAMES:
        obj = odd_names(S.generate("fig1"))
        commands = [[form[0], str(path), *form[1:]] for form in _forms(obj)]
    elif doc in SEQ_DOCUMENTS:
        obj = S.generate(*SEQ_DOCUMENTS[doc])
        commands = [["seq", str(path)], ["seq", str(path), "--maximal"]]
    else:
        family, n = DOCUMENTS[doc]
        obj = S.generate(family, n)
        commands = [["gen", family] + ([] if n is None else [str(n)])]
        commands += [[form[0], str(path), *form[1:]] for form in _forms(obj)]
    path.write_text(emit_json(to_document(obj)), encoding="utf-8")
    results = {}
    for args in commands:
        for extra in ([], ["--json"]):
            argv = args + extra
            key = " ".join(a if a != str(path) else "FILE" for a in argv)
            results[f"{doc}: {key}"] = _run(argv)
    return results


@pytest.mark.parametrize("doc", CASES)
def test_cli_output_matches_golden(doc, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = {k: v for k, v in golden.items() if k.startswith(f"{doc}: ")}
    got = run_cases(doc, tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [key for key in sorted(got) if got[key] != expected[key]]
    assert changed == [], f"{len(changed)} outputs changed, first {changed[:3]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {}
        for name in CASES:
            record.update(run_cases(name, tmp))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} cases to {GOLDEN}", file=sys.stderr)
