import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdlat as S
from sdlat import CycleError, NotTransitiveReduction, SchemaError
from sdlat.cli import build_parser, cli_main
from sdlat.jsonio import (
    document_to_labeled_poset,
    dumps_indented,
    emit_dot,
    emit_json,
    parse_document,
    parse_json,
    to_document,
)

from conftest import odd_names, sd_family_lattices


def test_round_trip_all_generators():
    cases = [
        S.generate("fig1"),
        S.generate("fig4"),
        S.generate("fig1-labeled"),
        S.generate("preprojA2"),
        S.generate("boolean", 3),
        S.generate("tamari", 3),
        S.generate("chain", 4),
    ]
    for obj in cases:
        doc = to_document(obj, meta={"note": "t"})
        again = parse_document(emit_json(doc))
        assert again == doc
        rebuilt = parse_json(emit_json(doc))
        poset = getattr(rebuilt, "poset", rebuilt)
        original = getattr(obj, "poset", obj)
        assert poset == original


def test_parse_propagates_build_errors():
    base = {"schemaVersion": "1", "elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}
    with pytest.raises(CycleError):
        parse_json(json.dumps(base))
    redundant = {
        "schemaVersion": "1",
        "elements": ["0", "a", "1"],
        "covers": [["0", "a"], ["a", "1"], ["0", "1"]],
    }
    with pytest.raises(NotTransitiveReduction):
        parse_json(json.dumps(redundant))


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_document("not json")
    with pytest.raises(SchemaError, match="4300 digits"):
        parse_document('{"elements": [' + "1" * 5000 + "]}")
    with pytest.raises(SchemaError):
        parse_document(json.dumps({"schemaVersion": "2", "elements": [], "covers": []}))
    with pytest.raises(SchemaError):
        parse_document(json.dumps({"schemaVersion": "1", "covers": []}))
    with pytest.raises(SchemaError):
        parse_document(
            json.dumps(
                {"schemaVersion": "1", "elements": ["a"], "covers": [], "labels": {"a": "x"}}
            )
        )
    with pytest.raises(SchemaError):
        parse_document(
            json.dumps(
                {"schemaVersion": "1", "elements": ["a"], "covers": [["a"]]}
            )
        )


@pytest.mark.parametrize(
    "text",
    ["[" * 200000, '{"a": ' * 200000, "[" * 100000 + "]" * 100000],
    ids=["open-arrays", "open-objects", "closed-arrays"],
)
def test_parse_document_rejects_deep_nesting(text):
    with pytest.raises(SchemaError, match="nest too deeply"):
        parse_document(text)


def test_dot_output(fig1):
    text = emit_dot(fig1, labels=S.lattice_j_labeling(fig1).labels)
    assert '"top" -> "m1" [label="j1"];' in text
    assert text == emit_dot(fig1, labels=S.lattice_j_labeling(fig1).labels)

    single = S.Lattice.build_from_covers(["x"], [])
    assert emit_dot(single) == 'digraph lattice {\n  "x";\n}\n'


def test_dot_escapes_quote_and_backslash():
    lat = S.Lattice.build_from_covers(['a"b', "c\\d"], [('a"b', "c\\d")])
    text = emit_dot(lat, labels={('a"b', "c\\d"): 'l"\\'})
    assert text == (
        "digraph lattice {\n"
        '  "a\\"b";\n'
        '  "c\\\\d";\n'
        '  "c\\\\d" -> "a\\"b" [label="l\\"\\\\"];\n'
        "}\n"
    )


def test_dot_derived_matches_clo_up(fig1):
    derived = S.clo_up(fig1)
    labeling = S.label_clo_up(fig1)
    text = emit_dot(derived, labels=labeling.labels, graph_name="cloUp")
    for lo, hi in derived.covers_named():
        assert f'"{hi}" -> "{lo}" [label="{labeling.labels[(lo, hi)]}"];' in text
    assert text.count("->") == len(derived.covers_named())


def _write(tmp_path, name, obj, meta=None):
    path = tmp_path / name
    path.write_text(emit_json(to_document(obj, meta=meta)), encoding="utf-8")
    return str(path)


def test_cli_check(tmp_path, capsys):
    fig1 = _write(tmp_path, "fig1.json", S.generate("fig1"))
    assert cli_main(["check", fig1]) == 0
    assert "semidistributive: yes" in capsys.readouterr().out

    m3 = _write(tmp_path, "m3.json", S.generate("m3"))
    assert cli_main(["check", m3]) == 1
    assert "not semidistributive" in capsys.readouterr().out


def test_cli_kappa(tmp_path, capsys):
    fig1 = _write(tmp_path, "fig1.json", S.generate("fig1"))
    assert cli_main(["kappa", fig1]) == 0
    out = capsys.readouterr().out
    assert "kappa(j4) = j3" in out
    assert "(bot,top)(j1,m1)(j2,m2)(j3,m3,j4)" in out

    assert cli_main(["kappa", fig1, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"]["j4"] == "j3"


def test_cli_cjr_cores_nuclear(tmp_path, capsys):
    fig1 = _write(tmp_path, "fig1.json", S.generate("fig1"))
    assert cli_main(["cjr", fig1, "--element", "m1"]) == 0
    assert "CJR(m1) = {j2, j3}" in capsys.readouterr().out

    assert cli_main(["cores", fig1, "--element", "m1"]) == 0
    out = capsys.readouterr().out
    assert "lab_down={j2, j3, j4}" in out

    assert cli_main(["nuclear", fig1, "--lo", "bot", "--hi", "m1"]) == 0
    capsys.readouterr()
    assert cli_main(["nuclear", fig1, "--lo", "j3", "--hi", "top"]) == 1
    capsys.readouterr()
    assert cli_main(["nuclear", fig1, "--lo", "m1", "--hi", "j1"]) == 2
    capsys.readouterr()
    assert cli_main(["nuclear", fig1, "--lo", "bot", "--hi", "nosuch"]) == 2
    assert capsys.readouterr().err == "error: unknown element 'nosuch'\n"
    assert cli_main(["nuclear", fig1, "--lo", "nosuch", "--hi", "top"]) == 2


def test_cli_seq(tmp_path, capsys):
    fig1 = _write(tmp_path, "fig1.json", S.generate("fig1"))
    assert cli_main(["seq", fig1, "--maximal", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 7
    assert ["j4", "j3"] in [s["entries"] for s in payload["sequences"]]


def _seq_output_oracle(lattice, maximal, as_json):
    """What ``seq`` printed when it built the whole payload, or line list, first."""
    seqs = S.enumerate_kd_exceptional(lattice, maximal_only=maximal, mark_right_extendable=maximal)
    if as_json:
        sequences = [{"entries": s.entries, "rightExtendable": s.right_extendable} for s in seqs]
        payload = {"maximalOnly": maximal, "count": len(seqs), "sequences": sequences}
        return dumps_indented(payload, sort_keys=True) + "\n"
    lines = [
        "(" + ",".join(s.entries) + ")" + ("   [extendable to the right]" if s.right_extendable else "")
        for s in seqs
    ]
    lines.append(f"count: {len(seqs)}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("chunk", [3, S.cli._CHUNK])
def test_cli_seq_writes_the_payload_byte_for_byte(tmp_path, small_sd_lattices, monkeypatch, chunk):
    # a chunk of 3 splits every longer listing across writes
    monkeypatch.setattr(S.cli, "_CHUNK", chunk)
    lattices = sd_family_lattices() + [S.generate("tamari", n) for n in (4, 5, 6)]
    lattices += [S.generate("boolean", n) for n in (4, 5)] + [odd_names(S.generate("fig1"))]
    lattices += small_sd_lattices
    for k, lattice in enumerate(lattices):
        path = _write(tmp_path, f"doc{k}.json", lattice)
        for maximal, as_json in itertools.product((False, True), repeat=2):
            argv = ["seq", path] + ["--maximal"] * maximal + ["--json"] * as_json
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli_main(argv) == 0
            assert out.getvalue() == _seq_output_oracle(lattice, maximal, as_json), argv


def test_cli_complex_orders(tmp_path, capsys):
    fig1 = _write(tmp_path, "fig1.json", S.generate("fig1"))
    assert cli_main(["complex", fig1]) == 0
    assert "edge: j1 -- j2" in capsys.readouterr().out

    assert cli_main(["orders", fig1, "--which", "cloDown"]) == 0
    assert "forms a lattice: no" in capsys.readouterr().out

    assert cli_main(["orders", fig1, "--which", "cloUp", "--dot", "--labels"]) == 0
    assert '"top" -> "j4" [label="j3"];' in capsys.readouterr().out


def test_cli_el(tmp_path, capsys):
    pp = _write(tmp_path, "pp.json", S.generate("preprojA2"))
    assert cli_main(["el", pp, "--order", "P1,S2,P2,S1"]) == 0
    capsys.readouterr()
    assert cli_main(["el", pp, "--order", "S1,P2,S2,P1"]) == 1
    capsys.readouterr()
    assert cli_main(["el", pp, "--search"]) == 0
    assert "P1 < S2 < P2 < S1" in capsys.readouterr().out

    plain = _write(tmp_path, "fig1.json", S.generate("fig1"))
    assert cli_main(["el", plain, "--search"]) == 2


def test_cli_calls_share_one_parser(tmp_path, capsys):
    # The parser is built once per process; no argument may carry over
    # from one call to the next.
    assert build_parser() is build_parser()
    pp = _write(tmp_path, "pp.json", S.generate("preprojA2"))
    fig1 = _write(tmp_path, "fig1.json", S.generate("fig1"))

    assert cli_main(["el", pp, "--search", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"order": ["P1", "S2", "P2", "S1"]}
    assert cli_main(["el", pp, "--order", "S1,P2,S2,P1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("EL-labeling: no\nwitness interval")

    assert cli_main(["seq", fig1, "--maximal", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["maximalOnly"] is True
    assert cli_main(["seq", fig1, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["maximalOnly"] is False
    assert all(s["rightExtendable"] is None for s in payload["sequences"])

    assert cli_main(["--version"]) == 0
    assert capsys.readouterr().out == f"sdlat {S.__version__}\n"
    assert cli_main(["el", pp]) == 2  # neither --order nor --search
    assert "one of the arguments --order --search is required" in capsys.readouterr().err
    assert cli_main(["seq", fig1]) == 0
    assert capsys.readouterr().out.endswith(f"count: {payload['count']}\n")


def test_cli_gen_round_trip(tmp_path, capsys):
    out = str(tmp_path / "cube.json")
    assert cli_main(["gen", "boolean", "3", "-o", out]) == 0
    capsys.readouterr()
    assert cli_main(["check", out]) == 0
    capsys.readouterr()
    assert cli_main(["gen", "tamari"]) == 2


def test_cli_dot(tmp_path, capsys):
    fig1 = _write(tmp_path, "fig1.json", S.generate("fig1"))
    assert cli_main(["dot", fig1, "--labeling", "j"]) == 0
    assert '"top" -> "m1" [label="j1"];' in capsys.readouterr().out

    labeled = _write(tmp_path, "pp.json", S.generate("preprojA2"))
    assert cli_main(["dot", labeled, "--labeling", "custom"]) == 0
    assert '"mod" -> "add(S2)" [label="P1"];' in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc, args, message",
    [
        ({"elements": ["a", "a"], "covers": []}, ["check"], "element names must be unique"),
        ({"elements": ["a", "b"], "covers": [["a", "c"]]}, ["check"], "cover ('a', 'c') mentions an unknown element"),
        (None, ["el", "--order", "P1,P1"], "order must be a permutation of the label alphabet"),
        ({"elements": ["a"], "covers": [], "extra": 1}, ["check"], "unknown fields: ['extra']"),
        ({"elements": ["a"], "covers": {}}, ["check"], "'covers' must be a list of [lower, upper] pairs"),
        ({"elements": ["a"], "covers": [], "labels": {"a->a": 1}}, ["check"],
         "'labels' must map 'lower->upper' strings to label names"),
        ({"elements": ["a", "b"], "covers": [["a", "b"]], "labels": {"a-b": "x"}}, ["check"],
         "label key 'a-b' is not of the form 'lower->upper'"),
        ({"elements": ["a"], "covers": [], "meta": {"k": 1}}, ["check"], "'meta' must map strings to strings"),
        ({"elements": ["a", "b"], "covers": [["a", "b"]], "labels": {"a->c": "x"}}, ["check"],
         "label key 'a->c' mentions an unknown element"),
        ({"elements": [], "covers": []}, ["check"], "empty lattice"),
        ({"elements": ["a", "b"], "covers": [["a", "a"]]}, ["check"], "cover ('a', 'a') is a self-loop"),
        ({"elements": ["a", "b"], "covers": [["a", "b"], ["a", "b"]]}, ["check"], "duplicate cover listed"),
    ],
)
def test_cli_bad_input_exits_2_with_one_line(tmp_path, capsys, doc, args, message):
    path = tmp_path / "doc.json"
    if doc is None:
        path.write_text(emit_json(to_document(S.generate("preprojA2"))), encoding="utf-8")
    else:
        path.write_text(json.dumps({"schemaVersion": "1", **doc}), encoding="utf-8")
    assert cli_main([args[0], str(path), *args[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "content, argv, message",
    [
        (None, ["check", "DIR"], None),
        (None, ["gen", "tamari", "3", "-o", "DIR"], None),
        (b'{"elements": ["\xff"]}', ["check", "FILE"],
         "not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
        (b"[" * 200000, ["check", "FILE"], "not valid JSON: arrays or objects nest too deeply"),
        (b"[1, 2]", ["check", "FILE"], "top level must be an object"),
    ],
    ids=["read-dir", "write-dir", "not-utf8", "deep", "not-object"],
)
def test_cli_file_errors_exit_2_with_one_line(tmp_path, capsys, content, argv, message):
    # a directory to read or write (the OS words the message), bytes that are
    # not UTF-8, nesting deeper than the parser's recursion limit, and a top
    # level that is not an object
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    argv = [{"DIR": str(tmp_path), "FILE": str(path)}.get(a, a) for a in argv]
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert err == f"error: {message}\n"


def test_labeled_documents_need_labels_and_arrow_free_names():
    lattice = S.Lattice.build_from_covers(["0", "a->b", "1"], [("0", "a->b"), ("a->b", "1")])
    with pytest.raises(SchemaError, match=r"^element name 'a->b' contains '->' and cannot be used with labels$"):
        emit_json(to_document(S.lattice_j_labeling(lattice)))
    emit_json(to_document(lattice))  # an unlabeled document may use the arrow
    with pytest.raises(SchemaError, match=r"^document has no 'labels' field$"):
        document_to_labeled_poset(to_document(S.generate("fig1")))


@pytest.mark.parametrize(
    "doc, args",
    [
        ({"elements": [f"m{i}" for i in range(300)] + ["top"], "covers": [[f"m{i}", "top"] for i in range(300)]},
         ["check"]),
        ({"elements": ["bot"] + [f"m{i}" for i in range(300)], "covers": [["bot", f"m{i}"] for i in range(300)],
          "labels": {f"bot->m{i}": "a" for i in range(300)}}, ["el", "--search"]),
        (None, ["orders", "--which", "cloUp", "--dot", "--labels"]),
    ],
)
def test_cli_long_name_lists_are_cut(tmp_path, capsys, doc, args):
    # 300 minima, 300 maxima, and chain(300), whose cloUp has 300 maximal elements
    path = tmp_path / "doc.json"
    if doc is None:
        path.write_text(emit_json(to_document(S.generate("chain", 300))), encoding="utf-8")
    else:
        path.write_text(json.dumps({"schemaVersion": "1", **doc}), encoding="utf-8")
    assert cli_main([args[0], str(path), *args[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 300 and "(300 in all)" in err


def test_cli_input_errors(tmp_path, capsys):
    assert cli_main(["check", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert cli_main(["check", str(bad)]) == 2
    fig1 = _write(tmp_path, "fig1.json", S.generate("fig1"))
    assert cli_main(["cjr", fig1, "--element", "zz"]) == 2


def _sdlat_process(args, stdout):
    """``python -m sdlat`` on the checked-out sources, writing to ``stdout``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "sdlat", *args], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def test_closed_stdout_exits_141_quietly(tmp_path):
    # the reader stops after one line of a 0.65 MB payload, so the write
    # fails while the command runs
    t6 = _write(tmp_path, "t6.json", S.generate("tamari", 6))
    with _sdlat_process(["seq", t6, "--json"], subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_closed_stdout_at_the_final_flush_exits_141_quietly(tmp_path):
    # a short output stays in the buffer until the flush at exit; the read
    # end is closed before the process starts, so every write fails
    fig1 = _write(tmp_path, "fig1.json", S.generate("fig1"))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _sdlat_process(["check", fig1], write)
    finally:
        os.close(write)
    with proc:
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
