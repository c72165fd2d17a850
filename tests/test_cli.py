import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetar
from posetar.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_clamped_subcommand(capsys):
    code, out, _ = run(capsys, "clamped", "corpus:sec2-left")
    assert code == 0
    assert "[a,b]" in out.splitlines()


def test_fcy_star(capsys):
    code, out, _ = run(capsys, "fcy", "corpus:star-2-2")
    assert code == 0
    assert out.strip() == "yes (E6)"


def test_fcy_negative(capsys):
    code, out, _ = run(capsys, "fcy", "corpus:star-3-3")
    assert code == 0
    assert out.startswith("no")


def test_parse_roundtrip_via_file(tmp_path, capsys):
    code, out, _ = run(capsys, "parse", "corpus:ex57")
    assert code == 0
    f = tmp_path / "p.poset"
    f.write_text("".join(out.splitlines(keepends=True)[1:]))
    code2, out2, _ = run(capsys, "parse", str(f))
    assert code2 == 0
    assert out.splitlines()[1:] == out2.splitlines()[1:]


def test_hasse_dot(capsys):
    code, out, _ = run(capsys, "hasse", "corpus:ex33-poset1")
    assert code == 0
    assert out.startswith("digraph")
    assert '"a" -> "1"' in out


def test_ic_and_tree(capsys):
    code, out, _ = run(capsys, "ic", "corpus:ex57")
    assert code == 0
    assert out.splitlines()[0] == "IC decomposition:"
    code, out, _ = run(capsys, "tree", "corpus:ex57")
    assert code == 0
    assert "doublecircle" in out


def test_ic_negative(capsys):
    code, out, _ = run(capsys, "ic", "corpus:ex33-poset2")
    assert code == 0
    assert out.strip() == "not in IC/IC+"


def test_fintype(capsys):
    code, out, _ = run(capsys, "fintype", "corpus:ex58-poset1")
    assert code == 0
    assert out.startswith("finite")


def test_resolve_and_ext_and_tau(capsys):
    code, out, _ = run(capsys, "resolve", "corpus:ex25-chain4", "S(1)")
    assert code == 0
    assert out.strip() == "P(1) <- P(2)"
    code, out, _ = run(capsys, "ext", "corpus:ex25-chain4", "S(1)", "S(2)", "1")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "tau", "corpus:star-2-2", "S(c2_2)")
    assert code == 0
    assert out.strip() == "P(c1_1)"


def test_tau_of_a_decomposable_module_reports_not_indecomposable(capsys):
    code, out, err = run(capsys, "tau", "corpus:star-2-2", "rad(S(c2_2))")
    assert (code, out) == (1, "")
    assert err == "error (not-indecomposable): tau expects an indecomposable module\n"


def test_mesh_subcommand(capsys):
    code, out, _ = run(capsys, "mesh", "corpus:ex33-poset1", "quot(P(a),P(b))")
    assert code == 0
    assert out.count("+") == 2  # three middle summands


def test_slice_and_verify(capsys):
    code, out, _ = run(capsys, "slice", "corpus:p-1-2")
    assert code == 0
    assert any("*" in line for line in out.splitlines())
    code, out, _ = run(capsys, "verify-slice", "corpus:p-1-2")
    assert code == 0
    assert "ok" in out


def test_knit_json(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "knit", "corpus:ex25-chain4", "--json", str(target))
    assert code == 0
    assert "status: complete" in out
    data = json.loads(target.read_text())
    assert data["schema"] == 1 and data["seed"] == 0
    assert data["status"] == "complete"
    assert len(data["vertices"]) == 10
    assert all(v["orbit"] is not None for v in data["vertices"])


def test_knit_dot(tmp_path, capsys):
    # sha256 of the whole file: shapes, labels, arrows and dashed tau edges
    target = tmp_path / "ar.dot"
    code, _, _ = run(capsys, "knit", "corpus:ex25-chain4", "--dot", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph ar {")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "30c63510846a41fa992b9f6d2d6cd83f66a6cc0ae13e5243440c74eaa4ea1d11"
    )


@pytest.mark.parametrize("args, printed", [
    (("tau", "corpus:ex25-chain4", "K(1..2)"), "k{2,3}"),
    (("tau", "corpus:ex25-chain4", "I(3)"), "P(2)"),
    (("resolve", "corpus:ex25-chain4", "soc(sum(P(1),S(2)))"), "P(2) + P(4) <- P(3)"),
])
def test_module_expressions_interval_injective_and_socle(capsys, args, printed):
    code, out, _ = run(capsys, *args)
    assert (code, out.strip()) == (0, printed)


# (expression, exit code, stdout, stderr) of `resolve corpus:ex33-poset1 <expression>`,
# on the diamond a < 1, 2 < b: each constructor, nesting, and malformed forms
MODULE_EXPRESSIONS = [
    ("P(a)", 0, "P(a)\n", ""),
    ("I(b)", 0, "P(a)\n", ""),
    ("S(1)", 0, "P(1) <- P(b)\n", ""),
    ("K(a..b)", 0, "P(a)\n", ""),
    ("K(1..b)", 0, "P(1)\n", ""),
    ("rad(P(a))", 0, "P(1) + P(2) <- P(b)\n", ""),
    ("soc(I(b))", 0, "P(b)\n", ""),
    ("sum(S(1),S(2))", 0, "P(1) + P(2) <- P(b)^2\n", ""),
    ("quot(P(a),S(b))", 0, "P(a) <- P(b)\n", ""),
    (" rad( sum( P(1) , quot(I(b),S(b)) ) )", 0, "P(1) + P(2) + P(b) <- P(b)^2\n", ""),
    ("soc(rad(P(a)))", 0, "P(b)\n", ""),
    ("P(", 1, "", "error (parse-error): unexpected end of module expression\n"),
    ("X(1)", 1, "", "error (parse-error): unknown module constructor 'X'\n"),
    ("X", 1, "", "error (parse-error): unknown module constructor 'X'\n"),
    (")", 1, "", "error (parse-error): unknown module constructor ')'\n"),
    ("P(a) P", 1, "", "error (parse-error): trailing tokens in module expression: ['P']\n"),
    ("rad(S(a)))", 1, "", "error (parse-error): trailing tokens in module expression: [')']\n"),
    ("sum(S(a) S(b))", 1, "", "error (parse-error): expected ',', found 'S'\n"),
    ("sum(S(a))", 1, "", "error (parse-error): expected ',', found ')'\n"),
    ("rad(S(a)", 1, "", "error (parse-error): unexpected end of module expression\n"),
    ("", 1, "", "error (parse-error): unexpected end of module expression\n"),
    ("P a", 1, "", "error (parse-error): expected '(', found 'a'\n"),
    ("S(1,2)", 1, "", "error (parse-error): expected ')', found ','\n"),
    ("K(a,b)", 1, "", "error (parse-error): expected '..', found ','\n"),
    ("K(1..2)", 1, "", "error (not-comparable): '1' is not below '2'\n"),
    ("K(b..a)", 1, "", "error (not-comparable): 'b' is not below 'a'\n"),
    ("P(c)", 1, "", "error (unknown-element): unknown element 'c'\n"),
    ("quot(S(a),S(b))", 1, "",
     "error (parse-error): quot(E,F) needs F to embed into E along a hom basis vector\n"),
    ("S(a) ", 0, "P(a) <- P(1) + P(2) <- P(b)\n", ""),
    ("   ", 1, "", "error (parse-error): unexpected end of module expression\n"),
    ("S()", 1, "", "error (parse-error): expected an element name, found ')'\n"),
    ("K(..b)", 1, "", "error (parse-error): expected an element name, found '..'\n"),
]


@pytest.mark.parametrize("expression, code, out, err", MODULE_EXPRESSIONS)
def test_module_expression_table(expression, code, out, err, capsys):
    assert run(capsys, "resolve", "corpus:ex33-poset1", expression) == (code, out, err)


def test_module_expressions_name_elements_with_any_characters_but_delimiters(tmp_path, capsys):
    # a name may hold any character but whitespace, parentheses, commas and `..`
    f = tmp_path / "f.poset"
    f.write_text("elements x-1 y.2\ncovers\nx-1 < y.2\n")
    assert run(capsys, "tau", str(f), "S(x-1)") == (0, "P(y.2)\n", "")
    assert run(capsys, "resolve", str(f), "K(x-1..y.2)") == (0, "P(x-1)\n", "")
    assert run(capsys, "resolve", str(f), "sum(S(x-1),P(y.2))") == (0, "P(x-1) + P(y.2) <- P(y.2)\n", "")


@pytest.mark.parametrize("args, printed", [
    (("resolve", "corpus:ex25-chain4", "rad(S(1))"), "0\n"),
    (("fcy", "corpus:ex33-poset3", "--max-meshes", "0"),
     "unknown (no decomposition witness and no mesh witness found)\n"),
    (("knit", "corpus:ex25-chain4", "--max-dim", "0"),
     "status: truncated\nvertices: 2  meshes: 0\nprojectives: 2  injectives: 0\n"
     "note: stopped before a mesh exceeding the dimension cap\n"),
])
def test_outputs_at_the_edges(capsys, args, printed):
    # a zero module, a witness search with no mesh budget, a dimension cap below the first mesh
    assert run(capsys, *args) == (0, printed, "")


def test_knit_places_orbits_without_the_slice_modules(monkeypatch, capsys):
    # the embedding reads the derived tree; no slice module is built for it
    def refuse(*args):
        raise AssertionError("standard_slice called")

    monkeypatch.setattr(posetar.slices, "standard_slice", refuse)
    monkeypatch.setattr(posetar.cli, "standard_slice", refuse)
    code, out, _ = run(capsys, "knit", "corpus:ex57")
    assert code == 0
    assert "orbit 9 levels [0,0] f: 1\n" in out


def _chain_file(path, n):
    path.write_text(f"elements {' '.join(f'e{i}' for i in range(n))}\ncovers\n"
                    + "".join(f"e{i} < e{i + 1}\n" for i in range(n - 1)))
    return str(path)


@pytest.mark.parametrize("n, argv", [
    (1000, ["ic"]), (1000, ["tree"]), (1000, ["fcy"]), (1000, ["fintype"]),
    (1200, ["knit", "--max-meshes", "3"]), (1200, ["slice"]),
    (1200, ["ext", "K(e0..e1100)", "I(e1199)", "1"]),
])
def test_deep_chains_end_without_a_traceback(tmp_path, n, argv):
    """On a long chain each command answers or exits 1 with one error line;
    the recursion limit of a fresh process is what a user meets."""
    src = str(Path(posetar.__file__).resolve().parents[1])
    cmd, rest = argv[0], argv[1:]
    proc = subprocess.run(
        [sys.executable, "-m", "posetar.cli", cmd, _chain_file(tmp_path / "c.poset", n), *rest],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr, proc.stderr[-300:]
    if cmd == "ext":
        assert (proc.returncode, proc.stdout) == (0, "0\n")
    if proc.returncode:
        assert proc.stderr.startswith("error") and proc.stderr.count("\n") == 1


def test_a_field_of_a_huge_prime_is_a_usage_error():
    """The characteristic is capped below 2^31, so --field fails at once
    instead of trial-dividing up to the square root of a 61-bit prime; the
    child's timeout turns a hang into a failure."""
    src = str(Path(posetar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "posetar.cli", "--field", "gf:2305843009213693951", "clamped", "corpus:ex25-chain4"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 2, proc.stderr
    assert "unknown field" in proc.stderr


def test_knit_deterministic(tmp_path, capsys):
    a = run(capsys, "knit", "corpus:ex33-poset1")[1]
    b = run(capsys, "knit", "corpus:ex33-poset1")[1]
    assert a == b


def test_witness_subcommand(capsys):
    code, out, _ = run(capsys, "witness", "corpus:ex33-poset1")
    assert code == 0
    assert out == "conditional: interval [a,b]: mesh with 3 middle terms at module {'a': 1, '1': 1, '2': 1}\n"


def test_fcy_without_a_derived_tree_is_unknown(capsys):
    # the witness is conditional: nothing here certifies infinite representation type
    code, out, _ = run(capsys, "fcy", "corpus:ex33-poset2")
    assert code == 0
    assert out == "unknown (witness found but infinite representation type not established)\n"


def test_corpus_listing_and_write(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    ids = out.split()
    from posetar.corpus import RYS_IDS

    for cid in RYS_IDS:
        assert cid in ids
    code, out, _ = run(capsys, "corpus", "--write", str(tmp_path / "c"))
    assert code == 0
    files = list((tmp_path / "c").glob("*.poset"))
    assert len(files) == len(ids)
    # every corpus file parses back
    for f in files:
        code, _, _ = run(capsys, "parse", str(f))
        assert code == 0


def test_fromtree(tmp_path, capsys):
    tf = tmp_path / "t.tree"
    tf.write_text("vertices a b c d e\nedges a-b b-c c-d c-e\nmark a\n")
    code, out, _ = run(capsys, "fromtree", str(tf))
    assert code == 0
    f = tmp_path / "p.poset"
    f.write_text(out)
    code, out2, _ = run(capsys, "tree", str(f))
    assert code == 0


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "ext", "corpus:ex25-chain4", "P(9)", "S(1)", "0")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def exit_code(argv) -> int:
    """main's exit code; argparse usage errors surface as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def contract_calls(cid):
    from posetar.corpus import corpus_poset

    names = corpus_poset(cid).names
    src, a, b = f"corpus:{cid}", f"S({names[0]})", f"S({names[-1]})"
    return [
        [cmd, src]
        for cmd in ("parse", "hasse", "clamped", "ic", "tree", "fcy", "fintype", "slice", "verify-slice")
    ] + [
        ["resolve", src, a],
        ["ext", src, a, b, "1"],
        ["tau", src, b],
        ["mesh", src, b],
        ["knit", src, "--max-meshes", "5"],
        ["witness", src, "--max-meshes", "5"],
    ]


NEGATIVE_BUDGETS = [
    ["knit", "corpus:sec2-right", "--max-meshes", "-3"],
    ["knit", "corpus:sec2-right", "--max-dim", "-1"],
    ["witness", "corpus:sec2-right", "--max-meshes", "-1"],
    ["fcy", "corpus:sec2-right", "--max-meshes", "-1"],
]

MALFORMED = [
    ["--field", "gf:4", "tau", "corpus:star-2-2", "S(c2_2)"],
    ["--field", "gf:abc", "fcy", "corpus:star-2-2"],
    ["--field", "gf:4", "fcy", "corpus:star-2-2"],
    ["--field", "gf:0", "knit", "corpus:ex25-chain4"],
    ["parse", "corpus:no-such-id"],
    ["parse", "no-such-file.poset"],
    ["tau", "corpus:star-2-2", "S("],
    ["tau", "corpus:star-2-2", "S(no-such-element)"],
    ["tau", "corpus:ex25-chain4", "sum(S(1),S(2))"],
    ["ext", "corpus:ex25-chain4", "S(1)", "S(2)", "-1"],
    ["ext", "corpus:ex25-chain4", "S(1)", "S(2)", "one"],
    ["knit", "corpus:ex25-chain4", "--max-meshes", "x"],
    ["not-a-command"],
    *NEGATIVE_BUDGETS,
]


@pytest.mark.parametrize("cid", ["ex25-chain4", "star-2-2", "ex33-poset2"])
def test_cli_contract_on_corpus(cid, capsys):
    calls = contract_calls(cid)
    calls.append(["--field", "gf:5", *calls[-4]])  # tau over a prime field
    for argv in calls:
        assert exit_code(argv) in (0, 1, 2), argv
    capsys.readouterr()


def test_cli_contract_on_malformed_input(tmp_path, capsys):
    bad_tree = tmp_path / "bad.tree"
    bad_tree.write_text("vertices a b\nedges a-c\n")
    calls = MALFORMED + [
        ["parse", str(tmp_path)],
        ["fromtree", str(bad_tree)],
        ["corpus", "--write", str(bad_tree)],
        ["knit", "corpus:ex25-chain4", "--json", str(tmp_path)],
    ]
    codes = {tuple(argv): exit_code(argv) for argv in calls}
    assert all(code in (1, 2) for code in codes.values()), codes
    for argv in calls[:4] + NEGATIVE_BUDGETS:
        assert codes[tuple(argv)] == 2, argv
    assert codes[("parse", str(tmp_path))] == 1
    for text in (
        "vertices a b\nedges a-b\nmark\n",  # a mark line that names no vertex
        "vertices a b\nedges a-b\nmark a b\n",  # one that names two
        "vertices a b a\nedges a-b\nmark a\n",  # a vertex declared twice
        "vertices a b c\nedges a-b b-c\nmark a\nmark b\n",  # a second mark line
        "vertices a b\nedges a-a a-b\nmark a\n",  # a loop edge
    ):
        bad_tree.write_text(text)
        capsys.readouterr()
        assert exit_code(["fromtree", str(bad_tree)]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error (parse-error)") and "Traceback" not in err, text
    for text, named in (
        ("vertices a b c\nedges a-b b-c\nmark b\n", "vertex b is not a leaf"),
        ("vertices p q x y r s\nedges p-x q-x x-y y-r y-s\nmark p\n", "branch vertices x and y are adjacent"),
    ):
        bad_tree.write_text(text)
        capsys.readouterr()
        assert exit_code(["fromtree", str(bad_tree)]) == 1, text
        assert named in capsys.readouterr().err, text
    capsys.readouterr()


def test_deeply_nested_module_expression_is_a_parse_error(capsys):
    text = "rad(" * 1000 + "P(1)" + ")" * 1000
    assert exit_code(["resolve", "corpus:ex25-chain4", text]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (parse-error)") and "nested too deeply" in err
    assert "Traceback" not in err


OPTIONS = {  # every option string of each subcommand, --help aside
    "parse": [],
    "hasse": [],
    "clamped": [],
    "ic": [],
    "tree": [],
    "fcy": ["--max-meshes"],
    "fintype": [],
    "fromtree": [],
    "resolve": [],
    "ext": [],
    "tau": [],
    "mesh": [],
    "slice": [],
    "verify-slice": [],
    "knit": ["--dot", "--json", "--max-dim", "--max-meshes"],
    "witness": ["--max-meshes"],
    "corpus": ["--write"],
}


def option_strings(parser):
    return sorted(s for act in parser._actions for s in act.option_strings if s not in ("-h", "--help"))


def test_each_subcommand_has_exactly_its_pinned_options():
    ap = build_parser()
    subs = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert option_strings(ap) == ["--field"]
    assert {name: option_strings(p) for name, p in subs.choices.items()} == OPTIONS


@pytest.mark.parametrize("argv", [
    ["fcy", "corpus:ex33-poset2", "--assume-infinite-type"],
    ["witness", "corpus:ex33-poset1", "--assume-infinite-type"],
])
def test_assume_infinite_type_is_a_usage_error(argv, capsys):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err


def test_seed_flag_is_a_usage_error(capsys):
    # nothing is random, so there is no --seed
    assert exit_code(["--seed", "1", "corpus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err


def test_seed_in_the_environment_is_ignored(monkeypatch, capsys):
    monkeypatch.setenv("POSETAR_SEED", "abc")
    assert exit_code(["corpus"]) == 0
    assert "ex57" in capsys.readouterr().out.split()


@pytest.mark.parametrize("cmd", ["parse", "fromtree"])
def test_undecodable_input_file_is_an_error(cmd, tmp_path, capsys):
    f = tmp_path / "binary"
    f.write_bytes(b"\xff\xfe\x00covers\n\x80 < \x81\n")
    assert exit_code([cmd, str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_knit_tests_each_vertex_for_thinness_once(monkeypatch, capsys):
    # the ZT embedding reads the support the knit stored on each of the 134 vertices
    from posetar.rep import Representation

    calls = []
    real = Representation.is_thin_constant

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Representation, "is_thin_constant", counting)
    code, out, _ = run(capsys, "knit", "corpus:ex57")
    assert code == 0 and out
    assert len(calls) == 134


def test_fcy_max_meshes_contract(monkeypatch, capsys):
    # the budget reaches the witness search's knits; a bad value is a usage error
    import posetar.witness as witness_mod

    budgets = []
    real_knit = witness_mod.knit

    def recording_knit(P, field, **kwargs):
        budgets.append(kwargs["max_meshes"])
        return real_knit(P, field, **kwargs)

    monkeypatch.setattr(witness_mod, "knit", recording_knit)
    for cid in ("ex25-chain4", "star-2-2", "ex33-poset2"):
        assert exit_code(["fcy", f"corpus:{cid}", "--max-meshes", "5"]) in (0, 1, 2)
    assert budgets and set(budgets) == {5}
    budgets.clear()
    assert exit_code(["fcy", "corpus:ex33-poset2"]) in (0, 1)
    assert budgets and set(budgets) == {200}
    assert exit_code(["fcy", "corpus:star-2-2", "--max-meshes", "x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cmd", ["fcy", "witness"])
def test_field_reaches_the_knits_of_fcy_and_witness(cmd, monkeypatch, capsys):
    import posetar.witness as witness_mod
    from posetar.linalg import Field

    fields = []
    real_knit = witness_mod.knit

    def recording_knit(P, field, **kwargs):
        fields.append(field)
        return real_knit(P, field, **kwargs)

    monkeypatch.setattr(witness_mod, "knit", recording_knit)
    argv = ["--field", "gf:5", cmd, "corpus:ex33-poset2"]
    if cmd == "witness":
        argv += ["--max-meshes", "5"]
    assert exit_code(argv) in (0, 1, 2)
    capsys.readouterr()
    assert fields and set(fields) == {Field(5)}
