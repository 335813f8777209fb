import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import homsuper.corpus as corpus
from homsuper.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_corpus_malcev(capsys):
    code, out, _ = run(
        capsys, "check", "--corpus", "m3-3-1", "--map", "alpha1",
        "--identity", "hom-malcev",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["identity"] == "hom-malcev" and rep["holds"] is True
    assert rep["tuples_checked"] == 256


def test_check_exit_one_on_failure(capsys):
    code, out, _ = run(
        capsys, "check", "--corpus", "dt-flexible", "--map", "alpha",
        "--identity", "lie-admissible",
        "--set", "beta=3", "--set", "a=2", "--set", "t=1",
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["holds"] is False


def test_check_multiple_identities(capsys):
    code, out, _ = run(
        capsys, "check", "--corpus", "b42", "--map", "alpha",
        "--set", "a=1", "--set", "s=1",
        "--identity", "alternative", "--identity", "malcev-admissible",
        "--identity", "jordan-admissible",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3


def test_exit_two_on_bad_input(capsys):
    known = ", ".join(corpus.ENTRY_IDS)
    assert run(capsys, "check", "--corpus", "nope", "--identity", "left-alt") == (
        2, "", f"error: unknown corpus entry 'nope'; known: {known}\n")
    assert run(capsys, "check", "--corpus", "m3-3-1", "--identity", "bogus")[0] == 2
    assert run(capsys, "check", "--corpus", "m3-3-1")[0] == 2
    assert run(capsys, "check", "--corpus", "m3-3-1", "--file", "x", "--identity", "left-alt")[0] == 2
    # precondition violations are input errors, not failures
    assert run(capsys, "check", "--corpus", "b42", "--identity", "hom-lie")[0] == 2
    # constraint violation in bindings
    assert run(
        capsys, "check", "--corpus", "b42", "--identity", "alternative",
        "--set", "a=0", "--set", "s=1",
    ) == (2, "", "error: b42: constraint a != 0 violated at a=0, s=1\n")
    # a counterexample cap below 1 is an input error with a one-line message
    for cap in ("0", "-1"):
        code, _, err = run(
            capsys, "check", "--corpus", "b42", "--identity", "supercommutative",
            "--max-counterexamples", cap,
        )
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
    # twisting needs a map: the base variant names none
    code, _, err = run(capsys, "twist", "--corpus", "m3-3-1", "--map", "base")
    assert code == 2
    assert err == "error: twist needs --map NAME of a map, got 'base'\n"


def test_determinism(capsys):
    args = (
        "check", "--corpus", "m3-3-1", "--identity", "hom-lie",
        "--max-counterexamples", "3",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 1
    assert out1 == out2


def test_check_file_path(tmp_path, capsys):
    import homsuper.corpus as corpus

    path = tmp_path / "m3.salg"
    path.write_text(corpus.entry_text("m3-3-1"), encoding="utf-8")
    code, out, _ = run(
        capsys, "check", "--file", str(path), "--map", "alpha1",
        "--identity", "hom-malcev",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--corpus", "m3-3-1", "--map", "alpha1")
    assert code == 0
    code, out, _ = run(capsys, "validate", "--corpus", "m3-3-1", "--map", "alpha2")
    assert code == 1  # evenness report fails for the d entry


def test_twist_emits_parseable_document(capsys, tmp_path):
    code, out, _ = run(capsys, "twist", "--corpus", "m3-3-1", "--map", "alpha1")
    assert code == 0
    from homsuper.io import parse_algebra_file

    doc = parse_algebra_file(out)
    assert doc.twist == "twist"
    # guarded twist refuses the published non-endomorphism
    code, _, err = run(capsys, "twist", "--corpus", "kaplansky-k3", "--map", "alpha")
    assert code == 2
    assert "endomorphism" in err
    # untwisting the emitted twist recovers the original product
    code, out2, _ = run(
        capsys, "check", "--corpus", "m3-3-1", "--map", "alpha1",
        "--identity", "multiplicative",
    )
    assert code == 0


def test_derive_commutator_plus(capsys):
    for cmd in (
        ("derive", "--corpus", "b42", "--map", "alpha", "--set", "a=1", "--set", "s=1", "--n", "2"),
        ("commutator", "--corpus", "b42"),
        ("plus", "--corpus", "b42"),
    ):
        code, out, _ = run(capsys, *cmd)
        assert code == 0
        from homsuper.io import parse_algebra_file

        parse_algebra_file(out)


def test_corpus_listing(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    for entry in ("m3-3-1", "b42", "k3-flexible", "kaplansky-k3", "dt-jordan", "dt-flexible"):
        assert entry in out


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "DISCREPANCY" in out and "FAIL" not in out.replace("failures", "")
    code2, out2, _ = run(capsys, "verify-paper")
    assert out2 == out  # byte-identical reruns


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    rows = json.loads(out)
    assert any(r["status"] == "DISCREPANCY" for r in rows)
    assert all(r["status"] in ("PASS", "DISCREPANCY") for r in rows)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "check", "--corpus", "m3-3-1", "--identity", "superskew",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["holds"] is True


def _gf_document(p):
    return (
        "[algebra]\n"
        "name = big\n"
        f"field = GF({p})\n"
        "even = e\n"
        "odd = u\n"
        "\n"
        "[product]\n"
        "e*e = e\n"
        "e*u = u\n"
    )


def test_large_gf_modulus(tmp_path, capsys):
    import time

    prime = tmp_path / "prime.salg"
    prime.write_text(_gf_document(1000000000000000003), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", "--file", str(prime))
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    # 1000000000000000001 = 101 * 9901 * 999999000001
    composite = tmp_path / "composite.salg"
    composite.write_text(_gf_document(1000000000000000001), encoding="utf-8")
    code, out, err = run(capsys, "validate", "--file", str(composite))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


_HEAD = "[algebra]\nname = hostile\nfield = Q\neven = e\nodd = u\n\n[product]\n"

_HOSTILE_FILES = {
    # a huge exponent would take minutes (and print past the digit limit)
    "exponent": (_HEAD + "u*u = 3^2000000*u\n").encode(),
    # nested powers multiply their exponents
    "nested-exponent": (_HEAD + "e*e = (3^1000)^1000*e\n").encode(),
    # 5000 nested parentheses or prefix minus signs would exhaust the stack
    "parentheses": (_HEAD + "e*e = " + "(" * 5000 + "e" + ")" * 5000 + "\n").encode(),
    "minus-signs": (_HEAD + "e*e = " + "-" * 5000 + "e\n").encode(),
    # beyond the interpreter's integer digit limit
    "literal": (_HEAD + "e*e = " + "7" * 5000 + "*e\n").encode(),
    # not UTF-8
    "encoding": _HEAD.encode() + b"e*e = e \xff\xfe\n",
}


def _assert_one_line_exit_two(capsys, argv, bound=5.0):
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < bound, argv
    assert code == 2, (argv, code)
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    return err


def test_hostile_files_end_in_one_error_line(tmp_path, capsys):
    errors = {}
    for name, data in _HOSTILE_FILES.items():
        path = tmp_path / f"{name}.salg"
        path.write_bytes(data)
        errors[name] = _assert_one_line_exit_two(capsys, ["validate", "--file", str(path)])
        assert "line 8, col " in errors[name], (name, errors[name])
    assert "line 8, col 9" in errors["encoding"] and "UTF-8" in errors["encoding"]
    # a value's error points into the value: the exponent of 3^2000000
    assert "line 8, col 9" in errors["exponent"], errors["exponent"]
    # a table entry past the integer digit limit, the product of two
    # literals under it, cannot be printed by a construction
    path = tmp_path / "render.salg"
    path.write_text(_HEAD + f"e*e = {'7' * 3000}*{'7' * 3000}*e\n", encoding="utf-8")
    err = _assert_one_line_exit_two(capsys, ["plus", "--file", str(path)])
    assert "cannot be rendered" in err


def test_binding_errors_point_into_the_binding(tmp_path, capsys):
    head = "[algebra]\nname = b\nfield = Q\nparams = a\neven = e\n"
    cases = {
        # `suggest = a=1/0`: the value starts at col 13
        head + "suggest = a=1/0\n[product]\ne*e = e\n":
            "error: line 6, col 13: bad numeric value '1/0'\n",
        head + "suggest = a=1,  b\n[product]\ne*e = e\n":
            "error: line 6, col 17: binding 'b' must look like name=value\n",
        head + "[product]\ne*e = a*e\n[claims]\nc = base ; check ; left-alt ; holds ; set a=zz\n":
            "error: line 9, col 45: bad numeric value 'zz'\n",
        head + "[product]\ne*e = a*e\n[claims]\nc = base ; check ; left-alt ; holds ; set a=1, b\n":
            "error: line 9, col 48: binding 'b' must look like name=value\n",
        # an empty parameter name is refused at the binding
        head + "suggest = =1\n[product]\ne*e = e\n":
            "error: line 6, col 11: binding '=1' has an empty parameter name\n",
        head + "[product]\ne*e = a*e\n[claims]\nc = base ; check ; left-alt ; holds ; set =2\n":
            "error: line 9, col 43: binding '=2' has an empty parameter name\n",
        # a repeated parameter name is refused at the repeated binding
        head + "suggest = a=1, a=2\n[product]\ne*e = e\n":
            "error: line 6, col 16: binding 'a=2' repeats parameter 'a'\n",
        head + "[product]\ne*e = a*e\n[claims]\nc = base ; check ; left-alt ; holds ; set a=1,a =2\n":
            "error: line 9, col 47: binding 'a =2' repeats parameter 'a'\n",
        # constraint expressions point into the constraint too
        head + "nonzero = a +* 2\n[product]\ne*e = e\n":
            "error: line 6, col 14: expected a value, found '*'\n",
        head + "zero = a^2000\n[product]\ne*e = e\n":
            "error: line 6, col 10: exponent 2000 is above the cap of 1000\n",
        head + "nonzero = b\n[product]\ne*e = e\n":
            "error: line 6, col 11: undeclared parameter 'b'\n",
    }
    for text, want in cases.items():
        path = tmp_path / "bindings.salg"
        path.write_text(text, encoding="utf-8")
        assert run(capsys, "validate", "--file", str(path)) == (2, "", want), text



def test_a_map_named_base_is_refused_at_its_header(tmp_path, capsys):
    # `base` names the stated table's variant, so such a map could never be chosen
    path = tmp_path / "base.salg"
    path.write_text(_HEAD + "e*e = e\n\n[map base]\ne = 2*e\n", encoding="utf-8")
    want = "error: line 10, col 1: map name 'base' is reserved for the stated table\n"
    for argv in (("check", "--identity", "left-alt", "--map", "base"), ("validate", "--map", "base"),
                 ("twist", "--map", "base"), ("validate",)):
        assert run(capsys, *argv, "--file", str(path)) == (2, "", want), argv


def test_set_errors_name_the_binding(capsys):
    base = ("check", "--corpus", "b42", "--identity", "left-alt")
    cases = {
        "=1": "error: --set: binding '=1' has an empty parameter name\n",
        " = 1": "error: --set: binding ' = 1' has an empty parameter name\n",
        "a": "error: --set: binding 'a' must look like name=value\n",
        "a=zz": "error: --set: bad numeric value 'zz'\n",
    }
    for item, want in cases.items():
        assert run(capsys, *base, "--set", item) == (2, "", want), item
    # a name set twice is refused, not overwritten by the later value
    twice = (*base, "--set", "a=1", "--set", "a=0", "--set", "s=1")
    assert run(capsys, *twice) == (2, "", "error: --set: binding 'a=0' repeats parameter 'a'\n")


def test_huge_binding_values_are_refused_at_the_value(tmp_path, capsys):
    # Fraction would compute 10**exponent: past the digit limit a value is
    # refused before it is built, with either sign of the exponent
    for value in ("1e5000", "1e100000000", "-2.5e-100000000", "1e-4300"):
        err = _assert_one_line_exit_two(
            capsys, ["check", "--corpus", "b42", "--set", f"a={value}", "--set", "s=1",
                     "--identity", "left-alt"])
        assert err == f"error: --set: numeric value {value!r} has more than 4300 digits\n"
    head = "[algebra]\nname = b\nfield = Q\nparams = a\neven = e\n"
    cases = {
        head + "suggest = a=1e100000000\n[product]\ne*e = e\n": "line 6, col 13",
        head + "[product]\ne*e = a*e\n[claims]\nc = base ; check ; left-alt ; holds ; set a=1e-5000\n":
            "line 9, col 45",
    }
    for text, at in cases.items():
        path = tmp_path / "huge.salg"
        path.write_text(text, encoding="utf-8")
        err = _assert_one_line_exit_two(capsys, ["validate", "--file", str(path)])
        assert err.startswith(f"error: {at}: numeric value "), err
    # under the limit a value keeps its meaning, and a zero mantissa is 0
    # whatever its exponent
    code, out, _ = run(capsys, "check", "--corpus", "b42", "--set", "a=1e4299", "--set", "s=1",
                       "--identity", "left-alt")
    assert code == 0 and json.loads(out)["holds"] is True
    err = _assert_one_line_exit_two(
        capsys, ["check", "--corpus", "b42", "--set", "a=0e100000000", "--set", "s=1",
                 "--identity", "left-alt"])
    assert "constraint a != 0 violated at a=0" in err


def _basis_document(even: int, odd: int) -> str:
    names = [f"e{k}" for k in range(even)], [f"u{k}" for k in range(odd)]
    lines = [f"{key} = {', '.join(ns)}\n" for key, ns in zip(("even", "odd"), names) if ns]
    return "[algebra]\nname = big\nfield = Q\n" + "".join(lines) + "\n[product]\ne0*e0 = e0\n"


def test_basis_size_is_capped_at_its_first_name_past_the_cap(tmp_path, capsys):
    path = tmp_path / "big.salg"
    path.write_text(_basis_document(32, 0), encoding="utf-8")
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 0 and err == ""
    # the 33rd name is e32 at col 158, or u12 at col 57 after 20 even names
    for (even, odd), at in {(33, 0): "line 4, col 158", (20, 13): "line 5, col 57",
                            (400, 0): "line 4, col 158"}.items():
        path.write_text(_basis_document(even, odd), encoding="utf-8")
        for argv in (("validate",), ("check", "--identity", "jordan-expansion")):
            err = _assert_one_line_exit_two(capsys, [*argv, "--file", str(path)])
            assert err == f"error: {at}: basis of {even + odd} names is above the cap of 32\n", err


def test_json_only_on_the_commands_that_read_it(capsys):
    for command in ("twist", "derive", "commutator", "plus"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--corpus", "b42", "--json"])
        assert exc.value.code == 2, command
        assert "unrecognized arguments: --json" in capsys.readouterr().err
    code, out, _ = run(capsys, "check", "--corpus", "b42", "--identity", "left-alt", "--json")
    assert code in (0, 1) and json.loads(out)[0]["identity"] == "left-alt"
    code, out, _ = run(capsys, "validate", "--corpus", "b42", "--map", "alpha", "--json")
    assert [r["identity"] for r in json.loads(out)] == ["grading", "even", "weak-morphism"]


def test_argument_errors_are_one_line(capsys):
    for argv, msg in (
        (["twist", "--corpus", "b42", "--json"], "unrecognized arguments: --json"),
        (["check", "--corpus", "b42", "--identity", "left-alt", "--max-counterexamples", "x"],
         "argument --max-counterexamples: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err == f"error: {msg}\n", argv
    # --help keeps its usage text
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: homsuper check")


def test_claim_errors_point_at_the_segment(tmp_path, capsys):
    lines = corpus.entry_text("m3-3-1").splitlines(keepends=True)
    assert lines[35].startswith("alpha1-even = ") and lines[38].startswith("alpha1-twisted-e3-e4 = ")
    value = "alpha1-twisted-e3-e4 = alpha1 ; value ; product ; "
    cases = [
        (36, "alpha1-endo = alpha1 ; check ; even ; holds",
         "line 36, col 1: duplicate claim key 'alpha1-endo'"),
        (36, "alpha1-even = alpha1", "line 36, col 15: claim needs at least 'variant ; kind ; ...'"),
        (36, "alpha1-even = alpha1 ; check ; even",
         "line 36, col 24: check claim needs 'checker ; holds|fails'"),
        (36, "alpha1-even = alpha1 ; check ; even ; maybe",
         "line 36, col 39: check claim needs 'checker ; holds|fails'"),
        (36, "alpha1-even = alpha1 ; check ; even ; holds ; extra",
         "line 36, col 47: check claim needs 'checker ; holds|fails'"),
        (39, value + "e3, e4 ; note: published",
         "line 39, col 33: value claim needs 'form ; tuple ; expression'"),
        (39, value + "e3, e4 ; -a*e4 ; e1",
         "line 39, col 68: value claim needs 'form ; tuple ; expression'"),
        (39, value + "e3, zz ; -a*e4", "line 39, col 55: unknown basis element 'zz' in claim"),
        (36, "alpha1-even = alpha1 ; chek ; even ; holds", "line 36, col 24: unknown claim kind 'chek'"),
    ]
    for lineno, text, want in cases:
        edited = list(lines)
        edited[lineno - 1] = text + "\n"
        path = tmp_path / "claims.salg"
        path.write_text("".join(edited), encoding="utf-8")
        assert run(capsys, "validate", "--file", str(path)) == (2, "", f"error: {want}\n"), text

def test_exponent_and_depth_caps_admit_their_limits(tmp_path, capsys):
    from homsuper.io import MAX_DEPTH, MAX_EXPONENT

    body = "(" * (MAX_DEPTH - 1) + "e" + ")" * (MAX_DEPTH - 1)
    path = tmp_path / "limits.salg"
    path.write_text(_HEAD + f"e*e = 1^{MAX_EXPONENT}*{body}\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 0 and err == ""


def test_derive_level_cap(capsys):
    err = _assert_one_line_exit_two(
        capsys,
        ["derive", "--corpus", "b42", "--map", "alpha", "--set", "a=1", "--set", "s=1",
         "--n", "40"],
    )
    assert "cap" in err


def test_value_work_cap_refuses_at_the_operator(tmp_path, capsys):
    from homsuper.io import MAX_WORK

    head = "[algebra]\nname = w\nfield = Q\nparams = a, b, c\neven = u\n\n[product]\n"
    path = tmp_path / "work.salg"
    refused = {
        # multivariate powers: squaring up to (a+b+c)^200, 20,301 terms,
        # makes about 28M coefficient products
        "(a+b+c)^200*u": "col 14: '^'",
        "(a+b+c)^100*u": "col 14: '^'",
        # a sum over two denominators of many terms cross-multiplies them
        "(1/(a+b+c)^40 + 1/(a+b+c+1)^40)*u": "col 34: '^'",
        "(1/(a+b+c)^30 + 1/(a+b+c+1)^30)*u": "col 21: '+'",
        # a product makes one coefficient product per pair of terms, and a
        # quotient multiplies by the divisor's inverse
        "(a+b+c)^40*(a+b+c+1)^25*u": "col 17: '*'",
        "(a+b+c)^40/(1/(a+b+c+1)^25)*u": "col 17: '/'",
    }
    for value, at in refused.items():
        path.write_text(head + f"u*u = {value}\n", encoding="utf-8")
        err = _assert_one_line_exit_two(capsys, ["validate", "--file", str(path)])
        assert err == f"error: line 8, {at} would need more than {MAX_WORK} coefficient products\n", value
    # the cap bounds work, not degree: a univariate power at the exponent cap passes
    for value in ("(a+1)^1000*u", "(a+b+c)^50*u", "(1/(a+b+c)^20 + 1/(a+b+c+1)^20)*u"):
        path.write_text(head + f"u*u = {value}\n", encoding="utf-8")
        assert run(capsys, "validate", "--file", str(path))[0] == 0, value


def test_map_compositions_are_refused_past_the_work_cap(tmp_path, capsys):
    from homsuper.io import MAX_WORK

    # the parser admits each entry; a product of two makes the work:
    # (a+b+c)^50 has 1326 terms, (a+b+c+1)^20 1771, (a+b+c)^45 1081
    def write(maps, twist=""):
        path = tmp_path / "maps.salg"
        path.write_text("[algebra]\nname = w\nfield = Q\nparams = a, b, c\neven = u\n" + twist
                        + "\n[product]\nu*u = u\n\n" + maps, encoding="utf-8")
        return str(path)

    cap = f"would need more than {MAX_WORK} coefficient products\n"
    twisted = write("[map alpha]\nu = (a+b+c)^50*u\n\n[map beta]\nu = (a+b+c+1)^20*u\n", "twist = alpha\n")
    # the variant composes beta with the twist alpha: 1771 * 1326 products
    for cmd in ("validate", "check", "twist"):
        err = _assert_one_line_exit_two(capsys, [cmd, "--file", twisted, "--map", "beta"])
        assert err == f"error: variant beta {cap}", cmd
    # with the identity twist the variant builds, and the weak-morphism row
    # mu(beta(u), beta(u)) is refused (1081^2, then times the constant of
    # u*u), also before twisting by beta; (a+b+c)^30 (496 terms) runs
    path = write("[map beta]\nu = (a+b+c)^45*u\n")
    for cmd in ("validate", "twist"):
        err = _assert_one_line_exit_two(capsys, [cmd, "--file", path, "--map", "beta"])
        assert err == f"error: the weak-morphism check {cap}", cmd
    code, _, err = run(capsys, "validate", "--file", write("[map beta]\nu = (a+b+c)^30*u\n"), "--map", "beta")
    assert (code, err) == (1, "")


def test_numeric_map_compositions_are_not_bounded_by_the_work_cap(tmp_path, capsys):
    # numeric values do not grow, so a dense table and a dense map at
    # MAX_BASIS-sized work stay admitted: with p = (1, 2, 3, 4, -1, -2, -3, -3),
    # which sums to 1, and w the sum of the basis, e_i*e_j = p_i p_j w and
    # beta(e_j) = p_j w make beta a weak endomorphism
    p = (1, 2, 3, 4, -1, -2, -3, -3)
    names = [f"e{i}" for i in range(len(p))]
    w = lambda c: " + ".join(f"{c}*{e}" for e in names)
    lines = [f"{a}*{b} = {w(p[i] * p[j])}" for i, a in enumerate(names) for j, b in enumerate(names)]
    beta = [f"{e} = {w(p[j])}" for j, e in enumerate(names)]
    path = tmp_path / "dense.salg"
    path.write_text("[algebra]\nname = dense\nfield = Q\neven = " + ", ".join(names)
                    + "\n\n[product]\n" + "\n".join(lines) + "\n\n[map beta]\n" + "\n".join(beta) + "\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "validate", "--file", str(path), "--map", "beta")
    assert (code, err) == (0, "")
    assert out.count('"holds":true') == 3, out
    code, _, err = run(capsys, "twist", "--file", str(path), "--map", "beta")
    assert (code, err) == (0, "")


def test_symbolic_derive_is_refused_before_its_power_outgrows_the_cap(capsys):
    from homsuper.io import MAX_WORK

    # the entries of alpha^(2^n) over Frac(Q[a,b,c,t]) grow about fourfold
    # per level, and a step of the power costs about the square of that
    err = _assert_one_line_exit_two(capsys, ["derive", "--corpus", "dt-jordan", "--map", "alpha", "--n", "7"])
    assert err == f"error: power 127 of the map would need more than {MAX_WORK} coefficient products\n"
    # bound, every entry is one rational: level 10 keeps its bytes
    sets = ["--set", "a=1", "--set", "b=1", "--set", "c=0", "--set", "t=1"]
    code, out, err = run(capsys, "derive", "--corpus", "dt-jordan", "--map", "alpha", "--n", "10", *sets)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _DERIVE_10


_DERIVE_10 = "59860e146eff45731a55bc76a72dd80df3a2325d4fd22e9c6933c52b39dcc896"


def test_error_paths_of_sources_and_values(tmp_path, capsys):
    assert run(capsys, "check", "--identity", "left-alt") == (
        2, "", "error: one of --corpus or --file is required\n")
    assert run(capsys, "twist", "--corpus", "m3-3-1") == (2, "", "error: twist needs --map NAME\n")
    path = tmp_path / "divide.salg"
    head = "[algebra]\nname = d\nfield = Q\neven = u, w\n[product]\n"
    path.write_text(head + "u*u = u/w\n", encoding="utf-8")
    assert run(capsys, "validate", "--file", str(path)) == (
        2, "", "error: line 6, col 8: cannot divide by a vector\n")
    path.write_text(head + "u*u = u/2\n", encoding="utf-8")
    code, out, err = run(capsys, "plus", "--file", str(path))
    assert (code, err) == (0, "") and "u*u = 1/2*u" in out


# -- Fuzzed files: bundled documents with a few byte-level edits, and bare
# random bytes, through `validate --file` and `check --file`.

_TOKENS = [b"=", b";", b",", b"*", b"/", b"^", b"(", b")", b"-", b"+", b"0", b"/0", b"1/2", b"\n",
           b"[", b"]", b"e1", b"x", b"a", b"t", b"999999999999", b"^1000", b"set ", b"note:",
           b"fragile", b" ; ", b"[map twist]\n", b"twist = alpha\n", b"nonzero = a\n", b"zero = a\n",
           b"suggest = ", b"field = GF(3)\n", b"params = \n", b"even = \n", b"\xff", b"\x00"]


def _fuzzed_documents():
    bundled = [corpus.entry_text(e).encode() for e in corpus.ENTRY_IDS]
    chunk = st.one_of(st.sampled_from(_TOKENS), st.binary(max_size=8))

    @st.composite
    def edited(draw):
        data = bytearray(draw(st.sampled_from(bundled)))
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, len(data)))
            j = draw(st.integers(i, min(len(data), i + 24)))
            data[i:j] = draw(chunk) if draw(st.booleans()) else b""
        return bytes(data)

    return st.one_of(edited(), st.binary(max_size=200))


def test_fuzzed_files_end_in_exit_0_1_or_2(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "doc.salg"

    @settings(max_examples=200, deadline=2000)
    @given(_fuzzed_documents())
    def check(data):
        path.write_bytes(data)
        for argv in (["validate", "--file", str(path)],
                     ["check", "--file", str(path), "--identity", "left-alt"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            err = err.getvalue()
            assert code in (0, 1, 2), (argv, data)
            assert "Traceback" not in err, (argv, data)
            if code == 2:
                assert len(err.splitlines()) <= 1 and err.startswith("error: "), (err, data)

    check()


def test_no_command_imports_the_oracle():
    # the oracle is a witness in tests only: replaying every bundled claim
    # runs on the checker route and never loads it
    script = """
import os, sys
import homsuper.cli
code = homsuper.cli.main(["verify-paper", "--out", os.devnull])
print(code, "homsuper.oracle" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout.split() == ["0", "False"]
