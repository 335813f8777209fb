import random
import string
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gen import Q
from homsuper.coeff import FieldSpec, field_for, prime_field
from homsuper.io import (
    AlgebraDocument,
    ParseError,
    parse_algebra_file,
    parse_expression,
    parse_report,
    parse_vector_expr,
    render_vector,
    serialize_algebra_document,
    serialize_report,
)
from homsuper.identities import run_checker
from homsuper.superalg import Basis, EvenLinearMap

QAB = field_for(FieldSpec("Q", None, ("a", "b")))
GF3 = prime_field(3)


def test_expression_examples():
    # -a/b + 1 equals (b - a)/b under cross multiplication
    got = parse_expression("-a/b + 1", QAB)
    want = parse_expression("(b - a)/b", QAB)
    assert got == want
    assert parse_expression("a^2", QAB) == parse_expression("a*a", QAB)
    assert parse_expression("1/2", GF3).v == 2


def test_expression_precedence_and_unary_minus():
    # '-' binds as a prefix on atoms, so -a^2 squares the negated atom
    assert parse_expression("-a^2", QAB) == parse_expression("a^2", QAB)
    assert parse_expression("0 - a^2", QAB) == -parse_expression("a^2", QAB)
    assert parse_expression("2*3 + 4", Q).v == Fraction(10)
    assert parse_expression("2*(3 + 4)", Q).v == Fraction(14)
    assert parse_expression("8/2/2", Q).v == Fraction(2)


def test_expression_errors_are_located():
    with pytest.raises(ParseError) as exc:
        parse_expression("a + ", QAB)
    assert exc.value.line == 1 and exc.value.col == 5
    with pytest.raises(ParseError) as exc:
        parse_expression("a + q", QAB)
    assert exc.value.col == 5
    with pytest.raises(ParseError):
        parse_expression("a ^ b", QAB)
    with pytest.raises(ParseError):
        parse_expression("1/0", Q)
    with pytest.raises(ParseError):
        parse_expression("a $ b", QAB)


def test_vector_expressions():
    basis = Basis(("e1", "e2"), (0, 1))
    vec = parse_vector_expr("-a*e1 + 1/2*e2", QAB, basis)
    assert QAB.eq(vec[0], parse_expression("0 - a", QAB).v)
    assert QAB.eq(vec[1], parse_expression("1/2", QAB).v)
    with pytest.raises(ParseError):
        parse_vector_expr("e1*e2", QAB, basis)
    with pytest.raises(ParseError):
        parse_vector_expr("e1 + a", QAB, basis)
    with pytest.raises(ParseError):
        parse_vector_expr("a/e1", QAB, basis)
    # a scalar zero is accepted as the zero vector
    assert all(QAB.is_zero(v) for v in parse_vector_expr("0", QAB, basis))


# one product cell, VALUE on line 8 from col 7
ONE_CELL = "[algebra]\nname = t\nfield = Q\neven = u\nodd = w\n\n[product]\nu*u = VALUE\n"


@pytest.mark.parametrize("value, msg, col", [
    ("u^2", "cannot raise a vector to a power", 8),
    ("u*u", "cannot multiply two vectors", 8),
    ("1/u", "cannot divide by a vector", 8),
    ("u + 1", "cannot add a scalar and a vector", 9),
    ("u/0", "division by zero", 8),
    ("2", "expected a vector-valued expression", 7),
])
def test_each_operator_refuses_where_it_is_written(value, msg, col):
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(ONE_CELL.replace("VALUE", value))
    assert (exc.value.msg, exc.value.line, exc.value.col) == (msg, 8, col)


@pytest.mark.parametrize("field, value, canonical", [
    ("Q", "u/2", "1/2*u"),
    ("Q", "-u", "-u"),
    ("Q", "u*2", "2*u"),
    ("Q", "2*u", "2*u"),
    ("Q\nparams = a", "u*a", "a*u"),
    ("Q\nparams = a", "u/a", "1/a*u"),
])
def test_each_operator_gives_the_vector_of_its_canonical_form(field, value, canonical):
    text = ONE_CELL.replace("VALUE", value).replace("field = Q", f"field = {field}")
    doc = parse_algebra_file(text)
    F, cell = doc.field, doc.table[0][0]
    assert all(F.eq(x, y) for x, y in zip(cell, parse_vector_expr(canonical, F, doc.basis)))
    assert render_vector(F, doc.basis, cell) == canonical


@pytest.mark.parametrize("text, msg, at", [
    (ONE_CELL + "[map b]\nu = u\n[map b]\n", "duplicate map 'b'", (11, 1)),
    (ONE_CELL.replace("name = t", "name = t\nname = s"), "duplicate key 'name'", (3, 1)),
    (ONE_CELL.replace("field = Q", "field = GF(x)"), "bad field 'GF(x)'", (3, 1)),
    (ONE_CELL.replace("odd = w", "odd = w\ntwist = beta"), "twist map 'beta' is not defined", (6, 1)),
])
def test_document_refusals_point_at_their_line(text, msg, at):
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text.replace("VALUE", "u"))
    assert (exc.value.msg, (exc.value.line, exc.value.col)) == (msg, at)


MINIMAL = """
# tiny definition
[algebra]
name = tiny
field = Q
params = a
even = u
odd = w

[product]
u*u = u
w*w = a*u

[map alpha]
u = u
w = a*w
"""


def test_changing_any_one_field_makes_documents_unequal():
    text = MINIMAL.replace("odd = w", "odd = w\ntwist = alpha\nnonzero = a\nzero = a - a\nsuggest = a=2")
    doc = parse_algebra_file(text + "\n[map beta]\nu = 2*u\n\n[claims]\nc = alpha ; check ; hom-lie ; holds\n")
    F, alpha = doc.field, doc.maps["alpha"]
    two_u = (F.from_int(2), F.zero)
    changes = [
        ("name", "tiny2"),
        ("field", field_for(FieldSpec("Q", None, ("a", "b")))),
        ("even", ("v",)),
        ("odd", ("v",)),
        ("twist", "beta"),
        ("claims", ()),
        ("nonzero", ()),
        ("zero", ("a",)),
        ("suggest", {"a": Fraction(3)}),
        ("maps", {"alpha": alpha}),
        ("table", ((two_u, doc.table[0][1]), doc.table[1])),
        ("maps", {**doc.maps, "alpha": EvenLinearMap(F, [alpha.cols[0], two_u])}),
    ]
    assert replace(doc) == doc
    for name, value in changes:
        changed = replace(doc, **{name: value})
        assert changed != doc and doc != changed, name


def test_parse_minimal_document():
    doc = parse_algebra_file(MINIMAL)
    assert doc.name == "tiny"
    assert doc.even == ("u",) and doc.odd == ("w",)
    stated = [[not all(map(doc.field.is_zero, vec)) for vec in row] for row in doc.table]
    assert stated == [[True, False], [False, True]]
    assert "alpha" in doc.maps
    A = doc.algebra()
    assert A.dim == 2


def test_empty_products_is_zero_algebra():
    text = "[algebra]\nname = z\nfield = Q\neven = u, v\n\n[product]\n"
    doc = parse_algebra_file(text)
    A = doc.algebra()
    assert all(
        A.field.is_zero(x)
        for row in A.table for vec in row for x in vec
    )
    assert run_checker("hom-lie", __import__("homsuper.superalg", fromlist=["hom"]).hom(A)).holds


def test_undeclared_name_is_located_error():
    text = MINIMAL.replace("w*w = a*u", "w*q = a*u")
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert "q" in exc.value.msg
    assert exc.value.line == 12


def test_parity_inconsistent_product_rejected():
    text = MINIMAL.replace("w*w = a*u", "w*w = a*w")
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert "parity" in exc.value.msg


def test_parity_error_points_at_its_product_line():
    head = "[algebra]\nname = t\nfield = Q\neven = u\nodd = v\n\n[product]\n"
    # a tab inside the key still reports the product's own line
    for key in ("u*u", "u\t*u", "u *\tu"):
        with pytest.raises(ParseError) as exc:
            parse_algebra_file(head + f"{key} = v\n")
        assert "parity-inconsistent product u*u" in exc.value.msg
        assert (exc.value.line, exc.value.col) == (8, 1)
    # grading is checked as each product is read, so a parity error comes
    # before a malformed value on a later line
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(head + "u*u = v\nv*v = u +\n")
    assert "parity-inconsistent" in exc.value.msg and exc.value.line == 8


def test_basis_errors_point_at_the_offending_name():
    head = "[algebra]\nname = t\nfield = Q\n"
    cases = [
        ("params = u\neven = u\n", "name used as both parameter and basis: ['u']", (5, 8)),
        ("even = u, w\nodd = v, w\n", "basis element in both parities: ['w']", (5, 10)),
        ("even = u, v,  u\n", "duplicate basis names", (4, 15)),
        ("even = u\nodd = v, v\n", "duplicate basis names", (5, 10)),
        ("params = a\n", "empty basis", (1, 1)),
    ]
    for body, msg, at in cases:
        with pytest.raises(ParseError) as exc:
            parse_algebra_file(head + body)
        assert (exc.value.msg, (exc.value.line, exc.value.col)) == (msg, at), body


def test_key_errors_point_at_the_offending_name():
    head = "[algebra]\nname = t\nfield = Q\neven = u\nodd = v\n\n"
    cases = [
        ("[product]\nu*q = u\n", "undeclared basis name 'q'", (8, 3)),
        ("[product]\n  u*q = u\n", "undeclared basis name 'q'", (8, 5)),
        ("[product]\n\tq * u = u\n", "undeclared basis name 'q'", (8, 2)),
        ("[map b]\n  q = u\n", "undeclared basis name 'q'", (8, 3)),
        ("[product]\n  u+u = u\n", "product key must be 'ei*ej'", (8, 4)),
        ("[product]\n u*u*u = u\n", "product key must be 'ei*ej'", (8, 5)),
        ("[product]\nu*u = u\n  u * u = u\n", "duplicate product u*u", (9, 3)),
    ]
    for body, msg, at in cases:
        with pytest.raises(ParseError) as exc:
            parse_algebra_file(head + body)
        assert (exc.value.msg, (exc.value.line, exc.value.col)) == (msg, at), body


def test_a_repeated_map_image_is_refused_at_its_key():
    head = "[algebra]\nname = t\nfield = Q\neven = u\nodd = v\n\n"
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(head + "[map b]\nu = u\nv = v\n  u = 2*u\n")
    assert (exc.value.msg, exc.value.line, exc.value.col) == ("duplicate image of u in map 'b'", 10, 3)


def test_declared_names_are_refused_where_they_are_written():
    head = "[algebra]\nname = t\nfield = Q\n"
    cases = [
        ("params = a, 1b\neven = u\n", "params name '1b' is not an identifier", (4, 13)),
        ("even = u v, w\n", "even name 'u v' is not an identifier", (4, 8)),
        ("even = u\nodd = w,  x-1\n", "odd name 'x-1' is not an identifier", (5, 11)),
    ]
    for body, msg, at in cases:
        with pytest.raises(ParseError) as exc:
            parse_algebra_file(head + body)
        assert (exc.value.msg, (exc.value.line, exc.value.col)) == (msg, at), body


def test_a_combining_accent_is_no_name():
    # e plus U+0301 is an identifier to Python, but the tokenizer reads e
    # and then an unexpected character, so it is refused as a name
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("[algebra]\nname = t\nfield = Q\neven = e\u0301, w\n")
    assert (exc.value.msg, exc.value.line, exc.value.col) == ("even name 'e\u0301' is not an identifier", 4, 8)


def test_a_parameter_no_value_can_write_is_refused_where_declared():
    # U+2118 is an identifier to Python, but no expression can spell it
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("[algebra]\nname = t\nfield = Q\nparams = \u2118\neven = u\n\n[product]\nu*u = \u2118*u\n")
    assert (exc.value.msg, exc.value.line, exc.value.col) == ("params name '\u2118' is not an identifier", 4, 10)


def test_a_repeated_parameter_is_reported_at_the_repeat():
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("[algebra]\nname = t\nfield = Q\nparams = a, a\neven = u\n")
    assert (exc.value.msg, exc.value.line, exc.value.col) == ("duplicate parameter names", 4, 13)


def test_integer_literals_are_ascii_digits():
    head = "[algebra]\nname = t\nfield = Q\nparams = \u03b1\neven = u\n\n[product]\n"
    # a superscript two is no digit of an integer literal, nor a letter
    # that starts a name; an Arabic-Indic three is not read as 3
    for sign in ("\u00b2", "\u0663"):
        with pytest.raises(ParseError) as exc:
            parse_algebra_file(head + f"u*u = {sign}*u\n")
        assert (exc.value.msg, exc.value.line, exc.value.col) == (f"unexpected character {sign!r}", 8, 7)
    # a Greek parameter name still parses, and so does a digit inside a name
    doc = parse_algebra_file(head + "u*u = \u03b1^2*u\n")
    assert doc.table[0][0] == (parse_expression("\u03b1*\u03b1", doc.field).v,)
    assert parse_expression("2*x\u0663", field_for(FieldSpec("Q", None, ("x\u0663",)))).v == {(1,): 2}


def test_duplicate_product_rejected():
    text = MINIMAL + "\n[product]\n"
    with pytest.raises(ParseError):
        parse_algebra_file(MINIMAL.replace("u*u = u", "u*u = u\nu*u = 2*u"))


def test_comments_and_whitespace_insensitive():
    spaced = MINIMAL.replace("u*u = u", "u*u   =    u   # trailing comment")
    doc1 = parse_algebra_file(MINIMAL)
    doc2 = parse_algebra_file(spaced)
    assert doc1 == doc2


def test_report_round_trip(corpus_instances):
    inst = corpus_instances[("m3-3-1", "base")]
    rep = run_checker("hom-lie", inst.hom, max_counterexamples=4)
    F, basis = inst.hom.field, inst.base.basis
    text = serialize_report(rep, F, basis)
    again = parse_report(text, F, basis)
    assert again == rep
    assert serialize_report(again, F, basis) == text
    # passing reports serialize to the documented shape
    ok = run_checker("hom-malcev", inst.hom)
    line = serialize_report(ok, F, basis)
    assert line.startswith('{"identity":"hom-malcev","holds":true,"tuples_checked":256')


# --- generation + fuzz (the 500/500 bulk lives in the acceptance suite; the
# hypothesis variants here shrink failures nicely during development)

names = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=3).map(lambda s: "b" + s),
    min_size=1, max_size=4, unique=True,
)


@settings(max_examples=60)
@given(names, st.integers(min_value=0, max_value=3), st.randoms(use_true_random=False))
def test_generated_documents_round_trip(basis_names, n_even, rng):
    doc = make_random_document(basis_names, n_even, rng)
    text = serialize_algebra_document(doc)
    doc2 = parse_algebra_file(text)
    assert doc2 == doc
    assert serialize_algebra_document(doc2) == text


def make_random_document(basis_names, n_even, rng) -> AlgebraDocument:
    n_even = min(n_even, len(basis_names))
    even = tuple(basis_names[:n_even])
    odd = tuple(basis_names[n_even:])
    params = tuple(p for p in ("a", "b") if rng.random() < 0.5)
    field = field_for(FieldSpec("Q", None, params))
    basis = Basis(even + odd, (0,) * len(even) + (1,) * len(odd))
    parities = dict(zip(basis.names, basis.parities))
    table = [[(field.zero,) * len(basis) for _ in basis.names] for _ in basis.names]
    for i, x in enumerate(basis.names):
        for j, y in enumerate(basis.names):
            if rng.random() < 0.4:
                want = (parities[x] + parities[y]) % 2
                table[i][j] = tuple(
                    field.from_int(rng.randint(-2, 2)) if parities[z] == want else field.zero
                    for z in basis.names
                )
    maps = {}
    if rng.random() < 0.7:
        cols = []
        for j, y in enumerate(basis.names):
            col = [
                field.from_int(rng.randint(-2, 2))
                if basis.parities[i] == basis.parities[j] else field.zero
                for i in range(len(basis))
            ]
            cols.append(tuple(col))
        maps["alpha"] = EvenLinearMap(field, cols)
    twist = "alpha" if maps and rng.random() < 0.5 else None
    return AlgebraDocument(
        "gen", field, even, odd, table, maps, twist, (),
        nonzero=("a",) if "a" in params else (),
    )


def test_fuzzed_malformed_inputs_error_cleanly():
    rng = random.Random(4242)
    base = MINIMAL
    crashes = 0
    for _ in range(120):
        text = list(base)
        for _ in range(rng.randint(1, 4)):
            op = rng.randrange(3)
            pos = rng.randrange(len(text))
            ch = rng.choice("[]=*^/#()abc123\n ")
            if op == 0:
                text.insert(pos, ch)
            elif op == 1 and text:
                del text[pos]
            else:
                text[pos] = ch
        mutated = "".join(text)
        try:
            parse_algebra_file(mutated)
        except ParseError as exc:
            assert exc.line >= 1 and exc.col >= 1
        except Exception:
            crashes += 1
    assert crashes == 0
