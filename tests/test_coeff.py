import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sympy

from homsuper.coeff import (
    CharacteristicError,
    FieldMismatchError,
    FieldSpec,
    FracPayload,
    Scalar,
    UnboundParameterError,
    ZeroInversionError,
    field_for,
    poly_add,
    poly_mul,
    poly_neg,
    poly_sub,
    prime_field,
    rationals,
    scalar_arith,
    scalar_inv,
    scalar_is_zero,
    substitute_params,
)
from homsuper.io import parse_expression

Q = rationals()
GF3 = prime_field(3)
QAB = field_for(FieldSpec("Q", None, ("a", "b")))
QC = field_for(FieldSpec("Q", None, ("c",)))
GFAS = field_for(FieldSpec("GF", 3, ("a", "s")))


def q(x):
    return Scalar(Q, Q.from_fraction(Fraction(x)))


def sym(text, field=QAB):
    return parse_expression(text, field)


def test_halves_sum_to_one():
    assert scalar_arith("add", q(Fraction(1, 2)), q(Fraction(1, 2))) == q(1)


def test_reciprocal_pair_over_fraction_field():
    x = sym("a/b")
    y = sym("b/a")
    assert scalar_arith("mul", x, y) == sym("1")


def test_gf3_addition_wraps():
    two = Scalar(GF3, GF3.from_int(2))
    assert scalar_arith("add", two, two) == Scalar(GF3, GF3.from_int(1))


def test_inverses():
    assert scalar_inv(q(2)) == q(Fraction(1, 2))
    assert scalar_inv(Scalar(GF3, 2)) == Scalar(GF3, 2)  # 2*2 = 4 = 1 mod 3
    assert sym("b") * scalar_inv(sym("b")) == sym("1")
    with pytest.raises(ZeroInversionError):
        scalar_inv(q(0))


def test_zero_tests():
    assert scalar_is_zero(sym("a/b") + sym("-a/b"))
    # (a+b)^2 - a^2 - 2ab - b^2 expands to zero term by term
    lhs = sym("(a+b)*(a+b)")
    rhs = sym("a^2") + sym("2*a*b") + sym("b^2")
    assert scalar_is_zero(lhs - rhs)
    # asserted nonzero away from c = 1/2
    assert not scalar_is_zero(sym("1/(2*c) - 1", QC))


def test_substitution():
    assert substitute_params(sym("a^4"), {"a": 1, "b": 0}) == q(1)
    assert substitute_params(sym("a/b"), {"a": 2, "b": 1}) == q(2)
    v = substitute_params(sym("1/(2*c) - 1", QC), {"c": 1})
    assert v == q(Fraction(-1, 2))
    with pytest.raises(UnboundParameterError):
        substitute_params(sym("a/b"), {"a": 1})
    with pytest.raises(ZeroInversionError):
        substitute_params(sym("1/(2*c) - 1", QC), {"c": 0})


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        scalar_arith("add", q(1), Scalar(GF3, 1))


def test_scalar_operators_match_field_ops():
    ops = [("add", operator.add), ("sub", operator.sub), ("mul", operator.mul),
           ("div", operator.truediv)]
    cases = [
        (Q, q(Fraction(3, 4)), q(Fraction(-7, 5))),
        (GF3, Scalar(GF3, 2), Scalar(GF3, 1)),
        (QAB, sym("(a+b)/(3*a*b^2)"), sym("2/(a+1)")),
        (GFAS, sym("a/(a*s+1)", GFAS), sym("a + s", GFAS)),
    ]
    for F, x, y in cases:
        for other in (y, 2, Fraction(5, 2)):
            ov = other.v if isinstance(other, Scalar) else F.from_fraction(other)
            for name, fn in ops:
                op = getattr(F, name)
                for got, want in ((fn(x, other), op(x.v, ov)), (fn(other, x), op(ov, x.v))):
                    assert got.field is F and got == Scalar(F, want), (F, name, other)
                    assert F.render(got.v) == F.render(want)
            with pytest.raises(TypeError):
                x + "a"
            with pytest.raises(TypeError):
                "a" - x
    for _, fn in ops:
        with pytest.raises(FieldMismatchError):
            fn(q(1), Scalar(GF3, 1))
        with pytest.raises(FieldMismatchError):
            fn(Scalar(GF3, 1), q(1))


def test_characteristic_guard():
    gf2 = prime_field(2)
    with pytest.raises(CharacteristicError):
        gf2.from_fraction(Fraction(1, 2))


def test_gf_modulus_must_be_prime():
    with pytest.raises(Exception):
        FieldSpec("GF", 4)


small = st.integers(min_value=-6, max_value=6)
nonzero_small = small.filter(lambda n: n != 0)


def _poly(field, coeffs):
    # coeffs: triple (c0, ca, cb) -> c0 + ca*a + cb*b
    c0, ca, cb = coeffs
    expr = f"({c0}) + ({ca})*a + ({cb})*b"
    return parse_expression(expr.replace("(-", "(0-"), field)


triples = st.tuples(small, small, small)


@given(triples, triples, triples)
def test_field_axioms_random(x, y, z):
    sx, sy, sz = (_poly(QAB, t) for t in (x, y, z))
    assert (sx + sy) + sz == sx + (sy + sz)
    assert sx + sy == sy + sx
    assert sx * sy == sy * sx
    assert (sx * sy) * sz == sx * (sy * sz)
    assert sx * (sy + sz) == sx * sy + sx * sz
    if not sy.is_zero():
        assert sy * scalar_inv(sy) == sym("1")


@given(triples, triples, triples)
def test_cross_multiplication_equivalence(p, qq, r):
    sp, sq, sr = (_poly(QAB, t) for t in (p, qq, r))
    if sq.is_zero() or sr.is_zero():
        return
    frac = sp / sq
    scaled = (sp * sr) / (sq * sr)
    assert frac == scaled


@given(triples, triples, st.sampled_from(["+", "-", "*"]),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_substitution_commutes_with_arithmetic(x, y, op, va, vb):
    sx, sy = _poly(QAB, x), _poly(QAB, y)
    combined = {"+": sx + sy, "-": sx - sy, "*": sx * sy}[op]
    binding = {"a": va, "b": vb}
    lhs = substitute_params(combined, binding)
    ex, ey = substitute_params(sx, binding), substitute_params(sy, binding)
    rhs = {"+": ex + ey, "-": ex - ey, "*": ex * ey}[op]
    assert lhs == rhs


def test_gf_fraction_field():
    F = field_for(FieldSpec("GF", 3, ("a", "s")))
    x = parse_expression("a*s^2 + 2", F)
    y = parse_expression("2*a*s^2 + 4", F)
    assert y == x + x
    assert F.spec.characteristic == 3


def test_render_parse_round_trip():
    cases = ["-a/b + 1", "a^2", "1/2", "(a+b)/(a*b)", "-3/2*a*b", "a^2 - 2*b"]
    for text in cases:
        s = parse_expression(text, QAB)
        again = parse_expression(repr(s), QAB)
        assert s == again, text


def test_is_prime_against_trial_division():
    from homsuper.coeff import is_prime

    def slow(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == slow(n) for n in range(3000))
    assert is_prime(1000000000000000003)
    assert is_prime(2**61 - 1)
    assert not is_prime(1000000000000000001)  # 101 * 9901 * 999999000001
    # strong pseudoprimes to every prime base up to 7, 23 and 37 in turn
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_gf_modulus_above_primality_bound_refused():
    from homsuper.coeff import CoeffError

    with pytest.raises(CoeffError) as info:
        FieldSpec("GF", 3317044064679887385961981)
    assert "\n" not in str(info.value)


# Q payloads: an int for an integral value, a Fraction otherwise
rationals_st = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
).map(lambda x: x.numerator if x.denominator == 1 else x)


def _canonical(x):
    assert not isinstance(x, float) and not isinstance(x, bool)
    if isinstance(x, Fraction):
        assert x.denominator != 1, x
    else:
        assert type(x) is int, x
    return Fraction(x)


@given(rationals_st, rationals_st)
def test_rational_payloads_are_canonical_and_exact(x, y):
    fx, fy = Fraction(x), Fraction(y)
    assert _canonical(Q.add(x, y)) == fx + fy
    assert _canonical(Q.sub(x, y)) == fx - fy
    assert _canonical(Q.mul(x, y)) == fx * fy
    assert _canonical(Q.neg(x)) == -fx
    assert Q.eq(x, y) is (fx == fy)
    assert Q.is_zero(x) is (fx == 0)
    if fy:
        assert _canonical(Q.inv(y)) == 1 / fy
        assert _canonical(Q.div(x, y)) == fx / fy
    else:
        with pytest.raises(ZeroInversionError):
            Q.inv(y)
        with pytest.raises(ZeroInversionError):
            Q.div(x, y)
    assert _canonical(Q.from_fraction(fx)) == fx
    assert _canonical(Q.normal(fx)) == fx



# Operands for the exact kernel: small and huge numerators and denominators,
# and pairs whose sum, difference or product cancels to an integer or to 0
_num = st.one_of(st.integers(-12, 12), st.integers(-10**60, 10**60))
_den = st.one_of(st.integers(1, 12), st.integers(1, 10**60))
exact_st = st.builds(lambda n, d: Q.normal(Fraction(n, d)), _num, _den)


@st.composite
def exact_pairs(draw):
    x = draw(exact_st)
    cancel = draw(st.sampled_from((None, "add", "sub", "mul", "div")))
    k = Fraction(draw(st.one_of(st.integers(-3, 3), _num)))
    if cancel is None or (cancel == "mul" and not x) or (cancel == "div" and not k):
        y = Fraction(draw(exact_st))
    elif cancel == "add":
        y = k - x
    elif cancel == "sub":
        y = x - k
    elif cancel == "mul":
        y = k / x
    else:
        y = x / k
    return x, Q.normal(y)


def _same_payload(got, want):
    assert type(got) is type(want), (got, want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert Q.key(got) == Q.key(want)
    assert Q.render(got) == Q.render(want)
    if type(got) is Fraction:
        assert got.denominator > 1
        for twin in (pickle.loads(pickle.dumps(got)), copy.copy(got), copy.deepcopy(got)):
            assert type(twin) is Fraction
            assert (twin.numerator, twin.denominator) == (got.numerator, got.denominator)
            assert repr(twin) == repr(got) and hash(twin) == hash(got)


@settings(max_examples=400)
@given(exact_pairs())
def test_rational_kernel_matches_stdlib_fractions(pair):
    x, y = pair
    _same_payload(Q.add(x, y), Q.normal(x + y))
    _same_payload(Q.sub(x, y), Q.normal(x - y))
    _same_payload(Q.mul(x, y), Q.normal(x * y))
    _same_payload(Q.neg(x), Q.normal(-x))
    _same_payload(Q.neg(y), Q.normal(-y))
    for a, b in ((x, y), (y, x)):
        if b:
            _same_payload(Q.inv(b), Q.normal(1 / Fraction(b)))
            _same_payload(Q.div(a, b), Q.normal(Fraction(a) / b))
        else:
            with pytest.raises(ZeroInversionError):
                Q.inv(b)
            with pytest.raises(ZeroInversionError):
                Q.div(a, b)
    assert Q.eq(x, y) is (x == y) and Q.eq(y, x) is (x == y)
    assert Q.eq(x, Q.normal(Fraction(x))) is True
    # a hand-built Fraction with denominator 1 still equals its int
    assert Q.eq(Fraction(x.numerator), x.numerator) is True

def test_rational_constants_and_integer_division():
    assert type(Q.zero) is int and type(Q.one) is int
    assert type(Q.from_int(7)) is int
    # int / int would give a float; Q.div and Q.inv stay exact
    assert Q.div(1, 3) == Fraction(1, 3) and isinstance(Q.div(1, 3), Fraction)
    assert Q.div(6, 3) == 2 and type(Q.div(6, 3)) is int
    assert Q.inv(Fraction(1, 3)) == 3 and type(Q.inv(Fraction(1, 3))) is int
    assert Q.mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert type(Q.mul(Fraction(2, 3), Fraction(3, 2))) is int
    # the parser and the fraction field over Q run on the same payloads
    assert type(parse_expression("6/3", Q).v) is int
    assert type(parse_expression("1/3", Q).v) is Fraction
    half = parse_expression("a/2", QAB)
    assert all(isinstance(c, Fraction) for c in half.v.values())
    assert all(type(c) is int for c in parse_expression("2*a + 4", QAB).v.values())


@given(rationals_st, st.integers(min_value=0, max_value=40))
def test_binary_power_matches_repeated_product(x, k):
    want = Fraction(1)
    for _ in range(k):
        want *= Fraction(x)
    assert _canonical(Q.pow(x, k)) == want
    assert GF3.pow(2, k) == pow(2, k, 3)
    # Field.pow on fraction payloads: a polynomial, a monomial denominator and
    # denominators with several terms
    for F, text in [(QAB, "a + 2*b"), (QAB, "(a+b)/(3*a*b^2)"), (QAB, "2/(a+1)"),
                    (GFAS, "2/(a+1)"), (GFAS, "a/(a*s+1)")]:
        s = sym(text, F)
        slow = sym("1", F)
        for _ in range(k % 9):
            slow = slow * s
        got = s ** (k % 9)
        assert got == slow and F.render(got.v) == F.render(slow.v), (text, k % 9)


# Values of the fraction fields whose denominator is a monomial z^e (e = 0
# included), kept as Laurent polynomials, against the general route and sympy
_exps = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _coeffs(F):
    if F is QAB:
        return st.builds(lambda n, d: Q.normal(Fraction(n, d)),
                         st.integers(-4, 4).filter(bool), st.integers(1, 3))
    return st.integers(1, 2)


def _lowest_terms(F, x):
    """(numerator, denominator) of a payload as plain dicts: for a Laurent
    polynomial, N/z^e with e_v = max(0, -least exponent of v), worked out
    here and not by the field."""
    if isinstance(x, FracPayload):
        return dict(x.num), dict(x.den)
    e = tuple(max([0] + [-m[v] for m in x]) for v in range(F.n))
    return {tuple(map(operator.add, m, e)): c for m, c in x.items()}, {e: F.base.one}


@st.composite
def mono_pairs(draw):
    F = draw(st.sampled_from((QAB, GFAS)))

    def operand():
        num = draw(st.dictionaries(_exps, _coeffs(F), max_size=3))
        return F._make(num, {draw(_exps): F.base.one})

    x = operand()
    how = draw(st.sampled_from(("free", "negated", "same", "monomial")))
    if how == "free":
        y = operand()
    elif how == "negated":  # x + y cancels to zero
        y = poly_neg(x, F.base) or F.zero
    elif how == "same":  # x - y cancels to zero
        y = x
    else:  # x + y = c*z^m/z^e, whose common monomial factor cancels
        m = {draw(_exps): draw(_coeffs(F))}
        num, den = _lowest_terms(F, x)
        y = F._make(poly_add(m, poly_neg(num, F.base), F.base), den)
    return F, x, y


def _general(F, op, x, y):
    """`_make` on the cross-multiplied polynomials of the operands' lowest
    terms."""
    base, (xn, xd) = F.base, _lowest_terms(F, x)
    if op == "neg":
        return F._make(poly_neg(xn, base), xd)
    yn, yd = _lowest_terms(F, y)
    if op == "mul":
        return F._make(poly_mul(xn, yn, base), poly_mul(xd, yd, base))
    yn = yn if op == "add" else poly_neg(yn, base)
    num = poly_add(poly_mul(xn, yd, base), poly_mul(yn, xd, base), base)
    return F._make(num, poly_mul(xd, yd, base))


def _sympy_poly(F, p):
    gens = sympy.symbols(F.spec.params)
    terms = {e: sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
             for e, c in p.items()}
    if F.spec.base == "GF":
        return sympy.Poly.from_dict(terms, gens, modulus=F.spec.p)
    return sympy.Poly.from_dict(terms, gens, domain=sympy.QQ)


@settings(max_examples=300)
@given(mono_pairs(), st.sampled_from(("add", "sub", "mul", "neg")))
def test_monomial_kernel_matches_general_route_and_sympy(case, op):
    F, x, y = case
    got = F.neg(x) if op == "neg" else getattr(F, op)(x, y)
    want = _general(F, op, x, y)
    assert F.key(got) == F.key(want)
    assert F.render(got) == F.render(want)
    # a monomial denominator stays a Laurent polynomial; zero is F.zero
    assert got.__class__ is dict and F.is_zero(got) == (got is F.zero)
    # the value is sympy's cancelled quotient, in lowest terms
    nx, dx = (_sympy_poly(F, p) for p in _lowest_terms(F, x))
    ny, dy = (_sympy_poly(F, p) for p in _lowest_terms(F, y))
    num, den = {
        "add": (nx * dy + ny * dx, dx * dy),
        "sub": (nx * dy - ny * dx, dx * dy),
        "mul": (nx * ny, dx * dy),
        "neg": (-nx, dx),
    }[op]
    p, q = num.cancel(den, include=True)
    ngot, dgot = (_sympy_poly(F, p) for p in _lowest_terms(F, got))
    assert dgot == q.monic()
    assert ngot * q == p * dgot


def test_power_of_a_monomial_denominator_stays_laurent():
    for F in (QAB, GFAS):
        x = F.inv(F.monomial("a"))
        got = F.pow(x, 2)
        assert got == {(-2, 0): F.base.one}
        assert F.key(got) == (((-2, 0), F.base.one),)
        assert F.render(got) == "1/(a^2)"
        assert F.key(F.pow(x, 3)) == F.key(F.mul(got, x))
        assert F.pow(x, 0) is F.one and F.render(F.pow(x, 0)) == "1"
    y = parse_expression("(a+b)/(3*a*b^2)", QAB).v
    got = QAB.pow(y, 2)
    assert got.__class__ is dict
    assert QAB.render(got) == "(1/9*a^2 + 2/9*a*b + 1/9*b^2)/(a^2*b^4)"
    # a denominator with several terms keeps the general route
    z = QAB.pow(parse_expression("2/(a+1)", QAB).v, 2)
    assert QAB.key(z) == ((((0, 0), 4),), (((2, 0), 1), ((1, 0), 2), ((0, 0), 1)))


def _cross_eq(F, x, y):
    base, (xn, xd), (yn, yd) = F.base, _lowest_terms(F, x), _lowest_terms(F, y)
    return not poly_sub(poly_mul(xn, yd, base), poly_mul(yn, xd, base), base)


@settings(max_examples=300)
@given(mono_pairs(), st.sampled_from(("drawn", "times-over", "there-and-back", "copied")),
       st.sampled_from(("a", "a+1", "a*s")))
def test_monomial_eq_matches_cross_multiplication(case, route, factor):
    # equal values reached by different routes: (x*w)/w, which is a num/den
    # pair for w = a+1, (x - y) + y, and a copy that is another dict
    F, x, y = case
    if route == "times-over":
        w = parse_expression(factor.replace("s", F.spec.params[1]), F).v
        y = F.div(F.mul(x, w), w)
    elif route == "there-and-back":
        y = F.add(F.sub(x, y), y)
    elif route == "copied":
        y = copy.deepcopy(x)
    assert F.eq(x, y) == F.eq(y, x) == _cross_eq(F, x, y)
    assert F.eq(x, y) or route == "drawn"


# Laurent operands (exponents of either sign) against num/den operands, whose
# denominators have several terms
@st.composite
def mixed_pairs(draw):
    F = draw(st.sampled_from((QAB, GFAS)))
    laurent = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), _coeffs(F),
                              max_size=3)
    x = draw(laurent) or F.zero
    num = draw(st.dictionaries(_exps, _coeffs(F), min_size=1, max_size=3))
    y = F._make(num, draw(st.dictionaries(_exps, _coeffs(F), min_size=2, max_size=3)))
    assert isinstance(y, FracPayload)
    return F, x, y


def _assert_lowest_terms(F, x):
    """A num/den payload is in lowest terms: over numerator and denominator
    together each parameter's least exponent is 0, and the denominator's
    lex-leading coefficient is one.  Read off the payload, not through
    `_make`."""
    if isinstance(x, FracPayload):
        exps = [*x.num, *x.den]
        assert all(min(e[v] for e in exps) == 0 for v in range(F.n)), x
        assert x.den[max(x.den)] == F.base.one, x


def _snapshot(x):
    if isinstance(x, FracPayload):
        return list(x.num.items()), list(x.den.items())
    return list(x.items())


@settings(max_examples=300)
@given(mixed_pairs(), st.sampled_from(("add", "sub", "mul", "inv")), st.booleans())
def test_laurent_operands_meet_the_general_route(case, op, swap):
    F, x, y = case
    if swap:
        x, y = y, x
    before = _snapshot(x), _snapshot(y)
    if op == "inv":
        if F.is_zero(x):
            with pytest.raises(ZeroInversionError):
                F.inv(x)
            return
        got = F.inv(x)
        num, den = _lowest_terms(F, x)
        want = F._make(den, num)
        assert F.eq(F.mul(got, x), F.one) and F.eq(x, F.mul(x, F.mul(got, x)))
    else:
        got = getattr(F, op)(x, y)
        want = _general(F, op, x, y)
    _assert_lowest_terms(F, got)
    assert F.key(got) == F.key(want)
    assert F.render(got) == F.render(want)
    assert F.eq(got, want) and F.eq(want, got)
    # the rendered text parses back to the value
    assert F.eq(parse_expression(F.render(got), F).v, got)
    # no operation changes an operand
    assert (_snapshot(x), _snapshot(y)) == before


@given(mixed_pairs(), st.booleans())
def test_cancelling_sums_give_the_shared_zero(case, general):
    F, x, y = case
    v = y if general else x
    assert F.sub(v, v) is F.zero
    assert F.add(v, F.neg(v)) is F.zero and F.add(F.neg(v), v) is F.zero


@given(mixed_pairs())
def test_laurent_payload_survives_pickle_and_copies(case):
    F, x, y = case
    for z in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert z.__class__ is dict and list(z.items()) == list(x.items())
        assert F.eq(z, x) and F.key(z) == F.key(x) and F.render(z) == F.render(x)
        assert F.key(F.add(z, y)) == F.key(F.add(x, y))
        assert F.key(F.mul(z, x)) == F.key(F.mul(x, x))


@given(mixed_pairs())
def test_laurent_payload_substitutes_term_by_term(case):
    # x at a = 2 and the second parameter 1 (nonzero in Q and GF(3)), summed
    # here over Fraction with negative exponents as reciprocals
    F, x, _ = case
    total = Fraction(0)
    for m, c in x.items():
        total += Fraction(c) * Fraction(2) ** m[0]
    got = F.substitute(x, dict(zip(F.spec.params, (2, 1))), F.base)
    assert F.base.eq(got, F.base.from_fraction(total))
