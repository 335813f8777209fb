"""The sparse vectors of the product and map kernels and of the checker
context give the payloads of a dense evaluation.

The dense operations the sparse code skips (see the `identities` module
docstring) are pinned for every field kind; the kernels and `acc` /
`scale_int`, densified, are compared with the oracle's evaluator on random
graded tables, over Q and GF(3).
"""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from homsuper.coeff import FieldSpec, field_for
from homsuper.identities import _Ctx
from homsuper.oracle import _Raw
from homsuper.superalg import Basis, EvenLinearMap, SuperAlgebra, dense, hom, sparse


def _frac_samples(F):
    a = F.monomial("a")
    one, two = F.one, F.from_int(2)
    return [a, one, F.neg(a), F.div(F.add(a, one), a), F.div(two, F.add(a, one)),
            F.mul(a, F.inv(F.add(F.mul(a, a), two)))]


def _fields():
    Q = field_for(FieldSpec("Q"))
    yield "Q int", Q, [1, -1, 7, 10**30]
    yield "Q Fraction", Q, [Fraction(1, 2), Fraction(-7, 3), Fraction(10**30, 7)]
    yield "GF(3)", field_for(FieldSpec("GF", 3)), [1, 2]
    big = field_for(FieldSpec("GF", 1000003))
    yield "GF(1000003)", big, [1, 2, 1000002, 500001]
    yield "Frac(Q[a])", field_for(FieldSpec("Q", None, ("a",))), None
    frac = field_for(FieldSpec("GF", 3, ("a", "s")))
    s = frac.monomial("s")
    yield "Frac(GF(3)[a,s])", frac, [s, frac.div(s, frac.add(frac.monomial("a"), s))]


def _same(F, x, y):
    return type(x) is type(y) and F.key(x) == F.key(y)


def _ctx(F, dim=1):
    zero = tuple(F.zero for _ in range(dim))
    A = SuperAlgebra(Basis(tuple(f"v{i}" for i in range(dim)), (0,) * dim), F,
                     [[zero] * dim for _ in range(dim)])
    return _Ctx(hom(A))


@pytest.mark.parametrize("label,F,values", list(_fields()), ids=lambda x: x if isinstance(x, str) else "")
def test_skipped_dense_operations_are_identities(label, F, values):
    values = [F.normal(v) for v in values or []] + (_frac_samples(F) if hasattr(F, "monomial") else [])
    ctx = _ctx(F)
    for v in values:
        assert not F.is_zero(v), (label, v)
        assert _same(F, F.add(F.zero, v), v), (label, v)
        assert _same(F, F.add(v, F.zero), v), (label, v)
        assert _same(F, F.sub(v, F.zero), v), (label, v)
        (k, negated), = ctx.acc((), ((0, v),), 1)
        assert k == 0 and _same(F, F.sub(F.zero, v), negated), (label, v)
        # a cancelling sum is the field's zero payload, as densified
        assert _same(F, F.sub(v, v), F.zero) and _same(F, F.add(v, F.neg(v)), F.zero), (label, v)
        assert ctx.acc(((0, v),), ((0, v),), 1) == ()


def _assert_canonical(F, r):
    """Indices strictly ascending, payloads nonzero: `()` is the only zero."""
    assert all(a[0] < b[0] for a, b in zip(r, r[1:])), r
    assert not any(F.is_zero(x) for _, x in r), r


def _assert_matches(F, n, r, want):
    _assert_canonical(F, r)
    got = dense(F, n, r)
    assert len(got) == len(want)
    assert all(_same(F, x, y) for x, y in zip(got, want)), (got, want)


@st.composite
def _instances(draw):
    """A random graded table and even map over Q or GF(3), two payload
    vectors, each empty, of one nonzero coordinate or random, and an integer
    scale; small coefficients make cancellations."""
    F = field_for(draw(st.sampled_from([FieldSpec("Q"), FieldSpec("GF", 3)])))
    n = draw(st.integers(1, 4))
    par = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=2))
    entry = lambda allowed: F.from_fraction(Fraction(draw(coeff))) if allowed and draw(st.booleans()) else F.zero
    table = [[tuple(entry(par[k] == (par[i] + par[j]) % 2) for k in range(n)) for j in range(n)]
             for i in range(n)]
    cols = [tuple(entry(par[i] == par[j]) for i in range(n)) for j in range(n)]
    nonzero = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)])  # also in GF(3)

    def vec():
        kind = draw(st.sampled_from(["random"] * 4 + ["empty", "single"]))
        if kind == "random":
            return kind, [entry(True) for _ in range(n)]
        if kind == "empty":
            return kind, [F.zero] * n
        k, x = draw(st.integers(0, n - 1)), F.from_fraction(Fraction(draw(nonzero)))
        return kind, [x if i == k else F.zero for i in range(n)]

    H = hom(SuperAlgebra(Basis(tuple(f"v{i}" for i in range(n)), par), F, table), EvenLinearMap(F, cols))
    return H, vec(), vec(), draw(st.sampled_from([1, 2, 3, 6, -1]))


@settings(max_examples=350)
@given(_instances())
def test_kernels_and_merges_match_the_oracle(case):
    # every kind pair of operands is drawn: the kernels' `()` at once for an
    # empty operand and `acc`'s paths for an empty side and for two single
    # coordinates are each compared with the dense evaluation; "random" is
    # weighted (and drawn first, which hypothesis favours), so two random
    # operands, the general case, still make over 150 of the 350 examples
    H, (ku, u), (kv, v), scale = case
    event(f"{ku} x {kv}")
    F, n, raw, ctx = H.field, H.dim, _Raw(H), _Ctx(H)
    su, sv = sparse(F, u), sparse(F, v)
    assert len(su) == {"empty": 0, "single": 1}.get(ku, len(su))
    # the oracle's own vector form, its nonzero coordinates by index, made
    # here from the dense draw; its results are densified to compare
    ru, rv = ({k: x for k, x in enumerate(w) if not F.is_zero(x)} for w in (u, v))
    _assert_matches(F, n, H.algebra._mul_payload(su, sv), raw.dense(raw.mul(ru, rv)))
    _assert_matches(F, n, H.alpha.apply_payload(su), raw.dense(raw.app(ru)))
    _assert_matches(F, n, ctx.acc(su, sv, 0), raw.dense(raw.addv(ru, rv)))
    _assert_matches(F, n, ctx.acc(su, sv, 1), raw.dense(raw.subv(ru, rv)))
    _assert_matches(F, n, ctx.acc(sv, su, 1), raw.dense(raw.subv(rv, ru)))
    _assert_matches(F, n, ctx.acc(su, su, 1), raw.dense(raw.subv(ru, ru)))  # every coordinate cancels
    _assert_matches(F, n, ctx.scale_int(scale, su), raw.dense(raw.smul(scale, ru)))


def test_cancellation_and_characteristic_give_the_empty_vector():
    for F in (field_for(FieldSpec("Q")), field_for(FieldSpec("GF", 3))):
        one, zero = F.one, F.zero
        # e0*e0 = e0, e1*e0 = -e0: (e0 + e1)*e0 cancels; alpha(e0 + e1) too
        table = [[(one, zero), (zero, zero)], [(F.neg(one), zero), (zero, zero)]]
        A = SuperAlgebra(Basis(("e0", "e1"), (0, 0)), F, table)
        alpha = EvenLinearMap(F, [(one, zero), (F.neg(one), zero)])
        u = sparse(F, (one, one))
        assert A._mul_payload(u, ((0, one),)) == ()
        assert alpha.apply_payload(u) == ()
        ctx = _Ctx(hom(A, alpha))
        assert ctx.acc(u, u, 1) == ()
        if F.spec.p == 3:
            assert ctx.scale_int(3, u) == () and ctx.scale_int(6, u) == ()
        else:
            assert ctx.scale_int(6, u) == ((0, 6), (1, 6))
