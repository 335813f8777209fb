import random

import pytest

from gen import Q, random_graded_algebra
from homsuper.coeff import Scalar
from homsuper.identities import (
    HomogeneityError,
    bk_F,
    bk_f,
    cyclic_hom_associator,
    hom_associator,
    hom_super_jacobian,
    run_checker,
)
from homsuper.superalg import (
    commutator_algebra,
    hom,
    is_super_commutative,
    is_super_skewsymmetric,
    multiply,
    plus_algebra,
    validate,
)


def test_m3_products_and_grading(corpus_instances):
    inst = corpus_instances[("m3-3-1", "base")]
    A = inst.base
    assert validate(A).holds
    e1 = A.basis_vector("e1")
    e3 = A.basis_vector("e3")
    assert multiply(A, e3, e1) == e1
    zero = A.zero_vector()
    assert multiply(A, e1, zero) == zero
    assert is_super_skewsymmetric(A).holds


def test_b42_products(corpus_instances):
    inst = corpus_instances[("b42", "base")]
    A = inst.base
    assert validate(A).holds
    m1, m2 = A.basis_vector("m1"), A.basis_vector("m2")
    assert multiply(A, m1, m2) == A.basis_vector("e11")
    rep = is_super_commutative(A)
    assert not rep.holds
    assert not is_super_skewsymmetric(A).holds


def test_grading_violation_detected():
    rng = random.Random(5)
    A = random_graded_algebra(rng, 3, 2)
    bad_table = [list(map(list, row)) for row in A.table]
    # odd*odd product (index 2,2) given an odd component: parity violation
    bad_table[2][2][2] = Q.one
    from homsuper.superalg import SuperAlgebra

    B = SuperAlgebra(A.basis, Q, [[tuple(v) for v in r] for r in bad_table])
    rep = validate(B)
    assert not rep.holds
    assert rep.counterexamples[0][0] == ("v2", "v2")


def test_commutator_b42(corpus_instances):
    H = corpus_instances[("b42", "base")].hom
    C = commutator_algebra(H)
    A = C.algebra
    m1, m2 = A.basis_vector("m1"), A.basis_vector("m2")
    # [m1,m2] = m1 m2 + m2 m1 = e11 - e22  (odd-odd commutator adds)
    got = multiply(A, m1, m2)
    e11 = A.basis_vector("e11")
    e22 = A.basis_vector("e22")
    want = tuple(a - b for a, b in zip(e11, e22))
    assert all(x == y for x, y in zip(got, want))
    assert is_super_skewsymmetric(A).holds


def test_commutator_scaling():
    rng = random.Random(7)
    A = random_graded_algebra(rng, 3, 1)
    H = hom(A)
    once = commutator_algebra(H)
    twice = commutator_algebra(once)
    F = A.field
    two = F.from_int(2)
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                assert F.eq(twice.algebra.table[i][j][k],
                            F.mul(two, once.algebra.table[i][j][k]))


def test_plus_of_commutative_is_identity(corpus_instances):
    H = corpus_instances[("kaplansky-k3", "base")].hom
    P = plus_algebra(H)
    F = H.field
    for i in range(H.dim):
        for j in range(H.dim):
            for k in range(H.dim):
                assert F.eq(P.algebra.table[i][j][k], H.algebra.table[i][j][k])


def test_plus_of_skew_is_zero(corpus_instances):
    H = corpus_instances[("m3-3-1", "base")].hom
    P = plus_algebra(H)
    F = H.field
    assert all(
        F.is_zero(P.algebra.table[i][j][k])
        for i in range(H.dim) for j in range(H.dim) for k in range(H.dim)
    )


def test_plus_b42_entry(corpus_instances):
    H = corpus_instances[("b42", "base")].hom
    P = plus_algebra(H)
    A = P.algebra
    # e11 * m1 = (1/2)(m1 + 0) = 2*m1 over GF(3)
    got = multiply(A, A.basis_vector("e11"), A.basis_vector("m1"))
    assert got[A.basis.index("m1")] == Scalar(A.field, A.field.from_int(2))


def test_plus_requires_odd_characteristic():
    from homsuper.coeff import prime_field
    from homsuper.superalg import Basis, SuperAlgebra

    GF2 = prime_field(2)
    basis = Basis(("u",), (0,))
    A = SuperAlgebra(basis, GF2, [[(GF2.one,)]])
    with pytest.raises(Exception):
        plus_algebra(hom(A))


def test_reconstruction_from_plus_and_commutator():
    rng = random.Random(11)
    A = random_graded_algebra(rng, 3, 2)
    H = hom(A)
    P, C = plus_algebra(H), commutator_algebra(H)
    F = A.field
    half = F.inv(F.from_int(2))
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                rebuilt = F.add(
                    P.algebra.table[i][j][k],
                    F.mul(half, C.algebra.table[i][j][k]),
                )
                assert F.eq(rebuilt, A.table[i][j][k])


def test_hom_associator_m3(corpus_instances):
    H = corpus_instances[("m3-3-1", "base")].hom
    A = H.algebra
    e1, e3 = A.basis_vector("e1"), A.basis_vector("e3")
    got = hom_associator(H, e1, e3, e3)
    # (e1 e3) e3 - e1 (e3 e3) = (-e1) e3 - 0 = e1
    assert got == A.basis_vector("e1")


def test_homogeneity_guard(corpus_instances):
    H = corpus_instances[("m3-3-1", "base")].hom
    A = H.algebra
    mixed = tuple(
        a + b for a, b in zip(A.basis_vector("e1"), A.basis_vector("e4"))
    )
    with pytest.raises(HomogeneityError):
        hom_super_jacobian(H, A.basis_vector("e1"), mixed, A.basis_vector("e4"))
    with pytest.raises(HomogeneityError):
        cyclic_hom_associator(H, mixed, A.basis_vector("e1"), A.basis_vector("e1"))
    with pytest.raises(HomogeneityError):
        bk_f(H, mixed, mixed, mixed, mixed)
    # x slot of the jacobian has no sign attached, mixed x is fine
    hom_super_jacobian(H, mixed, A.basis_vector("e4"), A.basis_vector("e4"))


def test_product_of_homogeneous_is_homogeneous():
    rng = random.Random(13)
    for _ in range(20):
        A = random_graded_algebra(rng, 4, rng.randint(0, 4))
        assert validate(A).holds
        i, j = rng.randrange(4), rng.randrange(4)
        out = multiply(A, A.basis_vector(i), A.basis_vector(j))
        p = A.parity_of(out)
        assert p is not None  # graded tables keep homogeneous support
        if not A.vector_is_zero(out):
            assert p == (A.basis.parities[i] + A.basis.parities[j]) % 2


def test_associator_antisymmetry_on_alternative(corpus_instances):
    # alternating property of the twisted associator on an alternative twist
    H = corpus_instances[("b42", "alpha")].hom
    A = H.algebra
    F = H.field
    par = A.basis.parities
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                lhs = hom_associator(H, A.basis_vector(i), A.basis_vector(j), A.basis_vector(k))
                rhs = hom_associator(H, A.basis_vector(k), A.basis_vector(j), A.basis_vector(i))
                sgn = (-1) ** (par[j] * par[k] + par[i] * par[k] + par[i] * par[j])
                for x, y in zip(lhs, rhs):
                    assert x == Scalar(F, F.mul(F.from_int(-sgn), y.v))


def test_jacobian_symmetries_on_skew(corpus_instances):
    H = corpus_instances[("m3-3-1", "base")].hom
    A = H.algebra
    F = H.field
    par = A.basis.parities
    b = A.basis_vector
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                J = hom_super_jacobian
                base = J(H, b(i), b(j), b(k))
                s1 = (-1) ** (par[i] * par[j])
                s2 = (-1) ** (par[j] * par[k])
                s3 = (-1) ** (par[i] * par[j] + par[k] * (par[i] + par[j]))
                for x, y in zip(base, J(H, b(j), b(i), b(k))):
                    assert x == Scalar(F, F.mul(F.from_int(-s1), y.v))
                for x, y in zip(base, J(H, b(i), b(k), b(j))):
                    assert x == Scalar(F, F.mul(F.from_int(-s2), y.v))
                for x, y in zip(base, J(H, b(k), b(j), b(i))):
                    assert x == Scalar(F, F.mul(F.from_int(-s3), y.v))


def test_multiplicativity_transport(corpus_instances):
    # J . alpha^x3 = alpha . J on multiplicative instances
    inst = corpus_instances[("m3-3-1", "alpha1")]
    H = inst.hom
    assert run_checker("multiplicative", H).holds
    A = H.algebra
    b = A.basis_vector
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                lhs = hom_super_jacobian(
                    H, H.alpha.apply(A, b(i)), H.alpha.apply(A, b(j)), H.alpha.apply(A, b(k))
                )
                rhs = H.alpha.apply(A, hom_super_jacobian(H, b(i), b(j), b(k)))
                assert all(x == y for x, y in zip(lhs, rhs))


def test_commutator_jacobian_is_six_associators(corpus_instances):
    H = corpus_instances[("b42", "alpha")].hom
    assert run_checker("j-eq-6as", H).holds


def test_bk_functions_vanish_on_associative():
    # associative (matrix superalgebra) with identity twist: f and F vanish
    from homsuper.coeff import rationals
    from homsuper.superalg import Basis, SuperAlgebra
    from homsuper.io import parse_vector_expr

    F = rationals()
    basis = Basis(("E11", "E22", "E12", "E21"), (0, 0, 1, 1))
    vec = lambda e: parse_vector_expr(e, F, basis)
    zero = tuple(F.zero for _ in range(4))
    table = [[zero] * 4 for _ in range(4)]

    def setp(a, b, e):
        table[basis.index(a)][basis.index(b)] = vec(e)

    setp("E11", "E11", "E11"); setp("E22", "E22", "E22")
    setp("E11", "E12", "E12"); setp("E12", "E22", "E12")
    setp("E22", "E21", "E21"); setp("E21", "E11", "E21")
    setp("E12", "E21", "E11"); setp("E21", "E12", "E22")
    A = SuperAlgebra(basis, F, table)
    H = hom(A)
    b = A.basis_vector
    for i in range(4):
        for j in range(4):
            assert A.vector_is_zero(bk_f(H, b(i), b(j), b(i), b(j)))
            assert A.vector_is_zero(bk_F(H, b(i), b(j), b(i), b(j)))


def test_tables_and_maps_hold_canonical_rational_payloads():
    from fractions import Fraction

    from homsuper.superalg import Basis, EvenLinearMap, SuperAlgebra

    basis = Basis(("e", "u"), (0, 1))
    raw = [
        [(Fraction(3), Fraction(0)), (Fraction(0), Fraction(1, 2))],
        [(Fraction(0), Fraction(-2)), (Fraction(0), Fraction(0))],
    ]
    A = SuperAlgebra(basis, Q, raw)
    assert A.table == (((3, 0), (0, Fraction(1, 2))), ((0, -2), (0, 0)))
    for row in A.table:
        for vec in row:
            for x in vec:
                assert type(x) is int or x.denominator != 1
    m = EvenLinearMap(Q, [(Fraction(3), Fraction(0)), (Fraction(0), Fraction(4, 2))])
    assert [type(x) for col in m.cols for x in col] == [int] * 4
    assert m.cols == ((3, 0), (0, 2))
    # the nonzero index skips a Fraction(0) entry like an int zero
    assert m._nz == (((0, 3),), ((1, 2),))
