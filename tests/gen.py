"""Random instance generators shared by the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from homsuper.coeff import FieldSpec, field_for
from homsuper.maps import SingularMapError, compose, matrix_inverse
from homsuper.superalg import Basis, EvenLinearMap, HomSuperAlgebra, SuperAlgebra, dense, hom

Q = field_for(FieldSpec("Q"))


def random_graded_algebra(rng: random.Random, dim: int, n_even: int,
                          density: float = 0.6, coeff_range: int = 3) -> SuperAlgebra:
    """Random table respecting the parity grading, over Q."""
    parities = tuple(0 if i < n_even else 1 for i in range(dim))
    basis = Basis(tuple(f"v{i}" for i in range(dim)), parities)
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            want = (parities[i] + parities[j]) % 2
            vec = [
                Q.from_fraction(Fraction(rng.randint(-coeff_range, coeff_range)))
                if parities[k] == want and rng.random() < density
                else Q.zero
                for k in range(dim)
            ]
            row.append(tuple(vec))
        table.append(row)
    return SuperAlgebra(basis, Q, table)


def random_even_map(rng: random.Random, A: SuperAlgebra,
                    coeff_range: int = 2) -> EvenLinearMap:
    cols = []
    for j in range(A.dim):
        col = [
            Q.from_fraction(Fraction(rng.randint(-coeff_range, coeff_range)))
            if A.basis.parities[i] == A.basis.parities[j]
            else Q.zero
            for i in range(A.dim)
        ]
        cols.append(tuple(col))
    return EvenLinearMap(Q, cols)


def random_even_automorphism(rng: random.Random, A: SuperAlgebra,
                             density: float = 0.7) -> EvenLinearMap:
    """Seeded invertible even map over A's field: inside the parity blocks
    each entry is a small integer with probability `density`, outside them
    zero.  A singular draw, which happens over GF(3), is drawn again."""
    F, par = A.field, A.basis.parities
    while True:
        cols = [
            tuple(
                F.from_int(rng.randint(-2, 2)) if par[i] == par[j] and rng.random() < density
                else F.zero
                for i in range(A.dim)
            )
            for j in range(A.dim)
        ]
        P = EvenLinearMap(F, cols)
        try:
            matrix_inverse(P)
        except SingularMapError:
            continue
        return P


def conjugate(H: HomSuperAlgebra, P: EvenLinearMap) -> HomSuperAlgebra:
    """H in the basis P e_1, ..., P e_n of an invertible even P: product
    P^-1 mu(P x, P y) and twist P^-1 alpha P, through the map kernels."""
    A, F, n = H.algebra, H.field, H.dim
    back = matrix_inverse(P)
    table = [
        [dense(F, n, back.apply_payload(A._mul_payload(P._nz[i], P._nz[j]))) for j in range(n)]
        for i in range(n)
    ]
    return hom(SuperAlgebra(A.basis, F, table), compose(back, compose(H.alpha, P)))


def random_multiplicative_skew(rng: random.Random, dim: int):
    """Random super-skewsymmetric table with a compatible diagonal twist.

    Basis elements carry weights; products respect weight additivity and the
    twist scales by lambda^weight, which makes it multiplicative by
    construction (and genuinely non-identity for lambda != 1).
    """
    parities = tuple(rng.randint(0, 1) for _ in range(dim))
    weights = tuple(rng.randint(0, 2) for _ in range(dim))
    basis = Basis(tuple(f"v{i}" for i in range(dim)), parities)
    zero = tuple(Q.zero for _ in range(dim))
    table = [[list(zero) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            want_p = (parities[i] + parities[j]) % 2
            want_w = weights[i] + weights[j]
            vec = [
                Q.from_fraction(Fraction(rng.randint(-2, 2)))
                if parities[k] == want_p and weights[k] == want_w and rng.random() < 0.7
                else Q.zero
                for k in range(dim)
            ]
            table[i][j] = vec
            sgn = -1 if (parities[i] * parities[j]) % 2 == 0 else 1
            mirrored = [Q.mul(Q.from_int(sgn), v) for v in vec]
            if i == j:
                # [x,x] must equal -(-1)^(|x||x|)[x,x]; for even x force zero
                if parities[i] == 0:
                    table[i][j] = list(zero)
            else:
                table[j][i] = mirrored
    lam = Fraction(rng.choice([1, 2, 3, -1, Fraction(1, 2)]))
    cols = []
    for j in range(dim):
        col = [Q.zero] * dim
        col[j] = Q.from_fraction(lam ** weights[j])
        cols.append(tuple(col))
    A = SuperAlgebra(basis, Q, [[tuple(v) for v in row] for row in table])
    return hom(A, EvenLinearMap(Q, cols))
