"""Even linear maps: endomorphism checks, twisting, untwisting, derived
algebras.

`yau_twist` is the guarded construction-theorem operation: it refuses maps
that are not weak endomorphisms of the underlying product, because that is
the hypothesis of every twisting theorem it implements.  The corpus module
separately materialises tables that published examples print even when the
printed map fails this check; those go through direct table composition, not
through this gate.
"""

from __future__ import annotations

import itertools
from typing import Tuple

from .coeff import MAX_WORK, FieldMismatchError
from .report import IdentityReport, table_report
from .superalg import (
    AlgebraError,
    Basis,
    DimensionError,
    EvenLinearMap,
    HomSuperAlgebra,
    SuperAlgebra,
    dense,
)


# The n-th derived algebra uses alpha^(2^n); past this level the entries
# of that power outgrow any table worth printing.  Symbolic entries outgrow
# it sooner: a step of the power, or the product table, whose coefficient
# products could pass coeff.MAX_WORK is refused before it computes.
MAX_DERIVED_LEVEL = 10


class MapError(AlgebraError):
    pass


class NotEndomorphismError(MapError):
    def __init__(self, pair: Tuple[str, str]):
        self.pair = pair
        super().__init__(f"map is not a weak endomorphism; fails at {pair}")


class SingularMapError(MapError):
    pass


class MultiplicativityError(MapError):
    pass


def is_even(f: EvenLinearMap, basis: Basis) -> IdentityReport:
    """Parity-block check: entry (i,j) must vanish when parities differ."""
    if f.dim != len(basis):
        raise DimensionError("map dimension does not match basis")
    F, par = f.field, basis.parities
    rows = (((basis.names[j],), [F.zero if par[i] == par[j] else x for i, x in enumerate(col)])
            for j, col in enumerate(f.cols))
    return table_report("even", F, rows, f.dim)


def _weak_morphism_rows(src: SuperAlgebra, dst: SuperAlgebra, f: EvenLinearMap):
    """The (slot names, residual) rows of f(mu(ei,ej)) - mu'(f(ei), f(ej))."""
    if src.dim != dst.dim or f.dim != src.dim:
        raise DimensionError("dimension mismatch")
    if src.field != dst.field or f.field != src.field:
        raise FieldMismatchError("weak morphism across different fields")
    F, n, names = src.field, src.dim, src.basis.names

    def terms(a, b):  # of f(mu(ea,eb)) and of mu'(f(ea), f(eb)), as the kernels take them
        yield from ((i, m, x) for j, x in src._nz[a][b] for i, m in f._nz[j])
        yield from ((k, x, y, c) for i, x in f._nz[a] for j, y in f._nz[b] for k, c in dst._nz[i][j])

    _bounded(F, (terms(a, b) for a in range(n) for b in range(n)), "the weak-morphism check")
    return (((names[i], names[j]),
             tuple(map(F.sub, dense(F, n, f.apply_payload(src._nz[i][j])),
                       dense(F, n, dst._mul_payload(f._nz[i], f._nz[j])))))
            for i in range(n) for j in range(n))


def is_weak_morphism(
    src: SuperAlgebra, dst: SuperAlgebra, f: EvenLinearMap
) -> IdentityReport:
    """f(mu(ei,ej)) = mu'(f(ei), f(ej)) on all basis pairs."""
    rows = _weak_morphism_rows(src, dst, f)
    return table_report("weak-morphism", src.field, rows, src.dim * src.dim)


def is_morphism(
    src: HomSuperAlgebra, dst: HomSuperAlgebra, f: EvenLinearMap
) -> IdentityReport:
    """Weak morphism plus the commuting square f . alpha = alpha' . f."""
    weak = _weak_morphism_rows(src.algebra, dst.algebra, f)
    F, n, names = src.field, src.dim, src.algebra.basis.names
    square = (((names[j],), tuple(map(F.sub, dense(F, n, f.apply_payload(src.alpha._nz[j])),
                                      dense(F, n, dst.alpha.apply_payload(f._nz[j])))))
              for j in range(n))
    return table_report("morphism", F, itertools.chain(weak, square), n * n + n)


def compose(f: EvenLinearMap, g: EvenLinearMap, what: str = "the composed map") -> EvenLinearMap:
    """Matrix of f . g (apply g first), refused as `what` past MAX_WORK."""
    if f.dim != g.dim or f.field != g.field:
        raise DimensionError("composition dimension/field mismatch")
    _bounded(f.field, _applied(f, g._nz), what)
    return EvenLinearMap(f.field, [dense(f.field, f.dim, f.apply_payload(col)) for col in g._nz])


def _bounded(F, sums, what: str):
    """Refuse `what` when the sparse sums `sums` could take more than
    MAX_WORK coefficient products, as `F.sum_work` counts them."""
    if F.sum_work(sums) > MAX_WORK:
        raise MapError(f"{what} would need more than {MAX_WORK} coefficient products")


def _applied(f: EvenLinearMap, vecs):
    """The terms of f applied to each sparse vector of `vecs`, as its kernel
    takes them."""
    return (((i, m, uj) for j, uj in u for i, m in f._nz[j]) for u in vecs)


def power(f: EvenLinearMap, k: int) -> EvenLinearMap:
    if k < 0:
        raise MapError("negative power")
    out, what = EvenLinearMap.identity(f.field, f.dim), f"power {k} of the map"
    while k:
        if k & 1:
            out = compose(f, out, what)
        k >>= 1
        if k:
            f = compose(f, f, what)
    return out


def matrix_inverse(f: EvenLinearMap) -> EvenLinearMap:
    """Exact Gaussian elimination; pivot on the first nonzero entry (no
    magnitude comparisons exist for symbolic scalars)."""
    F = f.field
    n = f.dim
    # rows of [M | I], where M[i][j] = cols[j][i]
    aug = [
        [f.cols[j][i] for j in range(n)]
        + [F.one if k == i else F.zero for k in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not F.is_zero(aug[r][col]):
                pivot = r
                break
        if pivot is None:
            raise SingularMapError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = F.inv(aug[col][col])
        aug[col] = [F.mul(inv, x) for x in aug[col]]
        for r in range(n):
            if r != col and not F.is_zero(aug[r][col]):
                factor = aug[r][col]
                aug[r] = [
                    F.sub(x, F.mul(factor, y)) for x, y in zip(aug[r], aug[col])
                ]
    inv_cols = [tuple(aug[i][n + j] for i in range(n)) for j in range(n)]
    return EvenLinearMap(F, inv_cols)


def compose_product(A: SuperAlgebra, beta: EvenLinearMap, what: str = "the composed product") -> SuperAlgebra:
    """Structure constants of beta . mu over the same basis, refused as
    `what` past MAX_WORK."""
    _bounded(A.field, _applied(beta, (cell for row in A._nz for cell in row)), what)
    table = [[dense(A.field, A.dim, beta.apply_payload(cell)) for cell in row] for row in A._nz]
    return SuperAlgebra(A.basis, A.field, table)


def yau_twist(H: HomSuperAlgebra, beta: EvenLinearMap) -> HomSuperAlgebra:
    """(A, mu, alpha) -> (A, beta.mu, beta.alpha); beta must be a verified
    weak endomorphism of (A, mu)."""
    report = is_weak_morphism(H.algebra, H.algebra, beta)
    if not report.holds:
        raise NotEndomorphismError(report.first_tuple())
    return HomSuperAlgebra(compose_product(H.algebra, beta), compose(beta, H.alpha))


def untwist(H: HomSuperAlgebra) -> SuperAlgebra:
    """Recover the product alpha^{-1} . mu (alpha invertible)."""
    return compose_product(H.algebra, matrix_inverse(H.alpha))


def derived(H: HomSuperAlgebra, n: int) -> HomSuperAlgebra:
    """n-th derived algebra: product alpha^(2^n - 1) . mu, twist alpha^(2^n)."""
    if n < 0:
        raise MapError("derived level must be nonnegative")
    if n > MAX_DERIVED_LEVEL:
        raise MapError(f"derived level {n} is above the cap of {MAX_DERIVED_LEVEL}")
    if not is_weak_morphism(H.algebra, H.algebra, H.alpha).holds:
        raise MultiplicativityError(
            "derived algebra needs verified multiplicativity"
        )
    if n == 0:
        return H
    k = 2**n
    beta = power(H.alpha, k - 1)
    return HomSuperAlgebra(compose_product(H.algebra, beta, f"derived level {n}"), power(H.alpha, k))
