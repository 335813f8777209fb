"""Z2-graded algebras given by structure constants: the data, the product
and map kernels, the grading checks and the commutator / plus constructions.

An algebra is an ordered homogeneous basis (names + parities) together with a
dense 3-index table: `c[i][j]` is the coordinate vector of the product of
basis elements i and j.  Entries are raw field payloads (see coeff), brought
into the field's canonical form (`Field.normal`) once on construction; the
public operations speak `Scalar` vectors and unwrap at the boundary.

The kernels work on sparse vectors: (index, payload) pairs sorted by index,
nonzero payloads only, `()` for zero.  `_mul_payload` and `apply_payload`
walk nonzero pairs through the sparse cells `_nz` of the table (of a map's
columns): a coordinate starts at its first term, adds the later ones in
ascending (i, j) order and is dropped if it cancels.  Dense callers
convert with `sparse` and `dense` at their boundary.

The multilinear forms built from these kernels (twisted associator,
Hom-super-Jacobian, Bruck-Kleinfeld functions) live in `identities`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .coeff import Field, FieldMismatchError, Scalar
from .report import IdentityReport, Vector, table_report


class AlgebraError(Exception):
    pass


class DimensionError(AlgebraError):
    pass


@dataclass(frozen=True)
class Basis:
    names: Tuple[str, ...]
    parities: Tuple[int, ...]
    # (slots, ids of the reported Scalars) -> entry, filled by counterexample
    _entries: Dict[tuple, tuple] = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) != len(self.parities):
            raise AlgebraError("names and parities differ in length")
        if len(set(self.names)) != len(self.names):
            raise AlgebraError("duplicate basis names")
        if any(p not in (0, 1) for p in self.parities):
            raise AlgebraError("parities must be 0 or 1")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AlgebraError(f"unknown basis element {name!r}") from None

    def counterexample(self, F: Field, idx: Tuple[int, ...], r: SparseVector):
        """(slot names, reported vector) of the sparse residual `r` at the
        slots `idx`, one tuple per distinct entry for as long as the basis
        lives, so repeated reports share their entries.  The coordinates are
        hash-consed Scalars, which the entry keeps alive: their ids name
        their values."""
        vec = tuple(map(F.shared_scalar, dense(F, len(self.names), r)))
        key = idx, tuple(map(id, vec))
        got = self._entries.get(key)
        if got is None:
            got = self._entries[key] = (tuple(self.names[i] for i in idx), vec)
        return got


PayloadVector = Tuple[object, ...]
SparseVector = Tuple[Tuple[int, object], ...]


def sparse(F: Field, u: PayloadVector) -> SparseVector:
    """The (index, payload) pairs of the nonzero coordinates of `u`."""
    return tuple((k, x) for k, x in enumerate(u) if not F.is_zero(x))


def dense(F: Field, n: int, r: SparseVector) -> PayloadVector:
    """The length-n payload vector of `r`: F.zero off its support."""
    out = [F.zero] * n
    for k, x in r:
        out[k] = x
    return tuple(out)


class SuperAlgebra:
    """Basis + structure constants + coefficient field."""

    __slots__ = ("basis", "field", "table", "_nz")

    def __init__(self, basis: Basis, field: Field, table: Sequence[Sequence[PayloadVector]]):
        n = len(basis)
        if len(table) != n or any(len(row) != n for row in table):
            raise DimensionError("structure table does not match basis size")
        for row in table:
            for vec in row:
                if len(vec) != n:
                    raise DimensionError("structure vector of wrong length")
        self.basis = basis
        self.field = field
        normal = field.normal
        self.table = tuple(tuple(tuple(map(normal, vec)) for vec in row) for row in table)
        # _nz[i][j]: c[i][j] as a sparse vector
        self._nz = tuple(tuple(sparse(field, vec) for vec in row) for row in self.table)

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- vector helpers -----------------------------------------------------

    def zero_vector(self) -> Vector:
        z = self.field.zero
        return tuple(Scalar(self.field, z) for _ in range(self.dim))

    def basis_vector(self, i) -> Vector:
        if isinstance(i, str):
            i = self.basis.index(i)
        return tuple(
            Scalar(self.field, self.field.one if j == i else self.field.zero)
            for j in range(self.dim)
        )

    def _unwrap(self, u: Vector) -> PayloadVector:
        if len(u) != self.dim:
            raise DimensionError("vector length does not match basis")
        out = []
        for s in u:
            if not isinstance(s, Scalar):
                raise AlgebraError("vector entries must be Scalar")
            if s.field != self.field:
                raise FieldMismatchError("vector over a different field")
            out.append(s.v)
        return tuple(out)

    def _wrap(self, u: Iterable[object]) -> Vector:
        return tuple(Scalar(self.field, v) for v in u)

    def vector_is_zero(self, u: Vector) -> bool:
        return all(s.is_zero() for s in u)

    def parity_of(self, u: Vector) -> Optional[int]:
        """Common parity of the support, None if mixed, 0 for the zero vector."""
        seen = None
        for s, p in zip(u, self.basis.parities):
            if not s.is_zero():
                if seen is None:
                    seen = p
                elif seen != p:
                    return None
        return 0 if seen is None else seen

    # -- raw product --------------------------------------------------------

    def _mul_payload(self, u: SparseVector, v: SparseVector) -> SparseVector:
        """The product kernel: bilinear extension over the nonzero cells."""
        F = self.field
        add, mul, is_zero = F.add, F.mul, F.is_zero
        nz = self._nz
        out: Dict[int, object] = {}
        for i, ui in u:
            row = nz[i]
            for j, vj in v:
                cell = row[j]
                if cell:
                    uv = mul(ui, vj)
                    for k, ck in cell:
                        x = mul(uv, ck)
                        y = out.get(k)
                        if y is None:
                            out[k] = x
                        elif is_zero(y := add(y, x)):
                            del out[k]
                        else:
                            out[k] = y
        return tuple(sorted(out.items()))


def multiply(A: SuperAlgebra, u: Vector, v: Vector) -> Vector:
    """Bilinear extension of the structure constants."""
    F = A.field
    return A._wrap(dense(F, A.dim, A._mul_payload(sparse(F, A._unwrap(u)), sparse(F, A._unwrap(v)))))


def validate(A: SuperAlgebra) -> IdentityReport:
    """Grading check: c[i][j][k] = 0 unless parity(k) = parity(i)+parity(j)."""
    F, par, names = A.field, A.basis.parities, A.basis.names
    rows = (((names[i], names[j]), [F.zero if par[k] == (par[i] + par[j]) % 2 else x
                                    for k, x in enumerate(A.table[i][j])])
            for i, j in itertools.product(range(A.dim), repeat=2))
    return table_report("grading", F, rows, A.dim * A.dim)


def _graded_sums(A: SuperAlgebra, sign: int):
    """The table c[i][j] + sign*(-1)^(p_i p_j) c[j][i]: the super-commutator
    product for sign -1, twice the plus product for +1."""
    F, par = A.field, A.basis.parities
    return [
        [tuple(map(F.sub if sign * (-1) ** (par[i] * par[j]) < 0 else F.add, A.table[i][j], A.table[j][i]))
         for j in range(A.dim)]
        for i in range(A.dim)
    ]


def _pairwise_report(A: SuperAlgebra, name: str, sign: int) -> IdentityReport:
    # residual = mu(ei,ej) - sign*(-1)^(pi pj) mu(ej,ei)
    names = A.basis.names
    rows = (((names[i], names[j]), res)
            for i, row in enumerate(_graded_sums(A, -sign)) for j, res in enumerate(row))
    return table_report(name, A.field, rows, A.dim * A.dim)


def is_super_commutative(A: SuperAlgebra) -> IdentityReport:
    return _pairwise_report(A, "supercommutative", 1)


def is_super_skewsymmetric(A: SuperAlgebra) -> IdentityReport:
    return _pairwise_report(A, "superskew", -1)


# ---------------------------------------------------------------------------
# Even linear maps (data lives here; the operations live in maps.py)
# ---------------------------------------------------------------------------


class EvenLinearMap:
    """Square matrix over the basis; column j is the image of basis element j."""

    __slots__ = ("field", "cols", "_nz")

    def __init__(self, field: Field, cols: Sequence[PayloadVector]):
        n = len(cols)
        if any(len(c) != n for c in cols):
            raise DimensionError("map matrix is not square")
        self.field = field
        normal = field.normal
        self.cols = tuple(tuple(map(normal, c)) for c in cols)
        # _nz[j]: column j as a sparse vector
        self._nz = tuple(sparse(field, col) for col in self.cols)

    @property
    def dim(self) -> int:
        return len(self.cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "EvenLinearMap":
        return cls(
            field,
            [
                tuple(field.one if i == j else field.zero for i in range(n))
                for j in range(n)
            ],
        )

    def is_identity(self) -> bool:
        F = self.field
        for j, col in enumerate(self.cols):
            for i, x in enumerate(col):
                want = F.one if i == j else F.zero
                if not F.eq(x, want):
                    return False
        return True

    def entry(self, i: int, j: int) -> Scalar:
        return Scalar(self.field, self.cols[j][i])

    def apply_payload(self, u: SparseVector) -> SparseVector:
        """The map kernel: matrix-vector product over the nonzero entries."""
        F = self.field
        add, mul, is_zero = F.add, F.mul, F.is_zero
        nz = self._nz
        out: Dict[int, object] = {}
        for j, uj in u:
            for i, m in nz[j]:
                x = mul(m, uj)
                y = out.get(i)
                if y is None:
                    out[i] = x
                elif is_zero(y := add(y, x)):
                    del out[i]
                else:
                    out[i] = y
        return tuple(sorted(out.items()))

    def apply(self, A: SuperAlgebra, u: Vector) -> Vector:
        F = self.field
        return A._wrap(dense(F, self.dim, self.apply_payload(sparse(F, A._unwrap(u)))))


@dataclass
class HomSuperAlgebra:
    algebra: SuperAlgebra
    alpha: EvenLinearMap

    def __post_init__(self):
        if self.alpha.dim != self.algebra.dim:
            raise DimensionError("twist map dimension does not match algebra")
        if self.alpha.field != self.algebra.field:
            raise FieldMismatchError("twist map over a different field")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def field(self) -> Field:
        return self.algebra.field


def hom(A: SuperAlgebra, alpha: Optional[EvenLinearMap] = None) -> HomSuperAlgebra:
    """Pair an algebra with a twist (identity by default)."""
    if alpha is None:
        alpha = EvenLinearMap.identity(A.field, A.dim)
    return HomSuperAlgebra(A, alpha)


# ---------------------------------------------------------------------------
# Commutator and plus constructions
# ---------------------------------------------------------------------------


def commutator_algebra(H: HomSuperAlgebra) -> HomSuperAlgebra:
    """[x,y] = mu(x,y) - (-1)^(|x||y|) mu(y,x), same twist."""
    A = H.algebra
    return HomSuperAlgebra(SuperAlgebra(A.basis, A.field, _graded_sums(A, -1)), H.alpha)


def plus_algebra(H: HomSuperAlgebra) -> HomSuperAlgebra:
    """x*y = (1/2)(mu(x,y) + (-1)^(|x||y|) mu(y,x)), same twist."""
    A = H.algebra
    F = A.field
    if F.spec.characteristic == 2:
        raise AlgebraError("plus product needs 1/2: characteristic 2 field")
    half = F.inv(F.from_int(2))
    table = [[tuple(F.mul(half, x) for x in vec) for vec in row] for row in _graded_sums(A, 1)]
    return HomSuperAlgebra(SuperAlgebra(A.basis, F, table), H.alpha)
