"""Z2-graded algebras given by structure constants: the data, the product
and map kernels, the grading checks and the commutator / plus constructions.

An algebra is an ordered homogeneous basis (names + parities) together with a
dense 3-index table: `c[i][j]` is the coordinate vector of the product of
basis elements i and j.  Entries are raw field payloads (see coeff), brought
into the field's canonical form (`Field.normal`) once on construction; the
public operations speak `Scalar` vectors and unwrap at the boundary.

The multilinear forms built from these kernels (twisted associator,
Hom-super-Jacobian, Bruck-Kleinfeld functions) live in `identities`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .coeff import Field, FieldMismatchError, Scalar
from .report import IdentityReport, Vector


class AlgebraError(Exception):
    pass


class DimensionError(AlgebraError):
    pass


@dataclass(frozen=True)
class Basis:
    names: Tuple[str, ...]
    parities: Tuple[int, ...]
    # slot tuple -> names tuple, filled by slot_names
    _slot_names: Dict[Tuple[int, ...], Tuple[str, ...]] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    def slot_names(self, idx: Tuple[int, ...]) -> Tuple[str, ...]:
        """The names of the basis slots `idx`, one tuple per slot tuple for
        as long as the basis lives, so reports that name the same slots
        share it."""
        got = self._slot_names.get(idx)
        if got is None:
            got = self._slot_names[idx] = tuple(self.names[i] for i in idx)
        return got


PayloadVector = Tuple[object, ...]


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
        # _nz[i][j]: the (k, c[i][j][k]) pairs with a nonzero constant
        isz = field.is_zero
        self._nz = tuple(
            tuple(tuple((k, ck) for k, ck in enumerate(vec) if not isz(ck)) for vec in row)
            for row in self.table
        )

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

    def vector(self, coeffs: Mapping[str, Scalar]) -> Vector:
        out = [self.field.zero] * self.dim
        for name, s in coeffs.items():
            if s.field != self.field:
                raise FieldMismatchError(name)
            out[self.basis.index(name)] = s.v
        return tuple(Scalar(self.field, v) for v in out)

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

    def _mul_payload(self, u: PayloadVector, v: PayloadVector) -> PayloadVector:
        """The product kernel: bilinear extension over the nonzero constants."""
        F = self.field
        add, mul, is_zero = F.add, F.mul, F.is_zero
        nz = self._nz
        out = [F.zero] * len(nz)
        for i, ui in enumerate(u):
            if is_zero(ui):
                continue
            row = nz[i]
            for j, vj in enumerate(v):
                if is_zero(vj):
                    continue
                uv = mul(ui, vj)
                for k, ck in row[j]:
                    out[k] = add(out[k], mul(uv, ck))
        return tuple(out)


def multiply(A: SuperAlgebra, u: Vector, v: Vector) -> Vector:
    """Bilinear extension of the structure constants."""
    return A._wrap(A._mul_payload(A._unwrap(u), A._unwrap(v)))


def validate(A: SuperAlgebra) -> IdentityReport:
    """Grading check: c[i][j][k] = 0 unless parity(k) = parity(i)+parity(j)."""
    par = A.basis.parities
    bad = []
    for i in range(A.dim):
        for j in range(A.dim):
            vec = A.table[i][j]
            offending = [
                A.field.zero if par[k] == (par[i] + par[j]) % 2 else vec[k]
                for k in range(A.dim)
            ]
            if any(not A.field.is_zero(x) for x in offending):
                bad.append(((A.basis.names[i], A.basis.names[j]), A._wrap(offending)))
    return IdentityReport("grading", not bad, tuple(bad), A.dim * A.dim)


def _pairwise_report(A: SuperAlgebra, name: str, sign: int) -> IdentityReport:
    # residual = mu(ei,ej) - sign*(-1)^(pi pj) mu(ej,ei)
    F = A.field
    par = A.basis.parities
    bad = []
    for i in range(A.dim):
        for j in range(A.dim):
            s = -1 if (par[i] * par[j]) % 2 else 1
            s *= sign
            res = []
            for k in range(A.dim):
                x = A.table[i][j][k]
                y = A.table[j][i][k]
                res.append(F.sub(x, y) if s > 0 else F.add(x, y))
            if any(not F.is_zero(x) for x in res):
                bad.append(((A.basis.names[i], A.basis.names[j]), A._wrap(res)))
    return IdentityReport(name, not bad, tuple(bad), A.dim * A.dim)


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
        # _nz[j]: the (i, m[i][j]) pairs with a nonzero entry in column j
        isz = field.is_zero
        self._nz = tuple(
            tuple((i, m) for i, m in enumerate(col) if not isz(m)) for col in self.cols
        )

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

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Vector]) -> "EvenLinearMap":
        payload = []
        for col in cols:
            for s in col:
                if s.field != field:
                    raise FieldMismatchError("matrix entry over a different field")
            payload.append(tuple(s.v for s in col))
        return cls(field, payload)

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

    def apply_payload(self, u: PayloadVector) -> PayloadVector:
        """The map kernel: matrix-vector product over the nonzero entries."""
        F = self.field
        add, mul, is_zero = F.add, F.mul, F.is_zero
        nz = self._nz
        out = [F.zero] * len(nz)
        for j, uj in enumerate(u):
            if is_zero(uj):
                continue
            for i, m in nz[j]:
                out[i] = add(out[i], mul(m, uj))
        return tuple(out)

    def apply(self, A: SuperAlgebra, u: Vector) -> Vector:
        return A._wrap(self.apply_payload(A._unwrap(u)))


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
    F = A.field
    par = A.basis.parities
    table = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            s = (par[i] * par[j]) % 2
            vec = tuple(
                F.add(x, y) if s else F.sub(x, y)
                for x, y in zip(A.table[i][j], A.table[j][i])
            )
            row.append(vec)
        table.append(row)
    return HomSuperAlgebra(SuperAlgebra(A.basis, F, table), H.alpha)


def plus_algebra(H: HomSuperAlgebra) -> HomSuperAlgebra:
    """x*y = (1/2)(mu(x,y) + (-1)^(|x||y|) mu(y,x)), same twist."""
    A = H.algebra
    F = A.field
    if F.spec.characteristic == 2:
        raise AlgebraError("plus product needs 1/2: characteristic 2 field")
    half = F.inv(F.from_int(2))
    par = A.basis.parities
    table = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            s = (par[i] * par[j]) % 2
            vec = tuple(
                F.mul(half, F.sub(x, y) if s else F.add(x, y))
                for x, y in zip(A.table[i][j], A.table[j][i])
            )
            row.append(vec)
        table.append(row)
    return HomSuperAlgebra(SuperAlgebra(A.basis, F, table), H.alpha)
