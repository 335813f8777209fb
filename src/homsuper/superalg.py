"""Z2-graded algebras given by structure constants: the data, the product
and map kernels and the grading check.

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
Hom-super-Jacobian, Bruck-Kleinfeld functions) live in `identities`, and so
do the super-skew and super-commutative reports, which are its registry
checkers run on `hom(A)`, and the super-commutator and plus algebras, whose
tables are those checkers' residuals.
"""

from __future__ import annotations

import functools
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
    # (field, slots, residual key) -> entry, field -> its zero Scalar,
    # ("report", entry ids) -> those entries (held here, so ids stay unique),
    # and ("oracle", slots) -> the oracle's failing (False, names) pair
    _entries: Dict[object, object] = dc_field(default_factory=dict, init=False, repr=False, compare=False)

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
        lives, so repeated reports share their entries.  The key holds the
        field, as payload keys repeat across fields (1 in Q and in GF(5)),
        and every zero coordinate is the one zero Scalar of F."""
        key = F, idx, tuple((k, F.key(x)) for k, x in r)
        got = self._entries.get(key)
        if got is None:
            vec = [self._entries.setdefault(F, F.scalar(F.zero))] * len(self.names)
            for k, x in r:
                vec[k] = F.scalar(x)
            got = self._entries[key] = (tuple(self.names[i] for i in idx), tuple(vec))
        return got

    def counterexamples(self, entries) -> tuple:
        """The tuple of `counterexample` entries, shared like them; it pays
        where many equal reports are kept, as the benchmark keeps rounds."""
        return self._entries.setdefault(("report", *map(id, entries)), tuple(entries))


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
        if any(len(vec) != n for row in table for vec in row):
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
        return self._wrap([self.field.zero] * self.dim)

    def basis_vector(self, i) -> Vector:
        if isinstance(i, str):
            i = self.basis.index(i)
        return self._wrap(self.field.one if j == i else self.field.zero for j in range(self.dim))

    def _unwrap(self, u: Vector) -> PayloadVector:
        if len(u) != self.dim:
            raise DimensionError("vector length does not match basis")
        out = []
        for s in u:
            if not isinstance(s, Scalar):
                raise AlgebraError("vector entries must be Scalar")
            if s.field is not self.field and s.field != self.field:
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
    @functools.cache  # one per (field, size): no code mutates a map
    def identity(cls, field: Field, n: int) -> "EvenLinearMap":
        return cls(field, [tuple(field.one if i == j else field.zero for i in range(n)) for j in range(n)])

    def is_identity(self) -> bool:
        F = self.field
        return all(F.eq(x, F.one if i == j else F.zero)
                   for j, col in enumerate(self.cols) for i, x in enumerate(col))

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


@dataclass(frozen=True)
class HomSuperAlgebra:
    algebra: SuperAlgebra
    alpha: EvenLinearMap
    # "minus" / "plus" -> the minus / plus algebra, made once by
    # identities (frozen, so nothing kept can go stale)
    _kept: Dict[str, object] = dc_field(default_factory=dict, init=False, repr=False, compare=False)

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
    return HomSuperAlgebra(A, EvenLinearMap.identity(A.field, A.dim) if alpha is None else alpha)
