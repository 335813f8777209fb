"""The twisted multilinear forms, the identity checkers built from them,
and the runner.

Each form has one definition here, on the evaluation context `_Ctx`: the
twisted associator `as_vec`, the Hom-super-Jacobian `jform`, the cyclic sum
`sform`, the super-commutator `bracket`, and the graded Bruck-Kleinfeld
functions on basis slots, `_f_basis` and `_F_basis`.  `_Ctx` multiplies and
twists with the kernels of `superalg`.  The public forms (`hom_associator`,
`hom_super_jacobian`, `cyclic_hom_associator`, `bk_f`, `bk_F`) take Scalar
vectors and evaluate through the same context; the brute-force `oracle` is
the one independent second route.

Sub-terms that recur across slot orders are kept in tables on the context:
`_Ctx.term(fn, *slots)` computes a sub-term function such as
as(e_a e_b, a(e_k), a(e_t)), the bracket [a^2(e_k), as(e_a, e_b, e_c)], a
Jacobian, a twisted product or the Bruck-Kleinfeld f once per tuple of basis
slots, in a flat lazily filled list of dim**len(slots) entries per function.
The rule is cache, don't reassociate: a residual reads its sub-terms from
the tables but adds them in the same order and with the same signs as the
identity is written, so the sums are the very payloads the uncached
expression gives.  That matters over Frac(K[params]), whose payloads are not
gcd-reduced, where another summation order could print a residual
differently.  Stored values are zero-normalised (a zero coordinate is the
field's shared zero, an all-zero vector is `ctx.zero`), and adding
`ctx.zero` is skipped, which leaves every sum unchanged.

Every checker walks all homogeneous basis tuples of its arity in
lexicographic order, evaluates the residual LHS - RHS of its identity
exactly, and reports the failing tuples (capped, lex-first).  Signs are
computed from the parities of the tuple slots as the identity is written;
derived arguments such as brackets or alpha-images inherit the formula
parity of the letters they were built from, so the checks stay well defined
even on tables whose grading is broken (the bundled examples contain one
such twist).  The public forms read their signs from the parities of their
arguments, so the signed ones insist on homogeneous arguments.

The module-level CHECKERS registry maps the stable checker names used by
the CLI to their implementations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .maps import compose
from .report import IdentityReport, Vector
from .superalg import (
    AlgebraError,
    HomSuperAlgebra,
    SuperAlgebra,
    commutator_algebra,
    is_super_commutative,
    is_super_skewsymmetric,
    plus_algebra,
)


class CheckError(AlgebraError):
    pass


class HomogeneityError(AlgebraError):
    """A sign-bearing form got a mixed-parity argument."""


class UnknownCheckerError(CheckError):
    pass


class PreconditionError(CheckError):
    """The identity's standing hypothesis (skew / commutative / char) fails."""

    def __init__(self, identity: str, requirement: str, report: Optional[IdentityReport] = None):
        self.identity = identity
        self.requirement = requirement
        self.report = report
        super().__init__(f"{identity}: requires {requirement}")


class _Ctx:
    """Unwrapped evaluation context: raw payload tables, field ops, the
    product and map kernels of the algebra and its twist, and the sub-term
    tables filled by `term`."""

    __slots__ = (
        "F", "dim", "par", "names", "slot_names", "c", "acols", "a2cols", "zero",
        "bvecs", "_tables", "mul", "al", "al2",
    )

    def __init__(self, H: HomSuperAlgebra):
        A = H.algebra
        F = A.field
        alpha2 = compose(H.alpha, H.alpha)
        self.F = F
        self.dim = A.dim
        self.par = A.basis.parities
        self.names = A.basis.names
        self.slot_names = A.basis.slot_names
        self.c = A.table
        self.acols = H.alpha.cols
        self.a2cols = alpha2.cols
        self.zero = tuple(F.zero for _ in range(A.dim))
        self.bvecs = tuple(
            tuple(F.one if i == j else F.zero for i in range(A.dim))
            for j in range(A.dim)
        )
        self._tables: Dict[Callable, list] = {}
        # the kernels themselves, bound: mul(u, v), al(u) = alpha(u),
        # al2(u) = alpha^2(u) on payload vectors
        self.mul = A._mul_payload
        self.al = H.alpha.apply_payload
        self.al2 = alpha2.apply_payload

    def term(self, fn, *slots):
        """fn(self, *slots) for basis indices `slots`, computed once per slot
        tuple: the value is kept in a flat table of dim**len(slots) entries,
        one table per sub-term function.  Zero coordinates are stored as the
        shared F.zero and an all-zero vector as `self.zero`."""
        table = self._tables.get(fn)
        if table is None:
            table = self._tables[fn] = [None] * self.dim ** len(slots)
        key = 0
        for s in slots:
            key = key * self.dim + s
        got = table[key]
        if got is None:
            F = self.F
            zero, is_zero = F.zero, F.is_zero
            got = tuple(zero if is_zero(x) else x for x in fn(self, *slots))
            if all(x is zero for x in got):
                got = self.zero
            table[key] = got
        return got

    # -- vector combinators; adding the shared zero vector is skipped, which
    #    leaves every sum unchanged

    def add(self, u, v):
        if v is self.zero:
            return u
        return tuple(map(self.F.add, u, v))

    def sub(self, u, v):
        if v is self.zero:
            return u
        return tuple(map(self.F.sub, u, v))

    def acc(self, u, v, exp: int):
        """u + (-1)^exp v."""
        return self.sub(u, v) if exp % 2 else self.add(u, v)

    def scale_int(self, n: int, u):
        F = self.F
        c = F.from_int(n)
        return tuple(F.mul(c, x) for x in u)

    def is_zero_vec(self, u) -> bool:
        F = self.F
        return all(F.is_zero(x) for x in u)

    # -- forms

    def as_vec(self, x, y, z):
        return self.sub(
            self.mul(self.mul(x, y), self.al(z)),
            self.mul(self.al(x), self.mul(y, z)),
        )

    def as_b(self, i: int, j: int, k: int):
        return self.term(_as_basis, i, j, k)

    def jform(self, x, y, z, exp_yz: int):
        """[[x,y],a(z)] - [a(x),[y,z]] - (-1)^exp [[x,z],a(y)], with mu as
        the bracket (callers pass a skew product)."""
        t = self.sub(
            self.mul(self.mul(x, y), self.al(z)),
            self.mul(self.al(x), self.mul(y, z)),
        )
        return self.acc(t, self.mul(self.mul(x, z), self.al(y)), 1 + exp_yz)

    def bracket(self, u, v, exp: int):
        """Super-commutator of mu: uv - (-1)^exp vu."""
        return self.acc(self.mul(u, v), self.mul(v, u), 1 + exp)

    def sform(self, x, y, z, px, py, pz):
        t = self.acc(self.as_vec(x, y, z), self.as_vec(y, z, x), px * (py + pz))
        return self.acc(t, self.as_vec(z, x, y), pz * (px + py))


# ---------------------------------------------------------------------------
# Sub-terms on basis slots, read through `_Ctx.term`.  Each is a function of
# the basis indices it depends on; the residuals below look them up at the
# slot orders their identity needs.
# ---------------------------------------------------------------------------


def _as_basis(ctx: _Ctx, i, j, k):
    """as(e_i, e_j, e_k)."""
    return ctx.sub(
        ctx.mul(ctx.c[i][j], ctx.acols[k]),
        ctx.mul(ctx.acols[i], ctx.c[j][k]),
    )


def _as_prod_first(ctx: _Ctx, a, b, k, t):
    """as(e_a e_b, a(e_k), a(e_t))."""
    return ctx.as_vec(ctx.c[a][b], ctx.acols[k], ctx.acols[t])


def _as_prod_mid(ctx: _Ctx, t, a, b, k):
    """as(a(e_t), e_a e_b, a(e_k))."""
    return ctx.as_vec(ctx.acols[t], ctx.c[a][b], ctx.acols[k])


def _as_prod_last(ctx: _Ctx, t, k, a, b):
    """as(a(e_t), a(e_k), e_a e_b)."""
    return ctx.as_vec(ctx.acols[t], ctx.acols[k], ctx.c[a][b])


def _bracket_a2_as(ctx: _Ctx, k, a, b, c):
    """[a^2(e_k), as(e_a, e_b, e_c)]."""
    p = ctx.par
    return ctx.bracket(ctx.a2cols[k], ctx.as_b(a, b, c), p[k] * (p[a] + p[b] + p[c]))


def _jacobian_basis(ctx: _Ctx, i, j, k):
    """J(e_i, e_j, e_k)."""
    return ctx.jform(ctx.bvecs[i], ctx.bvecs[j], ctx.bvecs[k], ctx.par[j] * ctx.par[k])


def _jacobian_twisted(ctx: _Ctx, t, a, b, c):
    """J(a(e_t), a(e_a), e_b e_c)."""
    p = ctx.par
    return ctx.jform(
        ctx.al(ctx.bvecs[t]), ctx.al(ctx.bvecs[a]), ctx.c[b][c], p[a] * (p[b] + p[c])
    )


def _as_bracket_last(ctx: _Ctx, t, a, b, c):
    """as(a(e_t), a(e_a), [e_b, e_c])."""
    p = ctx.par
    return ctx.as_vec(
        ctx.acols[t], ctx.acols[a], ctx.bracket(ctx.bvecs[b], ctx.bvecs[c], p[b] * p[c])
    )


def _al_prod_prod(ctx: _Ctx, a, b, c, d):
    """a(e_a e_b . e_c e_d)."""
    return ctx.al(ctx.mul(ctx.c[a][b], ctx.c[c][d]))


def _prod_twisted(ctx: _Ctx, a, b, m, o):
    """(e_a e_b a(e_m)) a^2(e_o)."""
    return ctx.mul(ctx.mul(ctx.c[a][b], ctx.acols[m]), ctx.a2cols[o])


def _as_bracket_first(ctx: _Ctx, a, b, c, d):
    """as([e_a, e_b], a(e_c), a(e_d))."""
    p = ctx.par
    return ctx.as_vec(
        ctx.bracket(ctx.bvecs[a], ctx.bvecs[b], p[a] * p[b]), ctx.acols[c], ctx.acols[d]
    )


# ---------------------------------------------------------------------------
# Residuals, one per identity; idx slots are documented per checker.
# ---------------------------------------------------------------------------


def _res_left_alt(ctx: _Ctx, idx):
    i, j, k = idx
    return ctx.acc(ctx.as_b(i, j, k), ctx.as_b(j, i, k), ctx.par[i] * ctx.par[j])


def _res_right_alt(ctx: _Ctx, idx):
    i, j, k = idx
    return ctx.acc(ctx.as_b(i, j, k), ctx.as_b(i, k, j), ctx.par[j] * ctx.par[k])


def _res_alternative(ctx: _Ctx, idx):
    r = _res_left_alt(ctx, idx)
    if ctx.is_zero_vec(r):
        r = _res_right_alt(ctx, idx)
    return r


def _res_flexible(ctx: _Ctx, idx):
    i, j, k = idx
    p = ctx.par
    e = p[i] * p[j] + p[i] * p[k] + p[j] * p[k]
    return ctx.acc(ctx.as_b(i, j, k), ctx.as_b(k, j, i), e)


def _res_hom_lie(ctx: _Ctx, idx):
    i, j, k = idx
    return ctx.jform(ctx.bvecs[i], ctx.bvecs[j], ctx.bvecs[k], ctx.par[j] * ctx.par[k])


def _res_hom_malcev(ctx: _Ctx, idx):
    # slots (x, y, z, t); product is the (skew) bracket itself
    i, j, k, l = idx
    p = ctx.par
    px, py, pz, pt = p[i], p[j], p[k], p[l]
    t = ctx.bvecs[l]
    term = ctx.term
    lhs = ctx.scale_int(2, ctx.mul(ctx.al2(t), term(_jacobian_basis, i, j, k)))
    r1 = term(_jacobian_twisted, l, i, j, k)
    r2 = term(_jacobian_twisted, l, j, k, i)
    r3 = term(_jacobian_twisted, l, k, i, j)
    rhs = ctx.acc(ctx.acc(r1, r2, px * (py + pz)), r3, pz * (px + py))
    return ctx.sub(lhs, rhs)


def _res_hom_malcev2(ctx: _Ctx, idx):
    # slots (x, y, z, t)
    i, j, k, l = idx
    p = ctx.par
    px, py, pz, pt = p[i], p[j], p[k], p[l]
    x, t = ctx.bvecs[i], ctx.bvecs[l]
    term = ctx.term
    lhs = ctx.acc(
        term(_jacobian_twisted, i, j, l, k),
        term(_jacobian_twisted, l, j, i, k),
        px * py + pt * (px + py),
    )
    jxyz = term(_jacobian_basis, i, j, k)
    jtyz = term(_jacobian_basis, l, j, k)
    r1 = ctx.mul(jxyz, ctx.al2(t))
    r2 = ctx.mul(jtyz, ctx.al2(x))
    rhs = ctx.acc(
        _sgn(ctx, r1, pt * pz),
        r2,
        px * (py + pz + pt) + pt * py,
    )
    return ctx.sub(lhs, rhs)


def _sgn(ctx: _Ctx, u, exp: int):
    return tuple(ctx.F.neg(a) for a in u) if exp % 2 else u


def _res_hom_malcev3(ctx: _Ctx, idx):
    # slots (x, y, z, t); multiplicative + skew instances make this
    # equivalent to the other two forms
    i, j, k, l = idx
    p = ctx.par
    px, py, pz, pt = p[i], p[j], p[k], p[l]
    lhs = ctx.acc(
        ctx.term(_al_prod_prod, i, j, l, k),
        ctx.term(_al_prod_prod, l, j, i, k),
        px * py + pt * (px + py),
    )
    terms = (
        (pt * pz + px * (pt + py + pz), j, k, l, i),
        (pt * pz + px * (py + pz), j, k, i, l),
        (pz * (px + pt) + py * (pz + pt), k, i, l, j),
        (pt * pz + py * (pt + pz) + px * (pt + pz), k, l, i, j),
        (pt * py + px * (pt + py + pz), l, j, k, i),
        (pz * pt, i, j, k, l),
    )
    rhs = ctx.zero
    for exp, a, b, mid, outer in terms:
        rhs = ctx.acc(rhs, ctx.term(_prod_twisted, a, b, mid, outer), exp)
    return ctx.sub(lhs, rhs)


def _res_hom_jordan(ctx: _Ctx, idx):
    # slots (x, y, z, t); cyclic sum over (x, y, t)
    i, j, k, l = idx
    p = ctx.par
    px, py, pz, pt = p[i], p[j], p[k], p[l]
    t1 = ctx.term(_as_prod_first, i, j, k, l)
    t2 = ctx.term(_as_prod_first, j, l, k, i)
    t3 = ctx.term(_as_prod_first, l, i, k, j)
    out = _sgn(ctx, t1, pt * (px + pz))
    out = ctx.acc(out, t2, px * (py + pz))
    out = ctx.acc(out, t3, py * (pt + pz))
    return out


def _res_teichmuller(ctx: _Ctx, idx):
    # slots (t, x, y, z)
    l, i, j, k = idx
    p = ctx.par
    pt, px, py, pz = p[l], p[i], p[j], p[k]
    t1 = ctx.term(_as_prod_first, l, i, j, k)
    t2 = ctx.term(_as_prod_first, i, j, k, l)
    t3 = ctx.term(_as_prod_first, j, k, l, i)
    lhs = ctx.acc(t1, t2, 1 + pt * (px + py + pz))
    lhs = ctx.acc(lhs, t3, (pt + px) * (py + pz))
    rhs = ctx.add(
        ctx.mul(ctx.a2cols[l], ctx.as_b(i, j, k)),
        ctx.mul(ctx.as_b(l, i, j), ctx.a2cols[k]),
    )
    return ctx.sub(lhs, rhs)


def _f_basis(ctx: _Ctx, l, i, j, k):
    """Bruck-Kleinfeld f(t,x,y,z) on basis slots (l,i,j,k) = (t,x,y,z)."""
    p = ctx.par
    pt, px, py, pz = p[l], p[i], p[j], p[k]
    t1 = ctx.as_vec(ctx.c[l][i], ctx.acols[j], ctx.acols[k])
    t2 = ctx.mul(ctx.as_b(i, j, k), ctx.a2cols[l])
    t3 = ctx.mul(ctx.a2cols[i], ctx.as_b(l, j, k))
    out = ctx.acc(t1, t2, 1 + pt * (px + py + pz))
    return ctx.acc(out, t3, 1 + pt * px)


def _F_basis(ctx: _Ctx, l, i, j, k):
    """Bruck-Kleinfeld F via the explicit four-bracket form."""
    p = ctx.par
    pt, px, py, pz = p[l], p[i], p[j], p[k]
    S = pt + px + py + pz
    term = ctx.term
    out = term(_bracket_a2_as, l, i, j, k)
    out = ctx.acc(out, term(_bracket_a2_as, k, l, i, j), 1 + pz * (S - pz))
    out = ctx.acc(out, term(_bracket_a2_as, j, k, l, i), (pt + px) * (py + pz))
    out = ctx.acc(out, term(_bracket_a2_as, i, j, k, l), 1 + pt * (S - pt))
    return out


def _res_bk_suite(ctx: _Ctx, idx):
    # slots (t, x, y, z); first failing sub-identity wins
    l, i, j, k = idx
    p = ctx.par
    pt, px, py, pz = p[l], p[i], p[j], p[k]
    term = ctx.term
    f = term(_f_basis, l, i, j, k)
    # super-alternating in each adjacent pair
    r = ctx.acc(f, term(_f_basis, i, l, j, k), pt * px)
    if not ctx.is_zero_vec(r):
        return r
    r = ctx.acc(f, term(_f_basis, l, j, i, k), px * py)
    if not ctx.is_zero_vec(r):
        return r
    r = ctx.acc(f, term(_f_basis, l, i, k, j), py * pz)
    if not ctx.is_zero_vec(r):
        return r
    bigF = _F_basis(ctx, l, i, j, k)
    # F = 3f, multiplied out so it stays meaningful in characteristic 3
    r = ctx.sub(bigF, ctx.scale_int(3, f))
    if not ctx.is_zero_vec(r):
        return r
    # F = f . (Id - rho + rho^2), rho(t,x,y,z) = (x,y,z,t)
    rho = ctx.acc(f, term(_f_basis, i, j, k, l), 1 + pt * (px + py + pz))
    rho = ctx.acc(rho, term(_f_basis, j, k, l, i), (pt + px) * (py + pz))
    r = ctx.sub(bigF, rho)
    if not ctx.is_zero_vec(r):
        return r
    # f = as([t,x],a(y),a(z)) + (-1)^((y+z)(x+t)) as([y,z],a(t),a(x))
    b1 = term(_as_bracket_first, l, i, j, k)
    b2 = term(_as_bracket_first, j, k, l, i)
    rhs = ctx.acc(b1, b2, (py + pz) * (px + pt))
    return ctx.sub(f, rhs)


def _res_cyclic_assoc(ctx: _Ctx, idx):
    # slots (t, x, y, z); bracket is the super-commutator of mu
    l, i, j, k = idx
    p = ctx.par
    pt, px, py, pz = p[l], p[i], p[j], p[k]
    term = ctx.term
    lhs = ctx.scale_int(2, term(_bracket_a2_as, l, i, j, k))
    r1 = term(_as_bracket_last, l, i, j, k)
    r2 = term(_as_bracket_last, l, j, k, i)
    r3 = term(_as_bracket_last, l, k, i, j)
    rhs = ctx.acc(ctx.acc(r1, r2, px * (py + pz)), r3, pz * (px + py))
    return ctx.sub(lhs, rhs)


def _make_res_j_eq_6as(ctx: _Ctx, minus_ctx: _Ctx):
    def res(_ctx_unused, idx):
        i, j, k = idx
        return ctx.sub(
            minus_ctx.term(_jacobian_basis, i, j, k), ctx.scale_int(6, ctx.as_b(i, j, k))
        )
    return res


def _make_res_j_eq_2s(ctx: _Ctx, minus_ctx: _Ctx):
    def res(_ctx_unused, idx):
        # S(e_i, e_j, e_k) from the associator table at its three rotations
        i, j, k = idx
        p = ctx.par
        px, py, pz = p[i], p[j], p[k]
        s = ctx.acc(ctx.as_b(i, j, k), ctx.as_b(j, k, i), px * (py + pz))
        s = ctx.acc(s, ctx.as_b(k, i, j), pz * (px + py))
        return ctx.sub(minus_ctx.term(_jacobian_basis, i, j, k), ctx.scale_int(2, s))
    return res


def _make_res_jordan_expansion(ctx: _Ctx, plus_ctx: _Ctx):
    """Two-route expansion of the plus-product cyclic associator sum.

    Route 1 evaluates the cyclic twisted-associator sum inside the plus
    algebra; route 2 expands the same sum into associators and commutator
    brackets of the original product.  The identity is unconditional, so the
    two routes must agree on every quadruple of any algebra (char != 2).
    """

    def res(_ctx_unused, idx):
        i, j, k, l = idx  # slots (x, y, z, t)
        p = ctx.par
        px, py, pz, pt = p[i], p[j], p[k], p[l]
        plus = plus_ctx.term
        lhs = _sgn(plus_ctx, plus(_as_prod_first, i, j, k, l), pt * (px + pz))
        lhs = plus_ctx.acc(lhs, plus(_as_prod_first, j, l, k, i), px * (py + pz))
        lhs = plus_ctx.acc(lhs, plus(_as_prod_first, l, i, k, j), py * (pt + pz))
        lhs = plus_ctx.scale_int(8, lhs)

        rhs = ctx.zero
        term, add = ctx.term, ctx.acc
        first, mid, last = _as_prod_first, _as_prod_mid, _as_prod_last
        # twelve associator terms per cyclic summand of (x, y, t); z = k
        for (a, b, t_) in ((i, j, l), (j, l, i), (l, i, j)):
            qa, qb, qt = p[a], p[b], p[t_]
            qz = pz
            rhs = add(rhs, term(first, a, b, k, t_), qt * (qa + qz))
            rhs = add(rhs, term(first, b, a, k, t_), qt * (qa + qz) + qa * qb)
            rhs = add(rhs, term(last, t_, k, a, b), 1 + qt * qb + qz * (qa + qb))
            rhs = add(rhs, term(last, t_, k, b, a), 1 + qb * (qa + qt) + qz * (qa + qb))
            rhs = add(rhs, term(mid, t_, a, b, k), 1 + qt * qb)
            rhs = add(rhs, term(mid, t_, b, a, k), 1 + qb * (qa + qt))
            rhs = add(rhs, term(mid, k, b, a, t_), qa * (qt + qb) + qz * (qa + qb + qt))
            rhs = add(rhs, term(mid, k, a, b, t_), qt * (qa + qz) + qz * (qa + qb))
            rhs = add(rhs, term(last, k, t_, a, b), 1 + qz * (qa + qb + qt) + qt * qb)
            rhs = add(rhs, term(first, a, b, t_, k), qt * qa)
            rhs = add(rhs, term(last, k, t_, b, a), 1 + qz * (qa + qb + qt) + qb * (qa + qt))
            rhs = add(rhs, term(first, b, a, t_, k), qa * (qb + qt))
        # six bracket terms, stated once
        S3 = px + py + pt
        for exp, (a, b, c_) in (
            (px * py, (j, l, i)),
            (py * (px + pt), (l, j, i)),
            (pt * py, (l, i, j)),
            (pt * (px + py), (i, l, j)),
            (px * pt, (i, j, l)),
            (px * (py + pt), (j, i, l)),
        ):
            rhs = add(rhs, term(_bracket_a2_as, k, a, b, c_), exp + pz * S3)
        return ctx.sub(lhs, rhs)

    return res


# ---------------------------------------------------------------------------
# Runner and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Checker:
    name: str
    arity: int
    make: Callable[[HomSuperAlgebra], Callable]  # H -> residual(ctx, idx)
    requires: str = ""  # "", "skew", "commutative"


def _plain(res_fn):
    def make(H):
        ctx = _Ctx(H)
        return ctx, res_fn
    return make


def _with_minus(factory):
    def make(H):
        ctx = _Ctx(H)
        minus_ctx = _Ctx(commutator_algebra(H))
        return ctx, factory(ctx, minus_ctx)
    return make


def _with_plus(factory):
    def make(H):
        ctx = _Ctx(H)
        plus_ctx = _Ctx(plus_algebra(H))
        return ctx, factory(ctx, plus_ctx)
    return make


def _on_minus(res_fn):
    def make(H):
        ctx = _Ctx(commutator_algebra(H))
        return ctx, res_fn
    return make


def _on_plus(res_fn):
    def make(H):
        ctx = _Ctx(plus_algebra(H))
        return ctx, res_fn
    return make


def _res_supercommutative(ctx: _Ctx, idx):
    i, j = idx
    return ctx.acc(ctx.c[i][j], ctx.c[j][i], 1 + ctx.par[i] * ctx.par[j])


def _res_superskew(ctx: _Ctx, idx):
    i, j = idx
    return ctx.acc(ctx.c[i][j], ctx.c[j][i], ctx.par[i] * ctx.par[j])


def _res_multiplicative(ctx: _Ctx, idx):
    i, j = idx
    return ctx.sub(ctx.al(ctx.c[i][j]), ctx.mul(ctx.acols[i], ctx.acols[j]))


CHECKERS: Dict[str, Checker] = {}


def _register(name, arity, make, requires=""):
    CHECKERS[name] = Checker(name, arity, make, requires)


_register("left-alt", 3, _plain(_res_left_alt))
_register("right-alt", 3, _plain(_res_right_alt))
_register("alternative", 3, _plain(_res_alternative))
_register("flexible", 3, _plain(_res_flexible))
_register("hom-lie", 3, _plain(_res_hom_lie), requires="skew")
_register("hom-malcev", 4, _plain(_res_hom_malcev), requires="skew")
_register("hom-malcev-2", 4, _plain(_res_hom_malcev2), requires="skew")
_register("hom-malcev-3", 4, _plain(_res_hom_malcev3), requires="skew")
_register("hom-jordan", 4, _plain(_res_hom_jordan), requires="commutative")
_register("lie-admissible", 3, _on_minus(_res_hom_lie))
_register("malcev-admissible", 4, _on_minus(_res_hom_malcev))
_register("jordan-admissible", 4, _on_plus(_res_hom_jordan))
_register("teichmuller", 4, _plain(_res_teichmuller))
_register("bk-suite", 4, _plain(_res_bk_suite))
_register("cyclic-assoc", 4, _plain(_res_cyclic_assoc))
_register("j-eq-6as", 3, _with_minus(_make_res_j_eq_6as))
_register("j-eq-2s", 3, _with_minus(_make_res_j_eq_2s))
_register("jordan-expansion", 4, _with_plus(_make_res_jordan_expansion))
_register("supercommutative", 2, _plain(_res_supercommutative))
_register("superskew", 2, _plain(_res_superskew))
_register("multiplicative", 2, _plain(_res_multiplicative))


def checker_names() -> Tuple[str, ...]:
    return tuple(CHECKERS)


def _check_requirement(name: str, H: HomSuperAlgebra, requires: str):
    if requires == "skew":
        rep = is_super_skewsymmetric(H.algebra)
        if not rep.holds:
            raise PreconditionError(name, "a super-skewsymmetric product", rep)
    elif requires == "commutative":
        rep = is_super_commutative(H.algebra)
        if not rep.holds:
            raise PreconditionError(name, "a super-commutative product", rep)


def run_checker(
    name: str, H: HomSuperAlgebra, max_counterexamples: int = 16
) -> IdentityReport:
    """Run one registry checker over all homogeneous basis tuples."""
    try:
        chk = CHECKERS[name]
    except KeyError:
        raise UnknownCheckerError(name) from None
    if max_counterexamples < 1:
        raise CheckError(
            f"max_counterexamples must be at least 1, got {max_counterexamples}"
        )
    _check_requirement(name, H, chk.requires)
    ctx, res_fn = chk.make(H)
    dim = ctx.dim
    bad = []
    holds = True
    for idx in itertools.product(range(dim), repeat=chk.arity):
        r = res_fn(ctx, idx)
        if not ctx.is_zero_vec(r):
            holds = False
            if len(bad) < max_counterexamples:
                # reported coordinates are hash-consed and the slot names
                # come from the basis, so every zero is one Scalar and
                # repeated reports share their values and names
                bad.append((ctx.slot_names(idx), tuple(map(ctx.F.shared_scalar, r))))
            else:
                break
    return IdentityReport(name, holds, tuple(bad), dim**chk.arity)


def _slot_indices(ctx: _Ctx, what: str, tuple_names: Sequence[str], arity: int):
    """Basis indices of `tuple_names`, after checking the slot count and
    every name."""
    if len(tuple_names) != arity:
        raise CheckError(f"{what} expects {arity} slots, got {len(tuple_names)}")
    for n in tuple_names:
        if n not in ctx.names:
            raise CheckError(f"{what}: unknown basis element {n!r}")
    return tuple(ctx.names.index(n) for n in tuple_names)


def residual_at(name: str, H: HomSuperAlgebra, tuple_names: Sequence[str]):
    """Exact residual vector of one checker at one basis tuple."""
    try:
        chk = CHECKERS[name]
    except KeyError:
        raise UnknownCheckerError(name) from None
    ctx, res_fn = chk.make(H)
    r = res_fn(ctx, _slot_indices(ctx, name, tuple_names, chk.arity))
    return tuple(ctx.F.scalar(x) for x in r)


_FORM_ARITY = {
    "product": 2, "as": 3, "S": 3, "J": 3, "J-minus": 3, "leftalt": 3, "jordan": 4,
}


# Named multilinear values used by the corpus claims.
def form_value(form: str, H: HomSuperAlgebra, tuple_names: Sequence[str]):
    if form not in _FORM_ARITY:
        raise CheckError(f"unknown value form {form!r}")
    ctx = _Ctx(H)
    idx = _slot_indices(ctx, form, tuple_names, _FORM_ARITY[form])
    if form == "product":
        i, j = idx
        out = ctx.c[i][j]
    elif form == "as":
        i, j, k = idx
        out = ctx.as_b(i, j, k)
    elif form == "S":
        i, j, k = idx
        p = ctx.par
        out = ctx.sform(ctx.bvecs[i], ctx.bvecs[j], ctx.bvecs[k], p[i], p[j], p[k])
    elif form == "J":
        i, j, k = idx
        out = ctx.jform(ctx.bvecs[i], ctx.bvecs[j], ctx.bvecs[k], ctx.par[j] * ctx.par[k])
    elif form == "J-minus":
        mctx = _Ctx(commutator_algebra(H))
        i, j, k = idx
        out = mctx.jform(mctx.bvecs[i], mctx.bvecs[j], mctx.bvecs[k], mctx.par[j] * mctx.par[k])
    elif form == "leftalt":
        out = _res_left_alt(ctx, idx)
    else:  # "jordan"
        out = _res_hom_jordan(ctx, idx)
    return tuple(ctx.F.scalar(x) for x in out)


# ---------------------------------------------------------------------------
# Public forms.  They take Scalar vectors and evaluate through _Ctx; the
# signed forms demand homogeneous arguments wherever the identity reads a
# parity.
# ---------------------------------------------------------------------------


def _homogeneous_parity(A: SuperAlgebra, u: Vector, slot: str) -> int:
    p = A.parity_of(u)
    if p is None:
        raise HomogeneityError(f"argument {slot} has mixed parity")
    return p


def hom_associator(H: HomSuperAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """as(x,y,z) = mu(mu(x,y), a(z)) - mu(a(x), mu(y,z)); no signs, any vectors."""
    A = H.algebra
    xp, yp, zp = A._unwrap(x), A._unwrap(y), A._unwrap(z)
    return A._wrap(_Ctx(H).as_vec(xp, yp, zp))


def hom_super_jacobian(H: HomSuperAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """J(x,y,z) = [[x,y],a(z)] - [a(x),[y,z]] - (-1)^(|y||z|)[[x,z],a(y)].

    y and z must be homogeneous so the sign is defined.
    """
    A = H.algebra
    py = _homogeneous_parity(A, y, "y")
    pz = _homogeneous_parity(A, z, "z")
    xp, yp, zp = A._unwrap(x), A._unwrap(y), A._unwrap(z)
    return A._wrap(_Ctx(H).jform(xp, yp, zp, py * pz))


def cyclic_hom_associator(H: HomSuperAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """S(x,y,z) = as(x,y,z) + (-1)^(|x|(|y|+|z|)) as(y,z,x)
                + (-1)^(|z|(|x|+|y|)) as(z,x,y); homogeneous arguments."""
    A = H.algebra
    px = _homogeneous_parity(A, x, "x")
    py = _homogeneous_parity(A, y, "y")
    pz = _homogeneous_parity(A, z, "z")
    xp, yp, zp = A._unwrap(x), A._unwrap(y), A._unwrap(z)
    return A._wrap(_Ctx(H).sform(xp, yp, zp, px, py, pz))


def _bk_extension(H: HomSuperAlgebra, basis_form, args) -> Vector:
    """Multilinear extension of a basis-slot form over the nonzero
    coordinates of its homogeneous arguments (t, x, y, z)."""
    A = H.algebra
    for v, slot in zip(args, "txyz"):
        _homogeneous_parity(A, v, slot)
    ctx = _Ctx(H)
    F = ctx.F
    supports = [
        [(i, a) for i, a in enumerate(A._unwrap(v)) if not F.is_zero(a)] for v in args
    ]
    out = ctx.zero
    for picks in itertools.product(*supports):
        coeff = F.one
        for _, a in picks:
            coeff = F.mul(coeff, a)
        term = basis_form(ctx, *(i for i, _ in picks))
        out = ctx.add(out, tuple(F.mul(coeff, x) for x in term))
    return A._wrap(out)


def bk_f(H: HomSuperAlgebra, t: Vector, x: Vector, y: Vector, z: Vector) -> Vector:
    """Graded Bruck-Kleinfeld f(t,x,y,z); homogeneous arguments."""
    return _bk_extension(H, _f_basis, (t, x, y, z))


def bk_F(H: HomSuperAlgebra, t: Vector, x: Vector, y: Vector, z: Vector) -> Vector:
    """Graded Bruck-Kleinfeld F(t,x,y,z); homogeneous arguments."""
    return _bk_extension(H, _F_basis, (t, x, y, z))
