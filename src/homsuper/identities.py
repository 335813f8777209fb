"""The identity checkers as data, the one compiler that evaluates them, and
the runner.

Words are Python expressions over letters, the slots of an identity bound
to the basis elements of one tuple: u*v is the product mu, a(u) the twist
alpha, a2(u) alpha^2, and `_FORMS` holds as, br, J, S, f and F (twisted
associator, super-commutator, Hom-super-Jacobian, cyclic sum, graded
Bruck-Kleinfeld functions) as signed sums of words.  A checker is a tuple
of parts `left = right` (no right side means 0), each side an integer scale
`n*(...)` times a signed list of terms; `@minus` / `@plus` runs a term on
the super-commutator / plus algebra.  The first part whose left - right is
nonzero gives the residual.

Signs: a term is written with its constant sign only.  `_koszul` adds p_a
p_b for each pair of letters read out of slot order, and the identity's
prefactor as letter pairs: (t,x)+(t,z), the paper's (-1)^(|t|(|x|+|z|)),
for hom-jordan and jordan-expansion, (t,x)+(t,y)+(t,z) for hom-malcev and
(t,z) for hom-malcev-2 and -3.  Inside a form the rule runs over its
arguments, whose parity is that of their letters: J's (-1)^(|y||z|) is the
Koszul sign of its third term.  So signs follow the formula parity of the
letters even on tables whose grading is broken (the bundled examples have
one such twist).  Each sign is tabulated for all 2^arity parity patterns.

Shape tables: a shape is a word with its letters renumbered by first
appearance, compiled once at import; `_Ctx.term` keeps its values in a
lazily filled table of dim**letters entries.  A composite sub-word (beyond
a letter or a lookup e_i*e_j, a(e_i), a2(e_i)) is read from its table when
it has fewer letters than the word around it, as is a term whose shape
occurs more than once in its sum (a checker's or a form's).

Fold rule, cache, don't reassociate: a side is summed left to right as
written, its first term negated when its sign is odd, then scaled, so the
sums are the payloads the written expression gives (Frac(K[params])
payloads are not gcd-reduced; another order could print differently).

Values are sparse vectors (see superalg), `()` for zero: a letter is a
cached `((i, one),)`, a lookup the sparse cell as it is; `acc` merges,
`scale_int` drops what the characteristic kills (3*f in GF(3) is `()`),
and only reports densify.  The payloads are the dense evaluation's:
(1) each coordinate takes its additions in the dense order (i ascending,
then j, then written term order); (2) the dense operations skipped,
F.add(F.zero, v) on a first term, F.add(u, F.zero) and F.sub(u, F.zero)
where only u has the coordinate, and F.sub(F.zero, v) (F.neg(v) instead),
give v, u, u and F.neg(v) under `F.key` on every field kind (pinned in
tests/test_sparse.py); (3) a cancelling sum is F.zero (0 on Q and GF(p),
the shared zero on Frac), as a dropped coordinate densifies and as a
later term finds it in the dense loop.  The public forms are the
multilinear extensions of the same words; `oracle` is the second route.
"""

from __future__ import annotations

import ast
import copy
import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Optional, Sequence, Tuple

from .maps import compose
from .report import IdentityReport, Vector
from .superalg import (
    AlgebraError,
    HomSuperAlgebra,
    commutator_algebra,
    dense,
    is_super_commutative,
    is_super_skewsymmetric,
    plus_algebra,
    sparse,
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
    """Unwrapped evaluation context: the sparse cells of the product and the
    twists, the letters, the product and map kernels, the shape tables
    filled by `term`, and the derived contexts that marked terms run on."""

    __slots__ = (
        "F", "dim", "par", "names", "basis", "c", "acols", "a2cols", "letters",
        "_tables", "mul", "al", "al2", "derived",
    )

    def __init__(self, H: HomSuperAlgebra):
        A, F, alpha2 = H.algebra, H.algebra.field, compose(H.alpha, H.alpha)
        self.F, self.dim, self.c = F, A.dim, A._nz
        self.par, self.names, self.basis = A.basis.parities, A.basis.names, A.basis
        self.acols, self.a2cols = H.alpha._nz, alpha2._nz
        self.letters = tuple(((i, F.one),) for i in range(A.dim))
        self._tables: Dict[Callable, list] = {}
        self.derived: Dict[str, _Ctx] = {}
        # the kernels, bound: mul(u, v), al(u) = alpha(u), al2(u) = alpha^2(u)
        self.mul, self.al, self.al2 = A._mul_payload, H.alpha.apply_payload, alpha2.apply_payload

    def term(self, fn, slots):
        """fn(self, slots) for a tuple of basis indices, computed once per
        tuple and kept in a flat table of dim**len(slots) entries per shape."""
        table = self._tables.get(fn)
        if table is None:
            table = self._tables[fn] = [None] * self.dim ** len(slots)
        key = 0
        for s in slots:
            key = key * self.dim + s
        got = table[key]
        if got is None:
            got = table[key] = fn(self, slots)
        return got

    def acc(self, u, v, exp: int):
        """u + (-1)^exp v, merged by index: a coordinate one side carries is
        taken as it is (negated from v when exp is odd), one that cancels
        is dropped."""
        if not v:
            return u
        F = self.F
        if not u:
            return tuple((k, F.neg(x)) for k, x in v) if exp else v
        op, is_zero = F.sub if exp else F.add, F.is_zero
        out = dict(u)
        for k, x in v:
            y = out.get(k)
            if y is None:
                out[k] = F.neg(x) if exp else x
            elif is_zero(y := op(y, x)):
                del out[k]
            else:
                out[k] = y
        return tuple(sorted(out.items()))

    def scale_int(self, n: int, u):
        F = self.F
        c = F.from_int(n)
        return () if F.is_zero(c) else tuple((k, F.mul(c, x)) for k, x in u)


# -- Words: a letter (its slot position) or (head, *args), head "m" (the
# product), "a", "a2", a form name, or "@minus" / "@plus" marking a term.


def _parse(text: str, letters: str):
    """`side [= side]` as two (scale, [(sign bit, word)])."""

    def word(node):
        if isinstance(node, ast.Name):
            return letters.index(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return ("m", word(node.left), word(node.right))
        if isinstance(node, ast.Call):  # `as` is a Python keyword: as_ here
            return (node.func.id.rstrip("_"), *map(word, node.args))
        raise SyntaxError(f"{text!r}: {ast.dump(node)}")

    def walk(node, bit, terms):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            walk(node.left, bit, terms)
            walk(node.right, bit ^ isinstance(node.op, ast.Sub), terms)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            terms.append((bit, ("@" + node.right.id, word(node.left))))
        else:
            terms.append((bit, word(node)))
        return tuple(terms)

    def side(source):
        node = ast.parse(source.strip().replace("as(", "as_("), mode="eval").body
        if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant):
            return node.left.value, walk(node.right, 0, [])
        return 1, walk(node, 0, [])

    left, _, right = text.partition("=")
    return side(left), side(right) if right else (1, ())


def _letters(node) -> Tuple[int, ...]:
    """The letters of a word in reading order (first appearance)."""
    if isinstance(node, int):
        return (node,)
    return tuple(dict.fromkeys(x for arg in node[1:] for x in _letters(arg)))


def _subst(node, args):
    """The word with letter k replaced by args[k]."""
    if isinstance(node, int):
        return args[node]
    return (node[0],) + tuple(_subst(a, args) for a in node[1:])


def _shape(node):
    """(the word with its letters renumbered by first appearance, those letters)."""
    order = _letters(node)
    return _subst(node, {x: k for k, x in enumerate(order)}), order


def _koszul(seq, bit: int, pairs, n: int, rank=None) -> Tuple[int, ...]:
    """Sign exponents of a term for all 2**n parity patterns: its constant
    bit, p_a p_b for each pair of letters of `seq` read out of slot order
    (or of `rank` order), and the prefactor letter pairs."""
    rank = rank or {x: x for x in seq}
    pairs = [*pairs, *((a, b) for i, a in enumerate(seq) for b in seq[i + 1:] if rank[a] > rank[b])]
    return tuple(
        (bit + sum((pat >> a) & (pat >> b) & 1 for a, b in pairs)) % 2 for pat in range(1 << n)
    )


# name -> (letters, signed terms); a body may use the forms above it
_FORMS: Dict[str, Tuple[str, tuple]] = {}
for _name, _args, _body in (
    ("as", "xyz", "(x*y)*a(z) - a(x)*(y*z)"),
    ("br", "xy", "x*y - y*x"),
    ("J", "xyz", "(x*y)*a(z) - a(x)*(y*z) - (x*z)*a(y)"),
    ("S", "xyz", "as(x,y,z) + as(y,z,x) + as(z,x,y)"),
    ("f", "txyz", "as(t*x,a(y),a(z)) - as(x,y,z)*a2(t) - a2(x)*as(t,y,z)"),
    ("F", "txyz", "br(a2(t),as(x,y,z)) - br(a2(z),as(t,x,y)) + br(a2(y),as(z,t,x))"
                  " - br(a2(x),as(y,z,t))"),
):
    _FORMS[_name] = (_args, _parse(_body, _args)[0][1])


# -- The compiler: a word inside a word of n letters becomes ev(ctx, s, pat),
# s the basis indices of the n letters and bit k of pat the parity of letter k.


def _pattern(par, slots) -> int:
    pat = 0
    for i in reversed(slots):
        pat = pat << 1 | par[i]
    return pat


def _is_lookup(node) -> bool:
    return isinstance(node, int) or node[0] in ("m", "a", "a2") and all(
        isinstance(a, int) for a in node[1:])


def _compile(node, n: int):
    """`node` evaluated in place."""
    if isinstance(node, int):
        return lambda ctx, s, pat: ctx.letters[s[node]]
    head, args = node[0], node[1:]
    if head[0] == "@":
        ev = _compile(args[0], n)
        return lambda ctx, s, pat: ev(ctx.derived[head[1:]], s, pat)
    if head in _FORMS:
        # the form's terms over the argument words, signed by the Koszul
        # rule on the order of the arguments' letters
        rank = {x: r for r, x in enumerate(x for a in args for x in _letters(a))}
        terms = [(bit, _subst(w, args)) for bit, w in _FORMS[head][1]]
        return _fold(terms, n, Counter(_shape(w)[0] for _, w in terms), rank=rank)
    if _is_lookup(node):
        i, j = args[0], args[-1]
        if head == "m":
            return lambda ctx, s, pat: ctx.c[s[i]][s[j]]
        if head == "a":
            return lambda ctx, s, pat: ctx.acols[s[i]]
        return lambda ctx, s, pat: ctx.a2cols[s[i]]
    # a composite argument on fewer letters is shared through its table
    evs = [_compile(a, n) if _is_lookup(a) or len(_letters(a)) >= n else _reader(*_shape(a))
           for a in args]
    u, v = evs[0], evs[-1]
    if head == "m":
        return lambda ctx, s, pat: ctx.mul(u(ctx, s, pat), v(ctx, s, pat))
    if head == "a":
        return lambda ctx, s, pat: ctx.al(u(ctx, s, pat))
    return lambda ctx, s, pat: ctx.al2(u(ctx, s, pat))


def _fold(terms, n: int, seen, pairs=(), rank=None, scale=1):
    """`scale` times the sum of [(sign bit, word)] left to right, the first
    term negated when its sign is odd; a word whose shape occurs more than
    once in `seen` is read from its table."""
    (first, signs0), *rest = [
        (_reader(shape, order) if seen[shape] > 1 else _compile(w, n),
         _koszul(order, bit, pairs, n, rank))
        for bit, w in terms for shape, order in [_shape(w)]
    ]
    if not rest and not any(signs0) and scale == 1:
        return first

    def ev(ctx, s, pat):
        out = first(ctx, s, pat)
        if signs0[pat]:
            out = ctx.acc((), out, 1)
        for f, signs in rest:
            out = ctx.acc(out, f(ctx, s, pat), signs[pat])
        return out if scale == 1 else ctx.scale_int(scale, out)

    return ev


_SHAPES: Dict[tuple, Callable] = {}


def _reader(shape, order):
    """The word `shape` at the letters `order`, read from its table."""
    fn = _SHAPES.get(shape)
    if fn is None:
        ev = _compile(shape, len(order))
        fn = _SHAPES[shape] = lambda ctx, slots: ev(ctx, slots, _pattern(ctx.par, slots))
    pick = itemgetter(*order) if len(order) > 1 else (lambda s, i=order[0]: (s[i],))
    return lambda ctx, s, pat: ctx.term(fn, pick(s))


class _Identity:
    """A checker or named value as data (letters, parts, standing hypothesis
    "skew" / "commutative", the algebra "minus" / "plus" its unmarked terms
    run on, prefactor), compiled once into `residual(ctx, idx)`."""

    def __init__(self, letters: str, *parts: str, requires="", prefactor=""):
        self.letters, self.parts, self.requires, self.context = letters, parts, requires, ""
        self.arity = n = len(letters)
        pairs = [tuple(map(letters.index, pair)) for pair in prefactor.split()]
        parsed = [_parse(p, letters) for p in parts]
        words = [w for part in parsed for _, side in part for _, w in side]
        seen = Counter(_shape(w)[0] for w in words)
        self.marks = sorted({w[0][1:] for w in words if w[0][0] == "@"})

        def part(left, right):
            lhs = _fold(left[1], n, seen, pairs, scale=left[0])
            if not right[1]:
                return lhs
            rhs = _fold(right[1], n, seen, pairs, scale=right[0])
            return lambda ctx, s, pat: ctx.acc(lhs(ctx, s, pat), rhs(ctx, s, pat), 1)

        *first, last = [part(*p) for p in parsed]

        def residual(ctx, idx):
            pat = _pattern(ctx.par, idx)
            for ev in first:
                r = ev(ctx, idx, pat)
                if r:
                    return r
            return last(ctx, idx, pat)

        self.residual = residual

    def on(self, context: str) -> "_Identity":
        # a derived product is super-skew (minus) or -commutative (plus)
        other = copy.copy(self)
        other.context, other.requires = context, ""
        return other

    def make(self, H: HomSuperAlgebra):
        ctx = _Ctx(_algebra(H, self.context))
        for mark in self.marks:
            ctx.derived[mark] = _Ctx(_algebra(H, mark))
        return ctx, self.residual


def _algebra(H: HomSuperAlgebra, context: str) -> HomSuperAlgebra:
    # the constructions are looked up as module globals at call time
    if context == "minus":
        return commutator_algebra(H)
    return plus_algebra(H) if context == "plus" else H


# -- The identities; each term carries its constant sign only.

_LEFT_ALT = _Identity("xyz", "as(x,y,z) + as(y,x,z)")
_RIGHT_ALT = _Identity("xyz", "as(x,y,z) + as(x,z,y)")
_HOM_LIE = _Identity("xyz", "J(x,y,z)", requires="skew")
_HOM_MALCEV = _Identity(
    "xyzt", "2*(a2(t)*J(x,y,z)) = J(a(t),a(x),y*z) + J(a(t),a(y),z*x) + J(a(t),a(z),x*y)",
    requires="skew", prefactor="tx ty tz")
_HOM_JORDAN = _Identity(
    "xyzt", "as(x*y,a(z),a(t)) + as(y*t,a(z),a(x)) + as(t*x,a(z),a(y))",
    requires="commutative", prefactor="tx tz")
# jordan-expansion, route 2: twelve associators of mu for each cyclic
# summand (p,q,r) of (x,y,t), z fixed, then six brackets [a^2(z), as]
_JORDAN_TERMS = (
    "as(p*q,a(z),a(r)) + as(q*p,a(z),a(r)) - as(a(r),a(z),p*q) - as(a(r),a(z),q*p)"
    " - as(a(r),p*q,a(z)) - as(a(r),q*p,a(z)) + as(a(z),q*p,a(r)) + as(a(z),p*q,a(r))"
    " - as(a(z),a(r),p*q) + as(p*q,a(r),a(z)) - as(a(z),a(r),q*p) + as(q*p,a(r),a(z))"
)
_IDENTITIES = {
    "left-alt": _LEFT_ALT,
    "right-alt": _RIGHT_ALT,
    "alternative": _Identity("xyz", *_LEFT_ALT.parts, *_RIGHT_ALT.parts),
    "flexible": _Identity("xyz", "as(x,y,z) + as(z,y,x)"),
    "hom-lie": _HOM_LIE,
    "hom-malcev": _HOM_MALCEV,
    "hom-malcev-2": _Identity(
        "xyzt", "J(a(x),a(y),t*z) + J(a(t),a(y),x*z) = J(x,y,z)*a2(t) + J(t,y,z)*a2(x)",
        requires="skew", prefactor="tz"),
    "hom-malcev-3": _Identity(
        "xyzt", "a((x*y)*(t*z)) + a((t*y)*(x*z)) = ((y*z)*a(t))*a2(x) + ((y*z)*a(x))*a2(t)"
        " + ((z*x)*a(t))*a2(y) + ((z*t)*a(x))*a2(y) + ((t*y)*a(z))*a2(x) + ((x*y)*a(z))*a2(t)",
        requires="skew", prefactor="tz"),
    "hom-jordan": _HOM_JORDAN,
    "lie-admissible": _HOM_LIE.on("minus"),
    "malcev-admissible": _HOM_MALCEV.on("minus"),
    "jordan-admissible": _HOM_JORDAN.on("plus"),
    "teichmuller": _Identity("txyz", "as(t*x,a(y),a(z)) - as(x*y,a(z),a(t)) + as(y*z,a(t),a(x))"
                             " = a2(t)*as(x,y,z) + as(t,x,y)*a2(z)"),
    # f super-alternating in each adjacent pair; F = 3f, multiplied out so it
    # stays meaningful in characteristic 3; F = f.(Id - rho + rho^2) with
    # rho(t,x,y,z) = (x,y,z,t); f through brackets
    "bk-suite": _Identity(
        "txyz", "f(t,x,y,z) + f(x,t,y,z)", "f(t,x,y,z) + f(t,y,x,z)", "f(t,x,y,z) + f(t,x,z,y)",
        "F(t,x,y,z) = 3*f(t,x,y,z)", "F(t,x,y,z) = f(t,x,y,z) - f(x,y,z,t) + f(y,z,t,x)",
        "f(t,x,y,z) = as(br(t,x),a(y),a(z)) + as(br(y,z),a(t),a(x))"),
    "cyclic-assoc": _Identity("txyz", "2*br(a2(t),as(x,y,z)) = as(a(t),a(x),br(y,z))"
                              " + as(a(t),a(y),br(z,x)) + as(a(t),a(z),br(x,y))"),
    "j-eq-6as": _Identity("xyz", "J(x,y,z)@minus = 6*as(x,y,z)"),
    "j-eq-2s": _Identity("xyz", "J(x,y,z)@minus = 2*S(x,y,z)"),
    "jordan-expansion": _Identity(
        "xyzt", "8*(as(x*y,a(z),a(t))@plus + as(y*t,a(z),a(x))@plus + as(t*x,a(z),a(y))@plus)"
        " = " + " + ".join(_JORDAN_TERMS.translate(str.maketrans("pqr", cycle))
                           for cycle in ("xyt", "ytx", "txy"))
        + " + br(a2(z),as(y,t,x)) + br(a2(z),as(t,y,x)) + br(a2(z),as(t,x,y))"
        " + br(a2(z),as(x,t,y)) + br(a2(z),as(x,y,t)) + br(a2(z),as(y,x,t))",
        prefactor="tx tz"),
    "supercommutative": _Identity("xy", "x*y - y*x"),
    "superskew": _Identity("xy", "x*y + y*x"),
    "multiplicative": _Identity("xy", "a(x*y) = a(x)*a(y)"),
}

# Named multilinear values: the corpus claims' forms, and f, F for bk_f, bk_F.
_CLAIM_FORMS: Dict[str, _Identity] = {
    "product": _Identity("xy", "x*y"), "as": _Identity("xyz", "as(x,y,z)"),
    "S": _Identity("xyz", "S(x,y,z)"), "J": _Identity("xyz", "J(x,y,z)"),
    "J-minus": _Identity("xyz", "J(x,y,z)@minus"), "leftalt": _LEFT_ALT, "jordan": _HOM_JORDAN,
}
_BK_f, _BK_F = _Identity("txyz", "f(t,x,y,z)"), _Identity("txyz", "F(t,x,y,z)")


@dataclass(frozen=True)
class Checker:
    name: str
    arity: int
    make: Callable[[HomSuperAlgebra], Callable]  # H -> (ctx, residual(ctx, idx))
    requires: str = ""  # "", "skew", "commutative"


CHECKERS: Dict[str, Checker] = {
    name: Checker(name, spec.arity, spec.make, spec.requires) for name, spec in _IDENTITIES.items()
}


def checker_names() -> Tuple[str, ...]:
    return tuple(CHECKERS)


def run_checker(
    name: str, H: HomSuperAlgebra, max_counterexamples: int = 16
) -> IdentityReport:
    """Run one registry checker over all homogeneous basis tuples."""
    chk = CHECKERS.get(name)
    if chk is None:
        raise UnknownCheckerError(name)
    if max_counterexamples < 1:
        raise CheckError(f"max_counterexamples must be at least 1, got {max_counterexamples}")
    if chk.requires:
        skew = chk.requires == "skew"
        rep = (is_super_skewsymmetric if skew else is_super_commutative)(H.algebra)
        if not rep.holds:
            kind = "skewsymmetric" if skew else "commutative"
            raise PreconditionError(name, f"a super-{kind} product", rep)
    ctx, res_fn = chk.make(H)
    dim = ctx.dim
    bad = []
    holds = True
    for idx in itertools.product(range(dim), repeat=chk.arity):
        r = res_fn(ctx, idx)
        if r:
            holds = False
            if len(bad) < max_counterexamples:
                # entries are shared through the basis and their
                # coordinates hash-consed: every zero is one Scalar
                bad.append(ctx.basis.counterexample(ctx.F, idx, r))
            else:
                break
    return IdentityReport(name, holds, tuple(bad), dim**chk.arity)


def _value_at(what: str, make, arity: int, H: HomSuperAlgebra, tuple_names: Sequence[str]):
    """Exact value at one named basis tuple, after checking every slot."""
    ctx, res_fn = make(H)
    if len(tuple_names) != arity:
        raise CheckError(f"{what} expects {arity} slots, got {len(tuple_names)}")
    for n in tuple_names:
        if n not in ctx.names:
            raise CheckError(f"{what}: unknown basis element {n!r}")
    r = res_fn(ctx, tuple(ctx.names.index(n) for n in tuple_names))
    return tuple(map(ctx.F.scalar, dense(ctx.F, ctx.dim, r)))


def residual_at(name: str, H: HomSuperAlgebra, tuple_names: Sequence[str]):
    """Exact residual vector of one checker at one basis tuple."""
    chk = CHECKERS.get(name)
    if chk is None:
        raise UnknownCheckerError(name)
    return _value_at(name, chk.make, chk.arity, H, tuple_names)


def form_value(form: str, H: HomSuperAlgebra, tuple_names: Sequence[str]):
    """Named multilinear value used by the corpus claims."""
    spec = _CLAIM_FORMS.get(form)
    if spec is None:
        raise CheckError(f"unknown value form {form!r}")
    return _value_at(form, spec.make, spec.arity, H, tuple_names)


# -- Public forms: multilinear extensions of the named values over the
# nonzero coordinates of Scalar vectors; the signed ones demand homogeneous
# arguments wherever the identity reads a parity.


def _extension(H: HomSuperAlgebra, spec: _Identity, args, homogeneous: str) -> Vector:
    A = H.algebra
    for v, slot in zip(args, spec.letters):
        if slot in homogeneous and A.parity_of(v) is None:
            raise HomogeneityError(f"argument {slot} has mixed parity")
    ctx, res_fn = spec.make(H)
    F = ctx.F
    out = ()
    for picks in itertools.product(*(sparse(F, A._unwrap(v)) for v in args)):
        coeff = F.one
        for _, a in picks:
            coeff = F.mul(coeff, a)
        term = res_fn(ctx, tuple(i for i, _ in picks))
        out = ctx.acc(out, tuple((k, F.mul(coeff, x)) for k, x in term), 0)
    return A._wrap(dense(F, A.dim, out))


def hom_associator(H: HomSuperAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """as(x,y,z) = mu(mu(x,y), a(z)) - mu(a(x), mu(y,z)); no signs, any vectors."""
    return _extension(H, _CLAIM_FORMS["as"], (x, y, z), "")


def hom_super_jacobian(H: HomSuperAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """J(x,y,z) = [[x,y],a(z)] - [a(x),[y,z]] - (-1)^(|y||z|)[[x,z],a(y)];
    y and z must be homogeneous so the sign is defined."""
    return _extension(H, _CLAIM_FORMS["J"], (x, y, z), "yz")


def cyclic_hom_associator(H: HomSuperAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """S(x,y,z) = as(x,y,z) + (-1)^(|x|(|y|+|z|)) as(y,z,x)
                + (-1)^(|z|(|x|+|y|)) as(z,x,y); homogeneous arguments."""
    return _extension(H, _CLAIM_FORMS["S"], (x, y, z), "xyz")


def bk_f(H: HomSuperAlgebra, t: Vector, x: Vector, y: Vector, z: Vector) -> Vector:
    """Graded Bruck-Kleinfeld f(t,x,y,z); homogeneous arguments."""
    return _extension(H, _BK_f, (t, x, y, z), "txyz")


def bk_F(H: HomSuperAlgebra, t: Vector, x: Vector, y: Vector, z: Vector) -> Vector:
    """Graded Bruck-Kleinfeld F(t,x,y,z); homogeneous arguments."""
    return _extension(H, _BK_F, (t, x, y, z), "txyz")
