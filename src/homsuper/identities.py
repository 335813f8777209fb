"""The identity checkers as data, the emitter that compiles them to Python,
and the runner.

Words are Python expressions over letters, the slots of an identity bound to
the basis elements of one tuple (to vectors in the public forms): u*v is the
product mu, a(u) the twist alpha, a2(u) is read as a(a(u)), and `_FORMS`
holds as, br, J, S, f and F (twisted associator, super-commutator,
Hom-super-Jacobian, cyclic sum, graded Bruck-Kleinfeld functions) as signed
sums of words.  A checker is a tuple of parts `left = right` (no right side
means 0), each side an integer scale `n*(...)` times a signed list of terms;
`@minus` / `@plus` runs a term on the super-commutator / plus algebra, whose
product is the residual of `supercommutative` / half that of `superskew`.
The first part whose left - right is nonzero gives the residual.  The skew
and commutative hypotheses are `superskew` and `supercommutative` on hom(A).

Signs: a term is written with its constant sign only.  `_koszul` adds p_a
p_b for each pair of letters read out of slot order, and the identity's
prefactor as letter pairs: (t,x)+(t,z), the paper's (-1)^(|t|(|x|+|z|)),
for hom-jordan and jordan-expansion, (t,x)+(t,y)+(t,z) for hom-malcev and
(t,z) for hom-malcev-2 and -3.  Inside a form the rule runs over its
arguments, whose parity is that of their letters: J's (-1)^(|y||z|) is the
Koszul sign of its third term.  So signs follow the formula parity of the
letters even on tables whose grading is broken (the bundled examples have
one such twist).

A word becomes a line: on an identity's first `make` in a process (never per
context) `_Emitter` writes it as the source of `residual(ctx, idx)`.  Letters
are locals unpacked from idx; e_i*e_j and a(e_i) are the sparse cells
c[i][j] and acols[i]; another product or twist binds its operands to locals
in reading order and calls the kernel mul or al only if none is `()` (else
it gives `()`); a form is expanded in place over its argument words.  The
parity pattern `pat` is computed once per call, and a sign that depends on
it is a constant tuple indexed by it.  Each function is compiled alone under
the file name `<homsuper.identities:NAME>`, its source in `linecache`, so
tracebacks, `inspect.getsource` and profiles show the generated lines.

Shape tables: a shape is a word with its letters renumbered by first
appearance, numbered once per process across all identities.  A composite
sub-word with fewer letters than the function it is written in, and a
composite term whose shape occurs more than once in its sum, is read from
its shape's flat table T[(i*d + j)*d + k] in `ctx.tables` (d**letters
entries, made on the first read in a context); a miss calls the shape's one
fill function `fill_T<n>(ctx, x, y, ...)`, written the same way on the
context it is given (a derived one for a marked term).  A repeated read
reuses its local.  Fold rule, cache, don't reassociate: a side is summed
left to right as written, one `acc` line per term (a `()` term keeps the sum,
as `acc` would), its first term negated when its sign is odd, then scaled
(a `()` side is left as it is), so the sums are the payloads the written
expression gives (Frac(K[params]) payloads are not gcd-reduced; another
order could print differently).

The minus and plus algebras are kept on H once made; contexts are made per
`make`, their shape tables and derived contexts on first read, so
alpha^2(e_i) = al(acols[i]) is computed at most once per context, in its
one-letter shape table.

Values are sparse vectors (see superalg), `()` for zero: `acc` merges,
`scale_int` drops what the characteristic kills (3*f in GF(3) is `()`),
and only reports densify.  The payloads are the dense evaluation's: each
coordinate takes its additions in the dense order; the dense operations
skipped (F.add(F.zero, v), F.add(u, F.zero), F.sub(u, F.zero), and
F.sub(F.zero, v) done as F.neg(v)) are identities under `F.key` on every
field kind (tests/test_sparse.py); a cancelling sum is F.zero, as in the
dense loop.  `oracle` is the second route.
"""

from __future__ import annotations

import ast
import copy
import itertools
import linecache
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .report import IdentityReport, Vector
from .superalg import AlgebraError, HomSuperAlgebra, SuperAlgebra, dense, hom, sparse


class CheckError(AlgebraError):
    pass


class HomogeneityError(AlgebraError):
    """A sign-bearing form got a mixed-parity argument."""


class UnknownCheckerError(CheckError):
    pass


class PreconditionError(CheckError):
    """The identity's standing hypothesis (skew / commutative / char) fails."""

    def __init__(self, identity: str, requirement: str, report: Optional[IdentityReport] = None):
        self.identity, self.requirement, self.report = identity, requirement, report
        super().__init__(f"{identity}: requires {requirement}")


class _OnRead(dict):
    """fn(k) at [k], made on its first read."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, k):
        v = self[k] = self.fn(k)
        return v


class _Ctx:
    """Unwrapped evaluation context: the sparse cells of the product and the
    twists at the letters (the basis, or given (sparse vectors, parities)),
    the kernels, and, each made on its first read, the shape tables by
    number and the derived contexts by mark."""

    __slots__ = ("F", "dim", "par", "names", "basis", "c", "acols", "tables", "mul", "al", "derived")

    def __init__(self, H: HomSuperAlgebra, letters=None):
        A, F = H.algebra, H.algebra.field
        self.F, self.names, self.basis = F, A.basis.names, A.basis
        self.mul, self.al = A._mul_payload, H.alpha.apply_payload  # the kernels mul(u, v), al(u) = alpha(u)
        if letters is None:  # letter k is the basis element e_k
            self.c, self.acols, self.par = A._nz, H.alpha._nz, A.basis.parities
        else:  # letter k is the sparse vector vecs[k] of parity par[k]
            (vecs, self.par), mul, al = letters, self.mul, self.al
            self.c = [_OnRead(lambda k, u=u: mul(u, vecs[k])) for u in vecs]
            self.acols = _OnRead(lambda k: al(vecs[k]))
        self.dim = dim = len(self.par)
        self.tables = _OnRead(lambda n: [None] * dim ** _SIZES[n])
        self.derived = _OnRead(lambda mark: _Ctx(_derived(H, mark), letters))

    def acc(self, u, v, exp: int):
        """u + (-1)^exp v, merged by index: a coordinate one side carries is
        taken as it is (negated from v when exp is odd), one that cancels
        is dropped.  Two single coordinates take the merge's own steps
        without its dict.  The generated code never passes an empty v."""
        F = self.F
        if not u:
            return tuple((k, F.neg(x)) for k, x in v) if exp else v
        op, is_zero = F.sub if exp else F.add, F.is_zero
        if len(u) == 1 == len(v):
            ((a, x),), ((b, y),) = u, v
            if a == b:
                return () if is_zero(y := op(x, y)) else ((a, y),)
            y = F.neg(y) if exp else y
            return ((a, x), (b, y)) if a < b else ((b, y), (a, x))
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
        F, c = self.F, self.F.from_int(n)
        return () if F.is_zero(c) else tuple((k, F.mul(c, x)) for k, x in u)


# -- Words: a letter (its slot position) or (head, *args), head "m" (the
# product), "a", a form name, or "@minus" / "@plus" marking a term.


def _parse(text: str, letters: str):
    """`side [= side]` as two (scale, [(sign bit, word)])."""

    def word(node):
        if isinstance(node, ast.Name):
            return letters.index(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return ("m", word(node.left), word(node.right))
        if isinstance(node, ast.Call):  # `as` is a Python keyword: as_ here
            head, args = node.func.id.rstrip("_"), tuple(map(word, node.args))
            return ("a", ("a", *args)) if head == "a2" else (head, *args)  # alpha^2 is alpha twice
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
    return tuple((bit + sum((pat >> a) & (pat >> b) & 1 for a, b in pairs)) % 2 for pat in range(1 << n))


# name -> (letters, signed terms); a body may use the forms above it
_FORMS: Dict[str, Tuple[str, tuple]] = {name: (args, _parse(body, args)[0][1]) for name, args, body in (
    ("as", "xyz", "(x*y)*a(z) - a(x)*(y*z)"),
    ("br", "xy", "x*y - y*x"),
    ("J", "xyz", "(x*y)*a(z) - a(x)*(y*z) - (x*z)*a(y)"),
    ("S", "xyz", "as(x,y,z) + as(y,z,x) + as(z,x,y)"),
    ("f", "txyz", "as(t*x,a(y),a(z)) - as(x,y,z)*a2(t) - a2(x)*as(t,y,z)"),
    ("F", "txyz", "br(a2(t),as(x,y,z)) - br(a2(z),as(t,x,y)) + br(a2(y),as(z,t,x))"
                  " - br(a2(x),as(y,z,t))"),
)}


def _is_lookup(node) -> bool:  # e_i*e_j or a(e_i)
    return node[0] in ("m", "a") and all(isinstance(a, int) for a in node[1:])


# Shape tables across all identities (shape -> table number, and each
# table's letter count) and the generated functions' one global scope;
# filled by one thread at a time (the package starts none).
_SHAPES: Dict[tuple, int] = {}
_SIZES = []
_SCOPE = {"__name__": __name__}


class _Emitter:
    """Python source for words: an identity's `residual(ctx, idx)`, and
    `fill_T<n>(ctx, x, y, ...)` for a shape the first time any identity
    reads it.  A context is named by its mark, "" for ctx itself."""

    def function(self, name: str, signature: str, letters: str, write, first=()):
        """Compile `def signature:` over `letters`, write()'s statements
        returning its result, into `_SCOPE`, its source registered under
        the file name `<homsuper.identities:name>`.  Each function is
        compiled alone, which bounds the compiler's peak memory by one's."""
        self.letters, self.lines, self.used, self.reads, self.signed = letters, [], {}, {}, False
        result = write()
        self.lines.append(f"    return {result}")
        marks = sorted({mark for mark, _ in self.used if mark})
        lines = [line + "\n" for line in [f"def {signature}:", *first, *(
            f"    {m} = ctx.derived[{m!r}]" for m in marks), *(
            f"    {local} = {mark or 'ctx'}." + (f"tables[{attr[1:]}]" if attr[0] == "T" else attr)
            for (mark, attr), local in sorted(self.used.items())
        )] + ["    d = ctx.dim"] * any(attr[0] == "T" for _, attr in self.used) + [
            "    par = ctx.par", "    pat = " + " | ".join(
                f"par[{x}] << {i}" if i else f"par[{x}]" for i, x in enumerate(letters))
        ] * self.signed + self.lines]
        filename = f"<{__name__}:{name}>"
        exec(compile("".join(lines), filename, "exec"), _SCOPE)
        linecache.cache[filename] = (sum(map(len, lines)), None, lines, filename)

    def get(self, mark: str, attr: str) -> str:
        """The local bound to attribute `attr` of the context `mark`."""
        return self.used.setdefault((mark, attr), attr + "_" + mark if mark else attr)

    def local(self, expr: str) -> str:
        self.lines.append(f"    v{len(self.lines)} = {expr}")
        return f"v{len(self.lines) - 1}"

    def bound(self, expr: str) -> str:
        """`expr` as a name, bound to a local where it is asked for."""
        return expr if expr.isidentifier() else self.local(expr)

    def sign(self, signs) -> str:
        self.signed |= len(set(signs)) > 1
        return f"{signs}[pat]" if len(set(signs)) > 1 else str(signs[0])

    def fold(self, terms, k: int, mark: str, seen, pairs=(), rank=None, scale=1) -> str:
        """`scale` times the sum of [(sign bit, word)] left to right, the first
        term negated when its sign is odd; a composite word whose shape occurs
        more than once in `seen` is read from its table."""
        acc = self.get("", "acc")
        (v, s), *rest = [
            (self.bound(self.read(w, mark) if seen[shape] > 1 and not _is_lookup(w) else self.value(w, k, mark)),
             self.sign(_koszul(order, bit, pairs, len(self.letters), rank)))
            for bit, w in terms for shape, order in [_shape(w)]
        ]
        odd = v if s == "1" else f"{v} and {s}"
        out = v if s == "0" else self.local(f"{acc}((), {v}, 1) if {odd} else {v}")
        for v, s in rest:  # adding () gives out itself
            out = self.local(f"{out} if not {v} else {acc}({out}, {v}, {s})")
        # a scaled () is (): skip its call
        return out if scale == 1 else self.local(f"{out} and {self.get('', 'scale_int')}({scale}, {out})")

    def read(self, w, mark: str) -> str:
        """`w` from the flat table of its shape, filled on a miss."""
        if (mark, w) not in self.reads:
            shape, order = _shape(w)
            n = _SHAPES.setdefault(shape, len(_SHAPES))
            if n == len(_SIZES):  # a new shape: compile its fill, over canonical letters
                _SIZES.append(len(order))
                fill, letters, e = f"fill_T{n}", "xyzt"[:len(order)], _Emitter()
                e.function(fill, f"{fill}(ctx, {', '.join(letters)})", letters,
                           lambda: e.value(shape, len(order), ""))
            table = self.get(mark, f"T{n}")
            at = self.letters[order[0]]
            for x in order[1:]:
                at = f"({at}*d + {self.letters[x]})"
            v = self.reads[mark, w] = self.local(f"{table}[{at}]")
            self.lines += [f"    if {v} is None:", f"        {v} = {table}[{at}] = fill_T{n}"
                           f"({mark or 'ctx'}, {', '.join(self.letters[x] for x in order)})"]
        return self.reads[mark, w]

    def value(self, node, k: int, mark: str) -> str:
        """`node`, a composite word or a lookup, evaluated in place in a
        function over k letters."""
        head, args = node[0], node[1:]
        if head[0] == "@":
            return self.value(args[0], k, head[1:])
        if head in _FORMS:
            # the form's terms over the argument words, signed by the Koszul
            # rule on the order of the arguments' letters
            rank = {x: r for r, x in enumerate(x for a in args for x in _letters(a))}
            terms = [(bit, _subst(w, args)) for bit, w in _FORMS[head][1]]
            return self.fold(terms, k, mark, Counter(_shape(w)[0] for _, w in terms), rank=rank)
        if _is_lookup(node):  # c[i][j], acols[i]
            cell = self.get(mark, {"m": "c", "a": "acols"}[head])
            return cell + "".join(f"[{self.letters[a]}]" for a in args)
        # a composite argument on fewer letters is shared through its table
        vals = [self.bound(self.value(a, k, mark) if _is_lookup(a) or len(_letters(a)) >= k
                           else self.read(a, mark)) for a in args]
        # the kernel of an empty operand is (): skip its call
        kernel = self.get(mark, {"m": "mul", "a": "al"}[head])
        return f"{kernel}({', '.join(vals)}) if {' and '.join(vals)} else ()"


class _Identity:
    """A checker or named value as data (letters, parts, standing hypothesis
    "skew" / "commutative", the algebra "minus" / "plus" its unmarked terms
    run on, prefactor), compiled into `residual` on its first `make`."""

    def __init__(self, letters: str, *parts: str, requires="", prefactor=""):
        self.letters, self.parts, self.requires, self.prefactor = letters, parts, requires, prefactor
        self.arity, self.context, self.name, self.residual = len(letters), "", "", None

    def _emit(self):
        """Write, compile and register `residual`, and the fill functions of
        the shapes it is the first to read."""
        n, e = self.arity, _Emitter()
        pairs = [tuple(map(self.letters.index, pair)) for pair in self.prefactor.split()]
        parsed = [_parse(p, self.letters) for p in self.parts]
        seen = Counter(_shape(w)[0] for part in parsed for _, side in part for _, w in side)

        def parts():  # the first nonzero part is the residual
            for text, (left, right) in zip(self.parts, parsed):
                e.lines.append(f"    # {text}")
                r = e.fold(left[1], n, "", seen, pairs, scale=left[0])
                if right[1]:
                    rhs = e.fold(right[1], n, "", seen, pairs, scale=right[0])
                    r = f"{r} if not {rhs} else {e.get('', 'acc')}({r}, {rhs}, 1)"
                e.lines += [f"    r = {r}", "    if r:", "        return r"]
            return "r"

        e.function(self.name, "residual(ctx, idx)", self.letters, parts,
                   [f"    {', '.join(self.letters)}, = idx"])
        self.residual = _SCOPE.pop("residual")

    def on(self, context: str) -> "_Identity":
        # a derived product is super-skew (minus) or -commutative (plus)
        other = copy.copy(self)
        other.context, other.requires = context, ""
        return other

    def make(self, H: HomSuperAlgebra, letters=None):
        if self.residual is None:
            self._emit()
        return _Ctx(_derived(H, self.context) if self.context else H, letters), self.residual


def _derived(H: HomSuperAlgebra, what: str) -> HomSuperAlgebra:
    """The "minus" or "plus" algebra of H, kept on H once made; the
    constructions are looked up as module globals at call time."""
    if what not in H._kept:
        H._kept[what] = (commutator_algebra if what == "minus" else plus_algebra)(H)
    return H._kept[what]


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
for _name, _spec in {**_CLAIM_FORMS, "bk_f": _BK_f, "bk_F": _BK_F, **_IDENTITIES}.items():
    _spec.name = _name  # the generated code's file name; a checker's name wins


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


def _report(name: str, spec, H: HomSuperAlgebra, cap: int) -> IdentityReport:
    """`spec` (a checker or an identity) on the basis tuples in lexicographic
    order: the first `cap` counterexamples, stopping at the cap-th, since
    no later tuple can change the report."""
    ctx, res_fn = spec.make(H)
    dim, bad, holds = ctx.dim, [], True
    for idx in itertools.product(range(dim), repeat=spec.arity):
        r = res_fn(ctx, idx)
        if r:
            holds = False
            if len(bad) < cap:
                # entries are shared through the basis, keyed by value,
                # with one zero Scalar per field
                bad.append(ctx.basis.counterexample(ctx.F, idx, r))
            if len(bad) >= cap:
                break
    return IdentityReport(name, holds, ctx.basis.counterexamples(bad), dim**spec.arity)


def is_super_commutative(A: SuperAlgebra, max_counterexamples: int = 16) -> IdentityReport:
    """mu(x,y) = (-1)^(|x||y|) mu(y,x): `supercommutative` on hom(A)."""
    return _report("supercommutative", _IDENTITIES["supercommutative"], hom(A), max_counterexamples)


def is_super_skewsymmetric(A: SuperAlgebra, max_counterexamples: int = 16) -> IdentityReport:
    """mu(x,y) = -(-1)^(|x||y|) mu(y,x): `superskew` on hom(A)."""
    return _report("superskew", _IDENTITIES["superskew"], hom(A), max_counterexamples)


def _pair_algebra(H: HomSuperAlgebra, name: str, scale=None) -> HomSuperAlgebra:
    """H's basis and twist, e_i e_j the residual of checker `name` at
    (e_i, e_j), times `scale` if given."""
    ctx, res_fn = _IDENTITIES[name].make(H)
    F, n = ctx.F, ctx.dim
    cell = (lambda r: r) if scale is None else (lambda r: ((k, F.mul(scale, x)) for k, x in r))
    table = [[dense(F, n, cell(res_fn(ctx, (i, j)))) for j in range(n)] for i in range(n)]
    return HomSuperAlgebra(SuperAlgebra(ctx.basis, F, table), H.alpha)


def commutator_algebra(H: HomSuperAlgebra) -> HomSuperAlgebra:
    """[x,y] = mu(x,y) - (-1)^(|x||y|) mu(y,x), the `supercommutative` residual; same twist."""
    return _pair_algebra(H, "supercommutative")


def plus_algebra(H: HomSuperAlgebra) -> HomSuperAlgebra:
    """x*y = (1/2)(mu(x,y) + (-1)^(|x||y|) mu(y,x)), half the `superskew` residual; same twist."""
    F = H.field
    if F.spec.characteristic == 2:
        raise AlgebraError("plus product needs 1/2: characteristic 2 field")
    return _pair_algebra(H, "superskew", F.inv(F.from_int(2)))


def run_checker(name: str, H: HomSuperAlgebra, max_counterexamples: int = 16) -> IdentityReport:
    """Run one registry checker over all homogeneous basis tuples, after its
    standing hypothesis (checked with the same cap)."""
    chk = CHECKERS.get(name)
    if chk is None:
        raise UnknownCheckerError(name)
    if max_counterexamples < 1:
        raise CheckError(f"max_counterexamples must be at least 1, got {max_counterexamples}")
    if chk.requires:
        skew = chk.requires == "skew"
        rep = (is_super_skewsymmetric if skew else is_super_commutative)(H.algebra, max_counterexamples)
        if not rep.holds:
            product = "a super-skewsymmetric product" if skew else "a super-commutative product"
            raise PreconditionError(name, product, rep)
    return _report(name, chk, H, max_counterexamples)


def _value_at(what: str, spec, H: HomSuperAlgebra, tuple_names: Sequence[str]):
    """Exact value of `spec` at one named basis tuple, after checking every slot."""
    ctx, res_fn = spec.make(H)
    if len(tuple_names) != spec.arity:
        raise CheckError(f"{what} expects {spec.arity} slots, got {len(tuple_names)}")
    for n in tuple_names:
        if n not in ctx.names:
            raise CheckError(f"{what}: unknown basis element {n!r}")
    r = res_fn(ctx, tuple(ctx.names.index(n) for n in tuple_names))
    return tuple(map(ctx.F.scalar, dense(ctx.F, ctx.dim, r)))


def residual_at(name: str, H: HomSuperAlgebra, tuple_names: Sequence[str]):
    """Exact residual vector of one checker at one basis tuple."""
    if name not in CHECKERS:
        raise UnknownCheckerError(name)
    return _value_at(name, CHECKERS[name], H, tuple_names)


def form_value(form: str, H: HomSuperAlgebra, tuple_names: Sequence[str]):
    """Named multilinear value used by the corpus claims."""
    if form not in _CLAIM_FORMS:
        raise CheckError(f"unknown value form {form!r}")
    return _value_at(form, _CLAIM_FORMS[form], H, tuple_names)


# -- Public forms: the named values with Scalar vectors for letters; the
# signed ones demand homogeneous arguments wherever the identity reads a
# parity.


def _at_vectors(H: HomSuperAlgebra, spec: _Identity, args, signed: str) -> Vector:
    A = H.algebra
    vecs = [sparse(A.field, A._unwrap(v)) for v in args]  # every entry checked before a parity is read
    pars = [A.parity_of(v) for v in args]
    for p, slot in zip(pars, spec.letters):
        if p is None and slot in signed:
            raise HomogeneityError(f"argument {slot} has mixed parity")
    ctx, res_fn = spec.make(H, (vecs, [p or 0 for p in pars]))  # a mixed slot no sign reads: 0
    return A._wrap(dense(A.field, A.dim, res_fn(ctx, range(spec.arity))))


def hom_associator(H: HomSuperAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """as(x,y,z) = mu(mu(x,y), a(z)) - mu(a(x), mu(y,z)); no signs, any vectors."""
    return _at_vectors(H, _CLAIM_FORMS["as"], (x, y, z), "")


def hom_super_jacobian(H: HomSuperAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """J(x,y,z) = [[x,y],a(z)] - [a(x),[y,z]] - (-1)^(|y||z|)[[x,z],a(y)];
    y and z must be homogeneous so the sign is defined."""
    return _at_vectors(H, _CLAIM_FORMS["J"], (x, y, z), "yz")


def cyclic_hom_associator(H: HomSuperAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """S(x,y,z) = as(x,y,z) + (-1)^(|x|(|y|+|z|)) as(y,z,x)
                + (-1)^(|z|(|x|+|y|)) as(z,x,y); homogeneous arguments."""
    return _at_vectors(H, _CLAIM_FORMS["S"], (x, y, z), "xyz")


def bk_f(H: HomSuperAlgebra, t: Vector, x: Vector, y: Vector, z: Vector) -> Vector:
    """Graded Bruck-Kleinfeld f(t,x,y,z); homogeneous arguments."""
    return _at_vectors(H, _BK_f, (t, x, y, z), "txyz")


def bk_F(H: HomSuperAlgebra, t: Vector, x: Vector, y: Vector, z: Vector) -> Vector:
    """Graded Bruck-Kleinfeld F(t,x,y,z); homogeneous arguments."""
    return _at_vectors(H, _BK_F, (t, x, y, z), "txyz")
