"""Independent brute-force expansions of every identity the checkers decide.

This module is the second route for every verdict: it re-expands each cited
equation directly over raw coefficient tables with its own little evaluator,
sharing no evaluation code with the checkers in `identities` (only the field
arithmetic underneath is common).  Differences that matter:

  * a vector is a plain dict {index: payload} of its nonzero coordinates
    (`{}` is zero, and a coordinate that cancels is dropped); products, map
    applications and brackets are expanded with plain index loops over
    those items and the nonzero cells of the tables;
  * values live for one verdict only, in the evaluator's word memo: every
    four-letter residual (hom-malcev, -2 and -3, hom-jordan, teichmuller,
    cyclic-assoc, the bk-suite, the jordan expansion, and malcev- and
    jordan-admissible on the minus and plus evaluators) reads the twists,
    products and associators of basis words from it (`_Raw.word`), and the
    jordan expansion keeps its cyclic summands and brackets there too
    (`_Raw.kept`); the tuples of one `oracle_verdict` call share the memo,
    which goes with its `_Raw` when the call returns.  Only a failing
    verdict's (False, names) pair outlives it, on the instance's `Basis`
    under its index tuple for as long as the basis lives: it holds names
    only, so no value passes from one verdict or algebra to the next;
  * the Bruck-Kleinfeld F goes through its functorial definition (the signed
    cyclic-permutation sum) instead of the unrolled four-bracket form;
  * the super-commutator and plus products are rebuilt from the raw table by
    one builder (`_Raw._paired`), over the same graded pair formula
    (`_pair_residual`) that decides supercommutative and superskew.

`oracle_verdict` mirrors the checker registry names and tuple conventions so
verdicts and first counterexamples can be compared one to one.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

from .superalg import HomSuperAlgebra


class _Raw:
    """Raw tables + a deliberately plain evaluator."""

    def __init__(self, H: HomSuperAlgebra):
        A = H.algebra
        self.F = A.field
        self.n = A.dim
        self.p = list(A.basis.parities)
        self.names = list(A.basis.names)
        self.c = [[list(A.table[i][j]) for j in range(A.dim)] for i in range(A.dim)]
        self.m = [list(col) for col in H.alpha.cols]  # m[j][i]: e_j -> sum_i m[j][i] e_i
        isz = self.F.is_zero
        self.cnz = [
            [
                [(k, ck) for k, ck in enumerate(self.c[i][j]) if not isz(ck)]
                for j in range(self.n)
            ]
            for i in range(self.n)
        ]
        self._index()

    def _index(self):
        """Index the twist's nonzero entries and open an empty word memo:
        every evaluator, the minus and plus ones too, ends here once its
        nonzero product cells (`cnz`) are set."""
        isz = self.F.is_zero
        self.mnz = [
            [(i, mji) for i, mji in enumerate(col) if not isz(mji)]
            for col in self.m
        ]
        self.words = {}

    def zero(self):
        return {}

    def basis(self, i):
        return {i: self.F.one}

    def dense(self, u):
        """The payload tuple of vector u, F.zero where it holds nothing."""
        return tuple(u.get(k, self.F.zero) for k in range(self.n))

    # No operation changes its operands.  A coordinate sums its terms in the
    # order they are met: the value is exact, and so is its payload wherever
    # payloads are canonical (Q, GF(p), monomial-denominator Frac).  A
    # coordinate that got a single term is a product of nonzero payloads, so
    # only a sum of several is tested for zero.

    def mul(self, u, v):
        F = self.F
        add, mulf, isz, cnz = F.add, F.mul, F.is_zero, self.cnz
        out = {}
        summed = False
        vs = v.items()
        for i, ui in u.items():
            ci = cnz[i]
            for j, vj in vs:
                cij = ci[j]
                if cij:
                    uv = mulf(ui, vj)
                    for k, ck in cij:
                        if k in out:
                            out[k] = add(out[k], mulf(uv, ck))
                            summed = True
                        else:
                            out[k] = mulf(uv, ck)
        return {k: x for k, x in out.items() if not isz(x)} if summed else out

    def app(self, u):
        F = self.F
        add, mulf, isz, mnz = F.add, F.mul, F.is_zero, self.mnz
        out = {}
        summed = False
        for j, uj in u.items():
            for i, mji in mnz[j]:
                if i in out:
                    out[i] = add(out[i], mulf(mji, uj))
                    summed = True
                else:
                    out[i] = mulf(mji, uj)
        return {i: x for i, x in out.items() if not isz(x)} if summed else out

    def word(self, key):
        """The value of the word `key`, made on its first read and kept in
        `words`: a basis index x is e_x, (u,) is alpha(u), (u, v) is the
        product uv and (u, v, w) is the associator as(u, v, w), for words
        u, v, w; so word(((x,),)) is alpha^2 e_x.  Each value is made as
        `assoc`, `mul` and `app` make it, so its payload is the same, and
        it depends on the word and these tables alone, so every tuple may
        read it.

        The memo lives as long as this evaluator, which `oracle_verdict`
        makes for one call, and holds nothing that refers back to it, so
        reference counting frees both when the call returns.  The minus and
        plus evaluators keep their own.  It grows to O(dim^4) entries: a
        `jordan-expansion` verdict that holds leaves 666 (words, summands
        and brackets; about 140 KB, with its plus evaluator's) at
        dimension 3 and 8,892 (2.2 MB) on b42/alpha at dimension 6.  No CLI
        command imports this module."""
        v = self.words.get(key)
        if v is None:
            if key.__class__ is int:
                v = self.basis(key)
            elif len(key) == 1:
                v = self.app(self.word(key[0]))
            elif len(key) == 2:
                v = self.mul(self.word(key[0]), self.word(key[1]))
            else:
                x, y, z = key
                v = self.subv(
                    self.mul(self.word((x, y)), self.word((z,))),
                    self.mul(self.word((x,)), self.word((y, z))),
                )
            self.words[key] = v
        return v

    def kept(self, make, *args):
        """make(self, *args), kept in the word memo under (make, *args) for
        the rest of the verdict, like a word: for sums of words that
        several tuples read.  `make` is a module function, so the key refers
        back to nothing of this evaluator."""
        key = (make, *args)
        v = self.words.get(key)
        if v is None:
            v = self.words[key] = make(self, *args)
        return v

    def addv(self, u, v):
        F = self.F
        out = dict(u)
        for k, y in v.items():
            x = out.get(k)
            if x is None:
                out[k] = y
            elif F.is_zero(x := F.add(x, y)):
                del out[k]
            else:
                out[k] = x
        return out

    def subv(self, u, v):
        F = self.F
        out = dict(u)
        for k, y in v.items():
            x = out.get(k)
            if x is None:
                out[k] = F.neg(y)
            elif F.is_zero(x := F.sub(x, y)):
                del out[k]
            else:
                out[k] = x
        return out

    def smul(self, k: int, u):
        c = self.F.from_int(k)
        if self.F.is_zero(c):
            return {}
        return {i: self.F.mul(c, a) for i, a in u.items()}

    def sgnv(self, exp: int, u):
        return {i: self.F.neg(a) for i, a in u.items()} if exp % 2 else u

    def iszero(self, u):
        return not u

    def assoc(self, x, y, z):
        return self.subv(
            self.mul(self.mul(x, y), self.app(z)),
            self.mul(self.app(x), self.mul(y, z)),
        )

    def jac(self, x, y, z, py, pz):
        """The Jacobian of the words x, y, z (parities py, pz of y, z):
        as(x, y, z) - (-1)^(py pz) (xz) alpha(y), both read from the word
        memo."""
        w = self.word
        return self.subv(w((x, y, z)), self.sgnv(py * pz, w(((x, z), (y,)))))

    def bra(self, u, v, exp):
        return self.subv(self.mul(u, v), self.sgnv(exp, self.mul(v, u)))

    def minus(self) -> "_Raw":
        if getattr(self, "_minus", None) is None:
            self._minus = self._paired(True)
        return self._minus

    def plus(self) -> "_Raw":
        if getattr(self, "_plus", None) is None:
            self._plus = self._paired(False)
        return self._plus

    def _paired(self, minus: bool) -> "_Raw":
        """The evaluator on this basis and twist whose product is the
        super-commutator xy - (-1)^(|x||y|) yx (minus) or the plus product
        (xy + (-1)^(|x||y|) yx)/2, its cells made by `_pair_residual`.  It
        keeps only the nonzero cells (`cnz`), which are all it reads."""
        F, n = self.F, self.n
        half = None if minus else F.inv(F.from_int(2))
        out = _Raw.__new__(_Raw)
        out.F, out.n, out.p, out.names, out.m = F, n, self.p, self.names, self.m
        out.cnz = [
            [
                [(k, x if minus else F.mul(half, x)) for k, x in _pair_residual(self, i, j, minus)]
                for j in range(n)
            ]
            for i in range(n)
        ]
        out._index()
        return out


def _pair_residual(raw: _Raw, i, j, want_commutative: bool):
    """The nonzero (k, coordinate) pairs of e_i e_j - (-1)^(|i||j|) e_j e_i
    (want_commutative), or of e_i e_j + (-1)^(|i||j|) e_j e_i."""
    F, cij, cji = raw.F, raw.c[i][j], raw.c[j][i]
    op = F.sub if ((raw.p[i] * raw.p[j]) % 2 == 0) == want_commutative else F.add
    for k in range(raw.n):
        x = op(cij[k], cji[k])
        if not F.is_zero(x):
            yield k, x


def _cyclic(raw: _Raw, i, j, k):
    """S(e_i, e_j, e_k): the sum of as(e_i, e_j, e_k) and its two signed
    cyclic permutations."""
    p, b = raw.p, raw.basis
    s = raw.assoc(b(i), b(j), b(k))
    s = raw.addv(s, raw.sgnv(p[i] * (p[j] + p[k]), raw.assoc(b(j), b(k), b(i))))
    return raw.addv(s, raw.sgnv(p[k] * (p[i] + p[j]), raw.assoc(b(k), b(i), b(j))))


def _residual(name: str, raw: _Raw, idx) -> Sequence:
    F, p = raw.F, raw.p
    b = raw.basis
    if name in ("supercommutative", "superskew"):
        i, j = idx
        return dict(_pair_residual(raw, i, j, name == "supercommutative"))
    if name == "multiplicative":
        i, j = idx
        return raw.subv(raw.app(dict(raw.cnz[i][j])), raw.mul(raw.app(b(i)), raw.app(b(j))))
    if name in ("left-alt", "right-alt", "alternative"):
        i, j, k = idx
        left = raw.addv(
            raw.assoc(b(i), b(j), b(k)),
            raw.sgnv(p[i] * p[j], raw.assoc(b(j), b(i), b(k))),
        )
        if name == "left-alt":
            return left
        right = raw.addv(
            raw.assoc(b(i), b(j), b(k)),
            raw.sgnv(p[j] * p[k], raw.assoc(b(i), b(k), b(j))),
        )
        if name == "right-alt":
            return right
        return left if not raw.iszero(left) else right
    if name == "flexible":
        i, j, k = idx
        return raw.addv(
            raw.assoc(b(i), b(j), b(k)),
            raw.sgnv(
                p[i] * p[j] + p[i] * p[k] + p[j] * p[k],
                raw.assoc(b(k), b(j), b(i)),
            ),
        )
    if name == "hom-lie":
        i, j, k = idx
        return raw.jac(i, j, k, p[j], p[k])
    if name == "hom-malcev":
        i, j, k, l = idx
        px, py, pz, pt = p[i], p[j], p[k], p[l]
        w, jac = raw.word, raw.jac
        lhs = raw.smul(2, raw.mul(w(((l,),)), jac(i, j, k, py, pz)))
        rhs = jac((l,), (i,), (j, k), px, (py + pz) % 2)
        rhs = raw.addv(rhs, raw.sgnv(px * (py + pz), jac((l,), (j,), (k, i), py, (pz + px) % 2)))
        rhs = raw.addv(rhs, raw.sgnv(pz * (px + py), jac((l,), (k,), (i, j), pz, (px + py) % 2)))
        return raw.subv(lhs, rhs)
    if name == "hom-malcev-2":
        i, j, k, l = idx
        px, py, pz, pt = p[i], p[j], p[k], p[l]
        w, jac = raw.word, raw.jac
        lhs = jac((i,), (j,), (l, k), py, (pt + pz) % 2)
        lhs = raw.addv(
            lhs,
            raw.sgnv(px * py + pt * (px + py), jac((l,), (j,), (i, k), py, (px + pz) % 2)),
        )
        rhs = raw.sgnv(pt * pz, raw.mul(jac(i, j, k, py, pz), w(((l,),))))
        rhs = raw.addv(
            rhs,
            raw.sgnv(px * (py + pz + pt) + pt * py, raw.mul(jac(l, j, k, py, pz), w(((i,),)))),
        )
        return raw.subv(lhs, rhs)
    if name == "hom-malcev-3":
        i, j, k, l = idx
        px, py, pz, pt = p[i], p[j], p[k], p[l]
        w = raw.word
        lhs = raw.addv(
            raw.sgnv(px * py + pt * (px + py), w((((l, j), (i, k)),))),
            w((((i, j), (l, k)),)),
        )
        rhs = raw.zero()
        for exp, pair, mid, outer in (
            (pt * pz + px * (pt + py + pz), (j, k), l, i),
            (pt * pz + px * (py + pz), (j, k), i, l),
            (pz * (px + pt) + py * (pz + pt), (k, i), l, j),
            (pt * pz + py * (pt + pz) + px * (pt + pz), (k, l), i, j),
            (pt * py + px * (pt + py + pz), (l, j), k, i),
            (pz * pt, (i, j), k, l),
        ):
            rhs = raw.addv(rhs, raw.sgnv(exp, w(((pair, (mid,)), ((outer,),)))))
        return raw.subv(lhs, rhs)
    if name == "hom-jordan":
        i, j, k, l = idx
        px, py, pz, pt = p[i], p[j], p[k], p[l]
        w = raw.word
        out = raw.sgnv(pt * (px + pz), w(((i, j), (k,), (l,))))
        out = raw.addv(out, raw.sgnv(px * (py + pz), w(((j, l), (k,), (i,)))))
        return raw.addv(out, raw.sgnv(py * (pt + pz), w(((l, i), (k,), (j,)))))
    if name == "lie-admissible":
        return _residual("hom-lie", raw.minus(), idx)
    if name == "malcev-admissible":
        return _residual("hom-malcev", raw.minus(), idx)
    if name == "jordan-admissible":
        return _residual("hom-jordan", raw.plus(), idx)
    if name == "teichmuller":
        l, i, j, k = idx
        pt, px, py, pz = p[l], p[i], p[j], p[k]
        w = raw.word
        lhs = raw.subv(
            w(((l, i), (j,), (k,))),
            raw.sgnv(pt * (px + py + pz), w(((i, j), (k,), (l,)))),
        )
        lhs = raw.addv(lhs, raw.sgnv((pt + px) * (py + pz), w(((j, k), (l,), (i,)))))
        rhs = raw.addv(raw.mul(w(((l,),)), w((i, j, k))), raw.mul(w((l, i, j)), w(((k,),))))
        return raw.subv(lhs, rhs)
    if name in ("bk-suite", "cyclic-assoc"):
        return _bk_residual(name, raw, idx)
    if name == "j-eq-6as":
        i, j, k = idx
        minus = raw.minus()
        return raw.subv(
            minus.jac(i, j, k, p[j], p[k]),
            raw.smul(6, raw.assoc(b(i), b(j), b(k))),
        )
    if name == "j-eq-2s":
        i, j, k = idx
        minus = raw.minus()
        return raw.subv(minus.jac(i, j, k, p[j], p[k]), raw.smul(2, _cyclic(raw, i, j, k)))
    if name == "jordan-expansion":
        return _jordan_expansion_residual(raw, idx)
    raise KeyError(name)


def _f_raw(raw: _Raw, l, i, j, k):
    p, w = raw.p, raw.word
    pt, px, py, pz = p[l], p[i], p[j], p[k]
    out = w(((l, i), (j,), (k,)))
    out = raw.subv(out, raw.sgnv(pt * (px + py + pz), raw.mul(w((i, j, k)), w(((l,),)))))
    return raw.subv(out, raw.sgnv(pt * px, raw.mul(w(((i,),)), w((l, j, k)))))


def _F_functorial(raw: _Raw, l, i, j, k):
    """F = [-,-] . (alpha^2 x as) . (Id - zeta + zeta^2 - zeta^3) with
    zeta(t,x,y,z) = (z,t,x,y) carrying its Koszul sign."""
    p, w = raw.p, raw.word
    slots = [l, i, j, k]
    out = raw.zero()
    for step in range(4):
        # Koszul sign of rotating `order` from the original (t,x,y,z)
        koszul = 0
        rotated = slots[4 - step:] + slots[: 4 - step]
        moved = slots[4 - step:]
        stayed = slots[: 4 - step]
        for a in moved:
            for s in stayed:
                koszul += p[a] * p[s]
        head, tail = rotated[0], rotated[1:]
        ptail = (p[tail[0]] + p[tail[1]] + p[tail[2]]) % 2
        term = raw.bra(w(((head,),)), w(tuple(tail)), p[head] * ptail)
        out = raw.addv(out, raw.sgnv(step + koszul, term))
    return out


def _bk_residual(name: str, raw: _Raw, idx):
    p, b = raw.p, raw.basis
    l, i, j, k = idx
    pt, px, py, pz = p[l], p[i], p[j], p[k]
    if name == "cyclic-assoc":
        # as(alpha t, alpha x, [y, z]) is taken apart at its bracket, so each
        # associator is a word that the tuple with y and z swapped reads too
        w = raw.word
        lhs = raw.smul(2, raw.bra(w(((l,),)), w((i, j, k)), pt * (px + py + pz)))
        rhs = raw.zero()
        for exp, x, y, z in (
            (0, i, j, k),
            (px * (py + pz), j, k, i),
            (pz * (px + py), k, i, j),
        ):
            term = raw.subv(
                w(((l,), (x,), (y, z))),
                raw.sgnv(p[y] * p[z], w(((l,), (x,), (z, y)))),
            )
            rhs = raw.addv(rhs, raw.sgnv(exp, term))
        return raw.subv(lhs, rhs)
    # bk-suite: first failing sub-identity
    f = _f_raw(raw, l, i, j, k)
    for other, exp in (
        ((i, l, j, k), pt * px),
        ((l, j, i, k), px * py),
        ((l, i, k, j), py * pz),
    ):
        r = raw.addv(f, raw.sgnv(exp, _f_raw(raw, *other)))
        if not raw.iszero(r):
            return r
    bigF = _F_functorial(raw, l, i, j, k)
    r = raw.subv(bigF, raw.smul(3, f))
    if not raw.iszero(r):
        return r
    rho = raw.subv(f, raw.sgnv(pt * (px + py + pz), _f_raw(raw, i, j, k, l)))
    rho = raw.addv(rho, raw.sgnv((pt + px) * (py + pz), _f_raw(raw, j, k, l, i)))
    r = raw.subv(bigF, rho)
    if not raw.iszero(r):
        return r
    w = raw.word
    rhs = raw.assoc(raw.bra(b(l), b(i), pt * px), w((j,)), w((k,)))
    rhs = raw.addv(
        rhs,
        raw.sgnv(
            (py + pz) * (px + pt),
            raw.assoc(raw.bra(b(j), b(k), py * pz), w((l,)), w((i,))),
        ),
    )
    return raw.subv(f, rhs)


# The twelve signed associators of one cyclic summand (a, b, t) of the
# jordan expansion's right side: (sign exponent from the parities of a, b,
# t and k, X, Y, Z) for as(X, Y, Z) over the operands ab = e_a e_b,
# ba = e_b e_a, t = alpha e_t and z = alpha e_k.  ab and ba stay apart:
# merging them by bilinearity would rebuild the plus product under test.
_JORDAN_TERMS = (
    (lambda a, b, t, z: t * (a + z), "ab", "z", "t"),
    (lambda a, b, t, z: t * (a + z) + a * b, "ba", "z", "t"),
    (lambda a, b, t, z: 1 + t * b + z * (a + b), "t", "z", "ab"),
    (lambda a, b, t, z: 1 + b * (a + t) + z * (a + b), "t", "z", "ba"),
    (lambda a, b, t, z: 1 + t * b, "t", "ab", "z"),
    (lambda a, b, t, z: 1 + b * (a + t), "t", "ba", "z"),
    (lambda a, b, t, z: a * (t + b) + z * (a + b + t), "z", "ba", "t"),
    (lambda a, b, t, z: t * (a + z) + z * (a + b), "z", "ab", "t"),
    (lambda a, b, t, z: 1 + z * (a + b + t) + t * b, "z", "t", "ab"),
    (lambda a, b, t, z: t * a, "ab", "t", "z"),
    (lambda a, b, t, z: 1 + z * (a + b + t) + b * (a + t), "z", "t", "ba"),
    (lambda a, b, t, z: a * (b + t), "ba", "t", "z"),
)


def _jordan_summand(raw: _Raw, a, b, t, k):
    """The twelve signed associators of the cyclic summand (a, b, t) at k."""
    p, w = raw.p, raw.word
    ops = {"ab": (a, b), "ba": (b, a), "t": (t,), "z": (k,)}
    out = raw.zero()
    for exp, x, y, z in _JORDAN_TERMS:
        term = w((ops[x], ops[y], ops[z]))
        out = raw.addv(out, raw.sgnv(exp(p[a], p[b], p[t], p[k]), term))
    return out


def _jordan_bracket(raw: _Raw, k, trip):
    """[alpha^2 e_k, as(trip)] with the Koszul sign of its two slots."""
    p, w = raw.p, raw.word
    return raw.bra(w(((k,),)), w(trip), p[k] * (p[trip[0]] + p[trip[1]] + p[trip[2]]))


def _jordan_rhs(raw: _Raw, idx):
    """The jordan expansion's right side: the 36 associators of the three
    cyclic summands and the six brackets [alpha^2 e_k, as(...)].  A summand
    depends on (a, b, t, k) alone and a bracket on (k, trip) alone, so each
    is kept for the three, or six, tuples that permute its letters."""
    p, kept = raw.p, raw.kept
    i, j, k, l = idx
    px, py, pz, pt = p[i], p[j], p[k], p[l]
    rhs = raw.addv(kept(_jordan_summand, i, j, l, k), kept(_jordan_summand, j, l, i, k))
    rhs = raw.addv(rhs, kept(_jordan_summand, l, i, j, k))
    S3 = px + py + pt
    for exp, trip in (
        (px * py, (j, l, i)),
        (py * (px + pt), (l, j, i)),
        (pt * py, (l, i, j)),
        (pt * (px + py), (i, l, j)),
        (px * pt, (i, j, l)),
        (px * (py + pt), (j, i, l)),
    ):
        rhs = raw.addv(rhs, raw.sgnv(exp + pz * S3, kept(_jordan_bracket, k, trip)))
    return rhs


def _jordan_expansion_residual(raw: _Raw, idx):
    p, w = raw.p, raw.plus().word
    i, j, k, l = idx
    px, py, pz, pt = p[i], p[j], p[k], p[l]
    lhs = raw.sgnv(pt * (px + pz), w(((i, j), (k,), (l,))))
    lhs = raw.addv(lhs, raw.sgnv(px * (py + pz), w(((j, l), (k,), (i,)))))
    lhs = raw.addv(lhs, raw.sgnv(py * (pt + pz), w(((l, i), (k,), (j,)))))
    return raw.subv(raw.smul(8, lhs), _jordan_rhs(raw, idx))


_ARITY = {
    "supercommutative": 2, "superskew": 2, "multiplicative": 2,
    "left-alt": 3, "right-alt": 3, "alternative": 3, "flexible": 3,
    "hom-lie": 3, "lie-admissible": 3, "j-eq-6as": 3, "j-eq-2s": 3,
    "hom-malcev": 4, "hom-malcev-2": 4, "hom-malcev-3": 4,
    "hom-jordan": 4, "malcev-admissible": 4, "jordan-admissible": 4,
    "teichmuller": 4, "bk-suite": 4, "cyclic-assoc": 4, "jordan-expansion": 4,
}


def oracle_verdict(
    name: str, H: HomSuperAlgebra
) -> Tuple[bool, Optional[Tuple[str, ...]]]:
    """(holds, first failing tuple names) by direct expansion."""
    raw = _Raw(H)
    arity = _ARITY[name]
    for idx in itertools.product(range(raw.n), repeat=arity):
        if not raw.iszero(_residual(name, raw, idx)):
            # one pair per failing tuple for as long as the basis lives: it
            # holds names only, so it is the same for every table on it
            entries, key = H.algebra.basis._entries, ("oracle", idx)
            got = entries.get(key)
            if got is None:
                got = entries[key] = (False, tuple(raw.names[i] for i in idx))
            return got
    return True, None


def oracle_value(form: str, H: HomSuperAlgebra, tuple_names: Sequence[str]):
    """Named multilinear value by direct expansion (dense payload tuple)."""
    raw = _Raw(H)
    idx = [raw.names.index(nm) for nm in tuple_names]
    b, p = raw.basis, raw.p
    if form == "product":
        i, j = idx
        return raw.dense(raw.mul(b(i), b(j)))
    if form == "as":
        i, j, k = idx
        return raw.dense(raw.assoc(b(i), b(j), b(k)))
    if form == "S":
        return raw.dense(_cyclic(raw, *idx))
    if form == "J":
        i, j, k = idx
        return raw.dense(raw.jac(i, j, k, p[j], p[k]))
    if form == "J-minus":
        i, j, k = idx
        return raw.dense(raw.minus().jac(i, j, k, p[j], p[k]))
    if form == "leftalt":
        return raw.dense(_residual("left-alt", raw, tuple(idx)))
    if form == "jordan":
        return raw.dense(_residual("hom-jordan", raw, tuple(idx)))
    raise KeyError(form)
