"""Exact coefficient arithmetic for structure-constant tables.

Scalars live in one of three kinds of field:

  * Q               -- int when the value is integral, stdlib Fraction
                       only where a denominator remains
  * GF(p)           -- ints in [0, p), p prime
  * Frac(K[x1..xn]) -- fractions of sparse multivariate polynomials over
                       K = Q or GF(p)

A polynomial is a dict mapping exponent tuples to nonzero base-field
coefficients; the zero polynomial is the empty dict.  A fraction whose
denominator is a monomial, as in every bundled table, is kept as a Laurent
polynomial: one such dict whose exponents may be negative, standing for
N/z^e with z^e = x1^e1 ... xn^en.  `mul` is the polynomial product and
`add` and `sub` merge the two dicts; no exponent is shifted and no factor is
cancelled.  Only a denominator with several terms (none in the bundled
tables) keeps a `FracPayload` num/den pair, which is not reduced by
multivariate gcd; `eq` cross-multiplies there, which is exact whatever the
representation.  No field has a power of its own: `Field.pow` serves every
field, by square-and-multiply over the field's `mul`.

Exactness.  A Laurent polynomial is a finitely supported map from exponents
to nonzero coefficients, and the monomials z^m (m in Z^n) are a basis of
K[x1^+-1..xn^+-1], so each value has exactly one such map and needs no
normaliser: `eq` compares two dicts and `key` reads the dict as stored.  Its
lowest-terms form N/z^e is unique too.  K[x1..xn] is a UFD, each xv is a
prime in it, and val_v, the least exponent of xv in a nonzero polynomial,
satisfies val_v(N z^d) = val_v(N) + d_v; so a nonzero value has exactly one
representative N/z^e with z^e monic and min(val_v(N), e_v) = 0 for every
parameter v: if N z^e' = N' z^e for two of them and e_v > e'_v, then
val_v(N) = val_v(N') + e_v - e'_v > 0 and e_v > 0, against the condition.
Only `render`, for text, and `substitute`, since `Field.pow` takes no
negative exponent, read that representative off the dict: e_v is minus the
least exponent of xv, or 0, and N is the dict shifted by e, its terms in the
dict's order.  The general route takes a Laurent operand whole, as its own
numerator over one, and `_make` on the cross-multiplied operands cancels the
common monomial factor and makes the denominator monic, so its result does
not depend on which monomial multiple of an operand it was given; a
single-term denominator comes back as a Laurent dict.

A Q payload is canonical: an int when the value is integral, else a stdlib
Fraction in lowest terms with a denominator above 1.  `add`, `sub`, `mul`,
`neg` and `inv` keep it so without going through Fraction's operators: two
ints take the int operation; otherwise the kernel reads numerators and
denominators and reduces as the stdlib does (Henrici: one gcd of the
denominators, then one gcd of the partial sum with it; cross gcds for a
product), which leaves the result in lowest terms with a positive
denominator.  A result with denominator 1 is returned as its int
numerator; any other is built once by `_frac`, which fills a Fraction's two
slots without normalising again.  A Fraction in lowest terms with a positive
denominator is what the stdlib itself builds, so a `_frac` value cannot be
told apart from one: same numerator, denominator, hash, repr, pickle and
copy.  `Field.normal` brings a payload that a caller built by hand (a raw
Fraction) into canonical form; `SuperAlgebra` and `EvenLinearMap` apply it to
their tables once.

The user-facing value type is `Scalar`, a thin (field, payload) wrapper with
operator overloads; the evaluation loops elsewhere in the package work on raw
payloads through the `Field` objects for speed.

All scalar values are immutable after construction and all operations are
pure, so values can be shared and sent between threads freely.  Fraction
fields lean on that to save memory: every zero result is the field's one
`zero` payload (`neg` of zero returns its argument), and a product by a
coefficient that is the base field's `one` keeps the other coefficient
object.  Reported residuals are shared through their basis
(`superalg.Basis.counterexample`), keyed by `Field.key`.  No code mutates a
payload's polynomials, so the sharing is invisible except to `is`.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from operator import add as _add
from operator import sub as _sub
from typing import Dict, Mapping, Optional, Tuple, Union

Exponent = Tuple[int, ...]


class CoeffError(Exception):
    """Base class for scalar arithmetic errors."""


class FieldMismatchError(CoeffError):
    pass


class ZeroInversionError(CoeffError):
    pass


class CharacteristicError(CoeffError):
    pass


class UnboundParameterError(CoeffError):
    pass


# Miller-Rabin with the first thirteen prime bases (2 to 41) is exact for
# every n below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015); larger moduli are refused.  Bases 2 to 37
# alone are fooled by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic primality test for 0 <= p < 3317044064679887385961981."""
    if p < 2:
        return False
    if p >= _MR_BOUND:
        raise CoeffError(f"GF modulus {p} is too large: primality is decided below {_MR_BOUND}")
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Base field plus an ordered tuple of parameter names (possibly empty)."""

    base: str  # "Q" or "GF"
    p: Optional[int] = None
    params: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.base not in ("Q", "GF"):
            raise CoeffError(f"unknown base field {self.base!r}")
        if self.base == "GF":
            if self.p is None or not is_prime(self.p):
                raise CoeffError(f"GF modulus must be prime, got {self.p!r}")
        elif self.p is not None:
            raise CoeffError("Q takes no modulus")
        if len(set(self.params)) != len(self.params):
            raise CoeffError("duplicate parameter names")
        for name in self.params:
            if not name.isidentifier():
                raise CoeffError(f"bad parameter name {name!r}")

    @property
    def characteristic(self) -> int:
        return self.p if self.base == "GF" else 0

    def base_label(self) -> str:
        return "Q" if self.base == "Q" else f"GF({self.p})"

    def label(self) -> str:
        if not self.params:
            return self.base_label()
        return f"Frac({self.base_label()}[{','.join(self.params)}])"


# ---------------------------------------------------------------------------
# Sparse polynomials over a base field.  These are plain dicts; all the
# operations take the base Field object for coefficient arithmetic.
# ---------------------------------------------------------------------------

Poly = Dict[Exponent, object]


def poly_add(a: Poly, b: Poly, base: "Field") -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        if e in out:
            s = base.add(out[e], c)
            if base.is_zero(s):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return out


def poly_sub(a: Poly, b: Poly, base: "Field") -> Poly:
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        if e in out:
            s = base.sub(out[e], c)
            if base.is_zero(s):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = base.neg(c)
    return out


def poly_neg(a: Poly, base: "Field") -> Poly:
    return {e: base.neg(c) for e, c in a.items()}


def poly_mul(a: Poly, b: Poly, base: "Field") -> Poly:
    if not a or not b:
        return {}
    one = base.one
    out: Poly = {}
    for ea, ca in a.items():
        a_const = not any(ea)
        for eb, cb in b.items():
            # a constant monomial leaves the other exponent tuple as it is,
            # and a coefficient that is the field's one leaves the other
            # coefficient as it is, so the product shares them
            if a_const:
                e = eb
            elif any(eb):
                e = tuple(map(_add, ea, eb))
            else:
                e = ea
            if cb is one:
                c = ca
            elif ca is one:
                c = cb
            else:
                c = base.mul(ca, cb)
            if e in out:
                s = base.add(out[e], c)
                if base.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            elif not base.is_zero(c):
                out[e] = c
    return out


def poly_scale(a: Poly, c, base: "Field") -> Poly:
    return {e: base.mul(coef, c) for e, coef in a.items()}


class FracPayload:
    """num/den pair of polynomials, for a denominator of several terms; a
    monomial denominator is kept as a Laurent polynomial instead."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den

    def __repr__(self):  # debugging only; real rendering lives on the field
        return f"FracPayload({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# Field objects
# ---------------------------------------------------------------------------

# The work meter: the parser refuses a value operator, and `maps` a
# composition, whose coefficient products could pass MAX_WORK before it
# computes.  The count reads only term counts (`Field.size`), so (a+1)^1000
# passes and (a+b+c)^100 does not.
MAX_WORK = 10**6


class Field:
    """Arithmetic over payload values of one scalar kind."""

    spec: FieldSpec
    zero: object
    one: object

    def add(self, x, y):
        raise NotImplementedError

    def sub(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def is_zero(self, x) -> bool:
        raise NotImplementedError

    def eq(self, x, y) -> bool:
        return self.is_zero(self.sub(x, y))

    def pow(self, x, k: int):
        out = self.one
        while k:
            if k & 1:
                out = self.mul(out, x)
            k >>= 1
            if k:
                x = self.mul(x, x)
        return out

    # -- the work meter (see MAX_WORK)

    def size(self, x) -> Tuple[int, int]:
        """The term counts of x's numerator and denominator; (1, 1) where
        values do not grow."""
        return 1, 1

    def sum_work(self, sums) -> int:
        """The coefficient products of the sparse sums `sums`, each an
        iterable of (index, factor payloads) terms whose products are added
        by index, counted until past MAX_WORK.  A product of sizes (n, d) and
        (n', d') takes n n' + d d'; a sum cross-multiplies the denominators."""
        size = self.size
        work = 0
        for terms in sums:
            acc = {}
            for i, x, *ys in terms:
                num, den = size(x)
                for y in ys:
                    n, d = size(y)
                    num, den = num * n, den * d
                    work += num + den
                if i in acc:
                    n, d = acc[i]
                    num, den = num * d + n * den, den * d
                    work += num + den
                acc[i] = num, den
            if work > MAX_WORK:
                break
        return work

    def pow_work(self, x, k: int) -> int:
        """The coefficient products of `pow(x, k)` as `sum_work` counts them,
        until past MAX_WORK: x^j has at most C(t + j - 1, j) terms where x
        has t.  `out` and `sq` are the exponents of pow's `out` and `x`."""
        size = self.size(x)
        products = lambda a, b: sum(comb(t + a - 1, a) * comb(t + b - 1, b) for t in size)
        out, sq, work = 0, 1, 0
        while k and work <= MAX_WORK:
            if k & 1:
                if out:
                    work += products(out, sq)
                out += sq
            k >>= 1
            if k:
                work += products(sq, sq)
                sq *= 2
        return work

    def from_int(self, n: int):
        return self.from_fraction(n)

    def from_fraction(self, q: Union[int, Fraction]):
        raise NotImplementedError

    def render(self, x) -> str:
        raise NotImplementedError

    def normal(self, x):
        """The canonical payload of `x` (the identity unless a field keeps
        one of several representations canonical)."""
        return x

    def scalar(self, x) -> "Scalar":
        return Scalar(self, x)

    def key(self, x):
        """Hashable key, equal exactly for payloads of the same representation."""
        return x

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)


_new_object = object.__new__


def _frac(n: int, d: int) -> Fraction:
    """The stdlib Fraction n/d for coprime n and d > 1, made without
    Fraction's normalisation by filling its two slots."""
    q = _new_object(Fraction)
    q._numerator = n
    q._denominator = d
    return q


class RationalField(Field):
    """Q on canonical payloads: an int for an integral value, a Fraction
    in lowest terms only where a denominator remains.  `add`, `sub`, `mul`,
    `neg` and `inv` are the exact kernel described in the module docstring;
    each stands alone, calling no other field method, and `div` is `mul` by
    `inv`."""

    def __init__(self):
        self.spec = FieldSpec("Q")
        self.zero = 0
        self.one = 1

    def add(self, x, y):
        if x.__class__ is int:
            if y.__class__ is int:
                return x + y
            na, da = x, 1
        else:
            na, da = x._numerator, x._denominator
        if y.__class__ is int:
            nb, db = y, 1
        else:
            nb, db = y._numerator, y._denominator
        g = gcd(da, db)
        if g == 1:
            n, d = na * db + da * nb, da * db
        else:
            s = da // g
            n = na * (db // g) + nb * s
            g2 = gcd(n, g)
            n, d = n // g2, s * (db // g2)
        return n if d == 1 else _frac(n, d)

    def sub(self, x, y):
        if x.__class__ is int:
            if y.__class__ is int:
                return x - y
            na, da = x, 1
        else:
            na, da = x._numerator, x._denominator
        if y.__class__ is int:
            nb, db = y, 1
        else:
            nb, db = y._numerator, y._denominator
        g = gcd(da, db)
        if g == 1:
            n, d = na * db - da * nb, da * db
        else:
            s = da // g
            n = na * (db // g) - nb * s
            g2 = gcd(n, g)
            n, d = n // g2, s * (db // g2)
        return n if d == 1 else _frac(n, d)

    def mul(self, x, y):
        if x.__class__ is int:
            if y.__class__ is int:
                return x * y
            na, da = x, 1
        else:
            na, da = x._numerator, x._denominator
        if y.__class__ is int:
            nb, db = y, 1
        else:
            nb, db = y._numerator, y._denominator
        g1 = gcd(na, db)
        g2 = gcd(nb, da)
        n, d = (na // g1) * (nb // g2), (da // g2) * (db // g1)
        return n if d == 1 else _frac(n, d)

    def neg(self, x):
        if x.__class__ is int:
            return -x
        return _frac(-x._numerator, x._denominator)

    def inv(self, x):
        if x.__class__ is int:
            n, d = 1, x
        else:
            n, d = x._denominator, x._numerator
        if not d:
            raise ZeroInversionError("inverse of zero")
        if d < 0:
            n, d = -n, -d
        return n if d == 1 else _frac(n, d)

    def is_zero(self, x):
        return not x

    def eq(self, x, y):
        # a Fraction is in lowest terms with a positive denominator, so equal
        # values have equal numerators and denominators
        if x.__class__ is int:
            if y.__class__ is int:
                return x == y
            return y._denominator == 1 and y._numerator == x
        if y.__class__ is int:
            return x._denominator == 1 and x._numerator == y
        return x._numerator == y._numerator and x._denominator == y._denominator

    def from_int(self, n):
        return int(n)

    def from_fraction(self, q):
        return self.normal(q)

    def normal(self, x):
        return x.numerator if x.denominator == 1 else x

    def render(self, x):
        try:
            return str(x)
        except ValueError:  # past the interpreter's integer digit limit
            raise CoeffError(
                f"rational with more than {sys.get_int_max_str_digits()} digits cannot be rendered"
            ) from None


class PrimeField(Field):
    def __init__(self, p: int):
        self.spec = FieldSpec("GF", p)
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        x %= self.p
        if x == 0:
            raise ZeroInversionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

    def is_zero(self, x):
        return x % self.p == 0

    def eq(self, x, y):
        return (x - y) % self.p == 0

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, q: Fraction):
        if q.denominator % self.p == 0:
            raise CharacteristicError(
                f"1/{q.denominator} does not exist in GF({self.p})"
            )
        return (q.numerator * pow(q.denominator % self.p, self.p - 2, self.p)) % self.p

    def render(self, x):
        return str(x % self.p)


class FractionField(Field):
    """Fraction field of a multivariate polynomial ring over Q or GF(p)."""

    def __init__(self, base: Field, params: Tuple[str, ...]):
        if base.spec.params:
            raise CoeffError("base of a fraction field must be parameter-free")
        if not params:
            raise CoeffError("fraction field needs at least one parameter")
        self.spec = FieldSpec(base.spec.base, base.spec.p, tuple(params))
        self.base = base
        self.n = len(params)
        self._zero_exp = (0,) * self.n
        self.zero = {}
        self.one = {self._zero_exp: base.one}

    # -- construction helpers

    def _lowest(self, x) -> Tuple[Poly, Poly]:
        """(numerator, denominator) of a payload in lowest terms: N/z^e for a
        Laurent one, N's terms in x's order.  Only `render` and `binder` read
        it."""
        if x.__class__ is not dict:
            return x.num, x.den
        if min(map(min, x), default=0) >= 0:  # a polynomial
            return x, self.one
        lows = self._zero_exp
        for m in x:
            lows = tuple(map(min, lows, m))
        num = {tuple(map(_sub, m, lows)): c for m, c in x.items()}
        return num, {tuple(-k for k in lows): self.base.one}

    def _pair(self, x) -> Tuple[Poly, Poly]:
        """(numerator, denominator) of a payload; a Laurent one over one."""
        return (x, self.one) if x.__class__ is dict else (x.num, x.den)

    def _make(self, num: Poly, den: Poly):
        if not den:
            raise ZeroInversionError("zero denominator")
        if not num:
            return self.zero
        base = self.base
        if len(den) == 1:
            ((e, c),) = den.items()
            if not base.eq(c, base.one):
                num = poly_scale(num, base.inv(c), base)
            if not any(e):
                return num
            return {tuple(map(_sub, m, e)): coef for m, coef in num.items()}
        # several terms: cancel the common monomial factor and make the
        # denominator monic in its lex-leading term
        num, den = self._cancel_monomial(num, den)
        c = den[max(den)]
        if not base.eq(c, base.one):
            cinv = base.inv(c)
            num = poly_scale(num, cinv, base)
            den = poly_scale(den, cinv, base)
        return FracPayload(num, den)

    def _cancel_monomial(self, num: Poly, den: Poly):
        lows = None
        for e in num:
            lows = e if lows is None else tuple(map(min, lows, e))
        for e in den:
            lows = tuple(map(min, lows, e))
        if lows is None or not any(lows):
            return num, den
        shift = lambda e: tuple(map(_sub, e, lows))
        return {shift(e): c for e, c in num.items()}, {
            shift(e): c for e, c in den.items()
        }

    def monomial(self, name: str) -> Poly:
        i = self.spec.params.index(name)
        return {tuple(1 if j == i else 0 for j in range(self.n)): self.base.one}

    def size(self, x) -> Tuple[int, int]:
        """The term counts of x's lowest-terms numerator and denominator."""
        if x.__class__ is dict:
            return len(x), 1
        return len(x.num), len(x.den)

    # -- arithmetic: the zero payload is the one falsy one

    def _combine(self, x, y, op):
        """x + y or x - y over num/den pairs; `op` is poly_add or poly_sub."""
        (xn, xd), (yn, yd) = self._pair(x), self._pair(y)
        if xd == yd:
            return self._make(op(xn, yn, self.base), xd)
        num = op(poly_mul(xn, yd, self.base), poly_mul(yn, xd, self.base), self.base)
        return self._make(num, poly_mul(xd, yd, self.base))

    def add(self, x, y):
        if not x:
            return y
        if not y:
            return x
        if x.__class__ is dict and y.__class__ is dict:
            return poly_add(x, y, self.base) or self.zero
        return self._combine(x, y, poly_add)

    def sub(self, x, y):
        if not y:
            return x
        if not x:
            return self.neg(y)
        if x.__class__ is dict and y.__class__ is dict:
            return poly_sub(x, y, self.base) or self.zero
        return self._combine(x, y, poly_sub)

    def neg(self, x):
        if not x:
            return x
        if x.__class__ is dict:
            return poly_neg(x, self.base)
        return FracPayload(poly_neg(x.num, self.base), x.den)

    def mul(self, x, y):
        if not x or not y:
            return self.zero
        if x.__class__ is dict and y.__class__ is dict:
            return poly_mul(x, y, self.base)  # nonzero: K[z^+-1] is a domain
        (xn, xd), (yn, yd) = self._pair(x), self._pair(y)
        return self._make(poly_mul(xn, yn, self.base), poly_mul(xd, yd, self.base))

    def inv(self, x):
        if not x:
            raise ZeroInversionError("inverse of zero")
        num, den = self._pair(x)
        return self._make(den, num)

    def is_zero(self, x):
        return not x

    def key(self, x):
        if x.__class__ is dict:
            return tuple(x.items())  # one Laurent polynomial per value (see above)
        return tuple(x.num.items()), tuple(x.den.items())

    def eq(self, x, y):
        if x.__class__ is dict and y.__class__ is dict:
            return x == y  # one Laurent polynomial per value (see above)
        # cross multiplication: exact whatever the normalisation
        (xn, xd), (yn, yd) = self._pair(x), self._pair(y)
        if xd == yd:
            return xn == yn or not poly_sub(xn, yn, self.base)
        lhs = poly_mul(xn, yd, self.base)
        rhs = poly_mul(yn, xd, self.base)
        return not poly_sub(lhs, rhs, self.base)

    def from_fraction(self, q: Fraction):
        c = self.base.from_fraction(q)
        return self.zero if self.base.is_zero(c) else {self._zero_exp: c}

    # -- substitution

    def substitute(self, x, bindings: Mapping[str, object], target: Field):
        """Bind a subset of the parameters to base-field values.

        `target` must be the field over the remaining parameters (or the bare
        base field when every parameter is bound).
        """
        return self.binder(bindings, target)(x)

    def binder(self, bindings: Mapping[str, object], target: Field):
        """`substitute` with its bindings and target fixed, as a function of
        the value alone: the unbound names, the kept exponent positions and
        the bound base-field values are worked out once, here."""
        remaining = [p for p in self.spec.params if p not in bindings]
        if isinstance(target, FractionField):
            if tuple(remaining) != target.spec.params:
                raise CoeffError("target field does not match unbound parameters")
        elif remaining:
            raise UnboundParameterError(
                f"unbound parameters: {', '.join(remaining)}"
            )
        keep = [i for i, p in enumerate(self.spec.params) if p not in bindings]
        vals = {}
        for i, p in enumerate(self.spec.params):
            if p in bindings:
                v = bindings[p]  # a Fraction is used as it is: Fraction() would copy it
                vals[i] = self.base.from_fraction(v if v.__class__ is Fraction else Fraction(v))

        def down(poly: Poly) -> Poly:
            out: Poly = {}
            for e, c in poly.items():
                coef = c
                for i, v in vals.items():
                    coef = self.base.mul(coef, self.base.pow(v, e[i]))
                ne = tuple(e[i] for i in keep)
                if ne in out:
                    s = self.base.add(out[ne], coef)
                    if self.base.is_zero(s):
                        del out[ne]
                    else:
                        out[ne] = s
                elif not self.base.is_zero(coef):
                    out[ne] = coef
            return out

        to_fraction = isinstance(target, FractionField)

        def bound(x):
            xn, xd = self._lowest(x)  # pow takes no negative exponent
            num = down(xn)
            if xd is self.one:  # a polynomial: nothing to divide by
                if to_fraction:
                    return num or target.zero
                return num.get((), target.zero)
            den = down(xd)
            if not den:
                raise ZeroInversionError("denominator vanishes under binding")
            if to_fraction:
                return target._make(num, den)
            # every parameter bound: each polynomial is its constant term ()
            return self.base.div(num.get((), self.base.zero), den[()])

        return bound

    # -- rendering (grammar-compatible; see io module)

    def _monomial_str(self, e: Exponent) -> str:
        parts = []
        for name, k in zip(self.spec.params, e):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return "*".join(parts)

    def _poly_str(self, p: Poly) -> str:
        if not p:
            return "0"
        out = []
        for e in sorted(p, reverse=True):
            c = p[e]
            mono = self._monomial_str(e)
            cs = self.base.render(c)
            negative = cs.startswith("-")
            mag = cs[1:] if negative else cs
            if mono and mag == "1":
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = mag
            if not out:
                if negative:
                    # "-a^2" would parse as (-a)^2 under the grammar, so a
                    # leading negative bare monomial with an exponent gets an
                    # explicit -1* coefficient
                    if body == mono and "^" in body:
                        out.append(f"-1*{body}")
                    else:
                        out.append(f"-{body}")
                else:
                    out.append(body)
            else:
                out.append(f" - {body}" if negative else f" + {body}")
        return "".join(out)

    def render(self, x) -> str:
        xn, xd = self._lowest(x)
        num = self._poly_str(xn)
        if xd is self.one:
            return num
        den = self._poly_str(xd)
        num_atom = num if (num.isalnum() or self._is_single_monomial(xn)) else f"({num})"
        den_atom = den if den.isidentifier() else f"({den})"
        return f"{num_atom}/{den_atom}"

    def _is_single_monomial(self, p: Poly) -> bool:
        if len(p) != 1:
            return False
        ((e, c),) = p.items()
        cs = self.base.render(c)
        return not cs.startswith("-") and "/" not in cs


def rationals() -> RationalField:
    return field_for(FieldSpec("Q"))


def prime_field(p: int) -> PrimeField:
    return field_for(FieldSpec("GF", p))


@functools.cache  # one field per spec: equal specs share one object
def field_for(spec: FieldSpec) -> Field:
    if spec.params:
        return FractionField(field_for(FieldSpec(spec.base, spec.p)), spec.params)
    return RationalField() if spec.base == "Q" else PrimeField(spec.p)


# ---------------------------------------------------------------------------
# Scalar wrapper
# ---------------------------------------------------------------------------


class Scalar:
    """A payload tagged with its field; operations check field agreement."""

    __slots__ = ("field", "v")

    def __init__(self, field: Field, v):
        self.field = field
        self.v = v

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(
                    f"{self.field.spec.label()} vs {other.field.spec.label()}"
                )
            return other
        if isinstance(other, int):
            return Scalar(self.field, self.field.from_int(other))
        if isinstance(other, Fraction):
            return Scalar(self.field, self.field.from_fraction(other))
        return NotImplemented

    def _binary(op: str, reflected: bool = False):
        """The operator `self op other` (`other op self` when reflected) over
        the field's method `op`, with `other` coerced into the field."""

        def method(self, other):
            o = self._coerce(other)
            if o is NotImplemented:
                return NotImplemented
            x, y = (o.v, self.v) if reflected else (self.v, o.v)
            return Scalar(self.field, getattr(self.field, op)(x, y))

        return method

    __add__ = __radd__ = _binary("add")
    __sub__ = _binary("sub")
    __rsub__ = _binary("sub", reflected=True)
    __mul__ = __rmul__ = _binary("mul")
    __truediv__ = _binary("div")
    __rtruediv__ = _binary("div", reflected=True)
    del _binary

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.v))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise CoeffError("exponent must be a nonnegative integer")
        return Scalar(self.field, self.field.pow(self.v, k))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.eq(self.v, o.v)

    def __hash__(self):
        raise TypeError("Scalar is not hashable")

    def is_zero(self) -> bool:
        return self.field.is_zero(self.v)

    def __repr__(self):
        return self.field.render(self.v)


def scalar_arith(op: str, x: Scalar, y: Optional[Scalar] = None) -> Scalar:
    """add | sub | mul | neg over two scalars of one FieldSpec."""
    if op == "neg":
        return -x
    if y is None:
        raise CoeffError(f"{op} needs two operands")
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    raise CoeffError(f"unknown op {op!r}")


def scalar_inv(x: Scalar) -> Scalar:
    return Scalar(x.field, x.field.inv(x.v))


def scalar_is_zero(x: Scalar) -> bool:
    return x.is_zero()


def _occurring_params(x: Scalar) -> Tuple[str, ...]:
    f = x.field
    if not isinstance(f, FractionField):
        return ()
    used = set()
    for poly in (x.v,) if x.v.__class__ is dict else (x.v.num, x.v.den):
        for e in poly:
            for i, k in enumerate(e):
                if k:
                    used.add(f.spec.params[i])
    return tuple(p for p in f.spec.params if p in used)


def substitute_params(x: Scalar, bindings: Mapping[str, Union[int, Fraction]]) -> Scalar:
    """Evaluate every parameter of `x`, landing in the parameter-free field."""
    f = x.field
    if not isinstance(f, FractionField):
        return x
    missing = [p for p in _occurring_params(x) if p not in bindings]
    if missing:
        raise UnboundParameterError(f"unbound parameters: {', '.join(missing)}")
    full = {p: Fraction(bindings.get(p, 0)) for p in f.spec.params}
    return Scalar(f.base, f.substitute(x.v, full, f.base))
