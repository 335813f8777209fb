"""Text format for algebra definitions, expression parsing, report text.

Definition files (`.salg`) are sectioned key-value text:

    # comment
    [algebra]
    name = m3-3-1
    field = Q              # or GF(3)
    params = a, b, c
    even = e1, e2, e3
    odd = e4
    twist = alpha1         # optional; identity when absent
    nonzero = a            # repeatable parameter constraints
    zero = r^2 - a^2       # repeatable; must vanish identically/at binding
    suggest = a=2, b=1     # suggested numeric bindings for fast runs

    [product]
    e1*e3 = -e1            # absent pairs multiply to zero; both orders are
    e3*e1 = e1             # stated explicitly, nothing is inferred

    [map alpha1]
    e3 = b*e1 + c*e2 + e3  # image of e3; absent basis elements map to zero

    [claims]
    key = variant ; check ; hom-malcev ; holds ; note: ...

The expression grammar (scalars):

    expr   := term (('+' | '-') term)* ;
    term   := factor (('*' | '/') factor)* ;
    factor := atom ('^' uint)? ;
    atom   := uint | uint '/' uint | identifier | '(' expr ')' | '-' atom ;

Values in [product], [map ...] and value claims extend the same grammar with
basis identifiers, which denote basis vectors; scalars may multiply or divide
vectors, vectors may be added, and nothing else mixes.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coeff import MAX_WORK, CoeffError, Field, FieldSpec, Scalar, field_for
from .report import IdentityReport
from .superalg import Basis, EvenLinearMap, SuperAlgebra


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        self.msg = msg
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {msg}")


# ---------------------------------------------------------------------------
# Expression tokenizer / parser
# ---------------------------------------------------------------------------

# Fixed input caps.  An exponent above MAX_EXPONENT, counting the exponents
# of enclosing powers as factors, is refused, so a power never grows a value
# past what the text could otherwise write; nesting deeper than MAX_DEPTH
# (parentheses and prefix minus signs) is refused before the recursive
# descent could exhaust the stack.  A basis past MAX_BASIS names is refused:
# a check then runs at most 32**4 tuples, enough for O (x) Lambda(2).  An
# operator whose coefficient products could pass MAX_WORK is refused before
# it computes, by the work meter in `coeff`.
MAX_EXPONENT = 1000
MAX_DEPTH = 100
MAX_BASIS = 32


@dataclass
class _Tok:
    kind: str  # "int" | "ident" | the symbol itself | "end"
    text: str
    line: int
    col: int


# A token after blanks: ASCII digits (what int() reads); an identifier, a
# letter or _ then letters, digits or _ (a numeric sign that [^\W\d] takes,
# such as a superscript digit, is refused); a symbol; or anything else, refused.
_TOKEN = re.compile(r"[ \t]*(?:(?P<int>[0-9]+)|(?P<ident>[^\W\d]\w*)|(?P<sym>[-+*/^()])|(?P<other>[^ \t]))")


def _tokenize(text: str, line: int = 1, col0: int = 1) -> List[_Tok]:
    toks: List[_Tok] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok, col = m[kind], col0 + m.start(kind)
        if kind == "other" or kind == "ident" and not (tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"unexpected character {tok[0]!r}", line, col)
        toks.append(_Tok(tok if kind == "sym" else kind, tok, line, col))
    toks.append(_Tok("end", "", line, col0 + len(text)))
    return toks


class _Value:
    """A value during expression evaluation: `v` is a list of payloads, one
    for a scalar and one per basis element for a vector (`vec`); `power` is
    the largest product of nested exponents used to build it."""

    __slots__ = ("vec", "v", "power")

    def __init__(self, v: list, vec: bool, power: int = 1):
        self.v = v
        self.vec = vec
        self.power = power


class _ExprParser:
    def __init__(self, toks: List[_Tok], field: Field, basis: Optional[Basis]):
        self.toks = toks
        self.pos = 0
        self.field = field
        self.basis = basis
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: Optional[_Tok] = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def _int(self, tok: _Tok) -> int:
        try:
            return int(tok.text)
        except ValueError:  # beyond the interpreter's digit limit
            self.fail(f"integer literal of {len(tok.text)} digits is too long", tok)

    def _refuse(self, op: _Tok, work: int):
        if work > MAX_WORK:
            self.fail(f"{op.text!r} would need more than {MAX_WORK} coefficient products", op)

    def _apply(self, op: _Tok, v: _Value, w: _Value) -> _Value:
        """v op w coordinate by coordinate, a scalar standing for every
        coordinate; for '/' the caller has already inverted w.  The work
        meter bounds those same pairs before any of them is computed."""
        F = self.field
        n = max(len(v.v), len(w.v))
        pairs = list(zip(v.v if v.vec else v.v * n, w.v if w.vec else w.v * n))
        if op.kind in "+-":
            fn = F.add if op.kind == "+" else F.sub
            terms = ([(0, x), (0, y)] for x, y in pairs)
        else:
            fn = F.mul
            terms = ([(0, x, y)] for x, y in pairs)
        self._refuse(op, F.sum_work(terms))
        return _Value([fn(x, y) for x, y in pairs], v.vec or w.vec, max(v.power, w.power))

    def parse(self) -> _Value:
        v = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected token {self.peek().text!r}")
        return v

    def expr(self) -> _Value:
        v = self.term()
        while self.peek().kind in "+-":
            op = self.take()
            w = self.term()
            if v.vec != w.vec:
                self.fail("cannot add a scalar and a vector", op)
            v = self._apply(op, v, w)
        return v

    def term(self) -> _Value:
        v = self.factor()
        while self.peek().kind in "*/":
            op = self.take()
            w = self.factor()
            if op.kind == "*" and v.vec and w.vec:
                self.fail("cannot multiply two vectors", op)
            if op.kind == "/":
                if w.vec:
                    self.fail("cannot divide by a vector", op)
                if self.field.is_zero(w.v[0]):
                    self.fail("division by zero", op)
                w = _Value([self.field.inv(w.v[0])], False, w.power)  # no coefficient products
            v = self._apply(op, v, w)
        return v

    def factor(self) -> _Value:
        v = self.atom()
        if self.peek().kind == "^":
            caret = self.take()
            e = self.peek()
            if e.kind != "int":
                self.fail("exponent must be an unsigned integer", caret)
            self.take()
            if v.vec:
                self.fail("cannot raise a vector to a power", caret)
            k = self._int(e)
            power = v.power * k
            if power > MAX_EXPONENT:
                self.fail(f"exponent {power} is above the cap of {MAX_EXPONENT}", e)
            self._refuse(caret, self.field.pow_work(v.v[0], k))
            v = _Value([self.field.pow(v.v[0], k)], False, max(power, 1))
        return v

    def atom(self) -> _Value:
        t = self.peek()
        if t.kind == "int":
            self.take()
            return _Value([self.field.from_int(self._int(t))], False)
        if t.kind == "ident":
            self.take()
            if t.text in self.field.spec.params:  # () over Q and GF(p)
                return _Value([self.field.monomial(t.text)], False)
            if self.basis is not None:
                try:
                    i = self.basis.names.index(t.text)
                except ValueError:
                    self.fail(f"undeclared identifier {t.text!r}", t)
                vec = [self.field.zero] * len(self.basis)
                vec[i] = self.field.one
                return _Value(vec, True)
            self.fail(f"undeclared parameter {t.text!r}", t)
        if t.kind in "(-":
            if self.depth == MAX_DEPTH:
                self.fail(f"expression nested deeper than {MAX_DEPTH} levels", t)
            self.depth += 1
            self.take()
            if t.kind == "(":
                v = self.expr()
                if self.peek().kind != ")":
                    self.fail("expected ')'")
                self.take()
            else:
                v = self.atom()
                v = _Value([self.field.neg(a) for a in v.v], v.vec, v.power)
            self.depth -= 1
            return v
        self.fail(f"expected a value, found {t.text or 'end of input'!r}", t)


def parse_expression(text: str, field: Field, *, line: int = 1, col0: int = 1) -> Scalar:
    """Parse a scalar expression over the field's parameters."""
    p = _ExprParser(_tokenize(text, line, col0), field, None)
    v = p.parse()
    return Scalar(field, v.v[0])


def parse_vector_expr(
    text: str, field: Field, basis: Basis, *, line: int = 1, col0: int = 1
) -> Tuple[object, ...]:
    """Parse a linear-combination expression; returns a payload vector."""
    p = _ExprParser(_tokenize(text, line, col0), field, basis)
    v = p.parse()
    if not v.vec:
        if field.is_zero(v.v[0]):
            return tuple(field.zero for _ in range(len(basis)))
        raise ParseError("expected a vector-valued expression", line, col0)
    return tuple(v.v)


# ---------------------------------------------------------------------------
# Rendering (canonical; parses back to the same values)
# ---------------------------------------------------------------------------


def render_vector(field: Field, basis: Basis, vec: Sequence[object]) -> str:
    parts: List[str] = []
    for name, v in zip(basis.names, vec):
        if field.is_zero(v):
            continue
        s = field.render(v)
        neg = s.startswith("-")
        mag = field.render(field.neg(v)) if neg else s
        if mag.startswith("-") or any(" + " in t or " - " in t for t in (s, mag)):
            # a composite coefficient, or a sign that does not split off,
            # stays intact inside parentheses
            parts.append(f"({s})*{name}" if not parts else f" + ({s})*{name}")
            continue
        body = name if mag == "1" else f"{mag}*{name}"
        if not parts:
            if not neg:
                parts.append(body)
            elif "^" in body.split("*", 1)[0]:
                # "-x^2*..." would bind the minus to the first atom before
                # the power; an explicit -1* keeps the value intact
                parts.append(f"-1*{body}")
            else:
                parts.append(f"-{body}")
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Algebra documents
# ---------------------------------------------------------------------------


@dataclass
class ClaimSpec:
    key: str
    variant: str
    kind: str  # "check" | "value" | "nonzero"
    target: str  # checker name, pseudo-check, or value form
    where: Tuple[str, ...]  # basis tuple for value/nonzero claims
    expected: str  # "holds"/"fails" or a canonical vector expression
    bindings: Dict[str, Fraction]
    fragile: bool
    note: str


@dataclass
class AlgebraDocument:
    """A parsed `.salg` document.  `table[i][j]` is the payload vector of
    e_i*e_j over the basis `even + odd`, the zero vector where the document
    states no product: the dense table that `SuperAlgebra` stores."""

    name: str
    field: Field
    even: Tuple[str, ...]
    odd: Tuple[str, ...]
    table: Sequence[Sequence[Tuple[object, ...]]]
    maps: Dict[str, EvenLinearMap]
    twist: Optional[str]
    claims: Tuple[ClaimSpec, ...]
    nonzero: Tuple[str, ...] = ()
    zero: Tuple[str, ...] = ()
    suggest: Dict[str, Fraction] = dc_field(default_factory=dict)

    @property
    def basis(self) -> Basis:
        names = self.even + self.odd
        parities = (0,) * len(self.even) + (1,) * len(self.odd)
        return Basis(names, parities)

    def algebra(self) -> SuperAlgebra:
        return SuperAlgebra(self.basis, self.field, self.table)

    def __eq__(self, other):
        if not isinstance(other, AlgebraDocument):
            return NotImplemented
        if (
            self.name != other.name
            or self.field.spec != other.field.spec
            or self.even != other.even
            or self.odd != other.odd
            or self.twist != other.twist
            or self.claims != other.claims
            or self.nonzero != other.nonzero
            or self.zero != other.zero
            or self.suggest != other.suggest
            or set(self.maps) != set(other.maps)
        ):
            return False
        # the same basis, so the tables and map columns align cell by cell
        cells = [zip(ra, rb) for ra, rb in zip(self.table, other.table)]
        cells += [zip(self.maps[m].cols, other.maps[m].cols) for m in self.maps]
        F = self.field
        return all(F.eq(x, y) for pairs in cells for u, v in pairs for x, y in zip(u, v))


def _split_at(s: str, sep: str, col: int) -> List[Tuple[str, int]]:
    """The stripped pieces of `s` between separators, each with the column
    it starts at; `col` is the column of s[0]."""
    out = []
    for raw in s.split(sep):
        out.append((raw.strip(), col + len(raw) - len(raw.lstrip())))
        col += len(raw) + 1
    return out


def parse_binding(item: str, line: int, col: int, into: Dict[str, Fraction]) -> None:
    """One `name=value` binding, split at its first `=`, stored in `into`
    under the stripped name; `col` is the column of item[0].  A missing `=`,
    an empty name or a name `into` already holds is a ParseError at the
    binding, a bad value or one whose numerator or denominator would pass
    the interpreter's digit limit (as `_int` does) one at the value."""
    name, eq, val = item.partition("=")
    if not eq:
        raise ParseError(f"binding {item!r} must look like name=value", line, col)
    if not name.strip():
        raise ParseError(f"binding {item!r} has an empty parameter name", line, col)
    if name.strip() in into:
        raise ParseError(f"binding {item.strip()!r} repeats parameter {name.strip()!r}", line, col)
    val_col = col + len(name) + 1 + len(val) - len(val.lstrip())
    val = val.strip()
    # Fraction(val) computes 10**exponent first.  An exponent past
    # limit + len(val) alone puts the numerator or the denominator past the
    # limit, unless the mantissa is 0; int() also reads a space-padded
    # exponent, which Fraction refuses.
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    mant, e, exp = val.lower().partition("e")
    try:
        huge = bool(e) and exp == exp.lstrip() and abs(int(exp)) > limit + len(val)
        q = Fraction(mant + "e0" if huge else val)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad numeric value {val!r}", line, val_col) from None
    if (huge and q) or max(abs(q.numerator), q.denominator) >= 10**limit:
        raise ParseError(f"numeric value {val!r} has more than {limit} digits", line, val_col)
    into[name.strip()] = q


def _parse_bindings(s: str, line: int, col: int) -> Dict[str, Fraction]:
    """Comma-separated name=value items; `col` is the column of s[0]."""
    out: Dict[str, Fraction] = {}
    for item, item_col in _split_at(s, ",", col):
        if item:
            parse_binding(item, line, item_col, out)
    return out


def _parse_claim(
    key: str, body: str, line: int, field: Field, basis: Basis, col: int
) -> ClaimSpec:
    # everything from "note:" onward is one free-text locator segment
    note = ""
    if "note:" in body:
        body, _, tail = body.partition("note:")
        note = tail.strip()
        body = body.rstrip().rstrip(";")
    segs = _split_at(body, ";", col)
    if len(segs) < 2:
        raise ParseError("claim needs at least 'variant ; kind ; ...'", line, segs[0][1])
    (variant, _), (kind, kind_col) = segs[:2]
    bindings: Dict[str, Fraction] = {}
    fragile = False
    core: List[Tuple[str, int]] = []
    for seg, seg_col in segs[2:]:
        if seg.startswith("set "):
            bindings = _parse_bindings(seg[4:], line, seg_col + 4)
        elif seg == "fragile":
            fragile = True
        else:
            core.append((seg, seg_col))
    # a misshapen claim is reported at its first surplus segment, else at
    # the segment that is wrong, else at its kind
    if kind == "check":
        if len(core) != 2 or core[1][0] not in ("holds", "fails"):
            at = core[min(len(core), 3) - 1][1] if len(core) >= 2 else kind_col
            raise ParseError("check claim needs 'checker ; holds|fails'", line, at)
        (target, _), (expected, _) = core
        where: Tuple[str, ...] = ()
    elif kind in ("value", "nonzero"):
        if len(core) != 3:
            at = core[3][1] if len(core) > 3 else kind_col
            raise ParseError("value claim needs 'form ; tuple ; expression'", line, at)
        (target, _), (names, names_col), (expr, expr_col) = core
        named = [(nm, c) for nm, c in _split_at(names, ",", names_col) if nm]
        for nm, nm_col in named:
            if nm not in basis.names:
                raise ParseError(f"unknown basis element {nm!r} in claim", line, nm_col)
        where = tuple(nm for nm, _ in named)
        vec = parse_vector_expr(expr, field, basis, line=line, col0=expr_col)
        expected = render_vector(field, basis, vec)
    else:
        raise ParseError(f"unknown claim kind {kind!r}", line, kind_col)
    return ClaimSpec(key, variant, kind, target, where, expected, bindings, fragile, note)


def decode_document(data: bytes) -> str:
    """The text of a .salg file; a byte sequence that is not UTF-8 is a
    ParseError at its line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        col = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(f"file is not valid UTF-8 ({exc.reason})", line, col) from None


def parse_algebra_file(text: str) -> AlgebraDocument:
    """Parse and validate a .salg document."""
    section = None
    map_name = None
    algebra_kv: Dict[str, Tuple[str, int, int]] = {}  # key -> (value, line, col)
    # constraint expressions: (value, line, column of the value)
    nonzero: List[Tuple[str, int, int]] = []
    zero: List[Tuple[str, int, int]] = []
    # (key, value, line, column of the value, column of the key)
    product_lines: List[Tuple[str, str, int, int, int]] = []
    map_lines: Dict[str, List[Tuple[str, str, int, int, int]]] = {}
    claim_lines: List[Tuple[str, str, int, int, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno, len(line))
            header = stripped[1:-1].strip()
            if header == "algebra" or header == "product" or header == "claims":
                section, map_name = header, None
            elif header.startswith("map "):
                map_name = header[4:].strip()
                if not map_name.isidentifier():
                    raise ParseError(f"bad map name {map_name!r}", lineno, 1)
                if map_name == "base":  # the variant name of the stated table
                    raise ParseError("map name 'base' is reserved for the stated table", lineno, 1)
                if map_name in map_lines:
                    raise ParseError(f"duplicate map {map_name!r}", lineno, 1)
                map_lines[map_name] = []
                section = "map"
            else:
                raise ParseError(f"unknown section {header!r}", lineno, 1)
            continue
        if section is None:
            raise ParseError("content before any section header", lineno, 1)
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, 1)
        key, _, value = line.partition("=")
        col = len(key) + 2 + len(value) - len(value.lstrip())
        key_col = len(key) - len(key.lstrip()) + 1
        key = key.strip()
        value = value.strip()
        if section == "algebra":
            if key == "nonzero":
                nonzero.append((value, lineno, col))
            elif key == "zero":
                zero.append((value, lineno, col))
            else:
                if key in algebra_kv:
                    raise ParseError(f"duplicate key {key!r}", lineno, 1)
                algebra_kv[key] = (value, lineno, col)
        elif section == "product":
            product_lines.append((key, value, lineno, col, key_col))
        elif section == "map":
            map_lines[map_name].append((key, value, lineno, col, key_col))
        else:
            claim_lines.append((key, value, lineno, col, key_col))

    def need(key: str) -> Tuple[str, int]:
        if key not in algebra_kv:
            raise ParseError(f"[algebra] section is missing {key!r}", 1, 1)
        return algebra_kv[key][:2]

    def declared(key: str) -> List[Tuple[str, int, int]]:
        """The names listed under `key`, each with its line and column; a
        name that `_tokenize` does not read as one identifier is refused there."""
        value, line, col = algebra_kv.get(key, ("", 1, 1))
        named = [(nm, line, c) for nm, c in _split_at(value, ",", col) if nm]
        for nm, _, c in named:
            try:
                if [t.kind for t in _tokenize(nm)] == ["ident", "end"]:
                    continue
            except ParseError:
                pass
            raise ParseError(f"{key} name {nm!r} is not an identifier", line, c)
        return named

    name = need("name")[0]
    field_str, field_line = need("field")
    params_at = declared("params")
    params = tuple(at[0] for at in params_at)
    for k, (nm, line, c) in enumerate(params_at):
        if nm in params[:k]:  # here, not in FieldSpec, so that the error points at the repeat
            raise ParseError("duplicate parameter names", line, c)
    try:
        if field_str == "Q":
            spec = FieldSpec("Q", None, params)
        elif field_str.startswith("GF(") and field_str.endswith(")"):
            try:
                p = int(field_str[3:-1])
            except ValueError:
                raise ParseError(f"bad field {field_str!r}", field_line, 1) from None
            spec = FieldSpec("GF", p, params)
        else:
            raise ParseError(f"bad field {field_str!r}", field_line, 1)
    except CoeffError as exc:
        raise ParseError(str(exc), field_line, 1) from None
    field = field_for(spec)

    even_at, odd_at = declared("even"), declared("odd")
    basis_at = even_at + odd_at
    even, odd = tuple(at[0] for at in even_at), tuple(at[0] for at in odd_at)
    if not basis_at:
        raise ParseError("empty basis", 1, 1)
    if len(basis_at) > MAX_BASIS:
        raise ParseError(f"basis of {len(basis_at)} names is above the cap of {MAX_BASIS}",
                         *basis_at[MAX_BASIS][1:])
    names = even + odd
    overlap, clash = set(even) & set(odd), set(names) & set(params)
    # each error points at the first odd, basis or repeated name that makes it
    for msg, places in (
        (f"basis element in both parities: {sorted(overlap)}",
         [at for at in odd_at if at[0] in overlap]),
        (f"name used as both parameter and basis: {sorted(clash)}",
         [at for at in basis_at if at[0] in clash]),
        ("duplicate basis names", [at for k, at in enumerate(basis_at) if at[0] in names[:k]]),
    ):
        if places:
            raise ParseError(msg, places[0][1], places[0][2])
    basis = Basis(names, (0,) * len(even) + (1,) * len(odd))

    unstated = (field.zero,) * len(names)
    table = [[unstated] * len(names) for _ in names]
    for key, value, lineno, col, key_col in product_lines:
        toks, kinds = _tokenize(key, lineno, key_col), ["ident", "*", "ident", "end"]
        for t, kind in zip(toks, kinds):
            if t.kind != kind:
                raise ParseError("product key must be 'ei*ej'", lineno, t.col)
        for t in (toks[0], toks[2]):
            if t.text not in basis.names:
                raise ParseError(f"undeclared basis name {t.text!r}", lineno, t.col)
        a, b = toks[0].text, toks[2].text
        i, j = basis.names.index(a), basis.names.index(b)
        if table[i][j] is not unstated:  # each parsed value is a new tuple
            raise ParseError(f"duplicate product {a}*{b}", lineno, key_col)
        vec = table[i][j] = parse_vector_expr(value, field, basis, line=lineno, col0=col)
        want = (basis.parities[i] + basis.parities[j]) % 2
        for nm, par, component in zip(basis.names, basis.parities, vec):
            if par != want and not field.is_zero(component):
                raise ParseError(
                    f"parity-inconsistent product {a}*{b}: component {nm} "
                    f"has parity {par}, expected {want}",
                    lineno,
                    1,
                )

    maps: Dict[str, EvenLinearMap] = {}
    for mname, lines in map_lines.items():
        cols = dict.fromkeys(basis.names, unstated)
        for key, value, lineno, col, key_col in lines:
            if key not in basis.names:
                raise ParseError(f"undeclared basis name {key!r}", lineno, key_col)
            if cols[key] is not unstated:  # each parsed value is a new tuple
                raise ParseError(f"duplicate image of {key} in map {mname!r}", lineno, key_col)
            cols[key] = parse_vector_expr(value, field, basis, line=lineno, col0=col)
        maps[mname] = EvenLinearMap(field, [cols[n] for n in basis.names])

    twist = algebra_kv.get("twist", (None,))[0]
    if twist is not None and twist not in maps:
        raise ParseError(f"twist map {twist!r} is not defined", algebra_kv["twist"][1], 1)

    suggest = (
        _parse_bindings(*algebra_kv["suggest"]) if "suggest" in algebra_kv else {}
    )

    claims = tuple(
        _parse_claim(key, value, lineno, field, basis, col)
        for key, value, lineno, col, _ in claim_lines
    )
    seen = set()
    for c, (_, _, lineno, _, key_col) in zip(claims, claim_lines):
        if c.key in seen:
            raise ParseError(f"duplicate claim key {c.key!r}", lineno, key_col)
        seen.add(c.key)

    # constraint expressions must parse
    for expr, lineno, col in nonzero + zero:
        parse_expression(expr, field, line=lineno, col0=col)

    return AlgebraDocument(
        name, field, even, odd, tuple(map(tuple, table)), maps, twist, claims,
        tuple(e for e, _, _ in nonzero), tuple(e for e, _, _ in zero), suggest,
    )


def serialize_algebra_document(doc: AlgebraDocument) -> str:
    out: List[str] = ["[algebra]"]
    out.append(f"name = {doc.name}")
    out.append(f"field = {doc.field.spec.base_label()}")
    if doc.field.spec.params:
        out.append(f"params = {', '.join(doc.field.spec.params)}")
    if doc.even:
        out.append(f"even = {', '.join(doc.even)}")
    if doc.odd:
        out.append(f"odd = {', '.join(doc.odd)}")
    if doc.twist:
        out.append(f"twist = {doc.twist}")
    for expr in doc.nonzero:
        out.append(f"nonzero = {expr}")
    for expr in doc.zero:
        out.append(f"zero = {expr}")
    if doc.suggest:
        pairs = ", ".join(f"{k}={v}" for k, v in doc.suggest.items())
        out.append(f"suggest = {pairs}")
    basis = doc.basis
    out.append("")
    out.append("[product]")
    for a, row in zip(basis.names, doc.table):
        for b, vec in zip(basis.names, row):
            if not all(doc.field.is_zero(x) for x in vec):
                out.append(f"{a}*{b} = {render_vector(doc.field, basis, vec)}")
    for mname in doc.maps:
        out.append("")
        out.append(f"[map {mname}]")
        for name, col in zip(basis.names, doc.maps[mname].cols):
            out.append(f"{name} = {render_vector(doc.field, basis, col)}")
    if doc.claims:
        out.append("")
        out.append("[claims]")
        for c in doc.claims:
            segs = [c.variant, c.kind]
            if c.kind == "check":
                segs += [c.target, c.expected]
            else:
                segs += [c.target, ", ".join(c.where), c.expected]
            if c.bindings:
                segs.append(
                    "set " + ", ".join(f"{k}={v}" for k, v in c.bindings.items())
                )
            if c.fragile:
                segs.append("fragile")
            if c.note:
                segs.append(f"note: {c.note}")
            out.append(f"{c.key} = {' ; '.join(segs)}")
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Report text
# ---------------------------------------------------------------------------


def serialize_report(r: IdentityReport, field: Field, basis: Basis) -> str:
    """Deterministic JSON-shaped single-line report."""
    payload = {
        "identity": r.identity,
        "holds": r.holds,
        "tuples_checked": r.tuples_checked,
        "counterexamples": [
            {
                "tuple": list(names),
                "residual": render_vector(field, basis, [s.v for s in res]),
            }
            for names, res in r.counterexamples
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


def parse_report(text: str, field: Field, basis: Basis) -> IdentityReport:
    data = json.loads(text)
    ces = []
    for entry in data["counterexamples"]:
        vec = parse_vector_expr(entry["residual"], field, basis)
        ces.append((tuple(entry["tuple"]), tuple(Scalar(field, v) for v in vec)))
    return IdentityReport(
        data["identity"], data["holds"], tuple(ces), data["tuples_checked"]
    )
