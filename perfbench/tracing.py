"""The traced run: spans and counts at layer boundaries, from outside the
package.

Nothing under `src/` is edited.  The tracer wraps public entry points for
the duration of one batch and restores them afterwards:

  * `identities.run_checker`                  -> span "check"
  * `identities.is_super_skewsymmetric` and
    `identities.is_super_commutative`          -> span "precondition"
  * `CHECKERS[name].make`                      -> span "ctx_build"; the time
                                                 from its return to the end of
                                                 the check is span "enumerate",
                                                 and the residual it returns is
                                                 wrapped to count tuples
  * `identities.commutator_algebra` and
    `identities.plus_algebra`                  -> span "derived"
  * `oracle.oracle_verdict`                    -> span "oracle"

The benchmark itself opens a "workload" span, one "op" span per (instance,
checker) and a "verify" span around the correctness checks.  Spans stay in memory and are written out when the
run ends.  Field operations are counted in a separate pass (`FieldCounter`),
because a wrapper on every scalar operation would distort the span times.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

from homsuper import identities, oracle
from homsuper.coeff import FractionField, PrimeField, RationalField


class Tracer:
    """In-memory spans: (id, parent id, name, start, end, attributes)."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._check_span: Optional[dict] = None
        self._enum_start: Optional[float] = None

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    # -- installation

    @contextmanager
    def installed(self):
        saved_mod = {
            (identities, "run_checker"): identities.run_checker,
            (identities, "is_super_skewsymmetric"): identities.is_super_skewsymmetric,
            (identities, "is_super_commutative"): identities.is_super_commutative,
            (identities, "commutator_algebra"): identities.commutator_algebra,
            (identities, "plus_algebra"): identities.plus_algebra,
            (oracle, "oracle_verdict"): oracle.oracle_verdict,
        }
        saved_checkers = dict(identities.CHECKERS)
        try:
            identities.run_checker = self._check(identities.run_checker)
            for fn in ("is_super_skewsymmetric", "is_super_commutative"):
                setattr(identities, fn, self._wrap(getattr(identities, fn), "precondition"))
            for fn in ("commutator_algebra", "plus_algebra"):
                setattr(identities, fn, self._wrap(getattr(identities, fn), "derived"))
            oracle.oracle_verdict = self._oracle(oracle.oracle_verdict)
            for name, chk in saved_checkers.items():
                identities.CHECKERS[name] = dataclasses.replace(chk, make=self._make(name, chk.make))
            yield self
        finally:
            for (mod, attr), fn in saved_mod.items():
                setattr(mod, attr, fn)
            identities.CHECKERS.update(saved_checkers)

    def _check(self, run_checker):
        def wrapper(name, H, *args, **kwargs):
            span = self.open("check", checker=name, tuples=0)
            self._check_span, self._enum_start = span, None
            try:
                return run_checker(name, H, *args, **kwargs)
            finally:
                if self._enum_start is not None:
                    self.spans.append({
                        "id": len(self.spans), "parent": span["id"], "name": "enumerate",
                        "start": self._enum_start, "end": time.perf_counter(), "checker": name,
                    })
                self._check_span, self._enum_start = None, None
                self.close(span)
        return wrapper

    def _oracle(self, oracle_verdict):
        def wrapper(name, H):
            with self.span("oracle", checker=name) as span:
                holds, first = oracle_verdict(name, H)
            # the oracle walks tuples in lexicographic order up to the first
            # failing one
            n = H.algebra.dim
            if holds:
                span["tuples"] = n ** identities.CHECKERS[name].arity
            else:
                index = 0
                for x in first:
                    index = index * n + H.algebra.basis.names.index(x)
                span["tuples"] = index + 1
            return holds, first
        return wrapper

    def _make(self, name, make):
        def wrapper(H):
            with self.span("ctx_build", checker=name):
                ctx, res_fn = make(H)
            span = self._check_span
            if span is None:  # a residual outside a check (verification)
                return ctx, res_fn

            def counted(ctx_, idx):
                span["tuples"] += 1
                return res_fn(ctx_, idx)

            self._enum_start = time.perf_counter()
            return ctx, counted
        return wrapper

    # -- reading

    def self_times(self) -> Dict[int, float]:
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in self.spans}

    def under(self, root: dict) -> List[dict]:
        """Spans that descend from `root` (spans are appended in start order)."""
        inside = {root["id"]}
        out = []
        for s in self.spans[root["id"] + 1:]:
            if s["parent"] in inside:
                inside.add(s["id"])
                out.append(s)
        return out


# ---------------------------------------------------------------------------
# Field operation counts
# ---------------------------------------------------------------------------

COUNTED_METHODS = ("add", "sub", "mul", "neg", "inv", "div", "is_zero", "eq", "from_int")


def field_kind(F) -> str:
    if isinstance(F, FractionField):
        return "Frac"
    if isinstance(F, PrimeField):
        return "GF"
    if isinstance(F, RationalField):
        return "Q"
    raise TypeError(type(F).__name__)


class FieldCounter:
    """Counts calls to `Field` methods on the given field objects.

    Each method is shadowed by an instance attribute, which the evaluation
    loops pick up because they look methods up on the field object.  Only
    outermost calls count: the polynomial arithmetic a fraction-field
    operation does on its base field is part of that one operation.
    """

    def __init__(self, fields):
        self.fields = []
        for F in fields:
            for G in (F, getattr(F, "base", None)):
                if G is not None and all(G is not H for H in self.fields):
                    self.fields.append(G)
        self.counts: Dict[str, Counter] = {k: Counter() for k in ("Q", "GF", "Frac")}
        self.checker_ops = 0  # the part of the counts made inside run_checker
        self._inside = [False]

    def total(self) -> int:
        return sum(sum(c.values()) for c in self.counts.values())

    @contextmanager
    def installed(self):
        run_checker = identities.run_checker

        def counted_run(*args, **kwargs):
            before = self.total()
            try:
                return run_checker(*args, **kwargs)
            finally:
                self.checker_ops += self.total() - before

        try:
            identities.run_checker = counted_run
            for F in self.fields:
                kind = field_kind(F)
                for meth in COUNTED_METHODS:
                    setattr(F, meth, self._counting(self.counts[kind], meth, getattr(F, meth), kind == "Frac"))
            yield self
        finally:
            identities.run_checker = run_checker
            for F in self.fields:
                for meth in COUNTED_METHODS:
                    F.__dict__.pop(meth, None)

    def _counting(self, counter, meth, bound, nests):
        inside = self._inside
        if not nests:
            def plain(*args):
                if not inside[0]:
                    counter[meth] += 1
                return bound(*args)
            return plain

        def outer(*args):
            if inside[0]:
                return bound(*args)
            counter[meth] += 1
            inside[0] = True
            try:
                return bound(*args)
            finally:
                inside[0] = False
        return outer


# ---------------------------------------------------------------------------
# Time per field operation
# ---------------------------------------------------------------------------

TIMED_OPS = ("add", "mul", "is_zero", "eq")


def operand_pool(instances) -> Dict[str, tuple]:
    """kind -> (field, nonzero structure constants and map entries)."""
    pools: Dict[str, tuple] = {}
    for H in instances:
        F = H.algebra.field
        entries = [x for row in H.algebra.table for vec in row for x in vec]
        entries += [x for col in H.alpha.cols for x in col]
        got = pools.setdefault(field_kind(F), (F, []))
        if got[0] is F:
            got[1].extend(x for x in entries if not F.is_zero(x))
    return pools


def op_ns(F, operands, rng, pairs: int = 1000, repeats: int = 5) -> Dict[str, float]:
    """Median over `repeats` of the mean time per call, on seeded operand
    pairs drawn from `operands`."""
    xs = [(rng.choice(operands), rng.choice(operands)) for _ in range(pairs)]
    out = {}
    clock = time.perf_counter
    for op in TIMED_OPS:
        fn = getattr(F, op)
        samples = []
        for _ in range(repeats):
            if op == "is_zero":
                t0 = clock()
                for x, _ in xs:
                    fn(x)
            else:
                t0 = clock()
                for x, y in xs:
                    fn(x, y)
            samples.append((clock() - t0) / pairs * 1e9)
        samples.sort()
        out[op] = samples[len(samples) // 2]
    return out
