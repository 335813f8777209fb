"""Claim verification suite: replay every bundled claim and reconcile it.

Verdict claims (kind ``check``) must reproduce exactly; a mismatch is a FAIL
unless the claim is marked fragile, in which case it becomes a DISCREPANCY
row (a published assertion the direct computation contradicts).  Value claims
are always reconciled as PASS or DISCREPANCY, never FAIL: the checker route's
value (`identities.form_value`), which the tests witness against the oracle's
independent expansion, not the published arithmetic, is ground truth here.

Rows come out in a fixed order (entry order, then claim order within the
file), and rendering is deterministic, so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List

from . import corpus
from .identities import CHECKERS, PreconditionError, form_value, run_checker
from .io import AlgebraDocument, ClaimSpec, parse_vector_expr, render_vector
from .maps import is_even, is_weak_morphism
from .superalg import validate

PSEUDO_CHECKS = ("weak-endo", "even", "grading")


@dataclass
class SuiteRow:
    status: str  # PASS | FAIL | DISCREPANCY
    entry: str
    key: str
    kind: str
    target: str
    claimed: str
    computed: str
    note: str

    def line(self) -> str:
        where = f"{self.entry}/{self.key}"
        body = f"{self.target}: claimed {self.claimed}, computed {self.computed}"
        note = f"  [{self.note}]" if self.note else ""
        return f"{self.status:<11} {where:<38} {body}{note}"


def _verdict_word(holds: bool) -> str:
    return "holds" if holds else "fails"


def _evaluate_check(inst: corpus.BuiltInstance, claim: ClaimSpec) -> str:
    if claim.target in PSEUDO_CHECKS:
        if claim.target == "grading":
            return _verdict_word(validate(inst.hom.algebra).holds)
        beta = inst.map_used
        if beta is None:
            raise corpus.CorpusError(
                f"{claim.key}: pseudo-check {claim.target} needs a map variant"
            )
        if claim.target == "weak-endo":
            return _verdict_word(is_weak_morphism(inst.base, inst.base, beta).holds)
        return _verdict_word(is_even(beta, inst.base.basis).holds)
    if claim.target not in CHECKERS:
        raise corpus.CorpusError(f"{claim.key}: unknown checker {claim.target!r}")
    try:
        return _verdict_word(run_checker(claim.target, inst.hom).holds)
    except PreconditionError as exc:
        return f"error ({exc.requirement} required)"


def evaluate_claim(doc: AlgebraDocument, claim: ClaimSpec) -> SuiteRow:
    inst = corpus.build_from_document(doc, claim.variant, claim.bindings, entry_id=doc.name)
    if claim.kind == "check":
        target, claimed, computed = claim.target, claim.expected, _evaluate_check(inst, claim)
        if computed == claim.expected:
            status = "PASS"
        else:
            status = "DISCREPANCY" if claim.fragile else "FAIL"
    else:
        F = inst.hom.field
        basis = inst.base.basis
        computed_vec = [s.v for s in form_value(claim.target, inst.hom, claim.where)]
        expected_vec = tuple(map(inst.bind, parse_vector_expr(claim.expected, doc.field, doc.basis)))
        equal = all(F.eq(a, b) for a, b in zip(computed_vec, expected_vec))
        status = "PASS" if equal else "DISCREPANCY"
        target = f"{claim.target}({', '.join(claim.where)})"
        claimed = render_vector(F, basis, expected_vec)
        computed = render_vector(F, basis, computed_vec)
        if claim.kind == "nonzero":  # the published point is that the value does not vanish
            claimed = f"nonzero, {claimed}"
            if all(F.is_zero(a) for a in computed_vec):
                status, computed = "DISCREPANCY", "0 (vanishes)"
    return SuiteRow(status, doc.name, claim.key, claim.kind, target, claimed, computed, claim.note)


def run_suite() -> List[SuiteRow]:
    docs = map(corpus.load_document, corpus.ENTRY_IDS)
    return [evaluate_claim(doc, claim) for doc in docs for claim in doc.claims]


def render_rows(rows: List[SuiteRow], as_json: bool = False) -> str:
    if as_json:  # the fields in order, `key` named `claim`
        payload = [{"claim" if k == "key" else k: v for k, v in asdict(r).items()} for r in rows]
        return json.dumps(payload, indent=2)
    lines = [r.line() for r in rows]
    n_pass = sum(r.status == "PASS" for r in rows)
    n_disc = sum(r.status == "DISCREPANCY" for r in rows)
    n_fail = sum(r.status == "FAIL" for r in rows)
    lines.append("")
    lines.append(
        f"{len(rows)} claims: {n_pass} reproduced, {n_disc} discrepancies, {n_fail} failures"
    )
    return "\n".join(lines)


def exit_code(rows: List[SuiteRow]) -> int:
    return 1 if any(r.status == "FAIL" for r in rows) else 0
