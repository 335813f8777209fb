"""Claim verification suite: replay every bundled claim and reconcile it.

Verdict claims (kind ``check``) must reproduce exactly; a mismatch is a FAIL
unless the claim is marked fragile, in which case it becomes a DISCREPANCY
row (a published assertion the direct computation contradicts).  Value claims
are always reconciled as PASS or DISCREPANCY, never FAIL: the independently
expanded oracle value, not the published arithmetic, is ground truth here.

Rows come out in a fixed order (entry order, then claim order within the
file), and rendering is deterministic, so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List

from . import corpus
from .coeff import FractionField
from .identities import CHECKERS, PreconditionError, run_checker
from .io import ClaimSpec, parse_vector_expr, render_vector
from .maps import is_even, is_weak_morphism
from .oracle import oracle_value
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
            return _verdict_word(validate(inst.base).holds)
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


def _expected_vector(doc, claim: ClaimSpec, target_field):
    full = doc.field
    vec = parse_vector_expr(claim.expected, full, doc.basis)
    if isinstance(full, FractionField) and claim.bindings:
        vec = tuple(full.substitute(v, claim.bindings, target_field) for v in vec)
    return vec


def evaluate_claim(entry_id: str, claim: ClaimSpec) -> SuiteRow:
    inst = corpus.build(entry_id, claim.variant, claim.bindings)
    doc = inst.doc
    if claim.kind == "check":
        computed = _evaluate_check(inst, claim)
        if computed == claim.expected:
            status = "PASS"
        else:
            status = "DISCREPANCY" if claim.fragile else "FAIL"
        return SuiteRow(
            status, entry_id, claim.key, claim.kind, claim.target,
            claim.expected, computed, claim.note,
        )

    F = inst.hom.field
    basis = inst.base.basis
    computed_vec = oracle_value(claim.target, inst.hom, claim.where)
    expected_vec = _expected_vector(doc, claim, F)
    equal = all(F.eq(a, b) for a, b in zip(computed_vec, expected_vec))
    computed_str = render_vector(F, basis, computed_vec)
    claimed_str = render_vector(F, basis, expected_vec)
    at = f"({', '.join(claim.where)})"
    if claim.kind == "value":
        status = "PASS" if equal else "DISCREPANCY"
        return SuiteRow(
            status, entry_id, claim.key, claim.kind, f"{claim.target}{at}",
            claimed_str, computed_str, claim.note,
        )
    # nonzero: the published point is that the value does not vanish
    computed_zero = all(F.is_zero(a) for a in computed_vec)
    if computed_zero:
        status = "DISCREPANCY"
        computed_str = "0 (vanishes)"
    else:
        status = "PASS" if equal else "DISCREPANCY"
    return SuiteRow(
        status, entry_id, claim.key, claim.kind, f"{claim.target}{at}",
        f"nonzero, {claimed_str}", computed_str, claim.note,
    )


def run_suite() -> List[SuiteRow]:
    rows: List[SuiteRow] = []
    for entry_id in corpus.ENTRY_IDS:
        for claim in corpus.claims(entry_id):
            rows.append(evaluate_claim(entry_id, claim))
    return rows


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
