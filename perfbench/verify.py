"""Correctness verifiers, run outside the timed region.

Each verifier returns the set of operation indices (positions in
`inputs.ops`) whose output it rejects, with a reason for each.  The checks
use computations made apart from the checker run under test: the oracle's
independent expansion, the paper's theorems, the published claims, and the
checker at a different field (a numeric specialisation of a symbolic run).
Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from homsuper import corpus, identities, oracle
from homsuper.coeff import CoeffError, Scalar, substitute_params

from workloads import Inputs, Outcome

Rejects = Dict[int, str]

# requirement of a checker -> the pairwise checker that decides it
REQUIREMENT_CHECKER = {"skew": "superskew", "commutative": "supercommutative"}

# Theorems of the paper: a multiplicative Hom-alternative superalgebra is
# Hom-Malcev-admissible and Hom-Jordan-admissible, its minus-bracket Jacobian
# is six times the associator, and its Bruck-Kleinfeld function is
# super-alternating with F = 3f = f(Id - rho + rho^2).
THEOREM_HYPOTHESES = ("alternative", "multiplicative")
THEOREM_CONSEQUENCES = ("malcev-admissible", "jordan-admissible", "j-eq-6as", "bk-suite")

# value-claim form -> the checker whose residual is that form
VALUE_FORM_CHECKER = {"jordan": "hom-jordan", "J": "hom-lie", "leftalt": "left-alt"}


def verify(inputs: Inputs, outcomes: List[Outcome]) -> Rejects:
    rejects: Rejects = {}
    for k, out in enumerate(outcomes):
        if out.kind == "error":
            rejects[k] = out.error
        elif out.kind == "verdict" and out.report.holds == bool(out.report.counterexamples):
            rejects[k] = "holds disagrees with the counterexample list"
        elif out.kind == "verdict" and len(out.report.counterexamples) > inputs.cap:
            rejects[k] = "more counterexamples than the cap"
        elif out.kind == "verdict" and any(all(x.is_zero() for x in residual)
                                           for _, residual in out.report.counterexamples):
            rejects[k] = "a reported counterexample has a zero residual"
    checks = {
        "corpus-numeric": (_preconditions, _oracle_agrees, _theorems, _claims),
        "corpus-symbolic": (_preconditions, _specialises, _claims),
        "random-crosscheck": (_preconditions, _routes_agree),
    }[inputs.workload]
    for check in checks:
        for k, why in check(inputs, outcomes).items():
            rejects.setdefault(k, why)
    return rejects


def _by_case(inputs: Inputs, outcomes: List[Outcome]):
    table: Dict[int, Dict[str, Tuple[int, Outcome]]] = {}
    for k, ((ci, name), out) in enumerate(zip(inputs.ops, outcomes)):
        table.setdefault(ci, {})[name] = (k, out)
    return table


def _verdict_word(out: Outcome) -> Optional[str]:
    if out.kind != "verdict":
        return None
    return "holds" if out.report.holds else "fails"


def _preconditions(inputs: Inputs, outcomes: List[Outcome]) -> Rejects:
    """A checker refuses an instance exactly when the oracle finds its
    standing requirement false on that instance."""
    rejects: Rejects = {}
    memo: Dict[Tuple[int, str], bool] = {}
    for k, ((ci, name), out) in enumerate(zip(inputs.ops, outcomes)):
        req = identities.CHECKERS[name].requires
        if not req or out.kind == "error":
            continue
        key = (ci, req)
        if key not in memo:
            memo[key] = oracle.oracle_verdict(REQUIREMENT_CHECKER[req], inputs.cases[ci].hom)[0]
        if memo[key] != (out.kind == "verdict"):
            rejects[k] = f"precondition {req}: oracle says {memo[key]}, run gave {out.kind}"
    return rejects


def _oracle_agrees(inputs: Inputs, outcomes: List[Outcome]) -> Rejects:
    rejects: Rejects = {}
    for k, ((ci, name), out) in enumerate(zip(inputs.ops, outcomes)):
        if out.kind != "verdict":
            continue
        holds, first = oracle.oracle_verdict(name, inputs.cases[ci].hom)
        why = _disagreement(out.report, holds, first)
        if why:
            rejects[k] = why
    return rejects


def _routes_agree(inputs: Inputs, outcomes: List[Outcome]) -> Rejects:
    rejects: Rejects = {}
    for k, out in enumerate(outcomes):
        if out.kind == "verdict":
            why = _disagreement(out.report, *out.oracle)
            if why:
                rejects[k] = why
    return rejects


def _disagreement(report, holds: bool, first) -> str:
    if report.holds != holds:
        return f"checker says holds={report.holds}, oracle says holds={holds}"
    if not holds and report.counterexamples[0][0] != first:
        return f"first failing tuple {report.counterexamples[0][0]} vs oracle {first}"
    return ""


def _theorems(inputs: Inputs, outcomes: List[Outcome]) -> Rejects:
    rejects: Rejects = {}
    for ci, ran in _by_case(inputs, outcomes).items():
        if not all(h in ran and _verdict_word(ran[h][1]) == "holds" for h in THEOREM_HYPOTHESES):
            continue
        for name in THEOREM_CONSEQUENCES:
            if name in ran and _verdict_word(ran[name][1]) != "holds":
                rejects[ran[name][0]] = f"{inputs.cases[ci].label}: theorem gives {name} holds"
    return rejects


def _claims(inputs: Inputs, outcomes: List[Outcome]) -> Rejects:
    """Published claims made at the bindings the workload ran.

    A claim marked fragile is a recorded discrepancy: the computation is
    expected to contradict it.  Every other claim must reproduce.
    """
    rejects: Rejects = {}
    ran = _by_case(inputs, outcomes)
    for ci, ops in ran.items():
        case = inputs.cases[ci]
        for claim in corpus.claims(case.entry):
            if claim.variant != case.variant or dict(claim.bindings) != case.bindings:
                continue
            if claim.kind == "check" and claim.target in ops:
                k, out = ops[claim.target]
                if _verdict_word(out) is None:
                    continue
                agrees = _verdict_word(out) == claim.expected
            elif claim.kind == "value" and VALUE_FORM_CHECKER.get(claim.target) in ops:
                k, out = ops[VALUE_FORM_CHECKER[claim.target]]
                got = _reported_residual(case, out, claim.where)
                if got is None:
                    continue
                want = _claimed_vector(case, claim)
                agrees = all(a == b for a, b in zip(got, want))
            else:
                continue
            if agrees == claim.fragile:
                rejects[k] = f"{case.entry}/{claim.key}: fragile={claim.fragile}, reproduced={agrees}"
    return rejects


def _claimed_vector(case, claim):
    """The published value, brought to the field the case was built over."""
    want = corpus.claimed_value(case.entry, claim.key)
    if not case.bindings:
        return want
    full, target = corpus.load_document(case.entry).field, case.hom.field
    return tuple(Scalar(target, full.substitute(x.v, case.bindings, target)) for x in want)


def _reported_residual(case, out: Outcome, where):
    """The residual the run reported at `where` (zero where the identity
    holds), or None when the run did not report that tuple."""
    if out.kind != "verdict":
        return None
    if out.report.holds:
        F = case.hom.field
        return tuple(Scalar(F, F.zero) for _ in range(case.hom.algebra.dim))
    for names, residual in out.report.counterexamples:
        if names == tuple(where):
            return residual
    return None


# ---------------------------------------------------------------------------
# Specialisation of symbolic verdicts
# ---------------------------------------------------------------------------

BINDING_VALUES = tuple(
    Fraction(s) * Fraction(n, m)
    for s in (1, -1)
    for n, m in ((2, 1), (3, 1), (5, 1), (7, 1), (1, 2), (2, 3), (3, 5), (5, 2))
)


def specialisation(inputs: Inputs, ci: int, outcomes_of_case, attempts: int = 50):
    """A seeded full binding of case `ci` at which the entry's constraints
    hold and every reported residual is defined and nonzero, with the
    instance built there; None when `attempts` draws find none.

    Nonzero matters for the checkers that report the first failing part of
    a compound identity (`alternative`, `bk-suite`): where the reported part
    vanishes at a point, the checker run at that point reports a later part.
    """
    case = inputs.cases[ci]
    free = case.hom.field.spec.params
    rng = random.Random(f"{inputs.seed}/{case.label}")
    for _ in range(attempts):
        point = {p: rng.choice(BINDING_VALUES) for p in free}
        full = {**case.bindings, **point}
        try:
            H = corpus.build(case.entry, case.variant, full).hom
            subs = {
                name: [
                    (names, tuple(substitute_params(x, point) for x in residual))
                    for names, residual in out.report.counterexamples
                ]
                for name, (_, out) in outcomes_of_case.items()
                if out.kind == "verdict"
            }
        except (corpus.ConstraintError, CoeffError):
            continue
        if any(all(x.is_zero() for x in value) for found in subs.values() for _, value in found):
            continue
        return point, H, subs
    return None


def _specialises(inputs: Inputs, outcomes: List[Outcome]) -> Rejects:
    """A symbolic "holds" holds at a seeded admissible binding (by the
    oracle); a symbolic residual, substituted there, equals the residual the
    checker computes on the instance built at that binding."""
    rejects: Rejects = {}
    for ci, ran in _by_case(inputs, outcomes).items():
        found = specialisation(inputs, ci, ran)
        if found is None:
            for k, out in ran.values():
                if out.kind == "verdict":
                    rejects[k] = "no binding where every reported residual is defined and nonzero"
            continue
        point, H, subs = found
        for name, (k, out) in ran.items():
            if out.kind != "verdict":
                continue
            if out.report.holds:
                if not oracle.oracle_verdict(name, H)[0]:
                    rejects[k] = f"holds symbolically, fails at {point}"
                continue
            for names, value in subs[name]:
                try:
                    direct = identities.residual_at(name, H, names)
                except (ValueError, identities.CheckError) as exc:
                    rejects[k] = f"reported tuple {names} is not a {name} tuple: {exc}"
                    break
                if len(value) != len(direct) or not all(a == b for a, b in zip(value, direct)):
                    rejects[k] = f"residual at {names} does not specialise at {point}"
                    break
    return rejects


def same_outcomes(first: List[Outcome], again: List[Outcome]) -> List[int]:
    """Indices where a repeated batch produced different output."""
    return [k for k, (a, b) in enumerate(zip(first, again)) if not _same(a, b)]


def _same(a: Outcome, b: Outcome) -> bool:
    if a.kind != b.kind:
        return False
    if a.kind == "verdict":
        return a.report == b.report and a.oracle == b.oracle
    return (a.requirement, a.error) == (b.requirement, b.error)
