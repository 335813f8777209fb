#!/usr/bin/env python3
"""Self-test of the benchmark's verifiers.

    python3 perfbench/selftest.py

Runs a reduced slice of each workload and checks that its verifier accepts
every output, then plants wrong outputs (a flipped verdict, a moved first
counterexample, a corrupted symbolic residual, an oracle disagreement, an
operation that raised) and checks that each is counted as failed.  Exits 0
when every expectation holds.
"""

from __future__ import annotations

import dataclasses
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import _import_package  # noqa: E402


def _slice(inputs, keep):
    ops = [op for op in inputs.ops if keep(inputs.cases[op[0]].label, op[1])]
    return dataclasses.replace(inputs, ops=ops)


def _find(inputs, label, name):
    return inputs.ops.index(next(op for op in inputs.ops
                                 if inputs.cases[op[0]].label == label and op[1] == name))


def _flipped(inputs, k, out, report_cls):
    """The same outcome with its verdict reversed; a made-up failure reports
    the first tuple of basis elements with the residual e_1."""
    from homsuper.identities import CHECKERS

    rep = out.report
    if not rep.holds:
        return dataclasses.replace(out, report=report_cls(rep.identity, True, (), rep.tuples_checked))
    case = inputs.cases[inputs.ops[k][0]]
    F, basis = case.hom.field, case.hom.algebra.basis.names
    names = (basis[0],) * CHECKERS[rep.identity].arity
    residual = tuple(F.scalar(F.one if i == 0 else F.zero) for i in range(len(basis)))
    return dataclasses.replace(
        out, report=report_cls(rep.identity, False, ((names, residual),), rep.tuples_checked))


def main() -> int:
    _import_package()
    from homsuper import IdentityReport
    from run import failures
    from workloads import Outcome, build_inputs, run_batch

    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    # -- corpus-numeric: theorem, claims and oracle checks
    numeric = _slice(build_inputs("corpus-numeric", 7), lambda label, name: (
        label in ("b42/alpha", "dt-flexible/base", "m3-3-1/alpha1-untwisted")
        and name in ("alternative", "multiplicative", "j-eq-6as", "left-alt",
                     "superskew", "hom-malcev", "lie-admissible")))
    _, outs, _ = run_batch(numeric)
    failed, wrong, rejects = failures(numeric, [outs, outs])
    expect(failed == 0 and not rejects, f"corpus-numeric slice of {len(numeric.ops)} ops verifies")

    k = _find(numeric, "b42/alpha", "j-eq-6as")
    planted = list(outs)
    planted[k] = _flipped(numeric, k, outs[k], IdentityReport)
    failed, wrong, rejects = failures(numeric, [planted, planted])
    expect(k in rejects and failed == 2 and wrong == 2,
           f"flipped j-eq-6as on b42/alpha counted failed in both rounds ({rejects.get(k)})")

    k = _find(numeric, "m3-3-1/alpha1-untwisted", "hom-malcev")
    planted = list(outs)
    planted[k] = _flipped(numeric, k, outs[k], IdentityReport)
    _, _, rejects = failures(numeric, [planted])
    expect(k in rejects, f"flipped published 'fails' claim rejected ({rejects.get(k)})")

    k = _find(numeric, "dt-flexible/base", "left-alt")
    rep = outs[k].report
    if not rep.holds and len(rep.counterexamples) > 1:
        moved = IdentityReport(rep.identity, False, rep.counterexamples[1:], rep.tuples_checked)
        planted = list(outs)
        planted[k] = dataclasses.replace(outs[k], report=moved)
        _, _, rejects = failures(numeric, [planted])
        expect(k in rejects, f"moved first counterexample rejected ({rejects.get(k)})")
    else:
        expect(False, "dt-flexible/base left-alt should fail at several tuples")

    planted = list(outs)
    planted[0] = Outcome("error", error="planted")
    failed, wrong, rejects = failures(numeric, [planted])
    expect(failed == 1 and wrong == 0, "an operation that raised counts as failed, not wrong")

    again = list(outs)
    k = _find(numeric, "b42/alpha", "alternative")
    again[k] = _flipped(numeric, k, outs[k], IdentityReport)
    failed, wrong, _ = failures(numeric, [outs, again])
    expect(failed == 1 and wrong == 1, "a second round that differs from the first is counted")

    # -- corpus-symbolic: specialisation and symbolic claims
    symbolic = _slice(build_inputs("corpus-symbolic", 7), lambda label, name: (
        label in ("kaplansky-k3/alpha-untwisted", "k3-flexible/alpha", "m3-3-1/alpha1")
        and name in ("flexible", "hom-jordan", "left-alt", "supercommutative", "hom-lie")))
    _, outs, _ = run_batch(symbolic)
    failed, _, rejects = failures(symbolic, [outs])
    expect(failed == 0, f"corpus-symbolic slice of {len(symbolic.ops)} ops verifies {rejects}")

    k = _find(symbolic, "k3-flexible/alpha", "left-alt")
    rep = outs[k].report
    names, residual = rep.counterexamples[0]
    bumped = tuple(x + 1 if i == 0 else x for i, x in enumerate(residual))
    corrupt = IdentityReport(rep.identity, False, ((names, bumped),) + rep.counterexamples[1:],
                             rep.tuples_checked)
    planted = list(outs)
    planted[k] = dataclasses.replace(outs[k], report=corrupt)
    _, _, rejects = failures(symbolic, [planted])
    expect(k in rejects, f"corrupted symbolic residual rejected ({rejects.get(k)})")

    k = _find(symbolic, "k3-flexible/alpha", "flexible")
    planted = list(outs)
    planted[k] = _flipped(symbolic, k, outs[k], IdentityReport)
    _, _, rejects = failures(symbolic, [planted])
    expect(k in rejects, f"flipped symbolic 'holds' rejected ({rejects.get(k)})")

    # -- random-crosscheck: the two routes must agree
    rnd = build_inputs("random-crosscheck", 7)
    rnd = dataclasses.replace(rnd, ops=rnd.ops[: len(rnd.ops) // 6])
    _, outs, _ = run_batch(rnd)
    failed, _, rejects = failures(rnd, [outs])
    expect(failed == 0, f"random-crosscheck slice of {len(rnd.ops)} ops verifies {rejects}")
    k = next(i for i, o in enumerate(outs) if o.kind == "verdict")
    planted = list(outs)
    holds, first = outs[k].oracle
    planted[k] = dataclasses.replace(outs[k], oracle=(not holds, first))
    _, _, rejects = failures(rnd, [planted])
    expect(k in rejects, f"checker/oracle disagreement rejected ({rejects.get(k)})")

    other = build_inputs("random-crosscheck", 8)
    moved = sum(a.hom.algebra.table != b.hom.algebra.table or a.hom.alpha.cols != b.hom.alpha.cols
                for a, b in zip(rnd.cases, other.cases))
    expect(moved > len(rnd.cases) // 2, f"another seed changes the numbers of {moved} of "
           f"{len(rnd.cases)} tables")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
