"""Workload definitions: which instances are checked, by which checkers.

A workload turns a seed into `Inputs` (instances plus an ordered list of
operations), and `run_batch` runs every operation once through the public
API of `homsuper`.  One operation is one checker on one instance; on
`random-crosscheck` it is one checker on one table through both the checker
route and the oracle route.

The module calls `identities.run_checker` and `oracle.oracle_verdict` through
their modules at call time, so the traced run can wrap them (see tracing.py).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from homsuper import corpus, identities, oracle
from homsuper.coeff import rationals
from homsuper.superalg import Basis, EvenLinearMap, HomSuperAlgebra, SuperAlgebra, hom

WORKLOADS = ("corpus-numeric", "corpus-symbolic", "random-crosscheck")

ALL_CHECKERS = tuple(identities.CHECKERS)
NO_EXPANSION = tuple(n for n in ALL_CHECKERS if n != "jordan-expansion")

# The CLI's default counterexample cap, and the oracle sweep's cap of one.
CORPUS_CAP = 16
RANDOM_CAP = 1

# k3-flexible carries a `zero` constraint that the free field refuses; this
# binding satisfies it for every gamma, eta, which stay symbolic.
K3_PARTIAL = {"a": Fraction(1), "r": Fraction(-1)}

# corpus-symbolic: a fixed set of (entry, variant) -> checkers.  It holds
# every published symbolic verdict claim, every checker at least once,
# jordan-expansion on b42 (6-dim, GF(3)) and on dt-jordan (4-dim, Q), and
# all non-expansion checkers on the three 3-dim/4-dim families that are
# cheap enough to sweep whole.  The seed does not choose pairs: a seeded pair
# set would make sweep_s depend on the seed (b42/alpha jordan-expansion alone
# costs 14 s, m3-3-1/alpha2 superskew 1 ms).
SKEW_CHECKERS = ("superskew", "hom-lie", "hom-malcev", "hom-malcev-2", "hom-malcev-3")
SYMBOLIC_PAIRS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("b42", "base", ("jordan-expansion", "alternative", "supercommutative", "superskew")),
    ("dt-jordan", "base", ALL_CHECKERS),
    ("dt-jordan", "alpha", ("supercommutative", "hom-jordan")),
    ("dt-jordan", "alpha-untwisted", NO_EXPANSION),
    ("m3-3-1", "base", SKEW_CHECKERS),
    ("m3-3-1", "alpha1", ("hom-lie", "hom-malcev")),
    ("m3-3-1", "alpha2", ("hom-lie",)),
    ("kaplansky-k3", "base", NO_EXPANSION),
    ("kaplansky-k3", "alpha", NO_EXPANSION),
    ("kaplansky-k3", "alpha-untwisted", NO_EXPANSION),
    ("k3-flexible", "base", NO_EXPANSION),
    ("k3-flexible", "alpha", NO_EXPANSION),
    ("k3-flexible", "alpha-untwisted", NO_EXPANSION),
    ("dt-flexible", "base", NO_EXPANSION),
    ("dt-flexible", "alpha", NO_EXPANSION),
    ("dt-flexible", "alpha-untwisted", NO_EXPANSION),
)

# random-crosscheck: tables of dimension 2-3 over Q with random even maps,
# two per (dimension, number of even basis elements).  The tables are drawn
# once from FAMILY_SEED; --seed then applies a random diagonal change of
# basis e_i -> l_i e_i to each.  That rescales every residual coordinate by a
# nonzero factor, so verdicts, first counterexamples and the enumeration path
# (hence the cost) are the same for every seed while every number differs.
FAMILY_SEED = 0
TABLES_PER_STRATUM = 2
STRATA = tuple((d, n_even) for d in (2, 3) for n_even in range(d + 1))
SCALES = tuple(
    Fraction(s) * Fraction(n, m)
    for s in (1, -1)
    for n, m in ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 3), (3, 2))
)


@dataclass
class Case:
    """One instance and the checkers a workload runs on it."""

    label: str
    hom: HomSuperAlgebra
    checkers: Tuple[str, ...]
    entry: Optional[str] = None
    variant: Optional[str] = None
    bindings: Dict[str, Fraction] = field(default_factory=dict)


@dataclass
class Inputs:
    workload: str
    seed: int
    cases: List[Case]
    ops: List[Tuple[int, str]]  # (case index, checker name), in run order
    cap: int


@dataclass
class Outcome:
    """What one operation produced.

    kind is "verdict" (report set), "precondition" (requirement set) or
    "error" (error set).  On random-crosscheck a verdict also carries the
    oracle's (holds, first failing tuple).
    """

    kind: str
    report: object = None
    requirement: str = ""
    oracle: Optional[Tuple[bool, Optional[Tuple[str, ...]]]] = None
    error: str = ""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def build_inputs(workload: str, seed: int) -> Inputs:
    if workload == "corpus-numeric":
        cases, cap = _numeric_cases(), CORPUS_CAP
    elif workload == "corpus-symbolic":
        cases, cap = _symbolic_cases(), CORPUS_CAP
    elif workload == "random-crosscheck":
        cases, cap = _random_cases(seed), RANDOM_CAP
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = [(ci, name) for ci, case in enumerate(cases) for name in case.checkers]
    random.Random(seed).shuffle(ops)
    return Inputs(workload, seed, cases, ops, cap)


def _numeric_cases() -> List[Case]:
    # every variant at its suggest bindings, every checker; jordan-expansion
    # on the base variants only (the 14 other expansion checks alone cost
    # about 10 s, and their oracle verification as much again)
    cases = []
    for entry in corpus.ENTRY_IDS:
        bindings = corpus.suggested_bindings(entry)
        for variant in corpus.variant_names(entry):
            inst = corpus.build(entry, variant, bindings)
            names = ALL_CHECKERS if variant == "base" else NO_EXPANSION
            cases.append(Case(f"{entry}/{variant}", inst.hom, names, entry, variant, bindings))
    return cases


def _symbolic_cases() -> List[Case]:
    cases = []
    for entry, variant, names in SYMBOLIC_PAIRS:
        bindings = dict(K3_PARTIAL) if entry == "k3-flexible" else {}
        inst = corpus.build(entry, variant, bindings)
        cases.append(Case(f"{entry}/{variant}", inst.hom, names, entry, variant, bindings))
    return cases


def _family_tables() -> List[Tuple[Basis, list, list]]:
    """The fixed random family: (basis, table, map columns) over Q."""
    rng = random.Random(FAMILY_SEED)
    return [
        _random_table(rng, dim, n_even)
        for _ in range(TABLES_PER_STRATUM)
        for dim, n_even in STRATA
    ]


def _random_table(rng: random.Random, dim: int, n_even: int):
    Q = rationals()
    par = tuple(0 if i < n_even else 1 for i in range(dim))
    basis = Basis(tuple(f"v{i}" for i in range(dim)), par)
    table = [
        [
            [
                Fraction(rng.randint(-3, 3))
                if par[k] == (par[i] + par[j]) % 2 and rng.random() < 0.6
                else Q.zero
                for k in range(dim)
            ]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    cols = [
        [Fraction(rng.randint(-2, 2)) if par[i] == par[j] else Q.zero for i in range(dim)]
        for j in range(dim)
    ]
    return basis, table, cols


def _random_cases(seed: int) -> List[Case]:
    Q = rationals()
    rng = random.Random(seed)
    cases = []
    for t, (basis, table, cols) in enumerate(_family_tables()):
        n = len(basis.names)
        lam = [rng.choice(SCALES) for _ in range(n)]
        # e'_i = l_i e_i: c'_ij^k = c_ij^k l_i l_j / l_k, m'_ji = m_ji l_j / l_i
        scaled = [
            [tuple(table[i][j][k] * lam[i] * lam[j] / lam[k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        alpha = [tuple(cols[j][i] * lam[j] / lam[i] for i in range(n)) for j in range(n)]
        H = hom(SuperAlgebra(basis, Q, scaled), EvenLinearMap(Q, alpha))
        n_even = basis.parities.count(0)
        cases.append(Case(f"t{t:02d}(dim{n},even{n_even})", H, ALL_CHECKERS))
    return cases


# ---------------------------------------------------------------------------
# One batch
# ---------------------------------------------------------------------------


def run_op(inputs: Inputs, op: Tuple[int, str]) -> Outcome:
    ci, name = op
    H = inputs.cases[ci].hom
    try:
        rep = identities.run_checker(name, H, max_counterexamples=inputs.cap)
    except identities.PreconditionError as exc:
        return Outcome("precondition", requirement=exc.requirement)
    except Exception as exc:  # an operation that errs counts as failed
        return Outcome("error", error=f"{type(exc).__name__}: {exc}")
    if inputs.workload != "random-crosscheck":
        return Outcome("verdict", report=rep)
    try:
        return Outcome("verdict", report=rep, oracle=oracle.oracle_verdict(name, H))
    except Exception as exc:
        return Outcome("error", error=f"oracle {type(exc).__name__}: {exc}")


def run_batch(inputs: Inputs) -> Tuple[float, List[Outcome], List[float]]:
    """Run every operation once: (wall seconds, outcomes, per-op seconds)."""
    clock = time.perf_counter
    outcomes, times = [], []
    start = clock()
    for op in inputs.ops:
        t0 = clock()
        outcomes.append(run_op(inputs, op))
        times.append(clock() - t0)
    return clock() - start, outcomes, times
