"""Verdicts are invariant under an even change of basis.

For an invertible even P, (A, mu, alpha) and its conjugate
(A, P^-1 mu(P x, P y), P^-1 alpha P) satisfy the same graded multilinear
identities and the same standing hypotheses: P keeps every parity, so a
residual at a tuple of the new basis is a combination of residuals at old
tuples of the same parities, and back.  The bundled tables are sparse in
their stated basis and a conjugate is dense, so a rule that skips tuples by a
fact of one basis can show here as a changed verdict.
"""

import random

from gen import conjugate, random_even_automorphism, random_even_map, random_graded_algebra
from homsuper.identities import CHECKERS, PreconditionError, run_checker
from homsuper.oracle import oracle_verdict
from homsuper.superalg import hom


def _verdicts(H):
    """Each checker's verdict, or the requirement it refuses with."""
    out = {}
    for name in CHECKERS:
        try:
            out[name] = run_checker(name, H, max_counterexamples=1).holds
        except PreconditionError as err:
            out[name] = err.requirement
    return out


def _random_instances():
    # sparse tables: a verdict that rests on tuples with an empty product
    # cell is where a skip rule true in one basis only would show
    rng = random.Random(19)
    for trial in range(10):
        dim = rng.choice([2, 3])
        A = random_graded_algebra(rng, dim, rng.randint(0, dim), density=0.25)
        yield f"random-{trial}", hom(A, random_even_map(rng, A))


def test_verdicts_survive_an_even_change_of_basis(corpus_instances):
    rng = random.Random(1729)
    bundled = ((f"{e}/{v}", inst.hom) for (e, v), inst in corpus_instances.items())
    for label, H in (*bundled, *_random_instances()):
        want = _verdicts(H)
        conjugates = [conjugate(H, random_even_automorphism(rng, H.algebra)) for _ in range(2)]
        for C in conjugates:
            assert _verdicts(C) == want, label
        if label.startswith("random"):
            # the oracle's dense path, on one conjugate of each random table
            for name, holds in want.items():
                if isinstance(holds, bool):
                    assert oracle_verdict(name, conjugates[0])[0] == holds, (label, name)
