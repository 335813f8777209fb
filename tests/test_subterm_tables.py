"""The sub-term tables on the checker context.

A residual read from tables filled in one order must equal the residual
computed on a fresh context (both densified, as reports see them), and filling the tables over a fraction field
must leave the field's shared payloads untouched.
"""

import copy
import itertools
import random

import pytest

from gen import random_even_map, random_graded_algebra, random_multiplicative_skew
from homsuper import corpus
from homsuper.identities import CHECKERS, run_checker
from homsuper.superalg import dense, hom


def _random_instances():
    rng = random.Random(4)
    out = []
    for dim, n_even in ((2, 1), (3, 1), (3, 2)):
        A = random_graded_algebra(rng, dim, n_even)
        out.append(hom(A, random_even_map(rng, A)))
    out.append(random_multiplicative_skew(rng, 3))
    return out


def _assert_reverse_order_matches_fresh(H, name):
    chk = CHECKERS[name]
    ctx, res = chk.make(H)
    F = ctx.F
    tuples = list(itertools.product(range(ctx.dim), repeat=chk.arity))[::-1]
    filled = [dense(F, ctx.dim, res(ctx, idx)) for idx in tuples]
    for idx, got in zip(tuples, filled):
        fresh_ctx, fresh_res = chk.make(H)
        want = dense(F, ctx.dim, fresh_res(fresh_ctx, idx))
        assert all(F.eq(a, b) for a, b in zip(got, want)), (name, idx)
        assert [F.render(a) for a in got] == [F.render(b) for b in want], (name, idx)


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_reverse_order_tables_match_fresh_context_random(name):
    for H in _random_instances():
        _assert_reverse_order_matches_fresh(H, name)


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_reverse_order_tables_match_fresh_context_b42(name):
    inst = corpus.build("b42", "alpha", corpus.suggested_bindings("b42"))
    _assert_reverse_order_matches_fresh(inst.hom, name)


def _shared_payloads(F):
    return (F.zero, F.one, dict(F._mono_dens))


def test_symbolic_run_leaves_shared_payloads_unchanged():
    H = corpus.build("dt-jordan", "alpha").hom
    F = H.field
    zero, one, dens = _shared_payloads(F)
    before = (
        copy.deepcopy((zero.num, zero.den, one.num, one.den)),
        {e: copy.deepcopy(d) for e, d in dens.items()},
    )
    for name in ("hom-jordan", "teichmuller", "bk-suite", "cyclic-assoc", "jordan-admissible"):
        run_checker(name, H)
    assert F.zero is zero and F.one is one
    assert (zero.num, zero.den, one.num, one.den) == before[0]
    assert not zero.num
    for e, d in before[1].items():
        assert F._mono_dens[e] is dens[e]
        assert dens[e] == d
    # every shared denominator is a monic single monomial under its own key
    for e, d in F._mono_dens.items():
        assert list(d) == [e] and F.base.eq(d[e], F.base.one)


def test_reported_coordinates_are_hash_consed():
    H = corpus.build("dt-jordan", "alpha-untwisted").hom
    first = run_checker("teichmuller", H)
    again = run_checker("teichmuller", H)
    assert not first.holds and len(first.counterexamples) == len(again.counterexamples)
    for (names, u), (names2, v) in zip(first.counterexamples, again.counterexamples):
        assert names == names2
        assert all(a is b for a, b in zip(u, v))
    zeros = {id(s) for _, vec in first.counterexamples for s in vec if s.is_zero()}
    assert len(zeros) == 1


def test_reported_slot_names_are_shared_across_runs():
    # counterexample entries live on the basis, so runs on the same algebra
    # report the same (names, vector) tuples
    H = corpus.build("m3-3-1", "alpha1-untwisted").hom
    for name in ("left-alt", "lie-admissible", "malcev-admissible"):
        first = run_checker(name, H)
        again = run_checker(name, H)
        assert not first.holds, name
        for entry, entry2 in zip(first.counterexamples, again.counterexamples):
            names, names2 = entry[0], entry2[0]
            assert entry is entry2 and names is names2
            assert all(n in H.algebra.basis.names for n in names)
