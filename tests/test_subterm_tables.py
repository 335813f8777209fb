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
from homsuper.coeff import prime_field, rationals
from homsuper.identities import CHECKERS, run_checker
from homsuper.superalg import Basis, SuperAlgebra, dense, hom


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


def test_symbolic_run_leaves_shared_payloads_unchanged():
    H = corpus.build("dt-jordan", "alpha").hom
    F = H.field
    zero, one = F.zero, F.one
    before = copy.deepcopy((zero, one))
    for name in ("hom-jordan", "teichmuller", "bk-suite", "cyclic-assoc", "jordan-admissible"):
        run_checker(name, H)
    assert F.zero is zero and F.one is one
    assert (zero, one) == before
    assert not zero
    # the one is the constant monomial with the base field's one
    e0 = (0,) * len(F.spec.params)
    assert list(one) == [e0] and F.base.eq(one[e0], F.base.one)


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


def test_one_basis_reports_over_two_fields():
    # e*e = e fails superskew with residual 2e at (e, e): the payload keys are
    # equal over Q and GF(5), so only the field in the entry key tells the
    # two reports apart
    basis = Basis(("e", "f"), (0, 0))
    entries = []
    for F in (rationals(), prime_field(5)):
        H = hom(SuperAlgebra(basis, F, [[(F.one, F.zero), (F.zero,) * 2], [(F.zero,) * 2] * 2]))
        first, again = run_checker("superskew", H), run_checker("superskew", H)
        ((names, vec),) = first.counterexamples
        assert names == ("e", "e") and [F.render(s.v) for s in vec] == ["2", "0"]
        assert all(s.field is F for s in vec)
        assert again.counterexamples[0] is first.counterexamples[0]
        entries.append(first.counterexamples[0])
    assert entries[0] is not entries[1]
