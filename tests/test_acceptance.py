"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything asserted here is exact (no tolerances: all arithmetic is exact),
and expected values are frozen from the independent oracle, never from
published arithmetic; where published numbers disagree with direct expansion
the suite asserts that a DISCREPANCY row records both sides.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import homsuper.corpus as corpus
from gen import random_even_map, random_graded_algebra, random_multiplicative_skew
from homsuper.coeff import Scalar, substitute_params
from homsuper.identities import (
    CHECKERS,
    PreconditionError,
    commutator_algebra,
    residual_at,
    run_checker,
)
from homsuper.io import (
    ParseError,
    parse_algebra_file,
    serialize_algebra_document,
)
from homsuper.maps import derived, is_weak_morphism, yau_twist
from homsuper.oracle import oracle_value, oracle_verdict
from homsuper.superalg import hom

_suite_rows = None


def suite_rows():
    global _suite_rows
    if _suite_rows is None:
        from homsuper.suite import run_suite

        _suite_rows = {(r.entry, r.key): r for r in run_suite()}
    return _suite_rows


@contextmanager
def criterion(number, title):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL  {title}  [{time.time() - t0:.1f}s]")
        raise
    print(f"ACCEPTANCE {number:>2} PASS  {title}  [{time.time() - t0:.1f}s]")


def vec_eq(F, got, want):
    return all(F.eq(a, b) for a, b in zip(got, want))


def test_criterion_01_grading_and_classical_identities():
    with criterion(1, "grading + classical Malcev/Lie on the 4-dim bracket"):
        base = corpus.build("m3-3-1").hom
        assert run_checker("superskew", base).holds
        malcev = run_checker("hom-malcev", base)
        assert malcev.holds and malcev.tuples_checked == 4**4
        lie = run_checker("hom-lie", base)
        assert not lie.holds
        assert lie.first_tuple() == ("e3", "e4", "e4")
        # residual frozen from the independent oracle: -3*e1
        F = base.field
        want = oracle_value("J", base, ("e3", "e4", "e4"))
        assert vec_eq(F, [s.v for s in lie.counterexamples[0][1]], want)
        minus_three = F.neg(F.from_int(3))
        assert F.eq(want[0], minus_three) and all(F.is_zero(x) for x in want[1:])


def test_criterion_02_twisting_closure_symbolic():
    with criterion(2, "symbolic twisting closure: twisted Malcev / twisted Lie"):
        h1 = corpus.build("m3-3-1", "alpha1", {"d": 1}).hom
        assert h1.field.spec.params == ("a", "b", "c")
        assert run_checker("hom-malcev", h1).holds
        h2 = corpus.build("m3-3-1", "alpha2", {"a": 1}).hom
        assert h2.field.spec.params == ("b", "c", "d")
        assert run_checker("hom-lie", h2).holds  # zero polynomial residuals


def test_criterion_03_malcev_form_equivalence():
    with criterion(3, "three Malcev forms agree on corpus + 50 random instances"):
        instances = [
            corpus.build("m3-3-1").hom,
            corpus.build("m3-3-1", "alpha1").hom,
            corpus.build("m3-3-1", "alpha2").hom,
            corpus.build("m3-3-1", "alpha1-untwisted", {"a": 2, "b": 1, "c": 1, "d": 1}).hom,
            commutator_algebra(corpus.build("b42", "base", {"a": 1, "s": 1}).hom),
            commutator_algebra(corpus.build("b42", "alpha", {"a": 1, "s": 1}).hom),
        ]
        rng = random.Random(303)
        instances += [
            random_multiplicative_skew(rng, rng.choice([2, 3, 4])) for _ in range(50)
        ]
        saw_failing = False
        for H in instances:
            verdicts = [
                run_checker(name, H).holds
                for name in ("hom-malcev", "hom-malcev-2", "hom-malcev-3")
            ]
            assert len(set(verdicts)) == 1
            saw_failing = saw_failing or not verdicts[0]
        assert saw_failing  # the equivalence was exercised on failures too


def test_criterion_04_b42_base_and_twist():
    with criterion(4, "char-3 alternative algebra: base + twist suite + residual row"):
        base = corpus.build("b42").hom  # symbolic (a, s): base table has none of them
        rep = run_checker("alternative", base)
        assert rep.holds and rep.tuples_checked == 6**3
        bound = {"a": 1, "s": 1}
        inst = corpus.build("b42", "alpha", bound)
        assert is_weak_morphism(inst.base, inst.base, inst.map_used).holds
        for name in (
            "alternative", "malcev-admissible", "jordan-admissible",
            "teichmuller", "bk-suite", "cyclic-assoc",
        ):
            assert run_checker(name, inst.hom).holds, name
        untw = corpus.build("b42", "alpha-untwisted", bound).hom
        res = oracle_value("leftalt", untw, ("e11", "e21", "e22"))
        F = untw.field
        assert not all(F.is_zero(x) for x in res)
        # frozen oracle value e12 + e22; published (a/b)(e11+e22) lands in the
        # discrepancy report, never in a silent pass
        want = [F.zero] * 6
        want[1] = F.one
        want[3] = F.one
        assert vec_eq(F, res, want)
        assert suite_rows()[("b42", "untwisted-as-sum")].status == "DISCREPANCY"


def _b42_endomorphism_pool():
    from homsuper.maps import compose

    bound_maps = []
    for a in (1, 2):
        for s in (1, 2):
            inst = corpus.build("b42", "alpha", {"a": a, "s": s})
            bound_maps.append(inst.map_used)
    base = corpus.build("b42", "base", {"a": 1, "s": 1})
    ident = base.hom.alpha
    return base, [ident] + bound_maps


def test_criterion_05_admissibility_theorems_as_properties():
    with criterion(5, "alternative instances: admissibility + BK function laws"):
        base, pool = _b42_endomorphism_pool()
        rng = random.Random(115)
        from homsuper.maps import compose

        seen = {}
        twists = []
        for _ in range(50):
            word = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            beta = word[0]
            for m in word[1:]:
                beta = compose(beta, m)
            rep = is_weak_morphism(base.base, base.base, beta)
            assert rep.holds  # compositions of endomorphisms stay endomorphisms
            key = tuple(tuple(repr(base.hom.field.render(x)) for x in col) for col in beta.cols)
            if key not in seen:
                seen[key] = yau_twist(base.hom, beta)
            twists.append(seen[key])
        instances = [base.hom, corpus.build("b42", "alpha", {"a": 1, "s": 1}).hom]
        instances += list(seen.values())
        assert len(twists) == 50
        for H in instances:
            assert run_checker("alternative", H).holds
            assert run_checker("malcev-admissible", H).holds
            assert run_checker("jordan-admissible", H).holds
            assert run_checker("j-eq-6as", H).holds
            assert run_checker("bk-suite", H).holds  # f alternating, 3f = F, F = f(Id - rho + rho^2)


def test_criterion_06_flexible_suite():
    with criterion(6, "flexible families: closure passes, failure rows recorded"):
        k3 = corpus.build("k3-flexible", "alpha", {"a": 1, "r": -1})
        assert k3.hom.field.spec.params == ("gamma", "eta")
        assert run_checker("flexible", k3.hom).holds
        assert run_checker("j-eq-2s", k3.hom).holds
        k3m = corpus.build(
            "k3-flexible", "alpha",
            {"a": 1, "r": -1, "gamma": 1, "eta": Fraction(-1, 4)},
        )
        assert run_checker("malcev-admissible", k3m.hom).holds
        # generic Malcev-admissibility is a published overclaim; recorded
        assert suite_rows()[("k3-flexible", "base-malcev-adm-generic")].status == "DISCREPANCY"

        dt = corpus.build("dt-flexible", "alpha")
        assert run_checker("flexible", dt.hom).holds  # symbolic beta, t, a
        assert run_checker("j-eq-2s", dt.hom).holds
        dtm = corpus.build("dt-flexible", "alpha", {"beta": 3, "t": -1, "a": 2})
        assert run_checker("malcev-admissible", dtm.hom).holds

        bound = {"beta": 3, "t": 1, "a": 2}
        dt1 = corpus.build("dt-flexible", "alpha", bound).hom
        la = run_checker("left-alt", dt1)
        assert not la.holds
        res = residual_at("left-alt", dt1, ("e2", "x", "y"))
        F = dt1.field
        # frozen: -2*beta*(1-beta)*(e1 - t*e2) at (3,1,2) = 12 e1 - 12 e2
        assert F.eq(res[0].v, F.from_int(12)) and F.eq(res[1].v, F.from_int(-12))
        assert res[2].is_zero() and res[3].is_zero()
        assert not run_checker("lie-admissible", dt1).holds
        # the published residual values disagree with direct expansion and
        # must surface as discrepancy rows, never silently
        assert suite_rows()[("dt-flexible", "leftalt-residual")].status == "DISCREPANCY"
        assert suite_rows()[("dt-flexible", "lieadm-residual")].status == "DISCREPANCY"


def test_criterion_07_jordan_suite():
    with criterion(7, "Jordan families: twists pass, untwisted residuals behave"):
        kap_base = corpus.build("kaplansky-k3").hom
        assert run_checker("hom-jordan", kap_base).holds
        kap_twist = corpus.build("kaplansky-k3", "alpha").hom
        assert run_checker("hom-jordan", kap_twist).holds  # symbolic in c
        kap_untw = corpus.build("kaplansky-k3", "alpha-untwisted").hom
        assert not run_checker("hom-jordan", kap_untw).holds
        res = residual_at("hom-jordan", kap_untw, ("e", "e", "x", "y"))
        assert any(not s.is_zero() for s in res)
        at_half = [substitute_params(s, {"c": Fraction(1, 2)}) for s in res]
        assert all(s.is_zero() for s in at_half)
        assert suite_rows()[("kaplansky-k3", "untwisted-residual")].status == "DISCREPANCY"

        dt_twist = corpus.build("dt-jordan", "alpha").hom
        assert run_checker("hom-jordan", dt_twist).holds  # symbolic a, b, c, t
        dt_untw = corpus.build("dt-jordan", "alpha-untwisted").hom
        assert not run_checker("hom-jordan", dt_untw).holds
        res = residual_at("hom-jordan", dt_untw, ("e1", "e2", "x", "y"))
        F = dt_untw.field
        claimed = corpus.claimed_value("dt-jordan", "untwisted-residual")
        assert vec_eq(F, [s.v for s in res], [s.v for s in claimed])
        # residual direction e1 + t*e2: component on e2 is t times the e1 one
        t_mono = Scalar(F, F.monomial("t"))
        assert res[1] == res[0] * t_mono
        assert res[2].is_zero() and res[3].is_zero()
        vanished = [
            substitute_params(s, {"a": 2, "b": 1, "c": 1, "t": 1}) for s in res
        ]
        assert all(s.is_zero() for s in vanished)
        assert suite_rows()[("dt-jordan", "untwisted-residual")].status == "PASS"


def test_criterion_08_derived_closure():
    with criterion(8, "derived algebras keep every verified class"):
        cases = [
            (corpus.build("b42", "alpha", {"a": 1, "s": 1}).hom,
             ("alternative", "malcev-admissible", "jordan-admissible", "lie-admissible")),
            (corpus.build("m3-3-1", "alpha1").hom, ("hom-malcev",)),
            (corpus.build("m3-3-1", "alpha2").hom, ("hom-lie", "lie-admissible")),
            (corpus.build("dt-flexible", "alpha").hom, ("flexible",)),
            (corpus.build("dt-jordan", "alpha").hom, ("hom-jordan", "jordan-admissible")),
            (corpus.build(
                "k3-flexible", "alpha",
                {"a": 1, "r": -1, "gamma": 1, "eta": Fraction(-1, 4)},
            ).hom, ("flexible", "malcev-admissible")),
        ]
        for H, checks in cases:
            d1 = derived(H, 1)
            d2 = derived(H, 2)
            for name in checks:
                assert run_checker(name, H).holds, name
                assert run_checker(name, d1).holds, name
                assert run_checker(name, d2).holds, name


def test_criterion_09_jordan_expansion_lemma():
    with criterion(9, "plus-product expansion on 100 random graded tables"):
        rng = random.Random(909)
        for _ in range(100):
            dim = rng.choice([2, 3])
            A = random_graded_algebra(rng, dim, rng.randint(0, dim))
            H = hom(A, random_even_map(rng, A))
            assert run_checker("jordan-expansion", H).holds


def test_criterion_10_oracle_equivalence():
    with criterion(10, "checker verdicts match the brute-force oracle"):
        pairs = []
        for entry_id in corpus.ENTRY_IDS:
            bindings = corpus.suggested_bindings(entry_id)
            for variant in corpus.variant_names(entry_id):
                pairs.append(corpus.build(entry_id, variant, bindings).hom)
        rng = random.Random(1010)
        for _ in range(100):
            dim = rng.choice([2, 3])
            A = random_graded_algebra(rng, dim, rng.randint(0, dim))
            pairs.append(hom(A, random_even_map(rng, A)))
        for H in pairs:
            for name in CHECKERS:
                try:
                    rep = run_checker(name, H, max_counterexamples=1)
                except PreconditionError:
                    continue
                holds, first = oracle_verdict(name, H)
                assert rep.holds == holds, name
                if not holds:
                    assert rep.counterexamples[0][0] == first, name


def test_criterion_11_parser_round_trip_and_fuzz():
    with criterion(11, "500 generated documents round-trip; 500 fuzzed inputs fail cleanly"):
        from test_io import MINIMAL, make_random_document

        rng = random.Random(1111)
        alphabet = ["bu", "bv", "bw", "bx", "by"]
        for _ in range(500):
            k = rng.randint(1, 4)
            names = rng.sample(alphabet, k)
            doc = make_random_document(names, rng.randint(0, k), rng)
            text = serialize_algebra_document(doc)
            again = parse_algebra_file(text)
            assert again == doc
            assert serialize_algebra_document(again) == text
        for _ in range(500):
            text = list(MINIMAL)
            for _ in range(rng.randint(1, 5)):
                op = rng.randrange(3)
                pos = rng.randrange(len(text))
                ch = rng.choice("[]=*^/#()abc123\n ;,")
                if op == 0:
                    text.insert(pos, ch)
                elif op == 1 and text:
                    del text[pos]
                else:
                    text[pos] = ch
            mutated = "".join(text)
            try:
                parse_algebra_file(mutated)
            except ParseError as exc:
                assert exc.line >= 1 and exc.col >= 1


def test_criterion_12_fragile_published_numbers_surface():
    with criterion(12, "known-fragile published values emit discrepancy rows"):
        rows = suite_rows()
        j_row = rows[("m3-3-1", "alpha1-J-e3-e4-e4")]
        assert j_row.status == "DISCREPANCY"
        assert "a^4*e1" in j_row.claimed and "-3*a^4*e1" in j_row.computed
        six_row = rows[("b42", "j6as-claim")]
        assert six_row.status == "DISCREPANCY"
        assert "nonzero" in six_row.claimed and "vanishes" in six_row.computed
        lie_row = rows[("b42", "alpha-not-lie-adm")]
        assert lie_row.status == "DISCREPANCY"
        assert lie_row.claimed == "fails" and lie_row.computed == "holds"
