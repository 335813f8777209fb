import random

import pytest

from gen import random_graded_algebra, random_even_map, random_multiplicative_skew
from homsuper.coeff import Scalar
from homsuper.identities import (
    CheckError,
    PreconditionError,
    UnknownCheckerError,
    checker_names,
    form_value,
    residual_at,
    run_checker,
)
from homsuper.superalg import commutator_algebra, hom

REGISTRY = (
    "left-alt", "right-alt", "alternative", "flexible", "hom-lie",
    "hom-malcev", "hom-malcev-2", "hom-malcev-3", "hom-jordan",
    "lie-admissible", "malcev-admissible", "jordan-admissible",
    "teichmuller", "bk-suite", "cyclic-assoc", "j-eq-6as", "j-eq-2s",
    "jordan-expansion", "supercommutative", "superskew", "multiplicative",
)


def test_registry_is_exactly_the_contract():
    assert set(checker_names()) == set(REGISTRY)
    assert len(checker_names()) == len(REGISTRY)


def test_unknown_checker_rejected(corpus_instances):
    with pytest.raises(UnknownCheckerError):
        run_checker("nope", corpus_instances[("m3-3-1", "base")].hom)


def test_left_alt_examples(corpus_instances):
    assert run_checker("left-alt", corpus_instances[("b42", "base")].hom).holds
    assert run_checker("left-alt", corpus_instances[("b42", "alpha")].hom).holds
    rep = run_checker("left-alt", corpus_instances[("dt-flexible", "alpha")].hom)
    assert not rep.holds
    res = residual_at("left-alt", corpus_instances[("dt-flexible", "alpha")].hom, ("e2", "x", "y"))
    assert any(not s.is_zero() for s in res)


def test_right_alt_mutation_detected(corpus_instances):
    inst = corpus_instances[("b42", "base")]
    A = inst.base
    table = [[list(vec) for vec in row] for row in A.table]
    i, j = A.basis.index("e11"), A.basis.index("e12")
    table[i][j][A.basis.index("e11")] = A.field.one  # corrupt e11*e12
    from homsuper.superalg import SuperAlgebra

    B = SuperAlgebra(A.basis, A.field, [[tuple(v) for v in r] for r in table])
    rep = run_checker("right-alt", hom(B))
    assert not rep.holds


def test_flexible_includes_alternative(corpus_instances):
    for key in (("b42", "base"), ("b42", "alpha")):
        H = corpus_instances[key].hom
        assert run_checker("alternative", H).holds
        assert run_checker("flexible", H).holds


def test_hom_lie_examples(corpus_instances):
    assert run_checker("hom-lie", corpus_instances[("m3-3-1", "alpha2")].hom).holds
    rep = run_checker("hom-lie", corpus_instances[("m3-3-1", "alpha1")].hom)
    assert not rep.holds and rep.first_tuple() == ("e3", "e4", "e4")
    # abelian bracket: all zero products
    from homsuper.superalg import Basis, SuperAlgebra
    from gen import Q

    basis = Basis(("u", "w"), (0, 1))
    zero = (Q.zero, Q.zero)
    A = SuperAlgebra(basis, Q, [[zero, zero], [zero, zero]])
    assert run_checker("hom-lie", hom(A)).holds


def test_hom_lie_requires_skew(corpus_instances):
    with pytest.raises(PreconditionError):
        run_checker("hom-lie", corpus_instances[("b42", "base")].hom)


def test_hom_jordan_requires_commutative(corpus_instances):
    with pytest.raises(PreconditionError):
        run_checker("hom-jordan", corpus_instances[("m3-3-1", "base")].hom)


def test_malcev_forms_agree(corpus_instances):
    instances = [
        corpus_instances[("m3-3-1", "base")].hom,
        corpus_instances[("m3-3-1", "alpha1")].hom,
        corpus_instances[("m3-3-1", "alpha2")].hom,
        commutator_algebra(corpus_instances[("b42", "alpha")].hom),
        commutator_algebra(corpus_instances[("b42", "base")].hom),
        corpus_instances[("m3-3-1", "alpha1-untwisted")].hom,  # fails all three
    ]
    rng = random.Random(99)
    instances += [random_multiplicative_skew(rng, rng.choice([2, 3, 4])) for _ in range(12)]
    for H in instances:
        reports = {
            name: run_checker(name, H, max_counterexamples=400)
            for name in ("hom-malcev", "hom-malcev-2", "hom-malcev-3")
        }
        verdicts = {name: r.holds for name, r in reports.items()}
        assert len(set(verdicts.values())) == 1, verdicts
        if not reports["hom-malcev"].holds:
            # failing forms share counterexample tuples (identical slot order)
            tuples = [set(r.tuples()) for r in reports.values()]
            assert tuples[0] & tuples[1] and tuples[0] & tuples[2]


def test_lie_implies_malcev_on_random_skew():
    rng = random.Random(321)
    seen_lie = 0
    for _ in range(40):
        H = random_multiplicative_skew(rng, rng.choice([2, 3]))
        if run_checker("hom-lie", H).holds:
            seen_lie += 1
            assert run_checker("hom-malcev", H).holds
    assert seen_lie > 0


def test_alternative_implies_flexible_everywhere(corpus_instances):
    for key, inst in corpus_instances.items():
        rep = run_checker("alternative", inst.hom)
        if rep.holds:
            assert run_checker("flexible", inst.hom).holds, key


def test_skew_product_consequence():
    # alternative + skew: mu(a(x), mu(y,z)) = -(-1)^(|x||y|) mu(a(y), mu(x,z))
    from homsuper.superalg import Basis, SuperAlgebra, multiply
    from gen import Q

    basis = Basis(("e", "x"), (0, 1))
    zero = (Q.zero, Q.zero)
    table = [[zero, zero], [zero, (Q.one, Q.zero)]]  # x*x = e
    A = SuperAlgebra(basis, Q, table)
    H = hom(A)
    assert run_checker("alternative", H).holds
    from homsuper.superalg import is_super_skewsymmetric

    assert is_super_skewsymmetric(A).holds
    par = basis.parities
    for i in range(2):
        for j in range(2):
            for k in range(2):
                ax = H.alpha.apply(A, A.basis_vector(i))
                ay = H.alpha.apply(A, A.basis_vector(j))
                lhs = multiply(A, ax, multiply(A, A.basis_vector(j), A.basis_vector(k)))
                rhs = multiply(A, ay, multiply(A, A.basis_vector(i), A.basis_vector(k)))
                sgn = -((-1) ** (par[i] * par[j]))
                scaled = tuple(
                    Scalar(A.field, A.field.mul(A.field.from_int(sgn), s.v)) for s in rhs
                )
                assert all(x == y for x, y in zip(lhs, scaled))


def test_teichmuller_and_bk(corpus_instances):
    for key in (("b42", "base"), ("b42", "alpha")):
        H = corpus_instances[key].hom
        assert run_checker("teichmuller", H).holds
        assert run_checker("bk-suite", H).holds
        assert run_checker("cyclic-assoc", H).holds
    # a flexible-but-not-alternative instance fails the alternative-only suite
    U = corpus_instances[("dt-flexible", "alpha")].hom
    assert not run_checker("teichmuller", U).holds
    assert not run_checker("bk-suite", U).holds
    assert not run_checker("cyclic-assoc", U).holds


def test_bk_suite_fails_on_random_tables():
    rng = random.Random(2024)
    failed = 0
    for _ in range(10):
        A = random_graded_algebra(rng, 3, 2)
        H = hom(A)
        if not run_checker("bk-suite", H).holds:
            failed += 1
    assert failed >= 8  # generic tables are nowhere near alternative


def test_j_eq_2s_on_flexible(corpus_instances):
    for key in (("k3-flexible", "alpha"), ("dt-flexible", "alpha")):
        assert run_checker("j-eq-2s", corpus_instances[key].hom).holds


def test_jminus_six_term_expansion_two_routes():
    # J of the commutator equals the six-term signed associator expansion
    rng = random.Random(55)
    for _ in range(25):
        dim = rng.choice([2, 3])
        A = random_graded_algebra(rng, dim, rng.randint(0, dim))
        H = hom(A, random_even_map(rng, A))
        C = commutator_algebra(H)
        par = A.basis.parities
        from homsuper.identities import hom_associator as as_

        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    lhs = form_value("J-minus", H, (A.basis.names[i], A.basis.names[j], A.basis.names[k]))
                    b = A.basis_vector
                    terms = [
                        (0, as_(H, b(i), b(j), b(k))),
                        (par[i] * (par[j] + par[k]), as_(H, b(j), b(k), b(i))),
                        (par[k] * (par[i] + par[j]), as_(H, b(k), b(i), b(j))),
                        (1 + par[i] * par[j], as_(H, b(j), b(i), b(k))),
                        (1 + par[j] * par[k], as_(H, b(i), b(k), b(j))),
                        (1 + par[i] * par[j] + par[k] * (par[i] + par[j]), as_(H, b(k), b(j), b(i))),
                    ]
                    F = A.field
                    acc = [F.zero] * dim
                    for exp, vec in terms:
                        sgn = F.from_int(-1 if exp % 2 else 1)
                        acc = [F.add(a, F.mul(sgn, s.v)) for a, s in zip(acc, vec)]
                    assert all(F.eq(a, s.v) for a, s in zip(acc, lhs))


def test_jordan_expansion_unconditional():
    rng = random.Random(808)
    for _ in range(30):
        dim = rng.choice([2, 3])
        A = random_graded_algebra(rng, dim, rng.randint(0, dim))
        H = hom(A, random_even_map(rng, A))
        assert run_checker("jordan-expansion", H).holds


def test_report_integrity(corpus_instances):
    H = corpus_instances[("dt-flexible", "alpha")].hom
    rep = run_checker("left-alt", H, max_counterexamples=5)
    assert rep.tuples_checked == H.dim ** 3
    assert len(rep.counterexamples) == 5
    for names, res in rep.counterexamples:
        again = residual_at("left-alt", H, names)
        assert all(x == y for x, y in zip(res, again))
        assert any(not s.is_zero() for s in res)
    # counterexamples arrive in lexicographic tuple order
    order = [tuple(H.algebra.basis.index(n) for n in names) for names, _ in rep.counterexamples]
    assert order == sorted(order)


def test_admissible_checkers_match_derived_algebras(corpus_instances):
    H = corpus_instances[("b42", "alpha")].hom
    from homsuper.superalg import plus_algebra

    assert run_checker("lie-admissible", H).holds == run_checker(
        "hom-lie", commutator_algebra(H)
    ).holds
    assert run_checker("jordan-admissible", H).holds == run_checker(
        "hom-jordan", plus_algebra(H)
    ).holds


def test_residual_at_and_form_value_reject_bad_input(corpus_instances):
    H = corpus_instances[("b42", "alpha")].hom
    with pytest.raises(UnknownCheckerError):
        residual_at("bogus", H, ("e11", "e11", "e11"))
    cases = (
        # unknown basis name
        lambda: residual_at("left-alt", H, ("zz", "e11", "e11")),
        lambda: form_value("as", H, ("e11", "zz", "e11")),
        # wrong slot count, checked before any name is looked up
        lambda: residual_at("left-alt", H, ("e11", "e11")),
        lambda: residual_at("left-alt", H, ("zz", "e11", "e11", "e11")),
        lambda: form_value("product", H, ("e11", "e11", "e11")),
        lambda: form_value("nope", H, ("e11",)),
    )
    for case in cases:
        with pytest.raises(CheckError) as info:
            case()
        assert not isinstance(info.value, UnknownCheckerError)
        assert "\n" not in str(info.value)
