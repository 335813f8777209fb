import inspect
import itertools
import json
import os
import random
import subprocess
import sys
import traceback
from collections import Counter

import pytest

from gen import random_graded_algebra, random_even_map, random_multiplicative_skew
from homsuper.coeff import Scalar
from homsuper.identities import (
    CHECKERS,
    _IDENTITIES,
    _SHAPES,
    CheckError,
    PreconditionError,
    UnknownCheckerError,
    checker_names,
    commutator_algebra,
    form_value,
    is_super_commutative,
    is_super_skewsymmetric,
    plus_algebra,
    residual_at,
    run_checker,
)
from homsuper.oracle import oracle_verdict
from homsuper.report import IdentityReport
from homsuper.superalg import EvenLinearMap, HomSuperAlgebra, hom

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


def _refusal(name, H):
    with pytest.raises(PreconditionError) as info:
        run_checker(name, H)
    return info.value


def test_hom_lie_requires_skew(corpus_instances):
    H = corpus_instances[("b42", "base")].hom
    first, again = _refusal("hom-lie", H), _refusal("hom-malcev", H)
    assert str(first) == "hom-lie: requires a super-skewsymmetric product"
    assert again.requirement is first.requirement  # one string for every refusal


def test_hom_jordan_requires_commutative(corpus_instances):
    H = corpus_instances[("m3-3-1", "base")].hom
    first, again = _refusal("hom-jordan", H), _refusal("hom-jordan", H)
    assert str(first) == "hom-jordan: requires a super-commutative product"
    assert again.requirement is first.requirement


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


def _counted_residual(monkeypatch, name, H):
    """The slots of every call `run_checker(name, ...)` makes to the
    compiled residual from now on, in order."""
    spec = _IDENTITIES[name]
    spec.make(H)  # compile first, so the counter wraps the compiled residual
    residual, calls = spec.residual, []

    def counted(ctx, idx):
        calls.append(idx)
        return residual(ctx, idx)

    monkeypatch.setattr(spec, "residual", counted)
    return calls


def test_a_run_stops_at_the_cap_th_counterexample(corpus_instances, monkeypatch):
    H = corpus_instances[("b42", "alpha-untwisted")].hom
    calls = _counted_residual(monkeypatch, "bk-suite", H)
    rep = run_checker("bk-suite", H)
    assert len(calls) == 28 and len(rep.counterexamples) == 16
    assert rep.tuples_checked == 1296
    assert calls[-1] == tuple(map(H.algebra.basis.index, rep.tuples()[-1]))
    # on a random table, the report of each cap is the first `cap` failures
    # of the full lex-order scan, and no tuple after the cap-th is evaluated
    rng = random.Random(33)
    A = random_graded_algebra(rng, 3, 2)
    H = hom(A, random_even_map(rng, A))
    calls = _counted_residual(monkeypatch, "bk-suite", H)
    ctx, residual = _IDENTITIES["bk-suite"].make(H)
    every = list(_tuples(ctx, 4))
    failing = [(i, idx, r) for i, idx in enumerate(every) if (r := residual(ctx, idx))]
    assert len(failing) > 16
    for cap in (1, 2, 16):
        calls.clear()
        rep = run_checker("bk-suite", H, max_counterexamples=cap)
        entries = tuple(ctx.basis.counterexample(ctx.F, idx, r) for _, idx, r in failing[:cap])
        assert rep == IdentityReport("bk-suite", False, entries, 81), cap
        assert calls == every[: failing[cap - 1][0] + 1], cap


def test_admissible_checkers_match_derived_algebras(corpus_instances):
    H = corpus_instances[("b42", "alpha")].hom
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


def _tuples(ctx, arity):
    return itertools.product(range(ctx.dim), repeat=arity)


def test_each_identity_is_compiled_once_per_process(corpus_instances):
    # contexts on different algebras and fields share one residual, and so
    # one code object for it and for each of its fill functions
    first, second = corpus_instances[("b42", "alpha")].hom, corpus_instances[("m3-3-1", "base")].hom
    for name, chk in CHECKERS.items():
        (c1, r1), (c2, r2) = chk.make(first), chk.make(second)
        assert c1 is not c2 and r1 is r2 and r1.__code__ is r2.__code__, name
        assert c1.F is not c2.F
        assert chk.make(first)[1].__code__ is r1.__code__


def test_a_counting_wrapper_on_the_field_sees_the_residual(corpus_instances):
    # the way perfbench counts field operations: instance attributes set on
    # the field after the identity was compiled, before the context is made
    H = corpus_instances[("b42", "alpha")].hom
    F = H.algebra.field
    for name in ("bk-suite", "jordan-admissible", "supercommutative"):
        ctx, res = CHECKERS[name].make(H)
        plain = [res(ctx, idx) for idx in _tuples(ctx, CHECKERS[name].arity)]
        counts = Counter()

        def counting(meth, bound):
            def call(*args):
                counts[meth] += 1
                return bound(*args)
            return call

        try:
            for meth in ("add", "sub", "mul", "neg", "is_zero", "from_int"):
                setattr(F, meth, counting(meth, getattr(F, meth)))
            ctx, res = CHECKERS[name].make(H)
            counts.clear()
            counted = [res(ctx, idx) for idx in _tuples(ctx, CHECKERS[name].arity)]
        finally:
            for meth in ("add", "sub", "mul", "neg", "is_zero", "from_int"):
                F.__dict__.pop(meth, None)
        assert counted == plain, name
        assert counts["is_zero"] and counts["add"] + counts["sub"], (name, counts)
        assert counts["mul"] or name == "supercommutative", (name, counts)


def test_generated_code_shows_its_words(corpus_instances):
    H = corpus_instances[("b42", "alpha")].hom
    for name, chk in CHECKERS.items():
        ctx, res = chk.make(H)
        source = inspect.getsource(res)
        assert res.__code__.co_filename == f"<homsuper.identities:{name}>"
        assert source.startswith("def residual(ctx, idx):")
        assert all(f"    # {part}\n" in source for part in _IDENTITIES[name].parts), name
    # a traceback through a residual quotes the generated line
    ctx, res = CHECKERS["left-alt"].make(H)
    ctx.mul = None
    with pytest.raises(TypeError) as info:
        res(ctx, (0, 0, 0))
    frames = traceback.extract_tb(info.value.__traceback__)
    assert [f.name for f in frames[-2:]] == ["residual", f"fill_T{_SHAPES[('as', 0, 1, 2)]}"]
    assert frames[-1].line == "v2 = mul(v0, v1) if v0 and v1 else ()"


def test_no_kernel_call_gets_an_empty_operand(corpus_instances, monkeypatch):
    # the generated code skips a product or twist of `()`, the merge of a
    # `()` term and the scaling of a `()` side, whose results it already has
    import homsuper.identities as identities
    from homsuper.superalg import SuperAlgebra

    calls = Counter()

    def wrap(cls, attr, empty):
        kernel = getattr(cls, attr)

        def wrapper(self, *args):
            calls[attr] += 1
            assert not empty(*args), (attr, args)
            return kernel(self, *args)

        monkeypatch.setattr(cls, attr, wrapper)

    wrap(SuperAlgebra, "_mul_payload", lambda u, v: not u or not v)
    wrap(EvenLinearMap, "apply_payload", lambda u: not u)
    wrap(identities._Ctx, "acc", lambda u, v, exp: not v)
    wrap(identities._Ctx, "scale_int", lambda n, u: not u)
    for inst in corpus_instances.values():
        H = HomSuperAlgebra(inst.hom.algebra, inst.hom.alpha)  # its minus and plus algebras made here
        for name in CHECKERS:
            try:
                run_checker(name, H)
            except PreconditionError:
                calls["refused"] += 1
    assert len(calls) == 5, calls


def test_precondition_reports_match_the_oracle(corpus_instances):
    rng = random.Random(1414)
    algebras = [inst.hom.algebra for inst in corpus_instances.values()]
    for _ in range(30):
        H = hom(random_graded_algebra(rng, rng.choice([2, 3, 4]), rng.randint(0, 3)))
        algebras += [H.algebra, commutator_algebra(H).algebra, plus_algebra(H).algebra]
    seen = Counter()
    for A in algebras:
        for name, report in (("superskew", is_super_skewsymmetric), ("supercommutative", is_super_commutative)):
            rep, (holds, first) = report(A), oracle_verdict(name, hom(A))
            assert (rep.holds, rep.tuples_checked) == (holds, A.dim ** 2), (name, A.basis.names)
            assert holds or rep.first_tuple() == first, (name, A.basis.names)
            seen[name, holds] += 1
    assert len(seen) == 4  # each report both holds and fails


def test_a_second_sweep_builds_no_derived_object(corpus_instances, monkeypatch):
    import homsuper.identities as identities

    H0 = corpus_instances[("b42", "alpha")].hom
    H = HomSuperAlgebra(H0.algebra, H0.alpha)  # nothing kept yet
    EvenLinearMap.identity(H.field, H.dim)  # the preconditions' twist, made once per process
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("commutator_algebra", "plus_algebra"):
        monkeypatch.setattr(identities, name, counting(name, getattr(identities, name)))
    # alpha^2 is alpha applied twice, so no sweep builds a map
    monkeypatch.setattr(EvenLinearMap, "__init__", counting("EvenLinearMap", EvenLinearMap.__init__))
    names = H.algebra.basis.names

    def sweep():
        for name in CHECKERS:
            try:
                run_checker(name, H)
            except PreconditionError:
                pass
        for slots in itertools.product(names[:2], repeat=4):
            residual_at("jordan-expansion", H, slots)
        residual_at("j-eq-6as", H, names[:3])

    sweep()
    assert calls == {"commutator_algebra": 1, "plus_algebra": 1}
    sweep()
    assert calls == {"commutator_algebra": 1, "plus_algebra": 1}


def test_each_make_has_its_own_context(corpus_instances):
    H = corpus_instances[("b42", "alpha")].hom
    for name in ("jordan-admissible", "j-eq-6as", "bk-suite"):
        want = run_checker(name, H)
        ctx, res = CHECKERS[name].make(H)
        for idx in _tuples(ctx, CHECKERS[name].arity):  # make and fill its tables first
            res(ctx, idx)
        contexts = (ctx, *ctx.derived.values())
        assert any(c.tables for c in contexts), name
        for c in contexts:
            c.mul = None
            for table in c.tables.values():  # no filled cell outlives its run
                table[:] = [((0, None),)] * len(table)
        assert run_checker(name, H) == want, name


def test_one_fill_function_per_shape_and_tables_on_first_read(corpus_instances):
    # in a fresh process, every spec compiles its residual and each distinct
    # shape's fill function exactly once, whatever spec reads it first
    script = """
import json, sys
from collections import Counter
import homsuper.identities as I
from homsuper import corpus
compiled = Counter()
def counting(source, filename, mode):
    compiled[filename] += 1
    return compile(source, filename, mode)
I.compile = counting
H = corpus.build("b42", "alpha", corpus.suggested_bindings("b42")).hom
specs = {**I._CLAIM_FORMS, "bk_f": I._BK_f, "bk_F": I._BK_F, **I._IDENTITIES}
fresh = []
for spec in specs.values():
    ctx, _ = spec.make(H)
    fresh.append(len(ctx.tables) + len(ctx.derived))
print(json.dumps([dict(compiled), len(I._SHAPES), len(I._SIZES), len(set(map(id, specs.values()))), fresh]))
"""
    done = subprocess.run([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    compiled, shapes, sizes, specs, fresh = json.loads(done.stdout)
    fills = {name for name in compiled if name.startswith("<homsuper.identities:fill_T")}
    assert shapes == sizes == len(fills) == 24
    assert fills == {f"<homsuper.identities:fill_T{n}>" for n in range(24)}
    assert set(compiled.values()) == {1} and len(compiled) == specs + 24 == 28 + 24
    assert fresh == [0] * len(fresh)  # made on first read, not by make
    H = corpus_instances[("b42", "alpha")].hom
    for name in ("j-eq-6as", "jordan-expansion", "bk-suite"):
        ctx, res = CHECKERS[name].make(H)
        assert not ctx.tables and not ctx.derived, name
        res(ctx, (0,) * CHECKERS[name].arity)
        assert ctx.tables or ctx.derived, name
