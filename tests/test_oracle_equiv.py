"""Every checker verdict must match the independent brute-force expansion."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import homsuper.corpus as corpus
from gen import random_even_map, random_graded_algebra
from homsuper import oracle
from homsuper.coeff import FieldSpec, Scalar, field_for
from homsuper.identities import (
    CHECKERS,
    PreconditionError,
    bk_F,
    bk_f,
    cyclic_hom_associator,
    hom_associator,
    hom_super_jacobian,
    run_checker,
)
from homsuper.oracle import oracle_value, oracle_verdict
from homsuper.superalg import EvenLinearMap, SuperAlgebra, dense, hom


def _compare_all(H, label):
    for name in CHECKERS:
        try:
            rep = run_checker(name, H, max_counterexamples=1)
        except PreconditionError:
            continue  # oracle mirrors the checker's scope, nothing to compare
        holds, first = oracle_verdict(name, H)
        assert rep.holds == holds, (label, name)
        if not rep.holds:
            assert rep.counterexamples[0][0] == first, (label, name)


def _random_instances():
    rng = random.Random(1618)
    for trial in range(40):
        dim = rng.choice([2, 3])
        A = random_graded_algebra(rng, dim, rng.randint(0, dim))
        yield f"random-{trial}", hom(A, random_even_map(rng, A))


def test_oracle_matches_on_random_instances():
    for label, H in _random_instances():
        _compare_all(H, label)


def _carried(H, F, lift):
    """H with every rational constant c of its table and twist replaced by
    lift(F, c, position)."""
    A = H.algebra
    table = [
        [tuple(lift(F, c, (i, j, k)) for k, c in enumerate(A.table[i][j])) for j in range(A.dim)]
        for i in range(A.dim)
    ]
    cols = [tuple(lift(F, c, (j, i)) for i, c in enumerate(col)) for j, col in enumerate(H.alpha.cols)]
    return hom(SuperAlgebra(A.basis, F, table), EvenLinearMap(F, cols))


def _assert_residuals_match_oracle(H, label):
    F = H.field
    raw = oracle._Raw(H)
    for name, chk in CHECKERS.items():
        ctx, res = chk.make(H)
        for idx in itertools.product(range(ctx.dim), repeat=chk.arity):
            got = dense(F, ctx.dim, res(ctx, idx))
            want = oracle._residual(name, raw, idx)
            assert all(F.eq(a, b) for a, b in zip(got, want)), (label, name, idx)


def test_full_residuals_match_oracle_on_every_tuple():
    # not only verdicts: every residual vector on every tuple, also where
    # the checker's standing hypothesis fails (both routes evaluate the same
    # written identity there)
    for label, H in _random_instances():
        _assert_residuals_match_oracle(H, label)
    rng = random.Random(3)
    A = random_graded_algebra(rng, 3, 1)
    H = hom(A, random_even_map(rng, A))
    gf3 = field_for(FieldSpec("GF", 3))
    _assert_residuals_match_oracle(
        _carried(H, gf3, lambda F, c, _: F.from_fraction(Fraction(c))), "GF(3)"
    )
    A = random_graded_algebra(rng, 2, 1)
    H = hom(A, random_even_map(rng, A))
    frac = field_for(FieldSpec("Q", None, ("a",)))
    a = frac.monomial("a")

    def lift(F, c, pos):
        # constants at odd positions pick up the parameter: c*a + 1
        v = F.from_fraction(Fraction(c))
        return F.add(F.mul(v, a), F.one) if sum(pos) % 2 and c else v

    _assert_residuals_match_oracle(_carried(H, frac, lift), "Frac(Q[a])")


def test_oracle_values_match_checker_forms(corpus_instances):
    from homsuper.identities import form_value

    cases = [
        (("m3-3-1", "base"), "J", ("e3", "e4", "e4")),
        (("m3-3-1", "alpha1"), "J", ("e3", "e4", "e4")),
        (("b42", "alpha"), "J-minus", ("e11", "e21", "e22")),
        (("b42", "alpha-untwisted"), "leftalt", ("e11", "e21", "e22")),
        (("dt-jordan", "alpha-untwisted"), "jordan", ("e1", "e2", "x", "y")),
        (("dt-flexible", "alpha"), "leftalt", ("e2", "x", "y")),
        (("kaplansky-k3", "base"), "product", ("x", "y")),
        (("k3-flexible", "alpha"), "S", ("e2", "e3", "e2")),
        (("m3-3-1", "base"), "as", ("e1", "e3", "e3")),
    ]
    for key, form, tup in cases:
        H = corpus_instances[key].hom
        F = H.field
        a = oracle_value(form, H, tup)
        b = form_value(form, H, tup)
        assert all(F.eq(x, s.v) for x, s in zip(a, b)), (key, form)


def _combination(rng, A, parities):
    """Random payload vector supported on basis elements of the given parities."""
    F = A.field
    return [
        F.from_int(rng.randint(-3, 3)) if p in parities else F.zero
        for p in A.basis.parities
    ]


def _expand(F, dim, args, value_at):
    """Multilinear expansion: sum over basis tuples of the coefficient
    product times value_at(index tuple)."""
    supports = [[(i, a) for i, a in enumerate(v) if not F.is_zero(a)] for v in args]
    out = [F.zero] * dim
    for picks in itertools.product(*supports):
        coeff = F.one
        for _, a in picks:
            coeff = F.mul(coeff, a)
        value = value_at(tuple(i for i, _ in picks))
        out = [F.add(o, F.mul(coeff, x)) for o, x in zip(out, value)]
    return out


def test_public_forms_match_oracle_on_combinations():
    # the public forms on non-basis vectors equal the same combination of
    # oracle values on basis tuples
    rng = random.Random(2718)
    for trial in range(12):
        dim = rng.choice([2, 3, 4])
        A = random_graded_algebra(rng, dim, rng.randint(0, dim))
        H = hom(A, random_even_map(rng, A))
        F, names = A.field, A.basis.names
        raw = oracle._Raw(H)
        present = sorted(set(A.basis.parities))
        wrap = lambda v: tuple(Scalar(F, a) for a in v)

        def same(got, want, label):
            assert all(F.eq(s.v, w) for s, w in zip(got, want)), (trial, label)

        def named(form):
            return lambda idx: oracle_value(form, H, tuple(names[i] for i in idx))

        homog = [_combination(rng, A, {rng.choice(present)}) for _ in range(4)]
        mixed = _combination(rng, A, {0, 1})
        x, y, z, t = homog
        for args in ((x, y, z), (mixed, y, z), (mixed, mixed, mixed)):
            same(hom_associator(H, *map(wrap, args)), _expand(F, dim, args, named("as")), "as")
        for args in ((x, y, z), (mixed, y, z)):
            same(hom_super_jacobian(H, *map(wrap, args)), _expand(F, dim, args, named("J")), "J")
        same(cyclic_hom_associator(H, *map(wrap, (x, y, z))),
             _expand(F, dim, (x, y, z), named("S")), "S")
        slots = (t, x, y, z)
        same(bk_f(H, *map(wrap, slots)),
             _expand(F, dim, slots, lambda idx: oracle._f_raw(raw, *idx)), "f")
        same(bk_F(H, *map(wrap, slots)),
             _expand(F, dim, slots, lambda idx: oracle._F_functorial(raw, *idx)), "F")


def test_oracle_shares_no_evaluation_code():
    # the oracle is the independent second route: it may take the instance
    # type from superalg and nothing else from the checker route
    path = Path(__file__).resolve().parents[1] / "src" / "homsuper" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "homsuper" + ("." + module if module else "")
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert not any(n.startswith("homsuper.identities") for n in imported), imported
    from_superalg = {n for n in imported if n.startswith("homsuper.superalg")}
    assert from_superalg == {"homsuper.superalg.HomSuperAlgebra"}, imported
