import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gen import Q, random_graded_algebra, random_even_map
from homsuper.coeff import FieldSpec, field_for
from homsuper.io import parse_vector_expr
from homsuper.maps import (
    MultiplicativityError,
    NotEndomorphismError,
    SingularMapError,
    compose,
    derived,
    is_even,
    is_morphism,
    is_weak_morphism,
    matrix_inverse,
    power,
    untwist,
    yau_twist,
)
from homsuper.identities import run_checker
from homsuper.superalg import Basis, EvenLinearMap, SuperAlgebra, dense, hom


def test_is_even(corpus_instances):
    inst = corpus_instances[("m3-3-1", "base")]
    A = inst.base
    ident = EvenLinearMap.identity(A.field, A.dim)
    assert is_even(ident, A.basis).holds
    doc = inst.doc  # instantiated maps live on built variants
    a1 = corpus_instances[("m3-3-1", "alpha1")].map_used
    assert is_even(a1, A.basis).holds
    a2 = corpus_instances[("m3-3-1", "alpha2")].map_used
    rep = is_even(a2, A.basis)
    assert not rep.holds and rep.counterexamples[0][0] == ("e4",)


def test_weak_morphism_basics(corpus_instances):
    A = corpus_instances[("m3-3-1", "base")].base
    ident = EvenLinearMap.identity(A.field, A.dim)
    assert is_weak_morphism(A, A, ident).holds
    zero = EvenLinearMap(A.field, [tuple(A.field.zero for _ in range(A.dim))] * A.dim)
    assert is_weak_morphism(A, A, zero).holds
    a1 = corpus_instances[("m3-3-1", "alpha1")].map_used
    assert is_weak_morphism(A, A, a1).holds


def test_morphism_needs_commuting_square():
    # two-dimensional zero algebra: every even map is a weak endomorphism,
    # so morphism failure isolates the commuting-square condition
    F = Q
    basis = Basis(("u", "v"), (0, 0))
    zero = (F.zero, F.zero)
    A = SuperAlgebra(basis, F, [[zero, zero], [zero, zero]])
    shift = EvenLinearMap(F, [(F.zero, F.one), (F.zero, F.zero)])  # u -> v
    scale = EvenLinearMap(F, [(F.from_int(2), F.zero), (F.zero, F.one)])
    H1 = hom(A, shift)
    H2 = hom(A, scale)
    assert is_weak_morphism(A, A, shift).holds
    rep = is_morphism(H1, H2, shift)
    assert not rep.holds  # shift.shift = 0 but scale.shift keeps v


def test_alpha_commutes_with_itself(corpus_instances):
    inst = corpus_instances[("m3-3-1", "alpha1")]
    H = inst.hom
    assert is_morphism(H, H, H.alpha).holds


def test_compose_and_power(corpus_instances):
    inst = corpus_instances[("m3-3-1", "base")]
    A = inst.base
    a1 = corpus_instances[("m3-3-1", "alpha1")].map_used
    ident = EvenLinearMap.identity(A.field, A.dim)
    assert all(
        A.field.eq(x, y)
        for cx, cy in zip(compose(a1, ident).cols, a1.cols)
        for x, y in zip(cx, cy)
    )
    # (alpha1^2)(e1) = a^4 e1; at the suggested binding a=2 this is 16
    sq = power(a1, 2)
    assert sq.entry(0, 0) == inst.hom.field.scalar(inst.hom.field.from_fraction(Fraction(16)))
    p0 = power(a1, 0)
    assert p0.is_identity()


def test_yau_twist_requires_endomorphism():
    rng = random.Random(23)
    A = random_graded_algebra(rng, 3, 2)
    H = hom(A)
    bad = random_even_map(rng, A)
    if is_weak_morphism(A, A, bad).holds:  # vanishingly unlikely; make it bad
        cols = [list(c) for c in bad.cols]
        cols[0][0] = Q.from_int(17)
        bad = EvenLinearMap(Q, [tuple(c) for c in cols])
    if not is_weak_morphism(A, A, bad).holds:
        with pytest.raises(NotEndomorphismError):
            yau_twist(H, bad)


def test_yau_twist_identity_is_noop(corpus_instances):
    H = corpus_instances[("b42", "base")].hom
    T = yau_twist(H, EvenLinearMap.identity(H.field, H.dim))
    F = H.field
    for i in range(H.dim):
        for j in range(H.dim):
            assert all(F.eq(x, y) for x, y in zip(T.algebra.table[i][j], H.algebra.table[i][j]))


def test_untwist_round_trip(corpus_instances):
    inst = corpus_instances[("m3-3-1", "base")]
    H = inst.hom
    beta = corpus_instances[("m3-3-1", "alpha1")].map_used  # a=2: invertible
    T = yau_twist(H, beta)
    R = untwist(T)
    F = H.field
    for i in range(H.dim):
        for j in range(H.dim):
            assert all(F.eq(x, y) for x, y in zip(R.table[i][j], H.algebra.table[i][j]))


def test_untwist_singular_map_rejected(corpus_instances):
    T = corpus_instances[("m3-3-1", "alpha2")].hom  # alpha2 kills e1, e2
    with pytest.raises(SingularMapError):
        untwist(T)


def test_matrix_inverse_exact():
    F = field_for(FieldSpec("Q", None, ("a",)))
    basis = Basis(("u", "v"), (0, 0))
    vec = lambda e: parse_vector_expr(e, F, basis)
    m = EvenLinearMap(F, [vec("a*u"), vec("u + v")])
    inv = matrix_inverse(m)
    prod = compose(m, inv)
    assert prod.is_identity()


def test_derived_levels(corpus_instances):
    inst = corpus_instances[("m3-3-1", "alpha1")]
    H = inst.hom
    assert derived(H, 0) is H
    d1 = derived(H, 1)
    # mu^(1) = alpha . mu ; twist alpha^2
    F = H.field
    for i in range(H.dim):
        for j in range(H.dim):
            want = dense(F, H.dim, H.alpha.apply_payload(H.algebra._nz[i][j]))
            assert all(F.eq(x, y) for x, y in zip(d1.algebra.table[i][j], want))
    a2 = power(H.alpha, 2)
    assert all(
        F.eq(x, y)
        for cx, cy in zip(d1.alpha.cols, a2.cols)
        for x, y in zip(cx, cy)
    )
    # derived(derived(H,1),1) == derived(H,2) entrywise
    d2 = derived(H, 2)
    dd = derived(d1, 1)
    for i in range(H.dim):
        for j in range(H.dim):
            assert all(F.eq(x, y) for x, y in zip(d2.algebra.table[i][j], dd.algebra.table[i][j]))
    assert all(
        F.eq(x, y)
        for cx, cy in zip(d2.alpha.cols, dd.alpha.cols)
        for x, y in zip(cx, cy)
    )


def test_derived_needs_multiplicativity():
    import homsuper.corpus as corpus

    H = corpus.build("kaplansky-k3", "alpha", {"c": 2}).hom
    with pytest.raises(MultiplicativityError):
        derived(H, 1)


def test_twisting_closure_properties(corpus_instances):
    # closure of each checkable class under its published twist
    cases = [
        (("b42", "base"), ("b42", "alpha"), ["left-alt", "right-alt", "alternative"]),
        (("m3-3-1", "base"), ("m3-3-1", "alpha1"), ["hom-malcev"]),
        (("dt-flexible", "base"), ("dt-flexible", "alpha"), ["flexible"]),
        (("dt-jordan", "base"), ("dt-jordan", "alpha"), ["hom-jordan", "jordan-admissible"]),
    ]
    for base_key, twist_key, checks in cases:
        base = corpus_instances[base_key].hom
        twisted = corpus_instances[twist_key].hom
        for name in checks:
            assert run_checker(name, base).holds, (base_key, name)
            assert run_checker(name, twisted).holds, (twist_key, name)


def test_beta_remains_weak_endo_of_twist(corpus_instances):
    for key in (("b42", "alpha"), ("m3-3-1", "alpha1")):
        inst = corpus_instances[key]
        assert is_weak_morphism(inst.hom.algebra, inst.hom.algebra, inst.map_used).holds


def test_power_by_squaring_matches_repeated_composition(corpus_instances):
    for key in (("m3-3-1", "alpha1"), ("dt-jordan", "alpha")):
        alpha = corpus_instances[key].hom.alpha
        F = alpha.field
        slow = EvenLinearMap.identity(F, alpha.dim)
        for k in range(9):
            fast = power(alpha, k)
            assert all(
                F.eq(x, y) for cx, cy in zip(fast.cols, slow.cols) for x, y in zip(cx, cy)
            ), (key, k)
            slow = compose(alpha, slow)


def test_derived_level_cap(corpus_instances):
    from homsuper.maps import MAX_DERIVED_LEVEL, MapError

    H = corpus_instances[("m3-3-1", "alpha1")].hom
    with pytest.raises(MapError, match="cap"):
        derived(H, MAX_DERIVED_LEVEL + 1)
    assert derived(H, MAX_DERIVED_LEVEL).dim == H.dim


def test_maps_reads_the_work_meter_from_coeff_alone():
    # the work bound sits behind coeff's meter: maps imports nothing from
    # the parser, and the parser's MAX_WORK is the meter's own
    import homsuper.coeff
    import homsuper.io

    path = Path(__file__).resolve().parents[1] / "src" / "homsuper" / "maps.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "homsuper" + ("." + module if module else "")
            imported.add(module)
    assert not any(n == "homsuper.io" or n.startswith("homsuper.io.") for n in imported), imported
    assert homsuper.io.MAX_WORK is homsuper.coeff.MAX_WORK
