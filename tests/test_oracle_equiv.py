"""Every checker verdict must match the independent brute-force expansion."""

import ast
import gc
import itertools
import random
import weakref
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
    commutator_algebra,
    cyclic_hom_associator,
    hom_associator,
    hom_super_jacobian,
    plus_algebra,
    run_checker,
)
from homsuper.oracle import oracle_value, oracle_verdict
from homsuper.superalg import Basis, EvenLinearMap, SuperAlgebra, dense, hom


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
            want = raw.dense(oracle._residual(name, raw, idx))
            assert len(got) == len(want), (label, name, idx)
            assert all(F.eq(a, b) for a, b in zip(got, want)), (label, name, idx)


def _carried_instances():
    """A random table carried to GF(3), two others to Frac(Q[a])."""
    rng = random.Random(3)
    A = random_graded_algebra(rng, 3, 1)
    H = hom(A, random_even_map(rng, A))
    gf3 = field_for(FieldSpec("GF", 3))
    yield "GF(3)", _carried(H, gf3, lambda F, c, _: F.from_fraction(Fraction(c)))
    A = random_graded_algebra(rng, 2, 1)
    H = hom(A, random_even_map(rng, A))
    frac = field_for(FieldSpec("Q", None, ("a",)))
    a = frac.monomial("a")

    def lift(F, c, pos):
        # constants at odd positions pick up the parameter: c*a + 1
        v = F.from_fraction(Fraction(c))
        return F.add(F.mul(v, a), F.one) if sum(pos) % 2 and c else v

    yield "Frac(Q[a])", _carried(H, frac, lift)
    # denominators of several terms run the general fraction route: each
    # constant c becomes c/(a + 1 + the sum of its position)
    A = random_graded_algebra(rng, 2, 1)
    H = hom(A, random_even_map(rng, A))

    def lift_general(F, c, pos):
        return F.div(F.from_fraction(Fraction(c)), F.add(a, F.from_int(1 + sum(pos))))

    yield "Frac(Q[a]), general denominators", _carried(H, frac, lift_general)


def test_full_residuals_match_oracle_on_every_tuple():
    # not only verdicts: every residual vector on every tuple, also where
    # the checker's standing hypothesis fails (both routes evaluate the same
    # written identity there)
    for label, H in (*_random_instances(), *_carried_instances()):
        _assert_residuals_match_oracle(H, label)


def test_minus_and_plus_tables_match_the_oracle():
    # the compiled supercommutative residual and half the superskew one
    # against the oracle's hand-written graded sums, payload for payload
    instances = [*_random_instances(), *_carried_instances()]
    for entry_id in corpus.ENTRY_IDS:
        for bindings in (corpus.suggested_bindings(entry_id), {}):
            for variant in corpus.variant_names(entry_id):
                try:
                    instances.append((f"{entry_id}/{variant}", corpus.build(entry_id, variant, bindings).hom))
                except corpus.ConstraintError:
                    assert not bindings  # only a symbolic build may be refused
    for label, H in instances:
        F, raw = H.field, oracle._Raw(H)
        keys = lambda table: [[[F.key(x) for x in vec] for vec in row] for row in table]
        cells = lambda r: [[r.dense(dict(cell)) for cell in row] for row in r.cnz]
        assert keys(commutator_algebra(H).algebra.table) == keys(cells(raw.minus())), label
        assert keys(plus_algebra(H).algebra.table) == keys(cells(raw.plus())), label


def _app2(raw, u):
    return raw.app(raw.app(u))


def _plain_jordan_sides(raw, idx):
    """The jordan expansion written term by term, every associator through
    `raw.assoc`: 8 times the three plus associators on the left; on the
    right the 36 associators of the three cyclic summands and 6 brackets."""
    p, b = raw.p, raw.basis
    i, j, k, l = idx
    px, py, pz, pt = p[i], p[j], p[k], p[l]
    plus = raw.plus()
    lhs = raw.zero()
    for exp, (x, y, t) in ((pt * (px + pz), (i, j, l)), (px * (py + pz), (j, l, i)),
                           (py * (pt + pz), (l, i, j))):
        term = plus.assoc(plus.mul(b(x), b(y)), plus.app(b(k)), plus.app(b(t)))
        lhs = raw.addv(lhs, raw.sgnv(exp, term))
    rhs = raw.zero()
    for a, b_, t_ in ((i, j, l), (j, l, i), (l, i, j)):
        qa, qb, qt, qz = p[a], p[b_], p[t_], pz
        ab, ba = raw.mul(b(a), b(b_)), raw.mul(b(b_), b(a))
        at, az = raw.app(b(t_)), raw.app(b(k))
        for exp, args in (
            (qt * (qa + qz), (ab, az, at)),
            (qt * (qa + qz) + qa * qb, (ba, az, at)),
            (1 + qt * qb + qz * (qa + qb), (at, az, ab)),
            (1 + qb * (qa + qt) + qz * (qa + qb), (at, az, ba)),
            (1 + qt * qb, (at, ab, az)),
            (1 + qb * (qa + qt), (at, ba, az)),
            (qa * (qt + qb) + qz * (qa + qb + qt), (az, ba, at)),
            (qt * (qa + qz) + qz * (qa + qb), (az, ab, at)),
            (1 + qz * (qa + qb + qt) + qt * qb, (az, at, ab)),
            (qt * qa, (ab, at, az)),
            (1 + qz * (qa + qb + qt) + qb * (qa + qt), (az, at, ba)),
            (qa * (qb + qt), (ba, at, az)),
        ):
            rhs = raw.addv(rhs, raw.sgnv(exp, raw.assoc(*args)))
    S3 = px + py + pt
    for exp, (x, y, z) in ((px * py, (j, l, i)), (py * (px + pt), (l, j, i)),
                           (pt * py, (l, i, j)), (pt * (px + py), (i, l, j)),
                           (px * pt, (i, j, l)), (px * (py + pt), (j, i, l))):
        term = raw.bra(_app2(raw, b(k)), raw.assoc(b(x), b(y), b(z)), pz * S3)
        rhs = raw.addv(rhs, raw.sgnv(exp + pz * S3, term))
    return raw.smul(8, lhs), rhs


def _plain_f(raw, l, i, j, k):
    p, b = raw.p, raw.basis
    pt, px, py, pz = p[l], p[i], p[j], p[k]
    out = raw.assoc(raw.mul(b(l), b(i)), raw.app(b(j)), raw.app(b(k)))
    out = raw.subv(out, raw.sgnv(pt * (px + py + pz),
                                 raw.mul(raw.assoc(b(i), b(j), b(k)), _app2(raw, b(l)))))
    return raw.subv(out, raw.sgnv(pt * px, raw.mul(_app2(raw, b(i)), raw.assoc(b(l), b(j), b(k)))))


def _plain_F(raw, l, i, j, k):
    """F(t,x,y,z) = [a2 t, as(x,y,z)] - [a2 z, as(t,x,y)] + [a2 y, as(z,t,x)]
    - [a2 x, as(y,z,t)], each rotation carrying its Koszul sign."""
    p, b = raw.p, raw.basis
    out = raw.zero()
    for step, (head, x, y, z) in enumerate(((l, i, j, k), (k, l, i, j), (j, k, l, i), (i, j, k, l))):
        moved = (l, i, j, k)[4 - step:]
        stayed = (l, i, j, k)[:4 - step]
        koszul = sum(p[a] * p[s] for a in moved for s in stayed)
        term = raw.bra(_app2(raw, b(head)), raw.assoc(b(x), b(y), b(z)), p[head] * (p[x] + p[y] + p[z]))
        out = raw.addv(out, raw.sgnv(step + koszul, term))
    return out


def _shared_term_tables():
    # at least one even basis element: with none, every product is zero.
    # Many small tables are Hom-Jordan in their plus product, so their left
    # side is zero on every tuple; this seed draws ten whose left side is not
    # (the tests assert it, so a vacuous table cannot slip in)
    rng = random.Random(1418)
    for trial in range(10):
        dim = rng.choice([2, 3])
        A = random_graded_algebra(rng, dim, rng.randint(1, dim))
        yield f"random-{trial}", hom(A, random_even_map(rng, A))
    yield from _carried_instances()


def _payloads(F, u):
    return {k: F.key(x) for k, x in u.items()}


def test_jordan_right_side_matches_the_plain_expansion():
    # every tuple, in lex order as `oracle_verdict` walks them, reads the
    # one word memo of its evaluator (and of its plus evaluator); each side
    # must equal the term-by-term sum payload for payload, and the left side
    # must be nonzero somewhere or the comparison says nothing
    for label, H in _shared_term_tables():
        F, raw = H.field, oracle._Raw(H)
        memo, plus_memo = raw.words, raw.plus().words
        lhs_seen = False
        for idx in itertools.product(range(raw.n), repeat=4):
            lhs, rhs = _plain_jordan_sides(raw, idx)
            assert _payloads(F, oracle._jordan_rhs(raw, idx)) == _payloads(F, rhs), (label, idx)
            got = oracle._residual("jordan-expansion", raw, idx)
            assert _payloads(F, got) == _payloads(F, raw.subv(lhs, rhs)), (label, idx)
            lhs_seen = lhs_seen or bool(lhs)
        assert lhs_seen, label
        assert raw.words is memo and raw.plus().words is plus_memo and memo and plus_memo, label


def test_bk_pieces_match_the_plain_expansion():
    # f at the bk-suite's six slot orders and F, on every tuple in lex
    # order, read the one word memo of their evaluator; each must equal its
    # plain expansion payload for payload
    for label, H in _shared_term_tables():
        F, raw = H.field, oracle._Raw(H)
        memo = raw.words
        f_seen = False
        for l, i, j, k in itertools.product(range(raw.n), repeat=4):
            for slots in ((l, i, j, k), (i, l, j, k), (l, j, i, k), (l, i, k, j),
                          (i, j, k, l), (j, k, l, i)):
                want = _plain_f(raw, *slots)
                assert _payloads(F, oracle._f_raw(raw, *slots)) == _payloads(F, want), (label, slots)
                f_seen = f_seen or bool(want)
            got = oracle._F_functorial(raw, l, i, j, k)
            assert _payloads(F, got) == _payloads(F, _plain_F(raw, l, i, j, k)), (label, l, i, j, k)
        assert f_seen, label
        assert raw.words is memo and memo, label


def _plain_four_letter(name, raw, idx):
    """The four-letter residuals of `_residual` written term by term on
    vectors: every product, twist, associator and Jacobian made afresh
    through `raw.mul`, `raw.app` and `raw.assoc`."""
    p, b = raw.p, raw.basis
    mul, app, assoc = raw.mul, raw.app, raw.assoc
    app2 = lambda u: app(app(u))
    # the Jacobian of vectors: as(x, y, z) - (-1)^(py pz) (xz) alpha(y)
    jac = lambda x, y, z, py, pz: raw.subv(assoc(x, y, z), raw.sgnv(py * pz, mul(mul(x, z), app(y))))
    add = lambda u, exp, v: raw.addv(u, raw.sgnv(exp, v))
    if name == "teichmuller":
        l, i, j, k = idx
        pt, px, py, pz = p[l], p[i], p[j], p[k]
        lhs = assoc(mul(b(l), b(i)), app(b(j)), app(b(k)))
        lhs = add(lhs, 1 + pt * (px + py + pz), assoc(mul(b(i), b(j)), app(b(k)), app(b(l))))
        lhs = add(lhs, (pt + px) * (py + pz), assoc(mul(b(j), b(k)), app(b(l)), app(b(i))))
        rhs = raw.addv(mul(app2(b(l)), assoc(b(i), b(j), b(k))),
                       mul(assoc(b(l), b(i), b(j)), app2(b(k))))
        return raw.subv(lhs, rhs)
    if name == "cyclic-assoc":
        l, i, j, k = idx
        pt, px, py, pz = p[l], p[i], p[j], p[k]
        lhs = raw.smul(2, raw.bra(app2(b(l)), assoc(b(i), b(j), b(k)), pt * (px + py + pz)))
        rhs = raw.zero()
        for exp, x, y, z in ((0, i, j, k), (px * (py + pz), j, k, i), (pz * (px + py), k, i, j)):
            # as(alpha t, alpha x, [y, z]), linear in its bracket
            term = assoc(app(b(l)), app(b(x)), mul(b(y), b(z)))
            term = add(term, 1 + p[y] * p[z], assoc(app(b(l)), app(b(x)), mul(b(z), b(y))))
            rhs = add(rhs, exp, term)
        return raw.subv(lhs, rhs)
    i, j, k, l = idx
    px, py, pz, pt = p[i], p[j], p[k], p[l]
    if name == "hom-malcev":
        lhs = raw.smul(2, mul(app2(b(l)), jac(b(i), b(j), b(k), py, pz)))
        rhs = jac(app(b(l)), app(b(i)), mul(b(j), b(k)), px, py + pz)
        rhs = add(rhs, px * (py + pz), jac(app(b(l)), app(b(j)), mul(b(k), b(i)), py, pz + px))
        rhs = add(rhs, pz * (px + py), jac(app(b(l)), app(b(k)), mul(b(i), b(j)), pz, px + py))
        return raw.subv(lhs, rhs)
    if name == "hom-malcev-2":
        lhs = jac(app(b(i)), app(b(j)), mul(b(l), b(k)), py, pt + pz)
        lhs = add(lhs, px * py + pt * (px + py), jac(app(b(l)), app(b(j)), mul(b(i), b(k)), py, px + pz))
        rhs = raw.sgnv(pt * pz, mul(jac(b(i), b(j), b(k), py, pz), app2(b(l))))
        rhs = add(rhs, px * (py + pz + pt) + pt * py, mul(jac(b(l), b(j), b(k), py, pz), app2(b(i))))
        return raw.subv(lhs, rhs)
    if name == "hom-malcev-3":
        lhs = raw.sgnv(px * py + pt * (px + py), app(mul(mul(b(l), b(j)), mul(b(i), b(k)))))
        lhs = raw.addv(lhs, app(mul(mul(b(i), b(j)), mul(b(l), b(k)))))
        rhs = raw.zero()
        for exp, (x, y), mid, outer in (
            (pt * pz + px * (pt + py + pz), (j, k), l, i),
            (pt * pz + px * (py + pz), (j, k), i, l),
            (pz * (px + pt) + py * (pz + pt), (k, i), l, j),
            (pt * pz + py * (pt + pz) + px * (pt + pz), (k, l), i, j),
            (pt * py + px * (pt + py + pz), (l, j), k, i),
            (pz * pt, (i, j), k, l),
        ):
            rhs = add(rhs, exp, mul(mul(mul(b(x), b(y)), app(b(mid))), app2(b(outer))))
        return raw.subv(lhs, rhs)
    assert name == "hom-jordan", name
    out = raw.sgnv(pt * (px + pz), assoc(mul(b(i), b(j)), app(b(k)), app(b(l))))
    out = add(out, px * (py + pz), assoc(mul(b(j), b(l)), app(b(k)), app(b(i))))
    return add(out, py * (pt + pz), assoc(mul(b(l), b(i)), app(b(k)), app(b(j))))


FOUR_LETTER = ("hom-malcev", "hom-malcev-2", "hom-malcev-3", "hom-jordan", "teichmuller", "cyclic-assoc")


def test_four_letter_residuals_match_the_plain_expansion():
    # each residual on the evaluator, its minus evaluator (malcev-admissible
    # runs hom-malcev there) and its plus evaluator (jordan-admissible runs
    # hom-jordan there), every tuple in lex order as `oracle_verdict` walks
    # them, all reading one word memo per evaluator; each must equal its
    # plain expansion payload for payload, and be nonzero somewhere (but
    # cyclic-assoc on plus: a super-commutative product has no brackets)
    seen = dict.fromkeys(itertools.product(FOUR_LETTER, ("raw", "minus", "plus")), False)
    seen["cyclic-assoc", "plus"] = True
    for label, H in _shared_term_tables():
        F, raw = H.field, oracle._Raw(H)
        for kind, ops in (("raw", raw), ("minus", raw.minus()), ("plus", raw.plus())):
            memo = ops.words
            for name in FOUR_LETTER:
                for idx in itertools.product(range(raw.n), repeat=4):
                    want = _plain_four_letter(name, ops, idx)
                    got = oracle._residual(name, ops, idx)
                    assert _payloads(F, got) == _payloads(F, want), (label, kind, name, idx)
                    seen[name, kind] = seen[name, kind] or bool(want)
            assert ops.words is memo and memo, (label, kind)
    assert all(seen.values()), [key for key, hit in seen.items() if not hit]


def _plain_few_letter(name, raw, idx):
    """The two- and three-letter residuals of `_residual` written term by
    term on vectors, every product, twist and associator made afresh
    through `raw.mul`, `raw.app` and `raw.assoc`."""
    p, b = raw.p, raw.basis
    add = lambda u, exp, v: raw.addv(u, raw.sgnv(exp, v))
    if name == "multiplicative":
        i, j = idx
        return raw.subv(raw.app(raw.mul(b(i), b(j))), raw.mul(raw.app(b(i)), raw.app(b(j))))
    i, j, k = idx
    as_ = lambda x, y, z: raw.assoc(b(x), b(y), b(z))
    if name in ("left-alt", "right-alt", "alternative"):
        left = add(as_(i, j, k), p[i] * p[j], as_(j, i, k))
        right = add(as_(i, j, k), p[j] * p[k], as_(i, k, j))
        return {"left-alt": left, "right-alt": right}.get(name, left or right)
    if name == "flexible":
        return add(as_(i, j, k), p[i] * p[j] + p[i] * p[k] + p[j] * p[k], as_(k, j, i))
    # J of the super-commutator on vectors: as(x, y, z) - (-1)^(py pz) (xz) alpha(y)
    minus = raw.minus()
    jac = raw.subv(minus.assoc(b(i), b(j), b(k)),
                   raw.sgnv(p[j] * p[k], minus.mul(minus.mul(b(i), b(k)), minus.app(b(j)))))
    if name == "j-eq-6as":
        return raw.subv(jac, raw.smul(6, as_(i, j, k)))
    assert name == "j-eq-2s", name
    s = add(add(as_(i, j, k), p[i] * (p[j] + p[k]), as_(j, k, i)), p[k] * (p[i] + p[j]), as_(k, i, j))
    return raw.subv(jac, raw.smul(2, s))


FEW_LETTER = ("left-alt", "right-alt", "alternative", "flexible", "j-eq-6as", "j-eq-2s", "multiplicative")


def test_few_letter_residuals_match_the_plain_expansion():
    # each residual on every tuple in lex order as `oracle_verdict` walks
    # them, all reading one word memo on the evaluator and one on its minus
    # evaluator (the j-eq residuals' Jacobian); each must equal its plain
    # expansion payload for payload, and be nonzero somewhere
    seen = dict.fromkeys(FEW_LETTER, False)
    for label, H in _shared_term_tables():
        F, raw = H.field, oracle._Raw(H)
        memo, minus_memo = raw.words, raw.minus().words
        for name in FEW_LETTER:
            for idx in itertools.product(range(raw.n), repeat=oracle._ARITY[name]):
                want = _plain_few_letter(name, raw, idx)
                got = oracle._residual(name, raw, idx)
                assert _payloads(F, got) == _payloads(F, want), (label, name, idx)
                seen[name] = seen[name] or bool(want)
        assert raw.words is memo and raw.minus().words is minus_memo and memo and minus_memo, label
    assert all(seen.values()), [name for name, hit in seen.items() if not hit]


def test_word_memo_is_freed_with_its_verdict(monkeypatch):
    # the memo lives on its evaluator and holds nothing that points back,
    # so reference counting alone frees the evaluator, its minus and plus
    # evaluators and their memos once `oracle_verdict` returns
    made = []
    index = oracle._Raw._index

    def recording_index(raw):
        index(raw)
        made.append(weakref.ref(raw))

    monkeypatch.setattr(oracle._Raw, "_index", recording_index)
    H = next(_shared_term_tables())[1]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, evaluators in (("jordan-expansion", 2), ("bk-suite", 1), ("j-eq-6as", 2),
                                 ("malcev-admissible", 2), ("jordan-admissible", 2),
                                 ("teichmuller", 1), ("cyclic-assoc", 1), ("left-alt", 1),
                                 ("alternative", 1), ("flexible", 1), ("j-eq-2s", 2),
                                 ("multiplicative", 1)):
            made.clear()
            oracle_verdict(name, H)
            assert len(made) == evaluators, name
            assert all(ref() is None for ref in made), name
    finally:
        if enabled:
            gc.enable()


def test_word_memo_does_not_outlive_its_algebra(corpus_instances):
    # two tables on one basis with different bk-suite verdicts, alternately:
    # a memo keyed by word alone that outlived one verdict would hand one
    # table's values to the other.  The failing table goes first: the
    # holding one then reads its words and no longer holds.
    for fails_key, holds_key in ((("b42", "alpha-untwisted"), ("b42", "alpha")),
                                 (("m3-3-1", "alpha1"), ("m3-3-1", "alpha2"))):
        pair = [corpus_instances[key].hom for key in (fails_key, holds_key)]
        want = []
        for H in pair:
            rep = run_checker("bk-suite", H, max_counterexamples=1)
            want.append((rep.holds, None if rep.holds else rep.counterexamples[0][0]))
        assert not want[0][0] and want[1][0], fails_key
        for H, verdict in [*zip(pair, want)] * 2:
            assert oracle_verdict("bk-suite", H) == verdict, fails_key


def test_failing_verdicts_share_one_pair(corpus_instances):
    # a failing verdict returns the one (False, names) pair of its tuple on
    # the basis, however often it is asked; it is not a cached verdict, so
    # a holding table on the same basis object still holds, with the plain
    # (True, None)
    fails = corpus_instances[("b42", "alpha-untwisted")].hom
    H = corpus_instances[("b42", "alpha")].hom
    holds = hom(SuperAlgebra(fails.algebra.basis, H.field, H.algebra.table), H.alpha)
    for name in ("bk-suite", "teichmuller", "cyclic-assoc"):
        rep = run_checker(name, fails, max_counterexamples=1)
        first = oracle_verdict(name, fails)
        assert first == (False, rep.counterexamples[0][0]), name
        assert oracle_verdict(name, fails) is first, name
        assert oracle_verdict(name, holds) == (True, None), name
        assert oracle_verdict(name, fails) is first, name
    rng = random.Random(6)
    A = random_graded_algebra(rng, 3, 1)
    H = hom(A, random_even_map(rng, A))
    for name in ("malcev-admissible", "jordan-admissible", "hom-malcev-3"):
        twice = [oracle_verdict(name, H) for _ in range(2)]
        assert not twice[0][0] and twice[0] is twice[1], name


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
    instances = [(corpus_instances[key], form, tup) for key, form, tup in cases]
    # and every value and nonzero claim of the corpus, at its variant and bindings
    claims = [(entry_id, c) for entry_id in corpus.ENTRY_IDS for c in corpus.claims(entry_id)
              if c.kind != "check"]
    assert len(claims) == 12
    instances += [(corpus.build(entry_id, c.variant, c.bindings), c.target, c.where) for entry_id, c in claims]
    for inst, form, tup in instances:
        F, where = inst.hom.field, (inst.entry, inst.variant, form, tup)
        a = oracle_value(form, inst.hom, tup)
        b = form_value(form, inst.hom, tup)
        assert len(a) == len(b) and all(F.eq(x, s.v) for x, s in zip(a, b)), where
        assert [F.render(x) for x in a] == [F.render(s.v) for s in b], where


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


def _assert_forms_match_oracle(H, rng, label):
    A = H.algebra
    F, names, dim = A.field, A.basis.names, A.dim
    raw = oracle._Raw(H)
    present = sorted(set(A.basis.parities))
    wrap = lambda v: tuple(Scalar(F, a) for a in v)

    def same(got, want, form):
        assert len(got) == len(want) == dim, (label, form)
        assert all(F.eq(s.v, w) for s, w in zip(got, want)), (label, form)

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
         _expand(F, dim, slots, lambda idx: raw.dense(oracle._f_raw(raw, *idx))), "f")
    same(bk_F(H, *map(wrap, slots)),
         _expand(F, dim, slots, lambda idx: raw.dense(oracle._F_functorial(raw, *idx))), "F")


def test_public_forms_match_oracle_on_combinations():
    # the public forms on non-basis vectors equal the same combination of
    # oracle values on basis tuples
    rng = random.Random(2718)
    for trial in range(12):
        dim = rng.choice([2, 3, 4])
        A = random_graded_algebra(rng, dim, rng.randint(0, dim))
        _assert_forms_match_oracle(hom(A, random_even_map(rng, A)), rng, trial)
    for label, H in _carried_instances():
        _assert_forms_match_oracle(H, rng, label)


def _raw_fields():
    yield "Q", field_for(FieldSpec("Q"))
    yield "GF(3)", field_for(FieldSpec("GF", 3))
    yield "Frac(Q[a])", field_for(FieldSpec("Q", None, ("a",)))


def _raw_vector(rng, F, n, a):
    """A random oracle vector: its nonzero coordinates, by index."""
    out = {}
    for k in range(n):
        x = F.from_fraction(Fraction(rng.choice([0, 0, 1, -1, 2, -2, 3]), rng.choice([1, 2])))
        x = F.mul(x, a) if k % 2 else x
        if not F.is_zero(x):
            out[k] = x
    return out


def test_oracle_vectors_hold_only_nonzero_payloads():
    # `iszero(u)` is `not u`, which is exact only if no operation leaves a
    # zero payload in its dict; and no operation changes its operands
    rng = random.Random(1729)
    for label, F in _raw_fields():
        a = F.monomial("a") if hasattr(F, "monomial") else F.one

        def lift(F, c, pos):  # constants at odd positions pick up the parameter
            return F.mul(F.from_fraction(Fraction(c)), a) if sum(pos) % 2 else F.from_fraction(Fraction(c))

        for trial in range(6):
            A = random_graded_algebra(rng, 3, rng.randint(0, 3))
            raw = oracle._Raw(_carried(hom(A, random_even_map(rng, A)), F, lift))
            for ops in (raw, raw.minus(), raw.plus()):
                u, v = (_raw_vector(rng, F, 3, a) for _ in range(2))
                before = [{k: F.key(x) for k, x in w.items()} for w in (u, v)]
                results = [ops.mul(u, v), ops.mul(v, u), ops.app(u), ops.app(ops.app(v)), ops.addv(u, v),
                           ops.subv(u, v), ops.subv(u, u), ops.addv(u, ops.sgnv(1, u)),
                           ops.sgnv(0, u), ops.sgnv(1, v), ops.assoc(u, v, u), ops.bra(u, v, 1),
                           ops.jac(0, 1, 0, 0, 1), *(ops.smul(k, u) for k in (1, 2, 3, 6, -1))]
                assert [{k: F.key(x) for k, x in w.items()} for w in (u, v)] == before, label
                for r in results:
                    assert isinstance(r, dict) and set(r) <= {0, 1, 2}, (label, r)
                    assert not any(F.is_zero(x) for x in r.values()), (label, r)
                assert results[6] == {} and results[7] == {}, label  # u - u, u + (-u)
                if F.spec.p == 3:
                    assert results[-3] == {} and results[-2] == {}, label  # 3u, 6u
        # e0*e0 = a e0, e1*e0 = -a e0: (e0 + e1)*e0 cancels; alpha(e0 + e1) too
        one, zero = F.one, F.zero
        table = [[(a, zero), (zero, zero)], [(F.neg(a), zero), (zero, zero)]]
        H = hom(SuperAlgebra(Basis(("e0", "e1"), (0, 0)), F, table),
                EvenLinearMap(F, [(a, zero), (F.neg(a), zero)]))
        raw, u = oracle._Raw(H), {0: one, 1: one}
        assert raw.mul(u, raw.basis(0)) == {} and raw.app(u) == {}, label
        (k, x), = raw.mul(raw.basis(0), u).items()  # a e0, nothing cancels
        assert k == 0 and F.key(x) == F.key(a), label
        assert [F.key(x) for x in raw.dense(raw.app(u))] == [F.key(zero)] * 2, label


# the checker route's kernels and sparse-vector helpers (superalg, identities)
CHECKER_KERNELS = {"_mul_payload", "apply_payload", "_nz", "acc", "scale_int", "sparse", "counterexample"}


def test_oracle_shares_no_evaluation_code():
    # the oracle is the independent second route: it may take the instance
    # type from superalg and nothing else from the checker route, and it
    # reaches none of the checker route's kernels through an attribute
    path = Path(__file__).resolve().parents[1] / "src" / "homsuper" / "oracle.py"
    imported, reached = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in CHECKER_KERNELS:
            reached.add((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and node.value in CHECKER_KERNELS:
            reached.add((node.lineno, node.value))  # getattr(x, "acc")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "homsuper" + ("." + module if module else "")
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert not any(n.startswith("homsuper.identities") for n in imported), imported
    from_superalg = {n for n in imported if n.startswith("homsuper.superalg")}
    assert from_superalg == {"homsuper.superalg.HomSuperAlgebra"}, imported
    assert not reached, sorted(reached)
