import pytest

import homsuper.corpus as corpus
from homsuper.identities import run_checker
from homsuper.io import parse_algebra_file, serialize_algebra_document
from homsuper.maps import is_weak_morphism
from homsuper.oracle import oracle_value
from homsuper.suite import evaluate_claim, run_suite
from homsuper.superalg import validate


def test_every_entry_parses_and_grades():
    for entry_id in corpus.ENTRY_IDS:
        doc = corpus.load_document(entry_id)
        inst = corpus.build(entry_id, "base", corpus.suggested_bindings(entry_id))
        assert validate(inst.base).holds, entry_id


def test_documents_round_trip_through_io():
    for entry_id in corpus.ENTRY_IDS:
        doc = corpus.load_document(entry_id)
        text = serialize_algebra_document(doc)
        again = parse_algebra_file(text)
        assert again == doc, entry_id
        assert serialize_algebra_document(again) == text, entry_id


def test_endomorphism_matrices():
    # symbolic endomorphism checks, except the published non-endomorphism
    symbolic_ok = [
        ("m3-3-1", "alpha1", {}),
        ("m3-3-1", "alpha2", {}),
        ("k3-flexible", "alpha", {"a": 1, "r": -1}),
        ("dt-jordan", "alpha", {}),
        ("dt-flexible", "alpha", {}),
        ("b42", "alpha", {"a": 1, "s": 1}),
    ]
    for entry_id, variant, bindings in symbolic_ok:
        inst = corpus.build(entry_id, variant, bindings)
        assert is_weak_morphism(inst.base, inst.base, inst.map_used).holds, entry_id
    kap = corpus.build("kaplansky-k3", "alpha")
    assert not is_weak_morphism(kap.base, kap.base, kap.map_used).holds


def test_symbolic_build_respects_constraints():
    with pytest.raises(corpus.ConstraintError):
        corpus.build("k3-flexible")  # r constraint cannot hold symbolically
    with pytest.raises(corpus.ConstraintError):
        corpus.build("b42", "base", {"a": 0, "s": 1})
    with pytest.raises(corpus.ConstraintError):
        corpus.build("dt-jordan", "base", {"b": 1, "c": -1})  # 1 + bc = 0
    with pytest.raises(corpus.ConstraintError):
        corpus.build("m3-3-1", "base", {"zz": 1})
    with pytest.raises(corpus.UnknownVariantError):
        corpus.build("m3-3-1", "gamma")
    with pytest.raises(corpus.UnknownEntryError):
        corpus.entry_text("missing")


def test_build_symbolic_by_default():
    inst = corpus.build("m3-3-1", "alpha1")
    assert inst.hom.field.spec.params == ("a", "b", "c", "d")
    inst = corpus.build("m3-3-1", "alpha1", {"a": 2})
    assert inst.hom.field.spec.params == ("b", "c", "d")


def test_claimed_value_parses():
    vec = corpus.claimed_value("m3-3-1", "alpha1-J-e3-e4-e4")
    doc = corpus.load_document("m3-3-1")
    e1 = doc.basis.index("e1")
    assert repr(vec[e1].field) != ""  # parsed over the full symbolic field
    with pytest.raises(corpus.CorpusError):
        corpus.claimed_value("m3-3-1", "base-malcev")  # verdict claim
    with pytest.raises(corpus.CorpusError):
        corpus.claimed_value("m3-3-1", "missing")


def test_m3_claims():
    doc = corpus.load_document("m3-3-1")
    by_key = {c.key: c for c in doc.claims}
    row = evaluate_claim(doc, by_key["alpha1-J-e3-e4-e4"])
    assert row.status == "DISCREPANCY"
    assert "-3*a^4*e1" in row.computed
    row = evaluate_claim(doc, by_key["alpha1-twisted-e3-e4"])
    assert row.status == "PASS"
    row = evaluate_claim(doc, by_key["alpha2-even"])
    assert row.status == "DISCREPANCY"


def test_suite_has_no_failures():
    rows = run_suite()
    assert all(r.status in ("PASS", "DISCREPANCY") for r in rows)
    statuses = {(r.entry, r.key): r.status for r in rows}
    # the known-fragile published numbers surface as discrepancies, never
    # as silent passes
    assert statuses[("m3-3-1", "alpha1-J-e3-e4-e4")] == "DISCREPANCY"
    assert statuses[("b42", "j6as-claim")] == "DISCREPANCY"
    assert statuses[("b42", "alpha-not-lie-adm")] == "DISCREPANCY"
    assert statuses[("kaplansky-k3", "alpha-endo")] == "DISCREPANCY"
    assert statuses[("dt-flexible", "lieadm-residual")] == "DISCREPANCY"
    # and the healthy spine reproduces
    for key in (
        ("m3-3-1", "base-malcev"),
        ("b42", "base-alternative"),
        ("b42", "alpha-malcev-adm"),
        ("k3-flexible", "alpha-flexible"),
        ("kaplansky-k3", "alpha-jordan"),
        ("dt-jordan", "untwisted-residual"),
        ("dt-flexible", "alpha-j2s"),
    ):
        assert statuses[key] == "PASS", key


def test_dt_jordan_residual_value_matches_oracle():
    inst = corpus.build("dt-jordan", "alpha-untwisted")
    computed = oracle_value("jordan", inst.hom, ("e1", "e2", "x", "y"))
    claimed = corpus.claimed_value("dt-jordan", "untwisted-residual")
    F = inst.hom.field
    assert all(F.eq(a, s.v) for a, s in zip(computed, claimed))


def test_kaplansky_twist_is_jordan_for_symbolic_c():
    inst = corpus.build("kaplansky-k3", "alpha")
    assert run_checker("hom-jordan", inst.hom).holds
    untwisted = corpus.build("kaplansky-k3", "alpha-untwisted")
    assert not run_checker("hom-jordan", untwisted.hom).holds
