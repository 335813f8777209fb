"""Convention attribution: every corpus claim replayed under another reading.

A convention is a function from parsed document to parsed document; it is
applied to the whole entry and every claim is replayed through
`suite.evaluate_claim`.  A convention explains a discrepancy only if it
turns that claim into PASS and turns no PASS claim of the same entry into
anything else.  No corpus file is edited.
"""

from collections import Counter
from dataclasses import replace

import pytest

import homsuper.corpus as corpus
from homsuper.suite import evaluate_claim

CONVENTIONS = {
    # mu'(x, y) = mu(y, x): table[i][j] := table[j][i]
    "opposite": lambda doc: replace(doc, table=[list(col) for col in zip(*doc.table)]),
    # the super signs dropped: every basis element even, in the same order
    "ungraded": lambda doc: replace(doc, even=doc.even + doc.odd, odd=()),
}


def _statuses(doc):
    return {c.key: evaluate_claim(doc, c).status for c in doc.claims}


@pytest.fixture(scope="module")
def replayed():
    """entry -> (statuses as stated, {convention: statuses under it})."""
    out = {}
    for entry_id in corpus.ENTRY_IDS:
        doc = corpus.load_document(entry_id)
        out[entry_id] = (_statuses(doc), {n: _statuses(f(doc)) for n, f in CONVENTIONS.items()})
    return out


def _changes(replayed, convention):
    """entry -> {claim key: (status as stated, status under the convention)}."""
    return {
        entry_id: {k: (s, moved[convention][k]) for k, s in stated.items() if moved[convention][k] != s}
        for entry_id, (stated, moved) in replayed.items()
    }


def _explained(replayed, convention):
    """The discrepancies a convention turns into PASS, in entries where it
    turns no PASS claim into anything else."""
    return {
        (entry_id, k)
        for entry_id, changed in _changes(replayed, convention).items()
        if all(before != "PASS" for before, _ in changed.values())
        for k, move in changed.items() if move == ("DISCREPANCY", "PASS")
    }


def _tally(statuses):
    counts = Counter(statuses.values())
    return counts["PASS"], counts["DISCREPANCY"]


def test_opposite_product(replayed):
    tallies = {e: (_tally(stated), _tally(moved["opposite"])) for e, (stated, moved) in replayed.items()}
    assert tallies == {
        "m3-3-1": ((12, 2), (10, 4)),
        "b42": ((12, 3), (13, 2)),
        "k3-flexible": ((8, 2), (9, 1)),
        "kaplansky-k3": ((4, 2), (4, 2)),
        "dt-jordan": ((7, 0), (6, 1)),
        "dt-flexible": ((10, 3), (10, 3)),
    }
    disc, passed = ("PASS", "DISCREPANCY"), ("DISCREPANCY", "PASS")
    assert _changes(replayed, "opposite") == {
        "m3-3-1": {"alpha1-twisted-e3-e4": disc, "alpha2-twisted-e3-e4": disc},
        "b42": {"untwisted-as-sum": passed},
        "k3-flexible": {"twisted-e2-e3": passed},
        "kaplansky-k3": {},
        "dt-jordan": {"untwisted-residual": disc},
        "dt-flexible": {},
    }


def test_every_element_even(replayed):
    changes = _changes(replayed, "ungraded")
    moves = Counter(move for changed in changes.values() for move in changed.values())
    assert moves == {("PASS", "FAIL"): 29, ("DISCREPANCY", "PASS"): 3}
    failed = {e: sum(m[1] == "FAIL" for m in changed.values()) for e, changed in changes.items()}
    assert failed == {
        "m3-3-1": 6, "b42": 6, "k3-flexible": 4, "kaplansky-k3": 4, "dt-jordan": 4, "dt-flexible": 5,
    }
    passed = {(e, k) for e, changed in changes.items() for k, m in changed.items() if m[1] == "PASS"}
    assert passed == {
        ("m3-3-1", "alpha2-even"),
        ("k3-flexible", "base-malcev-adm-generic"),
        ("dt-flexible", "base-malcev-adm-generic"),
    }


def test_which_discrepancies_a_convention_explains(replayed):
    assert _explained(replayed, "opposite") == {
        ("b42", "untwisted-as-sum"),
        ("k3-flexible", "twisted-e2-e3"),
    }
    # the ungraded reading breaks PASS claims in every entry, so it explains none
    assert _explained(replayed, "ungraded") == set()
