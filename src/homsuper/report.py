"""Structured outcome of a single identity check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .coeff import Field, Scalar

Vector = Tuple[Scalar, ...]
Counterexample = Tuple[Tuple[str, ...], Vector]


@dataclass
class IdentityReport:
    identity: str
    holds: bool
    counterexamples: Tuple[Counterexample, ...]
    tuples_checked: int

    def __post_init__(self):
        # holds iff there are no counterexamples (the cap never drops them all)
        if self.holds != (len(self.counterexamples) == 0):
            raise ValueError(
                f"{self.identity}: holds={self.holds} with "
                f"{len(self.counterexamples)} counterexamples"
            )

    def first_tuple(self) -> Tuple[str, ...]:
        if self.holds:
            raise ValueError(f"{self.identity}: no counterexamples")
        return self.counterexamples[0][0]

    def tuples(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(t for t, _ in self.counterexamples)


def table_report(name: str, F: Field, rows: Iterable[tuple], checked: int) -> IdentityReport:
    """The report of a table check: `rows` yields (slot names, payload
    residual) pairs, and the nonzero residuals are the counterexamples."""
    bad = tuple(
        (names, tuple(map(F.scalar, res)))
        for names, res in rows
        if any(not F.is_zero(x) for x in res)
    )
    return IdentityReport(name, not bad, bad, checked)
