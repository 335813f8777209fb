"""Structured outcome of a single identity check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .coeff import Scalar

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

    def __eq__(self, other):
        if not isinstance(other, IdentityReport):
            return NotImplemented
        if (
            self.identity != other.identity
            or self.holds != other.holds
            or self.tuples_checked != other.tuples_checked
            or len(self.counterexamples) != len(other.counterexamples)
        ):
            return False
        for (t1, r1), (t2, r2) in zip(self.counterexamples, other.counterexamples):
            if t1 != t2 or len(r1) != len(r2):
                return False
            if any(not (a == b) for a, b in zip(r1, r2)):
                return False
        return True
