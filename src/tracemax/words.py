"""Alternating words in two PSD matrices.

An alternating word X^l1 Y^m1 ... X^lr Y^mr is stored by its exponent
pairs. The word bounds of the lemma sweep draw such words and evaluate
their traces batch-wide (see tracemax.checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidExponent


@dataclass(frozen=True)
class AlternatingWord:
    """Exponent pairs ((l1, m1), ..., (lr, mr)) of X^l1 Y^m1 ... X^lr Y^mr.

    Exponents are finite reals >= 1; fractional values are allowed and
    evaluated through PSD fractional powers.
    """

    exponent_pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = tuple((float(l), float(m)) for l, m in self.exponent_pairs)
        if len(pairs) < 1:
            raise InvalidExponent("alternating word needs at least one pair")
        for l, m in pairs:
            if not (1 <= l < math.inf and 1 <= m < math.inf):  # NaN fails too
                raise InvalidExponent(f"exponents must be finite and >= 1, got ({l}, {m})")
        object.__setattr__(self, "exponent_pairs", pairs)

    @property
    def x_degree(self) -> float:
        return math.fsum(l for l, _ in self.exponent_pairs)

    @property
    def y_degree(self) -> float:
        return math.fsum(m for _, m in self.exponent_pairs)
