"""Alternating words in two PSD matrices.

A binary word over {X, Y} of length p is one term of the expansion of
(X + Y)^p. Because traces are cyclically invariant, every word containing
both letters can be rotated to the canonical shape
X^l1 Y^m1 ... X^lr Y^mr and evaluated from its run lengths; all-X and
all-Y words are pure powers and are handled directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BudgetExceeded, InvalidExponent
from .linalg import SymMatrix, psd_power, psd_trace_power, trace_product

# 2^p words are enumerated explicitly; beyond this the expansion is refused.
WORD_BUDGET = 20


@dataclass(frozen=True)
class BinaryWord:
    """Word over the alphabet {X, Y}, stored as a string like 'XXYXY'."""

    letters: str

    def __post_init__(self):
        if len(self.letters) < 1:
            raise InvalidExponent("binary word must have length >= 1")
        bad = set(self.letters) - {"X", "Y"}
        if bad:
            raise InvalidExponent(f"letters outside alphabet {{X, Y}}: {bad}")

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class PurePower:
    """Marker for all-X or all-Y words, which have no alternating form."""

    letter: str
    power: int


@dataclass(frozen=True)
class AlternatingWord:
    """Exponent pairs ((l1, m1), ..., (lr, mr)) of X^l1 Y^m1 ... X^lr Y^mr.

    Exponents are reals >= 1; fractional values are allowed and evaluated
    through PSD fractional powers.
    """

    exponent_pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = tuple((float(l), float(m)) for l, m in self.exponent_pairs)
        if len(pairs) < 1:
            raise InvalidExponent("alternating word needs at least one pair")
        for l, m in pairs:
            if l < 1 or m < 1:
                raise InvalidExponent(f"exponents must be >= 1, got ({l}, {m})")
        object.__setattr__(self, "exponent_pairs", pairs)

    @property
    def x_degree(self) -> float:
        return math.fsum(l for l, _ in self.exponent_pairs)

    @property
    def y_degree(self) -> float:
        return math.fsum(m for _, m in self.exponent_pairs)


def enumerate_binary_words(p: int) -> list[BinaryWord]:
    """All 2^p binary words of length p in lexicographic order (X < Y)."""
    if not 1 <= p <= WORD_BUDGET:
        raise BudgetExceeded(f"word length {p} outside budget [1, {WORD_BUDGET}]")
    return [
        BinaryWord("".join(tup)) for tup in itertools.product("XY", repeat=p)
    ]


def _canonical_rotation(letters: str) -> str:
    # Rotations may only start where a cyclic X-run begins (previous letter Y);
    # ties between valid starts are broken by the smallest rotated string.
    starts = [
        i for i in range(len(letters)) if letters[i] == "X" and letters[i - 1] == "Y"
    ]
    return min(letters[i:] + letters[:i] for i in starts)


def to_alternating(w: BinaryWord) -> AlternatingWord | PurePower:
    """Canonical alternating form of a binary word, or a pure-power marker."""
    s = w.letters
    if "X" not in s or "Y" not in s:
        return PurePower(s[0], len(s))
    s = _canonical_rotation(s)
    runs = [(ch, len(list(grp))) for ch, grp in itertools.groupby(s)]
    # Canonical form starts with an X-run and ends with a Y-run.
    pairs = tuple(
        (float(runs[i][1]), float(runs[i + 1][1])) for i in range(0, len(runs), 2)
    )
    return AlternatingWord(pairs)


def eval_word_trace(x: SymMatrix, y: SymMatrix, w: AlternatingWord) -> float:
    """tr(X^l1 Y^m1 ... X^lr Y^mr) with powers taken through PSD powers."""
    factors = []
    for l, m in w.exponent_pairs:
        factors.append(psd_power(x, l))
        factors.append(psd_power(y, m))
    return trace_product(factors)


def expand_trace_power(x: SymMatrix, y: SymMatrix, p: int) -> float:
    """tr((X + Y)^p) as the explicit sum over all 2^p binary words.

    Words are grouped by canonical alternating form (trace is invariant
    under cyclic rotation), each class is evaluated once from precomputed
    integer powers of X and Y, and the class values are recombined with
    compensated summation.
    """
    words = enumerate_binary_words(p)
    classes: dict[object, int] = {}
    for w in words:
        form = to_alternating(w)
        key = form if isinstance(form, PurePower) else form.exponent_pairs
        classes[key] = classes.get(key, 0) + 1

    xpow = _integer_powers(x, p)
    ypow = _integer_powers(y, p)
    terms = []
    for key, count in classes.items():
        if isinstance(key, PurePower):
            base = x if key.letter == "X" else y
            value = psd_trace_power(base, key.power)
        else:
            mats = []
            for l, m in key:
                mats.append(xpow[int(l)])
                mats.append(ypow[int(m)])
            prod = reduce(np.matmul, mats)
            value = math.fsum(prod.diagonal().tolist())
        terms.append(count * value)
    return math.fsum(terms)


def _integer_powers(a: SymMatrix, p: int) -> dict[int, np.ndarray]:
    pows = {1: a.entries}
    for k in range(2, p + 1):
        pows[k] = pows[k - 1] @ a.entries
    return pows
