"""Binary/alternating words and the (X+Y)^p trace expansion.

The expansion oracle is numpy's matrix_power on the summed matrix, which
shares no code with the word-by-word evaluation path.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import assert_close, psd_pairs, random_psd, seeds
from oracles import (
    BinaryWord,
    PurePower,
    enumerate_binary_words,
    eval_word_trace,
    expand_trace_power,
    to_alternating,
)
from tracemax import (
    AlternatingWord,
    BudgetExceeded,
    InvalidExponent,
    SymMatrix,
    stream,
)


def test_binary_word_validation():
    with pytest.raises(InvalidExponent):
        BinaryWord("")
    with pytest.raises(InvalidExponent):
        BinaryWord("XZY")
    assert len(BinaryWord("XXY")) == 3


def test_enumerate_counts():
    assert len(enumerate_binary_words(1)) == 2
    assert len(enumerate_binary_words(6)) == 64
    words = enumerate_binary_words(3)
    assert len({w.letters for w in words}) == 8


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_binary_words(21)
    with pytest.raises(BudgetExceeded):
        enumerate_binary_words(0)


def test_pure_powers():
    assert to_alternating(BinaryWord("XXX")) == PurePower("X", 3)
    assert to_alternating(BinaryWord("Y")) == PurePower("Y", 1)


def test_alternating_form_examples():
    assert to_alternating(BinaryWord("XY")).exponent_pairs == ((1.0, 1.0),)
    assert to_alternating(BinaryWord("XXYXY")).exponent_pairs == ((2.0, 1.0), (1.0, 1.0))
    # XYX rotates to XXY: a single run pair
    assert to_alternating(BinaryWord("XYX")).exponent_pairs == ((2.0, 1.0),)
    assert to_alternating(BinaryWord("YYX")).exponent_pairs == ((1.0, 2.0),)


@given(seeds, st.integers(min_value=2, max_value=10))
def test_canonical_form_is_rotation_invariant(seed, p):
    rng = stream(seed, 201)
    letters = "".join(rng.choice(["X", "Y"], size=p))
    word = BinaryWord(letters)
    if len(set(letters)) == 1:
        return
    canon = to_alternating(word)
    for shift in range(1, p):
        rotated = BinaryWord(letters[shift:] + letters[:shift])
        assert to_alternating(rotated) == canon


def test_letters_roundtrip():
    w = to_alternating(BinaryWord("XXYXYYY"))
    letters = "".join("X" * int(l) + "Y" * int(m) for l, m in w.exponent_pairs)
    assert to_alternating(BinaryWord(letters)) == w


def test_alternating_word_validation():
    with pytest.raises(InvalidExponent):
        AlternatingWord(exponent_pairs=())
    with pytest.raises(InvalidExponent):
        AlternatingWord(exponent_pairs=((0.5, 1.0),))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_alternating_word_rejects_non_finite_exponents(bad):
    # NaN compares False with everything, so a check written as "l < 1"
    # would let it through with a NaN degree
    for pairs in (((bad, 1.0),), ((1.0, bad),), ((2.0, 1.0), (bad, bad))):
        with pytest.raises(InvalidExponent, match="finite"):
            AlternatingWord(exponent_pairs=pairs)


def test_degrees():
    w = AlternatingWord(exponent_pairs=((2.0, 1.0), (1.5, 3.0)))
    assert w.x_degree == 3.5
    assert w.y_degree == 4.0


def test_eval_scalars_multiply():
    x = SymMatrix(np.array([[2.0]]))
    y = SymMatrix(np.array([[3.0]]))
    w = AlternatingWord(exponent_pairs=((2.0, 1.0),))
    assert_close(eval_word_trace(x, y, w), 12.0)


@given(psd_pairs(max_dim=4))
def test_eval_matches_direct_matmul(pair):
    x, y, _ = pair
    w = AlternatingWord(exponent_pairs=((2.0, 1.0), (1.0, 3.0)))
    direct = float(
        np.trace(
            np.linalg.matrix_power(x.entries, 2)
            @ y.entries
            @ x.entries
            @ np.linalg.matrix_power(y.entries, 3)
        )
    )
    assert_close(eval_word_trace(x, y, w), direct, rel=1e-10, abs_tol=1e-10)


@given(psd_pairs(max_dim=4))
def test_eval_invariant_under_pair_rotation(pair):
    x, y, _ = pair
    w = AlternatingWord(exponent_pairs=((1.0, 2.0), (3.0, 1.0)))
    rotated = AlternatingWord(exponent_pairs=((3.0, 1.0), (1.0, 2.0)))
    assert_close(
        eval_word_trace(x, y, w),
        eval_word_trace(x, y, rotated),
        rel=1e-10,
        abs_tol=1e-10,
    )


@given(psd_pairs(max_dim=4), st.integers(min_value=1, max_value=10))
def test_expand_matches_direct_power(pair, p):
    x, y, _ = pair
    direct = float(np.trace(np.linalg.matrix_power(x.entries + y.entries, p)))
    assert_close(expand_trace_power(x, y, p), direct, rel=1e-9, abs_tol=1e-9)


def test_expand_degenerate_summands():
    x = random_psd(3, stream(17), 1.0)
    zero = SymMatrix(np.zeros((3, 3)))
    assert_close(
        expand_trace_power(x, zero, 3),
        float(np.trace(np.linalg.matrix_power(x.entries, 3))),
        rel=1e-12,
    )
    assert_close(
        expand_trace_power(x, x, 4),
        2.0**4 * float(np.trace(np.linalg.matrix_power(x.entries, 4))),
        rel=1e-11,
    )


def test_expand_budget():
    x = SymMatrix(np.eye(2))
    with pytest.raises(BudgetExceeded):
        expand_trace_power(x, x, 21)
