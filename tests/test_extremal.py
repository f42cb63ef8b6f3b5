"""Exact Bernoulli-sum moments: DP vs brute force, plus the growth table."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from conftest import assert_close, seeds
from tracemax import (
    BernoulliParams,
    BudgetExceeded,
    ConstraintViolated,
    DimensionError,
    InvalidExponent,
    bernoulli_sum_moment,
    bernoulli_sum_moment_enum,
    corollary_growth,
    partial_sum_moments,
    stream,
    theorem_max_value,
)


def enum_moment(caps, alphas, p):
    """Independent 2^N oracle, sharing no code with the library's version."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(caps)):
        prob = math.prod(a if b else 1 - a for b, a in zip(bits, alphas))
        value = sum(c for b, c in zip(bits, caps) if b)
        total += prob * value**p
    return total


def random_params(seed, max_members=6):
    rng = stream(seed, 301)
    count = int(rng.integers(1, max_members + 1))
    caps = tuple(float(v) for v in rng.uniform(0.2, 3.0, size=count))
    alphas = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=count))
    return BernoulliParams(caps=caps, alphas=alphas)


def test_linear_case():
    params = BernoulliParams(caps=(2.0, 0.5), alphas=(0.25, 0.75))
    assert_close(bernoulli_sum_moment(params, 1), 0.25 * 2.0 + 0.75 * 0.5)


def test_single_bernoulli():
    params = BernoulliParams(caps=(1.7,), alphas=(0.3,))
    assert_close(bernoulli_sum_moment(params, 5), 0.3 * 1.7**5)


def test_two_fair_coins_second_moment():
    # outcomes 0,1,1,2 with probability 1/4 each: E S^2 = 6/4
    params = BernoulliParams(caps=(1.0, 1.0), alphas=(0.5, 0.5))
    assert bernoulli_sum_moment(params, 2) == 1.5


@given(seeds, st.integers(min_value=1, max_value=10))
def test_dp_matches_enumeration(seed, p):
    params = random_params(seed)
    dp = bernoulli_sum_moment(params, p)
    brute = enum_moment(params.caps, params.alphas, p)
    assert_close(dp, brute, rel=1e-12, abs_tol=1e-300)
    assert_close(bernoulli_sum_moment_enum(params, p), brute, rel=1e-12)


@given(seeds, st.integers(min_value=1, max_value=8))
def test_monotone_in_alpha_and_cap(seed, p):
    params = random_params(seed, max_members=4)
    base = bernoulli_sum_moment(params, p)
    rng = stream(seed, 302)
    k = int(rng.integers(params.count))
    bumped_alpha = tuple(
        min(1.0, a + 0.1) if i == k else a for i, a in enumerate(params.alphas)
    )
    bumped_cap = tuple(
        c * 1.1 if i == k else c for i, c in enumerate(params.caps)
    )
    up_alpha = bernoulli_sum_moment(
        BernoulliParams(caps=params.caps, alphas=bumped_alpha), p
    )
    up_cap = bernoulli_sum_moment(
        BernoulliParams(caps=bumped_cap, alphas=params.alphas), p
    )
    slack = 1e-12 * (1.0 + abs(base))
    assert up_alpha >= base - slack
    assert up_cap >= base - slack


@given(seeds, st.integers(min_value=1, max_value=8))
def test_jensen_floor(seed, p):
    params = random_params(seed)
    mean = math.fsum(c * a for c, a in zip(params.caps, params.alphas))
    moment = bernoulli_sum_moment(params, p)
    assert moment >= mean**p - 1e-12 * (1.0 + mean**p)


@given(seeds, st.integers(min_value=1, max_value=8), st.floats(min_value=0.1, max_value=5.0))
def test_scaling_is_exact_power(seed, p, c):
    params = random_params(seed, max_members=4)
    scaled = BernoulliParams(
        caps=tuple(c * v for v in params.caps), alphas=params.alphas
    )
    assert_close(
        bernoulli_sum_moment(scaled, p),
        c**p * bernoulli_sum_moment(params, p),
        rel=1e-12,
        abs_tol=1e-300,
    )


def test_partial_history_telescopes():
    params = random_params(12)
    history = partial_sum_moments(params, 6)
    assert history[0] == [1.0] + [0.0] * 6
    assert len(history) == params.count + 1
    assert history[-1][6] == bernoulli_sum_moment(params, 6)
    # prefix k of the history equals the DP on the first k members
    for k in range(1, params.count):
        prefix = BernoulliParams(caps=params.caps[:k], alphas=params.alphas[:k])
        assert history[k][6] == bernoulli_sum_moment(prefix, 6)


def test_theorem_value_examples():
    params = BernoulliParams(caps=(2.0,), alphas=(0.5,))
    assert theorem_max_value(2, params, 3) == 2 * 0.5 * 8.0
    many = random_params(9)
    mean = math.fsum(c * a for c, a in zip(many.caps, many.alphas))
    assert_close(theorem_max_value(3, many, 1), 3 * mean)


def test_theorem_value_matches_enumeration():
    params = BernoulliParams(caps=(1.0, 1.0, 1.0), alphas=(1 / 3, 1 / 3, 1 / 3))
    assert_close(
        theorem_max_value(3, params, 4),
        3 * enum_moment(params.caps, params.alphas, 4),
        rel=1e-12,
    )


def test_validation_errors():
    with pytest.raises(DimensionError):
        BernoulliParams(caps=(1.0,), alphas=(0.5, 0.5))
    with pytest.raises(ConstraintViolated):
        BernoulliParams(caps=(0.0,), alphas=(0.5,))
    with pytest.raises(ConstraintViolated):
        BernoulliParams(caps=(1.0,), alphas=(1.5,))
    params = BernoulliParams(caps=(1.0,), alphas=(0.5,))
    with pytest.raises(InvalidExponent):
        bernoulli_sum_moment(params, 0)
    with pytest.raises(BudgetExceeded):
        bernoulli_sum_moment(params, 31)
    with pytest.raises(DimensionError):
        theorem_max_value(0, params, 2)


def test_enum_refuses_wide_supports():
    params = BernoulliParams(caps=(1.0,) * 21, alphas=(0.5,) * 21)
    with pytest.raises(BudgetExceeded):
        bernoulli_sum_moment_enum(params, 2)


def test_corollary_base_case():
    rows, supremum = corollary_growth([2], [2])
    assert len(rows) == 1
    row = rows[0]
    assert row.value == 1.5
    assert_close(row.ratio, 1.5**0.5 * math.log(2) / 2 * 2**-0.5)
    assert supremum == row.ratio


def _stirling2(p):
    """Stirling numbers of the second kind S(p, k) for k = 0..p."""
    row = [1]
    for m in range(1, p + 1):
        nxt = [0] * (m + 1)
        for k in range(1, m + 1):
            nxt[k] = k * (row[k] if k < m else 0) + row[k - 1]
        row = nxt
    return row


def test_corollary_balanced_moment_against_stirling_oracle():
    """E Binomial(n, 1/n)^p = sum_k S(p,k) prod_{i<k} (1 - i/n), rising to
    the Bell number as n grows."""
    p = 6
    stirling = _stirling2(p)
    rows, _ = corollary_growth([10, 50], [p])
    by_n = {r.n: r.value for r in rows}
    for n in (10, 50):
        expected = math.fsum(
            stirling[k] * math.prod(1.0 - i / n for i in range(k))
            for k in range(p + 1)
        )
        assert_close(by_n[n], expected, rel=1e-12, abs_tol=0.0)
    bell = sum(stirling)
    assert bell == 203
    assert by_n[10] < by_n[50] < bell


def test_corollary_ratio_consistency():
    rows, _ = corollary_growth([2, 3], [2, 3, 4])
    for row in rows:
        expected = row.value ** (1.0 / row.p) * math.log(row.p) / row.p * row.n ** (-1.0 / row.p)
        assert_close(row.ratio, expected, rel=1e-15)


def test_corollary_rejects_small_entries():
    with pytest.raises(InvalidExponent):
        corollary_growth([1, 2], [2])
    with pytest.raises(InvalidExponent):
        corollary_growth([2], [2, 1])
