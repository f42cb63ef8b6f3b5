"""Exact extremal trace-moment values.

The maximizing ensembles are scaled Bernoullis f_k in {0, L_k} with
P(f_k = L_k) = alpha_k, so the extremal value of the expected trace moment
is n * E(f_1 + ... + f_N)^p. That scalar moment is computed exactly by a
raw-moment dynamic program over the partial sums: incorporating one more
summand maps the moment vector mu_j = E S^j through a binomial
recombination with E f^s = alpha * L^s. Cost is O(N p^2) with no support
enumeration, so it stays exact for distinct caps where the support would
have 2^N points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BudgetExceeded, ConstraintViolated, DimensionError, InvalidExponent

# Binomial coefficients are exact in float64 up to this p; larger moments
# risk rounding in the recombination, so the computation refuses them.
MOMENT_BUDGET = 30

_BINOM = [[float(math.comb(j, i)) for i in range(MOMENT_BUDGET + 1)]
          for j in range(MOMENT_BUDGET + 1)]


def _target_error(cap: float, alpha: float) -> ConstraintViolated | None:
    """The error of an unmeetable target: a cap not positive and finite, or alpha outside [0, 1]."""
    if not 0.0 < cap < math.inf:
        return ConstraintViolated(f"cap must be positive and finite, got {cap}")
    if not 0.0 <= alpha <= 1.0:
        return ConstraintViolated(f"alpha must lie in [0, 1], got {alpha}")
    return None


@dataclass(frozen=True)
class BernoulliParams:
    """Finite norm caps L_k > 0 and expectation fractions alpha_k in [0, 1]."""

    caps: tuple[float, ...]
    alphas: tuple[float, ...]

    def __post_init__(self):
        caps = tuple(float(v) for v in self.caps)
        alphas = tuple(float(v) for v in self.alphas)
        if len(caps) != len(alphas) or len(caps) < 1:
            raise DimensionError(
                f"need equal, nonempty cap/alpha lists, got {len(caps)}/{len(alphas)}"
            )
        for cap, alpha in zip(caps, alphas):
            if error := _target_error(cap, alpha):
                raise error
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "alphas", alphas)

    @property
    def count(self) -> int:
        return len(self.caps)


def _validate_p(p: int) -> int:
    if p != int(p) or p < 1:
        raise InvalidExponent(f"moment order must be a positive integer, got {p}")
    if p > MOMENT_BUDGET:
        raise BudgetExceeded(f"moment order {p} exceeds budget {MOMENT_BUDGET}")
    return int(p)


def partial_sum_moments(params: BernoulliParams, p: int) -> list[list[float]]:
    """Raw moments E S_k^j (j = 0..p) of each partial sum S_k = f_1+...+f_k.

    Element [k] is the moment vector after incorporating the first k
    summands; element [0] belongs to the empty sum. Raises BudgetExceeded
    if a moment overflows float64.
    """
    p = _validate_p(p)
    mu = [1.0] + [0.0] * p
    history = [list(mu)]
    try:
        for cap, alpha in zip(params.caps, params.alphas):
            fpow = [1.0] + [alpha * cap**s for s in range(1, p + 1)]
            binom = _BINOM
            mu = [
                math.fsum(binom[j][j - i] * mu[i] * fpow[j - i] for i in range(j + 1))
                for j in range(p + 1)
            ]
            history.append(list(mu))
    except OverflowError:
        mu = [math.inf]
    if not all(map(math.isfinite, mu)):  # an infinite moment stays inf or NaN
        raise BudgetExceeded(f"moment of order {p} overflows, largest cap {max(params.caps)}")
    return history


def bernoulli_sum_moment(params: BernoulliParams, p: int) -> float:
    """Exact E(f_1 + ... + f_N)^p for independent scaled Bernoullis."""
    return partial_sum_moments(params, p)[-1][-1]


def bernoulli_sum_moment_enum(params: BernoulliParams, p: int) -> float:
    """Brute-force 2^N outcome enumeration of the same moment (cross-check)."""
    p = _validate_p(p)
    if params.count > 20:
        raise BudgetExceeded(f"enumeration over 2^{params.count} outcomes refused")
    terms = []
    for bits in itertools.product((0, 1), repeat=params.count):
        prob = 1.0
        total = 0.0
        for b, cap, alpha in zip(bits, params.caps, params.alphas):
            prob *= alpha if b else (1.0 - alpha)
            if b:
                total += cap
        terms.append(prob * total**p)
    return math.fsum(terms)


def theorem_max_value(n: int, params: BernoulliParams, p: int) -> float:
    """Largest expected trace moment among admissible n x n ensembles.

    Equals n * E(sum f_k)^p: the maximizing matrices are f_k * I, and the
    trace contributes one copy of the scalar moment per dimension.
    """
    if n < 1 or n != int(n):
        raise DimensionError(f"dimension must be a positive integer, got {n}")
    value = n * bernoulli_sum_moment(params, p)
    if math.isinf(value):
        raise BudgetExceeded(f"the maximum at n={n}, p={p} overflows float64")
    return value


@dataclass(frozen=True)
class CorollaryRow:
    n: int
    p: int
    value: float
    ratio: float


def corollary_growth(
    n_grid: list[int], p_grid: list[int]
) -> tuple[list[CorollaryRow], float]:
    """Moment growth table for the balanced case caps = 1, alphas = 1/n.

    ``value`` is the p-th moment of Binomial(n, 1/n); ``ratio`` is
    value^(1/p) * log(p) / p * n^(-1/p), whose grid supremum is the
    empirical growth constant. The supremum is reported, never asserted
    against a fixed number.
    """
    for entry in itertools.chain(n_grid, p_grid):
        if entry < 2:
            raise InvalidExponent(f"grid entries must be >= 2, got {entry}")
    rows = []
    for n in n_grid:
        params = BernoulliParams(caps=(1.0,) * n, alphas=(1.0 / n,) * n)
        moments = partial_sum_moments(params, max(p_grid))
        for p in p_grid:
            value = moments[-1][p]
            ratio = value ** (1.0 / p) * math.log(p) / p * n ** (-1.0 / p)
            rows.append(CorollaryRow(n=n, p=p, value=value, ratio=ratio))
    supremum = max(row.ratio for row in rows)
    return rows, supremum
