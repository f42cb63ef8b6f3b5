"""Per-case reference implementations that the tests hold tracemax to.

The lemma sweep and the search's audit evaluate each inequality of the
chain only batch-wide, through the ``_batch_*`` functions of
``tracemax.checks``, on matrices held as rows of stacked eigensystem
arrays: an ensemble's atoms, or the sweep's random matrices, one stack
per dimension. The checkers here evaluate one instance at a time, on
single ``SymMatrix`` objects, with plain matrix functions (PSD powers,
Schatten norms, traces of products), the binary-word expansion of
tr((X + Y)^p) and the single-family ``exact_trace_moment``.
``stacked_matrix`` and ``atoms`` turn a row of those arrays into a
``SymMatrix`` that carries the row's eigensystem, so a reference side is
computed from the same eigenvalues and eigenvectors as the batched one.
``test_checks`` holds every batched side to them bit for bit, and the
word and linear-algebra tests check them against numpy, mpmath and
direct matrix powers. Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from tracemax.checks import LemmaId, LemmaSummary, _bernoulli_weight, holds
from tracemax.ensembles import (
    CAP_SLACK,
    EnsembleFamily,
    FiniteEnsemble,
    _target_error,
    bernoulli_member,
    exact_trace_moment,
)
from tracemax.errors import (
    BudgetExceeded,
    ConstraintViolated,
    DimensionError,
    InvalidExponent,
    TracemaxError,
)
from tracemax.extremal import theorem_max_value
from tracemax.linalg import EigenDecomposition, SymMatrix
from tracemax.words import AlternatingWord

# Linear algebra ---------------------------------------------------------------


class NotPSD(TracemaxError):
    """A matrix required to be positive semidefinite is not, beyond tolerance."""


def stacked_matrix(entries: np.ndarray, vecs: np.ndarray, spectrum: np.ndarray) -> SymMatrix:
    """The SymMatrix of one row of stacked eigensystem arrays, with its
    eigendecomposition set to the row's (spectrum, vecs) instead of solved.

    The row's entries are exactly symmetric, so symmetrising them again
    keeps every bit.
    """
    m = SymMatrix(entries)
    m.__dict__["eig"] = EigenDecomposition(spectrum, vecs)
    return m


def atoms(member: FiniteEnsemble) -> list[SymMatrix]:
    """The member's atoms as SymMatrix objects carrying its eigensystems."""
    return [stacked_matrix(*atom) for atom in zip(member.atoms, member.vecs, member.spectra)]


def _require_caps(member: FiniteEnsemble, cap: float) -> None:
    """Raise ConstraintViolated unless every atom's norm is at most cap(1 + CAP_SLACK)."""
    for i, a in enumerate(atoms(member)):
        if a.opnorm > cap * (1.0 + CAP_SLACK):
            raise ConstraintViolated(f"atom {i} has norm {a.opnorm!r} above cap {cap!r}")


def _power(eig: EigenDecomposition, t: float) -> np.ndarray:
    """Q diag(clamp(lam)^t) Q^T with negative eigenvalues clamped to 0.

    The product is not symmetrised here: psd_power's SymMatrix does it.
    """
    lam = np.maximum(eig.eigenvalues, 0.0)
    q = eig.eigenvectors
    return (q * lam**t) @ q.T


def trace(a: SymMatrix) -> float:
    """tr(A), summed with math.fsum."""
    return math.fsum(a.entries.diagonal().tolist())


def psd_power(a: SymMatrix, t: float) -> SymMatrix:
    """Fractional matrix power A^t of a PSD matrix, t >= 0.

    Eigenvalues below the PSD tolerance raise NotPSD; tiny negatives from
    roundoff are clamped to 0 before powering.
    """
    if t < 0:
        raise InvalidExponent(f"psd_power requires t >= 0, got {t}")
    _require_psd(a)
    return SymMatrix(_power(a.eig, float(t)))


def psd_trace_power(a: SymMatrix, t: float) -> float:
    """tr(A^t) for PSD A, evaluated on the (clamped) spectrum."""
    if t < 0:
        raise InvalidExponent(f"psd_trace_power requires t >= 0, got {t}")
    _require_psd(a)
    lam = np.maximum(a.eig.eigenvalues, 0.0)
    return math.fsum((lam ** float(t)).tolist())


def _require_psd(a: SymMatrix) -> None:
    if not a.is_psd():
        raise NotPSD(
            f"min eigenvalue {a.min_eigenvalue():.6e} below tolerance {a.psd_floor:.6e}"
        )


def schatten_norm(a: SymMatrix, q: float) -> float:
    """Schatten q-norm (singular-value l_q norm) of a symmetric matrix.

    q = inf gives the operator norm; q = 1 the trace norm; q = 2 Frobenius.
    """
    sigma = np.abs(a.eig.eigenvalues)
    return schatten_from_singulars(sigma, q)


def schatten_from_singulars(sigma: np.ndarray, q: float) -> float:
    if math.isnan(q) or q < 1:
        raise InvalidExponent(f"Schatten exponent must be >= 1 or inf, got {q}")
    top = float(np.max(sigma)) if sigma.size else 0.0
    if math.isinf(q) or top == 0.0:
        return top
    # Factor out the largest singular value so sigma**q cannot overflow.
    scaled = (sigma / top) ** q
    return top * math.fsum(scaled.tolist()) ** (1.0 / q)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a general square matrix, via the spectrum of M^T M."""
    m = np.asarray(m, dtype=float)
    gram = SymMatrix(m.T @ m)
    lam = np.maximum(gram.eig.eigenvalues, 0.0)
    return np.sqrt(lam)


def trace_product(factors: Sequence[SymMatrix]) -> float:
    """tr(F1 F2 ... Fk); invariant under cyclic rotation of the factors."""
    if not factors:
        raise DimensionError("trace_product requires at least one factor")
    dims = {f.dim for f in factors}
    if len(dims) != 1:
        raise DimensionError(f"factor dims differ: {sorted(dims)}")
    if len(factors) == 1:
        return trace(factors[0])
    prod = reduce(np.matmul, (f.entries for f in factors))
    return math.fsum(prod.diagonal().tolist())


# Binary words -------------------------------------------------------------------
#
# A binary word over {X, Y} of length p is one term of the expansion of
# (X + Y)^p. Because traces are cyclically invariant, every word containing
# both letters can be rotated to the canonical shape X^l1 Y^m1 ... X^lr Y^mr
# and evaluated from its run lengths; all-X and all-Y words are pure powers
# and are handled directly.

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


# Checkers -----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """LHS <= RHS verdict for one inequality instance."""

    lemma_id: LemmaId
    lhs: float
    rhs: float
    slack: float
    passed: bool
    input_digest: str

    @property
    def norm_slack(self) -> float:
        """Slack rescaled by 1 + |rhs|; passing means >= -CHECK_TOL."""
        return self.slack / (1.0 + abs(self.rhs))


def _report(lemma_id: LemmaId, lhs: float, rhs: float, digest: str) -> CheckReport:
    lhs, rhs = float(lhs), float(rhs)
    slack = rhs - lhs
    passed = holds(lhs, rhs)
    return CheckReport(
        lemma_id=lemma_id, lhs=lhs, rhs=rhs, slack=slack, passed=passed,
        input_digest=digest,
    )


def check_holder(
    factors: Sequence[SymMatrix], exponents: Sequence[float], digest: str = ""
) -> CheckReport:
    """|A_1 ... A_r|_1 <= prod |A_i|_{p_i} with sum 1/p_i = 1."""
    if len(factors) != len(exponents) or not factors:
        raise DimensionError(
            f"need matching nonempty factors/exponents, got {len(factors)}/{len(exponents)}"
        )
    for q in exponents:
        if math.isnan(q) or q < 1:
            raise InvalidExponent(f"Holder exponents must be >= 1, got {q}")
    inverse_sum = math.fsum(0.0 if math.isinf(q) else 1.0 / q for q in exponents)
    if abs(inverse_sum - 1.0) > 1e-12:
        raise InvalidExponent(f"exponent inverses sum to {inverse_sum!r}, not 1")
    dims = {f.dim for f in factors}
    if len(dims) != 1:
        raise DimensionError(f"factor dims differ: {sorted(dims)}")

    if len(factors) == 1:
        lhs = schatten_norm(factors[0], 1)
    else:
        product = reduce(np.matmul, (f.entries for f in factors))
        lhs = schatten_from_singulars(singular_values(product), 1)
    rhs_terms = [schatten_norm(f, q) for f, q in zip(factors, exponents)]
    return _report(LemmaId.HOLDER, lhs, math.prod(rhs_terms), digest)


def _alt_sides(a: SymMatrix, b: SymMatrix, alpha_exp: float) -> tuple[SymMatrix, float]:
    """The sandwich ABA and tr(A^{2 alpha} B^alpha), which both ALT checks compare."""
    if math.isnan(alpha_exp) or alpha_exp < 1:
        raise InvalidExponent(f"need alpha >= 1, got {alpha_exp}")
    sandwich = SymMatrix(a.entries @ b.entries @ a.entries)
    return sandwich, trace_product([psd_power(a, 2.0 * alpha_exp), psd_power(b, alpha_exp)])


def check_alt(
    a: SymMatrix, b: SymMatrix, alpha_exp: float, digest: str = ""
) -> CheckReport:
    """tr((ABA)^alpha) <= tr(A^{2 alpha} B^alpha) for PSD A, B, alpha >= 1."""
    sandwich, rhs = _alt_sides(a, b, alpha_exp)
    return _report(LemmaId.ALT, psd_trace_power(sandwich, alpha_exp), rhs, digest)


def check_alt_schatten(
    a: SymMatrix, b: SymMatrix, alpha_exp: float, digest: str = ""
) -> CheckReport:
    """|ABA|_alpha <= tr(A^{2 alpha} B^alpha)^{1/alpha}."""
    sandwich, base = _alt_sides(a, b, alpha_exp)
    # The trace is nonnegative for PSD arguments; clamp roundoff before rooting.
    rhs = max(base, 0.0) ** (1.0 / alpha_exp)
    return _report(LemmaId.ALT_SCHATTEN, schatten_norm(sandwich, alpha_exp), rhs, digest)


def check_word_bound(
    x: SymMatrix, y: SymMatrix, w: AlternatingWord, digest: str = ""
) -> CheckReport:
    """|tr X^{l1} Y^{m1} ...| <= ||X||^{l-1} tr(X Y^m), degrees l, m summed."""
    lhs = abs(eval_word_trace(x, y, w))
    collapsed = trace_product([x, psd_power(y, w.y_degree)])
    rhs = x.opnorm ** (w.x_degree - 1.0) * collapsed
    return _report(LemmaId.WORD_BOUND, lhs, rhs, digest)


def check_expectation_word_bound(
    ex: FiniteEnsemble,
    ey: FiniteEnsemble,
    w: AlternatingWord,
    cap: float,
    digest: str = "",
) -> CheckReport:
    """E tr X^{l1} Y^{m1} ... <= E f^l * E tr Y^m.

    f is the {0, cap} Bernoulli surrogate with P(f = cap) = ||E X|| / cap;
    both expectations are exact sums over the product support. A cap that
    is not positive and finite raises ConstraintViolated.
    """
    if ex.dim != ey.dim:
        raise DimensionError(f"dim mismatch: {ex.dim} vs {ey.dim}")
    if error := _target_error(cap, ex.alpha):
        raise error
    _require_caps(ex, cap)
    # eval_word_trace of every pair of atoms, with each atom's powers taken once
    xs = [[psd_power(a, l) for l, _ in w.exponent_pairs] for a in atoms(ex)]
    ys = [[psd_power(a, m) for _, m in w.exponent_pairs] for a in atoms(ey)]
    lhs = math.fsum(
        px * py * trace_product([f for pair in zip(xp, yp) for f in pair])
        for px, xp in zip(ex.probs.tolist(), xs) for py, yp in zip(ey.probs.tolist(), ys)
    )
    ef_l = _bernoulli_weight(ex, cap) * cap**w.x_degree
    ey_trace = math.fsum(
        py * psd_trace_power(ay, w.y_degree) for py, ay in zip(ey.probs.tolist(), atoms(ey))
    )
    return _report(LemmaId.EXPECTATION_WORD_BOUND, lhs, ef_l * ey_trace, digest)


def check_binomial_reduction(
    ex: FiniteEnsemble, ey: FiniteEnsemble, p: int, cap: float, digest: str = ""
) -> CheckReport:
    """E tr(X + Y)^p <= E tr(f I + Y)^p with the Bernoulli surrogate f.

    Both sides are exact_trace_moment over a two-member family; the right
    one swaps X for bernoulli_member at the stated cap. The power limit is
    exact_trace_moment's, MOMENT_BUDGET. A cap that is not positive and
    finite raises ConstraintViolated.
    """
    if error := _target_error(cap, ex.alpha):
        raise error
    _require_caps(ex, cap)
    surrogate = bernoulli_member(ex.dim, cap, _bernoulli_weight(ex, cap))
    lhs = exact_trace_moment(EnsembleFamily((ex, ey)), p)
    rhs = exact_trace_moment(EnsembleFamily((surrogate, ey)), p)
    return _report(LemmaId.BINOMIAL_REDUCTION, lhs, rhs, digest)


def check_theorem_max(family: EnsembleFamily, p: int, digest: str = "") -> CheckReport:
    """Exact family moment vs the closed-form maximum for its targets."""
    lhs = exact_trace_moment(family, p)
    rhs = theorem_max_value(family.dim, family.params, p)
    return _report(LemmaId.THEOREM_MAX, lhs, rhs, digest)


def empty(lemma_id: LemmaId) -> LemmaSummary:
    """The tally of no trials."""
    return LemmaSummary(
        lemma_id=lemma_id, trials=0, passes=0, min_slack=math.inf,
        min_norm_slack=math.inf, worst_digest="",
    )


def add(summary: LemmaSummary, report: CheckReport) -> LemmaSummary:
    """The tally of summary's trials followed by the one trial of report."""
    return summary.merge(
        LemmaSummary(
            lemma_id=report.lemma_id,
            trials=1,
            passes=int(report.passed),
            min_slack=report.slack,
            min_norm_slack=report.norm_slack,
            worst_digest=report.input_digest,
        )
    )
