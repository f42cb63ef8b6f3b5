"""Executable checkers for the trace-inequality chain.

Each checker evaluates both sides of one inequality on concrete inputs
and returns a CheckReport with the raw numbers. The chain runs from the
generalized Holder bound through the Araki-Lieb-Thirring step, word
bounds, their expectation versions, the Bernoulli reduction, and finally
the extremal theorem itself. A single failing report on admissible inputs
means an implementation bug, never a counterexample, so sweeps treat any
failure as build-breaking.

Expectations are always exact sums over finite product supports; no
checker uses Monte Carlo, so there are no statistical false alarms.

The randomized sweep runs its trials in batches, each in four phases:
draw every trial's inputs from its own streams, recording random PSD
matrices as numbers; build all recorded matrices, one call per dimension;
sample the trials' ensembles through the batched sampler; evaluate the six
checkers trial by trial. Every stream is drawn from in the order of a
trial run alone and every matrix is built bit for bit as it is alone, so
the batches change no output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Sequence

import numpy as np

from .ensembles import (
    EnsembleFamily,
    FiniteEnsemble,
    _sample,
    bernoulli_member,
    exact_trace_moment,
    require_caps,
)
from .errors import DimensionError, InvalidExponent, TracemaxError
from .extremal import theorem_max_value
from .linalg import (
    SymMatrix,
    _spectral_build,
    _spectral_draw,
    psd_power,
    psd_trace_power,
    schatten_norm,
    schatten_from_singulars,
    singular_values,
    trace_product,
)
from .parallel import parallel_map
from .rng import stream
from .words import AlternatingWord, eval_word_trace

CHECK_TOL = 1e-9

# Exponent grid exercised by the randomized sweep.
ALT_EXPONENTS = (1.0, 1.5, 2.0, 3.0)

# The sweep runs trials in blocks of _BLOCK_TRIALS, one parallel task
# each; a block runs its trials in batches of _BATCH_TRIALS. A batch holds
# every matrix and ensemble of its trials at once, so its size trades
# per-call overhead against peak memory: on the 512-trial benchmark sweep,
# 256-trial batches raised the peak RSS by 16% and 32-trial batches by 2.4%.
_BLOCK_TRIALS = 256
_BATCH_TRIALS = 32


class LemmaId(str, Enum):
    HOLDER = "Holder"
    ALT = "ALT"
    ALT_SCHATTEN = "ALT_Schatten"
    WORD_BOUND = "WordBound"
    EXPECTATION_WORD_BOUND = "ExpectationWordBound"
    BINOMIAL_REDUCTION = "BinomialReduction"
    THEOREM_MAX = "TheoremMax"


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


def holds(lhs: float, rhs: float) -> bool:
    """The pass rule of every check: lhs <= rhs up to CHECK_TOL * (1 + |rhs|)."""
    return lhs <= rhs + CHECK_TOL * (1.0 + abs(rhs))


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


def _psd_sandwich(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    return SymMatrix(a.entries @ b.entries @ a.entries)


def check_alt(
    a: SymMatrix, b: SymMatrix, alpha_exp: float, digest: str = ""
) -> CheckReport:
    """tr((ABA)^alpha) <= tr(A^{2 alpha} B^alpha) for PSD A, B, alpha >= 1."""
    if math.isnan(alpha_exp) or alpha_exp < 1:
        raise InvalidExponent(f"need alpha >= 1, got {alpha_exp}")
    lhs = psd_trace_power(_psd_sandwich(a, b), alpha_exp)
    rhs = trace_product([psd_power(a, 2.0 * alpha_exp), psd_power(b, alpha_exp)])
    return _report(LemmaId.ALT, lhs, rhs, digest)


def check_alt_schatten(
    a: SymMatrix, b: SymMatrix, alpha_exp: float, digest: str = ""
) -> CheckReport:
    """|ABA|_alpha <= tr(A^{2 alpha} B^alpha)^{1/alpha}."""
    if math.isnan(alpha_exp) or alpha_exp < 1:
        raise InvalidExponent(f"need alpha >= 1, got {alpha_exp}")
    lhs = schatten_norm(_psd_sandwich(a, b), alpha_exp)
    base = trace_product([psd_power(a, 2.0 * alpha_exp), psd_power(b, alpha_exp)])
    # The trace is nonnegative for PSD arguments; clamp roundoff before rooting.
    rhs = max(base, 0.0) ** (1.0 / alpha_exp)
    return _report(LemmaId.ALT_SCHATTEN, lhs, rhs, digest)


def check_word_bound(
    x: SymMatrix, y: SymMatrix, w: AlternatingWord, digest: str = ""
) -> CheckReport:
    """|tr X^{l1} Y^{m1} ...| <= ||X||^{l-1} tr(X Y^m), degrees l, m summed."""
    lhs = abs(eval_word_trace(x, y, w))
    collapsed = trace_product([x, psd_power(y, w.y_degree)])
    rhs = x.opnorm ** (w.x_degree - 1.0) * collapsed
    return _report(LemmaId.WORD_BOUND, lhs, rhs, digest)


def _bernoulli_weight(ex: FiniteEnsemble, cap: float) -> float:
    # ||E X|| <= cap holds whenever all atoms respect the cap; clamp the
    # quotient so roundoff cannot produce a probability above 1.
    return min(ex.mean_norm / cap, 1.0)


def check_expectation_word_bound(
    ex: FiniteEnsemble,
    ey: FiniteEnsemble,
    w: AlternatingWord,
    cap: float,
    digest: str = "",
) -> CheckReport:
    """E tr X^{l1} Y^{m1} ... <= E f^l * E tr Y^m.

    f is the {0, cap} Bernoulli surrogate with P(f = cap) = ||E X|| / cap;
    both expectations are exact sums over the product support.
    """
    if ex.dim != ey.dim:
        raise DimensionError(f"dim mismatch: {ex.dim} vs {ey.dim}")
    require_caps(ex.atoms, cap)
    lhs = math.fsum(
        px * py * eval_word_trace(ax, ay, w)
        for px, ax in zip(ex.probs, ex.atoms)
        for py, ay in zip(ey.probs, ey.atoms)
    )
    ef_l = _bernoulli_weight(ex, cap) * cap**w.x_degree
    ey_trace = math.fsum(
        py * psd_trace_power(ay, w.y_degree) for py, ay in zip(ey.probs, ey.atoms)
    )
    return _report(LemmaId.EXPECTATION_WORD_BOUND, lhs, ef_l * ey_trace, digest)


def check_binomial_reduction(
    ex: FiniteEnsemble, ey: FiniteEnsemble, p: int, cap: float, digest: str = ""
) -> CheckReport:
    """E tr(X + Y)^p <= E tr(f I + Y)^p with the Bernoulli surrogate f.

    Both sides are exact_trace_moment over a two-member family; the right
    one swaps X for bernoulli_member at the stated cap. The power limit is
    exact_trace_moment's, MOMENT_BUDGET.
    """
    require_caps(ex.atoms, cap)
    surrogate = bernoulli_member(ex.dim, cap, _bernoulli_weight(ex, cap))
    lhs = exact_trace_moment(EnsembleFamily((ex, ey)), p)
    rhs = exact_trace_moment(EnsembleFamily((surrogate, ey)), p)
    return _report(LemmaId.BINOMIAL_REDUCTION, lhs, rhs, digest)


def check_theorem_max(family: EnsembleFamily, p: int, digest: str = "") -> CheckReport:
    """Exact family moment vs the closed-form maximum for its targets."""
    lhs = exact_trace_moment(family, p)
    rhs = theorem_max_value(family.dim, family.params, p)
    return _report(LemmaId.THEOREM_MAX, lhs, rhs, digest)


# Randomized sweep ---------------------------------------------------------

@dataclass(frozen=True)
class LemmaSummary:
    lemma_id: LemmaId
    trials: int
    passes: int
    min_slack: float
    min_norm_slack: float
    worst_digest: str

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials

    @staticmethod
    def empty(lemma_id: LemmaId) -> "LemmaSummary":
        return LemmaSummary(
            lemma_id=lemma_id, trials=0, passes=0, min_slack=math.inf,
            min_norm_slack=math.inf, worst_digest="",
        )

    def merge(self, later: "LemmaSummary") -> "LemmaSummary":
        """Tally of these trials followed by ``later``'s.

        The worst digest moves only on a strictly smaller normalized slack,
        so ties keep the earliest trial, as a single pass in trial order does.
        """
        worse = later.min_norm_slack < self.min_norm_slack
        return LemmaSummary(
            lemma_id=self.lemma_id,
            trials=self.trials + later.trials,
            passes=self.passes + later.passes,
            min_slack=min(self.min_slack, later.min_slack),
            min_norm_slack=later.min_norm_slack if worse else self.min_norm_slack,
            worst_digest=later.worst_digest if worse else self.worst_digest,
        )

    def add(self, report: CheckReport) -> "LemmaSummary":
        return self.merge(
            LemmaSummary(
                lemma_id=report.lemma_id,
                trials=1,
                passes=int(report.passed),
                min_slack=report.slack,
                min_norm_slack=report.norm_slack,
                worst_digest=report.input_digest,
            )
        )


def _random_word(rng: np.random.Generator, p_max: int) -> AlternatingWord:
    # Half the draws use fractional exponents: the word bound is stated for
    # reals >= 1, only the binomial expansion needs integers.
    r = int(rng.integers(1, 4))
    per_slot = max(1, p_max // (2 * r))
    if rng.random() < 0.5:
        values = rng.integers(1, per_slot + 1, size=2 * r).astype(float)
    else:
        values = rng.uniform(1.0, per_slot + 1.0, size=2 * r)
    pairs = tuple((float(values[2 * i]), float(values[2 * i + 1])) for i in range(r))
    return AlternatingWord(exponent_pairs=pairs)


def _draw_trial(
    seed: int, t: int, dim_max: int, p_max: int, psd
) -> tuple:
    """Trial t's draws up to its sampler: the inputs of the first four checks,
    with each matrix given by the index ``psd(n, rng)`` returns for it, and
    the request for its X ensemble. Stream 4 pauses there."""
    rng = stream(seed, t, 0)
    n = int(rng.integers(1, dim_max + 1))
    r = int(rng.integers(1, 4))
    weights = rng.uniform(0.5, 2.0, size=r)
    inverses = weights / math.fsum(weights.tolist())
    exponents = [1.0 / u for u in inverses]
    holder = ([psd(n, rng) for _ in range(r)], exponents, f"trial={t};n={n};r={r}")
    alts = []
    for k in (1, 2):
        rng = stream(seed, t, k)
        n = int(rng.integers(1, dim_max + 1))
        alpha_exp = float(rng.choice(ALT_EXPONENTS))
        a, b = psd(n, rng), psd(n, rng)
        alts.append((a, b, alpha_exp, f"trial={t};n={n};alpha={alpha_exp}"))
    rng = stream(seed, t, 3)
    n = int(rng.integers(1, dim_max + 1))
    x, y = psd(n, rng), psd(n, rng)
    w = _random_word(rng, p_max)
    word = (x, y, w, f"trial={t};n={n};word={w.exponent_pairs}")
    rng = stream(seed, t, 4)
    n = int(rng.integers(1, dim_max + 1))
    cap = float(rng.uniform(0.5, 2.0))
    request = (n, int(rng.integers(1, 4)), cap, float(rng.uniform()), rng)
    return holder, alts, word, request


def _run_trials(
    seed: int, start: int, stop: int, dim_max: int, p_max: int
) -> list[list[CheckReport]]:
    """The six reports of each trial in [start, stop), in four phases.

    1. Draw: each trial draws from its five streams stream(seed, t, k) in
       the order of its checks. A random PSD matrix draws its scale, its
       angles and its spectrum, and is recorded, not built.
    2. Build: every recorded matrix is built by _spectral_build, one call
       per dimension.
    3. Sample: the X ensembles of all trials go through the batched
       sampler; then each trial draws its Y parameters from stream 4, and
       the Y ensembles go through it too.
    4. Evaluate: in trial order, each trial runs its first four checkers,
       raises its X or else its Y sampler error if it has one, draws its
       word and power from stream 4 and runs the last two. So the error
       raised is the first in trial order; a Y ensemble sampled after its
       X failed is never used.

    Every stream is drawn from in the order a trial run alone draws from
    it, and each matrix and ensemble is built bit for bit as it is alone,
    so the batch changes no report.
    """
    draws: list[tuple[np.ndarray, np.ndarray]] = []

    def psd(n: int, rng: np.random.Generator) -> int:
        scale = float(rng.uniform(0.5, 2.0))
        draws.append(_spectral_draw(n, rng, 0.0, scale))
        return len(draws) - 1

    trials = [_draw_trial(seed, t, dim_max, p_max, psd) for t in range(start, stop)]
    matrices = _spectral_build(draws)
    xs = _sample([request for *_, request in trials])
    y_requests = []
    for *_, (n, _, _, _, rng) in trials:
        y_requests.append(
            (n, int(rng.integers(1, 4)), float(rng.uniform(0.5, 2.0)), float(rng.uniform()), rng)
        )
    ys = _sample(y_requests)

    reports = []
    for t, (holder, alts, word, request), ex, ey in zip(range(start, stop), trials, xs, ys):
        factors, exponents, digest = holder
        out = [check_holder([matrices[i] for i in factors], exponents, digest=digest)]
        for check, (a, b, alpha_exp, digest) in zip((check_alt, check_alt_schatten), alts):
            out.append(check(matrices[a], matrices[b], alpha_exp, digest=digest))
        x, y, w, digest = word
        out.append(check_word_bound(matrices[x], matrices[y], w, digest=digest))
        for ensemble in (ex, ey):
            if isinstance(ensemble, TracemaxError):
                raise ensemble
        n, _, cap, _, rng = request
        w = _random_word(rng, p_max)
        p = int(rng.integers(1, p_max + 1))
        digest = f"trial={t};n={n};cap={cap}"
        out.append(
            check_expectation_word_bound(ex, ey, w, cap, digest=f"{digest};word={w.exponent_pairs}")
        )
        out.append(check_binomial_reduction(ex, ey, p, cap, digest=f"{digest};p={p}"))
        reports.append(out)
    return reports


def _run_trial_block(
    args: tuple[int, int, int, int, int],
) -> dict[LemmaId, LemmaSummary]:
    seed, start, stop, dim_max, p_max = args
    tallies: dict[LemmaId, LemmaSummary] = {}
    for lo in range(start, stop, _BATCH_TRIALS):
        for reports in _run_trials(seed, lo, min(lo + _BATCH_TRIALS, stop), dim_max, p_max):
            for rep in reports:
                prior = tallies.get(rep.lemma_id) or LemmaSummary.empty(rep.lemma_id)
                tallies[rep.lemma_id] = prior.add(rep)
    return tallies


def run_lemma_sweep(
    trials: int, dim_max: int, p_max: int, seed: int
) -> dict[LemmaId, LemmaSummary]:
    """Randomized constrained sweep over all six lemma checkers.

    Every trial owns counter-derived RNG streams keyed by (seed, trial), so
    results are independent of blocks, batches and worker count. Trials
    run in blocks of _BLOCK_TRIALS, one parallel task each, and a block
    runs its trials in batches of _BATCH_TRIALS (see _run_trials). Each
    block is tallied in its worker; the tallies are merged in block order.
    """
    if trials < 1 or dim_max < 1 or p_max < 1:
        raise InvalidExponent(
            f"trials, dim_max, p_max must be positive, got {trials}, {dim_max}, {p_max}"
        )
    blocks = [
        (seed, start, min(start + _BLOCK_TRIALS, trials), dim_max, p_max)
        for start in range(0, trials, _BLOCK_TRIALS)
    ]
    totals: dict[LemmaId, LemmaSummary] = {}
    for tallies in parallel_map(_run_trial_block, blocks):
        for lemma, tally in tallies.items():
            totals[lemma] = totals[lemma].merge(tally) if lemma in totals else tally
    return totals
