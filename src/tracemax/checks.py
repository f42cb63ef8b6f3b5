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
sample the trials' ensembles through the batched sampler; evaluate each
checker on all the batch's instances at once, with one stacked matmul or
eigh per dimension where a trial alone makes one call per matrix. Every
stream is drawn from in the order of a trial run alone, and every matrix,
ensemble and report is computed bit for bit as it is alone, so the
batches change no output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .ensembles import (
    EnsembleFamily,
    FiniteEnsemble,
    _sample,
    _stacked_moments,
    bernoulli_member,
    exact_trace_moment,
    require_caps,
)
from .errors import DimensionError, InvalidExponent, TracemaxError
from .extremal import MOMENT_BUDGET, theorem_max_value
from .linalg import (
    SymMatrix,
    _spectral_build,
    _spectral_draw,
    _spectral_entries,
    _symmetrised,
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
# each, in batches of _BATCH_TRIALS. A batch holds every matrix, ensemble
# and check array of its trials at once, trading per-call overhead against
# memory: at two workers the 512-trial benchmark sweep peaks at 36.2, 37.1
# and 41.5 MB RSS with 32-, 64- and 256-trial batches (2-vCPU VM).
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
    # eval_word_trace of every pair of atoms, with each atom's powers taken once
    xs = [[psd_power(a, l) for l, _ in w.exponent_pairs] for a in ex.atoms]
    ys = [[psd_power(a, m) for _, m in w.exponent_pairs] for a in ey.atoms]
    lhs = math.fsum(
        px * py * trace_product([f for pair in zip(xp, yp) for f in pair])
        for px, xp in zip(ex.probs, xs) for py, yp in zip(ey.probs, ys)
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


# Batched evaluation: a _batch_* function returns, bit for bit, what its
# checker returns on each case (its positional arguments, digest last). The
# cases are the sweep's, valid by construction (an ABA of PSD A and B stays
# far above the PSD floor) except for a power above MOMENT_BUDGET.


def _groups(keys: Iterable) -> dict:
    """The positions of each distinct key, in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _row_powers(base: np.ndarray, exps: Sequence[float]) -> np.ndarray:
    """base[i] ** exps[i] along the first axis, one scalar exponent per slice
    of rows sorted by exponent. numpy squares or roots for a scalar 2.0 or
    0.5 but calls pow for an array exponent, which differs in the last bit."""
    exps = np.asarray(exps, dtype=float)
    order = np.argsort(exps, kind="stable")
    ranked, ordered = exps[order], base[order]
    cuts = [0, *(np.flatnonzero(np.diff(ranked)) + 1).tolist(), len(order)]
    for lo, hi, t in zip(cuts, cuts[1:], ranked[cuts[:-1]].tolist()):
        ordered[lo:hi] = ordered[lo:hi] ** t
    return ordered[np.argsort(order)]


def _power_sums(flat: np.ndarray, sizes: Sequence[int], exps: Sequence[float]) -> list[float]:
    """math.fsum of each run of flat, sizes[i] values each raised to exps[i]."""
    powered = _row_powers(flat, np.repeat(exps, sizes)).tolist()
    stops = np.cumsum(sizes).tolist()
    return [math.fsum(powered[stop - size : stop]) for size, stop in zip(sizes, stops)]


def _spectral_sums(lams: Sequence[np.ndarray], exps: Sequence[float]) -> list[float]:
    """psd_trace_power's sum of each spectrum at its exponent."""
    if not lams:
        return []
    return _power_sums(np.maximum(np.concatenate(lams), 0.0), [len(lam) for lam in lams], exps)


def _schatten_norms(sigmas: Sequence[np.ndarray], qs: Sequence[float]) -> list[float]:
    """schatten_from_singulars of each singular-value vector at its finite q."""
    sizes = [len(sigma) for sigma in sigmas]
    flat = np.concatenate(sigmas)
    tops = np.maximum.reduceat(flat, np.cumsum([0] + sizes[:-1]))
    # a zero top returns before scaling, as in schatten_from_singulars
    sums = _power_sums(flat / np.repeat(np.where(tops > 0.0, tops, 1.0), sizes), sizes, qs)
    return [
        top if top == 0.0 else top * total ** (1.0 / q)
        for top, total, q in zip(tops.tolist(), sums, qs)
    ]


def _chain_traces(chains: Sequence[Sequence[tuple]]) -> list[float]:
    """trace_product of each chain of factors (m, t), psd_power(m, t) or m if
    t is None: per dimension, each distinct factor is powered once, in one
    stacked call, and the chains of each length are multiplied as stacks."""
    out: list = [None] * len(chains)
    for n, idx in _groups(chain[0][0].dim for chain in chains).items():
        slots: dict = {}  # factor -> its row in the stack
        rows = [[slots.setdefault(f, len(slots)) for f in chains[i]] for i in idx]
        stack = np.empty((len(slots), n, n))
        powers = [(k, m, t) for (m, t), k in slots.items() if t is not None]
        if powers:
            q = np.array([m.eig.eigenvectors for _, m, _ in powers])
            lam = np.maximum(np.array([m.eig.eigenvalues for _, m, _ in powers]), 0.0)
            lam = _row_powers(lam, [t for *_, t in powers])
            stack[[k for k, *_ in powers]] = _spectral_entries(q, lam)
        for (m, t), k in slots.items():
            if t is None:
                stack[k] = m.entries
        for length, group in _groups(len(row) for row in rows).items():
            factors = stack[np.array([rows[g] for g in group])]
            product = reduce(np.matmul, (factors[:, j] for j in range(length)))
            for g, diagonal in zip(group, product.diagonal(axis1=1, axis2=2).tolist()):
                out[idx[g]] = math.fsum(diagonal)
    return out


def _batch_holder(cases: Sequence[tuple]) -> list[CheckReport]:
    """check_holder on each case (factors, exponents, digest)."""
    # per case: the product's singular values, then each factor's |spectrum|
    sigmas: list = [None] * len(cases)
    for (_, r), idx in _groups((c[0][0].dim, len(c[0])) for c in cases).items():
        columns = [[cases[i][0][j] for i in idx] for j in range(r)]
        spectra = [np.abs(np.array([f.eig.eigenvalues for f in c])) for c in columns]
        product_sigma = spectra[0]
        if r > 1:
            product = reduce(np.matmul, (np.array([f.entries for f in c]) for c in columns))
            gram = _symmetrised(product.swapaxes(1, 2) @ product)
            product_sigma = np.sqrt(np.maximum(np.linalg.eigh(gram)[0], 0.0))
        for k, i in enumerate(idx):
            sigmas[i] = [product_sigma[k], *(spectrum[k] for spectrum in spectra)]
    norms = iter(_schatten_norms(
        [sigma for row in sigmas for sigma in row], [q for c in cases for q in (1, *c[1])]
    ))
    return [
        _report(LemmaId.HOLDER, next(norms), math.prod(next(norms) for _ in factors), digest)
        for factors, _, digest in cases
    ]


def _batch_alt(cases: Sequence[tuple]) -> list[CheckReport]:
    """Each case (check, a, b, alpha, digest) through check_alt or
    check_alt_schatten, both on _alt_sides' sandwich and trace."""
    traces = _chain_traces([((a, 2.0 * alpha), (b, alpha)) for _, a, b, alpha, _ in cases])
    spectra: list = [None] * len(cases)
    for _, idx in _groups(c[1].dim for c in cases).items():
        a = np.array([cases[i][1].entries for i in idx])
        sandwich = _symmetrised(a @ np.array([cases[i][2].entries for i in idx]) @ a)
        for i, lam in zip(idx, np.linalg.eigh(sandwich)[0]):
            spectra[i] = lam
    alphas = [c[3] for c in cases]
    sums = _spectral_sums(spectra, alphas)
    norms = _schatten_norms([np.abs(lam) for lam in spectra], alphas)
    out = []
    for (check, _, _, alpha, digest), trace, total, norm in zip(cases, traces, sums, norms):
        if check is check_alt:
            out.append(_report(LemmaId.ALT, total, trace, digest))
        else:
            rhs = max(trace, 0.0) ** (1.0 / alpha)
            out.append(_report(LemmaId.ALT_SCHATTEN, norm, rhs, digest))
    return out


def _word_chain(x: SymMatrix, y: SymMatrix, w: AlternatingWord) -> list[tuple]:
    """eval_word_trace's factors, as _chain_traces takes them."""
    return [f for l, m in w.exponent_pairs for f in ((x, l), (y, m))]


def _batch_word_bound(cases: Sequence[tuple]) -> list[CheckReport]:
    """check_word_bound on each case (x, y, w, digest)."""
    words = [_word_chain(x, y, w) for x, y, w, _ in cases]
    traces = _chain_traces(words + [((x, None), (y, w.y_degree)) for x, y, w, _ in cases])
    return [
        _report(LemmaId.WORD_BOUND, abs(lhs), x.opnorm ** (w.x_degree - 1.0) * collapsed, digest)
        for (x, _, w, digest), lhs, collapsed in zip(cases, traces, traces[len(cases) :])
    ]


def _batch_expectation_word_bound(cases: Sequence[tuple]) -> list[CheckReport]:
    """check_expectation_word_bound on each case (ex, ey, w, cap, digest)."""
    traces = iter(_chain_traces([
        _word_chain(ax, ay, w) for ex, ey, w, *_ in cases for ax in ex.atoms for ay in ey.atoms
    ]))
    y_atoms = [(a.eig.eigenvalues, c[2].y_degree) for c in cases for a in c[1].atoms]
    y_traces = iter(_spectral_sums([lam for lam, _ in y_atoms], [t for _, t in y_atoms]))
    out = []
    for ex, ey, w, cap, digest in cases:
        lhs = math.fsum(px * py * next(traces) for px in ex.probs for py in ey.probs)
        ef_l = _bernoulli_weight(ex, cap) * cap**w.x_degree
        ey_trace = math.fsum(py * next(y_traces) for py in ey.probs)
        out.append(_report(LemmaId.EXPECTATION_WORD_BOUND, lhs, ef_l * ey_trace, digest))
    return out


def _batch_binomial_reduction(cases: Sequence[tuple]) -> list[CheckReport | TracemaxError]:
    """check_binomial_reduction on each case (ex, ey, p, cap, digest): the
    cases of one (n, p) go through one _stacked_moments call, as two
    families each, (X, Y) and (f I, Y), with f I as bernoulli_member has it."""
    out: list = [None] * len(cases)
    for (n, p), idx in _groups((c[0].dim, c[2]) for c in cases).items():
        if p > MOMENT_BUDGET:
            for i in idx:  # the checker's own error
                try:
                    out[i] = check_binomial_reduction(*cases[i])
                except TracemaxError as exc:
                    out[i] = exc
            continue
        members = []
        for i in idx:
            ex, ey, _, cap, _ = cases[i]
            alpha = _bernoulli_weight(ex, cap)
            y = [a.entries for a in ey.atoms], ey.probs
            surrogate = [cap * np.eye(n), np.zeros((n, n))], (alpha, 1.0 - alpha)
            members += [([a.entries for a in ex.atoms], ex.probs), y, surrogate, y]
        sizes = np.array([len(q) for _, q in members]).reshape(-1, 2)
        entries = np.zeros(sizes.shape + (sizes.max(), n, n))
        probs = np.zeros(sizes.shape + (sizes.max(),))
        for m, (atoms, member_probs) in enumerate(members):
            entries[m // 2, m % 2, : len(atoms)] = atoms
            probs[m // 2, m % 2, : len(atoms)] = member_probs
        values = _stacked_moments(entries, probs, sizes, p)
        for k, i in enumerate(idx):
            out[i] = _report(
                LemmaId.BINOMIAL_REDUCTION, values[2 * k], values[2 * k + 1], cases[i][4]
            )
    return out


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
    for k, check in ((1, check_alt), (2, check_alt_schatten)):
        rng = stream(seed, t, k)
        n = int(rng.integers(1, dim_max + 1))
        alpha_exp = float(rng.choice(ALT_EXPONENTS))
        a, b = psd(n, rng), psd(n, rng)
        alts.append((check, a, b, alpha_exp, f"trial={t};n={n};alpha={alpha_exp}"))
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
       the Y ensembles go through it too. Each trial whose ensembles were
       sampled draws its word and power from stream 4.
    4. Evaluate: each checker runs once, through its _batch_* function, on
       the batch's cases of it. Results are read in trial order: a trial's
       first four reports, its X and then its Y sampler error, its last
       two reports. So the error raised is the first in trial order; a Y
       ensemble sampled after its X failed is never used.

    Every stream is drawn from in the order a trial run alone draws from
    it, and each matrix, ensemble and report is computed bit for bit as it
    is alone, so the batch changes no report.
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

    holder, alt, word, expectation, binomial, sampled = ([] for _ in range(6))
    for t, (holder_draw, alt_draws, word_draw, request), ex, ey in zip(
        range(start, stop), trials, xs, ys
    ):
        factors, exponents, digest = holder_draw
        holder.append(([matrices[i] for i in factors], exponents, digest))
        alt += [(check, matrices[a], matrices[b], *rest) for check, a, b, *rest in alt_draws]
        x, y, w, digest = word_draw
        word.append((matrices[x], matrices[y], w, digest))
        sampled.append(not isinstance(ex, TracemaxError) and not isinstance(ey, TracemaxError))
        if sampled[-1]:
            n, _, cap, _, rng = request
            w = _random_word(rng, p_max)
            p = int(rng.integers(1, p_max + 1))
            digest = f"trial={t};n={n};cap={cap}"
            expectation.append((ex, ey, w, cap, f"{digest};word={w.exponent_pairs}"))
            binomial.append((ex, ey, p, cap, f"{digest};p={p}"))

    alts = _batch_alt(alt)
    first = zip(_batch_holder(holder), alts[0::2], alts[1::2], _batch_word_bound(word), xs, ys)
    last = zip(_batch_expectation_word_bound(expectation), _batch_binomial_reduction(binomial))
    reports = []
    for row, ok in zip(first, sampled):
        row += next(last) if ok else ()
        for result in row:
            if isinstance(result, TracemaxError):
                raise result
        reports.append([*row[:4], *row[6:]])
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
