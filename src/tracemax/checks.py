"""Executable checks of the trace-inequality chain.

The chain runs from the generalized Holder bound through the
Araki-Lieb-Thirring step, word bounds, their expectation versions and the
Bernoulli reduction to the extremal theorem itself. A single failing
check on admissible inputs means an implementation bug, never a
counterexample, so sweeps treat any failure as build-breaking.

Expectations are always exact sums over finite product supports; no
check uses Monte Carlo, so there are no statistical false alarms.

The randomized lemma sweep is the program's only evaluation of the first
six links, and it is batched. It runs one lemma at a time over a block
of trials, each drawing that lemma's inputs from its own stream, so one
lemma's matrices are alive at a time; the two lemmas on sampled
ensembles run in smaller batches. Random PSD matrices are built one call
per dimension, as rows of eigensystem arrays, and each _batch_* function
evaluates both sides of all its lemma's instances at once, indexing
those rows, with one stacked matmul or eigh per dimension; _summary
tallies the lemma from the resulting arrays. One rng.streams call
derives a block's (a batch's) streams of a lemma, and ensembles._admit,
the one place a member is made, admits sampled ensembles and Bernoulli
surrogates batch-wide. Streams are drawn from in the order of a trial
run alone, and every matrix, ensemble and side is computed bit for bit
as it is alone, so neither blocks nor batches change any output. Every
case is valid, its power too, since run_lemma_sweep checks p_max before
any trial runs. The tests hold every batched side, bit for bit, to a
per-case reference checker (tests/oracles.py).

The last link, the closed-form maximum, is tallied the same way:
_theorem_tally is the search's audit of sampled families, whose exact
moments _batch_theorem_max takes batch-wide, through the helper that the
binomial reduction uses too. This batched path is the program's only
evaluation of every link, and _summary its only tally.
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
    _bernoulli_members,
    _ensembles,
    _stack,
    _stacked_moments,
    family_to_json,
)
from .errors import InvalidExponent, TracemaxError
from .extremal import _validate_p, theorem_max_value
from .linalg import (
    _groups,
    _opnorms,
    _spectral_build,
    _spectral_draw,
    _spectral_entries,
    _symmetrised,
)
from .parallel import parallel_map
from .rng import streams
from .words import AlternatingWord

CHECK_TOL = 1e-9

# Exponent grid exercised by the randomized sweep.
ALT_EXPONENTS = (1.0, 1.5, 2.0, 3.0)

# The sweep runs trials in blocks of _BLOCK_TRIALS, one parallel task each.
# The sampled lemmas run batches of _SAMPLED_TRIALS, trading per-call
# overhead against memory: with 32, 64, 96 and 128 the 512-trial benchmark
# sweep takes 0.44, 0.39, 0.35 and 0.35 s in-process and peaks at 36.4,
# 36.4, 36.6 and 37.1 MB RSS at two workers (2-vCPU VM). At 64 a block's
# traced peak is the other lemmas' own, 0.8 MB.
_BLOCK_TRIALS = 256
_SAMPLED_TRIALS = 64

# Budget for the search's audit of sampled families, matching the central
# admissibility property: n <= 4, N <= 3, s <= 3, p <= 8. The audit runs
# in blocks of _BLOCK_TRIALS trials too.
_AUDIT_DIM = 4
_AUDIT_MEMBERS = 3
_AUDIT_ATOMS = 3
_AUDIT_POWER = 8


class LemmaId(str, Enum):
    HOLDER = "Holder"
    ALT = "ALT"
    ALT_SCHATTEN = "ALT_Schatten"
    WORD_BOUND = "WordBound"
    EXPECTATION_WORD_BOUND = "ExpectationWordBound"
    BINOMIAL_REDUCTION = "BinomialReduction"
    THEOREM_MAX = "TheoremMax"


def holds(lhs: float, rhs: float) -> bool:
    """The pass rule of every check: lhs <= rhs up to CHECK_TOL * (1 + |rhs|)."""
    return lhs <= rhs + CHECK_TOL * (1.0 + abs(rhs))


def _bernoulli_weight(ex: FiniteEnsemble, cap: float) -> float:
    # ||E X|| <= cap holds whenever all atoms respect the cap; clamp the
    # quotient so roundoff cannot produce a probability above 1.
    return min(ex.mean_norm / cap, 1.0)


# Batched evaluation: a _batch_* function returns the (lhs, rhs) of each of
# its lemma's cases, bit for bit those that its per-case reference checker
# in tests/oracles.py (check_holder for _batch_holder, and so on) reports
# on the case's arguments. The cases are the sweep's and the audit's, all
# valid, powers included (run_lemma_sweep checks p_max at entry), and an
# ABA of PSD A and B stays far above the PSD floor. A matrix is a row
# (n, row) of stacks[n] = (vecs, spectra, entries), per-dimension arrays.


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
    """tr(A^t) of each spectrum at its exponent: math.fsum of max(lam, 0)^t."""
    if not lams:
        return []
    return _power_sums(np.maximum(np.concatenate(lams), 0.0), [len(lam) for lam in lams], exps)


def _schatten_norms(sigmas: Sequence[np.ndarray], qs: Sequence[float]) -> list[float]:
    """The Schatten q-norm of each singular-value vector at its finite q,
    with the largest value factored out so that sigma^q cannot overflow."""
    sizes = [len(sigma) for sigma in sigmas]
    flat = np.concatenate(sigmas)
    tops = np.maximum.reduceat(flat, np.cumsum([0] + sizes[:-1]))
    # a zero top is the norm, and is not divided by
    sums = _power_sums(flat / np.repeat(np.where(tops > 0.0, tops, 1.0), sizes), sizes, qs)
    return [
        top if top == 0.0 else top * total ** (1.0 / q)
        for top, total, q in zip(tops.tolist(), sums, qs)
    ]


def _chain_traces(stacks: dict, chains: Sequence[Sequence[tuple]]) -> list[float]:
    """tr(F1 F2 ... Fk) of each chain of factors (m, t), m a row (n, row) of
    stacks: F = m^t, the PSD power on m's clamped spectrum, or m itself if
    t is None. Per dimension, each distinct factor is powered once, in one
    stacked call, and the chains of each length are multiplied as stacks."""
    out: list = [None] * len(chains)
    for n, idx in _groups(chain[0][0][0] for chain in chains).items():
        vecs, spectra, entries = stacks[n]
        slots: dict = {}  # factor -> its row in the stack
        rows = [[slots.setdefault(f, len(slots)) for f in chains[i]] for i in idx]
        stack = np.empty((len(slots), n, n))
        powers = [(k, row, t) for ((_, row), t), k in slots.items() if t is not None]
        at, picks, exps = (list(v) for v in zip(*powers))  # every chain has a power
        lam = _row_powers(np.maximum(spectra[picks], 0.0), exps)
        stack[at] = _spectral_entries(vecs[picks], lam)
        for ((_, row), t), k in slots.items():
            if t is None:
                stack[k] = entries[row]
        for length, group in _groups(len(row) for row in rows).items():
            factors = stack[np.array([rows[g] for g in group])]
            product = reduce(np.matmul, (factors[:, j] for j in range(length)))
            for g, diagonal in zip(group, product.diagonal(axis1=1, axis2=2).tolist()):
                out[idx[g]] = math.fsum(diagonal)
    return out


def _batch_holder(stacks: dict, cases: Sequence[tuple]) -> list[tuple[float, float]]:
    """|A_1 ... A_r|_1 and prod |A_i|_{q_i} of each case (factors, exponents)."""
    # per case: the product's singular values, then each factor's |spectrum|
    sigmas: list = [None] * len(cases)
    for (n, r), idx in _groups((c[0][0][0], len(c[0])) for c in cases).items():
        _, spectra, entries = stacks[n]
        columns = [[cases[i][0][j][1] for i in idx] for j in range(r)]
        column_spectra = [np.abs(spectra[rows]) for rows in columns]
        product_sigma = column_spectra[0]
        if r > 1:
            product = reduce(np.matmul, (entries[rows] for rows in columns))
            gram = _symmetrised(product.swapaxes(1, 2) @ product)
            product_sigma = np.sqrt(np.maximum(np.linalg.eigh(gram)[0], 0.0))
        for k, i in enumerate(idx):
            sigmas[i] = [product_sigma[k], *(spectrum[k] for spectrum in column_spectra)]
    norms = iter(_schatten_norms(
        [sigma for row in sigmas for sigma in row], [q for c in cases for q in (1, *c[1])]
    ))
    return [(next(norms), math.prod(next(norms) for _ in factors)) for factors, _ in cases]


def _batch_alt(stacks: dict, cases: Sequence[tuple]) -> list[tuple[float, float]]:
    """The ALT sides of each case (lemma, a, b, alpha), both from the
    sandwich ABA and tr(A^{2 alpha} B^alpha): tr((ABA)^alpha) and the trace
    for LemmaId.ALT, |ABA|_alpha and the trace's alpha-th root for
    LemmaId.ALT_SCHATTEN."""
    traces = _chain_traces(stacks, [((a, 2.0 * alpha), (b, alpha)) for _, a, b, alpha in cases])
    spectra: list = [None] * len(cases)
    for n, idx in _groups(c[1][0] for c in cases).items():
        entries = stacks[n][2]
        a = entries[[cases[i][1][1] for i in idx]]
        sandwich = _symmetrised(a @ entries[[cases[i][2][1] for i in idx]] @ a)
        for i, lam in zip(idx, np.linalg.eigh(sandwich)[0]):
            spectra[i] = lam
    alphas = [c[3] for c in cases]
    sums = _spectral_sums(spectra, alphas)
    norms = _schatten_norms([np.abs(lam) for lam in spectra], alphas)
    return [
        (total, trace) if lemma is LemmaId.ALT else (norm, max(trace, 0.0) ** (1.0 / alpha))
        for (lemma, _, _, alpha), trace, total, norm in zip(cases, traces, sums, norms)
    ]


def _word_chain(x: tuple, y: tuple, w: AlternatingWord) -> list[tuple]:
    """The factors of tr(X^l1 Y^m1 ... X^lr Y^mr), as _chain_traces takes them."""
    return [f for l, m in w.exponent_pairs for f in ((x, l), (y, m))]


def _batch_word_bound(stacks: dict, cases: Sequence[tuple]) -> list[tuple[float, float]]:
    """|tr X^l1 Y^m1 ...| and ||X||^{l-1} tr(X Y^m) of each case (x, y, w)."""
    words = [_word_chain(x, y, w) for x, y, w in cases]
    traces = _chain_traces(stacks, words + [((x, None), (y, w.y_degree)) for x, y, w in cases])
    norms = {n: _opnorms(spectra).tolist() for n, (_, spectra, _) in stacks.items()}
    return [
        (abs(lhs), norms[x[0]][x[1]] ** (w.x_degree - 1.0) * collapsed)
        for (x, _, w), lhs, collapsed in zip(cases, traces, traces[len(cases) :])
    ]


def _pooled(members: Sequence[FiniteEnsemble]) -> tuple[dict, list]:
    """The members' atoms as rows of stacks, those of each dimension in
    member order, and each member's atoms as (n, row)."""
    stacks, atoms = {}, [None] * len(members)
    for n, idx in _groups(m.dim for m in members).items():
        group = [members[i] for i in idx]
        stacks[n] = tuple(map(np.concatenate, zip(*((m.vecs, m.spectra, m.atoms) for m in group))))
        rows = np.cumsum([0] + [m.support_size for m in group]).tolist()
        for i, first, stop in zip(idx, rows, rows[1:]):
            atoms[i] = [(n, row) for row in range(first, stop)]
    return stacks, atoms


def _batch_expectation_word_bound(cases: Sequence[tuple]) -> list[tuple[float, float]]:
    """E tr X^l1 Y^m1 ... and E f^l * E tr Y^m of each case (ex, ey, w, cap),
    f the {0, cap} Bernoulli surrogate with P(f = cap) = ||E X|| / cap."""
    stacks, atoms = _pooled([m for c in cases for m in c[:2]])
    traces = iter(_chain_traces(stacks, [
        _word_chain(ax, ay, c[2])
        for c, xs, ys in zip(cases, atoms[::2], atoms[1::2]) for ax in xs for ay in ys
    ]))
    y_atoms = [(lam, c[2].y_degree) for c in cases for lam in c[1].spectra]
    y_traces = iter(_spectral_sums([lam for lam, _ in y_atoms], [t for _, t in y_atoms]))
    out = []
    for ex, ey, w, cap in cases:
        lhs = math.fsum(px * py * next(traces) for px in ex.probs for py in ey.probs)
        ef_l = _bernoulli_weight(ex, cap) * cap**w.x_degree
        out.append((lhs, ef_l * math.fsum(py * next(y_traces) for py in ey.probs)))
    return out


def _moments(families: Sequence[Sequence[FiniteEnsemble]], powers: Sequence[int]) -> list[float]:
    """exact_trace_moment of each family, given as its members, at its
    power: the families of one (n, N, p) go through one _stack and one
    _stacked_moments call."""
    out: list = [None] * len(families)
    keys = ((f[0].dim, len(f), p) for f, p in zip(families, powers))
    for (_, _, p), idx in _groups(keys).items():
        probs, _, _, entries, sizes = _stack([families[i] for i in idx])
        for i, value in zip(idx, _stacked_moments(entries, probs, sizes, p)):
            out[i] = value
    return out


def _batch_binomial_reduction(cases: Sequence[tuple]) -> list[tuple[float, float]]:
    """E tr(X + Y)^p and E tr(f I + Y)^p of each case (ex, ey, p, cap), f
    the Bernoulli surrogate: two families each, (X, Y) and (f I, Y), with
    f I of weight ||E X|| / cap, built and checked per dimension by
    ensembles._bernoulli_members."""
    surrogates = {}
    for n, idx in _groups(c[0].dim for c in cases).items():
        caps = [cases[i][3] for i in idx]
        weights = [_bernoulli_weight(cases[i][0], cases[i][3]) for i in idx]
        surrogates.update(zip(idx, _bernoulli_members(n, caps, weights)))
    families = [f for i, (x, y, _, _) in enumerate(cases) for f in ((x, y), (surrogates[i], y))]
    values = _moments(families, [c[2] for c in cases for _ in range(2)])
    return list(zip(values[::2], values[1::2]))


def _batch_theorem_max(cases: Sequence[tuple]) -> list[tuple[float, float]]:
    """E tr(X_1 + ... + X_N)^p and theorem_max_value at the members'
    targets of each case (family, p). The cases are the audit's, whose
    supports stay within budget."""
    moments = _moments([family.members for family, _ in cases], [p for _, p in cases])
    return [(lhs, theorem_max_value(f.dim, f.params, p)) for (f, p), lhs in zip(cases, moments)]


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


def _summary(lemma_id: LemmaId, sides: Sequence[tuple], digest) -> LemmaSummary:
    """The tally of the pairs (lhs, rhs), in order, on arrays: passes by
    holds, the smallest slack rhs - lhs and the smallest normalized slack
    (slack / (1 + |rhs|)), with digest(i) formatted for the worst pair i
    alone. A NaN slack is skipped and the worst pair moves only on a
    strictly smaller slack (argmin returns the first of equal minima), so
    ties keep the earliest pair and merging the tallies of consecutive runs
    of pairs gives the tally of them all."""
    lhs, rhs = np.array(sides, dtype=float).T
    slack = rhs - lhs
    scale = 1.0 + np.abs(rhs)
    norm = np.where(np.isnan(slack / scale), math.inf, slack / scale)
    slack = np.where(np.isnan(slack), math.inf, slack)
    worst = int(np.argmin(norm))
    return LemmaSummary(
        lemma_id=lemma_id,
        trials=len(sides),
        passes=int(np.count_nonzero(holds(lhs, rhs))),
        min_slack=float(slack[np.argmin(slack)]),
        min_norm_slack=float(norm[worst]),
        worst_digest=digest(worst) if norm[worst] < math.inf else "",
    )


def _drawn(seed: int, trials: range, k: int, dim_max: int, draw) -> tuple[list, dict, list]:
    """(t, n, *draw(rng, n, psd)) for each trial t, from its stream k after
    its dimension n, and the matrices psd recorded, built in one
    _spectral_build call: their per-dimension eigensystem arrays and the
    (n, row) of each. psd(n, rng) draws a random PSD matrix's scale,
    angles and spectrum and returns the index of the matrix it records."""
    draws: list[tuple[np.ndarray, np.ndarray]] = []

    def psd(n: int, rng: np.random.Generator) -> int:
        scale = float(rng.uniform(0.5, 2.0))
        draws.append(_spectral_draw(n, rng, 0.0, scale))
        return len(draws) - 1

    rows = []
    for t, rng in zip(trials, streams([(seed, t, k) for t in trials])):
        n = int(rng.integers(1, dim_max + 1))
        rows.append((t, n, *draw(rng, n, psd)))
    return (rows, *_spectral_build(draws))


def _holder_tally(seed: int, trials: range, dim_max: int, p_max: int) -> LemmaSummary:
    def draw(rng, n, psd):
        r = int(rng.integers(1, 4))
        weights = rng.uniform(0.5, 2.0, size=r)
        inverses = weights / math.fsum(weights.tolist())
        return r, [psd(n, rng) for _ in range(r)], [1.0 / u for u in inverses]

    rows, stacks, m = _drawn(seed, trials, 0, dim_max, draw)
    sides = _batch_holder(stacks, [([m[i] for i in factors], q) for *_, factors, q in rows])
    return _summary(LemmaId.HOLDER, sides, lambda i: "trial={};n={};r={}".format(*rows[i]))


def _alt_tally(seed: int, trials: range, dim_max: int, p_max: int, k: int) -> LemmaSummary:
    """The ALT lemma on stream 1, its Schatten form on stream 2."""
    def draw(rng, n, psd):
        return float(rng.choice(ALT_EXPONENTS)), psd(n, rng), psd(n, rng)

    rows, stacks, m = _drawn(seed, trials, k, dim_max, draw)
    lemma = LemmaId.ALT if k == 1 else LemmaId.ALT_SCHATTEN
    sides = _batch_alt(stacks, [(lemma, m[a], m[b], alpha) for _, _, alpha, a, b in rows])
    return _summary(lemma, sides, lambda i: "trial={};n={};alpha={}".format(*rows[i]))


def _word_tally(seed: int, trials: range, dim_max: int, p_max: int) -> LemmaSummary:
    def draw(rng, n, psd):
        return psd(n, rng), psd(n, rng), _random_word(rng, p_max)

    rows, stacks, m = _drawn(seed, trials, 3, dim_max, draw)
    sides = _batch_word_bound(stacks, [(m[x], m[y], w) for _, _, x, y, w in rows])
    label = "trial={};n={};word={}".format
    return _summary(
        LemmaId.WORD_BOUND, sides, lambda i: label(*rows[i][:2], rows[i][4].exponent_pairs)
    )


def _families(counts: Sequence[int], request) -> list[list[FiniteEnsemble]]:
    """The members of each trial, sampled by ensembles._ensembles; the first
    sampler error in trial order is raised, as the trials run alone raise it."""
    sampled = _ensembles(counts, request)
    for members in sampled:
        if isinstance(members, TracemaxError):
            raise members
    return sampled


def _sampled_batch(seed: int, trials: range, dim_max: int, p_max: int) -> tuple:
    """The expectation word bound's and the binomial reduction's sides on
    each trial's stream 4, and their digests' parts (t, n, cap, word, p).

    Each trial draws its dimension and X cap, then its X and its Y
    ensemble are sampled, the ensembles of all trials together (see
    _families), and then each trial draws its word and power.
    """
    heads = [  # (n, cap, rng) of each trial
        (int(rng.integers(1, dim_max + 1)), float(rng.uniform(0.5, 2.0)), rng)
        for rng in streams([(seed, t, 4) for t in trials])
    ]

    def request(i: int, k: int) -> tuple:
        """X (k = 0) at the trial's cap, or Y (k = 1) at a cap of its own."""
        n, cap, rng = heads[i]
        s = int(rng.integers(1, 4))
        if k == 1:
            cap = float(rng.uniform(0.5, 2.0))
        return n, s, cap, float(rng.uniform()), rng

    cases, parts = [], []
    for t, (n, cap, rng), (ex, ey) in zip(trials, heads, _families([2] * len(heads), request)):
        w = _random_word(rng, p_max)
        p = int(rng.integers(1, p_max + 1))
        cases.append((ex, ey, w, p, cap))
        parts.append((t, n, cap, w.exponent_pairs, p))
    expectation = _batch_expectation_word_bound([(ex, ey, w, cap) for ex, ey, w, _, cap in cases])
    binomial = _batch_binomial_reduction([(ex, ey, p, cap) for ex, ey, _, p, cap in cases])
    return expectation, binomial, parts


def _sampled_tallies(seed: int, trials: range, dim_max: int, p_max: int) -> list[LemmaSummary]:
    """The tallies of the two lemmas on sampled ensembles, whose trials run
    in batches of _SAMPLED_TRIALS (see _sampled_batch)."""
    expectation, binomial, parts = [], [], []
    for lo in range(0, len(trials), _SAMPLED_TRIALS):
        batch = _sampled_batch(seed, trials[lo : lo + _SAMPLED_TRIALS], dim_max, p_max)
        for out, sides in zip((expectation, binomial, parts), batch):
            out += sides
    def label(i: int, key: str, k: int) -> str:
        return "trial={};n={};cap={};{}={}".format(*parts[i][:3], key, parts[i][k])

    return [
        _summary(LemmaId.EXPECTATION_WORD_BOUND, expectation, lambda i: label(i, "word", 3)),
        _summary(LemmaId.BINOMIAL_REDUCTION, binomial, lambda i: label(i, "p", 4)),
    ]


def _blocks(trials: int) -> list[tuple[int, int]]:
    """The (start, stop) blocks of _BLOCK_TRIALS trials that cover trials [0, trials), in order."""
    return [
        (start, min(start + _BLOCK_TRIALS, trials)) for start in range(0, trials, _BLOCK_TRIALS)
    ]


def _run_trial_block(args: tuple[int, int, int, int, int]) -> dict[LemmaId, LemmaSummary]:
    """The tallies of trials [start, stop), one lemma at a time over them all."""
    seed, start, stop, dim_max, p_max = args
    block = (seed, range(start, stop), dim_max, p_max)
    tallies = [
        _holder_tally(*block), _alt_tally(*block, 1), _alt_tally(*block, 2),
        _word_tally(*block), *_sampled_tallies(*block),
    ]
    return {tally.lemma_id: tally for tally in tallies}


def _theorem_tally(seed: int, start: int, stop: int) -> tuple[LemmaSummary, list[dict]]:
    """The audit of trials [start, stop): sampled families against the
    closed-form maximum, tallied, and a replayable dump of each failing
    trial, in trial order.

    Trial t draws its dimension, member count and power from the stream
    (seed, 2, t), then each member's support size, cap and alpha; the
    families of all trials are sampled together (see _families). Every power
    drawn is valid and every support within budget: no other error occurs.
    """
    trials = range(start, stop)
    rngs = list(streams([(seed, 2, t) for t in trials]))
    shapes = [
        tuple(int(rng.integers(1, top + 1)) for top in (_AUDIT_DIM, _AUDIT_MEMBERS, _AUDIT_POWER))
        for rng in rngs
    ]

    def request(i: int, k: int) -> tuple:
        rng = rngs[i]
        size = int(rng.integers(1, _AUDIT_ATOMS + 1))
        return shapes[i][0], size, float(rng.uniform(0.5, 2.0)), float(rng.uniform()), rng

    sampled = _families([count for _, count, _ in shapes], request)
    cases = [(EnsembleFamily(members=tuple(m)), p) for m, (_, _, p) in zip(sampled, shapes)]
    sides = _batch_theorem_max(cases)
    digests = [f"audit={t};n={n};N={count};p={p}" for t, (n, count, p) in zip(trials, shapes)]
    failures = [
        {"digest": digest, "lhs": lhs, "rhs": rhs, "p": p, "family": family_to_json(family)}
        for digest, (family, p), (lhs, rhs) in zip(digests, cases, sides)
        if not holds(lhs, rhs)
    ]
    return _summary(LemmaId.THEOREM_MAX, sides, lambda i: digests[i]), failures


def run_lemma_sweep(
    trials: int, dim_max: int, p_max: int, seed: int
) -> dict[LemmaId, LemmaSummary]:
    """Randomized constrained sweep over all six lemmas.

    Every trial owns counter-derived RNG streams keyed by (seed, trial), so
    results are independent of blocks, batches and worker count. Trials
    run in blocks of _BLOCK_TRIALS, one parallel task each, and a block
    runs one lemma at a time over all its trials (see _run_trial_block).
    Each block is tallied in its worker; the tallies are merged in block
    order. A p_max above MOMENT_BUDGET raises BudgetExceeded before any
    trial runs, so every power a trial draws is valid.
    """
    if trials < 1 or dim_max < 1 or p_max < 1:
        raise InvalidExponent(
            f"trials, dim_max, p_max must be positive, got {trials}, {dim_max}, {p_max}"
        )
    _validate_p(p_max)
    blocks = [(seed, start, stop, dim_max, p_max) for start, stop in _blocks(trials)]
    tallies = parallel_map(_run_trial_block, blocks)
    return {lemma: reduce(LemmaSummary.merge, (t[lemma] for t in tallies)) for lemma in tallies[0]}
