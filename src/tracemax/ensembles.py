"""Finitely-supported PSD matrix ensembles under norm constraints.

An ensemble is a random PSD matrix taking finitely many values (atoms)
with given probabilities, subject to a hard cap ||X|| <= L and an exact
mean-norm constraint ||E X|| = alpha * L. A FiniteEnsemble is one record
of read-only arrays, from the sampler to the dump: its atoms' entries,
eigensystems and probabilities, and its mean with its eigensystem. A
family is a tuple of independent ensembles sharing a dimension;
expectations over a family are exact sums over the finite product
support. exact_trace_moment raises BudgetExceeded when that support
exceeds SUPPORT_BUDGET outcomes; no checker falls back to Monte Carlo.

The sampler and every search proposal land on the mean-norm shell through
_project_batch, which rescales the atoms' spectra in their own
eigenbases: a few compounded rounds, then a Newton solve for one scale
factor, bracketed between the factors at which eigenvalues reach the cap.
It projects a batch of atom stacks at once, each with its own cap and
target: the search's lockstep restarts, and the batched sampler (_sample
and _attempt), which draws the ensembles of many requests, builds their
atoms one dimension at a time and projects them together. _ensembles
samples batches of families through it, member by member.

_stack alone packs batches of families into the zero-padded (B, N, S, ...)
layout, with (B, N) support sizes, that _stacked_moments enumerates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    ConstraintViolated,
    DimensionError,
    SamplerFailed,
    TracemaxError,
)
from .extremal import BernoulliParams, _target_error, _validate_p
from .linalg import (
    _eigensystems,
    _groups,
    _opnorms,
    _psd_floor,
    _spectral_arrays,
    _spectral_draw,
    _spectral_entries,
    _symmetrised,
    batched_trace_power,
)
from .rng import stream, subseed

PROB_TOL = 1e-12
CAP_SLACK = 1e-9
MEAN_REL_TOL = 1e-8
SUPPORT_BUDGET = 10**6

_PROJECTION_ROUNDS = 50
_CHUNK_BYTES = 64 * 1024


def _stacked_means(probs: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The symmetrised means of a batch: (B, s) probs and (B, s, n, n) atoms
    give (B, n, n), each summed over its atoms from left to right."""
    acc = 0.0
    for q, m in zip(probs.T[:, :, None, None], entries.swapaxes(0, 1)):
        acc = acc + q * m
    return _symmetrised(acc)


@dataclass(frozen=True, eq=False, init=False)
class FiniteEnsemble:
    """One random PSD matrix with finite support, held as read-only arrays.

    Atom i is atoms[i] (s, n, n), with probability probs[i] (s,),
    eigenvectors vecs[i] (s, n, n) as columns and ascending spectrum
    spectra[i] (s, n); E X is mean (n, n), with ascending spectrum
    mean_spectrum (n,) and eigenvectors mean_vecs (n, n). ``cap`` is the
    operator-norm bound L every atom must respect; ``alpha`` is the target
    mean-norm fraction, so ||E X|| = alpha * cap.

    Given entries, the atoms are stored as 0.5 * (M + M^T) and solved by
    one batched eigh. Code that holds the eigensystems passes
    eigensystems=(vecs, spectra), and may pass mean=(mean, mean_spectrum,
    mean_vecs), vouching that they are exact, as the sampler, the climb
    and bernoulli_member hold them; no eigensolver then runs on the atoms,
    which are kept as views. Either way the constraints are verified here,
    making instances witnesses of admissibility.
    """

    atoms: np.ndarray
    probs: np.ndarray
    cap: float
    alpha: float
    vecs: np.ndarray
    spectra: np.ndarray
    mean: np.ndarray
    mean_spectrum: np.ndarray
    mean_vecs: np.ndarray

    def __init__(self, atoms, probs, cap, alpha, *, eigensystems=None, mean=None):
        probs = np.array(probs, dtype=float)
        if not len(atoms):
            raise DimensionError("ensemble needs at least one atom")
        if len(atoms) != len(probs):
            raise DimensionError(f"{len(atoms)} atoms but {len(probs)} probabilities")
        if eigensystems is None:
            try:
                atoms = np.array(atoms, dtype=float)
            except ValueError:  # matrices of several shapes
                dims = sorted({len(a) for a in atoms})
                raise DimensionError(f"atom dims differ: {dims}") from None
            if atoms.ndim != 3 or not atoms.shape[1] == atoms.shape[2] >= 1:
                raise DimensionError(f"expected square atoms, got shape {atoms.shape[1:]}")
            atoms = _symmetrised(atoms)
            spectra, vecs = np.linalg.eigh(atoms)
        else:
            vecs, spectra = eigensystems
        if error := _target_error(cap, alpha):
            raise error
        # each test is written so that a NaN fails it
        for q in probs.tolist():
            if not q >= 0.0:
                raise ConstraintViolated(f"probability {q} is not >= 0")
        total = math.fsum(probs.tolist())
        if not abs(total - 1.0) <= PROB_TOL:
            raise ConstraintViolated(f"probabilities sum to {total!r}, not 1")
        norms = _opnorms(spectra)
        for passed, failure in (
            (np.isfinite(atoms).all(axis=(1, 2)), "has a non-finite entry"),
            (spectra[:, 0] >= _psd_floor(norms), "is not PSD (min eigenvalue {low:.3e})"),
            (norms <= cap * (1.0 + CAP_SLACK), "has norm {norm!r} above cap {cap!r}"),
        ):
            if not passed.all():
                i = int(np.argmin(passed))
                detail = failure.format(low=spectra[i, 0], norm=float(norms[i]), cap=cap)
                raise ConstraintViolated(f"atom {i} {detail}")
        if mean is None:
            mean = _stacked_means(probs[None], atoms[None])[0]
            mean = (mean, *np.linalg.eigh(mean))
        mean_norm = float(_opnorms(mean[1]))
        target = alpha * cap
        # Tiny absolute floor so alpha = 0 (target 0) stays checkable.
        tol = MEAN_REL_TOL * target + 1e-12 * (1.0 + cap)
        if not abs(mean_norm - target) <= tol:
            raise ConstraintViolated(
                f"mean norm {mean_norm!r} misses target {target!r} by more than {tol:.3e}"
            )
        arrays = (atoms, probs, vecs, spectra, *mean)
        names = ("atoms", "probs", "vecs", "spectra", "mean", "mean_spectrum", "mean_vecs")
        for name, array in zip(names, arrays):
            view = array.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "alpha", alpha)

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays, say a family sent back by a worker, are writeable
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)

    @property
    def dim(self) -> int:
        return self.atoms.shape[-1]

    @property
    def support_size(self) -> int:
        return len(self.probs)

    @property
    def mean_norm(self) -> float:
        return float(_opnorms(self.mean_spectrum))


@dataclass(frozen=True, eq=False)
class EnsembleFamily:
    """Independent ensembles sharing one dimension (joint law = product)."""

    members: tuple[FiniteEnsemble, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise DimensionError("family needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise DimensionError(f"member dims differ: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def params(self) -> BernoulliParams:
        """Declared (cap, alpha) targets of the members, in order."""
        return BernoulliParams(
            caps=tuple(m.cap for m in self.members),
            alphas=tuple(m.alpha for m in self.members),
        )


def _top_norms(means: np.ndarray) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Operator norms of a (B, n, n) stack of symmetric means, with their eigensystems."""
    lam, vecs = np.linalg.eigh(means)
    return _opnorms(lam).tolist(), lam, vecs


def _project_batch(
    vecs: np.ndarray,
    lam: np.ndarray,
    entries: np.ndarray,
    probs: np.ndarray,
    sizes: Sequence[int],
    caps: Sequence[float],
    targets: Sequence[float],
) -> tuple:
    """Rescale B atom stacks spectrally, under their caps, onto their mean-norm shells.

    Row b holds sizes[b] atoms: eigenbases vecs[b] (B, s, n, n), ascending
    spectra lam[b] (B, s, n), entries[b] (B, s, n, n) and probs[b] (B, s),
    and is projected onto the shell of mean norm targets[b] =
    alpha_b * caps[b] under the cap caps[b]. Slots past sizes[b] are
    padding with zero probability and a zero spectrum and entries; their
    terms add exact zeros to the means, so every row gets the bits it
    would get alone.

    Scale factors multiply eigenvalues, clipped into [0, cap]; the
    eigenbases never change, so the atoms' eigensystems stay valid.
    A row is accepted once its mean norm is within 1e-9 * target of the
    target. Rows already on the shell come back as they are. The others
    take up to seven compounded rescale rounds, each scaling the current
    spectra by target / norm. One round is exact when nothing clips, which
    covers warm inputs near the shell. Near alpha = 1 compounding stalls,
    because its rate degrades to the clipped-mass fraction; a row that
    stalls, or whose mean is zero, takes the Newton fallback of
    _solve_scale, one row at a time.

    Returns (landed, spectra, entries, means, mean_lam, mean_vecs): whether
    each row landed on its shell, the rows' spectra and entries on return
    (their eigenbases never change), and the final mean of each row with
    its eigensystem. A row fails to land when its target is unreachable or
    the fallback runs out of steps; callers turn that into SamplerFailed or
    a rejected proposal. A zero target zeroes its row, which then lands.
    Per-row scalars live in Python lists, so a batch of one costs little
    more than a single projection.
    """
    zero = [target == 0.0 for target in targets]
    if any(zero):
        lam, entries = lam.copy(), entries.copy()
        lam[zero], entries[zero] = 0.0, 0.0
    tols = [1e-9 * target for target in targets]

    means = _stacked_means(probs, entries)
    norms, mean_lam, mean_vecs = _top_norms(means)
    landed = [abs(norm - target) <= tol for norm, target, tol in zip(norms, targets, tols)]
    rows = [b for b, on_shell in enumerate(landed) if not on_shell]
    if not rows:
        return landed, lam, entries, means, mean_lam, mean_vecs
    spectra, entries = lam.copy(), entries.copy()
    # The rows still in the rounds, compacted (a view while that is every
    # row): spectra, probabilities, eigenbases and caps. Rounds over every
    # row, updated in place, were about 5% slower. Scaling by t > 0
    # and clipping are monotone, so every spectrum stays ascending, as the
    # atoms' eigensystems must be.
    live = slice(None) if len(rows) == len(landed) else rows
    scaled, q, basis = lam[live], probs[live], vecs[live]
    top = np.array(caps, dtype=float)[live, None, None]
    norms = [norms[b] for b in rows]
    stalled: list[int] = []
    for _ in range(7):
        if 0.0 in norms:  # a zero mean cannot be rescaled: fallback
            keep = [norm != 0.0 for norm in norms]
            stalled += [b for b, kept in zip(rows, keep) if not kept]
            rows = [b for b, kept in zip(rows, keep) if kept]
            norms = [norm for norm in norms if norm != 0.0]
            scaled, q, basis, top = scaled[keep], q[keep], basis[keep], top[keep]
            if not rows:
                break
        factors = np.array([targets[b] / norm for b, norm in zip(rows, norms)])[:, None, None]
        scaled = np.clip(scaled * factors, 0.0, top)
        moved = _spectral_entries(basis, scaled)
        mean = _stacked_means(q, moved)
        norms, top_lam, top_vecs = _top_norms(mean)
        hits = [abs(norm - targets[b]) <= tols[b] for b, norm in zip(rows, norms)]
        if all(hits) and len(rows) == len(landed):
            # every row lands in this round: the round's arrays are the result
            return [True] * len(landed), scaled, moved, mean, top_lam, top_vecs
        if any(hits):
            done = [b for b, hit in zip(rows, hits) if hit]
            for b in done:
                landed[b] = True
            spectra[done], entries[done], means[done] = scaled[hits], moved[hits], mean[hits]
            mean_lam[done], mean_vecs[done] = top_lam[hits], top_vecs[hits]
            keep = [not hit for hit in hits]
            rows = [b for b, hit in zip(rows, hits) if not hit]
            norms = [norm for norm, hit in zip(norms, hits) if not hit]
            scaled, q, basis, top = scaled[keep], q[keep], basis[keep], top[keep]
            if not rows:
                break

    for b in stalled + rows:
        s = sizes[b]
        solved = _solve_scale(
            vecs[b, :s], lam[b, :s], probs[b, :s], caps[b], targets[b], tols[b]
        )
        if solved is not None:
            spectra[b, :s], entries[b, :s], means[b], mean_lam[b], mean_vecs[b] = solved
            landed[b] = True
    return landed, spectra, entries, means, mean_lam, mean_vecs


def _solve_scale(
    vecs: np.ndarray,
    lam: np.ndarray,
    probs: np.ndarray,
    cap: float,
    target: float,
    tol: float,
) -> tuple[np.ndarray, ...] | None:
    """The Newton fallback of _project_batch for one stack of s atoms.

    Solves g(t) = target for one factor t on the original spectra, where
    g(t) = ||sum_i q_i Q_i clip(t Lambda_i, 0, cap) Q_i^T||. g is
    nondecreasing, and between the breakpoints t = cap / lambda_ij it is
    the top eigenvalue of an affine matrix function, hence convex. One
    batched eigensolve over all breakpoints brackets the root within one
    piece, or shows that the target exceeds the saturated value
    g(last breakpoint) = cap * ||sum_i q_i P_i||, P_i the projector onto
    the range of atom i. Newton's method then runs from the right end of
    the piece, with slope v^T B v for the top eigenvector v and the
    unclipped part B; a step that leaves the bracket bisects instead.

    Returns the spectra, entries, mean and the mean's eigensystem on the
    shell, or None if the target is unreachable or _PROJECTION_ROUNDS
    steps run out.
    """
    lam = np.maximum(lam, 0.0)
    with np.errstate(divide="ignore"):
        knee = cap / lam  # the factor at which each eigenvalue reaches the cap
    # np.sort, not np.unique: np.unique imports numpy.ma, 1.5 MB of resident memory
    knots = np.sort(knee[np.isfinite(knee)])
    if knots.size == 0:
        return None
    s, n = lam.shape
    cols = vecs.transpose(0, 2, 1)  # cols[i, j] is eigenvector j of atom i
    rank_one = probs[:, None, None, None] * cols[:, :, :, None] * cols[:, :, None, :]
    coef = np.clip(knots[:, None] * lam.ravel(), 0.0, cap)
    means = (coef @ rank_one.reshape(s * n, n * n)).reshape(-1, n, n)
    tops, top_vecs = np.linalg.eigh(means)
    if tops[-1, -1] < target - tol:
        return None
    # the first knot whose value reaches the target, else the last one
    k = min(int(np.count_nonzero(tops[:, -1] < target)), knots.size - 1)
    lo = float(knots[k - 1]) if k else 0.0
    hi = float(knots[k])
    slope_weights = probs[:, None] * lam * (knee >= hi)
    t, norm, top = hi, float(tops[k, -1]), top_vecs[k, :, -1]
    for _ in range(_PROJECTION_ROUNDS):
        slope = float(np.sum(slope_weights * (cols @ top) ** 2))
        t = t - (norm - target) / slope if slope > 0.0 else lo
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        spectra = np.clip(lam * t, 0.0, cap)
        entries = _spectral_entries(vecs, spectra)
        mean = _stacked_means(probs[None], entries[None])[0]
        mean_lam, mean_vecs = np.linalg.eigh(mean)
        norm, top = float(_opnorms(mean_lam)), mean_vecs[:, -1]
        if abs(norm - target) <= tol:
            return spectra, entries, mean, mean_lam, mean_vecs
        if norm < target:
            lo = t
        else:
            hi = t
    return None


SAMPLER_ATTEMPTS = 10


def _checked(*args, **kwargs) -> FiniteEnsemble | TracemaxError:
    """FiniteEnsemble(*args, **kwargs), or the error its validation raises."""
    try:
        return FiniteEnsemble(*args, **kwargs)
    except TracemaxError as exc:
        return exc


def _attempt(
    rows: Sequence[tuple[int, int, float, float, int]],
) -> list[FiniteEnsemble | TracemaxError]:
    """One sampler attempt for each row (n, s, cap, alpha, seed).

    Row b draws from stream(seed): its probabilities from a flat simplex,
    then each atom's rotation angles and spectrum, uniform on [0, cap], by
    linalg._spectral_draw. The atoms of all rows of one dimension are
    built together and projected onto their mean-norm shells by one
    _project_batch call, padded to the longest support; a projected
    ensemble's arrays, its mean and the mean's eigensystem included, are
    views of its row of the projection's.
    alpha = 0 forces zero atoms and alpha = 1 makes every atom cap * I,
    always admissible; neither is projected. A row gets the error its
    validation raises, or a SamplerFailed naming its seed if its
    projection fails.
    """
    results: list[FiniteEnsemble | TracemaxError | None] = [None] * len(rows)
    drawn = []  # (row, probs, draws) of each row to project
    for row, (n, s, cap, alpha, seed) in enumerate(rows):
        if n < 1 or s < 1:
            results[row] = DimensionError(f"need n >= 1 and s >= 1, got n={n}, s={s}")
        elif error := _target_error(cap, alpha):
            results[row] = error
        else:
            rng = stream(seed)
            probs = rng.dirichlet(np.ones(s))
            if alpha in (0.0, 1.0):
                eye = np.broadcast_to(np.eye(n), (s, n, n))
                vecs, spectra, atoms = _eigensystems(eye, np.full((s, n), alpha * cap))
                results[row] = _checked(atoms, probs, cap, alpha, eigensystems=(vecs, spectra))
            else:
                drawn.append((row, probs, [_spectral_draw(n, rng, 0.0, cap) for _ in range(s)]))

    for n, idx in _groups(rows[row][0] for row, _, _ in drawn).items():
        group = [drawn[i] for i in idx]
        q, lam, entries = _spectral_arrays(n, [d for *_, row_draws in group for d in row_draws])
        sizes = [len(probs) for _, probs, _ in group]
        # atom i of row b goes to slot (b, i) of arrays padded to the longest
        # support, by one scatter per array (a loop-based packer slowed _sample)
        owners = np.repeat(np.arange(len(group)), sizes)
        slot = owners, np.concatenate([np.arange(s) for s in sizes])
        padded = np.zeros((len(group), max(sizes)))
        vecs = np.zeros(padded.shape + (n, n))
        spectra = np.zeros(padded.shape + (n,))
        stacked = np.zeros(padded.shape + (n, n))
        padded[slot] = np.concatenate([probs for _, probs, _ in group])
        vecs[slot], spectra[slot], stacked[slot] = q, lam, entries
        caps = [rows[row][2] for row, _, _ in group]
        targets = [rows[row][3] * rows[row][2] for row, _, _ in group]
        landed, spectra, stacked, means, mean_lam, mean_vecs = _project_batch(
            vecs, spectra, stacked, padded, sizes, caps, targets
        )
        for b, (row, probs, _) in enumerate(group):
            n, s, cap, alpha, seed = rows[row]
            if not landed[b]:
                results[row] = SamplerFailed(
                    f"mean-norm projection did not converge for seed {seed} "
                    f"(n={n}, s={s}, cap={cap}, alpha={alpha})"
                )
            else:
                results[row] = _checked(
                    stacked[b, :s], probs, cap, alpha,
                    eigensystems=(vecs[b, :s], spectra[b, :s]),
                    mean=(means[b], mean_lam[b], mean_vecs[b]),
                )
    return results


def _sample(
    requests: Sequence[tuple[int, int, float, float, np.random.Generator]],
) -> list[FiniteEnsemble | TracemaxError]:
    """A random admissible ensemble for every request (n, s, cap, alpha, rng).

    Convergence failures are rare and seed-specific; retrying with the
    next derived seed keeps sweeps deterministic without aborting them.
    Each attempt, at most SAMPLER_ATTEMPTS, draws one sampler seed from
    the rng of every request still pending, that is, whose attempts so far
    ended in SamplerFailed, and runs _attempt on them all. A request thus draws
    from its own rng exactly as it does alone. Each result is the
    ensemble, the last SamplerFailed if every attempt fails, or any other
    error, which ends the request's attempts at once.
    """
    results: list[FiniteEnsemble | TracemaxError] = [None] * len(requests)
    pending = list(range(len(requests)))
    for _ in range(SAMPLER_ATTEMPTS):
        rows = [(*requests[i][:4], subseed(requests[i][4])) for i in pending]
        for i, result in zip(pending, _attempt(rows)):
            results[i] = result
        pending = [i for i in pending if isinstance(results[i], SamplerFailed)]
        if not pending:
            break
    return results


def _ensembles(
    counts: Sequence[int], request: Callable[[int, int], tuple]
) -> list[list[FiniteEnsemble] | TracemaxError]:
    """Members 0 .. counts[i] - 1 of each row i, or the row's first error.

    request(i, k) draws member k's _sample request (n, s, cap, alpha, rng)
    from row i's own stream. Member k of every row still free of errors is
    sampled in one _sample call, and request(i, k + 1) is called only after
    it, so each row draws from its stream exactly as it does alone. A row
    draws nothing after its first error; callers raise the first error in
    row order, which such draws could not change.
    """
    members: list = [[] for _ in counts]
    for k in range(max(counts, default=0)):
        rows = [i for i, count in enumerate(counts) if k < count and isinstance(members[i], list)]
        for i, member in zip(rows, _sample([request(i, k) for i in rows])):
            if isinstance(member, TracemaxError):
                members[i] = member
            else:
                members[i].append(member)
    return members


def bernoulli_member(n: int, cap: float, alpha: float) -> FiniteEnsemble:
    """The scalar surrogate f I: cap * I with probability alpha, else 0.

    Its atoms and its mean alpha * cap * I carry the identity eigenbasis;
    the mean is the left-to-right mean of the two atoms bit for bit. A
    cap that is not positive and finite, or an alpha outside [0, 1],
    raises ConstraintViolated before any atom is built.
    """
    if error := _target_error(cap, alpha):
        raise error
    eye = np.eye(n)
    spectra = np.zeros((2, n))
    spectra[0] = cap
    return FiniteEnsemble(
        spectra[:, :, None] * eye, (alpha, 1.0 - alpha), cap, alpha,
        eigensystems=(eye[None].repeat(2, axis=0), spectra),
        mean=(alpha * cap * eye, spectra[0] * alpha, eye),
    )


def extremal_family(n: int, params: BernoulliParams) -> EnsembleFamily:
    """The conjectured maximizer: member k takes cap_k * I w.p. alpha_k, else 0."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    return EnsembleFamily(
        members=tuple(
            bernoulli_member(n, cap, alpha) for cap, alpha in zip(params.caps, params.alphas)
        )
    )


def _chunk_outcomes(n: int) -> int:
    """Outcomes per enumeration chunk: one (k, n, n) float64 stack per budget."""
    return max(1, _CHUNK_BYTES // (8 * n * n))


def exact_trace_moment(family: EnsembleFamily, p: int) -> float:
    """E tr((X_1 + ... + X_N)^p), summed exactly over the product support.

    Outcomes are enumerated in row-major order (the last member varies
    fastest) in chunks whose (k, n, n) stacks take at most ``_CHUNK_BYTES``:
    128 outcomes at n = 8, 8192 at n = 1. The allocator reuses heap blocks
    that small, where it would map and unmap larger ones on every chunk at
    the cost of a page fault per page. The trailing members whose joint
    support fits in one chunk are added by broadcasting over all their
    outcomes at once; the leading members are gathered by index (sliced,
    when the first member leads alone).

    Chunks are grouped into blocks, so that the per-call numpy overhead of
    the gathers and of the weights is paid once per block. A block is the
    longest run of whole chunks whose gathered leading sums fit in
    ``_CHUNK_BYTES``, as does the list of Python floats its outcomes
    become: one chunk at n = 1, up to 2048 outcomes at n = 8. Memory thus
    stays bounded whatever the support. Each chunk of a block slices the
    block's leading sums, adds the trailing members and writes its traces
    into the block's trace array; one product with the weights and one
    ``tolist`` per block feed math.fsum. Sums and weight products are
    formed member by member from left to right, each outcome's trace is
    independent of the others and math.fsum is exact, so neither the chunk
    size, the block size nor the split changes any result.

    It calls _trace_moment directly: through _stack and _stacked_moments a
    single small family took about 130 us instead of 60. Batches of
    families, the audit's among them, go through _stacked_moments.
    """
    p = _validate_p(p)
    _require_support(tuple(m.support_size for m in family.members))
    return _trace_moment(
        [m.atoms for m in family.members], [m.probs for m in family.members], p
    )


def _require_support(sizes: tuple[int, ...]) -> None:
    """Raise BudgetExceeded if members of these support sizes have too many outcomes."""
    support = math.prod(sizes)
    if support > SUPPORT_BUDGET:
        raise BudgetExceeded(
            f"product support has {support} outcomes, budget is {SUPPORT_BUDGET}"
        )


def _trace_moment(stacks: list[np.ndarray], prob_arrays: list[np.ndarray], p: int) -> float:
    """exact_trace_moment of the members whose (s, n, n) atoms and (s,) probs are given."""
    sizes = tuple(len(q) for q in prob_arrays)
    n = stacks[0].shape[-1]
    chunk = _chunk_outcomes(n)

    # members[split:] are broadcast; the first member always leads
    split, tail = len(sizes), 1
    while split > 1 and tail * sizes[split - 1] <= chunk:
        split -= 1
        tail *= sizes[split]
    heads = math.prod(sizes[:split])
    step = chunk // tail  # leading outcomes per chunk
    # leading outcomes per block: at most one chunk's worth of leading sums,
    # and a list of at most _CHUNK_BYTES / 32 floats (24 bytes and a slot each)
    block = step * max(1, min(chunk // step, _CHUNK_BYTES // (32 * step * tail)))

    def block_contributions(start: int) -> list[float]:
        stop = min(start + block, heads)
        if split == 1:
            sums, weight = stacks[0][start:stop], prob_arrays[0][start:stop]
        else:
            idx = np.unravel_index(np.arange(start, stop), sizes[:split])
            sums = stacks[0][idx[0]]
            weight = prob_arrays[0][idx[0]]
            for k in range(1, split):
                sums += stacks[k][idx[k]]
                weight *= prob_arrays[k][idx[k]]
        for k in range(split, len(sizes)):
            weight = weight[..., None] * prob_arrays[k]
        traces = np.empty((stop - start) * tail)
        for lo in range(0, stop - start, step):
            total = sums[lo : lo + step]
            for k in range(split, len(sizes)):
                total = total[..., None, :, :] + stacks[k]
            stack = total.reshape(-1, n, n)
            traces[lo * tail : lo * tail + len(stack)] = batched_trace_power(stack, p)
        return (weight.ravel() * traces).tolist()

    return math.fsum(
        itertools.chain.from_iterable(
            block_contributions(start) for start in range(0, heads, block)
        )
    )


def _stack(families: Sequence[Sequence[FiniteEnsemble]]) -> tuple[np.ndarray, ...]:
    """(probs, vecs, spectra, atoms, sizes) of B families of N members:
    member k of family b has sizes[b, k] (B, N) atoms, laid out as
    probs[b, k, :s] (B, N, S), vecs and atoms (B, N, S, n, n) and ascending
    spectra (B, N, S, n). S is the longest support; other slots are exact
    zeros. Each array is one scatter of the members' arrays."""
    members = [m for family in families for m in family]
    counts = [m.support_size for m in members]
    # atom i of member m goes to slot (m, i)
    slot = np.repeat(np.arange(len(counts)), counts), np.concatenate([np.arange(s) for s in counts])
    shape, n = (len(counts), max(counts)), members[0].dim
    probs, spectra = np.zeros(shape), np.zeros(shape + (n,))
    vecs, atoms = np.zeros(shape + (n, n)), np.zeros(shape + (n, n))
    probs[slot] = np.concatenate([m.probs for m in members])
    vecs[slot] = np.concatenate([m.vecs for m in members])
    spectra[slot] = np.concatenate([m.spectra for m in members])
    atoms[slot] = np.concatenate([m.atoms for m in members])
    sizes = np.array(counts).reshape(len(families), -1)
    return (*(a.reshape(sizes.shape + a.shape[1:]) for a in (probs, vecs, spectra, atoms)), sizes)


def _stacked_moments(
    entries: np.ndarray, probs: np.ndarray, sizes: np.ndarray, p: int
) -> list[float]:
    """exact_trace_moment of B families held as stacked arrays, bit for bit.

    Member k of family b is entries[b, k, :sizes[b, k]] (B, N, s, n, n)
    with probabilities probs[b, k, :sizes[b, k]] (B, N, s); p is valid and
    every support within budget. A family whose support exceeds one
    enumeration chunk is enumerated alone, by _trace_moment. The others
    are enumerated together, as many families per batched_trace_power call
    as fit in one chunk, which is what makes small supports cheap. Each
    outcome's sum and weight are formed member by member from left to
    right, its trace does not depend on its neighbours and math.fsum is
    exact, so the grouping changes no value.

    The enumerations stay two, chosen by support size (large_support runs
    both): folding _trace_moment into this gather made that benchmark 32%
    slower serially, 0 of 12 seeds won. Conditional sums need both.
    """
    count, members, _, n, _ = entries.shape
    chunk = _chunk_outcomes(n)
    supports = np.prod(sizes, axis=1)
    values = [0.0] * count

    def enumerate_together(group: list[int]) -> None:
        rows = np.array(group)
        counts = supports[rows]
        family = np.repeat(rows, counts)
        # row-major outcome index within each family, last member fastest
        local = np.arange(family.size) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = [local] * members
        for k in reversed(range(members)):
            size = sizes[family, k]
            idx[k] = local % size
            local = local // size
        total = entries[family, 0, idx[0]]
        weight = probs[family, 0, idx[0]]
        for k in range(1, members):
            total += entries[family, k, idx[k]]
            weight *= probs[family, k, idx[k]]
        contributions = (weight * batched_trace_power(total, p)).tolist()
        stops = np.cumsum(counts).tolist()
        for b, start, stop in zip(group, [0] + stops, stops):
            values[b] = math.fsum(contributions[start:stop])

    group: list[int] = []
    pending = 0
    for b, support in enumerate(supports.tolist()):
        if support > chunk:
            values[b] = _trace_moment(
                [entries[b, k, :s] for k, s in enumerate(sizes[b].tolist())],
                [probs[b, k, :s] for k, s in enumerate(sizes[b].tolist())],
                p,
            )
            continue
        if pending + support > chunk:
            enumerate_together(group)
            group, pending = [], 0
        group.append(b)
        pending += support
    if group:
        enumerate_together(group)
    return values


# JSON replay format: {"dim": n, "members": [{"atoms": [flat row-major], ...}]}

def family_to_json(family: EnsembleFamily) -> dict:
    return {
        "dim": family.dim,
        "members": [
            {
                "atoms": m.atoms.reshape(m.support_size, -1).tolist(),
                "probs": m.probs.tolist(),
                "L_cap": m.cap,
                "alpha_target": m.alpha,
            }
            for m in family.members
        ],
    }


def _field(doc: dict, key: str, convert: Callable, where: str):
    """convert(doc[key]), or ConstraintViolated naming where and the key."""
    try:
        return convert(doc[key])
    except KeyError:
        raise ConstraintViolated(f"{where} has no {key!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConstraintViolated(f"{where} has a malformed {key!r}: {exc}") from None


def _number(value) -> float:
    """A JSON number, an int or a float but not a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _numbers(value) -> np.ndarray:
    """A flat JSON list of numbers, as a float array."""
    if not isinstance(value, list):
        raise TypeError(f"expected a flat list of numbers, got {value!r}")
    return np.array([_number(v) for v in value], dtype=float)


def _members(value) -> list:
    """A JSON list of JSON objects."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of objects, got {value!r}")
    for k, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise TypeError(f"member {k} is {entry!r}, not an object")
    return value


def family_from_json(doc: dict) -> EnsembleFamily:
    """The checked family of a replay document; a missing or mistyped key,
    or a non-finite atom entry, raises ConstraintViolated."""
    dim = _field(doc, "dim", lambda v: v, "family")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ConstraintViolated(f"family has a malformed 'dim': {dim!r} is not an integer >= 1")
    members = []
    for k, entry in enumerate(_field(doc, "members", _members, "family")):
        where = f"member {k}"
        flats = _field(entry, "atoms", lambda v: list(map(_numbers, v)), where)
        for i, flat in enumerate(flats):
            if flat.size != dim * dim:
                raise DimensionError(
                    f"member {k} atom {i} has {flat.size} entries, not {dim * dim} (dim {dim})"
                )
        members.append(
            FiniteEnsemble(
                atoms=np.array(flats).reshape(-1, dim, dim),
                probs=_field(entry, "probs", _numbers, where),
                cap=_field(entry, "L_cap", _number, where),
                alpha=_field(entry, "alpha_target", _number, where),
            )
        )
    return EnsembleFamily(members=tuple(members))
