"""Finitely-supported PSD matrix ensembles under norm constraints.

An ensemble is a random PSD matrix taking finitely many values (atoms)
with given probabilities, subject to a hard cap ||X|| <= L and an exact
mean-norm constraint ||E X|| = alpha * L. A family is a tuple of
independent ensembles sharing a dimension; expectations over a family are
exact sums over the finite product support. exact_trace_moment raises
BudgetExceeded when that support exceeds SUPPORT_BUDGET outcomes; no
checker falls back to Monte Carlo.

The sampler and every search proposal land on the mean-norm shell through
project_mean_shell, which rescales the atoms' spectra in their own
eigenbases: a few compounded rounds, then a Newton solve for one scale
factor, bracketed between the factors at which eigenvalues reach the cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    BudgetExceeded,
    ConstraintViolated,
    DimensionError,
    SamplerFailed,
)
from .extremal import BernoulliParams, _validate_p
from .linalg import SymMatrix, batched_trace_power, random_spectral
from .rng import stream, subseed

PROB_TOL = 1e-12
CAP_SLACK = 1e-9
MEAN_REL_TOL = 1e-8
SUPPORT_BUDGET = 10**6

_PROJECTION_ROUNDS = 50
_CHUNK_BYTES = 64 * 1024


def _mean(probs: tuple[float, ...], matrices: Iterable[np.ndarray]) -> SymMatrix:
    """sum_i probs[i] * matrices[i], accumulated from left to right."""
    acc = 0.0
    for q, m in zip(probs, matrices):
        acc = acc + q * m
    return SymMatrix(acc)


def require_caps(atoms: Iterable[SymMatrix], cap: float) -> None:
    """Raise ConstraintViolated unless every atom's norm is at most cap(1 + CAP_SLACK)."""
    for i, a in enumerate(atoms):
        if a.opnorm > cap * (1.0 + CAP_SLACK):
            raise ConstraintViolated(f"atom {i} has norm {a.opnorm!r} above cap {cap!r}")


@dataclass(frozen=True, eq=False)
class FiniteEnsemble:
    """One random PSD matrix with finite support.

    ``cap`` is the operator-norm bound L every atom must respect;
    ``alpha`` is the target mean-norm fraction, so ||E X|| = alpha * cap.
    Constraints are verified at construction, making instances witnesses
    of admissibility.
    """

    atoms: tuple[SymMatrix, ...]
    probs: tuple[float, ...]
    cap: float
    alpha: float

    def __post_init__(self):
        atoms = tuple(self.atoms)
        probs = tuple(float(q) for q in self.probs)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)
        if not atoms:
            raise DimensionError("ensemble needs at least one atom")
        if len(atoms) != len(probs):
            raise DimensionError(
                f"{len(atoms)} atoms but {len(probs)} probabilities"
            )
        dims = {a.dim for a in atoms}
        if len(dims) != 1:
            raise DimensionError(f"atom dims differ: {sorted(dims)}")
        if not self.cap > 0:
            raise ConstraintViolated(f"cap must be positive, got {self.cap}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConstraintViolated(f"alpha must lie in [0, 1], got {self.alpha}")
        for q in probs:
            if q < 0.0:
                raise ConstraintViolated(f"negative probability {q}")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_TOL:
            raise ConstraintViolated(f"probabilities sum to {total!r}, not 1")
        for i, a in enumerate(atoms):
            if not a.is_psd():
                raise ConstraintViolated(
                    f"atom {i} is not PSD (min eigenvalue {a.min_eigenvalue():.3e})"
                )
        require_caps(atoms, self.cap)
        target = self.alpha * self.cap
        # Tiny absolute floor so alpha = 0 (target 0) stays checkable.
        tol = MEAN_REL_TOL * target + 1e-12 * (1.0 + self.cap)
        if abs(self.mean_norm - target) > tol:
            raise ConstraintViolated(
                f"mean norm {self.mean_norm!r} misses target "
                f"{target!r} by more than {tol:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.atoms[0].dim

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    @cached_property
    def mean(self) -> SymMatrix:
        return _mean(self.probs, (a.entries for a in self.atoms))

    @property
    def mean_norm(self) -> float:
        return self.mean.opnorm


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


def _spectral_entries(vecs: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Entries of Q diag(lam) Q^T for a (s, n, n) stack of eigenbases.

    Each slice is computed and symmetrised exactly as
    SymMatrix.from_eigensystem stores it for an ascending spectrum, and
    symmetrising it again leaves it unchanged.
    """
    m = (vecs * spectra[:, None, :]) @ vecs.transpose(0, 2, 1)
    return 0.5 * (m + m.transpose(0, 2, 1))


def _atoms(
    vecs: np.ndarray, spectra: np.ndarray, entries: np.ndarray
) -> tuple[SymMatrix, ...]:
    return tuple(SymMatrix.seeded(*atom) for atom in zip(entries, vecs, spectra))


def project_mean_shell(
    atoms: tuple[SymMatrix, ...],
    probs: tuple[float, ...],
    cap: float,
    alpha: float,
) -> tuple[SymMatrix, ...] | None:
    """Rescale atoms (spectrally, capped at ``cap``) until ||mean|| = alpha*cap.

    Scale factors multiply eigenvalues, clipped into [0, cap]; the
    eigenbasis never changes, so cached spectra stay valid. A result is
    accepted once its mean norm is within 1e-9 * alpha * cap of the target.

    Inputs already on the shell come back as they are. Otherwise up to
    seven compounded rescale rounds follow, each scaling the current
    spectra by target / norm. One round is exact when nothing clips, which
    covers warm inputs near the shell. The rounds run on the stacked
    (s, n, n) eigenbases and (s, n) spectra, and atoms are built only on
    return.

    Near alpha = 1 compounding stalls, because its rate degrades to the
    clipped-mass fraction. The fallback then solves g(t) = target for one
    factor t on the original spectra, where
    g(t) = ||sum_i q_i Q_i clip(t Lambda_i, 0, cap) Q_i^T||. g is
    nondecreasing, and between the breakpoints t = cap / lambda_ij it is
    the top eigenvalue of an affine matrix function, hence convex. One
    batched eigensolve over all breakpoints brackets the root within one
    piece, or shows that the target exceeds the saturated value
    g(last breakpoint) = cap * ||sum_i q_i P_i||, P_i the projector onto
    the range of atom i. Newton's method then runs from the right end of
    the piece, with slope v^T B v for the top eigenvector v and the
    unclipped part B; a step that leaves the bracket bisects instead.

    Returns None if the target is unreachable or the fallback's
    _PROJECTION_ROUNDS steps run out, which callers translate into
    SamplerFailed or a rejected proposal.
    """
    target = alpha * cap
    if target == 0.0:
        return tuple(SymMatrix.zeros(a.dim) for a in atoms)
    tol = 1e-9 * target

    norm = _mean(probs, (a.entries for a in atoms)).opnorm
    if abs(norm - target) <= tol:
        return atoms
    vecs = np.stack([a.eig.eigenvectors for a in atoms])
    lam = np.stack([a.eig.eigenvalues for a in atoms])
    # Scaling by t > 0 and clipping are monotone, so every spectrum stays
    # ascending, as the atoms' eigendecomposition caches must be.
    spectra = lam
    for _ in range(7):
        if norm == 0.0:
            break
        spectra = np.clip(spectra * (target / norm), 0.0, cap)
        entries = _spectral_entries(vecs, spectra)
        norm = _mean(probs, entries).opnorm
        if abs(norm - target) <= tol:
            return _atoms(vecs, spectra, entries)

    lam = np.maximum(lam, 0.0)
    with np.errstate(divide="ignore"):
        knee = cap / lam  # the factor at which each eigenvalue reaches the cap
    # np.sort, not np.unique: np.unique imports numpy.ma, 1.5 MB of resident memory
    knots = np.sort(knee[np.isfinite(knee)])
    if knots.size == 0:
        return None
    s, n = lam.shape
    q = np.asarray(probs)
    cols = vecs.transpose(0, 2, 1)  # cols[i, j] is eigenvector j of atom i
    rank_one = q[:, None, None, None] * cols[:, :, :, None] * cols[:, :, None, :]
    coef = np.clip(knots[:, None] * lam.ravel(), 0.0, cap)
    means = (coef @ rank_one.reshape(s * n, n * n)).reshape(-1, n, n)
    tops, top_vecs = np.linalg.eigh(means)
    if tops[-1, -1] < target - tol:
        return None
    # the first knot whose value reaches the target, else the last one
    k = min(int(np.count_nonzero(tops[:, -1] < target)), knots.size - 1)
    lo = float(knots[k - 1]) if k else 0.0
    hi = float(knots[k])
    slope_weights = q[:, None] * lam * (knee >= hi)
    t, norm, top = hi, float(tops[k, -1]), top_vecs[k, :, -1]
    for _ in range(_PROJECTION_ROUNDS):
        slope = float(np.sum(slope_weights * (cols @ top) ** 2))
        t = t - (norm - target) / slope if slope > 0.0 else lo
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        spectra = np.clip(lam * t, 0.0, cap)
        entries = _spectral_entries(vecs, spectra)
        mean = _mean(probs, entries)
        norm, top = mean.opnorm, mean.eig.eigenvectors[:, -1]
        if abs(norm - target) <= tol:
            return _atoms(vecs, spectra, entries)
        if norm < target:
            lo = t
        else:
            hi = t
    return None


def sample_constrained_ensemble(
    n: int, s: int, cap: float, alpha: float, seed: int
) -> FiniteEnsemble:
    """Random admissible ensemble: s atoms, norm cap, exact mean-norm target.

    Atoms are drawn spectrally (random rotation, spectrum uniform on
    [0, cap]) and probabilities from a flat simplex draw, then projected
    onto the mean-norm shell. Deterministic in ``seed``.
    """
    if n < 1 or s < 1:
        raise DimensionError(f"need n >= 1 and s >= 1, got n={n}, s={s}")
    if not cap > 0:
        raise ConstraintViolated(f"cap must be positive, got {cap}")
    if not 0.0 <= alpha <= 1.0:
        raise ConstraintViolated(f"alpha must lie in [0, 1], got {alpha}")

    rng = stream(seed)
    probs = tuple(float(q) for q in rng.dirichlet(np.ones(s)))
    if alpha == 0.0:
        atoms = tuple(SymMatrix.zeros(n) for _ in range(s))
    elif alpha == 1.0:
        # Mean norm == cap forces the mean to sit at the cap; every-atom
        # cap*I is always admissible and keeps the draw deterministic.
        eye = np.eye(n)
        atoms = tuple(
            SymMatrix.from_eigensystem(eye, np.full(n, cap)) for _ in range(s)
        )
    else:
        drawn = tuple(random_spectral(n, rng, 0.0, cap) for _ in range(s))
        projected = project_mean_shell(drawn, probs, cap, alpha)
        if projected is None:
            raise SamplerFailed(
                f"mean-norm projection did not converge for seed {seed} "
                f"(n={n}, s={s}, cap={cap}, alpha={alpha})"
            )
        atoms = projected
    return FiniteEnsemble(atoms=atoms, probs=probs, cap=cap, alpha=alpha)


def sample_with_retry(
    n: int,
    s: int,
    cap: float,
    alpha: float,
    rng: np.random.Generator,
    attempts: int = 10,
) -> FiniteEnsemble:
    """Draw sampler seeds from ``rng`` until the projection converges.

    Convergence failures are rare and seed-specific; retrying with the next
    derived seed keeps sweeps deterministic without aborting them. The last
    SamplerFailed propagates if every attempt fails.
    """
    failure: SamplerFailed | None = None
    for _ in range(attempts):
        candidate = subseed(rng)
        try:
            return sample_constrained_ensemble(n, s, cap, alpha, candidate)
        except SamplerFailed as exc:
            failure = exc
    raise failure


def bernoulli_member(n: int, cap: float, alpha: float) -> FiniteEnsemble:
    """The scalar surrogate f I: cap * I with probability alpha, else 0."""
    eye = np.eye(n)
    atoms = (
        SymMatrix.seeded(cap * eye, eye, np.full(n, cap)),
        SymMatrix.seeded(np.zeros((n, n)), eye, np.zeros(n)),
    )
    return FiniteEnsemble(atoms=atoms, probs=(alpha, 1.0 - alpha), cap=cap, alpha=alpha)


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
    """
    p = _validate_p(p)
    sizes = tuple(m.support_size for m in family.members)
    support = math.prod(sizes)
    if support > SUPPORT_BUDGET:
        raise BudgetExceeded(
            f"product support has {support} outcomes, budget is {SUPPORT_BUDGET}"
        )
    n = family.dim
    chunk = _chunk_outcomes(n)
    stacks = [np.stack([a.entries for a in m.atoms]) for m in family.members]
    prob_arrays = [np.asarray(m.probs) for m in family.members]

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


# JSON replay format: {"dim": n, "members": [{"atoms": [flat row-major], ...}]}

def family_to_json(family: EnsembleFamily) -> dict:
    return {
        "dim": family.dim,
        "members": [
            {
                "atoms": [a.entries.ravel().tolist() for a in m.atoms],
                "probs": list(m.probs),
                "L_cap": m.cap,
                "alpha_target": m.alpha,
            }
            for m in family.members
        ],
    }


def family_from_json(doc: dict) -> EnsembleFamily:
    dim = int(doc["dim"])
    members = []
    for entry in doc["members"]:
        atoms = tuple(
            SymMatrix(np.asarray(flat, dtype=float).reshape(dim, dim))
            for flat in entry["atoms"]
        )
        members.append(
            FiniteEnsemble(
                atoms=atoms,
                probs=tuple(float(q) for q in entry["probs"]),
                cap=float(entry["L_cap"]),
                alpha=float(entry["alpha_target"]),
            )
        )
    return EnsembleFamily(members=tuple(members))
