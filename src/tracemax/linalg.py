"""Dense symmetric/PSD linear algebra.

Everything operates on exact-symmetric float64 matrices at desk scale
(n up to ~64), stacked as (K, n, n) entries with (K, n, n) eigenbases
(eigenvectors as columns) and (K, n) ascending spectra. Eigensystems come
from LAPACK through numpy.linalg.eigh, accurate to a small multiple of
machine epsilon times ||A||, or from the rotation and spectrum a random
matrix is built from. Every PSD test is absolute, of the form
lambda_min >= -PSD_TOL * (1 + ||A||), so that accuracy is all it needs;
_opnorms and _psd_floor are its one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, InvalidExponent

# Eigenvalues are accepted as nonnegative down to -PSD_TOL * (1 + opnorm).
PSD_TOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization A = Q diag(lam) Q^T.

    ``eigenvalues`` are in nondecreasing order; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric n x n matrix.

    Construction symmetrizes the input as 0.5 * (M + M^T), which makes
    entries[i, j] == entries[j, i] hold exactly, and freezes the storage.
    The eigendecomposition is computed lazily and cached; instances are
    immutable and safe to share across threads. No command builds one;
    the reference checkers of tests/oracles.py do.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        m = _symmetrised(m)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def eig(self) -> EigenDecomposition:
        lam, q = np.linalg.eigh(self.entries)
        return EigenDecomposition(lam, q)

    @property
    def opnorm(self) -> float:
        """Operator (spectral) norm, the largest singular value."""
        return float(_opnorms(self.eig.eigenvalues))

    def min_eigenvalue(self) -> float:
        return float(self.eig.eigenvalues[0])

    @property
    def psd_floor(self) -> float:
        """Lowest eigenvalue still accepted as nonnegative."""
        return _psd_floor(self.opnorm)

    def is_psd(self) -> bool:
        return self.min_eigenvalue() >= self.psd_floor


def _opnorms(spectra: np.ndarray) -> np.ndarray:
    """Operator norms of the matrices with these ascending (..., n) spectra:
    the larger of |lowest| and |highest| eigenvalue. A NaN end gives NaN,
    where Python's max would return its first argument."""
    return np.maximum(np.abs(spectra[..., 0]), np.abs(spectra[..., -1]))


def _psd_floor(norms):
    """Lowest eigenvalue still accepted as nonnegative, for matrices of these norms."""
    return -PSD_TOL * (1.0 + norms)


def batched_trace_power(stack: np.ndarray, p: int) -> np.ndarray:
    """tr(S^p) for each symmetric matrix S in a (k, n, n) stack, p >= 1 integer.

    Evaluated as the Frobenius inner product tr(S^p) = <S^h, S^(p-h)>_F
    with h = p // 2, which holds because S^h is symmetric. Only S^h is
    built, by binary exponentiation over batched matmul, plus one product
    S^h S when p is odd: 6 batched matmuls at p = 30 where powering to S^p
    takes 7. Callers keep k small (exact_trace_moment passes chunks of at
    most 64 KiB), so the temporaries stay on the heap.
    """
    if p < 1 or p != int(p):
        raise InvalidExponent(f"integer power >= 1 required, got {p}")
    p = int(p)
    if p == 1:
        return np.einsum("kii->k", stack)
    half = None
    base = stack
    h = p // 2
    while True:
        if h & 1:
            half = base if half is None else half @ base
        h >>= 1
        if h == 0:
            break
        base = base @ base
    rest = half if p % 2 == 0 else half @ stack
    return np.einsum("kij,kij->k", half, rest)


def _groups(keys: Iterable) -> dict:
    """The positions of each distinct key, in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _symmetrised(m: np.ndarray) -> np.ndarray:
    """0.5 * (M + M^T) for each matrix of a (..., n, n) stack, as SymMatrix stores it."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a (K, n, n) stack, but NaN eigensystems for the
    matrices with a non-finite entry, on which LAPACK may not converge."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    lam, vecs = np.full(m.shape[:-1], np.nan), np.full(m.shape, np.nan)
    lam[finite], vecs[finite] = np.linalg.eigh(m[finite])
    return lam, vecs


def _spectral_entries(vecs: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Entries of Q diag(lam) Q^T for a (..., n, n) stack of eigenbases.

    Stacked matmul gives every slice the bits it gets alone, so a slice
    does not depend on the stack it is built in, and symmetrising it again
    leaves it unchanged.
    """
    return _symmetrised((vecs * spectra[..., None, :]) @ vecs.swapaxes(-1, -2))


def _eigensystems(q: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrices Q diag(lam) Q^T from a (K, n, n) stack of bases and (K, n) spectra.

    Returns the eigenbases with their columns in ascending (stable) order
    of the spectra, the sorted spectra and the entries: the eigensystems
    an ensemble's atoms carry, ordered as eigh orders them.
    """
    order = np.argsort(lam, axis=-1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=-1)
    q = np.take_along_axis(q, order[:, None, :], axis=-1)
    return q, lam, _spectral_entries(q, lam)


def _givens(n: int, angles: np.ndarray) -> np.ndarray:
    """The rotation Q = G(0, 1) G(0, 2) ... G(n-2, n-1) for each row of a
    (K, n(n-1)/2) angle array: one Givens rotation per pair i < j, in row
    order, by that row's angles in turn.

    Rotation r of the pair (i, j) updates columns i and j of all K
    matrices at once, from a copy of column i taken before it is
    overwritten. Entry by entry this is the arithmetic of composing the
    rotations one matrix at a time, so it yields the same floats. The
    sines and cosines come from math, not numpy: np.cos and np.sin differ
    from them in the last bit. Returns a (K, n, n) view.
    """
    flat = angles.ravel().tolist()
    cos = np.array([math.cos(t) for t in flat]).reshape(angles.shape)
    sin = np.array([math.sin(t) for t in flat]).reshape(angles.shape)
    cols = np.zeros((len(angles), n, n))  # cols[k, j] is column j of matrix k
    cols[:, range(n), range(n)] = 1.0
    pairs = ((i, j) for i in range(n - 1) for j in range(i + 1, n))
    for r, (i, j) in enumerate(pairs):
        c, s = cos[:, r, None], sin[:, r, None]
        a, b = cols[:, i].copy(), cols[:, j]
        cols[:, i] = c * a + s * b
        cols[:, j] = -s * a + c * b
    return cols.swapaxes(1, 2)


def _spectral_draw(
    n: int, rng: np.random.Generator, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """A random symmetric matrix's draws, recorded rather than built.

    First its n(n-1)/2 rotation angles, uniform on [0, 2 pi), in one call,
    then its spectrum, uniform on [lo, hi]. _spectral_build builds the
    matrix Q diag(spectrum) Q^T, with Q the _givens rotation of the angles.
    """
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n * (n - 1) // 2)
    return angles, rng.uniform(lo, hi, size=n)


def _spectral_arrays(
    n: int, draws: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_eigensystems of the n x n matrices built from these _spectral_draw draws."""
    angles = np.array([angles for angles, _ in draws])
    return _eigensystems(_givens(n, angles), np.array([spectrum for _, spectrum in draws]))


def _spectral_build(
    draws: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]], list[tuple[int, int]]]:
    """The matrices of these _spectral_draw draws, as rows of read-only
    per-dimension arrays {n: (vecs, spectra, entries)}, one _spectral_arrays
    call per dimension in draw order, and each draw's (n, row). Each row is
    bit for bit the matrix built alone, and its eigensystem is known, so
    norms and powers of sampled matrices cost no eigensolver call."""
    stacks: dict = {}
    refs: list = [None] * len(draws)
    for n, idx in _groups(len(spectrum) for _, spectrum in draws).items():
        stacks[n] = _spectral_arrays(n, [draws[i] for i in idx])
        for array in stacks[n]:
            array.setflags(write=False)
        for row, i in enumerate(idx):
            refs[i] = (n, row)
    return stacks, refs
