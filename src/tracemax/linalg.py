"""Dense symmetric/PSD linear algebra.

Everything operates on exact-symmetric float64 matrices at desk scale
(n up to ~64). Eigendecompositions come from LAPACK through
numpy.linalg.eigh, whose eigenvalues are accurate to a small multiple of
machine epsilon times ||A||; every PSD test here is absolute, of the form
lambda_min >= -PSD_TOL * (1 + ||A||), so that accuracy is all it needs.
Traces are accumulated with exact compensated summation (math.fsum)
because downstream moment computations raise them to powers up to 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import DimensionError, InvalidExponent, NotPSD

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

    def power(self, t: float) -> np.ndarray:
        """Q diag(clamp(lam)^t) Q^T with negative eigenvalues clamped to 0.

        The product is not symmetrised here: psd_power's SymMatrix does it.
        """
        lam = np.maximum(self.eigenvalues, 0.0)
        q = self.eigenvectors
        return (q * lam**t) @ q.T


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric n x n matrix.

    Construction symmetrizes the input as 0.5 * (M + M^T), which makes
    entries[i, j] == entries[j, i] hold exactly, and freezes the storage.
    The eigendecomposition is computed lazily and cached; instances are
    immutable and safe to share across threads.
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
        lam = self.eig.eigenvalues
        return max(abs(float(lam[0])), abs(float(lam[-1])))

    def trace(self) -> float:
        return math.fsum(self.entries.diagonal().tolist())

    def min_eigenvalue(self) -> float:
        return float(self.eig.eigenvalues[0])

    @property
    def psd_floor(self) -> float:
        """Lowest eigenvalue still accepted as nonnegative."""
        return -PSD_TOL * (1.0 + self.opnorm)

    def is_psd(self) -> bool:
        return self.min_eigenvalue() >= self.psd_floor

    # Convenience constructors -------------------------------------------

    @staticmethod
    def seeded(entries: np.ndarray, q: np.ndarray, lam: np.ndarray) -> "SymMatrix":
        """A SymMatrix holding ``entries``, with the eigendecomposition cache set to (lam, q).

        The caller vouches that entries are exactly symmetric and equal
        Q diag(lam) Q^T with lam ascending, as _eigensystems and the
        stacked mean-shell rescaling compute them. The entries are stored
        as a read-only view, neither copied nor symmetrised again, so the
        caller must not write to them afterwards.
        """
        m = object.__new__(SymMatrix)
        view = entries.view()
        view.setflags(write=False)
        object.__setattr__(m, "entries", view)
        m.__dict__["eig"] = EigenDecomposition(lam, q)
        return m


def psd_power(a: SymMatrix, t: float) -> SymMatrix:
    """Fractional matrix power A^t of a PSD matrix, t >= 0.

    Eigenvalues below the PSD tolerance raise NotPSD; tiny negatives from
    roundoff are clamped to 0 before powering.
    """
    if t < 0:
        raise InvalidExponent(f"psd_power requires t >= 0, got {t}")
    _require_psd(a)
    return SymMatrix(a.eig.power(float(t)))


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
        return factors[0].trace()
    prod = reduce(np.matmul, (f.entries for f in factors))
    return math.fsum(prod.diagonal().tolist())


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


def _symmetrised(m: np.ndarray) -> np.ndarray:
    """0.5 * (M + M^T) for each matrix of a (..., n, n) stack, as SymMatrix stores it."""
    return 0.5 * (m + m.swapaxes(-1, -2))


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
    that SymMatrix.seeded caches, as ``eig`` would order them.
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


def _spectral_build(draws: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[SymMatrix]:
    """The SymMatrix of each _spectral_draw draw, in order.

    The eigendecomposition is known by construction and seeded into the
    cache, so norms and powers of sampled matrices cost no eigensolver
    call. The draws may mix dimensions; the matrices of each dimension are
    built together, by one _spectral_arrays call, and each is bit for bit
    what it is when built alone.
    """
    built: list[SymMatrix] = [None] * len(draws)
    groups: dict[int, list[int]] = {}
    for i, (_, spectrum) in enumerate(draws):
        groups.setdefault(len(spectrum), []).append(i)
    for n, idx in groups.items():
        q, lam, entries = _spectral_arrays(n, [draws[i] for i in idx])
        for i, *atom in zip(idx, entries, q, lam):
            built[i] = SymMatrix.seeded(*atom)
    return built


def random_psd(n: int, rng: np.random.Generator, scale: float = 1.0) -> SymMatrix:
    """Random PSD matrix with spectrum uniform on [0, scale]."""
    return _spectral_build([_spectral_draw(n, rng, 0.0, scale)])[0]
