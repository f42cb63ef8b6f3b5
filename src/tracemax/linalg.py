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
        """Q diag(clamp(lam)^t) Q^T with negative eigenvalues clamped to 0."""
        lam = np.maximum(self.eigenvalues, 0.0)
        q = self.eigenvectors
        m = (q * lam**t) @ q.T
        return 0.5 * (m + m.T)


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
        m = 0.5 * (m + m.T)
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
    def zeros(n: int) -> "SymMatrix":
        return SymMatrix(np.zeros((n, n)))

    @staticmethod
    def from_eigensystem(q: np.ndarray, lam: np.ndarray) -> "SymMatrix":
        """Build Q diag(lam) Q^T and seed the eigendecomposition cache.

        Used by samplers that construct matrices spectrally and already
        know (Q, lam); the cache is stored sorted, matching ``eig``.
        """
        lam = np.asarray(lam, dtype=float)
        q = np.asarray(q, dtype=float)
        order = np.argsort(lam, kind="stable")
        lam = np.ascontiguousarray(lam[order])
        q = np.ascontiguousarray(q[:, order])
        return SymMatrix.seeded((q * lam) @ q.T, q, lam)

    @staticmethod
    def seeded(entries: np.ndarray, q: np.ndarray, lam: np.ndarray) -> "SymMatrix":
        """SymMatrix(entries) with the eigendecomposition cache set to (lam, q).

        The caller vouches that entries equal Q diag(lam) Q^T with lam
        ascending, as from_eigensystem and the stacked mean-shell rescaling
        compute them.
        """
        m = SymMatrix(entries)
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


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix from composed random plane rotations.

    Q = G(0, 1) G(0, 2) ... G(n-2, n-1), one Givens rotation per pair i < j
    in row order, each rotating columns i and j by an angle uniform on
    [0, 2 pi). The angles are drawn in one call.

    Right multiplication mixes entries within a row only, so each row of Q
    is the matching row of the identity carried through all the rotations
    on its own, as Python floats (faster than numpy at n <= 8). Entry by
    entry this is the same arithmetic as rotating whole columns, so it
    yields the same floats.
    """
    angles = iter(rng.uniform(0.0, 2.0 * math.pi, size=n * (n - 1) // 2).tolist())
    # the rotations of pairs (i, j), grouped by i: [(i, [(j, cos, sin), ...]), ...]
    rotations = [
        (i, [(j, math.cos(t), math.sin(t)) for j, t in zip(range(i + 1, n), angles)])
        for i in range(n - 1)
    ]
    rows = []
    for r in range(n):
        row = [0.0] * n
        row[r] = 1.0
        for i, pairs in rotations:
            a = row[i]
            for j, c, s in pairs:
                b = row[j]
                row[j] = -s * a + c * b
                a = c * a + s * b
            row[i] = a
        rows.append(row)
    return np.array(rows)


def random_spectral(
    n: int, rng: np.random.Generator, lo: float, hi: float
) -> SymMatrix:
    """Random symmetric matrix Q^T diag(d) Q with d uniform on [lo, hi].

    The eigendecomposition is known by construction and seeded into the
    cache, so norms and powers of sampled matrices cost no eigensolver call.
    """
    q = random_rotation(n, rng)
    d = rng.uniform(lo, hi, size=n)
    return SymMatrix.from_eigensystem(q, d)


def random_psd(n: int, rng: np.random.Generator, scale: float = 1.0) -> SymMatrix:
    """Random PSD matrix with spectrum uniform on [0, scale]."""
    return random_spectral(n, rng, 0.0, scale)
