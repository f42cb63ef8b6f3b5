"""Linear-algebra core: the LAPACK eigensolver the package calls and the
batched trace-power kernel are checked against 50-digit mpmath values, and
the sampled rotations against an explicit product of Givens matrices."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import assert_close, dims, psd_pairs, psd_single, seeds, sym_entries
from tracemax import (
    DimensionError,
    InvalidExponent,
    NotPSD,
    PSD_TOL,
    SymMatrix,
    batched_trace_power,
    psd_power,
    psd_trace_power,
    random_psd,
    schatten_norm,
    singular_values,
    stream,
    trace_product,
)
import tracemax.linalg as linalg
from tracemax.linalg import _givens, _spectral_build, _spectral_draw


def test_entries_are_exactly_symmetric():
    m = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert np.array_equal(m.entries, m.entries.T)
    assert m.entries[0, 1] == 1.0


def test_entries_are_frozen():
    m = SymMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_rejects_nonsquare():
    with pytest.raises(DimensionError):
        SymMatrix(np.zeros((2, 3)))


def _mpmath_eigenvalues(m):
    """Eigenvalues of a symmetric matrix computed at 50 significant digits."""
    with mpmath.workdps(50):
        lam = mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True)
        return np.sort(np.array([float(v) for v in lam]))


def test_hand_eigenvalues_2x2():
    # [[2,1],[1,2]] has spectrum {1, 3}
    m = SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    lam = m.eig.eigenvalues
    assert_close(lam[0], 1.0)
    assert_close(lam[1], 3.0)


@given(seeds, dims)
def test_eigenvalues_match_lapack(seed, n):
    m = SymMatrix(sym_entries(n, seed))
    mine = m.eig.eigenvalues
    ref = _mpmath_eigenvalues(m.entries)
    assert np.max(np.abs(mine - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


@given(seeds, dims)
def test_eigendecomposition_reconstructs(seed, n):
    m = SymMatrix(sym_entries(n, seed))
    e = m.eig
    q = e.eigenvectors
    rebuilt = (q * e.eigenvalues) @ q.T
    assert np.max(np.abs(rebuilt - m.entries)) <= 1e-12 * (1.0 + m.opnorm)
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12


def test_larger_matrices_match_mpmath():
    m = SymMatrix(sym_entries(16, 7))
    ref = _mpmath_eigenvalues(m.entries)
    assert np.max(np.abs(m.eig.eigenvalues - ref)) <= 1e-11 * (1.0 + m.opnorm)


def test_diagonal_matrix_converges_immediately():
    m = SymMatrix(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(m.eig.eigenvalues, np.array([-1.0, 2.0, 3.0]))


@given(psd_single())
def test_psd_power_integer_matches_matmul(a):
    cube = psd_power(a, 3.0)
    ref = a.entries @ a.entries @ a.entries
    assert np.max(np.abs(cube.entries - ref)) <= 1e-10 * (1.0 + a.opnorm**3)


@given(psd_single())
def test_psd_power_halves_compose(a):
    root = psd_power(a, 0.5)
    back = root.entries @ root.entries
    assert np.max(np.abs(back - a.entries)) <= 1e-10 * (1.0 + a.opnorm)


def test_psd_power_zero_exponent_gives_identity():
    a = random_psd(3, stream(5), 1.0)
    assert np.max(np.abs(psd_power(a, 0.0).entries - np.eye(3))) <= 1e-12


def test_psd_power_rejects_negative_exponent():
    with pytest.raises(InvalidExponent):
        psd_power(SymMatrix(np.eye(2)), -1.0)


def test_psd_power_rejects_indefinite():
    m = SymMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(NotPSD):
        psd_power(m, 2.0)


def test_psd_rule_is_the_same_everywhere():
    # the floor is -PSD_TOL * (1 + ||A||) = -3e-10 for ||A|| = 2
    inside = SymMatrix(np.diag([-2.9e-10, 2.0]))
    outside = SymMatrix(np.diag([-3.1e-10, 2.0]))
    assert inside.psd_floor == outside.psd_floor == -PSD_TOL * 3.0
    assert inside.is_psd()
    psd_power(inside, 2.0)
    psd_trace_power(inside, 2.0)
    assert not outside.is_psd()
    message = "min eigenvalue -3.100000e-10 below tolerance -3.000000e-10"
    for fn in (psd_power, psd_trace_power):
        with pytest.raises(NotPSD) as err:
            fn(outside, 2.0)
        assert str(err.value) == message


@given(psd_single(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_psd_trace_power_matches_spectrum(a, t):
    lam = np.maximum(np.linalg.eigvalsh(a.entries), 0.0)
    assert_close(psd_trace_power(a, t), float(np.sum(lam**t)), rel=1e-11)


def test_schatten_special_cases():
    m = SymMatrix(np.diag([3.0, -4.0]))
    assert schatten_norm(m, math.inf) == 4.0
    assert_close(schatten_norm(m, 1), 7.0)
    assert_close(schatten_norm(m, 2), 5.0)


def test_schatten_zero_matrix():
    assert schatten_norm(SymMatrix(np.zeros((3, 3))), 2) == 0.0


def test_schatten_rejects_small_exponent():
    with pytest.raises(InvalidExponent):
        schatten_norm(SymMatrix(np.eye(2)), 0.5)


@given(psd_single(), st.sampled_from([(1.0, 2.0), (2.0, 3.0), (1.5, math.inf)]))
def test_schatten_monotone_in_exponent(a, pair):
    lo, hi = pair
    assert schatten_norm(a, hi) <= schatten_norm(a, lo) * (1.0 + 1e-12)


def test_schatten_survives_extreme_scale():
    # factoring out the top singular value must prevent overflow
    m = SymMatrix(np.diag([1e200, 5e199]))
    value = schatten_norm(m, 3)
    assert math.isfinite(value) and value >= 1e200


@pytest.mark.parametrize("magnitude", [1e200, 1e-200])
def test_eigendecomposition_survives_extreme_scale(magnitude):
    # prescaling must keep convergence detection working when entry squares
    # would overflow or underflow
    base = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
    dec = SymMatrix(magnitude * base).eig
    ref = np.linalg.eigvalsh(base) * magnitude
    assert np.all(np.isfinite(dec.eigenvalues))
    np.testing.assert_allclose(dec.eigenvalues, np.sort(ref), rtol=1e-12)
    np.testing.assert_allclose(
        dec.eigenvectors @ dec.eigenvectors.T, np.eye(3), atol=1e-12
    )


def test_eigendecomposition_zero_matrix():
    dec = SymMatrix(np.zeros((3, 3))).eig
    assert np.array_equal(dec.eigenvalues, np.zeros(3))
    assert np.array_equal(dec.eigenvectors, np.eye(3))


@given(seeds, st.integers(min_value=2, max_value=4))
def test_singular_values_match_lapack(seed, n):
    rng = stream(seed, 104)
    m = rng.normal(size=(n, n))
    mine = np.sort(singular_values(m))
    ref = np.sort(np.linalg.svd(m, compute_uv=False))
    assert np.max(np.abs(mine - ref)) <= 1e-8 * (1.0 + ref.max())


@given(psd_pairs())
def test_trace_product_cyclic(pair):
    a, b, _ = pair
    c = psd_power(a, 0.5)
    assert_close(
        trace_product([a, b, c]), trace_product([c, a, b]), rel=1e-10, abs_tol=1e-10
    )


def test_trace_product_validates():
    with pytest.raises(DimensionError):
        trace_product([])
    with pytest.raises(DimensionError):
        trace_product([SymMatrix(np.eye(2)), SymMatrix(np.eye(3))])


def test_trace_uses_compensated_summation():
    m = SymMatrix(np.diag([1e16, 1.0, -1e16]))
    assert m.trace() == 1.0


@given(psd_single(max_dim=4), st.integers(min_value=1, max_value=8))
def test_batched_trace_power_matches_scalar_path(a, p):
    stack = np.stack([a.entries, 2.0 * a.entries])
    got = batched_trace_power(stack, p)
    assert_close(got[0], psd_trace_power(a, p), rel=1e-10, abs_tol=1e-10)
    assert_close(got[1], 2.0**p * psd_trace_power(a, p), rel=1e-10, abs_tol=1e-10)


def _rotation(n, rng):
    # one rotation, its angles drawn in one call as _spectral_draw draws them
    return _givens(n, rng.uniform(0.0, 2.0 * math.pi, size=(1, n * (n - 1) // 2)))[0]


def test_batched_trace_power_matches_mpmath_at_every_parity():
    # rank-deficient 8x8 PSD matrices and the zero matrix, every p up to the
    # moment budget, so both the even and the odd half-power path are hit
    rng = stream(7, 108)
    stack = [np.zeros((8, 8))]
    for rank in (1, 3, 5, 7):
        spectrum = np.zeros(8)
        spectrum[:rank] = rng.uniform(0.2, 2.0, size=rank)
        rotation = _rotation(8, rng)
        stack.append(SymMatrix((rotation * spectrum) @ rotation.T).entries)
    stack = np.stack(stack)
    with mpmath.workdps(50):
        bases = [mpmath.matrix(m.tolist()) for m in stack]
        powers = list(bases)
        for p in range(1, 31):
            got = batched_trace_power(stack, p)
            for value, power in zip(got, powers):
                want = float(mpmath.fsum(power[i, i] for i in range(8)))
                assert_close(value, want, rel=1e-12, abs_tol=0.0)
            powers = [power * base for power, base in zip(powers, bases)]


@given(seeds, dims)
def test_random_rotation_is_orthogonal(seed, n):
    q = _rotation(n, stream(seed, 105))
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_random_rotation_is_a_product_of_givens_matrices(n):
    for seed in range(10):
        got_rng, ref_rng = stream(seed, 107), stream(seed, 107)
        got = _rotation(n, got_rng)
        ref = np.eye(n)
        for i in range(n - 1):
            for j in range(i + 1, n):
                theta = ref_rng.uniform(0.0, 2.0 * math.pi)
                g = np.eye(n)
                g[i, i] = g[j, j] = math.cos(theta)
                g[j, i] = math.sin(theta)
                g[i, j] = -math.sin(theta)
                ref = ref @ g
        assert np.max(np.abs(got - ref)) <= 1e-14
        # one uniform draw per rotation, nothing more
        assert got_rng.random() == ref_rng.random()


def _rotation_by_columns(n, rng):
    # the column-by-column form: each rotation updates the whole columns i, j
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n * (n - 1) // 2).tolist()
    cols = [[1.0 if r == k else 0.0 for r in range(n)] for k in range(n)]
    pairs = ((i, j) for i in range(n - 1) for j in range(i + 1, n))
    for (i, j), theta in zip(pairs, angles):
        c, s = math.cos(theta), math.sin(theta)
        qi, qj = cols[i], cols[j]
        cols[i] = [c * a + s * b for a, b in zip(qi, qj)]
        cols[j] = [-s * a + c * b for a, b in zip(qi, qj)]
    return np.array(cols).T.copy()


@pytest.mark.parametrize("n", range(1, 9))
def test_random_rotation_matches_the_column_loop_bit_for_bit(n):
    for seed in range(25):
        got_rng, ref_rng = stream(seed, 108), stream(seed, 108)
        got = np.ascontiguousarray(_rotation(n, got_rng))
        ref = _rotation_by_columns(n, ref_rng)
        assert np.array_equal(got, ref), seed
        assert got.tobytes() == ref.tobytes(), seed  # signed zeros and layout too
        assert got_rng.random() == ref_rng.random()


class _ShiftedMath:
    """math with cos and sin one ulp up.

    On some numpy builds np.cos and np.sin differ from math.cos and math.sin
    in the last bit, and on others they agree. Substituted for math in
    both the builder and the oracle, this makes a builder that takes its
    sines and cosines from numpy fail the comparison on every build.
    """

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def cos(t):
        return math.nextafter(math.cos(t), math.inf)

    @staticmethod
    def sin(t):
        return math.nextafter(math.sin(t), math.inf)


def _spectral_by_rows(n, rng, lo, hi, trig=math):
    """A _spectral_draw matrix built one at a time: the Givens rotation row
    by row in Python floats, then the spectrum's sort, the product and the
    symmetrisation. Returns (entries, eigenvectors, eigenvalues)."""
    angles = iter(rng.uniform(0.0, 2.0 * math.pi, size=n * (n - 1) // 2).tolist())
    rotations = [
        (i, [(j, trig.cos(t), trig.sin(t)) for j, t in zip(range(i + 1, n), angles)])
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
    q = np.array(rows)
    spectrum = rng.uniform(lo, hi, size=n)
    order = np.argsort(spectrum, kind="stable")
    lam = np.ascontiguousarray(spectrum[order])
    q = np.ascontiguousarray(q[:, order])
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T), q, lam


def _assert_built_like_the_row_loop(got, expected):
    entries, q, lam = expected
    assert got.entries.tobytes() == entries.tobytes()  # signed zeros too
    assert got.eig.eigenvectors.tobytes() == q.tobytes()
    assert got.eig.eigenvalues.tobytes() == lam.tobytes()
    assert not got.entries.flags.writeable


@pytest.mark.parametrize("trig", [math, _ShiftedMath()], ids=["math", "shifted"])
@pytest.mark.parametrize("batch", [1, 7, 16])
@pytest.mark.parametrize("n", range(1, 9))
def test_spectral_build_matches_the_row_loop_bit_for_bit(monkeypatch, n, batch, trig):
    monkeypatch.setattr(linalg, "math", trig)
    for seed in range(4):
        got_rng, ref_rng = stream(seed, 109, n), stream(seed, 109, n)
        draws = [_spectral_draw(n, got_rng, 0.0, 1.5) for _ in range(batch)]
        got = _spectral_build(draws)
        assert len(got) == batch
        for m in got:
            _assert_built_like_the_row_loop(m, _spectral_by_rows(n, ref_rng, 0.0, 1.5, trig))
        assert got_rng.random() == ref_rng.random()


def test_spectral_build_of_mixed_dimensions_keeps_the_draw_order():
    got_rng, ref_rng = stream(3, 110), stream(3, 110)
    dims_drawn = [int(got_rng.integers(1, 9)) for _ in range(40)]
    draws = [_spectral_draw(n, got_rng, 0.5, 2.0) for n in dims_drawn]
    assert [int(ref_rng.integers(1, 9)) for _ in range(40)] == dims_drawn
    for n, m in zip(dims_drawn, _spectral_build(draws)):
        assert m.dim == n
        _assert_built_like_the_row_loop(m, _spectral_by_rows(n, ref_rng, 0.5, 2.0))
    assert got_rng.random() == ref_rng.random()


@given(seeds, dims)
def test_random_spectral_cache_is_honest(seed, n):
    (m,) = _spectral_build([_spectral_draw(n, stream(seed, 106), 0.0, 2.0)])
    cached = m.eig.eigenvalues
    fresh = np.linalg.eigvalsh(m.entries)
    assert np.max(np.abs(cached - fresh)) <= 1e-11 * (1.0 + m.opnorm)


@given(psd_single())
def test_random_psd_is_psd(a):
    assert a.is_psd()
    assert a.min_eigenvalue() >= -1e-12

