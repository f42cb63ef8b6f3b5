"""Ensemble construction, mean-shell sampling, and the exact trace-moment
enumeration checked against hand and brute-force enumerations."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import assert_close, seeds
from tracemax import (
    BernoulliParams,
    BudgetExceeded,
    ConstraintViolated,
    DimensionError,
    EnsembleFamily,
    FiniteEnsemble,
    SamplerFailed,
    SymMatrix,
    exact_trace_moment,
    extremal_family,
    family_from_json,
    family_to_json,
    project_mean_shell,
    psd_trace_power,
    random_psd,
    random_rotation,
    random_spectral,
    sample_constrained_ensemble,
    sample_with_retry,
    stream,
    theorem_max_value,
)
import tracemax.ensembles as ensembles

_EYE2 = SymMatrix(np.eye(2))
_ZERO2 = SymMatrix.zeros(2)


def _bernoulli_member(cap, alpha, n=2):
    return FiniteEnsemble(
        atoms=(SymMatrix(cap * np.eye(n)), SymMatrix.zeros(n)),
        probs=(alpha, 1.0 - alpha),
        cap=cap,
        alpha=alpha,
    )


# FiniteEnsemble invariants ----------------------------------------------------

def test_valid_ensemble_accepted():
    member = _bernoulli_member(1.5, 0.4)
    assert member.dim == 2
    assert member.support_size == 2
    assert_close(member.mean_norm, 0.6)
    assert np.array_equal(member.mean.entries, (0.4 * 1.5) * np.eye(2))


def test_rejects_negative_probability():
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(_EYE2, _ZERO2), probs=(1.2, -0.2), cap=1.0, alpha=1.2)


def test_rejects_probabilities_not_summing_to_one():
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(_EYE2, _ZERO2), probs=(0.6, 0.3), cap=1.0, alpha=0.6)


def test_rejects_non_psd_atom():
    bad = SymMatrix(np.diag([1.0, -0.5]))
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(bad,), probs=(1.0,), cap=1.0, alpha=1.0)


def test_rejects_atom_over_cap():
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(SymMatrix(2.0 * np.eye(2)),), probs=(1.0,), cap=1.0, alpha=1.0)


def test_rejects_mean_norm_mismatch():
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(_EYE2, _ZERO2), probs=(0.5, 0.5), cap=1.0, alpha=0.9)


def test_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        FiniteEnsemble(
            atoms=(_EYE2, SymMatrix.zeros(3)), probs=(0.5, 0.5), cap=1.0, alpha=0.5
        )


def test_rejects_empty_support_and_length_mismatch():
    with pytest.raises(DimensionError):
        FiniteEnsemble(atoms=(), probs=(), cap=1.0, alpha=0.5)
    with pytest.raises(DimensionError):
        FiniteEnsemble(atoms=(_EYE2,), probs=(0.5, 0.5), cap=1.0, alpha=0.5)


def test_rejects_bad_cap_and_alpha():
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(_EYE2,), probs=(1.0,), cap=-1.0, alpha=1.0)
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(_EYE2,), probs=(1.0,), cap=1.0, alpha=1.5)


def test_family_consistency():
    family = EnsembleFamily(members=(_bernoulli_member(1.0, 0.5),))
    assert family.dim == 2
    assert family.params == BernoulliParams(caps=(1.0,), alphas=(0.5,))
    with pytest.raises(DimensionError):
        EnsembleFamily(members=())
    with pytest.raises(DimensionError):
        EnsembleFamily(
            members=(_bernoulli_member(1.0, 0.5, n=2), _bernoulli_member(1.0, 0.5, n=3))
        )


# Sampler ----------------------------------------------------------------------

def test_sampler_invariants_recomputed_with_numpy():
    member = sample_constrained_ensemble(3, 2, 1.0, 0.4, seed=42)
    assert member.dim == 3
    assert member.support_size == 2
    probs = np.array(member.probs)
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) <= 1e-12
    mean = sum(q * a.entries for q, a in zip(member.probs, member.atoms))
    mean_norm = float(np.max(np.abs(np.linalg.eigvalsh(mean))))
    assert abs(mean_norm - 0.4) <= 1e-8 * 0.4 + 1e-12
    for atom in member.atoms:
        evals = np.linalg.eigvalsh(atom.entries)
        assert evals.min() >= -1e-10
        assert evals.max() <= 1.0 * (1.0 + 1e-9)


def test_sampler_alpha_zero_gives_zero_atoms():
    member = sample_constrained_ensemble(2, 3, 1.0, 0.0, seed=7)
    for atom in member.atoms:
        assert np.array_equal(atom.entries, np.zeros((2, 2)))


def test_sampler_alpha_one_caps_every_atom():
    member = sample_constrained_ensemble(3, 2, 1.7, 1.0, seed=7)
    for atom in member.atoms:
        np.testing.assert_allclose(atom.entries, 1.7 * np.eye(3), atol=1e-12)


def test_sampler_deterministic_in_seed():
    a = sample_constrained_ensemble(3, 2, 1.0, 0.4, seed=11)
    b = sample_constrained_ensemble(3, 2, 1.0, 0.4, seed=11)
    assert a.probs == b.probs
    for x, y in zip(a.atoms, b.atoms):
        assert np.array_equal(x.entries, y.entries)


def test_sampler_validation():
    with pytest.raises(DimensionError):
        sample_constrained_ensemble(0, 2, 1.0, 0.5, seed=0)
    with pytest.raises(ConstraintViolated):
        sample_constrained_ensemble(2, 2, -1.0, 0.5, seed=0)
    with pytest.raises(ConstraintViolated):
        sample_constrained_ensemble(2, 2, 1.0, 1.5, seed=0)


@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_sampler_with_retry_always_lands_on_shell(seed, n, s):
    rng = stream(seed, 201)
    alpha = float(rng.uniform())
    cap = float(rng.uniform(0.2, 3.0))
    member = sample_with_retry(n, s, cap, alpha, rng)
    assert abs(member.mean_norm - alpha * cap) <= 1e-8 * alpha * cap + 1e-12 * (1 + cap)


@pytest.fixture
def eigensolves(monkeypatch):
    """Leading shape of every eigh/eigvalsh call: () for one matrix, (k,) for a stack."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a)[:-2])
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(ensembles.np.linalg, name, counted)
    return shapes


def test_projection_reports_unreachable_target(eigensolves):
    # orthogonal positive eigenspaces saturate the mean norm at cap/2, so
    # alpha = 0.9 is unreachable no matter how hard the atoms are scaled
    atoms = (SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.diag([0.0, 1.0])))
    probs = (0.5, 0.5)
    assert project_mean_shell(atoms, probs, cap=1.0, alpha=0.9) is None
    # one eigendecomposition per atom, then the input's mean norm and seven
    # rescale rounds, each solved as a batch of one; then the single batched
    # bracket proves the target unreachable without probing any scale factor
    assert eigensolves[:-1] == [()] * len(atoms) + [(1,)] * 8
    assert len(eigensolves[-1]) == 1


def test_projection_falls_back_from_a_zero_mean():
    # no rescaling moves a zero mean, so the rounds hand the input to the
    # bracketed solve, which clips these indefinite atoms into reach
    atoms = (SymMatrix(np.diag([1.0, -1.0])), SymMatrix(np.diag([-1.0, 1.0])))
    out = project_mean_shell(atoms, (0.5, 0.5), cap=1.0, alpha=0.25)
    assert out is not None
    assert [a.entries.tolist() for a in out] == [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]]


def _extreme_alpha_projections(monkeypatch):
    """The projection calls of the 30 families sampled near alpha = 1."""
    calls = []
    project = ensembles._project  # the sampler's projection, which keeps the mean

    def recorded(*args):
        calls.append(args)
        return project(*args)

    with monkeypatch.context() as patch:
        patch.setattr(ensembles, "_project", recorded)
        rng = stream(55)
        members = [
            sample_with_retry(5, 3, 0.75, 0.9985, rng, attempts=1) for _ in range(30)
        ]
    return members, calls


def test_projection_handles_extreme_alpha(monkeypatch):
    # compounding stalls near alpha = 1; the bracketed Newton solve on a
    # single scale factor must still land on the shell
    members, calls = _extreme_alpha_projections(monkeypatch)
    assert len(calls) == 30
    for member in members:
        assert abs(member.mean_norm - 0.9985 * 0.75) <= 1e-8 * 0.9985 * 0.75 + 1e-12


def test_projection_fallback_needs_few_eigensolves(monkeypatch, eigensolves):
    # The bounds are half of what doubling and bisecting the scale factor
    # needed on these calls: 30 to 40 solves each, 1057 in all. The
    # bracketed Newton solve takes eight mean norms in the rescale phase
    # (batches of one), one batched bracket and a few single steps.
    _, calls = _extreme_alpha_projections(monkeypatch)
    total = 0
    for args in calls:
        eigensolves.clear()
        assert project_mean_shell(*args) is not None
        rounds, bracket, steps = eigensolves[:8], eigensolves[8], eigensolves[9:]
        assert rounds == [(1,)] * 8, "every call stalls in the rescale rounds"
        assert len(bracket) == 1 and set(steps) <= {()}, "and brackets once"
        assert len(eigensolves) < 15
        total += len(eigensolves)
    assert total < 1057 / 2


def _compounding_rounds(atoms, probs, cap, alpha):
    """Eight compounded rescale rounds on SymMatrix atoms; None on a stall."""
    target = alpha * cap
    candidate = atoms
    for _ in range(8):
        mean = 0.0
        for q, a in zip(probs, candidate):
            mean = mean + q * a.entries
        norm = SymMatrix(mean).opnorm
        if abs(norm - target) <= 1e-9 * target:
            return candidate
        if norm == 0.0:
            return None
        t = target / norm
        candidate = tuple(
            SymMatrix.from_eigensystem(
                a.eig.eigenvectors, np.clip(a.eig.eigenvalues * t, 0.0, cap)
            )
            for a in candidate
        )
    return None


@pytest.mark.parametrize("n", range(1, 9))
def test_projection_rescale_rounds_are_bit_identical(n):
    rng = stream(401, n)
    rescaled = 0
    for s in range(1, 7):
        for _ in range(12):
            cap = float(rng.uniform(0.5, 2.0))
            alpha = float(rng.uniform(0.05, 0.95))
            probs = tuple(float(q) for q in rng.dirichlet(np.ones(s)))
            atoms = tuple(random_spectral(n, rng, 0.0, cap) for _ in range(s))
            expected = _compounding_rounds(atoms, probs, cap, alpha)
            if expected is None:
                continue
            got = project_mean_shell(atoms, probs, cap, alpha)
            # atoms already on the shell come back as they are
            assert project_mean_shell(got, probs, cap, alpha) is got
            if expected is atoms:
                assert got is atoms
                continue
            rescaled += 1
            for x, y in zip(got, expected):
                assert np.array_equal(x.entries, y.entries)
                assert np.array_equal(x.eig.eigenvalues, y.eig.eigenvalues)
                assert np.array_equal(x.eig.eigenvectors, y.eig.eigenvectors)
    assert rescaled >= 24


@settings(max_examples=150)
@given(
    seeds,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.1, 0.5, 0.9, 0.99, 0.999]),
)
def test_projection_agrees_with_the_range_oracle(seed, n, s, alpha):
    rng = stream(seed, 211)
    cap = float(rng.uniform(0.5, 2.0))
    probs = tuple(float(q) for q in rng.dirichlet(np.ones(s)))
    bases, atoms = [], []
    for _ in range(s):
        q = random_rotation(n, rng)
        spectrum = rng.uniform(0.0, cap, size=n)
        # rank-deficient atoms leave some directions out of reach
        spectrum[rng.random(n) < 0.3] = 0.0
        bases.append(q)
        atoms.append(SymMatrix.from_eigensystem(q, spectrum))

    # the largest mean norm any rescaling reaches: every atom at cap on its range
    saturated = 0.0
    for q, a in zip(probs, atoms):
        w, v = np.linalg.eigh(a.entries)
        kept = v[:, w > 1e-9 * cap]
        saturated = saturated + q * cap * (kept @ kept.T)
    reach = float(np.max(np.abs(np.linalg.eigvalsh(saturated))))
    target = alpha * cap
    excess = target - (reach + 1e-9 * target)
    assume(abs(excess) > 1e-9 * target)

    out = project_mean_shell(tuple(atoms), probs, cap, alpha)
    assert (out is None) == (excess > 0.0)
    if out is None:
        return
    mean = 0.0
    for q, base, a in zip(probs, bases, out):
        # still diagonal in the atom's own eigenbasis, spectrum inside [0, cap]
        d = base.T @ a.entries @ base
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) <= 1e-12 * cap
        assert np.all(np.diag(d) >= -1e-12 * cap)
        assert np.all(np.diag(d) <= cap * (1.0 + 1e-12))
        assert np.all(a.eig.eigenvalues >= 0.0) and np.all(a.eig.eigenvalues <= cap)
        mean = mean + q * a.entries
    norm = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (mean + mean.T)))))
    assert abs(norm - target) <= 1e-9 * target


def test_sample_with_retry_propagates_final_failure(monkeypatch):
    import tracemax.ensembles as mod

    calls = []

    def always_fails(n, s, cap, alpha, seed):
        calls.append(seed)
        raise SamplerFailed(f"seed {seed}")

    monkeypatch.setattr(mod, "sample_constrained_ensemble", always_fails)
    with pytest.raises(SamplerFailed):
        mod.sample_with_retry(2, 2, 1.0, 0.5, stream(0), attempts=4)
    assert len(calls) == 4
    assert len(set(calls)) == 4


# Extremal family ---------------------------------------------------------------

def test_extremal_family_shape_and_mean():
    params = BernoulliParams(caps=(1.0, 2.0), alphas=(0.25, 0.75))
    family = extremal_family(3, params)
    assert family.dim == 3
    assert family.params == params
    first = family.members[0]
    assert np.array_equal(first.atoms[0].entries, np.eye(3))
    assert np.array_equal(first.atoms[1].entries, np.zeros((3, 3)))
    assert first.probs == (0.25, 0.75)


def test_extremal_family_attains_theorem_value():
    params = BernoulliParams(caps=(1.0, 0.5), alphas=(0.3, 0.8))
    family = extremal_family(2, params)
    for p in (1, 2, 3, 5, 8):
        exact = exact_trace_moment(family, p)
        target = theorem_max_value(2, params, p)
        assert_close(exact, target, rel=1e-12, abs_tol=0.0)


# Exact moments --------------------------------------------------------------------

def test_exact_moment_single_deterministic_member():
    a = random_psd(3, stream(301), 1.0)
    member = FiniteEnsemble(atoms=(a,), probs=(1.0,), cap=max(a.opnorm, 1e-9), alpha=1.0)
    family = EnsembleFamily(members=(member,))
    for p in (1, 2, 4, 7):
        assert_close(exact_trace_moment(family, p), psd_trace_power(a, p))


def test_exact_moment_two_members_hand_enumeration():
    m1 = _bernoulli_member(1.0, 0.5)
    m2 = _bernoulli_member(2.0, 0.25)
    family = EnsembleFamily(members=(m1, m2))
    p = 3
    expected = 0.0
    for q1, a1 in zip(m1.probs, m1.atoms):
        for q2, a2 in zip(m2.probs, m2.atoms):
            total = np.linalg.matrix_power(a1.entries + a2.entries, p)
            expected += q1 * q2 * np.trace(total)
    assert_close(exact_trace_moment(family, p), float(expected), rel=1e-13)


def test_exact_moment_matches_brute_force_across_chunks():
    # mixed support sizes whose product spans several enumeration chunks, so
    # a mismatch between outcome order, weights or chunk edges would show
    sizes = (6, 6, 5, 8, 7)
    members = tuple(
        sample_constrained_ensemble(2, s, 1.0 + 0.1 * k, 0.3 + 0.1 * k, seed=40 + k)
        for k, s in enumerate(sizes)
    )
    family = EnsembleFamily(members=members)
    assert math.prod(sizes) > 4 * ensembles._chunk_outcomes(2)
    for p in (1, 5, 12):
        terms = []
        for outcome in itertools.product(*(range(s) for s in sizes)):
            weight = 1.0
            total = np.zeros((2, 2))
            for m, i in zip(members, outcome):
                weight *= m.probs[i]
                total = total + m.atoms[i].entries
            terms.append(weight * float(np.trace(np.linalg.matrix_power(total, p))))
        assert_close(exact_trace_moment(family, p), math.fsum(terms), rel=1e-13)


def _mixed_family(n, sizes, seed):
    return EnsembleFamily(members=tuple(
        sample_constrained_ensemble(n, s, 1.0 + 0.1 * k, 0.2 + 0.1 * k, seed=seed + k)
        for k, s in enumerate(sizes)
    ))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_exact_moment_is_independent_of_the_chunk_size(monkeypatch, n):
    sizes = (3, 1, 4, 2, 5)
    family = _mixed_family(n, sizes, seed=70 + n)
    default = [exact_trace_moment(family, p) for p in (1, 6, 29, 30)]
    # one outcome per chunk, then a chunk of exactly the trailing support
    # from each member on (a split before every member), and one more
    chunks = {1}
    for k in range(len(sizes)):
        tail = math.prod(sizes[k:])
        chunks.update((tail, tail + 1))
    for chunk in sorted(chunks):
        monkeypatch.setattr(ensembles, "_CHUNK_BYTES", chunk * 8 * n * n)
        assert ensembles._chunk_outcomes(n) == chunk
        got = [exact_trace_moment(family, p) for p in (1, 6, 29, 30)]
        assert got == default, chunk


@pytest.mark.parametrize(
    "n, sizes",
    [(n, (3, 1, 4, 2, 5)) for n in range(1, 9)] + [(8, (6,) * 6)],
)
def test_exact_moment_chunks_stay_within_the_byte_budget(monkeypatch, n, sizes):
    family = _mixed_family(n, sizes, seed=90 + n)
    seen = []
    kernel = ensembles.batched_trace_power

    def checked(stack, p):
        assert stack.shape[1:] == (n, n)
        assert stack.nbytes <= ensembles._CHUNK_BYTES
        seen.append(len(stack))
        return kernel(stack, p)

    monkeypatch.setattr(ensembles, "batched_trace_power", checked)
    exact_trace_moment(family, 2)
    assert sum(seen) == math.prod(sizes)


def _moment_by_chunks(family, p):
    # the chunk-at-a-time form: gathers and weights are redone for each chunk
    sizes = tuple(m.support_size for m in family.members)
    n = family.dim
    chunk = ensembles._chunk_outcomes(n)
    stacks = [np.stack([a.entries for a in m.atoms]) for m in family.members]
    prob_arrays = [np.asarray(m.probs) for m in family.members]
    split, tail = len(sizes), 1
    while split > 1 and tail * sizes[split - 1] <= chunk:
        split -= 1
        tail *= sizes[split]
    heads = math.prod(sizes[:split])
    step = chunk // tail
    terms = []
    for start in range(0, heads, step):
        stop = min(start + step, heads)
        if split == 1:
            total, weight = stacks[0][start:stop], prob_arrays[0][start:stop]
        else:
            idx = np.unravel_index(np.arange(start, stop), sizes[:split])
            total = stacks[0][idx[0]]
            weight = prob_arrays[0][idx[0]]
            for k in range(1, split):
                total += stacks[k][idx[k]]
                weight *= prob_arrays[k][idx[k]]
        for k in range(split, len(sizes)):
            total = total[..., None, :, :] + stacks[k]
            weight = weight[..., None] * prob_arrays[k]
        traces = ensembles.batched_trace_power(total.reshape(-1, n, n), p)
        terms.extend((weight.ravel() * traces).tolist())
    return math.fsum(terms)


@pytest.mark.parametrize(
    "n, sizes",
    [(n, (3, 1, 4, 2, 5)) for n in (1, 3, 8)] + [(8, (6,) * 6)],
)
def test_exact_moment_matches_the_chunk_loop_bit_for_bit(n, sizes):
    family = _mixed_family(n, sizes, seed=110 + n)
    for p in (1, 2, 7, 29, 30):
        assert exact_trace_moment(family, p) == _moment_by_chunks(family, p), p


@pytest.mark.parametrize("n, small, large", [(1, 17, 19), (8, 15, 17)])
def test_exact_moment_memory_does_not_grow_with_the_support(n, small, large):
    # a block holds at most _CHUNK_BYTES / 8 outcomes, so 2^small and 2^large
    # outcomes both span several blocks; an array sized by the support would
    # make the larger call's peak several times higher
    assert 2**small * 8 > 2 * ensembles._CHUNK_BYTES
    assert 2**large <= ensembles.SUPPORT_BUDGET
    member = ensembles.bernoulli_member(n, 1.0, 0.5)
    peaks = []
    for count in (small, large):
        family = EnsembleFamily(members=(member,) * count)
        tracemalloc.start()
        try:
            exact_trace_moment(family, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_stacked_moments_match_exact_trace_moment_bit_for_bit(n):
    # families of mixed support sizes, zero-padded into one stack: the small
    # ones are enumerated together, several per kernel call, while at n = 8
    # the 6 x 5 x 6 support exceeds a chunk and is enumerated on its own
    shapes = [(1, 1, 1), (3, 2, 1), (2, 1, 3), (3, 1, 2), (2, 3, 3), (6, 5, 6)]
    families = [_mixed_family(n, sizes, seed=300 + 10 * n + i) for i, sizes in enumerate(shapes)]
    entries = np.zeros((len(shapes), 3, 6, n, n))
    probs = np.zeros((len(shapes), 3, 6))
    for b, family in enumerate(families):
        for k, member in enumerate(family.members):
            entries[b, k, : member.support_size] = [a.entries for a in member.atoms]
            probs[b, k, : member.support_size] = member.probs
    for p in (1, 2, 7, 30):
        got = ensembles._stacked_moments(entries, probs, np.array(shapes), p)
        assert got == [exact_trace_moment(family, p) for family in families], (n, p)


def test_sampled_mean_is_the_recomputed_mean_bit_for_bit():
    rng = stream(620)
    for _ in range(60):
        n, s = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        alpha = float(rng.choice([0.2, 0.5, 0.9, 0.999]))
        member = sample_constrained_ensemble(n, s, 1.3, alpha, seed=int(rng.integers(2**31)))
        seeded = member.__dict__["mean"]
        recomputed = ensembles._mean(member.probs, (a.entries for a in member.atoms))
        assert np.array_equal(seeded.entries, recomputed.entries)
        assert seeded.entries.tobytes() == recomputed.entries.tobytes()
        assert np.array_equal(seeded.eig.eigenvalues, recomputed.eig.eigenvalues)
        assert member.mean_norm == recomputed.opnorm


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_bernoulli_mean_is_the_recomputed_mean_bit_for_bit(n):
    for cap, alpha in [(1.0, 0.5), (1.7, 0.0), (0.3, 1.0), (2.5, 0.123456789)]:
        member = ensembles.bernoulli_member(n, cap, alpha)
        recomputed = ensembles._mean(member.probs, (a.entries for a in member.atoms))
        assert member.mean.entries.tobytes() == recomputed.entries.tobytes()
        assert member.mean_norm == alpha * cap


def test_exact_moment_budget():
    member = sample_constrained_ensemble(2, 2, 1.0, 0.5, seed=5)
    family = EnsembleFamily(members=(member,) * 21)
    with pytest.raises(BudgetExceeded):
        exact_trace_moment(family, 2)
    with pytest.raises(BudgetExceeded):
        exact_trace_moment(EnsembleFamily(members=(member,)), 31)


# Serialization -------------------------------------------------------------------

def test_json_round_trip_is_bitwise():
    member = sample_constrained_ensemble(3, 2, 1.3, 0.6, seed=21)
    family = EnsembleFamily(members=(member,))
    doc = family_to_json(family)
    text = json.dumps(doc, sort_keys=True)
    back = family_from_json(json.loads(text))
    assert back.dim == family.dim
    for orig, copy in zip(family.members, back.members):
        assert orig.probs == copy.probs
        assert orig.cap == copy.cap
        assert orig.alpha == copy.alpha
        for x, y in zip(orig.atoms, copy.atoms):
            assert np.array_equal(x.entries, y.entries)


def test_json_schema_shape():
    family = extremal_family(2, BernoulliParams(caps=(1.5,), alphas=(0.5,)))
    doc = family_to_json(family)
    assert doc["dim"] == 2
    member = doc["members"][0]
    assert member["L_cap"] == 1.5
    assert member["alpha_target"] == 0.5
    assert member["atoms"][0] == [1.5, 0.0, 0.0, 1.5]
    assert member["probs"] == [0.5, 0.5]
