"""Inequality checkers: trivial identities, equality witnesses, randomized
passes, and independent numpy oracles for both sides where feasible."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import assert_close, psd_pairs, seeds
from tracemax import (
    AlternatingWord,
    BudgetExceeded,
    CheckReport,
    ConstraintViolated,
    DimensionError,
    EnsembleFamily,
    FiniteEnsemble,
    InvalidExponent,
    LemmaId,
    LemmaSummary,
    SamplerFailed,
    SymMatrix,
    check_alt,
    check_alt_schatten,
    check_binomial_reduction,
    check_expectation_word_bound,
    check_holder,
    check_theorem_max,
    check_word_bound,
    enumerate_binary_words,
    random_psd,
    run_lemma_sweep,
    stream,
    to_alternating,
)
import tracemax.checks as checks
import tracemax.ensembles as ensembles
from tracemax.ensembles import _attempt, _sample
from tracemax.errors import TracemaxError
from tracemax.extremal import MOMENT_BUDGET


def test_report_fields_are_consistent():
    rep = check_alt(SymMatrix(np.eye(2)), SymMatrix(np.eye(2)), 2.0, digest="d")
    assert isinstance(rep, CheckReport)
    assert rep.lemma_id is LemmaId.ALT
    assert rep.slack == rep.rhs - rep.lhs
    assert rep.input_digest == "d"
    assert rep.passed == (rep.lhs <= rep.rhs + 1e-9 * (1.0 + abs(rep.rhs)))


# Holder ---------------------------------------------------------------------

def test_holder_identity_pair():
    eye = SymMatrix(np.eye(2))
    rep = check_holder([eye, eye], [2.0, 2.0])
    assert rep.passed
    assert_close(rep.lhs, 2.0)
    assert_close(rep.rhs, 2.0)


def test_holder_single_factor_is_equality():
    a = random_psd(3, stream(41), 1.5)
    rep = check_holder([a], [1.0])
    assert rep.lhs == rep.rhs


def test_holder_exponent_validation():
    eye = SymMatrix(np.eye(2))
    with pytest.raises(InvalidExponent):
        check_holder([eye, eye], [2.0, 3.0])
    with pytest.raises(InvalidExponent):
        check_holder([eye], [0.5])
    with pytest.raises(DimensionError):
        check_holder([eye, SymMatrix(np.eye(3))], [2.0, 2.0])
    with pytest.raises(DimensionError):
        check_holder([], [])


def test_holder_accepts_infinite_exponent():
    a = random_psd(2, stream(42), 1.0)
    rep = check_holder([a, a], [1.0, math.inf])
    assert rep.passed


@given(psd_pairs())
def test_holder_random_pair_with_numpy_oracle(pair):
    a, b, _ = pair
    rep = check_holder([a, b], [2.0, 2.0])
    assert rep.passed
    lhs_ref = np.sum(np.linalg.svd(a.entries @ b.entries, compute_uv=False))
    rhs_ref = np.sqrt(np.sum(np.linalg.eigvalsh(a.entries) ** 2)) * np.sqrt(
        np.sum(np.linalg.eigvalsh(b.entries) ** 2)
    )
    assert_close(rep.lhs, float(lhs_ref), rel=1e-8, abs_tol=1e-8)
    assert_close(rep.rhs, float(rhs_ref), rel=1e-10, abs_tol=1e-10)


# ALT ------------------------------------------------------------------------

def test_alt_identity_case():
    eye = SymMatrix(np.eye(4))
    rep = check_alt(eye, eye, 2.0)
    assert_close(rep.lhs, 4.0)
    assert_close(rep.rhs, 4.0)


@given(psd_pairs())
def test_alt_alpha_one_is_equality(pair):
    a, b, _ = pair
    rep = check_alt(a, b, 1.0)
    assert abs(rep.slack) <= 1e-10 * (1.0 + abs(rep.rhs))


@given(psd_pairs(), st.sampled_from([1.5, 2.0, 3.0]))
def test_alt_random_passes(pair, alpha_exp):
    a, b, _ = pair
    rep = check_alt(a, b, alpha_exp)
    assert rep.passed


def test_alt_numpy_oracle():
    rng = stream(43)
    a = random_psd(3, rng, 1.2)
    b = random_psd(3, rng, 0.8)
    rep = check_alt(a, b, 2.0)
    aba = a.entries @ b.entries @ a.entries
    lhs_ref = np.sum(np.maximum(np.linalg.eigvalsh(aba), 0.0) ** 2)
    la, qa = np.linalg.eigh(a.entries)
    lb, qb = np.linalg.eigh(b.entries)
    a4 = (qa * np.maximum(la, 0) ** 4) @ qa.T
    b2 = (qb * np.maximum(lb, 0) ** 2) @ qb.T
    rhs_ref = np.trace(a4 @ b2)
    assert_close(rep.lhs, float(lhs_ref), rel=1e-10, abs_tol=1e-12)
    assert_close(rep.rhs, float(rhs_ref), rel=1e-10, abs_tol=1e-12)


def test_alt_rejects_bad_exponent():
    eye = SymMatrix(np.eye(2))
    with pytest.raises(InvalidExponent):
        check_alt(eye, eye, 0.9)


# ALT, Schatten form ---------------------------------------------------------

def test_alt_schatten_identity_case():
    eye = SymMatrix(np.eye(3))
    rep = check_alt_schatten(eye, eye, 2.0)
    assert_close(rep.lhs, 3.0**0.5)
    assert_close(rep.rhs, 3.0**0.5)


def test_alt_schatten_zero_b():
    a = random_psd(3, stream(44), 1.0)
    rep = check_alt_schatten(a, SymMatrix(np.zeros((3, 3))), 1.5)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.passed


@given(psd_pairs(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_alt_schatten_random_passes(pair, alpha_exp):
    a, b, _ = pair
    assert check_alt_schatten(a, b, alpha_exp).passed


# Word bound ------------------------------------------------------------------

def test_word_bound_identity_x_is_equality():
    y = random_psd(3, stream(45), 1.0)
    w = AlternatingWord(exponent_pairs=((2.0, 1.0), (1.0, 2.0)))
    rep = check_word_bound(SymMatrix(np.eye(3)), y, w)
    assert abs(rep.slack) <= 1e-10 * (1.0 + abs(rep.rhs))


def test_word_bound_scalar_equality():
    x = SymMatrix(np.array([[2.0]]))
    y = SymMatrix(np.array([[3.0]]))
    rep = check_word_bound(x, y, AlternatingWord(exponent_pairs=((2.0, 1.0),)))
    assert_close(rep.lhs, 12.0)
    assert_close(rep.rhs, 12.0)


def test_word_bound_exhaustive_p6():
    """Every alternating word of total degree 6 on a random 4x4 pair."""
    rng = stream(46)
    x = random_psd(4, rng, 1.4)
    y = random_psd(4, rng, 0.9)
    checked = 0
    for word in enumerate_binary_words(6):
        alt = to_alternating(word)
        if not isinstance(alt, AlternatingWord):
            continue
        rep = check_word_bound(x, y, alt)
        assert rep.passed, f"{word.letters}: {rep.lhs} > {rep.rhs}"
        checked += 1
    assert checked == 64 - 2


@given(psd_pairs(max_dim=4), st.floats(min_value=0.05, max_value=1.0))
def test_word_bound_slack_survives_shrinking(pair, c):
    # both sides scale by c^l, so scaling X by c <= 1 cannot flip a pass
    x, y, _ = pair
    w = AlternatingWord(exponent_pairs=((1.0, 1.0), (2.0, 1.0)))
    before = check_word_bound(x, y, w)
    after = check_word_bound(SymMatrix(c * x.entries), y, w)
    assert before.passed
    assert after.passed


@given(psd_pairs(max_dim=4), seeds)
def test_word_bound_fractional_exponents(pair, seed):
    x, y, _ = pair
    rng = stream(seed, 401)
    pairs = tuple(
        (float(rng.uniform(1.0, 2.5)), float(rng.uniform(1.0, 2.5)))
        for _ in range(int(rng.integers(1, 4)))
    )
    assert check_word_bound(x, y, AlternatingWord(exponent_pairs=pairs)).passed


# Expectation word bound ------------------------------------------------------

def _deterministic(atom, cap, alpha):
    return FiniteEnsemble(atoms=(atom,), probs=(1.0,), cap=cap, alpha=alpha)


def test_expectation_word_bound_deterministic_equality():
    cap = 1.3
    n = 3
    ex = _deterministic(SymMatrix(cap * np.eye(n)), cap, 1.0)
    y = random_psd(n, stream(47), 1.0)
    ey = FiniteEnsemble(atoms=(y,), probs=(1.0,), cap=max(y.opnorm, 1e-9), alpha=1.0)
    w = AlternatingWord(exponent_pairs=((2.0, 1.0),))
    rep = check_expectation_word_bound(ex, ey, w, cap)
    assert abs(rep.slack) <= 1e-9 * (1.0 + abs(rep.rhs))


def test_expectation_word_bound_zero_x():
    n = 2
    ex = FiniteEnsemble(
        atoms=(SymMatrix(np.zeros((n, n))),), probs=(1.0,), cap=1.0, alpha=0.0
    )
    y = random_psd(n, stream(48), 1.0)
    ey = FiniteEnsemble(atoms=(y,), probs=(1.0,), cap=max(y.opnorm, 1e-9), alpha=1.0)
    rep = check_expectation_word_bound(
        ex, ey, AlternatingWord(exponent_pairs=((1.0, 1.0),)), 1.0
    )
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.passed


@given(seeds)
def test_expectation_word_bound_random_ensembles(seed):
    rng = stream(seed, 402)
    n = int(rng.integers(1, 4))
    cap = float(rng.uniform(0.5, 2.0))
    ex, ey = _sample([
        (n, 2, cap, float(rng.uniform(0.1, 0.9)), rng),
        (n, 2, 1.0, float(rng.uniform(0.1, 0.9)), rng),
    ])
    w = AlternatingWord(exponent_pairs=((1.0, 1.0), (2.0, 1.0)))
    assert check_expectation_word_bound(ex, ey, w, cap).passed


def test_expectation_word_bound_enforces_cap():
    n = 2
    big = SymMatrix(2.0 * np.eye(n))
    ex = FiniteEnsemble(atoms=(big,), probs=(1.0,), cap=2.0, alpha=1.0)
    ey = FiniteEnsemble(atoms=(SymMatrix(np.eye(n)),), probs=(1.0,), cap=1.0, alpha=1.0)
    w = AlternatingWord(exponent_pairs=((1.0, 1.0),))
    with pytest.raises(ConstraintViolated):
        check_expectation_word_bound(ex, ey, w, 0.5)


# Binomial reduction ----------------------------------------------------------

def test_binomial_reduction_commuting_equality():
    """Scalar-projection X with commuting diagonal Y hits equality."""
    n = 3
    cap = 1.5
    alpha = 0.4
    ex = FiniteEnsemble(
        atoms=(SymMatrix(cap * np.eye(n)), SymMatrix(np.zeros((n, n)))),
        probs=(alpha, 1.0 - alpha),
        cap=cap,
        alpha=alpha,
    )
    y = SymMatrix(np.diag([0.3, 0.7, 1.1]))
    ey = FiniteEnsemble(atoms=(y,), probs=(1.0,), cap=1.1, alpha=1.0)
    rep = check_binomial_reduction(ex, ey, 5, cap)
    assert abs(rep.slack) <= 1e-9 * abs(rep.rhs)


def test_binomial_reduction_zero_y_linear():
    n = 3
    (ex,) = _attempt([(n, 2, 1.0, 0.6, 77)])
    ey = FiniteEnsemble(atoms=(SymMatrix(np.zeros((n, n))),), probs=(1.0,), cap=1.0, alpha=0.0)
    rep = check_binomial_reduction(ex, ey, 1, 1.0)
    assert_close(rep.lhs, ex.mean.trace(), rel=1e-12, abs_tol=1e-12)
    assert_close(rep.rhs, n * ex.mean_norm, rel=1e-12, abs_tol=1e-12)
    assert rep.passed


@given(seeds)
def test_binomial_reduction_random_passes(seed):
    rng = stream(seed, 403)
    n = int(rng.integers(1, 4))
    cap = float(rng.uniform(0.5, 2.0))
    ex, ey = _sample([
        (n, 2, cap, float(rng.uniform(0.1, 0.9)), rng),
        (n, 2, 1.0, float(rng.uniform(0.1, 0.9)), rng),
    ])
    assert check_binomial_reduction(ex, ey, 4, cap).passed


@given(seeds, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=8))
def test_binomial_reduction_matches_pairwise_oracle(seed, n, p):
    # both sides summed pair by pair with numpy powers, independent of
    # exact_trace_moment and of the surrogate ensemble
    rng = stream(seed, 405)
    ex, ey = _sample([
        (n, int(rng.integers(1, 4)), 1.0, float(rng.uniform()), rng),
        (n, int(rng.integers(1, 4)), 1.5, float(rng.uniform()), rng),
    ])
    cap = ex.cap * float(rng.uniform(1.1, 2.0))
    rep = check_binomial_reduction(ex, ey, p, cap)

    def tr_pow(m):
        return float(np.trace(np.linalg.matrix_power(m, p)))

    lhs = math.fsum(
        px * py * tr_pow(ax.entries + ay.entries)
        for px, ax in zip(ex.probs, ex.atoms)
        for py, ay in zip(ey.probs, ey.atoms)
    )
    w = min(ex.mean_norm / cap, 1.0)
    rhs = math.fsum(
        py * (w * tr_pow(ay.entries + cap * np.eye(n)) + (1.0 - w) * tr_pow(ay.entries))
        for py, ay in zip(ey.probs, ey.atoms)
    )
    assert_close(rep.lhs, lhs, rel=1e-12)
    assert_close(rep.rhs, rhs, rel=1e-12)


def test_binomial_reduction_validation():
    n = 2
    ex = FiniteEnsemble(atoms=(SymMatrix(np.eye(n)),), probs=(1.0,), cap=1.0, alpha=1.0)
    with pytest.raises(InvalidExponent):
        check_binomial_reduction(ex, ex, 0, 1.0)
    with pytest.raises(BudgetExceeded):
        check_binomial_reduction(ex, ex, 31, 1.0)
    # the limit is exact_trace_moment's MOMENT_BUDGET = 30, not the word budget
    assert check_binomial_reduction(ex, ex, 25, 1.0).passed
    with pytest.raises(DimensionError):
        check_binomial_reduction(
            ex,
            FiniteEnsemble(atoms=(SymMatrix(np.eye(3)),), probs=(1.0,), cap=1.0, alpha=1.0),
            2,
            1.0,
        )


# Theorem comparison ----------------------------------------------------------

@given(seeds)
def test_theorem_max_on_sampled_families(seed):
    rng = stream(seed, 404)
    n = int(rng.integers(1, 4))
    requests = [
        (n, int(rng.integers(1, 3)), float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.05, 0.95)), rng)
        for _ in range(int(rng.integers(1, 3)))
    ]
    family = EnsembleFamily(members=tuple(_sample(requests)))
    rep = check_theorem_max(family, int(rng.integers(1, 7)))
    assert rep.lemma_id is LemmaId.THEOREM_MAX
    assert rep.passed


# Sweep driver ----------------------------------------------------------------

def test_run_trial_is_deterministic():
    (a,) = checks._run_trials(123, 5, 6, 4, 6)
    (b,) = checks._run_trials(123, 5, 6, 4, 6)
    assert a == b
    assert [r.lemma_id for r in a] == [
        LemmaId.HOLDER, LemmaId.ALT, LemmaId.ALT_SCHATTEN,
        LemmaId.WORD_BOUND, LemmaId.EXPECTATION_WORD_BOUND,
        LemmaId.BINOMIAL_REDUCTION,
    ]


_EXPORTED = {
    "_batch_holder": check_holder,
    "_batch_alt": lambda check, *case: check(*case),
    "_batch_word_bound": check_word_bound,
    "_batch_expectation_word_bound": check_expectation_word_bound,
    "_batch_binomial_reduction": check_binomial_reduction,
}


def _recorded_batches(monkeypatch):
    """Make the sweep record the cases and results of each batched checker."""
    recorded = {name: [] for name in _EXPORTED}
    for name in _EXPORTED:
        def recording(cases, batched=getattr(checks, name), name=name):
            results = batched(cases)
            recorded[name].append((cases, results))
            return results

        monkeypatch.setattr(checks, name, recording)
    return recorded


def test_batched_checkers_match_the_exported_checkers(monkeypatch):
    # in the sweep, each batched report equals the exported checker's on the
    # same inputs; the batches cover every dimension, both Holder shapes,
    # the exponents 1.0 and 2.0 on which numpy takes a fast path, integer
    # and fractional words and both ends of the power range
    recorded = _recorded_batches(monkeypatch)
    for seed in (0, 7000, 7001):
        for lo in range(0, 96, 32):
            checks._run_trials(seed, lo, lo + 32, 5, 8)
    seen = set()
    for name, check in _EXPORTED.items():
        for cases, results in recorded[name]:
            assert results == [check(*case) for case in cases], name
            for case in cases:
                if name == "_batch_holder":
                    seen.add((name, case[0][0].dim, len(case[0])))
                elif name == "_batch_alt":
                    seen.add((name, case[1].dim, case[3]))
                elif name == "_batch_binomial_reduction":
                    seen.add((name, case[0].dim, case[2]))
                else:
                    seen.add((name, case[0].dim, case[2].exponent_pairs[0][0].is_integer()))
    for name in _EXPORTED:
        assert {n for kind, n, _ in seen if kind == name} == {1, 2, 3, 4, 5}, name
    required = [
        ("_batch_holder", 1), ("_batch_holder", 3), ("_batch_alt", 1.0), ("_batch_alt", 2.0),
        ("_batch_word_bound", True), ("_batch_word_bound", False),
        ("_batch_expectation_word_bound", True), ("_batch_expectation_word_bound", False),
        ("_batch_binomial_reduction", 1), ("_batch_binomial_reduction", 8),
    ]
    for name, value in required:
        assert any(kind == name and v == value for kind, _, v in seen), (name, value)


def _outcome(check, case):
    """check(*case), or the type and message of the error it raises."""
    try:
        return check(*case)
    except TracemaxError as exc:
        return type(exc), str(exc)


def _outcomes(results):
    return [(type(r), str(r)) if isinstance(r, TracemaxError) else r for r in results]


def test_batched_binomial_reduction_returns_the_checkers_errors(monkeypatch):
    # a power above MOMENT_BUDGET goes to the exported checker, and the batch
    # holds the error it raises; the sweep raises the first one
    recorded = _recorded_batches(monkeypatch)
    with pytest.raises(BudgetExceeded):
        checks._run_trials(3, 0, 32, 3, 40)
    ((cases, results),) = recorded["_batch_binomial_reduction"]
    assert any(p > MOMENT_BUDGET for _, _, p, _, _ in cases)
    assert any(isinstance(r, CheckReport) for r in results)
    assert _outcomes(results) == [_outcome(check_binomial_reduction, c) for c in cases]


def _tally_report(slack, rhs, digest):
    return CheckReport(
        lemma_id=LemmaId.THEOREM_MAX, lhs=rhs - slack, rhs=rhs, slack=slack,
        passed=slack >= 0.0, input_digest=digest,
    )


def test_summary_tally_rule():
    reports = [
        _tally_report(0.5, 1.0, "t0"),     # normalized slack 0.25
        _tally_report(-5.0, 999.0, "t1"),  # smallest raw slack, normalized -0.005
        _tally_report(-1.0, 0.0, "t2"),    # normalized -1.0
        _tally_report(-3.0, 2.0, "t3"),    # normalized -1.0, a tie with t2
    ]
    sequential = LemmaSummary.empty(LemmaId.THEOREM_MAX)
    for rep in reports:
        sequential = sequential.add(rep)
    assert (sequential.trials, sequential.passes) == (4, 1)
    assert sequential.min_slack == -5.0
    assert sequential.min_norm_slack == -1.0
    # the tie keeps the earliest trial, which is not the min-slack one
    assert sequential.worst_digest == "t2"
    for cut in range(len(reports) + 1):
        head = tail = LemmaSummary.empty(LemmaId.THEOREM_MAX)
        for rep in reports[:cut]:
            head = head.add(rep)
        for rep in reports[cut:]:
            tail = tail.add(rep)
        assert head.merge(tail) == sequential


def test_sweep_small_scale():
    summaries = run_lemma_sweep(trials=40, dim_max=3, p_max=6, seed=0)
    assert set(summaries) == {
        LemmaId.HOLDER, LemmaId.ALT, LemmaId.ALT_SCHATTEN,
        LemmaId.WORD_BOUND, LemmaId.EXPECTATION_WORD_BOUND,
        LemmaId.BINOMIAL_REDUCTION,
    }
    for summary in summaries.values():
        assert summary.trials == 40
        assert summary.all_passed
        assert summary.min_norm_slack >= -1e-9
        assert summary.worst_digest


def test_sweep_validates_arguments():
    with pytest.raises(InvalidExponent):
        run_lemma_sweep(trials=0, dim_max=3, p_max=6, seed=0)


def test_sweep_worker_count_does_not_change_results(monkeypatch):
    # 260 trials spans two scheduling blocks, so the pool actually engages
    monkeypatch.setenv("TMX_THREADS", "1")
    serial = run_lemma_sweep(trials=260, dim_max=2, p_max=4, seed=3)
    monkeypatch.setenv("TMX_THREADS", "2")
    parallel = run_lemma_sweep(trials=260, dim_max=2, p_max=4, seed=3)
    assert serial == parallel


@pytest.mark.parametrize("block", [1, 7, 32, 256])
def test_sweep_blocks_and_batches_change_no_summary(monkeypatch, block):
    monkeypatch.setenv("TMX_THREADS", "1")
    monkeypatch.setattr(checks, "_BATCH_TRIALS", 32)
    monkeypatch.setattr(checks, "_BLOCK_TRIALS", 256)
    expected = run_lemma_sweep(trials=45, dim_max=4, p_max=6, seed=8)
    monkeypatch.setattr(checks, "_BLOCK_TRIALS", block)
    for batch in (1, 7, 32, 256):
        monkeypatch.setattr(checks, "_BATCH_TRIALS", batch)
        assert run_lemma_sweep(trials=45, dim_max=4, p_max=6, seed=8) == expected, batch


def _failing_projections(monkeypatch, caps):
    """Make every projection of an ensemble with one of these caps fail."""
    project = ensembles._project_batch

    def failing(vecs, lam, entries, probs, sizes, row_caps, targets):
        status, *arrays = project(vecs, lam, entries, probs, sizes, row_caps, targets)
        status = [ensembles.FAILED if c in caps else st for st, c in zip(status, row_caps)]
        return status, *arrays

    monkeypatch.setattr(ensembles, "_project_batch", failing)


def _trial_ensembles(seed, t, dim_max):
    """Trial t's X ensemble (or its sampler error), sampled as a trial run
    alone samples it, and the stream paused before its Y parameters."""
    rng = stream(seed, t, 4)
    n = int(rng.integers(1, dim_max + 1))
    cap = float(rng.uniform(0.5, 2.0))
    (ex,) = _sample([(n, int(rng.integers(1, 4)), cap, float(rng.uniform()), rng)])
    return n, cap, ex, rng


def test_sweep_raises_the_first_sampler_failure_in_trial_order(monkeypatch):
    # trial 5's Y ensemble and trial 12's X ensemble fail to sample; the
    # batch samples every X before any Y, yet trial 5's error is raised,
    # as running the trials one by one raises it
    monkeypatch.setenv("TMX_THREADS", "1")
    seed, dim_max, p_max = 9, 3, 4
    n, _, _, rng = _trial_ensembles(seed, 5, dim_max)
    y_params = (n, int(rng.integers(1, 4)), float(rng.uniform(0.5, 2.0)), float(rng.uniform()))
    x_cap_12 = _trial_ensembles(seed, 12, dim_max)[1]
    _failing_projections(monkeypatch, {y_params[2], x_cap_12})

    # the errors of trials 5 and 12 run alone
    rng = _trial_ensembles(seed, 5, dim_max)[3]
    redrawn = (n, int(rng.integers(1, 4)), float(rng.uniform(0.5, 2.0)), float(rng.uniform()))
    assert redrawn == y_params
    (alone,) = _sample([(*y_params, rng)])
    later = _trial_ensembles(seed, 12, dim_max)[2]
    assert isinstance(alone, SamplerFailed) and isinstance(later, SamplerFailed)
    assert str(alone) != str(later)

    for batch in (1, 7, 32):
        monkeypatch.setattr(checks, "_BATCH_TRIALS", batch)
        with pytest.raises(SamplerFailed) as raised:
            run_lemma_sweep(trials=20, dim_max=dim_max, p_max=p_max, seed=seed)
        assert str(raised.value) == str(alone), batch
        with pytest.raises(SamplerFailed) as raised:
            checks._run_trials(seed, 6, 20, dim_max, p_max)
        assert str(raised.value) == str(later), batch
