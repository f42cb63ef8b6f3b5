"""Inequality checkers: trivial identities, equality witnesses, randomized
passes, and independent numpy oracles for both sides where feasible."""

import json
import math
import tracemalloc
import zlib
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import assert_close, psd_pairs, random_psd, seeds
from oracles import (
    CheckReport,
    _report,
    add,
    check_alt,
    check_alt_schatten,
    check_binomial_reduction,
    check_expectation_word_bound,
    check_holder,
    check_theorem_max,
    check_word_bound,
    empty,
    enumerate_binary_words,
    stacked_matrix,
    to_alternating,
    trace,
)
from tracemax import (
    AlternatingWord,
    BudgetExceeded,
    ConstraintViolated,
    DimensionError,
    EnsembleFamily,
    FiniteEnsemble,
    InvalidExponent,
    LemmaId,
    LemmaSummary,
    SamplerFailed,
    SearchConfig,
    SymMatrix,
    exact_trace_moment,
    family_from_json,
    gap_sweep,
    run_lemma_sweep,
    stream,
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
    ex = _deterministic(cap * np.eye(n), cap, 1.0)
    y = random_psd(n, stream(47), 1.0)
    ey = FiniteEnsemble(atoms=(y.entries,), probs=(1.0,), cap=max(y.opnorm, 1e-9), alpha=1.0)
    w = AlternatingWord(exponent_pairs=((2.0, 1.0),))
    rep = check_expectation_word_bound(ex, ey, w, cap)
    assert abs(rep.slack) <= 1e-9 * (1.0 + abs(rep.rhs))


def test_expectation_word_bound_zero_x():
    n = 2
    ex = FiniteEnsemble(atoms=(np.zeros((n, n)),), probs=(1.0,), cap=1.0, alpha=0.0)
    y = random_psd(n, stream(48), 1.0)
    ey = FiniteEnsemble(atoms=(y.entries,), probs=(1.0,), cap=max(y.opnorm, 1e-9), alpha=1.0)
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
    ex = FiniteEnsemble(atoms=(2.0 * np.eye(n),), probs=(1.0,), cap=2.0, alpha=1.0)
    ey = FiniteEnsemble(atoms=(np.eye(n),), probs=(1.0,), cap=1.0, alpha=1.0)
    w = AlternatingWord(exponent_pairs=((1.0, 1.0),))
    with pytest.raises(ConstraintViolated):
        check_expectation_word_bound(ex, ey, w, 0.5)


@pytest.mark.parametrize("cap", [math.inf, math.nan])
def test_sampled_lemma_checkers_reject_a_non_finite_cap(cap):
    # a NaN report, or a RuntimeWarning from the surrogate's atoms, would
    # let a bad cap through
    ex, ey = _sample([(2, 2, 1.0, 0.5, stream(49)), (2, 2, 1.0, 0.5, stream(50))])
    w = AlternatingWord(exponent_pairs=((1.0, 1.0),))
    with pytest.raises(ConstraintViolated, match="positive and finite"):
        check_expectation_word_bound(ex, ey, w, cap)
    with pytest.raises(ConstraintViolated, match="positive and finite"):
        check_binomial_reduction(ex, ey, 3, cap)


# Binomial reduction ----------------------------------------------------------

def test_binomial_reduction_commuting_equality():
    """Scalar-projection X with commuting diagonal Y hits equality."""
    n = 3
    cap = 1.5
    alpha = 0.4
    ex = FiniteEnsemble(
        atoms=(cap * np.eye(n), np.zeros((n, n))),
        probs=(alpha, 1.0 - alpha),
        cap=cap,
        alpha=alpha,
    )
    ey = FiniteEnsemble(atoms=(np.diag([0.3, 0.7, 1.1]),), probs=(1.0,), cap=1.1, alpha=1.0)
    rep = check_binomial_reduction(ex, ey, 5, cap)
    assert abs(rep.slack) <= 1e-9 * abs(rep.rhs)


def test_binomial_reduction_zero_y_linear():
    n = 3
    (ex,) = _attempt([(n, 2, 1.0, 0.6, 77)])
    ey = FiniteEnsemble(atoms=(np.zeros((n, n)),), probs=(1.0,), cap=1.0, alpha=0.0)
    rep = check_binomial_reduction(ex, ey, 1, 1.0)
    assert_close(rep.lhs, trace(SymMatrix(ex.mean)), rel=1e-12, abs_tol=1e-12)
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
        px * py * tr_pow(ax + ay)
        for px, ax in zip(ex.probs, ex.atoms)
        for py, ay in zip(ey.probs, ey.atoms)
    )
    w = min(ex.mean_norm / cap, 1.0)
    rhs = math.fsum(
        py * (w * tr_pow(ay + cap * np.eye(n)) + (1.0 - w) * tr_pow(ay))
        for py, ay in zip(ey.probs, ey.atoms)
    )
    assert_close(rep.lhs, lhs, rel=1e-12)
    assert_close(rep.rhs, rhs, rel=1e-12)


def test_binomial_reduction_validation():
    n = 2
    ex = FiniteEnsemble(atoms=(np.eye(n),), probs=(1.0,), cap=1.0, alpha=1.0)
    with pytest.raises(InvalidExponent):
        check_binomial_reduction(ex, ex, 0, 1.0)
    with pytest.raises(BudgetExceeded):
        check_binomial_reduction(ex, ex, 31, 1.0)
    # the limit is exact_trace_moment's MOMENT_BUDGET = 30, not the word budget
    assert check_binomial_reduction(ex, ex, 25, 1.0).passed
    with pytest.raises(DimensionError):
        check_binomial_reduction(
            ex,
            FiniteEnsemble(atoms=(np.eye(3),), probs=(1.0,), cap=1.0, alpha=1.0),
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
    a = checks._run_trial_block((123, 5, 6, 4, 6))
    b = checks._run_trial_block((123, 5, 6, 4, 6))
    assert a == b
    assert list(a) == [
        LemmaId.HOLDER, LemmaId.ALT, LemmaId.ALT_SCHATTEN,
        LemmaId.WORD_BOUND, LemmaId.EXPECTATION_WORD_BOUND,
        LemmaId.BINOMIAL_REDUCTION,
    ]
    assert all(s.trials == 1 and s.worst_digest.startswith("trial=5;") for s in a.values())


_EXPORTED = {
    "_batch_holder": check_holder,
    "_batch_alt": lambda lemma, *case: (
        check_alt if lemma is LemmaId.ALT else check_alt_schatten
    )(*case),
    "_batch_word_bound": check_word_bound,
    "_batch_expectation_word_bound": check_expectation_word_bound,
    "_batch_binomial_reduction": check_binomial_reduction,
    "_batch_theorem_max": check_theorem_max,
}


def _sides(report):
    return report.lhs, report.rhs


def _recorded_batches(monkeypatch):
    """Make the sweep record the cases and results of each batched checker,
    each matrix of an unsampled lemma's case as its SymMatrix."""
    recorded = {name: [] for name in _EXPORTED}
    for name in _EXPORTED:
        def recording(*args, batched=getattr(checks, name), name=name):
            results = batched(*args)
            *stacks, cases = args
            if stacks:
                cases = [_with_matrices(stacks[0], name, case) for case in cases]
            recorded[name].append((cases, results))
            return results

        monkeypatch.setattr(checks, name, recording)
    return recorded


def _with_matrices(stacks, name, case):
    """A case whose matrices are rows (n, row) of the stacked eigensystem
    arrays stacks[n], with each matrix as the SymMatrix of its row."""
    def matrix(ref):
        n, row = ref
        vecs, spectra, entries = stacks[n]
        return stacked_matrix(entries[row], vecs[row], spectra[row])

    if name == "_batch_holder":
        factors, exponents = case
        return [matrix(f) for f in factors], exponents
    if name == "_batch_alt":
        lemma, a, b, alpha = case
        return lemma, matrix(a), matrix(b), alpha
    x, y, w = case
    return matrix(x), matrix(y), w


def test_batched_checkers_match_the_exported_checkers(monkeypatch):
    # in the sweep and the audit, each batched report equals the reference
    # checker's on the same inputs; the batches cover every dimension, both
    # Holder shapes, the exponents 1.0 and 2.0 on which numpy takes a fast
    # path, integer and fractional words, both ends of the power range and
    # every audit member count
    recorded = _recorded_batches(monkeypatch)
    for seed in (0, 7000, 7001):
        checks._run_trial_block((seed, 0, 96, 5, 8))
        checks._theorem_tally(seed, 0, 96)
    seen, members = set(), set()
    for name, check in _EXPORTED.items():
        for cases, results in recorded[name]:
            assert results == [_sides(check(*case)) for case in cases], name
            for case in cases:
                if name == "_batch_holder":
                    seen.add((name, case[0][0].dim, len(case[0])))
                elif name == "_batch_alt":
                    seen.add((name, case[1].dim, case[3]))
                elif name == "_batch_binomial_reduction":
                    seen.add((name, case[0].dim, case[2]))
                elif name == "_batch_theorem_max":
                    seen.add((name, case[0].dim, case[1]))
                    members.add(len(case[0].members))
                else:
                    seen.add((name, case[0].dim, case[2].exponent_pairs[0][0].is_integer()))
    for name in _EXPORTED:
        dims = {1, 2, 3, 4} if name == "_batch_theorem_max" else {1, 2, 3, 4, 5}
        assert {n for kind, n, _ in seen if kind == name} == dims, name
    assert members == {1, 2, 3}
    required = [
        ("_batch_holder", 1), ("_batch_holder", 3), ("_batch_alt", 1.0), ("_batch_alt", 2.0),
        ("_batch_word_bound", True), ("_batch_word_bound", False),
        ("_batch_expectation_word_bound", True), ("_batch_expectation_word_bound", False),
        ("_batch_binomial_reduction", 1), ("_batch_binomial_reduction", 8),
        ("_batch_theorem_max", 1), ("_batch_theorem_max", 8),
    ]
    for name, value in required:
        assert any(kind == name and v == value for kind, _, v in seen), (name, value)


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
    sequential = empty(LemmaId.THEOREM_MAX)
    for rep in reports:
        sequential = add(sequential, rep)
    assert (sequential.trials, sequential.passes) == (4, 1)
    assert sequential.min_slack == -5.0
    assert sequential.min_norm_slack == -1.0
    # the tie keeps the earliest trial, which is not the min-slack one
    assert sequential.worst_digest == "t2"
    for cut in range(len(reports) + 1):
        head = tail = empty(LemmaId.THEOREM_MAX)
        for rep in reports[:cut]:
            head = add(head, rep)
        for rep in reports[cut:]:
            tail = add(tail, rep)
        assert head.merge(tail) == sequential


_tally_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([-0.0, math.nan]),
    st.floats(min_value=-1e6, max_value=1e6),
)


@given(st.lists(st.tuples(_tally_values, _tally_values), min_size=1, max_size=12))
@example([(1.0, 0.0), (3.0, 2.0), (0.5, 1.0)])  # a tie at -1.0: the earliest wins
@example([(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0)])  # equal zero slacks of either sign
def test_array_tally_equals_folding_add(sides):
    # the sweep tallies each lemma from its arrays of sides, formatting only
    # the worst digest; field for field, that is the fold of add over the
    # same reports
    folded = empty(LemmaId.HOLDER)
    for i, (lhs, rhs) in enumerate(sides):
        folded = add(folded, _report(LemmaId.HOLDER, lhs, rhs, f"t{i}"))
    formatted = []
    tally = checks._summary(LemmaId.HOLDER, sides, lambda i: formatted.append(i) or f"t{i}")
    for name in ("lemma_id", "trials", "passes", "min_slack", "min_norm_slack", "worst_digest"):
        assert repr(getattr(tally, name)) == repr(getattr(folded, name)), name
    assert len(formatted) == (folded.worst_digest != "")


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
    monkeypatch.setattr(checks, "_BLOCK_TRIALS", 256)
    expected = run_lemma_sweep(trials=45, dim_max=4, p_max=6, seed=8)
    monkeypatch.setattr(checks, "_BLOCK_TRIALS", block)
    assert run_lemma_sweep(trials=45, dim_max=4, p_max=6, seed=8) == expected


def test_a_block_holds_one_lemma_at_a_time():
    # one lemma's matrices over the block are alive at a time, the two
    # sampled lemmas' ensembles together, made light by their shared
    # records: the block's traced peak is 0.86 MB (0.69 MB while those
    # lemmas sampled 64 trials at a time), where a block holding every
    # lemma's inputs for all its 256 trials at once peaks at about 5.5 MB
    checks._run_trial_block((7000, 0, 256, 5, 8))  # warm lazy imports and caches
    tracemalloc.start()
    try:
        checks._run_trial_block((7000, 0, 256, 5, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _failing_projections(monkeypatch, caps):
    """Make every projection of an ensemble with one of these caps fail."""
    project = ensembles._project_batch

    def failing(vecs, lam, entries, probs, sizes, row_caps, targets):
        landed, *arrays = project(vecs, lam, entries, probs, sizes, row_caps, targets)
        return [hit and c not in caps for hit, c in zip(landed, row_caps)], *arrays

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

    with pytest.raises(SamplerFailed) as raised:
        run_lemma_sweep(trials=20, dim_max=dim_max, p_max=p_max, seed=seed)
    assert str(raised.value) == str(alone)
    with pytest.raises(SamplerFailed) as raised:
        checks._run_trial_block((seed, 6, 20, dim_max, p_max))
    assert str(raised.value) == str(later)


@pytest.mark.parametrize("every", [2, 4])
def test_sampled_block_under_failures_matches_its_one_trial_runs(monkeypatch, every):
    # The failing Newton fallback of test_ensembles.py's
    # test_batched_sampling_under_failures_matches_each_request_alone, with
    # three attempts: some trials retry, some end in SamplerFailed. A block
    # raises the failure of its first failing trial, and the trials between
    # failures, as one block, tally as their one-trial runs merged.
    solve = ensembles._solve_scale

    def flaky(vecs, lam, *args):
        return None if zlib.crc32(lam.tobytes()) % every else solve(vecs, lam, *args)

    monkeypatch.setattr(ensembles, "_solve_scale", flaky)
    monkeypatch.setattr(ensembles, "SAMPLER_ATTEMPTS", 3)
    attempt, retries = ensembles._attempt, []

    def counted(rows):
        results = attempt(rows)
        retries.extend(isinstance(r, SamplerFailed) for r in results)
        return results

    monkeypatch.setattr(ensembles, "_attempt", counted)
    seed, dim_max, p_max, trials = 2, 4, 6, 80
    alone, retried = [], 0
    for t in range(trials):
        retries.clear()
        try:
            alone.append(checks._sampled_tallies(seed, range(t, t + 1), dim_max, p_max))
            retried += any(retries)
        except SamplerFailed as exc:
            alone.append(exc)
    failing = [t for t, run in enumerate(alone) if isinstance(run, SamplerFailed)]
    assert retried and len(failing) >= 2, (retried, failing)
    assert len({str(alone[t]) for t in failing}) == len(failing)
    with pytest.raises(SamplerFailed) as raised:
        checks._sampled_tallies(seed, range(trials), dim_max, p_max)
    assert str(raised.value) == str(alone[failing[0]])
    for start, stop in [(0, failing[0]), (failing[0] + 1, failing[1])]:
        block = checks._sampled_tallies(seed, range(start, stop), dim_max, p_max)
        merged = [reduce(LemmaSummary.merge, (run[k] for run in alone[start:stop])) for k in (0, 1)]
        assert block == merged, (start, stop)


def test_sweep_rejects_a_power_budget_before_any_trial(monkeypatch):
    # p_max = 40 exceeds MOMENT_BUDGET: the sweep raises before it samples
    # anything, so trial 2's failing X ensemble is never reached
    monkeypatch.setenv("TMX_THREADS", "1")
    seed, dim_max = 0, 3
    _failing_projections(monkeypatch, {_trial_ensembles(seed, 2, dim_max)[1]})
    calls = []
    failing = ensembles._project_batch
    monkeypatch.setattr(ensembles, "_project_batch", lambda *a: calls.append(a) or failing(*a))
    with pytest.raises(BudgetExceeded) as raised:
        run_lemma_sweep(trials=20, dim_max=dim_max, p_max=40, seed=seed)
    assert str(raised.value) == f"moment order 40 exceeds budget {MOMENT_BUDGET}"
    assert calls == []


# Audit of sampled families ----------------------------------------------------

def _planted_bound(monkeypatch):
    """Lower the closed-form maximum by 1e-3 at odd powers, so that the
    audit fails some of its trials; returns the planted function."""
    real = checks.theorem_max_value

    def planted(n, params, p):
        value = real(n, params, p)
        return value * (1.0 - 1e-3) if p % 2 else value

    monkeypatch.setattr(checks, "theorem_max_value", planted)
    return planted


def _audit(trials, seed=5):
    """The audit of a one-cell search with ``trials`` sampled families."""
    config = SearchConfig(restarts=1, steps_per_restart=1, seed=seed)
    return gap_sweep([1], [1], [2], [0.5], [1.0], config, sampler_trials=trials)


def test_audit_dumps_every_failing_trial_in_order_and_each_replays(monkeypatch):
    # 600 trials run in three blocks; every failing trial is dumped, in
    # trial order, and its family, reloaded from JSON, gives back both
    # sides bit for bit
    monkeypatch.setenv("TMX_THREADS", "1")
    planted = _planted_bound(monkeypatch)
    outcome = _audit(600)
    dumps = outcome.violations
    assert outcome.audit.trials == 600
    assert outcome.audit.trials - outcome.audit.passes == len(dumps) > 0
    assert not outcome.clean
    trials = [int(dump["digest"].split(";")[0].removeprefix("audit=")) for dump in dumps]
    assert trials == sorted(trials)
    assert trials[0] < 256 and trials[-1] >= 512
    for dump in dumps:
        assert set(dump) == {"digest", "lhs", "rhs", "p", "family"}
        p = dump["p"]
        assert p % 2 == 1 and dump["digest"].endswith(f";p={p}")
        family = family_from_json(json.loads(json.dumps(dump["family"])))
        assert exact_trace_moment(family, p) == dump["lhs"]
        assert planted(family.dim, family.params, p) == dump["rhs"]


def test_audit_blocks_change_no_tally_or_dump(monkeypatch):
    monkeypatch.setenv("TMX_THREADS", "1")
    _planted_bound(monkeypatch)
    runs = []
    for block in (7, 256):
        monkeypatch.setattr(checks, "_BLOCK_TRIALS", block)
        outcome = _audit(300)
        runs.append((outcome.audit, outcome.violations))
    assert runs[0] == runs[1]
    assert runs[0][1]


def _audit_trial(seed, t):
    """Trial t of the audit run alone, member by member: its members' caps
    and its members, or the caps drawn up to its first sampler error and
    that error."""
    rng = stream(seed, 2, t)
    tops = (checks._AUDIT_DIM, checks._AUDIT_MEMBERS, checks._AUDIT_POWER)
    n, count, _ = (int(rng.integers(1, top + 1)) for top in tops)
    caps, members = [], []
    for _ in range(count):
        size = int(rng.integers(1, checks._AUDIT_ATOMS + 1))
        caps.append(float(rng.uniform(0.5, 2.0)))
        (member,) = _sample([(n, size, caps[-1], float(rng.uniform()), rng)])
        if isinstance(member, TracemaxError):
            return caps, member
        members.append(member)
    return caps, members


def test_audit_raises_the_first_sampler_failure_in_trial_order(monkeypatch):
    # trial 5's third member and trial 12's first fail to sample; the audit
    # samples member 0 of every trial before any member 2, yet trial 5's
    # error is raised, as running the trials one by one raises it
    monkeypatch.setenv("TMX_THREADS", "1")
    seed = 9
    caps_5, caps_12 = _audit_trial(seed, 5)[0], _audit_trial(seed, 12)[0]
    assert len(caps_5) == 3
    _failing_projections(monkeypatch, {caps_5[2], caps_12[0]})
    alone, later = _audit_trial(seed, 5)[1], _audit_trial(seed, 12)[1]
    assert isinstance(alone, SamplerFailed) and isinstance(later, SamplerFailed)
    assert str(alone) != str(later)
    for block in (7, 256):
        monkeypatch.setattr(checks, "_BLOCK_TRIALS", block)
        with pytest.raises(SamplerFailed) as raised:
            _audit(20, seed)
        assert str(raised.value) == str(alone), block
    with pytest.raises(SamplerFailed) as raised:
        checks._theorem_tally(seed, 6, 20)
    assert str(raised.value) == str(later)
