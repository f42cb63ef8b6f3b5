"""Ensemble construction, mean-shell sampling, and the exact trace-moment
enumeration checked against hand and brute-force enumerations."""

import itertools
import json
import math
import pickle
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import assert_close, random_psd, seeds
from oracles import psd_trace_power, stacked_matrix
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
    stream,
    subseed,
    theorem_max_value,
)
import tracemax.ensembles as ensembles
import tracemax.search as search
from tracemax.ensembles import _attempt, _project_batch, _sample
from tracemax.linalg import (
    _eigensystems, _givens, _spectral_arrays, _spectral_draw, _spectral_entries,
)

_EYE2 = np.eye(2)
_ZERO2 = np.zeros((2, 2))


def _bernoulli_member(cap, alpha, n=2):
    return FiniteEnsemble(
        atoms=(cap * np.eye(n), np.zeros((n, n))),
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
    assert np.array_equal(member.mean, (0.4 * 1.5) * np.eye(2))


def test_rejects_negative_probability():
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(_EYE2, _ZERO2), probs=(1.2, -0.2), cap=1.0, alpha=1.2)


def test_rejects_probabilities_not_summing_to_one():
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(_EYE2, _ZERO2), probs=(0.6, 0.3), cap=1.0, alpha=0.6)


def test_rejects_non_psd_atom():
    bad = np.diag([1.0, -0.5])
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(bad,), probs=(1.0,), cap=1.0, alpha=1.0)


def test_rejects_atom_over_cap():
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(2.0 * np.eye(2),), probs=(1.0,), cap=1.0, alpha=1.0)


def test_rejects_mean_norm_mismatch():
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=(_EYE2, _ZERO2), probs=(0.5, 0.5), cap=1.0, alpha=0.9)


def test_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        FiniteEnsemble(
            atoms=(_EYE2, np.zeros((3, 3))), probs=(0.5, 0.5), cap=1.0, alpha=0.5
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


@pytest.mark.parametrize("cap", [math.inf, math.nan])
def test_rejects_non_finite_cap(cap):
    # an infinite cap would let the cap and mean-norm checks pass any PSD atoms
    atom = np.diag([5.0, 1e6])
    with pytest.raises(ConstraintViolated, match="positive and finite"):
        FiniteEnsemble(atoms=(atom,), probs=(1.0,), cap=cap, alpha=0.5)


def test_json_rejects_an_infinite_cap():
    doc = family_to_json(extremal_family(2, BernoulliParams(caps=(1.0,), alphas=(0.5,))))
    text = json.dumps(doc).replace('"L_cap": 1.0', '"L_cap": Infinity')
    with pytest.raises(ConstraintViolated, match="positive and finite"):
        family_from_json(json.loads(text))


_ONE_ZERO = (np.ones((1, 1)), np.zeros((1, 1)))


@pytest.mark.parametrize("probs", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
def test_rejects_a_nan_probability(probs):
    # NaN fails every comparison, so each probability test must fail on it
    with pytest.raises(ConstraintViolated):
        FiniteEnsemble(atoms=_ONE_ZERO, probs=probs, cap=1.0, alpha=0.5)


def test_accepts_zero_probabilities():
    atoms = (*_ONE_ZERO, _ONE_ZERO[0])
    member = FiniteEnsemble(atoms=atoms, probs=(0.5, 0.5, 0.0), cap=1.0, alpha=0.5)
    assert member.probs.tolist() == [0.5, 0.5, 0.0]
    assert FiniteEnsemble(atoms=_ONE_ZERO, probs=(0.0, 1.0), cap=1.0, alpha=0.0).mean_norm == 0.0


def test_json_rejects_a_nan_probability():
    # json.loads accepts NaN by default
    text = (
        '{"dim": 1, "members": [{"atoms": [[1.0], [0.0]], "probs": [NaN, 1.0],'
        ' "L_cap": 1.0, "alpha_target": 0.5}]}'
    )
    with pytest.raises(ConstraintViolated):
        family_from_json(json.loads(text))


_NAN_SLOTS = [(0, 0), (1, 1), (0, 1)]


def _nan_atom(slot, value=math.nan):
    """The atom diag(1, 0.5) of a two-atom member, with value (a NaN) in one slot."""
    atom = np.diag([1.0, 0.5])
    atom[slot] = value
    return atom


def _non_finite_member(slot, value=math.nan):
    """(atoms, probs, cap, alpha, i) of a member whose atom i holds value:
    atom 1, diag(1, 0.5), in one slot, or for slot "sampled" the sampled,
    non-diagonal 3 x 3 atom 2 at (0, 1) and (1, 0), where a NaN keeps eigh
    from converging."""
    if slot != "sampled":
        return (np.diag([1.0, 0.0]), _nan_atom(slot, value)), (0.5, 0.5), 1.0, 0.5, 1
    (member,) = _attempt([(3, 3, 1.2, 0.5, 63)])
    atoms = member.atoms.copy()
    atoms[2, 0, 1] = atoms[2, 1, 0] = value
    return atoms, member.probs.tolist(), 1.2, 0.5, 2


@pytest.mark.parametrize("slot", [*_NAN_SLOTS, "sampled"])
def test_rejects_a_nan_atom_entry(slot):
    # max(abs(lo), abs(hi)) dropped a NaN eigenvalue, so every atom check
    # passed and exact_trace_moment returned nan
    atoms, probs, cap, alpha, i = _non_finite_member(slot)
    with pytest.raises(ConstraintViolated, match=f"^atom {i} has a non-finite entry$"):
        FiniteEnsemble(atoms=atoms, probs=probs, cap=cap, alpha=alpha)


@pytest.mark.parametrize("slot", _NAN_SLOTS)
def test_projection_reads_a_nan_mean_norm_as_nan(slot):
    # so that the projection's landing test abs(norm - target) <= tol fails
    mean = _nan_atom(slot)
    (norm,) = ensembles._top_norms(0.5 * (mean + mean.T)[None])
    assert math.isnan(norm)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("slot", [*_NAN_SLOTS, "sampled"])
def test_json_rejects_a_non_finite_atom_entry(slot, value):
    atoms, probs, cap, alpha, i = _non_finite_member(slot, value)
    doc = {
        "dim": len(atoms[0]),
        "members": [{
            "atoms": [np.ravel(atom).tolist() for atom in atoms],
            "probs": list(probs), "L_cap": cap, "alpha_target": alpha,
        }],
    }
    text = json.dumps(doc)
    assert json.dumps(value) in text  # json.loads accepts NaN and Infinity by default
    with pytest.raises(ConstraintViolated, match=f"^atom {i} has a non-finite entry$"):
        family_from_json(json.loads(text))


def test_rejects_an_infinite_atom_entry_from_its_eigensystem():
    # given eigensystems are checked as given, not trusted
    vecs, spectra = np.broadcast_to(np.eye(2), (1, 1, 2, 2)), np.array([[[0.5, 0.5]]])
    atoms = np.array([[[[0.5, 0.0], [0.0, math.inf]]]])
    (error,) = ensembles._admit(atoms, np.array([[1.0]]), vecs, spectra, [1], [1.0], [0.5])
    assert type(error) is ConstraintViolated
    assert str(error) == "atom 0 has a non-finite entry"


def test_json_rejects_an_atom_of_the_wrong_size():
    doc = family_to_json(extremal_family(1, BernoulliParams(caps=(1.0, 1.0), alphas=(0.5, 0.5))))
    doc["members"][1]["atoms"][1] = [0.0, 0.0]
    with pytest.raises(DimensionError, match="member 1 atom 1 has 2 entries, not 1"):
        family_from_json(doc)


def _two_member_doc():
    return family_to_json(extremal_family(1, BernoulliParams(caps=(1.0, 1.0), alphas=(0.5, 0.5))))


@pytest.mark.parametrize("key", ["dim", "members"])
def test_json_rejects_a_document_without_a_key(key):
    doc = _two_member_doc()
    del doc[key]
    with pytest.raises(ConstraintViolated, match=f"family has no '{key}'"):
        family_from_json(doc)


@pytest.mark.parametrize("key", ["atoms", "probs", "L_cap", "alpha_target"])
def test_json_rejects_a_member_without_a_key(key):
    # each missing key escaped as a bare KeyError
    doc = _two_member_doc()
    del doc["members"][1][key]
    with pytest.raises(ConstraintViolated, match=f"member 1 has no '{key}'"):
        family_from_json(doc)


def test_json_rejects_a_non_numeric_cap():
    doc = _two_member_doc()
    doc["members"][1]["L_cap"] = "x"
    with pytest.raises(ConstraintViolated, match="member 1 has a malformed 'L_cap'"):
        family_from_json(doc)


@pytest.mark.parametrize("members, named", [
    ("ab", "'members'"),
    ({"a": 1}, "'members'"),
    (["x"], "'members': member 0"),
], ids=["string", "object", "list-of-strings"])
def test_json_rejects_members_that_are_not_a_list_of_objects(members, named):
    # each was read with list() and failed on its first character or key,
    # as "member 0 has a malformed 'atoms'"
    doc = _two_member_doc()
    doc["members"] = members
    with pytest.raises(ConstraintViolated, match=f"^family has a malformed {named}"):
        family_from_json(doc)


def _one_atom_doc():
    """A replay document of one member with the single atom 0.5, which loads."""
    return {
        "dim": 1,
        "members": [{"atoms": [[0.5]], "probs": [1.0], "L_cap": 1.0, "alpha_target": 0.5}],
    }


def test_json_loads_the_one_atom_document():
    (member,) = family_from_json(_one_atom_doc()).members
    assert member.atoms.tolist() == [[[0.5]]]
    assert (member.probs.tolist(), member.cap, member.alpha) == ([1.0], 1.0, 0.5)


@pytest.mark.parametrize("dim", [-1, 0, 1.9, "1", True])
def test_json_rejects_a_dim_that_is_not_a_positive_int(dim):
    # -1 escaped as a bare ValueError from reshape, 0 as a DimensionError;
    # 1.9, "1" and true loaded as dim 1
    doc = _one_atom_doc()
    doc["dim"] = dim
    with pytest.raises(ConstraintViolated, match="family has a malformed 'dim'"):
        family_from_json(doc)


@pytest.mark.parametrize("key, value", [
    ("L_cap", True),
    ("L_cap", "1.0"),
    ("alpha_target", True),
    ("probs", ["1"]),
    ("atoms", [["0.5"]]),
    ("atoms", [[[0.5]]]),
    ("L_cap", 10**400),
])
def test_json_rejects_a_member_value_that_is_not_a_number(key, value):
    # float() took booleans and numeric strings and numpy flattened a
    # nested atom, so each loaded; an int too large for a float escaped as
    # a bare OverflowError
    doc = _one_atom_doc()
    doc["members"][0][key] = value
    with pytest.raises(ConstraintViolated, match=f"member 0 has a malformed '{key}'"):
        family_from_json(doc)


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


def _members_built_every_way():
    """A member built from entries, a sampled one, a bernoulli_member and a
    climbed one: each way the package builds a FiniteEnsemble."""
    config = search.SearchConfig(restarts=2, steps_per_restart=3, seed=4)
    chains = search._Chains(2, BernoulliParams(caps=(1.0,), alphas=(0.5,)), 3, config, 0, 2)
    chains.step()
    return [
        _bernoulli_member(1.0, 0.5),
        *_attempt([(3, 2, 1.0, 0.4, 42)]),
        ensembles.bernoulli_member(2, 1.0, 0.5),
        *chains.families([1])[0].members,
    ]


_MEMBER_ARRAYS = ["atoms", "probs", "vecs", "spectra", "mean", "mean_spectrum", "mean_vecs"]


@pytest.mark.parametrize("name", _MEMBER_ARRAYS)
def test_member_arrays_are_frozen(name):
    # a validated member cannot be edited into an inadmissible one
    for member in _members_built_every_way():
        array = getattr(member, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 5.0
        with pytest.raises(AttributeError):
            setattr(member, name, array.copy())


def test_member_arrays_stay_frozen_through_pickle():
    # a parallel search's families come back from its workers pickled
    for member in _members_built_every_way():
        copy = pickle.loads(pickle.dumps(member))
        for name in _MEMBER_ARRAYS:
            array = getattr(copy, name)
            assert array.tobytes() == getattr(member, name).tobytes(), name
            assert not array.flags.writeable, name
        assert (copy.cap, copy.alpha) == (member.cap, member.alpha)
    # a member of a 256-row batch is a view of its batch's record, but it
    # pickles as its own row: no larger than the same row admitted alone,
    # and it unpickles frozen
    batch = _attempt([(3, 1 + k % 3, 1.0, 0.4, 900 + k) for k in range(256)])
    for member in batch[:3]:
        row = (getattr(member, name)[None] for name in ("atoms", "probs", "vecs", "spectra"))
        (alone,) = ensembles._admit(*row, [member.support_size], [member.cap], [member.alpha])
        pickled = pickle.dumps(member)
        assert len(pickled) <= len(pickle.dumps(alone)) + 64
        copy = pickle.loads(pickled)
        for name in _MEMBER_ARRAYS:
            array = getattr(copy, name)
            assert array.tobytes() == getattr(member, name).tobytes(), name
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 5.0
        with pytest.raises(AttributeError):
            copy.cap = 2.0


def test_member_atoms_from_entries_are_exactly_symmetric():
    # atoms from entries are stored as 0.5 * (M + M^T), bit for bit as
    # SymMatrix stores them, here from a JSON document
    lopsided = np.array([[0.5, 0.3], [0.1, 0.5]])
    doc = {"dim": 2, "members": [{
        "atoms": [lopsided.ravel().tolist()], "probs": [1.0], "L_cap": 1.0, "alpha_target": 0.7,
    }]}
    (member,) = family_from_json(doc).members
    (atom,) = member.atoms
    assert np.array_equal(atom, atom.T)
    assert atom[0, 1] == 0.2
    assert atom.tobytes() == SymMatrix(lopsided).entries.tobytes()
    assert member.spectra.tobytes() == SymMatrix(lopsided).eig.eigenvalues.tobytes()


# Sampler ----------------------------------------------------------------------

def test_sampler_invariants_recomputed_with_numpy():
    (member,) = _attempt([(3, 2, 1.0, 0.4, 42)])
    assert member.dim == 3
    assert member.support_size == 2
    probs = np.array(member.probs)
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) <= 1e-12
    mean = sum(q * a for q, a in zip(member.probs, member.atoms))
    mean_norm = float(np.max(np.abs(np.linalg.eigvalsh(mean))))
    assert abs(mean_norm - 0.4) <= 1e-8 * 0.4 + 1e-12
    for atom in member.atoms:
        evals = np.linalg.eigvalsh(atom)
        assert evals.min() >= -1e-10
        assert evals.max() <= 1.0 * (1.0 + 1e-9)


def test_sampler_alpha_zero_gives_zero_atoms():
    (member,) = _attempt([(2, 3, 1.0, 0.0, 7)])
    for atom in member.atoms:
        assert np.array_equal(atom, np.zeros((2, 2)))


def test_sampler_alpha_one_caps_every_atom():
    (member,) = _attempt([(3, 2, 1.7, 1.0, 7)])
    for atom in member.atoms:
        np.testing.assert_allclose(atom, 1.7 * np.eye(3), atol=1e-12)


def test_sampler_extreme_alpha_rows_are_their_members_from_entries(monkeypatch):
    # alpha = 0 and alpha = 1 rows share an attempt, and its projection and
    # admission, with a row the projection moves; each must be the member
    # built from its entries, and its stream must have drawn its
    # probabilities alone
    shapes = list(itertools.product((1, 2, 5), (1, 3), (0.7, 2.0), (0.0, 1.0)))
    rows = [(n, s, cap, alpha, 700 + k) for k, (n, s, cap, alpha) in enumerate(shapes)]
    made = []

    def recorded(keys, _streams=ensembles.streams):
        made.extend(_streams(keys))
        return iter(made)

    monkeypatch.setattr(ensembles, "streams", recorded)
    *members, projected = _attempt([*rows, (2, 3, 0.7, 0.5, 699)])
    assert isinstance(projected, FiniteEnsemble)
    for (n, s, cap, alpha, seed), member, rng in zip(rows, members, made):
        twin = stream(seed)
        expected = FiniteEnsemble(
            np.broadcast_to(alpha * cap * np.eye(n), (s, n, n)), twin.dirichlet(np.ones(s)),
            cap, alpha,
        )
        for name in _MEMBER_ARRAYS:
            assert getattr(member, name).tobytes() == getattr(expected, name).tobytes(), name
        assert rng.random() == twin.random(), "the row drew its probabilities alone"


def test_sampler_deterministic_in_seed():
    a, b = _attempt([(3, 2, 1.0, 0.4, 11)] * 2)
    (c,) = _attempt([(3, 2, 1.0, 0.4, 11)])
    assert a.probs.tolist() == b.probs.tolist() == c.probs.tolist()
    assert np.array_equal(a.atoms, b.atoms)
    assert np.array_equal(a.atoms, c.atoms)


def test_sampler_validation():
    # invalid rows get their error; the valid row between them is sampled
    results = _attempt([
        (0, 2, 1.0, 0.5, 0), (2, 2, -1.0, 0.5, 0), (2, 2, 1.0, 0.5, 0), (2, 2, 1.0, 1.5, 0),
        (2, 2, math.inf, 0.5, 0), (2, 2, math.inf, 1.0, 0),
    ])
    kinds = [type(result) for result in results]
    assert kinds == [
        DimensionError, ConstraintViolated, FiniteEnsemble, ConstraintViolated,
        ConstraintViolated, ConstraintViolated,
    ]
    assert "positive and finite" in str(results[4]) and str(results[4]) == str(results[5])


@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_sampler_with_retry_always_lands_on_shell(seed, n, s):
    rng = stream(seed, 201)
    alpha = float(rng.uniform())
    cap = float(rng.uniform(0.2, 3.0))
    (member,) = _sample([(n, s, cap, alpha, rng)])
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


def _stacked(atoms, probs):
    """_project_batch's arrays for one row of SymMatrix atoms: eigenbases,
    spectra, entries and probabilities, each with a batch axis of one."""
    return (
        np.stack([a.eig.eigenvectors for a in atoms])[None],
        np.stack([a.eig.eigenvalues for a in atoms])[None],
        np.stack([a.entries for a in atoms])[None],
        np.array([probs], dtype=float),
    )


def test_projection_reports_unreachable_target(eigensolves):
    # orthogonal positive eigenspaces saturate the mean norm at cap/2, so
    # alpha = 0.9 is unreachable no matter how hard the atoms are scaled
    atoms = (SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.diag([0.0, 1.0])))
    landed, *_ = _project_batch(*_stacked(atoms, (0.5, 0.5)), [2], [1.0], [0.9])
    assert landed == [False]
    # one eigendecomposition per atom, then the input's mean norm and seven
    # rescale rounds, each solved as a batch of one; then the single batched
    # bracket proves the target unreachable without probing any scale factor
    assert eigensolves[:-1] == [()] * len(atoms) + [(1,)] * 8
    assert len(eigensolves[-1]) == 1


def test_projection_falls_back_from_a_zero_mean():
    # no rescaling moves a zero mean, so the rounds hand the input to the
    # bracketed solve, which clips these indefinite atoms into reach
    atoms = (SymMatrix(np.diag([1.0, -1.0])), SymMatrix(np.diag([-1.0, 1.0])))
    landed, _, entries, *_ = _project_batch(*_stacked(atoms, (0.5, 0.5)), [2], [1.0], [0.25])
    assert landed == [True]
    assert entries[0].tolist() == [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]]


def _extreme_alpha_projections(monkeypatch):
    """The 30 ensembles sampled near alpha = 1, and each one's row of the
    sampler's projection: (vecs, lam, entries, probs)."""
    rows = []
    project = ensembles._project_batch

    def recorded(vecs, lam, entries, probs, sizes, caps, targets):
        rows.extend(zip(vecs, lam, entries, probs))
        return project(vecs, lam, entries, probs, sizes, caps, targets)

    with monkeypatch.context() as patch:
        patch.setattr(ensembles, "_project_batch", recorded)
        patch.setattr(ensembles, "SAMPLER_ATTEMPTS", 1)
        members = _sample([(5, 3, 0.75, 0.9985, stream(55))] * 30)
    return members, rows


def test_projection_handles_extreme_alpha(monkeypatch):
    # compounding stalls near alpha = 1; the bracketed Newton solve on a
    # single scale factor must still land on the shell
    members, rows = _extreme_alpha_projections(monkeypatch)
    assert len(rows) == 30
    for member in members:
        assert abs(member.mean_norm - 0.9985 * 0.75) <= 1e-8 * 0.9985 * 0.75 + 1e-12


def test_projection_fallback_needs_few_eigensolves(monkeypatch, eigensolves):
    # The bounds are half of what doubling and bisecting the scale factor
    # needed on these calls: 30 to 40 solves each, 1057 in all. The
    # bracketed Newton solve takes eight mean norms in the rescale phase
    # (batches of one), one batched bracket and a few single steps.
    _, rows = _extreme_alpha_projections(monkeypatch)
    total = 0
    for vecs, lam, entries, probs in rows:
        eigensolves.clear()
        landed, *_ = _project_batch(
            vecs[None], lam[None], entries[None], probs[None], [3], [0.75], [0.9985 * 0.75]
        )
        assert landed == [True]
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
        rescaled = []
        for a in candidate:
            # clipping keeps the spectrum ascending, as the cache must be
            q, lam = a.eig.eigenvectors, np.clip(a.eig.eigenvalues * t, 0.0, cap)
            rescaled.append(stacked_matrix(_spectral_entries(q, lam), q, lam))
        candidate = tuple(rescaled)
    return None


@pytest.mark.parametrize("n", range(1, 9))
def test_projection_rescale_rounds_are_bit_identical(n):
    # the 12 draws of each support size are projected as one batch
    rng = stream(401, n)
    rescaled = 0
    for s in range(1, 7):
        cases = []
        for _ in range(12):
            cap = float(rng.uniform(0.5, 2.0))
            alpha = float(rng.uniform(0.05, 0.95))
            probs = rng.dirichlet(np.ones(s))
            draws = [_spectral_draw(n, rng, 0.0, cap) for _ in range(s)]
            cases.append((cap, alpha, probs, _spectral_arrays(n, draws)))
        caps = [cap for cap, *_ in cases]
        targets = [alpha * cap for cap, alpha, *_ in cases]
        probs = np.stack([probs for _, _, probs, _ in cases])
        vecs, lam, entries = (np.stack(arrays) for arrays in zip(*(c[3] for c in cases)))
        sizes = [s] * len(cases)
        landed, spectra, moved, *_ = _project_batch(vecs, lam, entries, probs, sizes, caps, targets)
        again = _project_batch(vecs, spectra, moved, probs, sizes, caps, targets)
        for b, (cap, alpha, _, _) in enumerate(cases):
            atoms = tuple(stacked_matrix(*atom) for atom in zip(entries[b], vecs[b], lam[b]))
            expected = _compounding_rounds(atoms, tuple(probs[b].tolist()), cap, alpha)
            if expected is None:
                continue
            # atoms already on the shell come back as they are
            assert again[0][b] and landed[b]
            assert again[1][b].tobytes() == spectra[b].tobytes()
            assert again[2][b].tobytes() == moved[b].tobytes()
            if expected is atoms:
                assert spectra[b].tobytes() == lam[b].tobytes()
                assert moved[b].tobytes() == entries[b].tobytes()
                continue
            rescaled += 1
            for i, y in enumerate(expected):
                assert np.array_equal(moved[b, i], y.entries)
                assert np.array_equal(spectra[b, i], y.eig.eigenvalues)
                assert np.array_equal(vecs[b, i], y.eig.eigenvectors)
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
    probs = rng.dirichlet(np.ones(s))
    bases, spectra = [], []
    for _ in range(s):
        bases.append(_givens(n, rng.uniform(0.0, 2.0 * math.pi, size=(1, n * (n - 1) // 2)))[0])
        spectrum = rng.uniform(0.0, cap, size=n)
        # rank-deficient atoms leave some directions out of reach
        spectrum[rng.random(n) < 0.3] = 0.0
        spectra.append(spectrum)
    vecs, lam, entries = _eigensystems(np.stack(bases), np.stack(spectra))

    # the largest mean norm any rescaling reaches: every atom at cap on its range
    saturated = 0.0
    for q, a in zip(probs, entries):
        w, v = np.linalg.eigh(a)
        kept = v[:, w > 1e-9 * cap]
        saturated = saturated + q * cap * (kept @ kept.T)
    reach = float(np.max(np.abs(np.linalg.eigvalsh(saturated))))
    target = alpha * cap
    excess = target - (reach + 1e-9 * target)
    assume(abs(excess) > 1e-9 * target)

    landed, lam, entries, *_ = _project_batch(
        vecs[None], lam[None], entries[None], probs[None], [s], [cap], [target]
    )
    assert landed == [excess <= 0.0]
    if not landed[0]:
        return
    mean = 0.0
    for q, base, a, spectrum in zip(probs, bases, entries[0], lam[0]):
        # still diagonal in the atom's own eigenbasis, spectrum inside [0, cap]
        d = base.T @ a @ base
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) <= 1e-12 * cap
        assert np.all(np.diag(d) >= -1e-12 * cap)
        assert np.all(np.diag(d) <= cap * (1.0 + 1e-12))
        assert np.all(spectrum >= 0.0) and np.all(spectrum <= cap)
        mean = mean + q * a
    norm = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (mean + mean.T)))))
    assert abs(norm - target) <= 1e-9 * target


def test_sample_with_retry_propagates_final_failure(monkeypatch):
    # no projection lands, below the sampler: each attempt draws one fresh
    # seed, and the last attempt's failure is the result
    project = ensembles._project_batch

    def failing(*args):
        landed, *arrays = project(*args)
        return [False] * len(landed), *arrays

    monkeypatch.setattr(ensembles, "_project_batch", failing)
    monkeypatch.setattr(ensembles, "SAMPLER_ATTEMPTS", 4)
    rng, twin = stream(0), stream(0)
    (result,) = _sample([(2, 2, 1.0, 0.5, rng)])
    assert isinstance(result, SamplerFailed)
    seeds = [subseed(twin) for _ in range(4)]
    assert len(set(seeds)) == 4
    assert rng.random() == twin.random(), "exactly four seeds were drawn"
    assert f"for seed {seeds[-1]} (" in str(result)


def _same_result(got, expected) -> bool:
    """Whether two sampler results are the same error, or the same ensemble bit for bit."""
    if isinstance(expected, Exception):
        return type(got) is type(expected) and str(got) == str(expected)
    names = ("atoms", "probs", "vecs", "spectra", "mean", "mean_spectrum", "mean_vecs")
    return (got.cap, got.alpha) == (expected.cap, expected.alpha) and all(
        getattr(got, name).tobytes() == getattr(expected, name).tobytes() for name in names
    )


@pytest.mark.parametrize("every", [2, 4])
def test_batched_sampling_under_failures_matches_each_request_alone(monkeypatch, every):
    # The Newton fallback fails unless the CRC of its input spectra is a
    # multiple of ``every``, the rule of the parallel tests' failing sampler.
    # Near alpha = 1 the rescale rounds stall, so the fallback runs; a request
    # whose solve fails retries with its stream's next subseed, or ends in
    # SamplerFailed after the last of three attempts. Each request of the 64
    # must get what it gets alone.
    solve = ensembles._solve_scale

    def flaky(vecs, lam, *args):
        return None if zlib.crc32(lam.tobytes()) % every else solve(vecs, lam, *args)

    monkeypatch.setattr(ensembles, "_solve_scale", flaky)
    monkeypatch.setattr(ensembles, "SAMPLER_ATTEMPTS", 3)
    shapes = [
        (1 + k % 4, 1 + k % 3, 0.5 + 0.25 * (k % 5), (0.9995, 0.999, 0.5, 0.9999)[k % 4])
        for k in range(64)
    ]
    batch = _sample([(*shape, stream(8, k)) for k, shape in enumerate(shapes)])
    retried = failed = 0
    for k, (shape, got) in enumerate(zip(shapes, batch)):
        rng, twin = stream(8, k), stream(8, k)
        (alone,) = _sample([(*shape, rng)])
        assert _same_result(got, alone), k
        subseed(twin)
        retried += not isinstance(alone, SamplerFailed) and rng.random() != twin.random()
        failed += isinstance(alone, SamplerFailed)
    assert retried and failed, (retried, failed)  # both paths are exercised


@pytest.mark.parametrize("defect, message", [
    ("nan", "^atom 2 has a non-finite entry$"),
    ("cap", "^atom . has norm .* above cap 0.6$"),
    ("mean", "^mean norm .* misses target .* by more than"),
])
def test_batch_member_check_reports_the_error_a_member_alone_raises(defect, message):
    # three zero-padded rows of one stack; row 1, the longest, is broken
    members = _attempt([(3, s, 1.2, 0.5, 60 + s) for s in (1, 3, 2)])
    probs, vecs, spectra, atoms, sizes = (a[:, 0] for a in ensembles._stack([[m] for m in members]))
    caps, alphas = [1.2] * 3, [0.5] * 3
    if defect == "nan":
        atoms[1, 2, 0, 1] = atoms[1, 2, 1, 0] = math.nan
    elif defect == "cap":
        caps[1] = 0.6
    else:
        alphas[1] = 0.4
    errors = ensembles._admit(atoms, probs, vecs, spectra, sizes.tolist(), caps, alphas)
    assert isinstance(errors[0], FiniteEnsemble) and isinstance(errors[2], FiniteEnsemble)
    row = (a[1:2] for a in (atoms, probs, vecs, spectra))
    (alone,) = ensembles._admit(*row, [3], caps[1:2], alphas[1:2])
    assert type(alone) is ConstraintViolated and re.search(message, str(alone))
    assert type(errors[1]) is ConstraintViolated and str(errors[1]) == str(alone)


# Extremal family ---------------------------------------------------------------

def test_extremal_family_shape_and_mean():
    params = BernoulliParams(caps=(1.0, 2.0), alphas=(0.25, 0.75))
    family = extremal_family(3, params)
    assert family.dim == 3
    assert family.params == params
    first = family.members[0]
    assert np.array_equal(first.atoms[0], np.eye(3))
    assert np.array_equal(first.atoms[1], np.zeros((3, 3)))
    assert first.probs.tolist() == [0.25, 0.75]


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
    member = FiniteEnsemble(atoms=(a.entries,), probs=(1.0,), cap=max(a.opnorm, 1e-9), alpha=1.0)
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
            total = np.linalg.matrix_power(a1 + a2, p)
            expected += q1 * q2 * np.trace(total)
    assert_close(exact_trace_moment(family, p), float(expected), rel=1e-13)


def test_exact_moment_matches_brute_force_across_chunks():
    # mixed support sizes whose product spans several enumeration chunks, so
    # a mismatch between outcome order, weights or chunk edges would show
    sizes = (6, 6, 5, 8, 7)
    members = _attempt([(2, s, 1.0 + 0.1 * k, 0.3 + 0.1 * k, 40 + k) for k, s in enumerate(sizes)])
    family = EnsembleFamily(members=tuple(members))
    assert math.prod(sizes) > 4 * ensembles._chunk_outcomes(2)
    for p in (1, 5, 12):
        terms = []
        for outcome in itertools.product(*(range(s) for s in sizes)):
            weight = 1.0
            total = np.zeros((2, 2))
            for m, i in zip(members, outcome):
                weight *= m.probs[i]
                total = total + m.atoms[i]
            terms.append(weight * float(np.trace(np.linalg.matrix_power(total, p))))
        assert_close(exact_trace_moment(family, p), math.fsum(terms), rel=1e-13)


def _mixed_family(n, sizes, seed):
    return EnsembleFamily(members=tuple(_attempt(
        [(n, s, 1.0 + 0.1 * k, 0.2 + 0.1 * k, seed + k) for k, s in enumerate(sizes)]
    )))


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
    stacks = [m.atoms for m in family.members]
    prob_arrays = [m.probs for m in family.members]
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
            entries[b, k, : member.support_size] = member.atoms
            probs[b, k, : member.support_size] = member.probs
    stacked = ensembles._stack([f.members for f in families])
    assert stacked[0].tobytes() == probs.tobytes()
    assert stacked[3].tobytes() == entries.tobytes()
    for p in (1, 2, 7, 30):
        got = ensembles._stacked_moments(entries, probs, np.array(shapes), [p] * len(shapes))
        assert got == [exact_trace_moment(family, p) for family in families], (n, p)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_stacked_moments_of_mixed_powers_match_each_power_alone(monkeypatch, n):
    # one batch in which each family takes its own power: at n = 1 every
    # family fits one chunk, which makes one kernel call per distinct power;
    # at n = 8 the 6 x 5 x 6 support is enumerated alone, at its own power
    shapes = [(1, 1, 1), (3, 2, 1), (2, 1, 3), (3, 1, 2), (2, 3, 3), (6, 5, 6), (1, 2, 2)]
    powers = [7, 1, 30, 7, 2, 29, 1]
    families = [_mixed_family(n, sizes, seed=500 + 10 * n + i) for i, sizes in enumerate(shapes)]
    probs, entries, sizes = ensembles._stack([f.members for f in families], ("probs", "atoms"))
    kernel, calls = ensembles.batched_trace_power, []
    monkeypatch.setattr(
        ensembles, "batched_trace_power", lambda stack, p: calls.append(p) or kernel(stack, p)
    )
    got = ensembles._stacked_moments(entries, probs, sizes, powers)
    if n == 1:
        assert sorted(calls) == sorted(set(powers))
    for b, (family, p) in enumerate(zip(families, powers)):
        alone = ensembles._stacked_moments(entries, probs, sizes, [p] * len(shapes))[b]
        assert got[b] == alone == exact_trace_moment(family, p), (n, b, p)


@pytest.mark.parametrize("longest", [0, 2, 5])
def test_stack_pads_with_exact_zeros(longest):
    # sampled members next to the surrogate's atoms, padded to the longest
    # support; a fourth family leads with ``longest`` atoms (none when 0)
    families = [_mixed_family(3, sizes, seed=410 + i) for i, sizes in enumerate([(1, 3), (2, 1)])]
    members = [f.members for f in families]
    members.append([ensembles.bernoulli_member(3, 1.5, 0.25), members[0][1]])
    expected = [[1, 3], [2, 1], [2, 3]]
    if longest:
        members.append(_mixed_family(3, (longest, 1), seed=420).members)
        expected.append([longest, 1])
    probs, vecs, spectra, entries, sizes = ensembles._stack(members)
    assert sizes.tolist() == expected
    assert probs.shape == (len(expected), 2, max(longest, 3))
    assert spectra.shape == probs.shape + (3,)
    assert vecs.shape == entries.shape == probs.shape + (3, 3)
    for b, family in enumerate(members):
        for k, member in enumerate(family):
            s = member.support_size
            assert probs[b, k, :s].tobytes() == member.probs.tobytes()
            assert entries[b, k, :s].tobytes() == member.atoms.tobytes()
            assert vecs[b, k, :s].tobytes() == member.vecs.tobytes()
            assert spectra[b, k, :s].tobytes() == member.spectra.tobytes()
            # padding is +0.0 bit for bit
            for array in (probs, vecs, spectra, entries):
                assert not array[b, k, s:].view(np.uint64).any()


def test_sampled_mean_is_the_recomputed_mean_bit_for_bit():
    # 60 ensembles of mixed shapes, sampled as one batch
    rng = stream(620)
    rows = []
    for _ in range(60):
        n, s = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        alpha = float(rng.choice([0.2, 0.5, 0.9, 0.999]))
        rows.append((n, s, 1.3, alpha, int(rng.integers(2**31))))
    for member in _attempt(rows):
        recomputed = SymMatrix(ensembles._stacked_means(member.probs[None], member.atoms[None])[0])
        assert np.array_equal(member.mean, recomputed.entries)
        assert member.mean.tobytes() == recomputed.entries.tobytes()
        assert np.array_equal(member.mean_spectrum, recomputed.eig.eigenvalues)
        assert member.mean_norm == recomputed.opnorm


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_bernoulli_mean_is_the_recomputed_mean_bit_for_bit(n):
    for cap, alpha in [(1.0, 0.5), (1.7, 0.0), (0.3, 1.0), (2.5, 0.123456789)]:
        member = ensembles.bernoulli_member(n, cap, alpha)
        recomputed = ensembles._stacked_means(member.probs[None], member.atoms[None])[0]
        assert member.mean.tobytes() == recomputed.tobytes()
        assert member.mean_norm == alpha * cap


@pytest.mark.parametrize("cap", [math.inf, math.nan])
def test_bernoulli_member_checks_the_cap_before_building_atoms(cap):
    # under the suite's RuntimeWarning-as-error filter, multiplying the
    # identity's zeros by the cap would fail before any cap check
    with pytest.raises(ConstraintViolated, match="positive and finite"):
        ensembles.bernoulli_member(2, cap, 0.5)


def test_exact_moment_budget():
    (member,) = _attempt([(2, 2, 1.0, 0.5, 5)])
    family = EnsembleFamily(members=(member,) * 21)
    with pytest.raises(BudgetExceeded):
        exact_trace_moment(family, 2)
    with pytest.raises(BudgetExceeded):
        exact_trace_moment(EnsembleFamily(members=(member,)), 31)


# Serialization -------------------------------------------------------------------

def test_json_round_trip_is_bitwise():
    (member,) = _attempt([(3, 2, 1.3, 0.6, 21)])
    family = EnsembleFamily(members=(member,))
    doc = family_to_json(family)
    text = json.dumps(doc, sort_keys=True)
    back = family_from_json(json.loads(text))
    assert back.dim == family.dim
    for orig, copy in zip(family.members, back.members):
        assert orig.probs.tobytes() == copy.probs.tobytes()
        assert orig.cap == copy.cap
        assert orig.alpha == copy.alpha
        assert orig.atoms.tobytes() == copy.atoms.tobytes()


def test_json_schema_shape():
    family = extremal_family(2, BernoulliParams(caps=(1.5,), alphas=(0.5,)))
    doc = family_to_json(family)
    assert doc["dim"] == 2
    member = doc["members"][0]
    assert member["L_cap"] == 1.5
    assert member["alpha_target"] == 0.5
    assert member["atoms"][0] == [1.5, 0.0, 0.0, 1.5]
    assert member["probs"] == [0.5, 0.5]
