"""Stream derivation: reproducible, key-addressed, and collision-free."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import seeds
from tracemax import rng as rng_module
from tracemax import stream, subseed
from tracemax.rng import streams


def test_same_seed_same_sequence():
    a = stream(42).random(8)
    b = stream(42).random(8)
    assert np.array_equal(a, b)


def test_pinned_draws():
    # pins the generator family itself: a silent swap of the bit generator
    # or seeding scheme would change every derived quantity in the package
    rng = stream(0)
    assert rng.bit_generator.__class__.__name__ == "Philox"
    # first draws recorded from the SeedSequence-seeded Philox streams
    assert int(stream(0).integers(0, 2**63)) == 129745503399974868
    assert int(stream(12345, 3, 4).integers(0, 2**63)) == 3633297258754216863
    assert int(stream(2**63 - 1).integers(0, 2**63)) == 485724206518632717


@given(seeds)
def test_key_refinement_changes_the_stream(seed):
    root = stream(seed).random(4)
    child = stream(seed, 0).random(4)
    sibling = stream(seed, 1).random(4)
    assert not np.array_equal(root, child)
    assert not np.array_equal(child, sibling)


@given(seeds)
def test_key_depth_matters(seed):
    flat = stream(seed, 1, 2).random(4)
    nested = stream(seed, 1, 2, 0).random(4)
    assert not np.array_equal(flat, nested)


def test_streams_with_distinct_seeds_disagree():
    draws = {tuple(stream(s).random(4).tolist()) for s in range(64)}
    assert len(draws) == 64


@given(seeds)
def test_subseed_range_and_determinism(seed):
    a = subseed(stream(seed, 7))
    b = subseed(stream(seed, 7))
    assert a == b
    assert 0 <= a < 2**63


def test_subseed_advances_the_stream():
    rng = stream(3)
    assert subseed(rng) != subseed(rng)


# Batch derivation ---------------------------------------------------------
# streams() derives keys without SeedSequence; numpy's own SeedSequence, which
# shares no code with it, is the reference.

_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**96 + 5]
_ENTRIES = [0, 2**32 - 1, 2**32, 2**70 + 3]
_KEYS = [(), *((a,) for a in _ENTRIES), (0, 2**32), (2**32 - 1, 7, 2**40), (5, 0, 2**32 - 1)]


def _reference(seed: int, key: tuple) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _assert_matches(batch: list[tuple]) -> None:
    generators = list(streams(batch))
    assert len(generators) == len(batch)
    for (seed, *key), rng in zip(batch, generators):
        expected = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
        state = rng.bit_generator.state
        assert state["bit_generator"] == "Philox"
        assert np.array_equal(state["state"]["key"], expected.generate_state(2, np.uint64))
        reference = _reference(seed, tuple(key))
        assert rng.random() == reference.random()
        assert rng.integers(0, 2**63) == reference.integers(0, 2**63)
        assert rng.normal() == reference.normal()
        assert np.array_equal(rng.dirichlet(np.ones(3)), reference.dirichlet(np.ones(3)))


def test_batch_keys_match_seed_sequence_across_entropy_lengths():
    # one batch mixing entropy lengths from 1 word (seed 0, no key) to 9
    # (a 4-word seed and a 3-entry key with a 3-word entry)
    batch = [(seed, *key) for seed in _SEEDS for key in _KEYS]
    assert len(batch) >= rng_module._BATCH_MIN
    _assert_matches(batch)


@pytest.mark.parametrize("size", [1, rng_module._BATCH_MIN - 1, rng_module._BATCH_MIN, 40])
def test_batch_keys_match_on_both_sides_of_the_break_even(size):
    batch = [(_SEEDS[i % len(_SEEDS)], *_KEYS[i % len(_KEYS)]) for i in range(size)]
    _assert_matches(batch)


@given(st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**130),
        st.lists(st.sampled_from(_ENTRIES) | st.integers(0, 2**66), max_size=3),
    ),
    min_size=rng_module._BATCH_MIN, max_size=3 * rng_module._BATCH_MIN,
))
def test_batch_keys_match_seed_sequence_for_any_seed(pairs):
    _assert_matches([(seed, *key) for seed, key in pairs])


def test_batch_of_the_sweep_shape_equals_one_stream_each():
    batch = [(2**63 - 1, t, 4) for t in range(64)]
    for k, rng in zip(batch, streams(batch)):
        assert np.array_equal(rng.random(5), stream(*k).random(5))


def test_empty_batch():
    assert list(streams([])) == []


@pytest.mark.parametrize("size", [1, rng_module._BATCH_MIN])
def test_batch_rejects_a_negative_seed_naming_it(size):
    batch = [(3, 1)] * (size - 1) + [(-1, 2)]
    with pytest.raises(ValueError, match=r"seed -1, key \(2,\)"):
        streams(batch)
    with pytest.raises(ValueError, match=r"seed 3, key \(-4,\)"):
        streams([(3, 1)] * (size - 1) + [(3, -4)])


def test_a_batch_at_the_break_even_builds_no_seed_sequence(monkeypatch):
    expected = [stream(9, t).random() for t in range(rng_module._BATCH_MIN)]
    seed_sequence = np.random.SeedSequence

    def refuse(*args, **kwargs):
        raise AssertionError("SeedSequence built for a batch")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    generators = list(streams([(9, t) for t in range(rng_module._BATCH_MIN)]))
    assert [rng.random() for rng in generators] == expected
    # nor inside Philox, which seeds one of its own unless handed a seed sequence
    assert not any(isinstance(rng.bit_generator.seed_seq, seed_sequence) for rng in generators)
