"""Seeded random number streams.

Every randomized API in this package takes an explicit integer seed and maps
it to a Philox counter-based 64-bit generator, so sequences are reproducible
across platforms and independent of execution order. Sub-streams are derived
with SeedSequence spawn keys, never by drawing seeds from a parent stream's
output. streams() derives many at once, bit for bit SeedSequence's.
numpy.random, with its secrets/OpenSSL chain, loads on a first stream.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .linalg import _groups

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL, _MASK = 4, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Below this many streams, one SeedSequence each (16.5 us) is cheaper than
# the array pass, about 150 us at one stream (2-vCPU VM, numpy 2.4).
_BATCH_MIN = 16


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for ``seed`` refined by a spawn key.

    ``stream(s)`` is the root stream for seed ``s``; ``stream(s, a, b)`` is
    the independent child addressed by ``(a, b)``.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def subseed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit integer seed from an existing stream."""
    return int(rng.integers(0, 2**63))


def streams(keys: Sequence[tuple[int, ...]]) -> Iterator[np.random.Generator]:
    """stream(*k) for each seed-and-key k, bit for bit, each generator made
    as it is reached; a negative entry raises ValueError naming it. From
    _BATCH_MIN keys on, the SeedSequence entropies (uint32 words, least
    significant first, the seed's padded to _POOL) are hashed as rows of
    one array per entropy length."""
    if min(map(min, keys), default=0) < 0:
        seed, *key = next(k for k in keys if min(k) < 0)
        raise ValueError(f"stream seed and key must be >= 0, got seed {seed}, key {tuple(key)}")
    if len(keys) < _BATCH_MIN:
        return (stream(*k) for k in keys)
    words = {  # of each distinct integer
        n: [n] if n <= _MASK else [n >> at & _MASK for at in range(0, n.bit_length(), 32)]
        for n in set().union(*keys)
    }
    heads = {s: words[s] + [0] * (_POOL - len(words[s])) for s in {k[0] for k in keys}}
    rows = [heads[k[0]] + sum(map(words.__getitem__, k[1:]), []) for k in keys]
    states = np.empty((len(rows), 2), dtype=np.uint64)
    for idx in _groups(map(len, rows)).values():  # the rows of each entropy length
        states[idx] = _philox_keys(np.array([rows[b] for b in idx], dtype=np.uint32))
    from numpy.random import Generator, Philox

    key = _key_type()
    return (Generator(Philox(key(state))) for state in states)


@cache
def _key_type() -> type:
    """An ISeedSequence handing Philox a derived key, as generate_state(2,
    np.uint64); built on first use. A generator it keys does not pickle."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words: int, dtype=None) -> np.ndarray:
            return self.state

    return Key


def _philox_keys(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's generate_state(2, np.uint64) for each row of a (B, L)
    uint32 entropy array, L >= _POOL: its mix_entropy on all rows at once,
    one pool word per column, with uint32 arithmetic wrapping as in C. Hash
    call k xors constant k of init * mult**k and multiplies by constant k + 1."""
    def hashmix(value: np.ndarray, consts: list[int]) -> np.ndarray:
        value = (value ^ np.array(consts[:-1], np.uint32)) * np.array(consts[1:], np.uint32)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = x * _MIX_L - y * _MIX_R
        return value ^ (value >> 16)

    calls = range(_POOL * entropy.shape[1])  # hash calls: 4 + 12 + 4 per word past the pool
    consts = list(accumulate(calls, lambda c, _: c * _MULT_A & _MASK, initial=_INIT_A))
    pool = hashmix(entropy[:, :_POOL], consts[: _POOL + 1])
    for src in range(_POOL):
        dst, at = [d for d in range(_POOL) if d != src], _POOL + 3 * src
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, [src]], consts[at : at + _POOL]))
    for src in range(_POOL, entropy.shape[1]):
        pool = mix(pool, hashmix(entropy[:, [src]], consts[_POOL * src : _POOL * src + 5]))
    out = list(accumulate(range(_POOL), lambda c, _: c * _MULT_B & _MASK, initial=_INIT_B))
    # word pairs read as little-endian uint64, as SeedSequence reads them
    return hashmix(pool, out).astype("<u4").view("<u8").astype(np.uint64)
