"""Per-run random streams of the Monte-Carlo harness.

Run ``j`` of a sweep with seed ``seed`` draws its environment from four
streams, ``default_rng(SeedSequence(seed, spawn_key=(j, 0, i)))`` for
``i < 4`` (coverage, cellular rates, Wi-Fi rates and start location, as
``sim.sample_instance`` reads them), and its trajectory from the stream
keyed ``(j, 1)``.  Building those five numpy generators one
``SeedSequence`` at a time costs most of a heuristic run.  numpy hashes the
seed into its pool once per block of runs; from that pool ``seed_states``
absorbs every run's key words and reads out the five PCG64 states of a
whole block in one vectorized pass of numpy's hash, and ``run_streams``
hands them to PCG64 through a seed sequence that only carries them.  The
streams are numpy's, bit for bit; ``tests/test_sim.py`` checks them
against ``SeedSequence``.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash on uint32 words (pool size 4): entropy is mixed
# into the pool with the A constants and the state read out with the B ones.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list:
    """The uint32 words numpy reads from a non-negative int, least
    significant first ([0] for 0)."""
    if n < 0:
        raise ValueError(f"seeds and run indices must be >= 0, got {n!r}")
    return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _consts(start: int, n: int, init: int = _INIT_A, mult: int = _MULT_A) -> np.ndarray:
    """Constants ``start`` to ``start + n`` of one of numpy's hash-constant
    sequences, as uint32: hash steps ``start`` to ``start + n - 1`` read
    ``c[:-1]`` and ``c[1:]``."""
    ks = range(start, start + n + 1)
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in ks], np.uint32)


def _hash(value, c, c_next):
    """numpy's ``hashmix`` step on uint32 arrays: xor with one hash
    constant, multiply by the next."""
    value = (value ^ c) * c_next & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def _absorb(pool: np.ndarray, words: np.ndarray, call: int) -> np.ndarray:
    """Mix entropy words past the pool size into every pool word (the last
    axis), as ``SeedSequence.mix_entropy`` does with its hashmix calls
    ``call`` to ``call + 3``; ``words`` broadcasts against the other axes."""
    c = _consts(call, _POOL)
    return _mix(pool, _hash(words[..., None], c[:-1], c[1:]))


def _run_key_states(pool: np.ndarray, call: int, run_words: np.ndarray) -> np.ndarray:
    """States for runs whose indices have the words ``run_words`` (one row
    per word): the keys (j, 0, i) for i < 4 and (j, 1) extend a shared
    prefix, so each word is hashed once."""
    for w in run_words:
        pool = _absorb(pool, w, call)
        call += _POOL
    ends = _absorb(pool[:, None], np.arange(2, dtype=np.uint32), call)  # (j, 0) and (j, 1)
    children = _absorb(ends[:, :1], np.arange(4, dtype=np.uint32), call + _POOL)
    pool = np.concatenate((children, ends[:, 1:]), axis=1)
    # generate_state(4, np.uint64): eight words cycling over the pool, read
    # in pairs as little-endian uint64
    c = _consts(0, 2 * _POOL, _INIT_B, _MULT_B)
    state = _hash(np.tile(pool, 2), c[:-1], c[1:])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def seed_states(seed: int, run_indices) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)`` for
    every stream key of the runs ``run_indices``, in one vectorized pass of
    numpy's hash.  Shape (runs, 5, 4); per run the keys are (j, 0, 0) to
    (j, 0, 3) and (j, 1), in that order."""
    # numpy's pool of the seed alone is its pool before a spawn key's words,
    # after 16 hashmix calls and 4 more per seed word past the pool size
    call = _POOL * max(len(_words(seed)), _POOL)
    pool = SeedSequence(seed).pool
    words = [_words(j) for j in run_indices]
    out = np.empty((len(words), 5, 4), np.uint64)
    # a run index of more words shifts the hash steps of its key's tail
    for width in set(map(len, words)):
        rows = [r for r, w in enumerate(words) if len(w) == width]
        run_words = np.array([words[r] for r in rows], np.uint32).T
        out[rows] = _run_key_states(pool, call, run_words)
    return out


class StreamSeed(ISeedSequence):
    """A seed sequence holding a precomputed PCG64 state."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the 4-word uint64 state of PCG64 is precomputed")
        return self.state


def run_streams(seed: int, run_indices):
    """Per run, in order, its four instance generators and its trajectory
    generator: the streams of ``default_rng(SeedSequence(seed, spawn_key=
    key))`` for the keys ``(j, 0, i)``, ``i < 4``, and ``(j, 1)``, built
    from one ``seed_states`` pass."""
    for s in seed_states(seed, run_indices):
        yield [Generator(PCG64(StreamSeed(x))) for x in s[:4]], Generator(PCG64(StreamSeed(s[4])))
