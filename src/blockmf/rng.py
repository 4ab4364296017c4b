"""Deterministic RNG substreams.

Philox is counter-based, so `substream(seed, k)` is a pure function of
(seed, k): a stream gives the same numbers whatever ran before it.

The CLI keys every stream by its seed path and ends the key with a
purpose word:
- `chaos`: (seed, N index, CHAOS), one stream per N. All replicas of
  that N run as one count farm in the calling process and draw from it
  in lock-step, so a replica's draws depend on the replica count.
- `multichaos`: (seed, N index, MULTICHAOS), likewise.
- `oracle-check`: (seed, 0, replica, ORACLE_CHECK), one stream per
  per-node run.
- `simulate`: (seed, 0, 0, SIMULATE).
`SeedSequence` pads keys with zeros, so (s,), (s, 0) and (s, 0, 0, 0)
are one stream. Padded to four words, the farms' keys end in 0 and
differ from each other in the third word; oracle-check's and simulate's
end in their own nonzero words. No two purposes share a stream.

`substream` builds its stream through `np.random.SeedSequence`, and that
is the reference. A Philox stream is fixed by its 128-bit key (Salmon
et al., SC 2011), so a caller with many streams to run one after
another need not build a `SeedSequence`, a `Philox` and a `Generator`
for each: `substream_keys` returns the keys of many paths in one
vectorised pass, and `at_key` resets one generator to the start of a
key's stream. `oracle-check` replays its replicas' streams that way.
"""

import numpy as np

__all__ = ["substream", "substream_keys", "at_key", "BatchedDraws", "CHAOS",
           "MULTICHAOS", "ORACLE_CHECK", "SIMULATE"]

CHAOS, MULTICHAOS, ORACLE_CHECK, SIMULATE = range(4)  # purpose words


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (master_seed, *path)."""
    ss = np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in uint32 words


def _int_words(n: int) -> list:
    """The uint32 words SeedSequence makes of a non-negative int, low
    word first; 0 is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _keys_of_words(words: list) -> np.ndarray:
    """Philox keys from the entropy words of each path: words[i] is the
    uint32 array of word i over the paths. SeedSequence's pool mixing,
    then generate_state(2, np.uint64), with uint32 arrays wrapping as its
    uint32 arithmetic does; the hash constants follow one fixed sequence,
    so they stay Python ints."""
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ hc
        hc = (hc * _MULT_A) & _MASK32
        v = v * np.uint32(hc)
        return v ^ (v >> 16)

    def mix(x, y):
        v = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return v ^ (v >> 16)

    zero = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    hc = _INIT_B
    state = []
    for v in pool:  # four uint32 words make the two uint64 key words
        v = v ^ hc
        hc = (hc * _MULT_B) & _MASK32
        v = v * np.uint32(hc)
        state.append((v ^ (v >> 16)).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


def substream_keys(master_seed: int, *path) -> np.ndarray:
    """Philox keys of `substream(master_seed, *path)` for many paths.

    Each path entry is an int or a 1-D array of ints in [0, 2**64); the
    entries broadcast to R paths. Returns the keys, shape (R, 2) uint64:
    key k is `substream(master_seed, *path_k).bit_generator.state
    ["state"]["key"]`.
    """
    seed_words = _int_words(int(master_seed))
    cols = [np.atleast_1d(np.asarray(p)) for p in path]
    if any(c.dtype.kind not in "iu" or c.ndim != 1 for c in cols):
        raise ValueError("path entries must be ints or 1-D int arrays")
    if any(c.size and c.min() < 0 for c in cols):
        raise ValueError("expected non-negative integer")
    cols = np.broadcast_arrays(*(c.astype(np.uint64) for c in cols))
    R = cols[0].size if cols else 1
    lo = [(c & np.uint64(_MASK32)).astype(np.uint32) for c in cols]
    hi = [(c >> np.uint64(32)).astype(np.uint32) for c in cols]
    # an entry of 2**32 or more is two words, so the paths fall into
    # groups by which of their entries are
    two = np.zeros(R, dtype=np.int64)
    for i, h in enumerate(hi):
        two |= (h != 0).astype(np.int64) << i
    keys = np.empty((R, 2), dtype=np.uint64)
    for pattern in np.unique(two):
        rows = np.flatnonzero(two == pattern)
        words = [np.full(rows.size, w, dtype=np.uint32) for w in seed_words]
        for i in range(len(cols)):
            words.append(lo[i][rows])
            if pattern >> i & 1:
                words.append(hi[i][rows])
        keys[rows] = _keys_of_words(words)
    return keys


_EMPTY = np.zeros(4, dtype=np.uint64)


def at_key(gen: np.random.Generator, key) -> np.random.Generator:
    """Reset the Philox generator `gen` to the start of the stream with
    key `key` (a row of `substream_keys`) and return it: counter 0, an
    empty buffer and no cached 32-bit half, as a fresh Philox has."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _EMPTY, "key": key},
        "buffer": _EMPTY, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return gen


class BatchedDraws:
    """Sequential uniform/exponential draws pulled from numpy in blocks.

    Consuming one number at a time through numpy costs ~1us of call
    overhead; event loops need millions. Each of the two streams is
    refilled lazily in blocks of FIRST, 2*FIRST, 4*FIRST, ... numbers,
    capped at BLOCK (32, 64, ..., 4096, 8192, 8192, ...), so a run of a
    few events pulls a few dozen numbers and a long run pays the call
    overhead once per BLOCK. The refills happen in the order of the
    calls, so the consumed sequence is a pure function of the generator
    state and that order: reruns with the same seed are bit-identical.
    `drawn` counts the numbers pulled from the generator so far.
    """

    FIRST = 32
    BLOCK = 8192

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._uni = ()
        self._exp = ()
        self._iu = 0
        self._ie = 0
        self._nu = self._ne = self.FIRST  # size of each stream's next block
        self.drawn = 0

    def uniform(self) -> float:
        i = self._iu
        if i >= len(self._uni):
            n = self._nu
            self._uni = self._gen.random(n).tolist()
            self._nu = min(2 * n, self.BLOCK)
            self.drawn += n
            i = 0
        self._iu = i + 1
        return self._uni[i]

    def exponential(self) -> float:
        i = self._ie
        if i >= len(self._exp):
            n = self._ne
            self._exp = self._gen.standard_exponential(n).tolist()
            self._ne = min(2 * n, self.BLOCK)
            self.drawn += n
            i = 0
        self._ie = i + 1
        return self._exp[i]
