"""Deterministic RNG substreams.

Philox is counter-based, so `substream(seed, k)` is a pure function of
(seed, k): a stream gives the same numbers whatever ran before it.

The CLI keys every stream by its seed path and ends the key with a
purpose word:
- `chaos`: (seed, N index, CHAOS), one stream per N. All replicas of
  that N run as one count farm in the calling process and draw from it
  in lock-step, so a replica's draws depend on the replica count.
- `multichaos`: (seed, N index, MULTICHAOS), likewise.
- `oracle-check`: (seed, 0, 0, ORACLE_CHECK), the one stream of its
  count farm, likewise.
- `simulate`: (seed, 0, 0, SIMULATE).
`SeedSequence` pads keys with zeros, so (s,), (s, 0) and (s, 0, 0, 0)
are one stream. Padded to four words, the farms' keys of `chaos` and
`multichaos` end in 0 and differ from each other in the third word;
oracle-check's and simulate's end in their own nonzero words. No two
purposes share a stream.
"""

import numpy as np

__all__ = ["substream", "BatchedDraws", "CHAOS", "MULTICHAOS",
           "ORACLE_CHECK", "SIMULATE"]

CHAOS, MULTICHAOS, ORACLE_CHECK, SIMULATE = range(4)  # purpose words


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (master_seed, *path)."""
    ss = np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(ss))


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
