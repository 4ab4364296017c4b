"""Deterministic RNG substreams.

Philox is counter-based, so `substream(seed, k)` is a pure function of
(seed, k): a stream gives the same numbers whatever ran before it.

The CLI keys every stream by its seed path and ends the key with a
purpose word:
- `chaos`: (seed, N index, CHAOS), one stream per N: the CLI hands
  `lln_experiment` the seed path (seed, N index) for each N's graph,
  and the experiment appends the word. The replicas of every N run in
  one count farm in the calling process, one lock-step loop for all N;
  each N's replicas draw from its own stream in lock-step, and that N
  draws nothing once its last replica stops, so the stream is read as
  in a farm of that N alone. A replica's draws depend on the replica
  count, not on the other N.
- `multichaos`: (seed, N index, MULTICHAOS), likewise.
- `oracle-check`: (seed, 0, 0, ORACLE_CHECK), the one stream of its
  count farm, likewise.
- `simulate`: (seed, 0, 0, SIMULATE), the one stream of its initial
  colours, its count farm of one replica and its node picks.
`SeedSequence` pads keys with zeros, so (s,), (s, 0) and (s, 0, 0, 0)
are one stream. Padded to four words, the farms' keys of `chaos` and
`multichaos` end in 0 and differ from each other in the third word;
oracle-check's and simulate's end in their own nonzero words. No two
purposes share a stream.

`numpy.random` loads at the first `substream` call, not at import: the
limit subcommands draw nothing and never pay for it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .rates import _integer, _quoted

__all__ = ["substream", "CHAOS", "MULTICHAOS", "ORACLE_CHECK", "SIMULATE"]

CHAOS, MULTICHAOS, ORACLE_CHECK, SIMULATE = range(4)  # purpose words


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (master_seed, *path),
    words that are integers >= 0."""
    words = [_integer(w, "seed word") for w in (master_seed, *path)]
    if min(words) < 0:
        raise InvalidArgumentError(
            f"seed words must be >= 0, got {_quoted(words)}")
    ss = np.random.SeedSequence(words)
    return np.random.Generator(np.random.Philox(ss))
