"""Counter-based random streams.

Every stochastic routine in the toolkit draws from a Philox generator keyed
by the master seed with the stream path placed in the counter words.  A trial
therefore produces bit-identical numbers no matter how trials are batched or
parallelised.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (master_seed, path).

    master_seed is an integer in [0, 2^64), the Philox key; one outside is
    rejected, not reduced, so no two seeds give one stream.  path entries are
    arbitrary nonnegative integers (cell index, trial index, draw purpose,
    ...); at most three are supported.
    """
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {master_seed}")
    if len(path) > 3:
        raise ValueError("stream path supports at most three levels")
    counter = [0, 0, 0, 0]
    for i, p in enumerate(path):
        counter[i + 1] = int(p) & _MASK64
    bitgen = np.random.Philox(key=int(master_seed), counter=counter)
    return np.random.Generator(bitgen)
