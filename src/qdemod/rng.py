"""Counter-based random streams.

Every stochastic routine in the toolkit draws from a Philox generator keyed
by the master seed with the stream path placed in the counter words.  A trial
therefore produces bit-identical numbers no matter how trials are batched or
parallelised.  stream is numpy's Generator on such a Philox; the compiled
library's normals (_tracker.c) makes the same generator's standard normal
draws, bit for bit, from the counter words that counter checks and returns.
"""

from __future__ import annotations

import numpy as np


def counter(master_seed: int, *path: int) -> list:
    """The four Philox counter words of the stream (master_seed, path):
    zero, then the path, then zeros.

    master_seed is an integer in [0, 2^64), the Philox key.  path holds at
    most three integers in [0, 2^63) (trial index, draw purpose, ...), the
    range of the per-trial table's int64 trial column.  A value outside is
    rejected, not reduced, so no two seeds or paths give one stream.
    """
    if not 0 <= master_seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {master_seed}")
    if len(path) > 3:
        raise ValueError("stream path supports at most three levels")
    words = [0, 0, 0, 0]
    for i, p in enumerate(path):
        if not 0 <= p < 1 << 63:
            raise ValueError(f"stream path entry must be in [0, 2**63), got {p}")
        words[i + 1] = int(p)
    return words


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (master_seed, path), whose
    ranges counter checks."""
    bitgen = np.random.Philox(key=int(master_seed), counter=counter(master_seed, *path))
    return np.random.Generator(bitgen)
