"""Seeded randomness: named sub-streams derived from one master seed.

Every stochastic component (MVC initialisation, cascade trials, random
removal draws, sampled-pivot selection) pulls from its own named stream,
so adding or removing one component never perturbs another's draws.
Cascade trials additionally get counter-based streams keyed by (stream
seed, lane), one for each lane of 64 trials, which makes results
independent of trial count and scheduling order.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(master: int, name: str) -> int:
    """Stable 64-bit sub-seed for a named stream under one master seed."""
    key = (int(master) & _MASK64).to_bytes(8, "little")
    digest = hashlib.blake2b(name.encode("utf-8"), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(seed: int) -> np.random.Generator:
    """Counter-based generator keyed directly by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def substream(master: int, name: str) -> np.random.Generator:
    """Generator for the named sub-stream of a master seed."""
    return stream(derive_seed(master, name))


def trial_stream(stream_seed: int, trial: int) -> np.random.Generator:
    """Counter-based generator for one lane of 64 Monte Carlo trials.

    Keyed by (stream seed, lane), the lane passed as ``trial``: lane i
    serves trials 64*i to 64*i + 63 and draws the same numbers whether
    lanes run sequentially, in any order, or in parallel.
    """
    key = np.array([int(stream_seed) & _MASK64, int(trial) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
