"""Seed fan-out. One 64-bit root seed derives independent, stable streams.

The generator algorithm is fixed to PCG64, so that traces replay across
versions and machines.
"""

from __future__ import annotations

import numpy as np


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """Derive a generator from a root seed plus a stable integer key path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))
