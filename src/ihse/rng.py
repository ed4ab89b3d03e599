"""Deterministic random streams built on counter-based Philox generators.

Streams are keyed by (seed, block index) with a fixed block size, so batches
may be evaluated serially or in parallel, in any order, with identical
results.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import dot_floats, squared_norms

BLOCK_SIZE = 4096


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """Independent generator for one block of a seeded stream.  The seed and
    the block index are the two 64-bit words of the Philox key, so each must
    lie in [0, 2**64); numpy raises OverflowError for any other, so no two
    seeds share a stream."""
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_generator(seed: int, sample_index: int) -> np.random.Generator:
    """Independent generator for a single indexed sample."""
    return block_generator(seed, sample_index)


def blocks(n_samples: int):
    """Yield (block_index, count) covering n_samples in blocks of BLOCK_SIZE."""
    full, rest = divmod(n_samples, BLOCK_SIZE)
    for b in range(full):
        yield b, BLOCK_SIZE
    if rest:
        yield full, rest


def uniform_ball(
    gen: np.random.Generator, count: int, dim: int, radius: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Uniform draws from the dim-dimensional ball of the given radius,
    shape (count, dim).  Given out, a C-contiguous (count, dim) float array,
    the draws are written into it and it is returned, with the same bits."""
    x = gen.standard_normal((count, dim)) if out is None else gen.standard_normal(out=out)
    norms = np.sqrt(squared_norms(x))  # numpy's own sum order, also from 8 terms up
    norms[norms == 0.0] = 1.0
    r = radius * gen.random(count) ** (1.0 / dim)
    x *= (r / norms)[:, None]
    return x


def unit_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Single uniform draw from the unit sphere."""
    return np.array(unit_floats(gen, dim))


def unit_floats(gen: np.random.Generator, dim: int) -> list:
    """unit_vector's draw as a list of Python floats."""
    while True:
        x = gen.standard_normal(dim).tolist()
        n = math.sqrt(dot_floats(x, x))
        if n > 1e-12:
            return [c / n for c in x]
