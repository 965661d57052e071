"""Seeded randomness helpers.

Every random draw in the package flows from an explicit 64-bit seed through
Philox, a counter-based generator, so results are reproducible across
platforms and runs.
"""

from __future__ import annotations

import numpy as np


_MASK64 = (1 << 64) - 1


def generator(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for (seed, tags).

    Tags separate the streams drawn for one seed (e.g. per-iteration
    candidate draws) without consuming state from one another. They do not
    separate streams across seeds: SeedSequence joins (seed, *tags) as
    32-bit words and pads them with zero words, so a trailing 0 tag is no
    tag (generator(5, 0) draws what generator(5) draws), and
    generator(3, 0xF01D) draws what generator(3 | 0xF01D << 32) draws.
    Negative seeds map to their unsigned 64-bit representation.
    """
    entropy = tuple(int(v) & _MASK64 for v in (seed,) + tags)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def kfold_indices(n: int, folds: int, seed: int) -> np.ndarray:
    """Fold id per sample index, a pure function of (n, folds, seed)."""
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise ValueError(f"cannot split {n} samples into {folds} folds")
    perm = generator(seed, 0xF01D).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.arange(n) % folds
    return fold_of
