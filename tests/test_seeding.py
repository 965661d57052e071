import numpy as np
import pytest

from hwcost import bayesopt, synth
from hwcost.seeding import generator, kfold_indices


def test_generator_deterministic_per_seed_and_tag():
    a = generator(7, 1).uniform(size=5)
    b = generator(7, 1).uniform(size=5)
    assert np.array_equal(a, b)
    c = generator(7, 2).uniform(size=5)
    assert not np.array_equal(a, c)
    d = generator(8, 1).uniform(size=5)
    assert not np.array_equal(a, d)


def test_negative_seed_accepted():
    a = generator(-3).uniform(size=3)
    b = generator(-3).uniform(size=3)
    assert np.array_equal(a, b)


def test_kfold_partition_properties():
    fold_of = kfold_indices(23, 5, seed=11)
    assert len(fold_of) == 23
    counts = np.bincount(fold_of, minlength=5)
    assert counts.max() - counts.min() <= 1
    assert np.array_equal(fold_of, kfold_indices(23, 5, seed=11))
    assert not np.array_equal(fold_of, kfold_indices(23, 5, seed=12))


def test_kfold_validation():
    with pytest.raises(ValueError):
        kfold_indices(5, 1, seed=0)
    with pytest.raises(ValueError):
        kfold_indices(3, 5, seed=0)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 32 + 7, -1])
def test_the_package_streams_of_one_seed_differ_pairwise(seed):
    """Tags separate streams within one seed only (see generator); this
    guards the tags the package draws from: the seeding draw, each
    iteration's candidates, the objective noise, the offline sample, each
    layer kind's synthetic rows and the fold split."""
    streams = [(0,), (0x401E,), (0x5A11,), (0xF01D,)]
    streams += [(bayesopt._TAG_SAMPLER, i) for i in range(1, 41)]
    streams += [(0x5E7, k) for k in synth._KIND_TAG.values()]
    draws = {tuple(generator(seed, *tags).integers(2 ** 63, size=2)) for tags in streams}
    assert len(draws) == len(streams)
