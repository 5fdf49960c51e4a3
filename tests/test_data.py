"""The synthetic blob dataset: determinism, batch order and its two label oracles."""

import numpy as np

from tilestream.data import global_oracle, minibatch, patch_oracle, synth_dataset


def test_same_seed_is_bit_identical():
    a, b, other = synth_dataset(3, 32, 8), synth_dataset(3, 32, 8), synth_dataset(4, 32, 8)
    assert [s.label for s in a] == [s.label for s in b]
    assert all(np.array_equal(x.image, y.image) for x, y in zip(a, b))
    assert not all(np.array_equal(x.image, y.image) for x, y in zip(a, other))


def test_global_oracle_equals_every_label():
    data = synth_dataset(0, 64, 200)
    assert [global_oracle(s) for s in data] == [s.label for s in data]


def test_patch_oracle_is_near_chance():
    """One blob alone says nothing about the label, so the top band scores ~50%."""
    data = synth_dataset(0, 64, 200)
    accuracy = np.mean([patch_oracle(s) == s.label for s in data])
    assert 0.35 <= accuracy <= 0.65


def test_minibatch_reads_the_dataset_cyclically():
    assert minibatch(list(range(5)), 0, 2) == [0, 1]
    assert minibatch(list(range(5)), 2, 3) == [1, 2, 3]
