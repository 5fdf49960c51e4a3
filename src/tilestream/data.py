"""Deterministic synthetic dataset with a global-structure label.

Generator (pinned; numpy PCG64 seeded per dataset, one sequential draw
stream): every image contains two equal-amplitude Gaussian blobs, one in
the top band and one in the bottom band of the image, each placed
uniformly in x away from the vertical midline. The label is 1 iff both
blobs fall in the same horizontal half.

The label is decidable only from the joint configuration: for either
blob alone, the other blob's half is uniform and independent, so any
model seeing a single blob (a patch/tile-level model) has exactly 50%
accuracy by construction. The two blobs land in different tiles for the
grids used here, so solving the task certifies that training integrated
information across tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

TOP_BAND = (0.10, 0.40)      # y placement bands, fractions of image size
BOTTOM_BAND = (0.60, 0.90)
X_MARGIN = 0.08              # min |x - z/2| as a fraction, keeps halves unambiguous
SIGMA_FRAC = 0.055
AMPLITUDE = 1.0


@dataclass
class SyntheticSample:
    image: np.ndarray            # (1, c, z, z) float64, cast per run precision
    label: int


def _blob(z, cy, cx, sigma):
    """A unit Gaussian centred at (cy, cx): the outer product of its two 1-D
    factors, so a z x z image costs 2z exps, not z^2."""
    axis = np.arange(z)
    return np.outer(np.exp(-((axis - cy) ** 2) / (2.0 * sigma * sigma)),
                    np.exp(-((axis - cx) ** 2) / (2.0 * sigma * sigma)))


def synth_dataset(seed, image_size, n, in_channels=1, noise=0.02):
    """n class-balanced samples (labels alternate 1, 0, 1, ...), deterministic in seed."""
    if n < 2 or n % 2:
        raise ConfigError(f"dataset size must be even and >= 2, got {n}")
    if image_size < 16:
        raise ConfigError(f"image_size {image_size} too small for the blob task")
    if in_channels < 1:
        raise ConfigError("in_channels must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    z = image_size
    sigma = SIGMA_FRAC * z

    def half_x(which):
        # uniform x within one horizontal half, margin away from the midline
        lo, hi = (X_MARGIN * z, (0.5 - X_MARGIN) * z) if which == 0 else \
                 ((0.5 + X_MARGIN) * z, (1.0 - X_MARGIN) * z)
        return rng.uniform(lo, hi)

    samples = []
    for i in range(n):
        label = 1 - (i % 2)
        top_half = int(rng.integers(0, 2))
        bottom_half = top_half if label else 1 - top_half
        ty = rng.uniform(TOP_BAND[0] * z, TOP_BAND[1] * z)
        by = rng.uniform(BOTTOM_BAND[0] * z, BOTTOM_BAND[1] * z)
        tx = half_x(top_half)
        bx = half_x(bottom_half)
        img = AMPLITUDE * (_blob(z, ty, tx, sigma) + _blob(z, by, bx, sigma))
        if noise:
            img += noise * rng.standard_normal((z, z))
        chans = [img * (1.0 - 0.1 * c) for c in range(in_channels)]
        samples.append(SyntheticSample(
            image=np.stack(chans)[None, :, :, :], label=label))
    return samples


def minibatch(dataset, step, batch_size):
    """The samples of training step `step`: the dataset read in order, cyclically."""
    n = len(dataset)
    return [dataset[(step * batch_size + i) % n] for i in range(batch_size)]


def blob_positions(sample: SyntheticSample):
    """Oracle: recover ((ty, tx), (by, bx)) blob centers from the image."""
    img = sample.image[0, 0]
    z = img.shape[0]
    mid = z // 2
    ty, tx = np.unravel_index(np.argmax(img[:mid]), (mid, z))
    by, bx = np.unravel_index(np.argmax(img[mid:]), (z - mid, z))
    return (int(ty), int(tx)), (int(by) + mid, int(bx))


def global_oracle(sample: SyntheticSample):
    """Label from global structure; 100% accurate by construction."""
    (_, tx), (_, bx) = blob_positions(sample)
    z = sample.image.shape[-1]
    return int((tx < z / 2) == (bx < z / 2))


def patch_oracle(sample: SyntheticSample):
    """Best guess from the top band alone; ~50% accurate by construction."""
    (_, tx), _ = blob_positions(sample)
    z = sample.image.shape[-1]
    return int(tx < z / 2)
