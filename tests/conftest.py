import numpy as np
import pytest

from tilestream.engine import PassResult
from tilestream.errors import PlanError, ShapeError
from tilestream.layers import bce_with_logits
from tilestream.network import (
    Conv,
    Dense,
    Flatten,
    MaxPool,
    NetworkSpec,
    ParamGrads,
    Relu,
    head_backward,
    head_forward,
    head_param_grads,
    run_stack,
    stack_backward,
)
from tilestream.planner import build_tile_plan

GRIDS = [(1, 1), (2, 2), (2, 4), (4, 4)]


def sample_streaming_config(rng, min_size=16, max_size=64):
    """One feasible (net, image_size, grid, plan) from the acceptance distribution:
    layers from {conv k in {1,2,3,5}, s in {1,2}; maxpool k=s=2; relu}, square
    images 16..64, grids 1x1 / 2x2 / 2x4 / 4x4. Resamples until the grid fits."""
    while True:
        layers = []
        for _ in range(int(rng.integers(1, 5))):
            kind = int(rng.integers(0, 6))
            if kind <= 2:
                k = int(rng.choice([1, 2, 3, 5]))
                s = int(rng.choice([1, 2]))
                p = int(rng.integers(0, min(k, 2)))
                layers.append(Conv(int(rng.integers(1, 4)), k, s, p))
            elif kind <= 4:
                layers.append(MaxPool(2, 2))
            else:
                layers.append(Relu())
        z = int(rng.integers(min_size, max_size + 1))
        grid = GRIDS[int(rng.integers(0, len(GRIDS)))]
        try:
            net = NetworkSpec(1, tuple(layers) + (Flatten(), Dense(1)))
            plan = build_tile_plan(net, z, grid)
        except (PlanError, ShapeError):
            continue
        return net, z, grid, plan


def plain_backprop(net, params, image, label):
    """Whole-image reference with no plan or tile: run_stack, then the head,
    then stack_backward. A PassResult without a run record."""
    split, caches = run_stack(image, net, params, 0, net.split_index)
    logit, head_caches = head_forward(split, net, params)
    loss, dlogit = bce_with_logits(logit[0], label)
    grads = ParamGrads.zeros_like(params)
    grad_split, deferred = head_backward(np.asarray([dlogit]), net, params, head_caches,
                                         split.shape)
    stack_backward(grad_split, net, params, caches, 0, net.split_index, grads)
    head_param_grads(params, deferred, grads)
    return PassResult(float(loss), float(logit[0]), split, grads, None)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
