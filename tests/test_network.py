import gc
import weakref

import numpy as np
import pytest

import tilestream
import tilestream.layers
from tilestream.engine import streaming_loss_and_grads
from tilestream.errors import ShapeError
from tilestream.layers import bce_with_logits, conv2d_forward
from tilestream.memory import count_param_scalars
from tilestream.network import (
    Conv,
    Dense,
    Flatten,
    MaxPool,
    NetworkSpec,
    ParamGrads,
    Relu,
    clone_params,
    head_backward,
    head_forward,
    init_params,
    layer_backward,
    net_giga64mp,
    net_tiny2,
    net_vgg13,
    pool_frees,
    run_stack,
    stack_backward,
)
from tilestream.planner import build_tile_plan


def small_net():
    return NetworkSpec(1, (Conv(2, 3, 1, 1), Relu(), MaxPool(2, 2),
                           Flatten(), Dense(4), Relu(), Dense(1)), 3)


def test_validation_rules():
    with pytest.raises(ShapeError):  # dense in streaming section
        NetworkSpec(1, (Dense(3), Flatten(), Dense(1)), 1)
    with pytest.raises(ShapeError):  # dense before flatten
        NetworkSpec(1, (Conv(2), Dense(1)), 1)
    with pytest.raises(ShapeError):  # must end in width-1 dense
        NetworkSpec(1, (Conv(2), Flatten(), Dense(3)), 1)
    with pytest.raises(ShapeError):  # double flatten
        NetworkSpec(1, (Conv(2), Flatten(), Flatten(), Dense(1)), 1)
    with pytest.raises(ShapeError):  # split out of range
        NetworkSpec(1, (Conv(2), Flatten(), Dense(1)), 0)


def test_activation_shapes():
    net = small_net()
    shapes = net.activation_shapes(8)
    assert shapes[0] == (1, 8, 8)
    assert shapes[1] == (2, 8, 8)
    assert shapes[3] == (2, 4, 4)
    assert shapes[4] == (32,)
    assert shapes[-1] == (1,)
    assert net.split_shape(8) == (2, 4, 4)


def test_init_params_deterministic_and_fan_in():
    net = small_net()
    a = init_params(net, 8, seed=7)
    b = init_params(net, 8, seed=7)
    c = init_params(net, 8, seed=8)
    for pa, pb in zip(a, b):
        if pa is not None:
            assert np.array_equal(pa.w, pb.w) and np.array_equal(pa.b, pb.b)
    assert any(pa is not None and not np.array_equal(pa.w, pc.w)
               for pa, pc in zip(a, c) if pa is not None)
    bound = 1.0 / np.sqrt(1 * 9)
    assert np.abs(a[0].w).max() <= bound
    assert np.all(a[0].b == 0)


def test_single_init_is_cast_of_double():
    net = small_net()
    d = init_params(net, 8, seed=3, precision="double")
    s = init_params(net, 8, seed=3, precision="single")
    assert s[0].w.dtype == np.float32
    assert np.array_equal(s[0].w, d[0].w.astype(np.float32))


def test_head_zero_weights_logit_is_bias(rng):
    net = small_net()
    params = init_params(net, 8, seed=0)
    for p in params:
        if p is not None:
            p.w[...] = 0.0
    params[-1].b[...] = 0.625
    split, _ = run_stack(rng.standard_normal((1, 1, 8, 8)), net, params, 0, 3)
    logit, _ = head_forward(split, net, params)
    assert logit[0] == 0.625


def test_head_backward_fd(rng):
    """Finite differences through a 2-dense head w.r.t. the feature map."""
    net = small_net()
    params = init_params(net, 8, seed=1)
    feats = rng.standard_normal((1, 2, 4, 4))

    def loss():
        logit, _ = head_forward(feats, net, params)
        return float(bce_with_logits(logit[0], 1)[0])

    logit, caches = head_forward(feats, net, params)
    _, dlogit = bce_with_logits(logit[0], 1)
    gmap = head_backward(np.asarray([dlogit]), net, params, caches, feats.shape,
                         ParamGrads.zeros_like(params))
    eps, worst = 1e-5, 0.0
    for idx in range(feats.size):
        orig = feats.flat[idx]
        feats.flat[idx] = orig + eps
        hi = loss()
        feats.flat[idx] = orig - eps
        lo = loss()
        feats.flat[idx] = orig
        fd = (hi - lo) / (2 * eps)
        worst = max(worst, abs(fd - gmap.flat[idx]) / max(abs(fd), abs(gmap.flat[idx]), 1e-8))
    assert worst <= 1e-6


def test_relu_inplace_never_mutates_stack_input(rng):
    """Neither run_stack nor an executor writes the image, also when a tile's
    crop is a contiguous view of it (1x1 and 2x1 grids) and relu comes first."""
    net = NetworkSpec(1, (Relu(), Conv(1, 1, 1, 0), Flatten(), Dense(1)), 2)
    params = init_params(net, 4, seed=0)
    x = rng.standard_normal((1, 1, 4, 4))
    keep = x.copy()
    run_stack(x, net, params, 0, 2)
    assert np.array_equal(x, keep)
    tilestream.baseline_forward_backward(net, params, x, 1)
    assert np.array_equal(x, keep)
    for grid in ((1, 1), (2, 1), (2, 2)):
        streaming_loss_and_grads(net, params, x, 1, build_tile_plan(net, 4, grid))
        assert np.array_equal(x, keep), grid


# Streaming sections whose pools read a conv's output, through a relu or
# not, a fused or an unfused pool's output, a map another relu caches, and
# (from layer 1) the stack's input.
POOL_STACKS = {
    "relu-pool-pool": (Conv(2, 3, 1, 1), Relu(), MaxPool(2, 2), MaxPool(2, 2)),
    "pool-pool": (Conv(2, 3, 1, 1), MaxPool(2, 2), MaxPool(2, 2)),
    "relu-relu-pool": (Conv(2, 3, 1, 1), Relu(), Relu(), MaxPool(2, 2)),
    "pool-relu-pool": (Conv(2, 3, 1, 1), MaxPool(2, 2), Relu(), MaxPool(2, 2)),
    "relu-pool-relu-pool": (Conv(2, 3, 1, 1), Relu(), MaxPool(2, 2), Relu(), MaxPool(2, 2)),
}


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("name", sorted(POOL_STACKS))
def test_pool_frees_names_the_maps_the_caches_release(monkeypatch, rng, name, start):
    """After a cached run_stack, with its output and caches held, the map
    each pool read is freed exactly when pool_frees names it, so the
    memory model and the byte sink free what the caches really release. A
    relu at the stack's start writes a fresh array, which the policy never
    counts (relu retains nothing); its fused pool frees that one too."""
    layers = POOL_STACKS[name]
    net = NetworkSpec(1, layers + (Flatten(), Dense(1)), len(layers))
    params = init_params(net, 16, seed=0)
    x, _ = run_stack(rng.standard_normal((1, 1, 16, 16)), net, params, 0, start)
    read, pool = [], tilestream.network.maxpool2d_forward

    def recording(a, k, s, route=False):
        read.append(weakref.ref(a))
        return pool(a, k, s, route)

    monkeypatch.setattr(tilestream.network, "maxpool2d_forward", recording)
    out, caches = run_stack(x, net, params, start, len(layers))
    gc.collect()
    pools = [i for i in range(start, len(layers)) if isinstance(layers[i], MaxPool)]
    assert len(read) == len(pools)
    fresh = isinstance(layers[start], Relu)
    assert [ref() is None for ref in read] == [
        pool_frees(net.layers, start, i) is not None or (fresh and i == start + 1)
        for i in pools]


@pytest.mark.parametrize("start", [0, 1])
def test_stack_backward_never_writes_grad_out(rng, start):
    """Relu gradients are masked in place only in buffers the stack made:
    the given gradient, which the top relu sees first, stays as it was,
    and the results equal a pass that never masks in place."""
    net = NetworkSpec(1, (Conv(2, 3, 1, 1), Relu(), MaxPool(2, 2), Relu(), Conv(3, 3, 1, 1),
                          Relu(), Flatten(), Dense(1)), 6)
    params = init_params(net, 8, seed=0)
    x, _ = run_stack(rng.standard_normal((1, 1, 8, 8)), net, params, 0, start)
    out, caches = run_stack(x, net, params, start, 6)
    ref_caches = list(caches)  # stack_backward empties caches
    grad_out = rng.standard_normal(out.shape)
    keep = grad_out.copy()
    grads = ParamGrads.zeros_like(params)
    g_in = stack_backward(grad_out, net, params, caches, start, 6, grads)
    assert grad_out.tobytes() == keep.tobytes()
    g, ref = keep, ParamGrads.zeros_like(params)
    for i in range(5, max(start, 1) - 1, -1):
        g = layer_backward(g, net.layers[i], params[i], ref_caches[i - start], ref.per_layer[i])
    assert grads.per_layer[4].w.tobytes() == ref.per_layer[4].w.tobytes()
    if start:
        assert g_in.tobytes() == g.tobytes()


def test_head_forward_never_mutates_split_map(rng):
    """A head that starts with flatten hands relu a view of the split map."""
    net = NetworkSpec(1, (Conv(2, 1, 1, 0), Flatten(), Relu(), Dense(1)), 1)
    params = init_params(net, 4, seed=0)
    split = rng.standard_normal((1, 2, 4, 4))
    keep = split.copy()
    head_forward(split, net, params)
    assert np.array_equal(split, keep)


def test_presets_build():
    assert net_vgg13().split_index == 30
    assert len([l for l in net_vgg13().stream_layers if isinstance(l, Conv)]) == 13
    assert net_tiny2().split_shape(256) == (16, 64, 64)
    assert net_giga64mp().split_shape(8130)[1:] == (508, 508)


def test_clone_params_is_deep(rng):
    net = small_net()
    p = init_params(net, 8, seed=0)
    q = clone_params(p)
    q[0].w += 1.0
    assert not np.array_equal(p[0].w, q[0].w)


@pytest.mark.parametrize("make", [net_vgg13, net_giga64mp])
def test_every_conv_carries_the_channels_below(make):
    """Head convs included, each stored conv's c_in is the map below it."""
    net = make()
    shapes = net.activation_shapes(8130)
    convs = [i for i, layer in enumerate(net.layers) if isinstance(layer, Conv)]
    assert convs and all(net.layers[i].c_in == shapes[i][0] for i in convs)
    if make is net_giga64mp:
        assert any(i > net.split_index for i in convs)


def test_conflicting_conv_c_in_rejected():
    with pytest.raises(ShapeError):  # image has 1 channel
        NetworkSpec(1, (Conv(2, 3, 1, 1, c_in=3), Flatten(), Dense(1)), 1)
    with pytest.raises(ShapeError):  # the first conv outputs 2 channels
        NetworkSpec(1, (Conv(2), Conv(4, c_in=4), Flatten(), Dense(1)), 2)
    net = NetworkSpec(1, (Conv(2, c_in=1), Conv(4), Flatten(), Dense(1)), 2)
    assert net.layers[:2] == (Conv(2, c_in=1), Conv(4, c_in=2))


def test_network_conv_is_the_kernel_geometry(rng):
    """A network's conv layer goes to the kernel as its spec unchanged."""
    assert tilestream.Conv is tilestream.network.Conv is tilestream.layers.Conv
    net = small_net()
    params = init_params(net, 8, seed=0)
    x = rng.standard_normal((2, 1, 8, 8))
    out, _ = run_stack(x, net, params, 0, 1)
    assert np.array_equal(conv2d_forward(x, net.layers[0], params[0]), out)


def test_param_shapes_shape_init_and_count():
    net = net_vgg13()
    params = init_params(net, 64, seed=0)
    shapes = net.param_shapes(64)
    assert [None if p is None else (p.w.shape, p.b.shape) for p in params] == shapes
    assert count_param_scalars(net, 64) == sum(p.w.size + p.b.size for p in params if p is not None)
