import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

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
    fused_relu,
    head_backward,
    head_forward,
    init_params,
    layer_backward,
    net_giga64mp,
    net_tiny2,
    net_vgg13,
    PRESETS,
    run_stack,
    stack_backward,
)
from tilestream.memory import pool_frees
from tilestream.planner import build_tile_plan
from conftest import sample_streaming_config


def small_net():
    return NetworkSpec(1, (Conv(2, 3, 1, 1), Relu(), MaxPool(2, 2),
                           Flatten(), Dense(4), Relu(), Dense(1)))


def test_validation_rules():
    with pytest.raises(ShapeError, match="not spatial"):  # dense in streaming section
        NetworkSpec(1, (Dense(3), Flatten(), Dense(1)))
    with pytest.raises(ShapeError, match="not 0"):  # no flatten: dense before it
        NetworkSpec(1, (Conv(2), Dense(1)))
    with pytest.raises(ShapeError, match="width-1"):  # must end in width-1 dense
        NetworkSpec(1, (Conv(2), Flatten(), Dense(3)))
    with pytest.raises(ShapeError, match="not 2"):  # double flatten
        NetworkSpec(1, (Conv(2), Flatten(), Flatten(), Dense(1)))
    with pytest.raises(ShapeError, match="is spatial"):  # pool in the head
        NetworkSpec(1, (Conv(2), Flatten(), MaxPool(2, 2), Dense(1)))
    with pytest.raises(ShapeError, match="no spatial layer"):  # nothing to stream
        NetworkSpec(1, (Flatten(), Dense(1)))
    for kernel, stride in ((0, 2), (2, 0)):
        with pytest.raises(ShapeError, match="bad pool geometry"):
            MaxPool(kernel, stride)
    MaxPool(16, 16)  # 256 taps, the most a uint8 route holds
    with pytest.raises(ShapeError, match="more taps"):
        MaxPool(17, 17)


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
    gmap, _ = head_backward(np.asarray([dlogit]), net, params, caches, feats.shape)
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
    net = NetworkSpec(1, (Relu(), Conv(1, 1, 1, 0), Flatten(), Dense(1)))
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
    each pool read is freed exactly when pool_frees names it, so
    tilestream.memory.live_peak frees what the caches really release. A
    relu at the stack's start allocates nothing: its fused pool reads the
    stack's input."""
    layers = POOL_STACKS[name]
    net = NetworkSpec(1, layers + (Flatten(), Dense(1)))
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
    assert [ref() is None for ref in read] == [
        pool_frees(net.layers, start, i) is not None for i in pools]
    if fused_relu(net.layers, start, start + 1):
        assert read[0]() is x


@pytest.mark.parametrize("start", [0, 1])
def test_stack_backward_never_writes_grad_out(rng, start):
    """Relu gradients are masked in place only in buffers the stack made:
    the given gradient, which the top relu sees first, stays as it was,
    and the results equal a pass that never masks in place."""
    net = NetworkSpec(1, (Conv(2, 3, 1, 1), Relu(), MaxPool(2, 2), Relu(), Conv(3, 3, 1, 1),
                          Relu(), Flatten(), Dense(1)))
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
    net = NetworkSpec(1, (Conv(2, 1, 1, 0), Flatten(), Relu(), Dense(1)))
    params = init_params(net, 4, seed=0)
    split = rng.standard_normal((1, 2, 4, 4))
    keep = split.copy()
    head_forward(split, net, params)
    assert np.array_equal(split, keep)


def test_presets_build():
    # the flatten follows 13 conv-relu pairs and 5 pools: 2 * 13 + 5 layers
    assert net_vgg13().split_index == 2 * 13 + 5
    assert len([l for l in net_vgg13().stream_layers if isinstance(l, Conv)]) == 13
    assert net_tiny2().split_shape(256) == (16, 256 // 2 ** 3, 256 // 2 ** 3)  # three pools
    # seven floor-halvings of 8130: 4065, 2032, 1016, 508, 254, 127, 63, then 31
    assert net_giga64mp().split_shape(8130)[1:] == (8130 // 2 ** 8, 8130 // 2 ** 8) == (31, 31)


def test_clone_params_is_deep(rng):
    net = small_net()
    p = init_params(net, 8, seed=0)
    q = clone_params(p)
    q[0].w += 1.0
    assert not np.array_equal(p[0].w, q[0].w)


@pytest.mark.parametrize("make", [net_vgg13, net_giga64mp])
def test_every_conv_carries_the_channels_below(make):
    """Each stored conv's c_in is the map below it; every conv streams,
    since the head is the flatten onward."""
    net = make()
    shapes = net.activation_shapes(8130)
    convs = [i for i, layer in enumerate(net.layers) if isinstance(layer, Conv)]
    assert convs and all(net.layers[i].c_in == shapes[i][0] for i in convs)
    assert all(i < net.split_index for i in convs)
    assert len(convs) == (15 if make is net_giga64mp else 13)


def test_conflicting_conv_c_in_rejected():
    with pytest.raises(ShapeError):  # image has 1 channel
        NetworkSpec(1, (Conv(2, 3, 1, 1, c_in=3), Flatten(), Dense(1)))
    with pytest.raises(ShapeError):  # the first conv outputs 2 channels
        NetworkSpec(1, (Conv(2), Conv(4, c_in=4), Flatten(), Dense(1)))
    net = NetworkSpec(1, (Conv(2, c_in=1), Conv(4), Flatten(), Dense(1)))
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


def assert_split_is_the_flatten(net):
    assert isinstance(net.layers[net.split_index], Flatten)
    assert [type(layer) for layer in net.layers].count(Flatten) == 1
    assert net.split_index >= 1 and all(isinstance(layer, (Conv, MaxPool, Relu))
                                        for layer in net.stream_layers)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_the_split_of_every_preset_is_its_flatten(name):
    assert_split_is_the_flatten(PRESETS[name]())


@pytest.mark.parametrize("case", range(20))
def test_the_split_of_sampled_stacks_is_their_flatten(case):
    net, _, _, _ = sample_streaming_config(np.random.default_rng([19, case]))
    assert_split_is_the_flatten(net)
    with pytest.raises(ShapeError, match="no spatial layer below the flatten"):
        NetworkSpec(1, net.layers[net.split_index:])


# A relu and a pool as the stack [1, 3): the relu is not layer 0, so the
# stack's backward returns its input gradient.
def relu_pool_net(k, s):
    return NetworkSpec(1, (Relu(), Relu(), MaxPool(k, s), Flatten(), Dense(1)))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 2), c=st.integers(1, 3), k=st.integers(1, 4), s=st.integers(1, 4),
       dh=st.integers(0, 10), dw=st.integers(0, 10),
       values=st.sampled_from(["ties", "normal", "negative"]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
@example(n=2, c=3, k=3, s=2, dh=10, dw=10, values="ties", dtype=np.float32, seed=0)  # k > s
@example(n=1, c=2, k=2, s=2, dh=10, dw=9, values="negative", dtype=np.float64, seed=1)
@example(n=2, c=1, k=2, s=3, dh=9, dw=10, values="ties", dtype=np.float32, seed=3)  # k < s
def test_fused_relu_pool_equals_relu_then_pool(n, c, k, s, dh, dw, values, dtype, seed):
    """run_stack's fused relu and pool (the pool's max of the raw map, the
    relu on its output) against the relu's stack, then the pool's: output,
    route-masked input gradient and the stack's input all bit for bit,
    with signed zeros, all-negative windows, k <= s and k > s, both
    precisions."""
    r = np.random.default_rng(seed)
    shape = (n, c, k + dh, k + dw)
    if values == "ties":
        x = r.choice(np.array([-0.0, 0.0, -1.0, 1.0, -2.0, 2.0]), shape,
                     p=[0.3, 0.3, 0.15, 0.1, 0.1, 0.05]).astype(dtype)
    else:
        x = r.standard_normal(shape).astype(dtype)
        if values == "negative":
            x = -np.abs(x)
    net = relu_pool_net(k, s)
    params = [None] * len(net.layers)
    before = x.tobytes()
    out, caches = run_stack(x, net, params, 1, 3)
    relu_out, relu_caches = run_stack(x, net, params, 1, 2)
    want, pool_caches = run_stack(relu_out, net, params, 2, 3)
    assert caches[0] is None and relu_caches[0] is not None
    assert out.dtype == dtype and out.tobytes() == want.tobytes()
    g = r.standard_normal(out.shape).astype(dtype)
    g[r.random(g.shape) < 0.3] = -0.0
    g[r.random(g.shape) < 0.1] = 0.0
    grads = ParamGrads.zeros_like(params)
    got = stack_backward(g, net, params, caches, 1, 3, grads)
    mid = stack_backward(g, net, params, pool_caches, 2, 3, grads)
    assert got.tobytes() == stack_backward(mid, net, params, relu_caches, 1, 2, grads).tobytes()
    assert x.tobytes() == before


@pytest.mark.parametrize("k, s", [(2, 2), (3, 2)])
def test_fused_relu_pool_allocates_no_full_size_map(rng, k, s):
    """A relu and the pool above it run in one stack cost what the cached
    pool alone costs (test_layers' bound: its output, its uint8 route and
    one reused uint8 buffer of the output's shape, and numpy's ufunc
    buffer): the relu runs in place on the pool's output and never on the
    input map, which is four times the output."""
    x = rng.standard_normal((1, 8, 256, 256)).astype(np.float32)
    net = relu_pool_net(k, s)
    run_stack(x, net, [None] * 5, 1, 3)  # warm-up
    tracemalloc.start()
    try:
        out, caches = run_stack(x, net, [None] * 5, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    route = caches[1][0].nbytes
    assert route == out.size
    assert peak <= out.nbytes + 2 * route + max(route, np.getbufsize() * x.itemsize) + 4096
    assert peak < x.nbytes / 2
