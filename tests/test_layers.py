import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from tilestream import layers
from tilestream.equivalence import default_tolerances
from tilestream.errors import NonFiniteError, ShapeError
from tilestream.layers import (
    _BAND_DIV,
    _BAND_MIN,
    _BLOCK,
    Conv,
    bce_with_logits,
    conv2d_backward,
    conv2d_forward,
    conv2d_input_grad,
    conv2d_param_grad,
    dense_backward,
    dense_forward,
    dense_input_grad,
    maxpool2d_backward,
    maxpool2d_forward,
    out_size,
    Params,
    relu_backward,
    relu_forward,
)


def brute_conv(x, w, b, stride, pad):
    """Independent oracle: direct python-loop convolution."""
    n, ci, h, ww = x.shape
    co, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (ww + 2 * pad - k) // stride + 1
    out = np.zeros((n, co, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for o in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for c in range(ci):
                        for ky in range(k):
                            for kx in range(k):
                                acc += w[o, c, ky, kx] * xp[ni, c, oy * stride + ky, ox * stride + kx]
                    out[ni, o, oy, ox] = acc + b[o]
    return out


def fd_scalar(fn, arr, idx, eps=1e-5):
    orig = arr.flat[idx]
    arr.flat[idx] = orig + eps
    hi = fn()
    arr.flat[idx] = orig - eps
    lo = fn()
    arr.flat[idx] = orig
    return (hi - lo) / (2 * eps)


# --- conv2d_forward ------------------------------------------------------

def test_conv_all_ones_3x3():
    x = np.ones((1, 1, 3, 3))
    p = Params(np.ones((1, 1, 3, 3)), np.zeros(1))
    y = conv2d_forward(x, Conv(1, 3, 1, 0, c_in=1), p)
    assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == 9.0


def test_conv_identity_kernel_exact(rng):
    x = rng.standard_normal((2, 3, 6, 6))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    y = conv2d_forward(x, Conv(3, 1, 1, 0, c_in=3), Params(w, np.zeros(3)))
    assert np.array_equal(y, x)


def test_conv_2x2_stride2_blocks():
    x = np.arange(1, 17, dtype=np.float64).reshape(1, 1, 4, 4)
    p = Params(np.ones((1, 1, 2, 2)), np.zeros(1))
    y = conv2d_forward(x, Conv(1, 2, 2, 0, c_in=1), p)
    assert np.array_equal(y[0, 0], [[14.0, 22.0], [46.0, 54.0]])
    assert np.array_equal(y, brute_conv(x, p.w, p.b, 2, 0))


def test_conv_matches_bruteforce(rng):
    for k, s, pad in [(3, 1, 1), (2, 2, 0), (5, 2, 1), (1, 1, 0)]:
        x = rng.standard_normal((1, 2, 9, 9))
        w = rng.standard_normal((3, 2, k, k))
        b = rng.standard_normal(3)
        spec = Conv(3, k, s, pad, c_in=2)
        got = conv2d_forward(x, spec, Params(w, b))
        want = brute_conv(x, w, b, s, pad)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv_errors(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    p = Params(np.zeros((1, 3, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d_forward(x, Conv(1, 3, 1, 0, c_in=3), p)  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d_forward(x[:, :1], Conv(1, 5, 1, 0, c_in=1),
                       Params(np.zeros((1, 1, 5, 5)), np.zeros(1)))  # kernel > input
    with pytest.raises(ShapeError):
        Conv(1, 3, 1, 3, c_in=1)  # pad >= kernel
    one = Conv(1, 3, 1, 0, c_in=1)
    p1 = Params(np.ones((1, 1, 3, 3)), np.zeros(1))
    for pads in [(0, 3, 0, 0), (0, 0, -1, 0)]:  # a pad outside [0, kernel)
        with pytest.raises(ShapeError):
            conv2d_forward(x[:, :1], one, p1, pads)
        with pytest.raises(ShapeError):
            conv2d_input_grad(np.ones((1, 1, 2, 2)), one, p1, (4, 4), pads)
        with pytest.raises(ShapeError):
            conv2d_param_grad(x[:, :1], one, np.ones((1, 1, 2, 2)), pads)
    with pytest.raises(NonFiniteError):
        bad = x[:, :1].copy()
        bad[0, 0, 0, 0] = np.nan
        conv2d_forward(bad, Conv(1, 3, 1, 0, c_in=1),
                       Params(np.ones((1, 1, 3, 3)), np.zeros(1)))


def test_conv_mixed_dtype_rejected(rng):
    x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
    p = Params(np.ones((1, 1, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d_forward(x, Conv(1, 3, 1, 0, c_in=1), p)


# --- conv2d_backward -----------------------------------------------------

def test_conv_backward_identity_kernel(rng):
    x = rng.standard_normal((1, 1, 5, 5))
    spec = Conv(1, 1, 1, 0, c_in=1)
    p = Params(np.ones((1, 1, 1, 1)), np.zeros(1))
    gy = rng.standard_normal((1, 1, 5, 5))
    gx, gw, gb = conv2d_backward(x, spec, p, gy)
    assert np.array_equal(gx, gy)


def test_conv_backward_unit_example():
    x = np.ones((1, 1, 3, 3))
    spec = Conv(1, 3, 1, 0, c_in=1)
    p = Params(np.ones((1, 1, 3, 3)), np.zeros(1))
    gy = np.ones((1, 1, 1, 1))
    _, gw, gb = conv2d_backward(x, spec, p, gy)
    assert np.array_equal(gw, np.ones((1, 1, 3, 3)))
    assert np.array_equal(gb, np.ones(1))


@pytest.mark.parametrize("k,s,pad", [(3, 1, 0), (1, 1, 0), (2, 2, 0), (3, 2, 1)])
def test_conv_backward_finite_differences(rng, k, s, pad):
    x = rng.standard_normal((1, 2, 7, 7))
    w = rng.standard_normal((2, 2, k, k))
    b = rng.standard_normal(2)
    spec = Conv(2, k, s, pad, c_in=2)
    proj = None

    def loss():
        out = conv2d_forward(x, spec, Params(w, b))
        return float((out * proj).sum())

    out0 = conv2d_forward(x, spec, Params(w, b))
    proj = np.random.default_rng(0).standard_normal(out0.shape)
    gx, gw, gb = conv2d_backward(x, spec, Params(w, b), proj.astype(x.dtype))
    worst = 0.0
    for arr, grad in ((x, gx), (w, gw), (b, gb)):
        for idx in range(0, arr.size, max(1, arr.size // 40)):
            fd = fd_scalar(loss, arr, idx)
            denom = max(abs(fd), abs(grad.flat[idx]), 1e-8)
            worst = max(worst, abs(fd - grad.flat[idx]) / denom)
    assert worst <= 1e-6


def test_conv_linearity(rng):
    x = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((2, 2, 3, 3))
    spec = Conv(2, 3, 1, 1, c_in=2)
    a = 3.7
    y1 = conv2d_forward(a * x, spec, Params(w, np.zeros(2)))
    y2 = a * conv2d_forward(x, spec, Params(w, np.zeros(2)))
    assert np.allclose(y1, y2, rtol=1e-14, atol=1e-14)


# --- maxpool -------------------------------------------------------------

def brute_pool(x, k, s):
    """Oracle: per window, the first entry in row-major order that no later
    entry exceeds; returns (output, flat spatial index of that entry). The
    output is that entry's value, a zero as +0.0."""
    n, c, h, w = x.shape
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    out = np.empty((n, c, oh, ow), x.dtype)
    arg = np.empty((n, c, oh, ow), np.int64)
    for i, ch, oy, ox in np.ndindex(n, c, oh, ow):
        plane = x[i, ch].ravel()
        best = oy * s * w + ox * s
        for ky in range(k):
            for kx in range(k):
                idx = (oy * s + ky) * w + ox * s + kx
                if plane[idx] > plane[best]:
                    best = idx
        arg[i, ch, oy, ox] = best
        out[i, ch, oy, ox] = plane[best] + 0
    return out, arg


def scatter_pool_grad(arg, grad_out, in_hw):
    """Oracle: per map, each output's gradient added onto zeros at its
    argmax, in output row-major order."""
    n, c = grad_out.shape[:2]
    gx = np.zeros((n, c, in_hw[0] * in_hw[1]), grad_out.dtype)
    for i, ch in np.ndindex(n, c):
        np.add.at(gx[i, ch], arg[i, ch].ravel(), grad_out[i, ch].ravel())
    return gx.reshape(n, c, *in_hw)


def pool_routed(x, k, s):
    """maxpool2d_forward's cached form: (output, route); its output equals the uncached one."""
    y, route = maxpool2d_forward(x, k, s, route=True)
    assert route.dtype == np.uint8 and route.shape == y.shape
    assert y.tobytes() == maxpool2d_forward(x, k, s).tobytes()
    return y, route


def oracle_taps(arg, k, s, w):
    """The oracle's flat spatial argmax as a tap index ky * k + kx of its window."""
    oy, ox = np.indices(arg.shape[2:])
    return (arg // w - oy * s) * k + (arg % w - ox * s)


def test_maxpool_basic():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    y, route = pool_routed(x, 2, 2)
    assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == 4.0
    gx = maxpool2d_backward(route, np.ones_like(y), 2, 2, x.shape)
    assert np.flatnonzero(gx).tolist() == [3]


def test_maxpool_tie_first_occurrence():
    x = np.full((1, 1, 4, 4), 2.5)
    y, route = pool_routed(x, 2, 2)
    assert np.all(y == 2.5)
    gx = maxpool2d_backward(route, np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2), 2, 2,
                            x.shape)
    # each window's gradient lands on its top-left entry
    assert np.array_equal(gx[0, 0], [[1, 0, 2, 0], [0, 0, 0, 0], [3, 0, 4, 0], [0, 0, 0, 0]])
    # a tie of signed zeros reads +0.0 and still routes to the first entry
    z = np.array([[-0.0, 0.0], [-0.0, -0.0]]).reshape(1, 1, 2, 2)
    y, route = pool_routed(z, 2, 2)
    assert not np.signbit(y).any()
    assert np.flatnonzero(maxpool2d_backward(route, np.ones((1, 1, 1, 1)), 2, 2,
                                             z.shape)).tolist() == [0]


def test_maxpool_5x5_drops_edges(rng):
    x = rng.standard_normal((1, 1, 5, 5))
    y, route = pool_routed(x, 2, 2)
    assert y.shape == (1, 1, 2, 2)
    assert out_size(5, 2, 2) == 2
    gx = maxpool2d_backward(route, np.ones_like(y), 2, 2, x.shape)
    # bottom row / right col never referenced; each window routes to one entry
    assert not gx[0, 0, 4, :].any() and not gx[0, 0, :, 4].any()
    assert np.count_nonzero(gx) == 4


def test_maxpool_backward_routes():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    _, route = pool_routed(x, 2, 2)
    gx = maxpool2d_backward(route, np.ones((1, 1, 1, 1)), 2, 2, x.shape)
    assert np.array_equal(gx[0, 0], [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(maxpool2d_backward(route, np.zeros((1, 1, 1, 1)), 2, 2, x.shape),
                          np.zeros((1, 1, 2, 2)))


def test_maxpool_grad_conservation(rng):
    x = rng.standard_normal((1, 2, 8, 8))
    y, route = pool_routed(x, 2, 2)
    gy = rng.standard_normal(y.shape)
    gx = maxpool2d_backward(route, gy, 2, 2, x.shape)
    # non-overlapping windows: routing is a permutation, sums exactly equal
    assert math.fsum(gx.ravel()) == math.fsum(gy.ravel())


def test_maxpool_overlapping_conservation(rng):
    x = rng.standard_normal((1, 1, 8, 8))
    y, route = pool_routed(x, 3, 2)
    gy = rng.standard_normal(y.shape)
    gx = maxpool2d_backward(route, gy, 3, 2, x.shape)
    assert abs(math.fsum(gx.ravel()) - math.fsum(gy.ravel())) < 1e-12


def test_maxpool_stale_grad_out(rng):
    """A grad_out or route that is not the pool output of the input shape
    (of another input size, window or channel count) raises rather than
    being routed."""
    x = rng.standard_normal((1, 1, 6, 6))
    _, route = pool_routed(x, 2, 2)
    with pytest.raises(ShapeError):
        maxpool2d_backward(route, np.ones((1, 1, 2, 2)), 2, 2, x.shape)
    with pytest.raises(ShapeError):
        maxpool2d_backward(route, np.ones((1, 1, 3, 3)), 3, 3, x.shape)
    with pytest.raises(ShapeError):
        maxpool2d_backward(route, np.ones((1, 2, 3, 3)), 2, 2, x.shape)
    with pytest.raises(ShapeError):
        maxpool2d_backward(route, np.ones((1, 1, 3, 3)), 2, 2, (1, 1, 8, 8))
    with pytest.raises(ShapeError):
        maxpool2d_backward(route.astype(np.int64), np.ones((1, 1, 3, 3)), 2, 2, x.shape)


def test_maxpool_route_holds_at_most_256_taps(rng):
    """A uint8 route numbers taps 0..255: a 16x16 window routes, a 17x17
    one is refused when a route is asked for and pools without one."""
    x = rng.standard_normal((1, 1, 17, 17))
    _, route = pool_routed(x[:, :, :16, :16], 16, 16)
    assert route.item() == int(np.argmax(x[0, 0, :16, :16]))
    with pytest.raises(ShapeError, match="uint8 route"):
        maxpool2d_forward(x, 17, 17, route=True)
    assert maxpool2d_forward(x, 17, 17).item() == x.max()


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 2), c=st.integers(1, 3), k=st.integers(1, 4), s=st.integers(1, 4),
       dh=st.integers(0, 14), dw=st.integers(0, 14), ties=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
@example(n=2, c=3, k=3, s=2, dh=14, dw=14, ties=True, dtype=np.float32, seed=0)  # overlapping
@example(n=1, c=2, k=2, s=3, dh=14, dw=11, ties=True, dtype=np.float64, seed=1)  # gaps
@example(n=2, c=1, k=4, s=1, dh=14, dw=14, ties=False, dtype=np.float32, seed=2)
def test_maxpool_matches_brute_force_bit_for_bit(n, c, k, s, dh, dw, ties, dtype, seed):
    """Output, route and gradient equal the first-occurrence oracle bit for
    bit for k < s, k = s and k > s, h and w in [k, 14]. Tied inputs are
    small integers and signed zeros (a zero max reads +0.0); grad_out holds
    signed zeros too."""
    r = np.random.default_rng(seed)
    shape = (n, c, k + dh % (15 - k), k + dw % (15 - k))
    if ties:
        x = r.choice(np.array([-0.0, 0.0, 1.0, -2.0]), shape).astype(dtype)
    else:
        x = r.standard_normal(shape).astype(dtype)
    want_y, arg = brute_pool(x, k, s)
    y, route = pool_routed(x, k, s)
    assert y.dtype == dtype and y.tobytes() == want_y.tobytes()
    assert np.array_equal(route, oracle_taps(arg, k, s, shape[3]))
    g = r.standard_normal(y.shape).astype(dtype)
    g[r.random(g.shape) < 0.3] = -0.0
    g[r.random(g.shape) < 0.1] = 0.0
    gx = maxpool2d_backward(route, g, k, s, x.shape)
    assert gx.dtype == dtype
    assert gx.tobytes() == scatter_pool_grad(arg, g, x.shape[2:]).tobytes()


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 2), c=st.integers(1, 3), k=st.integers(1, 4), s=st.integers(1, 4),
       dh=st.integers(0, 14), dw=st.integers(0, 14), values=st.sampled_from(["ties", "normal"]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
@example(n=2, c=3, k=3, s=2, dh=14, dw=14, values="ties", dtype=np.float32, seed=0)  # k > s
@example(n=1, c=2, k=2, s=2, dh=14, dw=11, values="ties", dtype=np.float64, seed=1)  # k = s
@example(n=2, c=1, k=2, s=3, dh=13, dw=14, values="ties", dtype=np.float32, seed=3)  # k < s
def test_fused_relu_pool_backward_matches_masked_scatter(n, c, k, s, dh, dw, values, dtype,
                                                          seed):
    """A pool over a relu's output, routed with that relu's mask (the pool
    output > 0), gives bit for bit relu_backward of the oracle's scatter:
    ties, signed zeros and all-zero windows (most of the tied inputs are
    <= 0), k <= s and k > s, both precisions."""
    r = np.random.default_rng(seed)
    shape = (n, c, k + dh % (15 - k), k + dw % (15 - k))
    if values == "ties":
        pre = r.choice(np.array([-0.0, 0.0, -1.0, 1.0, -2.0, 2.0]), shape,
                       p=[0.3, 0.3, 0.15, 0.1, 0.1, 0.05]).astype(dtype)
    else:
        pre = r.standard_normal(shape).astype(dtype)
    x = relu_forward(pre.copy())
    want_y, arg = brute_pool(x, k, s)
    y, route = pool_routed(x, k, s)
    assert y.tobytes() == want_y.tobytes()
    g = r.standard_normal(y.shape).astype(dtype)
    g[r.random(g.shape) < 0.3] = -0.0
    g[r.random(g.shape) < 0.1] = 0.0
    want = relu_backward(x, scatter_pool_grad(arg, g, x.shape[2:]))
    got = maxpool2d_backward(route, g, k, s, x.shape, relu_out=y)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k,s", [(2, 2), (3, 2), (3, 1)])
def test_maxpool_forward_allocates_only_its_output(rng, k, s):
    """The uncached forward keeps no index map. Beyond its output it
    allocates, one at a time, numpy's ufunc buffer (np.getbufsize()
    elements, for the strided tap views) and the finiteness check's one
    byte per output element, plus a small constant. A uint8 window offset
    kept while the taps run would exceed this bound. The cached forward
    adds its uint8 route and one reused uint8 buffer of the output's
    shape, no per-tap temporary."""
    x = rng.standard_normal((1, 8, 256, 256)).astype(np.float32)
    peak, out = _traced_peak(lambda: [maxpool2d_forward(x, k, s)])
    assert peak <= out + max(out // x.itemsize, np.getbufsize() * x.itemsize) + 4096
    peak, both = _traced_peak(lambda: maxpool2d_forward(x, k, s, route=True))
    route = both - out
    assert route == out // x.itemsize
    assert peak <= out + 2 * route + max(route, np.getbufsize() * x.itemsize) + 4096


@pytest.mark.parametrize("k,s", [(2, 2), (3, 3), (2, 3)])
def test_maxpool_backward_allocates_no_per_tap_temporaries(rng, k, s):
    """With disjoint windows (k <= s) the backward writes each tap's routed
    values straight into the gradient. Beyond the gradient it holds the
    normalised grad_out (one output), one boolean output mask of the taps'
    hits, with a relu's mask one more, and numpy's ufunc buffers (a cast
    and a strided output), plus a small constant: within two outputs,
    three boolean masks and one ufunc buffer. A mask kept per tap, or a
    grad_out * hit product, would exceed this bound."""
    x = rng.standard_normal((1, 8, 255, 255)).astype(np.float32)
    y, route = maxpool2d_forward(x, k, s, route=True)
    g = rng.standard_normal(y.shape).astype(np.float32)
    for relu_out in (None, y):
        peak, gx = _traced_peak(lambda: [maxpool2d_backward(route, g, k, s, x.shape, relu_out)])
        assert peak <= gx + 2 * g.nbytes + 3 * g.size + np.getbufsize() * x.itemsize + 4096


# --- relu ----------------------------------------------------------------

def test_relu_values():
    x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
    out = relu_forward(x.copy())
    assert np.array_equal(out.ravel(), [0.0, 0.0, 2.0])
    g = relu_backward(out, np.full_like(out, 5.0))
    assert np.array_equal(g.ravel(), [0.0, 0.0, 5.0])  # gradient at 0 is 0


def test_relu_finite_differences(rng):
    x = rng.standard_normal((1, 1, 4, 4)) + 0.5
    x[np.abs(x) < 0.05] = 0.3  # keep away from the kink
    proj = rng.standard_normal(x.shape)

    def loss():
        return float((relu_forward(x.copy()) * proj).sum())

    out = relu_forward(x.copy())
    g = relu_backward(out, proj)
    for idx in range(x.size):
        fd = fd_scalar(loss, x, idx)
        assert abs(fd - g.flat[idx]) <= 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_matches_where_bit_for_bit(rng, dtype):
    """Out of place, in place and on strided views the gradient has
    np.where's bits: +0.0 wherever out <= 0 (an infinite gradient there
    included), the incoming gradient, a -0.0 included, wherever out > 0."""
    x = rng.standard_normal((2, 3, 5, 7)).astype(dtype)
    x[0, 0, 0, :4] = [0.0, -0.0, 1.0, -1.0]
    out = relu_forward(x.copy())
    grad = rng.standard_normal(x.shape).astype(dtype)
    grad[0, 0, 0, :4] = [-0.0, -0.0, -0.0, -np.inf]
    grad.flat[::5] = -0.0
    want = np.where(out > 0, grad, dtype(0))
    keep = grad.copy()
    assert relu_backward(out, grad).tobytes() == want.tobytes()
    assert grad.tobytes() == keep.tobytes()
    view = (slice(None), slice(None), slice(1, None, 2), slice(None, None, 3))
    assert relu_backward(out[view], grad[view]).tobytes() == want[view].tobytes()
    got = relu_backward(out[view], grad[view], inplace=True)
    assert got.base is grad and got.tobytes() == want[view].tobytes()
    got = relu_backward(out, grad, inplace=True)
    assert got is grad and got.tobytes() == want.tobytes()


# --- dense / flatten -----------------------------------------------------

def test_dense_zero_weights_is_bias(rng):
    x = rng.standard_normal((1, 7))
    p = Params(np.zeros((1, 7)), np.array([0.37]))
    assert dense_forward(x, p)[0, 0] == 0.37


def test_dense_one_hot_selects_feature(rng):
    x = rng.standard_normal((1, 5))
    w = np.zeros((1, 5))
    w[0, 3] = 1.0
    assert dense_forward(x, Params(w, np.zeros(1)))[0, 0] == x[0, 3]


def test_dense_backward_fd(rng):
    x = rng.standard_normal((2, 6))
    w = rng.standard_normal((3, 6))
    b = rng.standard_normal(3)
    proj = rng.standard_normal((2, 3))

    def loss():
        return float((dense_forward(x, Params(w, b)) * proj).sum())

    acc = Params(np.zeros_like(w), np.zeros_like(b))
    gx = dense_input_grad(Params(w, b), proj)
    dense_backward(x, proj, acc)
    gw, gb = acc.w, acc.b
    for arr, grad in ((x, gx), (w, gw), (b, gb)):
        for idx in range(arr.size):
            fd = fd_scalar(loss, arr, idx)
            assert abs(fd - grad.flat[idx]) <= 1e-6 * max(1.0, abs(fd))


def test_dense_backward_adds_into_acc_one_row_at_a_time(rng):
    """The parameter gradients allocate one weight row at a time (plus a
    small constant), never an (out, in) weight gradient, and add onto what
    acc already holds."""
    x = rng.standard_normal((1, 16384)).astype(np.float32)
    p = Params(rng.standard_normal((16, 16384)).astype(np.float32), np.zeros(16, np.float32))
    proj = rng.standard_normal((1, 16)).astype(np.float32)
    acc = Params(rng.standard_normal(p.w.shape).astype(np.float32), np.ones(16, np.float32))
    want_w = acc.w + np.einsum("no,nf->of", proj, x)
    want_b = acc.b + proj[0]
    peak, _ = _traced_peak(lambda: dense_backward(x, proj, acc) or [])
    assert peak <= p.w[0].nbytes + 4096
    assert np.array_equal(acc.w, want_w) and np.array_equal(acc.b, want_b)


# --- bce -----------------------------------------------------------------

def test_bce_at_zero():
    loss, grad = bce_with_logits(np.float64(0.0), 1)
    assert loss == pytest.approx(math.log(2), rel=1e-12)
    assert grad == -0.5


def test_bce_saturates():
    loss, _ = bce_with_logits(np.float64(40.0), 1)
    assert 0 <= loss < 1e-15


def test_bce_fd():
    x = np.float64(0.3)
    loss0, grad = bce_with_logits(x, 0)
    eps = 1e-6
    hi, _ = bce_with_logits(x + eps, 0)
    lo, _ = bce_with_logits(x - eps, 0)
    fd = (hi - lo) / (2 * eps)
    assert abs(fd - grad) / abs(grad) <= 1e-8


def test_bce_label_domain():
    with pytest.raises(ShapeError):
        bce_with_logits(np.float64(0.0), 2)


# --- properties ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(z=st.integers(1, 40), k=st.integers(1, 7), s=st.integers(1, 3), p=st.integers(0, 6))
def test_shape_law(z, k, s, p):
    if p >= k or z + 2 * p < k:
        return
    x = np.zeros((1, 1, z, z))
    spec = Conv(1, k, s, p, c_in=1)
    y = conv2d_forward(x, spec, Params(np.zeros((1, 1, k, k)), np.zeros(1)))
    expect = (z + 2 * p - k) // s + 1
    assert y.shape == (1, 1, expect, expect)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.sampled_from([1, 2, 3, 5]),
       s=st.sampled_from([1, 2]))
def test_per_pixel_determinism(seed, k, s):
    """Cropping any receptive field reproduces the output pixel bit-exactly."""
    r = np.random.default_rng(seed)
    z = int(r.integers(k + s + 2, 20))
    x = r.standard_normal((1, 2, z, z))
    w = r.standard_normal((3, 2, k, k))
    b = r.standard_normal(3)
    spec = Conv(3, k, s, 0, c_in=2)
    full = conv2d_forward(x, spec, Params(w, b))
    oh = full.shape[2]
    oy, ox = int(r.integers(0, oh)), int(r.integers(0, oh))
    crop = x[:, :, oy * s: oy * s + k, ox * s: ox * s + k]
    one = conv2d_forward(crop, spec, Params(w, b))
    assert one[0, :, 0, 0].tobytes() == full[0, :, oy, ox].tobytes()


# --- tile reproducibility, workspace, single-precision backward ----------

def _crop_rows(o0, o1, k, s, pad, size):
    """Input rows [lo, hi) an output span [o0, o1) reads, and the zero pads
    it needs where it crosses the image border (as a streaming tile does)."""
    start, stop = o0 * s - pad, (o1 - 1) * s + k - pad
    return max(0, start), min(size, stop), max(0, -start), max(0, stop - size)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 2), c_in=st.integers(1, 40), c_out=st.integers(1, 40),
       k=st.integers(1, 5), s=st.integers(1, 3), pads=st.tuples(*[st.integers(0, 4)] * 4),
       h=st.integers(1, 40), w=st.integers(1, 40), crop=st.tuples(*[st.integers(0, 999)] * 4),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
@example(n=1, c_in=3, c_out=5, k=3, s=1, pads=(1, 1, 1, 1), h=5, w=7, crop=(1, 2, 3, 1),
         dtype=np.float32, seed=0)  # 35 output positions: fewer than one block
@example(n=2, c_in=7, c_out=9, k=3, s=1, pads=(1, 0, 2, 1), h=13, w=11, crop=(5, 3, 2, 7),
         dtype=np.float32, seed=1)  # 12 x 12 = 144 positions: two blocks and a tail
@example(n=1, c_in=2, c_out=3, k=2, s=2, pads=(0, 1, 1, 0), h=40, w=40, crop=(3, 17, 0, 999),
         dtype=np.float64, seed=2)  # 20 x 20 = 400 positions, several bands
def test_conv_forward_crop_bit_exact(n, c_in, c_out, k, s, pads, h, w, crop, dtype, seed):
    """Any crop with border-only padding reproduces its outputs bit for bit,
    given as a copy or as a view of the map, as tiles pass it."""
    pt, pb, pl, pr = (p % k for p in pads)
    h, w = max(h, k - pt - pb), max(w, k - pl - pr)
    r = np.random.default_rng(seed)
    x = r.standard_normal((n, c_in, h, w)).astype(dtype)
    params = Params(r.standard_normal((c_out, c_in, k, k)).astype(dtype),
                        r.standard_normal(c_out).astype(dtype))
    spec = Conv(c_out, k, s, 0, c_in=c_in)
    whole = conv2d_forward(x, spec, params, (pt, pb, pl, pr))
    oh, ow = whole.shape[2:]
    a0 = crop[0] % oh
    a1 = a0 + 1 + crop[1] % (oh - a0)
    b0 = crop[2] % ow
    b1 = b0 + 1 + crop[3] % (ow - b0)
    y0, y1, ct, cb = _crop_rows(a0, a1, k, s, pt, h)
    x0, x1, cl, cr = _crop_rows(b0, b1, k, s, pl, w)
    want = np.ascontiguousarray(whole[:, :, a0:a1, b0:b1]).tobytes()
    for crop_x in (np.ascontiguousarray(x[:, :, y0:y1, x0:x1]), x[:, :, y0:y1, x0:x1]):
        assert conv2d_forward(crop_x, spec, params, (ct, cb, cl, cr)).tobytes() == want


def _traced_peak(fn):
    tracemalloc.start()
    try:
        results = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in results)


def _band_workspace(c, c_out, k, h, w, pads, item, reduces=False, copied=False):
    """Bytes one stride-1 correlation's bands may take, as (staging, rest):
    the staging buffer of a band's padded source rows (none without pads),
    and its im2col columns and result buffer, both whole _BLOCKs wide; a
    pass that reduces into a (K, c_out) accumulator adds its product and
    accumulator and, when copied, its copy of a band of the operand. The
    rows per band follow the rule of layers._band_rows, written out again."""
    kk = c * k * k
    least = -(-_BAND_MIN // w)
    rows = min(h, max(c_out * h // (_BAND_DIV * kk), least))
    reduction = 0
    if reduces:
        rows = max(1, min(least, c_out * h // kk, h),
                   kk * (rows * w - 2 * c_out) // ((kk + c_out * copied) * w))
        reduction = 2 * kk * c_out + copied * c_out * rows * w
    band = -(-rows * w // _BLOCK) * _BLOCK
    pt, pb, pl, pr = pads
    staging = c * (rows - 1 + k) * (w + pl + pr) if any(pads) else 0
    return staging * item, ((kk + c_out) * band + reduction) * item


@pytest.mark.parametrize("shape,c_out,pads,view", [
    pytest.param((1, 4, 256, 256), 4, (1, 1, 1, 1), False, id="shape0-4"),
    pytest.param((1, 32, 32, 32), 32, (1, 1, 1, 1), False, id="shape1-32"),
    pytest.param((1, 4, 256, 256), 4, (1, 0, 0, 1), False, id="shape0-4-border-pads"),
    pytest.param((1, 4, 256, 256), 4, (1, 1, 1, 1), True, id="shape0-4-crop-view"),
    pytest.param((1, 32, 32, 32), 32, (1, 0, 0, 1), True, id="shape1-32-crop-view"),
    # the backward's reduction keeps its floor of two rows, not one
    pytest.param((1, 8, 128, 128), 16, (1, 1, 1, 1), True, id="shape2-16-crop-view")])
def test_conv_workspace_within_band_policy(rng, shape, c_out, pads, view):
    """Beyond their results the four conv kernels allocate at most the
    documented workspace, one band pass at a time (see _band_workspace);
    the input gradient's source is grad_out padded by k - 1 - pad. A crop
    view of a larger map, whose bands of rows are not contiguous, keeps the
    same bounds."""
    n, c, h, w = shape
    k, item = 3, 4
    pt, pb, pl, pr = pads
    x = rng.standard_normal(shape).astype(np.float32)
    if view:
        x = np.pad(x, ((0, 0), (0, 0), (2, 1), (3, 2)))[:, :, 2 : 2 + h, 3 : 3 + w]
    params = Params(rng.standard_normal((c_out, c, k, k)).astype(np.float32),
                        np.zeros(c_out, np.float32))
    spec = Conv(c_out, k, 1, 1, c_in=c)
    oh, ow = h + pt + pb - k + 1, w + pl + pr - k + 1
    grad = rng.standard_normal((n, c_out, oh, ow)).astype(np.float32)
    slack = 16 * 1024  # Python objects and views
    staging, rest = _band_workspace(c, c_out, k, oh, ow, pads, item)
    fwd_peak, fwd_out = _traced_peak(lambda: [conv2d_forward(x, spec, params, pads)])
    assert fwd_peak - fwd_out <= staging + rest + slack
    # the weight gradient alone runs the forward's bands, sized as a
    # reduction into a (K, c_out) accumulator over grad_out's rows
    pg_peak, pg_out = _traced_peak(lambda: conv2d_param_grad(x, spec, grad, pads))
    assert pg_peak - pg_out <= sum(_band_workspace(c, c_out, k, oh, ow, pads, item, True)) + slack
    # the input gradient runs its own bands and also holds the flipped
    # weights, one (c_out, K) matrix
    gpads = (k - 1 - pt, h + pt - oh, k - 1 - pl, w + pl - ow)
    gx_bands = sum(_band_workspace(c_out, c, k, h, w, gpads, item))
    flipped = c * c_out * k * k * item
    gx_peak, gx_out = _traced_peak(lambda: [conv2d_input_grad(grad, spec, params, (h, w), pads)])
    assert gx_peak - gx_out <= gx_bands + flipped + slack
    # the backward runs the input gradient's bands, sized as a reduction
    # into a (K, c) accumulator over x's rows, copied band by band from a
    # crop view
    bwd = sum(_band_workspace(c_out, c, k, h, w, gpads, item, True, view)) + flipped
    bwd_peak, bwd_out = _traced_peak(lambda: conv2d_backward(x, spec, params, grad, pads))
    assert bwd_peak - bwd_out <= bwd + slack
    # a whole-map padded copy in place of the staging buffer, or the
    # whole-map im2col in place of the bands, would not fit the bounds
    assert n * c * (h + pt + pb) * (w + pl + pr) * item > staging + slack
    assert c * k * k * oh * ow * item > max(staging + rest, bwd) + slack


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 7), c=st.integers(1, 128), r=st.integers(1, 128),
       oh=st.integers(1, 600), ow=st.integers(1, 600), copied=st.booleans())
@example(k=3, c=16, r=8, oh=129, ow=129, copied=False)  # tiny2's conv-3 backward on a 2x2 tile
@example(k=5, c=64, r=1, oh=3, ow=2, copied=True)  # columns of one row exceed the operand
def test_band_rows_keep_the_floor_within_the_workspace(k, c, r, oh, ow, copied):
    """_band_rows, for a pass over (K, positions) columns, K = c * k * k,
    with r result channels: its rows lie in [1, oh]; a reduction into a
    (K, r) accumulator keeps at least min(ceil(_BAND_MIN / ow), r * oh // K,
    oh) rows; and its columns, product, accumulator and copy take at most
    the forward-shaped band's columns, or their own at that floor (one row
    at least), whose columns fit within one image of the operand (r, oh,
    ow) or one row (the layers module docstring, "Workspace")."""
    kk = c * k * k
    rows = layers._band_rows(kk, r, oh, ow)
    assert 1 <= rows <= oh
    reduced = layers._band_rows(kk, r, oh, ow, True, copied)
    assert 1 <= reduced <= oh
    floor = min(-(-_BAND_MIN // ow), r * oh // kk, oh)
    assert reduced >= floor
    if reduced * ow < _BAND_MIN and reduced < oh:
        assert kk * (reduced + 1) * ow > r * oh * ow  # one row more would not fit the operand

    def workspace(rows):
        return kk * rows * ow + 2 * kk * r + copied * r * rows * ow

    least = max(1, floor)
    assert kk * least * ow <= max(r * oh * ow, kk * ow)
    assert workspace(reduced) <= max(kk * rows * ow, workspace(least))


def _loop_conv_grads(x, w, g, stride, pads):
    """Float64 adjoint of brute_conv: the same index loops, run backwards."""
    n, ci, h, ww = x.shape
    co, _, k, _ = w.shape
    pt, pb, pl, pr = pads
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for ni in range(n):
        for o in range(co):
            for oy in range(g.shape[2]):
                for ox in range(g.shape[3]):
                    go = g[ni, o, oy, ox]
                    win = (ni, slice(None), slice(oy * stride, oy * stride + k),
                           slice(ox * stride, ox * stride + k))
                    gxp[win] += go * w[o]
                    gw[o] += go * xp[win]
    return gxp[:, :, pt:pt + h, pl:pl + ww], gw


def _abs_terms(x, w, g, stride, pads):
    """Per element of each gradient, the sum of its terms' magnitudes:
    _loop_conv_grads run on |x|, |w| and |g|. A gradient's rounding error
    is bounded by a multiple of it, while a sum of cancelling terms can be
    far smaller than its sup-norm, so the oracle tests gate each element
    against tol times this sum."""
    return _loop_conv_grads(np.abs(x), np.abs(w), np.abs(g), stride, pads)


@pytest.mark.parametrize("n,k,s,pads", [(2, 3, 2, (1, 0, 2, 1)), (2, 2, 1, (0, 1, 1, 0)),
                                        (1, 5, 2, (2, 1, 0, 3)), (2, 3, 1, (1, 1, 1, 1))])
def test_conv_single_precision_backward_matches_oracle(rng, n, k, s, pads):
    ci, co, h, w = 3, 4, 19, 17
    x = rng.standard_normal((n, ci, h, w))
    wt = rng.standard_normal((co, ci, k, k))
    spec = Conv(co, k, s, 0, c_in=ci)
    pt, pb, pl, pr = pads
    g = rng.standard_normal(conv2d_forward(x, spec, Params(wt, np.zeros(co)), pads).shape)
    want_x, want_w = _loop_conv_grads(x, wt, g, s, pads)
    # the oracle is brute_conv's adjoint: <brute_conv(x), g> == <want_w, wt>
    y = brute_conv(np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr))), wt, np.zeros(co), s, 0)
    assert abs((y * g).sum() - (want_w * wt).sum()) <= 1e-9 * np.abs(y * g).sum()
    f32 = np.float32
    got_x = conv2d_input_grad(g.astype(f32), spec, Params(wt.astype(f32), np.zeros(co, f32)),
                              (h, w), pads)
    got_w, got_b = conv2d_param_grad(x.astype(f32), spec, g.astype(f32), pads)
    fused = conv2d_backward(x.astype(f32), spec, Params(wt.astype(f32), np.zeros(co, f32)),
                            g.astype(f32), pads)
    want_b = g.sum(axis=(0, 2, 3))
    for got, want in ((got_x, want_x), (got_w, want_w), (got_b, want_b),
                      *zip(fused, (want_x, want_w, want_b))):
        assert got.dtype == f32 and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2), c_in=st.integers(1, 8), c_out=st.integers(1, 8),
       k=st.integers(1, 5), s=st.integers(1, 3), pads=st.tuples(*[st.integers(0, 4)] * 4),
       h=st.integers(1, 40), w=st.integers(1, 24),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
@example(n=1, c_in=3, c_out=2, k=3, s=1, pads=(1, 0, 0, 2), h=4, w=3,
         dtype=np.float64, seed=0)  # a map smaller than one band
@example(n=2, c_in=2, c_out=8, k=3, s=1, pads=(1, 1, 0, 1), h=40, w=20,
         dtype=np.float32, seed=1)  # bands of 13 input rows: 13, 13, 13, 1
@example(n=1, c_in=4, c_out=3, k=5, s=3, pads=(4, 0, 2, 3), h=39, w=23,
         dtype=np.float32, seed=2)  # stuffed at stride 3, unread bottom rows
def test_conv_input_grad_matches_loop_oracle(n, c_in, c_out, k, s, pads, h, w, dtype, seed):
    """The input gradient, a correlation of the stuffed, padded grad_out,
    matches the adjoint loops of brute_conv in both precisions."""
    pt, pb, pl, pr = (p % k for p in pads)
    h, w = max(h, k - pt - pb), max(w, k - pl - pr)
    r = np.random.default_rng(seed)
    wt = r.standard_normal((c_out, c_in, k, k))
    oh, ow = out_size(h + pt + pb, k, s), out_size(w + pl + pr, k, s)
    g = r.standard_normal((n, c_out, oh, ow))
    zeros = np.zeros((n, c_in, h, w))
    want, _ = _loop_conv_grads(zeros, wt, g, s, (pt, pb, pl, pr))
    terms, _ = _abs_terms(zeros, wt, g, s, (pt, pb, pl, pr))
    spec = Conv(c_out, k, s, 0, c_in=c_in)
    got = conv2d_input_grad(g.astype(dtype), spec,
                            Params(wt.astype(dtype), np.zeros(c_out, dtype)),
                            (h, w), (pt, pb, pl, pr))
    assert got.dtype == dtype and got.shape == want.shape
    tol = 1e-5 if dtype == np.float32 else 1e-12
    assert np.all(np.abs(got - want) <= tol * terms)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2), c_in=st.integers(1, 8), c_out=st.integers(1, 8),
       k=st.integers(1, 5), s=st.integers(1, 3), pads=st.tuples(*[st.integers(0, 4)] * 4),
       h=st.integers(1, 40), w=st.integers(1, 24), view=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
@example(n=2, c_in=1, c_out=4, k=3, s=1, pads=(1, 0, 1, 0), h=40, w=24, view=True,
         dtype=np.float32, seed=0)  # map 0 of a corner tile: a crop view, several bands
@example(n=1, c_in=8, c_out=8, k=3, s=1, pads=(1, 1, 1, 1), h=7, w=5, view=False,
         dtype=np.float64, seed=1)  # a map smaller than one band
@example(n=1, c_in=3, c_out=2, k=5, s=3, pads=(4, 0, 2, 3), h=39, w=23, view=True,
         dtype=np.float32, seed=2)  # stride 3 with unread bottom rows
@example(n=2, c_in=6, c_out=1, k=5, s=1, pads=(0, 4, 0, 2), h=4, w=14, view=False,
         dtype=np.float32, seed=5)  # a bias whose 96 terms cancel to 1e-4 of their sum
def test_conv_param_grad_matches_loop_oracle(n, c_in, c_out, k, s, pads, h, w, view, dtype,
                                             seed):
    """The weight and bias gradients, the reduction-only band pass over x's
    columns against grad_out's rows, match the float64 adjoint loops of
    brute_conv in both precisions, for contiguous inputs and for crop views
    of both (a view's rows of grad_out are copied band by band): each
    element within tol of the sum of its terms' magnitudes (_abs_terms)."""
    pt, pb, pl, pr = (p % k for p in pads)
    h, w = max(h, k - pt - pb), max(w, k - pl - pr)
    r = np.random.default_rng(seed)
    big = r.standard_normal((n, c_in, h + 3, w + 2)).astype(dtype)
    x = big[:, :, 1 : 1 + h, 2 : 2 + w] if view else np.ascontiguousarray(big[:, :, :h, :w])
    oh, ow = out_size(h + pt + pb, k, s), out_size(w + pl + pr, k, s)
    gbig = r.standard_normal((n, c_out, oh + 2, ow + 1)).astype(dtype)
    g = gbig[:, :, 2:, 1:] if view else np.ascontiguousarray(gbig[:, :, :oh, :ow])
    x64, g64, zeros = x.astype(np.float64), g.astype(np.float64), np.zeros((c_out, c_in, k, k))
    _, want_w = _loop_conv_grads(x64, zeros, g64, s, (pt, pb, pl, pr))
    _, terms_w = _abs_terms(x64, zeros, g64, s, (pt, pb, pl, pr))
    want_b, terms_b = g64.sum(axis=(0, 2, 3)), np.abs(g64).sum(axis=(0, 2, 3))
    got_w, got_b = conv2d_param_grad(x, Conv(c_out, k, s, 0, c_in=c_in), g, (pt, pb, pl, pr))
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for got, want, terms in ((got_w, want_w, terms_w), (got_b, want_b, terms_b)):
        assert got.dtype == dtype and got.shape == want.shape and got.flags.c_contiguous
        assert np.all(np.abs(got - want) <= tol * terms)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2), c_in=st.integers(1, 12), c_out=st.integers(1, 24),
       k=st.integers(1, 5), s=st.integers(1, 3), pads=st.tuples(*[st.integers(0, 4)] * 4),
       h=st.integers(1, 40), w=st.integers(1, 24), view=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
@example(n=2, c_in=6, c_out=5, k=3, s=1, pads=(1, 1, 1, 1), h=40, w=13, view=True,
         dtype=np.float32, seed=0)  # a crop view's bands, copied, across images
@example(n=1, c_in=4, c_out=3, k=5, s=3, pads=(4, 0, 2, 3), h=39, w=23, view=False,
         dtype=np.float64, seed=1)  # stuffed at stride 3, unread bottom rows
def test_fused_conv_backward_matches_the_separate_kernels(n, c_in, c_out, k, s, pads, h, w,
                                                          view, dtype, seed):
    """conv2d_backward's one band pass gives conv2d_input_grad's input
    gradient bit for bit, and conv2d_param_grad's weight and bias gradients
    within the package's gradient tolerance of the sum of each element's
    terms' magnitudes (_abs_terms), for contiguous inputs and crop views."""
    pt, pb, pl, pr = (p % k for p in pads)
    h, w = max(h, k - pt - pb), max(w, k - pl - pr)
    r = np.random.default_rng(seed)
    big = r.standard_normal((n, c_in, h + 3, w + 2)).astype(dtype)
    x = big[:, :, 1 : 1 + h, 2 : 2 + w] if view else np.ascontiguousarray(big[:, :, :h, :w])
    params = Params(r.standard_normal((c_out, c_in, k, k)).astype(dtype), np.zeros(c_out, dtype))
    spec = Conv(c_out, k, s, 0, c_in=c_in)
    pads = (pt, pb, pl, pr)
    g = r.standard_normal((n, c_out, out_size(h + pt + pb, k, s),
                           out_size(w + pl + pr, k, s))).astype(dtype)
    gx, gw, gb = conv2d_backward(x, spec, params, g, pads)
    assert gx.tobytes() == conv2d_input_grad(g, spec, params, (h, w), pads).tobytes()
    tol = default_tolerances("single" if dtype == np.float32 else "double")["grad"]
    g64 = g.astype(np.float64)
    _, terms_w = _abs_terms(x.astype(np.float64), np.zeros(params.w.shape), g64, s, pads)
    terms = (terms_w, np.abs(g64).sum(axis=(0, 2, 3)))
    for got, want, term in zip((gw, gb), conv2d_param_grad(x, spec, g, pads), terms):
        assert got.dtype == dtype and got.shape == want.shape and got.flags.c_contiguous
        assert np.all(np.abs(got - want) <= tol * term)


@pytest.mark.parametrize("s,pads,view", [(1, (1, 1, 1, 1), False), (2, (1, 0, 0, 2), True),
                                          (1, (0, 0, 0, 0), True)])
def test_every_conv_kernel_is_one_band_pass(rng, monkeypatch, s, pads, view):
    """_correlate is the only caller of the column builder _bands, and each
    of the four conv kernels builds its columns in exactly one band pass."""
    callers = []
    bands = layers._bands

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return bands(*args)

    monkeypatch.setattr(layers, "_bands", counted)
    big = rng.standard_normal((2, 3, 23, 21))
    x = big[:, :, 1:20, 2:19] if view else np.ascontiguousarray(big[:, :, :19, :17])
    spec = Conv(4, 3, s, 0, c_in=3)
    params = Params(rng.standard_normal((4, 3, 3, 3)), np.zeros(4))
    g = rng.standard_normal(conv2d_forward(x, spec, params, pads).shape)
    for name, call in (("forward", lambda: conv2d_forward(x, spec, params, pads)),
                       ("input_grad", lambda: conv2d_input_grad(g, spec, params, (19, 17), pads)),
                       ("param_grad", lambda: conv2d_param_grad(x, spec, g, pads)),
                       ("backward", lambda: conv2d_backward(x, spec, params, g, pads))):
        callers.clear()
        call()
        assert callers == ["_correlate"], name


def test_maxpool_backward_matches_per_map_scatter():
    """Tap-by-tap routing gives the bits of a per-(n, c) scatter at a
    brute-force first-occurrence argmax, with overlapping windows (k=3,
    s=2) and ties."""
    r = np.random.default_rng(7)
    x = r.integers(0, 3, (2, 3, 11, 9)).astype(np.float32)  # many ties
    want_y, arg = brute_pool(x, 3, 2)
    y, route = pool_routed(x, 3, 2)
    assert y.tobytes() == want_y.tobytes()
    gy = r.standard_normal(arg.shape).astype(np.float32)
    got = maxpool2d_backward(route, gy, 3, 2, x.shape)
    assert got.tobytes() == scatter_pool_grad(arg, gy, (11, 9)).tobytes()
