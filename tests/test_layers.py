import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from tilestream.errors import NonFiniteError, ShapeError
from tilestream.layers import (
    _BAND_DIV,
    _BAND_MIN,
    _BLOCK,
    ConvParams,
    ConvSpec,
    bce_with_logits,
    conv2d_backward,
    conv2d_forward,
    conv2d_input_grad,
    conv2d_param_grad,
    dense_backward,
    dense_forward,
    DenseParams,
    maxpool2d_backward,
    maxpool2d_forward,
    out_size,
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
    p = ConvParams(np.ones((1, 1, 3, 3)), np.zeros(1))
    y = conv2d_forward(x, ConvSpec(3, 1, 0, 1, 1), p)
    assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == 9.0


def test_conv_identity_kernel_exact(rng):
    x = rng.standard_normal((2, 3, 6, 6))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    y = conv2d_forward(x, ConvSpec(1, 1, 0, 3, 3), ConvParams(w, np.zeros(3)))
    assert np.array_equal(y, x)


def test_conv_2x2_stride2_blocks():
    x = np.arange(1, 17, dtype=np.float64).reshape(1, 1, 4, 4)
    p = ConvParams(np.ones((1, 1, 2, 2)), np.zeros(1))
    y = conv2d_forward(x, ConvSpec(2, 2, 0, 1, 1), p)
    assert np.array_equal(y[0, 0], [[14.0, 22.0], [46.0, 54.0]])
    assert np.array_equal(y, brute_conv(x, p.w, p.b, 2, 0))


def test_conv_matches_bruteforce(rng):
    for k, s, pad in [(3, 1, 1), (2, 2, 0), (5, 2, 1), (1, 1, 0)]:
        x = rng.standard_normal((1, 2, 9, 9))
        w = rng.standard_normal((3, 2, k, k))
        b = rng.standard_normal(3)
        spec = ConvSpec(k, s, pad, 2, 3)
        got = conv2d_forward(x, spec, ConvParams(w, b))
        want = brute_conv(x, w, b, s, pad)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv_errors(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    p = ConvParams(np.zeros((1, 3, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d_forward(x, ConvSpec(3, 1, 0, 3, 1), p)  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d_forward(x[:, :1], ConvSpec(5, 1, 0, 1, 1),
                       ConvParams(np.zeros((1, 1, 5, 5)), np.zeros(1)))  # kernel > input
    with pytest.raises(ShapeError):
        ConvSpec(3, 1, 3, 1, 1)  # pad >= kernel
    with pytest.raises(NonFiniteError):
        bad = x[:, :1].copy()
        bad[0, 0, 0, 0] = np.nan
        conv2d_forward(bad, ConvSpec(3, 1, 0, 1, 1),
                       ConvParams(np.ones((1, 1, 3, 3)), np.zeros(1)))


def test_conv_mixed_dtype_rejected(rng):
    x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
    p = ConvParams(np.ones((1, 1, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d_forward(x, ConvSpec(3, 1, 0, 1, 1), p)


# --- conv2d_backward -----------------------------------------------------

def test_conv_backward_identity_kernel(rng):
    x = rng.standard_normal((1, 1, 5, 5))
    spec = ConvSpec(1, 1, 0, 1, 1)
    p = ConvParams(np.ones((1, 1, 1, 1)), np.zeros(1))
    gy = rng.standard_normal((1, 1, 5, 5))
    gx, gw, gb = conv2d_backward(x, spec, p, gy)
    assert np.array_equal(gx, gy)


def test_conv_backward_unit_example():
    x = np.ones((1, 1, 3, 3))
    spec = ConvSpec(3, 1, 0, 1, 1)
    p = ConvParams(np.ones((1, 1, 3, 3)), np.zeros(1))
    gy = np.ones((1, 1, 1, 1))
    _, gw, gb = conv2d_backward(x, spec, p, gy)
    assert np.array_equal(gw, np.ones((1, 1, 3, 3)))
    assert np.array_equal(gb, np.ones(1))


@pytest.mark.parametrize("k,s,pad", [(3, 1, 0), (1, 1, 0), (2, 2, 0), (3, 2, 1)])
def test_conv_backward_finite_differences(rng, k, s, pad):
    x = rng.standard_normal((1, 2, 7, 7))
    w = rng.standard_normal((2, 2, k, k))
    b = rng.standard_normal(2)
    spec = ConvSpec(k, s, pad, 2, 2)
    proj = None

    def loss():
        out = conv2d_forward(x, spec, ConvParams(w, b))
        return float((out * proj).sum())

    out0 = conv2d_forward(x, spec, ConvParams(w, b))
    proj = np.random.default_rng(0).standard_normal(out0.shape)
    gx, gw, gb = conv2d_backward(x, spec, ConvParams(w, b), proj.astype(x.dtype))
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
    spec = ConvSpec(3, 1, 1, 2, 2)
    a = 3.7
    y1 = conv2d_forward(a * x, spec, ConvParams(w, np.zeros(2)))
    y2 = a * conv2d_forward(x, spec, ConvParams(w, np.zeros(2)))
    assert np.allclose(y1, y2, rtol=1e-14, atol=1e-14)


# --- maxpool -------------------------------------------------------------

def test_maxpool_basic():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    y, arg = maxpool2d_forward(x, 2, 2)
    assert y[0, 0, 0, 0] == 4.0 and arg[0, 0, 0, 0] == 3


def test_maxpool_tie_first_occurrence():
    x = np.full((1, 1, 4, 4), 2.5)
    y, arg = maxpool2d_forward(x, 2, 2)
    assert np.all(y == 2.5)
    assert np.array_equal(arg[0, 0], [[0, 2], [8, 10]])  # top-left of each window


def test_maxpool_5x5_drops_edges(rng):
    x = rng.standard_normal((1, 1, 5, 5))
    y, arg = maxpool2d_forward(x, 2, 2)
    assert y.shape == (1, 1, 2, 2)
    assert out_size(5, 2, 2) == 2
    # bottom row / right col never referenced
    assert all(idx % 5 != 4 and idx // 5 != 4 for idx in arg.ravel())


def test_maxpool_backward_routes():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    _, arg = maxpool2d_forward(x, 2, 2)
    gx = maxpool2d_backward(arg, np.ones((1, 1, 1, 1)), (2, 2))
    assert np.array_equal(gx[0, 0], [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(maxpool2d_backward(arg, np.zeros((1, 1, 1, 1)), (2, 2)),
                          np.zeros((1, 1, 2, 2)))


def test_maxpool_grad_conservation(rng):
    x = rng.standard_normal((1, 2, 8, 8))
    _, arg = maxpool2d_forward(x, 2, 2)
    gy = rng.standard_normal(arg.shape)
    gx = maxpool2d_backward(arg, gy, (8, 8))
    # non-overlapping windows: scatter is a permutation, sums exactly equal
    assert math.fsum(gx.ravel()) == math.fsum(gy.ravel())


def test_maxpool_overlapping_conservation(rng):
    x = rng.standard_normal((1, 1, 8, 8))
    _, arg = maxpool2d_forward(x, 3, 2)
    gy = rng.standard_normal(arg.shape)
    gx = maxpool2d_backward(arg, gy, (8, 8))
    assert abs(math.fsum(gx.ravel()) - math.fsum(gy.ravel())) < 1e-12


def test_maxpool_stale_argmax(rng):
    x = rng.standard_normal((1, 1, 6, 6))
    _, arg = maxpool2d_forward(x, 2, 2)
    with pytest.raises(ShapeError):
        maxpool2d_backward(arg, np.ones(arg.shape), (2, 2))


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


# --- dense / flatten -----------------------------------------------------

def test_dense_zero_weights_is_bias(rng):
    x = rng.standard_normal((1, 7))
    p = DenseParams(np.zeros((1, 7)), np.array([0.37]))
    assert dense_forward(x, p)[0, 0] == 0.37


def test_dense_one_hot_selects_feature(rng):
    x = rng.standard_normal((1, 5))
    w = np.zeros((1, 5))
    w[0, 3] = 1.0
    assert dense_forward(x, DenseParams(w, np.zeros(1)))[0, 0] == x[0, 3]


def test_dense_backward_fd(rng):
    x = rng.standard_normal((2, 6))
    w = rng.standard_normal((3, 6))
    b = rng.standard_normal(3)
    proj = rng.standard_normal((2, 3))

    def loss():
        return float((dense_forward(x, DenseParams(w, b)) * proj).sum())

    gx, gw, gb = dense_backward(x, DenseParams(w, b), proj)
    for arr, grad in ((x, gx), (w, gw), (b, gb)):
        for idx in range(arr.size):
            fd = fd_scalar(loss, arr, idx)
            assert abs(fd - grad.flat[idx]) <= 1e-6 * max(1.0, abs(fd))


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
    spec = ConvSpec(k, s, p, 1, 1)
    y = conv2d_forward(x, spec, ConvParams(np.zeros((1, 1, k, k)), np.zeros(1)))
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
    spec = ConvSpec(k, s, 0, 2, 3)
    full = conv2d_forward(x, spec, ConvParams(w, b))
    oh = full.shape[2]
    oy, ox = int(r.integers(0, oh)), int(r.integers(0, oh))
    crop = x[:, :, oy * s: oy * s + k, ox * s: ox * s + k]
    one = conv2d_forward(crop, spec, ConvParams(w, b))
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
    """Any crop with border-only padding reproduces its outputs bit for bit."""
    pt, pb, pl, pr = (p % k for p in pads)
    h, w = max(h, k - pt - pb), max(w, k - pl - pr)
    r = np.random.default_rng(seed)
    x = r.standard_normal((n, c_in, h, w)).astype(dtype)
    params = ConvParams(r.standard_normal((c_out, c_in, k, k)).astype(dtype),
                        r.standard_normal(c_out).astype(dtype))
    spec = ConvSpec(k, s, 0, c_in, c_out)
    whole = conv2d_forward(x, spec, params, (pt, pb, pl, pr))
    oh, ow = whole.shape[2:]
    a0 = crop[0] % oh
    a1 = a0 + 1 + crop[1] % (oh - a0)
    b0 = crop[2] % ow
    b1 = b0 + 1 + crop[3] % (ow - b0)
    y0, y1, ct, cb = _crop_rows(a0, a1, k, s, pt, h)
    x0, x1, cl, cr = _crop_rows(b0, b1, k, s, pl, w)
    part = conv2d_forward(np.ascontiguousarray(x[:, :, y0:y1, x0:x1]), spec, params, (ct, cb, cl, cr))
    assert part.tobytes() == np.ascontiguousarray(whole[:, :, a0:a1, b0:b1]).tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        results = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in results)


@pytest.mark.parametrize("shape,c_out", [((1, 4, 256, 256), 4), ((1, 32, 32, 32), 32)])
def test_conv_workspace_within_band_policy(rng, shape, c_out):
    """Beyond their results the kernels allocate at most the documented
    workspace: band columns (and the forward's result buffer), the padded
    input and the one-byte-per-element finiteness mask."""
    n, c, h, w = shape
    k, item = 3, 4
    x = rng.standard_normal(shape).astype(np.float32)
    params = ConvParams(rng.standard_normal((c_out, c, k, k)).astype(np.float32),
                        np.zeros(c_out, np.float32))
    spec = ConvSpec(k, 1, 1, c, c_out)
    grad = rng.standard_normal((n, c_out, h, w)).astype(np.float32)
    kk = c * k * k
    rows = min(h, max(c_out * h * w // (_BAND_DIV * kk * w), -(-_BAND_MIN // w)))
    band = -(-rows * w // _BLOCK) * _BLOCK
    padded = n * c * (h + 2) * (w + 2) * item
    slack = 16 * 1024  # Python objects, views and (c_out, K) products
    fwd_peak, fwd_out = _traced_peak(lambda: [conv2d_forward(x, spec, params)])
    assert fwd_peak - fwd_out <= padded + (kk + c_out) * band * item + fwd_out // item + slack
    bwd_peak, bwd_out = _traced_peak(lambda: conv2d_backward(x, spec, params, grad))
    assert bwd_peak - bwd_out <= padded + kk * rows * w * item + x.size + slack
    # the whole-map im2col this policy avoids would not fit the bound
    assert kk * h * w * item > padded + (kk + c_out) * band * item + x.size + slack


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


@pytest.mark.parametrize("n,k,s,pads", [(2, 3, 2, (1, 0, 2, 1)), (2, 2, 1, (0, 1, 1, 0)),
                                        (1, 5, 2, (2, 1, 0, 3)), (2, 3, 1, (1, 1, 1, 1))])
def test_conv_single_precision_backward_matches_oracle(rng, n, k, s, pads):
    ci, co, h, w = 3, 4, 19, 17
    x = rng.standard_normal((n, ci, h, w))
    wt = rng.standard_normal((co, ci, k, k))
    spec = ConvSpec(k, s, 0, ci, co)
    pt, pb, pl, pr = pads
    g = rng.standard_normal(conv2d_forward(x, spec, ConvParams(wt, np.zeros(co)), pads).shape)
    want_x, want_w = _loop_conv_grads(x, wt, g, s, pads)
    # the oracle is brute_conv's adjoint: <brute_conv(x), g> == <want_w, wt>
    y = brute_conv(np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr))), wt, np.zeros(co), s, 0)
    assert abs((y * g).sum() - (want_w * wt).sum()) <= 1e-9 * np.abs(y * g).sum()
    f32 = np.float32
    got_x = conv2d_input_grad(g.astype(f32), spec, ConvParams(wt.astype(f32), np.zeros(co, f32)),
                              (h, w), pads)
    got_w, got_b = conv2d_param_grad(x.astype(f32), spec, g.astype(f32), pads)
    for got, want in ((got_x, want_x), (got_w, want_w), (got_b, g.sum(axis=(0, 2, 3)))):
        assert got.dtype == f32 and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_maxpool_backward_matches_per_map_scatter():
    """One flattened np.add.at gives the bits of a per-(n, c) scatter, with
    overlapping windows (k=3, s=2) and ties."""
    r = np.random.default_rng(7)
    x = r.integers(0, 3, (2, 3, 11, 9)).astype(np.float32)  # many ties
    _, arg = maxpool2d_forward(x, 3, 2)
    gy = r.standard_normal(arg.shape).astype(np.float32)
    want = np.zeros((2, 3, 11 * 9), np.float32)
    for i in range(2):
        for ch in range(3):
            np.add.at(want[i, ch], arg[i, ch].ravel(), gy[i, ch].ravel())
    got = maxpool2d_backward(arg, gy, (11, 9))
    assert got.tobytes() == want.reshape(got.shape).tobytes()
