"""Layer kernels with a pinned accumulation-order contract.

Every value that must be bit-reproducible between a tile pass and a
whole-image pass is computed by sequential accumulation in one documented
order, vectorised only across independent output elements:

* conv2d_forward: each output scalar is accumulated channel-major then
  kernel-row-major, i.e. for ci in range(c_in): for ky: for kx, one
  fused multiply-add per step, bias added last. A tile whose crop
  contains the receptive field of an output pixel therefore produces the
  identical bits for that pixel.
* conv2d_input_grad: each input-gradient scalar is accumulated over
  (c_out, ky, kx) in that loop order; contributions from output
  positions that fall outside the map are absent on both the tile and
  whole-image paths, so values agree bitwise wherever every reading
  output position is present.
* maxpool2d_forward: window scan is row-major with a strict ">" update,
  so ties select the first occurrence; max is exact, no rounding.
* maxpool2d_backward: scattered with np.add.at, which applies updates
  sequentially in output row-major order.

Weight/bias gradients reduce over output positions. There the order is
"deterministic per operand shape" (np.einsum with optimize=False, and
numpy axis sums), not strictly sequential: equal shapes and values give
equal bits, while tile-vs-whole summations reorder and agree only within
the documented equivalence tolerances. Dense layers also use einsum so
no BLAS threading can perturb results.

Zero padding is asymmetric-capable: pads=(top, bottom, left, right).
Streaming passes pad only where a tile region met the true image border,
which keeps per-pixel operand sequences identical to the whole image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeError
from .tensors import check_finite, check_same_dtype, check_tensor4


@dataclass(frozen=True)
class ConvSpec:
    """Square-kernel convolution geometry: kernel k, stride s, zero pad p per side."""

    kernel: int
    stride: int = 1
    pad: int = 0
    c_in: int = 1
    c_out: int = 1

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.pad < 0:
            raise ShapeError(f"bad conv geometry {self}")
        if self.pad >= self.kernel:
            raise ShapeError(f"pad must be < kernel: {self}")
        if self.c_in < 1 or self.c_out < 1:
            raise ShapeError(f"bad channel counts {self}")


@dataclass
class ConvParams:
    """weights (c_out, c_in, k, k) and bias (c_out,)."""

    w: np.ndarray
    b: np.ndarray

    def check(self, spec: ConvSpec):
        if self.w.shape != (spec.c_out, spec.c_in, spec.kernel, spec.kernel):
            raise ShapeError(f"weights {self.w.shape} inconsistent with {spec}")
        if self.b.shape != (spec.c_out,):
            raise ShapeError(f"bias {self.b.shape} inconsistent with {spec}")
        return self


@dataclass
class DenseParams:
    """weights (out, in) and bias (out,)."""

    w: np.ndarray
    b: np.ndarray


def out_size(z, k, s, p=0):
    """Output extent of a valid conv/pool along one axis: floor((z+2p-k)/s)+1."""
    if z + 2 * p < k:
        raise ShapeError(f"window k={k} larger than padded input {z}+2*{p}")
    return (z + 2 * p - k) // s + 1


def _norm_pads(pads):
    if pads is None:
        return (0, 0, 0, 0)
    if isinstance(pads, int):
        return (pads,) * 4
    pt, pb, pl, pr = pads
    if min(pt, pb, pl, pr) < 0:
        raise ShapeError(f"negative pad {pads}")
    return (pt, pb, pl, pr)


def _pad_input(x, pads):
    pt, pb, pl, pr = pads
    if pt == pb == pl == pr == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))


def conv2d_forward(x, spec: ConvSpec, params: ConvParams, pads=None):
    """Valid convolution over a (possibly asymmetrically) padded input.

    pads overrides the symmetric spec.pad; streaming tile passes use it to
    apply padding only on sides that met the true image border.
    """
    check_tensor4(x, "conv input")
    params.check(spec)
    check_same_dtype(x, params.w, params.b)
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ShapeError(f"conv input channels {c} != spec c_in {spec.c_in}")
    pads = _norm_pads(spec.pad if pads is None else pads)
    pt, pb, pl, pr = pads
    k, s = spec.kernel, spec.stride
    oh = out_size(h + pt + pb, k, s, 0)
    ow = out_size(w + pl + pr, k, s, 0)
    xp = _pad_input(x, pads)
    acc = np.zeros((n, spec.c_out, oh, ow), dtype=x.dtype)
    # Fixed accumulation order: channel-major, then kernel row-major.
    for ci in range(spec.c_in):
        for ky in range(k):
            for kx in range(k):
                win = xp[:, ci, ky : ky + s * (oh - 1) + 1 : s, kx : kx + s * (ow - 1) + 1 : s]
                acc += params.w[:, ci, ky, kx][None, :, None, None] * win[:, None, :, :]
    acc += params.b[None, :, None, None]
    return check_finite(acc, "conv output")


def conv2d_input_grad(grad_out, spec: ConvSpec, params: ConvParams, in_hw, pads=None):
    """Gradient w.r.t. the conv input. Accumulates over (c_out, ky, kx) in order."""
    check_tensor4(grad_out, "conv grad_out")
    check_same_dtype(grad_out, params.w)
    n, co, oh, ow = grad_out.shape
    if co != spec.c_out:
        raise ShapeError(f"grad_out channels {co} != spec c_out {spec.c_out}")
    pads = _norm_pads(spec.pad if pads is None else pads)
    pt, pb, pl, pr = pads
    h, w = in_hw
    k, s = spec.kernel, spec.stride
    if out_size(h + pt + pb, k, s, 0) != oh or out_size(w + pl + pr, k, s, 0) != ow:
        raise ShapeError(f"grad_out {grad_out.shape} inconsistent with input {in_hw}, {spec}")
    gp = np.zeros((n, spec.c_in, h + pt + pb, w + pl + pr), dtype=grad_out.dtype)
    for o in range(spec.c_out):
        g = grad_out[:, o][:, None, :, :]
        for ky in range(k):
            for kx in range(k):
                gp[:, :, ky : ky + s * (oh - 1) + 1 : s, kx : kx + s * (ow - 1) + 1 : s] += (
                    params.w[o, :, ky, kx][None, :, None, None] * g
                )
    gx = gp[:, :, pt : pt + h, pl : pl + w]
    return check_finite(np.ascontiguousarray(gx), "conv grad_in")


def conv2d_param_grad(x, spec: ConvSpec, grad_out, pads=None):
    """Gradients w.r.t. conv weights and bias.

    Reduces over (n, out_y, out_x) per kernel tap via einsum(optimize=False):
    deterministic for fixed shapes; tile/whole summation orders differ and are
    reconciled by the equivalence tolerances.
    """
    check_tensor4(x, "conv input")
    check_tensor4(grad_out, "conv grad_out")
    check_same_dtype(x, grad_out)
    if grad_out.shape[0] != x.shape[0]:
        raise ShapeError("batch mismatch between input and grad_out")
    n, c, h, w = x.shape
    _, co, oh, ow = grad_out.shape
    pads = _norm_pads(spec.pad if pads is None else pads)
    k, s = spec.kernel, spec.stride
    xp = _pad_input(x, pads)
    gw = np.empty((co, c, k, k), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            win = xp[:, :, ky : ky + s * (oh - 1) + 1 : s, kx : kx + s * (ow - 1) + 1 : s]
            gw[:, :, ky, kx] = np.einsum("nohw,nihw->oi", grad_out, win, optimize=False)
    gb = grad_out.sum(axis=(0, 2, 3))
    check_finite(gw, "conv grad_w")
    check_finite(gb.reshape(1, 1, 1, -1), "conv grad_b")
    return gw, gb


def conv2d_backward(x, spec: ConvSpec, params: ConvParams, grad_out, pads=None):
    """Full conv backward: (grad_in, grad_w, grad_b)."""
    gw, gb = conv2d_param_grad(x, spec, grad_out, pads)
    gx = conv2d_input_grad(grad_out, spec, params, x.shape[2:], pads)
    return gx, gw, gb


def maxpool2d_forward(x, k, s):
    """Max pooling; returns (output, argmax of flat spatial input index).

    Ties select the first occurrence in row-major window scan order.
    """
    check_tensor4(x, "pool input")
    n, c, h, w = x.shape
    oh = out_size(h, k, s, 0)
    ow = out_size(w, k, s, 0)
    oy = np.arange(oh) * s
    ox = np.arange(ow) * s
    best = x[:, :, 0 : s * (oh - 1) + 1 : s, 0 : s * (ow - 1) + 1 : s].copy()
    arg = np.broadcast_to((oy[:, None] * w + ox[None, :]).astype(np.int64), best.shape).copy()
    for wy in range(k):
        for wx in range(k):
            if wy == 0 and wx == 0:
                continue
            cand = x[:, :, wy : wy + s * (oh - 1) + 1 : s, wx : wx + s * (ow - 1) + 1 : s]
            idx = ((oy[:, None] + wy) * w + (ox[None, :] + wx)).astype(np.int64)
            better = cand > best
            np.copyto(best, cand, where=better)
            np.copyto(arg, np.broadcast_to(idx, arg.shape), where=better)
    return check_finite(best, "pool output"), arg


def maxpool2d_backward(argmax, grad_out, in_hw):
    """Route grad_out to argmax positions; collisions (overlapping windows) sum."""
    check_tensor4(grad_out, "pool grad_out")
    if argmax.shape != grad_out.shape:
        raise ShapeError(f"argmax {argmax.shape} does not match grad_out {grad_out.shape}")
    n, c, oh, ow = grad_out.shape
    h, w = in_hw
    if argmax.size and argmax.max() >= h * w:
        raise ShapeError("argmax indices exceed input size (stale argmax?)")
    gx = np.zeros((n, c, h * w), dtype=grad_out.dtype)
    flat_idx = argmax.reshape(n, c, -1)
    flat_g = grad_out.reshape(n, c, -1)
    for i in range(n):
        for ch in range(c):
            np.add.at(gx[i, ch], flat_idx[i, ch], flat_g[i, ch])
    return check_finite(gx.reshape(n, c, h, w), "pool grad_in")


def relu_forward(x, inplace=False):
    """max(x, 0). With inplace=True the input buffer is overwritten."""
    out = np.maximum(x, 0, out=x if inplace else None)
    return check_finite(out, "relu output")


def relu_backward(out, grad_out):
    """Pass gradient where the activation is strictly positive (0 at 0).

    Takes the relu *output*; out > 0 holds exactly where the input was > 0,
    so the pre-activation buffer need not be retained.
    """
    check_same_dtype(out, grad_out)
    if out.shape != grad_out.shape:
        raise ShapeError("relu grad shape mismatch")
    return check_finite(np.where(out > 0, grad_out, grad_out.dtype.type(0)), "relu grad_in")


def flatten_forward(x):
    """(n, c, h, w) -> (n, c*h*w), row-major; returns (out, original shape)."""
    check_tensor4(x, "flatten input")
    return x.reshape(x.shape[0], -1), x.shape


def flatten_backward(grad_out, shape):
    return grad_out.reshape(shape)


def dense_forward(x, params: DenseParams):
    """y = x @ W.T + b via einsum (no BLAS, deterministic per shape)."""
    if x.ndim != 2 or x.shape[1] != params.w.shape[1]:
        raise ShapeError(f"dense input {x.shape} vs weights {params.w.shape}")
    check_same_dtype(x, params.w, params.b)
    y = np.einsum("nf,of->no", x, params.w, optimize=False) + params.b[None, :]
    return check_finite(y, "dense output")


def dense_backward(x, params: DenseParams, grad_out):
    """Returns (grad_x, grad_w, grad_b)."""
    check_same_dtype(x, grad_out)
    gx = np.einsum("no,of->nf", grad_out, params.w, optimize=False)
    gw = np.einsum("no,nf->of", grad_out, x, optimize=False)
    gb = grad_out.sum(axis=0)
    check_finite(gx, "dense grad_in")
    return gx, gw, gb


def sigmoid(x):
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits(logit, label):
    """Binary cross-entropy on a logit; returns (loss, dloss/dlogit).

    Stabilised form max(x,0) - x*y + log1p(exp(-|x|)); gradient sigmoid(x) - y.
    """
    if label not in (0, 1):
        raise ShapeError(f"label must be 0 or 1, got {label!r}")
    x = np.asarray(logit)
    y = x.dtype.type(label)
    loss = np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))
    grad = sigmoid(x) - y
    if not (np.isfinite(loss).all() and np.isfinite(grad).all()):
        raise NonFiniteError("bce loss: non-finite values detected")
    return loss, grad
