"""Layer kernels and their tile-reproducibility contract.

Streaming rebuilds the split map from tiles bit for bit, so each forward
value must depend only on its receptive field: not on the map's size nor
on where the field sits in it.

* conv2d_forward lowers convolution to matrix products over im2col
  columns (Chellapilla et al., 2006): one column per output position,
  rows ordered (ci, ky, kx). Every output column, all c_out channels of
  one position, comes from a product of one fixed shape,
  (c_out, K) @ (K, _BLOCK) with K = c_in * k * k, whatever the map size
  and wherever the position falls in its block; a partial last block is
  zero-filled. BLAS promises no reduction order across shapes (a column
  of A @ B can change bits with the number of columns or its offset),
  but one shape computes each column from that column's operands alone.
  tests/test_layers.py checks crops against whole maps bit for bit in
  both precisions. The bias is added last.
* maxpool2d_forward: window scan is row-major with a strict ">" update,
  so ties select the first occurrence; max is exact, no rounding.
* maxpool2d_backward: one np.add.at over indices flattened across
  (n, c, h * w); it applies each map's updates in output row-major order.

Gradients are tolerance-only. conv2d_input_grad (W.T @ grad_out columns,
then one strided col2im add per tap) and conv2d_param_grad (grad_out
columns @ im2col columns.T, summed over bands) use products whose shapes
follow the map, so tile and whole-image passes agree within the
documented equivalence tolerances, not bitwise. Dense layers use einsum.

Workspace. The conv kernels walk bands of whole output rows. A band has
as many rows as keep its columns (K x band positions) within 1/_BAND_DIV
of one image's output, but covers at least _BAND_MIN positions (whole
rows, at most the map), because one-row bands made the input gradient
2-3x slower on small maps. Besides its result a conv kernel allocates
the band's columns (forward: rounded up to whole _BLOCKs, plus a
(c_out, same) result buffer), a zero-padded copy of its input when pads
are non-zero (forward and param grad), and the finiteness check's mask
of one byte per result element.

Zero padding is asymmetric-capable: pads=(top, bottom, left, right).
Streaming passes pad only where a tile region met the true image border,
which keeps per-pixel operands identical to the whole image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteError, ShapeError
from .tensors import check_finite, check_same_dtype, check_tensor4

_BLOCK = 64      # output positions per forward matrix product
_BAND_DIV = 4    # band columns fit in 1/_BAND_DIV of an image's output,
_BAND_MIN = 256  # but a band covers at least this many output positions


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


def _band_rows(kk, c_out, oh, ow):
    """Output rows per band: as many whole rows as keep the (kk, rows * ow)
    columns within 1/_BAND_DIV of one image's (c_out, oh, ow) output, but
    at least _BAND_MIN positions' worth, and never more than oh."""
    return min(oh, max(c_out * oh // (_BAND_DIV * kk), -(-_BAND_MIN // ow)))


def _windows(x, pads, k, s):
    """(n, c, oh, ow, k, k) read-only view of the padded input's k x k windows at stride s."""
    return sliding_window_view(_pad_input(x, pads), (k, k), axis=(2, 3))[:, :, ::s, ::s]


def _im2col(win, i, r0, r1, cols):
    """Copy the windows of output rows r0:r1 of image i into cols[:, :p],
    rows ordered (ci, ky, kx) and columns (y, x); returns p = (r1 - r0) * ow."""
    c, _, ow, k, _ = win.shape[1:]
    p = (r1 - r0) * ow
    np.copyto(cols[:, :p].reshape(c, k, k, r1 - r0, ow), win[i, :, r0:r1].transpose(0, 3, 4, 1, 2))
    return p


def _block_matmul(a, b, out):
    """out = a @ b as one batched run of (r, K) @ (K, _BLOCK) products, plus
    one narrower product for the last b.shape[1] % _BLOCK columns.

    The block-wide products have one shape per layer, so each column's
    bits depend on its own operands alone; the forward zero-fills its
    columns to whole blocks and never runs the narrower product. The
    input gradient uses the same split for speed: on a shared 2-vCPU
    x86_64 host, whole-band products such as (9, 4) @ (4, 28672)
    intermittently took 5-16 ms, about 100x their usual time, while the
    block-wide products kept their speed.
    """
    full = b.shape[1] - b.shape[1] % _BLOCK
    np.matmul(a, b[:, :full].reshape(len(b), -1, _BLOCK).transpose(1, 0, 2),
              out=out[:, :full].reshape(len(out), -1, _BLOCK).transpose(1, 0, 2))
    np.matmul(a, b[:, full:], out=out[:, full:])


def conv2d_forward(x, spec: ConvSpec, params: ConvParams, pads=None):
    """Valid convolution over a (possibly asymmetrically) padded input.

    pads overrides the symmetric spec.pad; streaming tile passes use it to
    apply padding only on sides that met the true image border. Every
    output column comes from one (c_out, K) @ (K, _BLOCK) product, K =
    c_in * k * k, whatever the map size (see the module docstring).
    """
    check_tensor4(x, "conv input")
    params.check(spec)
    check_same_dtype(x, params.w, params.b)
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ShapeError(f"conv input channels {c} != spec c_in {spec.c_in}")
    pads = _norm_pads(spec.pad if pads is None else pads)
    pt, pb, pl, pr = pads
    k, s, co = spec.kernel, spec.stride, spec.c_out
    oh = out_size(h + pt + pb, k, s, 0)
    ow = out_size(w + pl + pr, k, s, 0)
    kk = c * k * k
    win = _windows(x, pads, k, s)
    wmat = params.w.reshape(co, kk)
    rows = _band_rows(kk, co, oh, ow)
    width = -(-rows * ow // _BLOCK) * _BLOCK
    cols = np.empty((kk, width), dtype=x.dtype)
    res = np.empty((co, width), dtype=x.dtype)
    out = np.empty((n, co, oh * ow), dtype=x.dtype)
    for i in range(n):
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            p = _im2col(win, i, r0, r1, cols)
            m = -(-p // _BLOCK)
            cols[:, p : m * _BLOCK] = 0
            _block_matmul(wmat, cols[:, : m * _BLOCK], res[:, : m * _BLOCK])
            out[i, :, r0 * ow : r1 * ow] = res[:, :p]
    out += params.b[None, :, None]
    return check_finite(out.reshape(n, co, oh, ow), "conv output")


def _tap_span(o0, o1, t, s, pad, size):
    """Along one axis: the outputs [lo, hi) of [o0, o1) whose tap t reads
    inside [0, size) rather than padding, and the input slice they read."""
    lo = max(o0, -((t - pad) // s))
    hi = max(lo, min(o1, (size - 1 + pad - t) // s + 1))
    x0 = s * lo + t - pad
    return lo, hi, slice(x0, x0 + s * (hi - lo), s)


def conv2d_input_grad(grad_out, spec: ConvSpec, params: ConvParams, in_hw, pads=None):
    """Gradient w.r.t. the conv input: per row band, W.T @ grad_out columns,
    then one strided col2im add per kernel tap."""
    check_tensor4(grad_out, "conv grad_out")
    check_same_dtype(grad_out, params.w)
    n, co, oh, ow = grad_out.shape
    if co != spec.c_out:
        raise ShapeError(f"grad_out channels {co} != spec c_out {spec.c_out}")
    pads = _norm_pads(spec.pad if pads is None else pads)
    pt, pb, pl, pr = pads
    h, w = in_hw
    k, s, c = spec.kernel, spec.stride, spec.c_in
    if out_size(h + pt + pb, k, s, 0) != oh or out_size(w + pl + pr, k, s, 0) != ow:
        raise ShapeError(f"grad_out {grad_out.shape} inconsistent with input {in_hw}, {spec}")
    kk = c * k * k
    wt = params.w.reshape(co, kk).T
    g = grad_out.reshape(n, co, oh * ow)
    rows = _band_rows(kk, co, oh, ow)
    cols = np.empty((kk, rows * ow), dtype=grad_out.dtype)
    x_spans = [_tap_span(0, ow, kx, s, pl, w) for kx in range(k)]
    gx = np.zeros((n, c, h, w), dtype=grad_out.dtype)
    for i in range(n):
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            p = (r1 - r0) * ow
            _block_matmul(wt, g[i, :, r0 * ow : r1 * ow], cols[:, :p])
            taps = cols[:, :p].reshape(c, k, k, r1 - r0, ow)
            for ky in range(k):
                ylo, yhi, ys = _tap_span(r0, r1, ky, s, pt, h)
                for kx, (xlo, xhi, xs) in enumerate(x_spans):
                    gx[i, :, ys, xs] += taps[:, ky, kx, ylo - r0 : yhi - r0, xlo:xhi]
    return check_finite(gx, "conv grad_in")


def conv2d_param_grad(x, spec: ConvSpec, grad_out, pads=None):
    """Gradients w.r.t. conv weights and bias: per row band of the output,
    grad_out columns @ im2col columns.T, accumulated over bands and images."""
    check_tensor4(x, "conv input")
    check_tensor4(grad_out, "conv grad_out")
    check_same_dtype(x, grad_out)
    if grad_out.shape[0] != x.shape[0]:
        raise ShapeError("batch mismatch between input and grad_out")
    n, c, h, w = x.shape
    _, co, oh, ow = grad_out.shape
    pads = _norm_pads(spec.pad if pads is None else pads)
    k, s = spec.kernel, spec.stride
    kk = c * k * k
    win = _windows(x, pads, k, s)
    if win.shape[2:4] != (oh, ow):
        raise ShapeError(f"grad_out {grad_out.shape} inconsistent with input {x.shape}, {spec}")
    g = grad_out.reshape(n, co, oh * ow)
    rows = _band_rows(kk, co, oh, ow)
    cols = np.empty((kk, rows * ow), dtype=x.dtype)
    gw = np.zeros((co, kk), dtype=x.dtype)
    for i in range(n):
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            p = _im2col(win, i, r0, r1, cols)
            gw += g[i, :, r0 * ow : r1 * ow] @ cols[:, :p].T
    gw = gw.reshape(co, c, k, k)
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
    """Route grad_out to argmax positions; collisions (overlapping windows)
    sum in output row-major order per map."""
    check_tensor4(grad_out, "pool grad_out")
    if argmax.shape != grad_out.shape:
        raise ShapeError(f"argmax {argmax.shape} does not match grad_out {grad_out.shape}")
    n, c, oh, ow = grad_out.shape
    h, w = in_hw
    if argmax.size and argmax.max() >= h * w:
        raise ShapeError("argmax indices exceed input size (stale argmax?)")
    gx = np.zeros((n, c, h, w), dtype=grad_out.dtype)
    offsets = np.arange(n * c, dtype=np.int64).reshape(n, c, 1, 1) * (h * w)
    np.add.at(gx.reshape(-1), (argmax + offsets).reshape(-1), grad_out.reshape(-1))
    return check_finite(gx, "pool grad_in")


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
