"""Layer kernels and their tile-reproducibility contract.

Streaming rebuilds the split map from tiles bit for bit, so each forward
value must depend only on its receptive field: not on the map's size nor
on where the field sits in it.

Geometry. The conv kernels take a Conv as their spec: kernel, stride and
symmetric pad, with c_in and c_out fixing the weight shape. The layers of
a NetworkSpec are passed as they are (it fills in each conv's c_in), so a
conv's geometry is written down once, in the network.

* conv2d_forward lowers convolution to matrix products over im2col
  columns (Chellapilla et al., 2006): one column per output position,
  rows ordered (ci, ky, kx). Every output column, all c_out channels of
  one position, comes from a product of one fixed shape,
  (c_out, K) @ (K, _BLOCK) with K = c_in * k * k, whatever the map size
  and wherever the position falls in its block; a partial last block
  reads stale columns of an earlier band in its spare columns, and its
  spare outputs are overwritten or dropped. BLAS promises no
  reduction order across shapes (a column of A @ B can change bits with
  the number of columns or its offset), but one shape computes each
  column from that column's operands alone.
  tests/test_layers.py checks crops against whole maps bit for bit in
  both precisions. The bias is added last.
* maxpool2d_forward is the running np.maximum of the k * k strided tap
  views; max is exact, no rounding. A zero max reads +0.0, since numpy
  leaves open which operand a tie of -0.0 and +0.0 returns. A cached
  pass also asks for the route: one uint8 per window, its first tap in
  row-major order equal to the max, encoded with arithmetic into one
  reused buffer while the taps run. The pool's input is not needed again.
* maxpool2d_backward scatters from the route into a zero map of the input
  shape. Given the pool's output as relu_out, it also applies the mask of
  a relu directly below the pool (the routed input is > 0 exactly where
  the output is), so that relu keeps no map; tilestream.network runs such
  a relu on the pool's output (fused_relu). With disjoint windows
  (k <= s, every preset pool) it writes each tap's routed values straight
  into that tap's view of the gradient; with k > s it adds them tap by
  tap in reverse row-major order, which for every input pixel is output
  row-major order. Both equal relu_backward of a scatter-add onto zeros
  bit for bit.

Gradients. conv2d_input_grad is a forward-shaped product: the stride-1
correlation of grad_out, zero-stuffed at the conv's stride and
zero-padded, with the flipped, transposed weights (Dumoulin & Visin,
arXiv:1603.07285), through the forward's (c_in, K) @ (K, _BLOCK)
products with K = c_out * k * k. For a stride-s conv the stuffed zeros
make that s^2 times the products of a direct scatter; no preset has a
strided conv. The weight gradient correlates x with the same stuffed,
padded grad_out, so conv2d_backward reads it from those columns in the
same band pass: grad_w[co, ci, k-1-ky, k-1-kx] = sum over input
positions y of x[ci, y] * column (co, ky, kx) at y, one (K, p) @ (p, c_in)
product per band of p positions into a (K, c_in) accumulator, flipped
and transposed once at the end. Its input gradient is conv2d_input_grad's
bit for bit. conv2d_param_grad, for a conv whose input needs no gradient
(map 0), runs only the reduction: (K, p) @ (p, c_out) products of the
forward's im2col columns of x and grad_out's rows into a (K, c_out)
accumulator. Gradients are tolerance-only: the parameter gradient's
products have shapes that follow the map, and a tile adds only its own
outputs' share to each input pixel's gradient, so tile and whole-image
passes agree within the documented equivalence tolerances, not bitwise.
Dense layers use einsum. A dense layer's backward is two calls:
dense_input_grad returns its input gradient, and dense_backward adds its
weight gradient into the caller's accumulator one output row at a time,
so no (out, in) temporary exists.

Workspace. The four conv kernels are four entries to one band pass,
_correlate, over the one banded column builder, _bands: band by band of
whole output rows, each band runs the forward-shaped products (forward,
input gradient), the weight-gradient reduction (conv2d_param_grad) or
both (conv2d_backward), so a conv's backward builds its columns once.
The entries differ only in the source (x, or the stuffed, padded
grad_out), the stride or stuffing, and the products they ask for. One
rule sizes every band (_band_rows): as many rows as keep its columns
(K x band positions) within 1/_BAND_DIV of one image's output, but at
least _BAND_MIN positions (whole rows, at most the map), because one-row
bands made the input gradient 2-3x slower on small maps. A pass that
reduces into a (K, c) accumulator gives up rows so that its product and
accumulator, 2 * K * c scalars, and, when the reduction's operand (c,
oh, ow) has rows that are not contiguous (a crop view), one reused copy
of a band of them come out of that band's columns; but it keeps at
least min(ceil(_BAND_MIN / ow), c * oh // K, oh) rows, and one. That
floor is _BAND_MIN positions whenever their columns fit within one
image of the operand, because a reduction over one-row bands of a thin
tile runs at about half the speed. So a reducing band's columns,
product, accumulator and copy take at most the forward-shaped band's
columns, or their own at the floor, whose columns fit within one image
of the operand (or one row).
Besides its result a pass allocates the band's columns, rounded up to
whole _BLOCKs, a result buffer of the same width once a band's last
block runs past the map, and, when its source is padded or zero-stuffed,
one staging buffer of a band's padded source rows, (c, s * (rows - 1) +
k, padded width); no kernel copies or pads a whole map. The input
gradient also holds its flipped weights. A band pays only its copies and
products: the views it runs through are made once per pass and sliced
per band.

Finiteness. The kernels that compute new values check them (conv and
dense outputs and input gradients, the BCE loss and its gradient); relu
and max pooling only select or mask values, and scan nothing. The rule
is stated once, in tilestream.engine's module docstring ("Finiteness").

Zero padding is asymmetric-capable: pads=(top, bottom, left, right).
Streaming passes pad only where a tile region met the true image border,
which keeps per-pixel operands identical to the whole image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError
from .tensors import check_finite, check_same_dtype, check_tensor4

_BLOCK = 64      # output positions per forward matrix product
_BAND_DIV = 4    # band columns fit in 1/_BAND_DIV of an image's output,
_BAND_MIN = 256  # but a band covers at least this many output positions


@dataclass(frozen=True)
class Conv:
    """Square-kernel convolution: c_out filters of kernel k, stride s, zero pad p per side.

    c_in is the channel count of the map below. A network leaves it unset
    and NetworkSpec fills it in, so each conv in NetworkSpec.layers is the
    geometry the conv kernels take as their spec.
    """

    c_out: int
    kernel: int = 3
    stride: int = 1
    pad: int = 0
    c_in: int = None

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.pad < 0:
            raise ShapeError(f"bad conv geometry {self}")
        if self.pad >= self.kernel:
            raise ShapeError(f"pad must be < kernel: {self}")
        if self.c_out < 1 or (self.c_in is not None and self.c_in < 1):
            raise ShapeError(f"bad channel counts {self}")


@dataclass
class Params:
    """A layer's weights and bias: conv (c_out, c_in, k, k) and (c_out,),
    dense (out, in) and (out,). kind reads which from the weight's rank."""

    w: np.ndarray
    b: np.ndarray

    @property
    def kind(self):
        return "conv" if self.w.ndim == 4 else "dense"


def out_size(z, k, s, p=0):
    """Output extent of a valid conv/pool along one axis: floor((z+2p-k)/s)+1."""
    if z + 2 * p < k:
        raise ShapeError(f"window k={k} larger than padded input {z}+2*{p}")
    return (z + 2 * p - k) // s + 1


def _norm_pads(pads, k):
    """(top, bottom, left, right) from None, an int or a 4-tuple; each in [0, k)."""
    if pads is None:
        return (0, 0, 0, 0)
    if isinstance(pads, int):
        pads = (pads,) * 4
    pt, pb, pl, pr = pads
    if min(pt, pb, pl, pr) < 0 or max(pt, pb, pl, pr) >= k:
        raise ShapeError(f"pads {pads} outside [0, kernel {k})")
    return (pt, pb, pl, pr)


def _band_rows(kk, r, oh, ow, reduces=False, copied=False):
    """Output rows per band of a pass over (kk, positions) columns with r
    result channels: as many whole rows as keep the (kk, rows * ow) columns
    within 1/_BAND_DIV of one image's (r, oh, ow) output, but at least
    _BAND_MIN positions' worth, and never more than oh.

    A pass that reduces into a (kk, r) accumulator gives up rows so that its
    product and accumulator, 2 * kk * r scalars, and, when copied (its
    operand's rows are not contiguous), one reused (r, rows, ow) copy of a
    band of the operand come out of those columns; but it keeps at least
    min(ceil(_BAND_MIN / ow), r * oh // kk, oh) rows, and one: _BAND_MIN
    positions whenever their columns fit within one image of the operand,
    (r, oh, ow)."""
    least = -(-_BAND_MIN // ow)
    rows = min(oh, max(r * oh // (_BAND_DIV * kk), least))
    if not reduces:
        return rows
    shared = kk * (rows * ow - 2 * r) // ((kk + r * copied) * ow)
    return max(1, min(least, r * oh // kk, oh), shared)


def _stage(buf, src, pt, pl, d, a):
    """Fill buf (c, R, width) with padded rows [a, a + R) of src (c, h, w):
    source pixel (j, i) sits at (pt + d * j, pl + d * i), zeros elsewhere.
    With d == 1 the column pads keep the zeros buf was allocated with."""
    h, w = src.shape[1:]
    j0 = max(0, -((pt - a) // d))
    j1 = min(h, (a + buf.shape[1] - 1 - pt) // d + 1)
    y0 = pt + d * j0 - a
    y1 = y0 + d * (j1 - j0 - 1) + 1
    if d > 1 or j1 <= j0:
        buf.fill(0)
    else:
        if y0 > 0:
            buf[:, :y0] = 0
        if y1 < buf.shape[1]:
            buf[:, y1:] = 0
    if j1 > j0:
        buf[:, y0:y1:d, pl : pl + d * (w - 1) + 1 : d] = src[:, j0:j1]


def _windows(a, k, s, oh, ow):
    """Read-only (..., c, k, k, oh, ow) view of a's k x k windows at stride s."""
    ys, xs = a.strides[-2:]
    return as_strided(a, a.shape[:-2] + (k, k, oh, ow), a.strides[:-2] + (ys, xs, s * ys, s * xs),
                      writeable=False)


def _bands(src, k, s, d, pads, oh, ow, rows, cols):
    """The im2col column builder of every conv kernel.

    The source src (n, c, h, w) is zero-stuffed at step d and zero-padded
    by pads; its k x k windows at stride s give oh x ow outputs. For each
    image i and band [r0, r1) of at most `rows` output rows, fills
    cols[:, :p], p = (r1 - r0) * ow, rows ordered (ci, ky, kx) and columns
    (y, x), and yields (i, r0, r1, p). Each band's padded rows are staged
    in one reusable (c, s * (rows - 1) + k, padded width) buffer, or with
    no pads and no stuffing the source is read directly; one strided view,
    made once, windows either.
    """
    n, c, h, w = src.shape
    pt, pb, pl, pr = pads
    dst = cols[:, : rows * ow].reshape(c, k, k, rows, ow)
    staged = d > 1 or any(pads)
    if staged:
        buf = np.zeros((c, s * (rows - 1) + k, pl + d * (w - 1) + 1 + pr), dtype=src.dtype)
        win = _windows(buf, k, s, rows, ow)
    else:
        win = _windows(src, k, s, oh, ow)
    for i in range(n):
        image = src[i]
        for r0 in range(0, oh, rows):
            t = min(rows, oh - r0)
            if staged:
                _stage(buf, image, pt, pl, d, s * r0)
                band = win[:, :, :, :t]
            else:
                band = win[i, :, :, :, r0 : r0 + t]
            np.copyto(dst[:, :, :, :t], band)
            yield i, r0, r0 + t, t * ow


def _correlate(src, k, s, d, pads, oh, ow, wmat=None, rhs=None):
    """The one band pass of every conv kernel: over _bands' columns of src,
    (K, band positions) with K = src channels * k * k, each band runs the
    products the caller asks for, and returns (out, acc), None for a
    product not asked for. _band_rows sizes its bands.

    With wmat (r, K): out (n, r, oh, ow), wmat times the columns, one
    batched run of (r, K) @ (K, _BLOCK) products per band, written straight
    into the output. A band's partial last block reads stale columns of an
    earlier band (zeros before the first) and spills into the next band's
    positions, which that band overwrites; only a band whose blocks run
    past the image's map goes through a result buffer. Every output column
    comes from a product of that one shape (see the module docstring).

    With rhs (n, c, oh, ow): acc (K, c), the sum over bands of the (K, p)
    columns @ (p, c) rows of rhs at the band's p positions. That product,
    the accumulator and, when rhs's rows are not contiguous (a crop view),
    one reused copy of rhs's band take their scalars out of the band's
    columns, down to a floor of min(ceil(_BAND_MIN / ow), c * oh // K, oh)
    rows per band, and one.

    The columns' (blocks, K, _BLOCK) view, a contiguous rhs's flat (n, c,
    oh * ow) view and the result buffer are made once per call and sliced
    per band."""
    n = len(src)
    kk = src.shape[1] * k * k
    r = len(wmat) if rhs is None else rhs.shape[1]
    copied = rhs is not None and rhs.strides[2:] != (ow * rhs.itemsize, rhs.itemsize)
    rows = _band_rows(kk, r, oh, ow, rhs is not None, copied)
    blocks = -(-rows * ow // _BLOCK)
    cols = np.zeros((kk, blocks * _BLOCK), dtype=src.dtype)
    colv = cols.reshape(kk, blocks, _BLOCK).transpose(1, 0, 2)
    out = acc = res = None
    if wmat is not None:
        out = np.empty((n, r, oh * ow), dtype=src.dtype)
    if rhs is not None:
        acc = np.zeros((kk, r), dtype=src.dtype)
        prod = np.empty_like(acc)
        if copied:
            rbuf = np.empty((r, rows, ow), dtype=src.dtype)
            rflat = rbuf.reshape(r, rows * ow)
        else:
            rflat = rhs.reshape(n, r, oh * ow)
    for i, r0, r1, p in _bands(src, k, s, d, pads, oh, ow, rows, cols):
        a = r0 * ow
        if wmat is not None:
            b = -(-p // _BLOCK)
            if a + b * _BLOCK <= oh * ow:
                np.matmul(wmat, colv[:b], out=out[i, :, a : a + b * _BLOCK]
                          .reshape(r, b, _BLOCK).transpose(1, 0, 2))
            else:
                if res is None:
                    res = np.empty((r, blocks * _BLOCK), dtype=src.dtype)
                    resv = res.reshape(r, blocks, _BLOCK).transpose(1, 0, 2)
                np.matmul(wmat, colv[:b], out=resv[:b])
                out[i, :, a : a + p] = res[:, :p]
        if rhs is not None:
            if copied:
                rbuf[:, : r1 - r0] = rhs[i, :, r0:r1]
                band = rflat[:, :p]
            else:
                band = rflat[i, :, a : a + p]
            acc += np.matmul(cols[:, :p], band.T, out=prod)
    return (None if out is None else out.reshape(n, r, oh, ow)), acc


def conv2d_forward(x, spec: Conv, params: Params, pads=None):
    """Valid convolution over a (possibly asymmetrically) padded input.

    pads overrides the symmetric spec.pad; streaming tile passes use it to
    apply padding only on sides that met the true image border. Every
    output column comes from one (c_out, K) @ (K, _BLOCK) product, K =
    c_in * k * k, whatever the map size (see the module docstring).
    """
    check_tensor4(x, "conv input")
    if params.w.shape != (spec.c_out, spec.c_in, spec.kernel, spec.kernel) \
            or params.b.shape != (spec.c_out,):
        raise ShapeError(f"parameters {params.w.shape}, {params.b.shape} inconsistent with {spec}")
    check_same_dtype(x, params.w, params.b)
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ShapeError(f"conv input channels {c} != spec c_in {spec.c_in}")
    k, s, co = spec.kernel, spec.stride, spec.c_out
    pads = _norm_pads(spec.pad if pads is None else pads, k)
    pt, pb, pl, pr = pads
    oh = out_size(h + pt + pb, k, s, 0)
    ow = out_size(w + pl + pr, k, s, 0)
    out, _ = _correlate(x, k, s, 1, pads, oh, ow, wmat=params.w.reshape(co, c * k * k))
    out += params.b[None, :, None, None]
    return check_finite(out, "conv output")


def _grad_geometry(grad_out, spec: Conv, in_hw, pads):
    """The checks both gradient kernels share; returns the normalised pads."""
    check_tensor4(grad_out, "conv grad_out")
    _, co, oh, ow = grad_out.shape
    if co != spec.c_out:
        raise ShapeError(f"grad_out channels {co} != spec c_out {spec.c_out}")
    h, w = in_hw
    k, s = spec.kernel, spec.stride
    pads = _norm_pads(spec.pad if pads is None else pads, k)
    pt, pb, pl, pr = pads
    if out_size(h + pt + pb, k, s, 0) != oh or out_size(w + pl + pr, k, s, 0) != ow:
        raise ShapeError(f"grad_out {grad_out.shape} inconsistent with input {in_hw}, {spec}")
    return pads


def _grad_in(grad_out, spec: Conv, params: Params, in_hw, pads, x=None):
    """(grad_in, the flipped, transposed weight gradient or None): the
    stride-1 correlation of grad_out, zero-stuffed at stride s and
    zero-padded by (k-1-pt, h+pt-1-s(oh-1), k-1-pl, w+pl-1-s(ow-1)), with
    the flipped, transposed weights, whose columns also give the weight
    gradient when x is given (see _correlate)."""
    check_same_dtype(grad_out, params.w)
    pt, pb, pl, pr = _grad_geometry(grad_out, spec, in_hw, pads)
    _, co, oh, ow = grad_out.shape
    h, w = in_hw
    k, s, c = spec.kernel, spec.stride, spec.c_in
    wflip = params.w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(c, co * k * k)
    gpads = (k - 1 - pt, h + pt - 1 - s * (oh - 1), k - 1 - pl, w + pl - 1 - s * (ow - 1))
    gx, acc = _correlate(grad_out, k, 1, s, gpads, h, w, wmat=wflip, rhs=x)
    return check_finite(gx, "conv grad_in"), acc


def conv2d_input_grad(grad_out, spec: Conv, params: Params, in_hw, pads=None):
    """Gradient w.r.t. the conv input: the stride-1 correlation of the
    zero-stuffed, padded grad_out with the flipped, transposed weights (see
    the module docstring; s^2 times a direct scatter's products for s > 1).
    conv2d_backward's input gradient equals it bit for bit."""
    return _grad_in(grad_out, spec, params, in_hw, pads)[0]


def _check_input(x, spec: Conv, grad_out):
    check_tensor4(x, "conv input")
    check_same_dtype(x, grad_out)
    if grad_out.shape[0] != x.shape[0]:
        raise ShapeError("batch mismatch between input and grad_out")
    if x.shape[1] != spec.c_in:
        raise ShapeError(f"conv input channels {x.shape[1]} != spec c_in {spec.c_in}")


def conv2d_param_grad(x, spec: Conv, grad_out, pads=None):
    """Gradients w.r.t. conv weights and bias alone, for a conv whose input
    needs no gradient: one band pass over the forward's im2col columns of x
    that asks only for their (K, p) @ (p, c_out) products with grad_out's
    rows (see _correlate), a (K, c_out) sum over bands and images."""
    _check_input(x, spec, grad_out)
    pads = _grad_geometry(grad_out, spec, x.shape[2:], pads)
    _, co, oh, ow = grad_out.shape
    k = spec.kernel
    _, acc = _correlate(x, k, spec.stride, 1, pads, oh, ow, rhs=grad_out)
    gw = np.ascontiguousarray(acc.T).reshape(co, spec.c_in, k, k)
    return gw, grad_out.sum(axis=(0, 2, 3))


def conv2d_backward(x, spec: Conv, params: Params, grad_out, pads=None):
    """Full conv backward, (grad_in, grad_w, grad_b), from one band pass over
    the input gradient's columns: grad_in as conv2d_input_grad computes it,
    bit for bit, and grad_w[co, ci, k-1-ky, k-1-kx] the sum over input
    positions y of x[ci, y] times column (co, ky, kx) at y (see _correlate)."""
    _check_input(x, spec, grad_out)
    gx, acc = _grad_in(grad_out, spec, params, x.shape[2:], pads, x)
    k = spec.kernel
    gw = acc.reshape(spec.c_out, k, k, spec.c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2).copy()
    return gx, gw, grad_out.sum(axis=(0, 2, 3))


def _tap(a, ky, kx, s, oh, ow):
    """Strided view of the entries tap (ky, kx) reads for each of the oh x ow pool windows."""
    return a[:, :, ky : ky + s * (oh - 1) + 1 : s, kx : kx + s * (ow - 1) + 1 : s]


def _pool_max(x, k, s, route=None):
    """Running np.maximum of the k*k tap views: each window's max value. On a
    tie of -0.0 and +0.0 numpy may return either operand, so the sign of a
    zero max is left open here.

    With route, a uint8 array of the output's shape, also writes each
    window's first tap in row-major order equal to its max: tap t raises the
    window's code to t where it exceeds the running max of taps 0..t-1, an
    arithmetic np.maximum(route, (tap > max) * t) in one reused buffer, and
    codes only grow with t, so the last raise is the first maximal tap."""
    oh = out_size(x.shape[2], k, s, 0)
    ow = out_size(x.shape[3], k, s, 0)
    out = _tap(x, 0, 0, s, oh, ow).copy()
    if route is not None:
        route.fill(0)
        code = np.empty(out.shape, dtype=np.uint8)
    for t in range(1, k * k):
        tap = _tap(x, t // k, t % k, s, oh, ow)
        if route is not None:
            np.greater(tap, out, out=code.view(bool))
            np.multiply(code, np.uint8(t), out=code)
            np.maximum(route, code, out=route)
        np.maximum(out, tap, out=out)
    return out


def maxpool2d_forward(x, k, s, route=False):
    """Max pooling over k x k windows at stride s. A zero max reads +0.0
    whatever the signs of its zeros.

    Returns the output alone, or with route=True (output, route): route is
    uint8 of the output's shape holding each window's first tap in
    row-major order equal to its max, ky * k + kx, which maxpool2d_backward
    scatters from. A route needs k * k <= 256. The output is not scanned
    for NaN or Inf: a max selects its input's values (see tilestream.engine,
    "Finiteness").
    """
    check_tensor4(x, "pool input")
    if route and k * k > 256:
        raise ShapeError(f"a {k}x{k} pool has more taps than a uint8 route holds")
    n, c, h, w = x.shape
    taps = np.empty((n, c, out_size(h, k, s, 0), out_size(w, k, s, 0)),
                    dtype=np.uint8) if route else None
    out = _pool_max(x, k, s, taps)
    out += 0
    return out if taps is None else (out, taps)


def maxpool2d_backward(route, grad_out, k, s, in_shape, relu_out=None):
    """Scatter each window's gradient to its routed tap, into a zero map of in_shape.

    route is maxpool2d_forward's. relu_out, the pool's output when a relu
    sits directly below the pool, applies that relu's mask:
    the routed tap's input is > 0 exactly where the window's max is, so a
    window whose output is <= 0 routes +0.0. The gradient is grad_out + 0
    (a routed -0.0 reads +0.0), masked by multiplying its bit patterns, as
    integers, by relu_out > 0, as in relu_backward. With k <= s the windows
    are disjoint: each tap's view of the gradient is set to that gradient
    times the tap's hits (route == tap), multiplied the same way. With
    k > s the hits are added onto zeros tap by tap in reverse row-major
    order, which for every input pixel is output row-major order. Either
    way the result is bit for bit relu_backward of a scatter-add onto zeros
    of each map's outputs in row-major order. Like every selecting kernel
    it scans nothing for NaN or Inf (see tilestream.engine, "Finiteness").
    """
    check_tensor4(grad_out, "pool grad_out")
    n, c, h, w = in_shape
    if (route.dtype != np.uint8 or route.shape != grad_out.shape
            or route.shape != (n, c, out_size(h, k, s, 0), out_size(w, k, s, 0))):
        raise ShapeError(f"grad_out {grad_out.shape} and route {route.shape} are not the "
                         f"pool output of input {tuple(in_shape)}")
    bits = np.dtype(f"i{grad_out.itemsize}")
    routed = grad_out + 0
    if relu_out is not None:
        check_same_dtype(relu_out, grad_out)
        if relu_out.shape != grad_out.shape:
            raise ShapeError("relu mask shape mismatch")
        np.multiply(routed.view(bits), relu_out > 0, out=routed.view(bits))
    oh, ow = route.shape[2:]
    gx = np.zeros(in_shape, dtype=grad_out.dtype)
    hit = np.empty(route.shape, dtype=bool)
    if k <= s:
        for t in range(k * k):
            np.equal(route, t, out=hit)
            np.multiply(routed.view(bits), hit, out=_tap(gx, t // k, t % k, s, oh, ow).view(bits))
    else:
        for t in range(k * k - 1, -1, -1):
            np.equal(route, t, out=hit)
            view = _tap(gx, t // k, t % k, s, oh, ow)
            view += routed * hit
    return gx


def relu_forward(x, inplace=False):
    """max(x, 0). With inplace=True the input buffer is overwritten. A relu
    selects values and scans nothing for NaN or Inf (see tilestream.engine,
    "Finiteness")."""
    return np.maximum(x, 0, out=x if inplace else None)


def relu_backward(out, grad_out, inplace=False):
    """Pass gradient where the activation is strictly positive (+0.0 elsewhere).

    Takes the relu *output*; out > 0 holds exactly where the input was > 0,
    so the pre-activation buffer need not be retained. The gradient's bit
    patterns are multiplied, as integers, by the 0/1 mask: 1 keeps every
    bit (a -0.0 included) and 0 gives +0.0, the bits np.where(out > 0,
    grad_out, 0) gives, without its per-element branch. With inplace=True
    grad_out is overwritten and returned. The mask scans nothing for NaN
    or Inf (see tilestream.engine, "Finiteness").
    """
    check_same_dtype(out, grad_out)
    if out.shape != grad_out.shape:
        raise ShapeError("relu grad shape mismatch")
    bits = np.dtype(f"i{grad_out.itemsize}")
    result = grad_out if inplace else np.empty_like(grad_out)
    np.multiply(grad_out.view(bits), out > 0, out=result.view(bits))
    return result


def flatten_forward(x):
    """(n, c, h, w) -> (n, c*h*w), row-major; returns (out, original shape)."""
    check_tensor4(x, "flatten input")
    return x.reshape(x.shape[0], -1), x.shape


def flatten_backward(grad_out, shape):
    return grad_out.reshape(shape)


def dense_forward(x, params: Params):
    """y = x @ W.T + b via einsum (no BLAS, deterministic per shape)."""
    if x.ndim != 2 or x.shape[1] != params.w.shape[1]:
        raise ShapeError(f"dense input {x.shape} vs weights {params.w.shape}")
    check_same_dtype(x, params.w, params.b)
    y = np.einsum("nf,of->no", x, params.w, optimize=False) + params.b[None, :]
    return check_finite(y, "dense output")


def dense_input_grad(params: Params, grad_out):
    """grad_x of y = x @ W.T + b; dense_backward forms the parameter gradients."""
    check_same_dtype(grad_out, params.w)
    gx = np.einsum("no,of->nf", grad_out, params.w, optimize=False)
    return check_finite(gx, "dense grad_in")


def dense_backward(x, grad_out, acc: Params):
    """Adds the weight and bias gradients of y = x @ W.T + b into acc in place.

    The weight gradient is added one output row at a time, so the call
    allocates one (in,) row, never an (out, in) array.
    """
    check_same_dtype(x, grad_out, acc.w)
    for o, row in enumerate(acc.w):
        row += np.einsum("n,nf->f", grad_out[:, o], x, optimize=False)
    acc.b += grad_out.sum(axis=0)


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
    return check_finite(loss, "bce loss"), check_finite(grad, "bce grad")
