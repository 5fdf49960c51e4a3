"""Network description, parameters and whole-stack execution.

A network is an ordered list of layer nodes with one Flatten. The layers
below the flatten form the streaming section (conv / maxpool / relu
only, every map stays spatial), and its split index is the flatten's
index, derived, never given: the split map is the flatten's input. The
head is the flatten onward: it ends in a width-1 dense layer producing
the binary logit. Conv is the one in tilestream.layers: NetworkSpec
stores each conv with the c_in of the map below filled in, and run_stack
hands that layer to the conv kernels as their geometry.

Parameters are a list aligned with the layers: a tilestream.layers.Params
(w, b) per conv or dense layer, None for the others, shaped by
NetworkSpec.param_shapes. Initialisation draws uniform(-1/sqrt(fan_in),
1/sqrt(fan_in)) weights, fan_in being the product of the weight shape
after its first axis, from a pinned, portable generator (numpy PCG64
seeded with the run seed), always in double precision and then cast to
the run dtype, so single and double runs share the same initial point
up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ShapeError
from .layers import (
    Conv,
    Params,
    conv2d_backward,
    conv2d_forward,
    conv2d_param_grad,
    dense_backward,
    dense_forward,
    dense_input_grad,
    flatten_backward,
    flatten_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    out_size,
    relu_backward,
    relu_forward,
)
from .tensors import resolve_dtype


@dataclass(frozen=True)
class MaxPool:
    kernel: int = 2
    stride: int = 2

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1:
            raise ShapeError(f"bad pool geometry {self}")
        if self.kernel ** 2 > 256:
            raise ShapeError(f"a {self.kernel}x{self.kernel} pool has more taps than a uint8 "
                             "route holds")


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Dense:
    width: int


STREAMING_KINDS = (Conv, MaxPool, Relu)


@dataclass
class NetworkSpec:
    """Ordered layers: a streaming section of spatial layers, then the
    head, from the one Flatten on. split_index, the flatten's index, is
    derived from the layers.

    The stored layers are resolved: each Conv carries the c_in of the map
    below it, so kernels, planner, initialiser and memory model all read
    one description of every layer.
    """

    in_channels: int
    layers: tuple
    split_index: int = field(init=False)

    def __post_init__(self):
        self.layers = tuple(self.layers)
        flattens = [i for i, layer in enumerate(self.layers) if isinstance(layer, Flatten)]
        if len(flattens) != 1:
            raise ShapeError(f"a network has one flatten, not {len(flattens)}")
        self.split_index = flattens[0]
        if self.split_index == 0:
            raise ShapeError("no spatial layer below the flatten")
        resolved = []
        c = self.in_channels
        for i, layer in enumerate(self.layers):
            if i < self.split_index and not isinstance(layer, STREAMING_KINDS):
                raise ShapeError(f"layer {i} ({layer}) below the flatten is not spatial")
            if i > self.split_index and isinstance(layer, (Conv, MaxPool)):
                raise ShapeError(f"layer {i} ({layer}) above the flatten is spatial")
            if isinstance(layer, Conv):
                if layer.c_in not in (None, c):
                    raise ShapeError(f"conv layer {i} takes c_in={layer.c_in}, "
                                     f"the map below has {c} channels")
                layer = replace(layer, c_in=c)
                c = layer.c_out
            resolved.append(layer)
        self.layers = tuple(resolved)
        last = self.layers[-1]
        if not isinstance(last, Dense) or last.width != 1:
            raise ShapeError("network must end in a width-1 dense layer")

    @property
    def stream_layers(self):
        return self.layers[: self.split_index]

    def stream_geoms(self):
        """Per-streaming-layer (kernel, stride, pad); relu is (1, 1, 0)."""
        geoms = []
        for layer in self.stream_layers:
            if isinstance(layer, Conv):
                geoms.append((layer.kernel, layer.stride, layer.pad))
            elif isinstance(layer, MaxPool):
                geoms.append((layer.kernel, layer.stride, 0))
            else:
                geoms.append((1, 1, 0))
        return geoms

    def activation_shapes(self, image_size):
        """One image's array shape of map 0 (input) .. the last layer's
        output for a square image: (c, h, w) up to flatten, (f,) after it."""
        shapes = [(self.in_channels, image_size, image_size)]
        for layer in self.layers:
            cur = shapes[-1]
            if isinstance(layer, Conv):
                _, h, w = cur
                cur = (layer.c_out, out_size(h, layer.kernel, layer.stride, layer.pad),
                       out_size(w, layer.kernel, layer.stride, layer.pad))
            elif isinstance(layer, MaxPool):
                c, h, w = cur
                cur = (c, out_size(h, layer.kernel, layer.stride),
                       out_size(w, layer.kernel, layer.stride))
            elif isinstance(layer, Flatten):
                cur = (math.prod(cur),)
            elif isinstance(layer, Dense):
                cur = (layer.width,)
            shapes.append(cur)
        return shapes

    def split_shape(self, image_size):
        """(c, h, w) of the split map, the flatten's input."""
        return self.activation_shapes(image_size)[self.split_index]

    def param_shapes(self, image_size):
        """(weight shape, bias shape) per layer; None for layers without parameters."""
        out = []
        for layer, below in zip(self.layers, self.activation_shapes(image_size)):
            if isinstance(layer, Conv):
                out.append(((layer.c_out, layer.c_in, layer.kernel, layer.kernel), (layer.c_out,)))
            elif isinstance(layer, Dense):
                out.append(((layer.width, below[0]), (layer.width,)))
            else:
                out.append(None)
        return out


def init_params(net: NetworkSpec, image_size, seed, precision="double"):
    """Fan-in scaled uniform init, reproducible from (net, image_size, seed)."""
    dtype = resolve_dtype(precision)
    rng = np.random.Generator(np.random.PCG64(seed))
    params = []
    for shapes in net.param_shapes(image_size):
        if shapes is None:
            params.append(None)
            continue
        w_shape, b_shape = shapes
        bound = 1.0 / np.sqrt(math.prod(w_shape[1:]))
        w = rng.uniform(-bound, bound, w_shape)
        params.append(Params(w.astype(dtype), np.zeros(b_shape, dtype=dtype)))
    return params


def _map_params(params, fn):
    """Apply fn to every weight and bias; None stays None."""
    return [None if p is None else Params(fn(p.w), fn(p.b)) for p in params]


def clone_params(params):
    return _map_params(params, lambda a: a.copy())


def cast_params(params, precision):
    dtype = resolve_dtype(precision)
    return _map_params(params, lambda a: a.astype(dtype))


def param_bytes(params):
    return sum(p.w.nbytes + p.b.nbytes for p in params if p is not None)


class ParamGrads:
    """Per-layer parameter gradients, shape-mirroring a parameter list."""

    def __init__(self, per_layer):
        self.per_layer = per_layer

    @classmethod
    def zeros_like(cls, params, stop=None):
        """Zero gradients for the layers below stop (every layer by default), None above."""
        stop = len(params) if stop is None else stop
        return cls(_map_params(params[:stop], np.zeros_like) + [None] * len(params[stop:]))

    def add_(self, other):
        for mine, theirs in zip(self.per_layer, other.per_layer):
            if mine is None:
                continue
            if theirs is None or mine.w.shape != theirs.w.shape:
                raise ShapeError("gradient shape mismatch in accumulation")
            mine.w += theirs.w
            mine.b += theirs.b
        return self

    def div_(self, count):
        """Divide every gradient by count in place; dividing by 1 is skipped (it is exact)."""
        if count == 1:
            return self
        for g in self.per_layer:
            if g is not None:
                g.w /= g.w.dtype.type(count)
                g.b /= g.b.dtype.type(count)
        return self

    def named_tensors(self):
        """Yields (name, array) pairs for every gradient tensor."""
        for i, g in enumerate(self.per_layer):
            if g is None:
                continue
            yield f"{g.kind}{i}.w", g.w
            yield f"{g.kind}{i}.b", g.b


def layer_forward(x, layer, lparams, pads=None, inplace_ok=False, want_cache=True):
    """Run one layer; returns (out, cache) where cache feeds layer_backward.

    A pool's cache is (route, input shape, None), and a route is computed
    only when want_cache is set; run_stack puts the pool's output in the
    last slot when it fuses a relu directly below the pool (fused_relu).
    """
    if isinstance(layer, Conv):
        out = conv2d_forward(x, layer, lparams, pads)
        return out, (x, pads)
    if isinstance(layer, MaxPool):
        if not want_cache:
            return maxpool2d_forward(x, layer.kernel, layer.stride), None
        out, route = maxpool2d_forward(x, layer.kernel, layer.stride, route=True)
        return out, (route, x.shape, None)
    if isinstance(layer, Relu):
        out = relu_forward(x, inplace=inplace_ok)
        return out, out
    if isinstance(layer, Flatten):
        out, shape = flatten_forward(x)
        return out, shape
    if isinstance(layer, Dense):
        out = dense_forward(x, lparams)
        return out, x
    raise ShapeError(f"unknown layer {layer!r}")


def _add_param_grads(acc, gw, gb):
    acc.w += gw
    acc.b += gb


def layer_backward(grad_out, layer, lparams, cache, acc, inplace_ok=False, input_grad=True):
    """Run one layer backward; returns grad_in, or None without input_grad.

    A conv adds its parameter gradients into acc, its entry of the pass's
    ParamGrads. It takes both gradients from one band pass
    (conv2d_backward), whose weight product and accumulator come out of
    its band's column budget; its kernel-sized weight gradient is added
    into acc as soon as the call returns. Without input_grad (layer 0,
    whose input gradient nothing reads) a conv runs the parameter-only
    pass conv2d_param_grad, and any other layer does nothing. A dense
    layer returns its input gradient only and ignores acc:
    head_param_grads forms its parameter gradients once the pass's tiles
    are done. With inplace_ok a relu masks grad_out in place and returns
    it; a relu without a cache, fused into the pool above it, returns
    grad_out as it is, since that pool's backward applied its mask.
    """
    if isinstance(layer, Conv):
        x, pads = cache
        if not input_grad:
            _add_param_grads(acc, *conv2d_param_grad(x, layer, grad_out, pads))
            return None
        gx, gw, gb = conv2d_backward(x, layer, lparams, grad_out, pads)
        _add_param_grads(acc, gw, gb)
        return gx
    if not input_grad:
        return None
    if isinstance(layer, MaxPool):
        route, in_shape, relu_out = cache
        return maxpool2d_backward(route, grad_out, layer.kernel, layer.stride, in_shape, relu_out)
    if isinstance(layer, Relu):
        if cache is None:
            return grad_out
        return relu_backward(cache, grad_out, inplace=inplace_ok)
    if isinstance(layer, Flatten):
        return flatten_backward(grad_out, cache)
    if isinstance(layer, Dense):
        return dense_input_grad(lparams, grad_out)
    raise ShapeError(f"unknown layer {layer!r}")


def fused_relu(layers, start, i):
    """Whether layer i of a stack starting at start is a pool with a relu
    directly below it in the stack. run_stack runs that pair as one: the
    pool takes the max of the relu's input and the relu then runs in place
    on the pool's output, so the relu never touches the full map. Max
    commutes with relu, and a pool's zero max reads +0.0, so the output is
    relu-then-pool's bit for bit. The relu caches nothing, and the pool
    keeps a reference to its output to apply the relu's mask: a route can
    differ from relu-then-pool's only in a window whose output is +0.0,
    which the mask zeroes. A relu above the pool may run in place on that
    output; the output is >= +0.0, so the relu leaves it as it was."""
    return isinstance(layers[i], MaxPool) and i > start and isinstance(layers[i - 1], Relu)


def run_stack(x, net, params, start, stop, pads_seq=None, want_cache=True, byte_sink=None):
    """Run layers [start, stop) forward.

    Returns (out, caches); caches is None when want_cache is False. The
    incoming array is never mutated (it may be a view of the caller's
    image or split map): relu runs in place only on buffers the stack
    itself made. A relu directly below a pool runs on the pool's output
    and caches nothing (see fused_relu), and a pool caches its uint8
    route, so the map below a pool is freed once the pool has run
    (tilestream.memory.pool_frees).

    byte_sink, if given, is a list that receives each layer's output
    element count, whatever want_cache is; tilestream.memory.live_peak
    turns them into the cached pass's live bytes.
    """
    layers = net.layers
    caches = [] if want_cache else None
    owns = False  # x is a buffer this call made; flatten returns a view of its input
    fused = [fused_relu(layers, start, i) for i in range(start, stop)] + [False]
    for i in range(start, stop):
        layer = layers[i]
        if fused[i + 1 - start]:
            out, cache = x, None  # the pool above runs this relu on its output
        else:
            pads = pads_seq[i - start] if pads_seq is not None else None
            out, cache = layer_forward(x, layer, params[i], pads,
                                       inplace_ok=owns and isinstance(layer, Relu),
                                       want_cache=want_cache)
            owns = owns or not isinstance(layer, Flatten)
        if fused[i - start]:
            np.maximum(out, 0, out=out)  # the fused relu; the pool checked out finite
            if want_cache:
                cache = cache[:2] + (out,)
        if byte_sink is not None:
            byte_sink.append(out.size)
        if want_cache:
            caches.append(cache)
        x = out
    return x, caches


def stack_backward(grad_out, net, params, caches, start, stop, grads, deferred=None):
    """Backward through layers [start, stop); returns the gradient wrt their input.

    The one backward loop: it runs a segment's tile and, for head_backward,
    the head. Pops each layer's cache from caches (run_stack's list) as
    its backward starts and adds its parameter gradients into grads, the
    pass's ParamGrads; a dense layer's wait for head_param_grads, so the
    loop appends (layer index, input, grad_out) to deferred for each, its
    input being what its cache held (dense 0's, a view of the split map).
    A pool scatters from its route, with its fused relu's mask if it has
    one, and that relu passes the gradient on. With start 0 layer 0
    yields only its parameter gradients (nothing consumes an image
    gradient) and None is returned. grad_out is never written (it may be
    a view of the caller's gradient map): relu masks in place only
    gradient buffers the stack itself made, which every layer's backward
    does.
    """
    g = grad_out
    for i in range(stop - 1, start - 1, -1):
        layer, cache = net.layers[i], caches.pop()
        if isinstance(layer, Dense):
            deferred.append((i, cache, g))
        g = layer_backward(g, layer, params[i], cache, grads.per_layer[i],
                           inplace_ok=i < stop - 1 and isinstance(layer, Relu), input_grad=i > 0)
    return g


def head_forward(split_map, net, params, byte_sink=None):
    """Run the head on a reconstructed split map; returns (logit, caches)."""
    out, caches = run_stack(split_map, net, params, net.split_index, len(net.layers),
                            byte_sink=byte_sink)
    if out.shape[1] != 1:
        raise ShapeError("head did not produce a single logit per image")
    return out[:, 0], caches


def head_backward(dlogit, net, params, caches, split_shape):
    """The head's first backward pass: stack_backward's activation
    gradients, top-down to the split map. Returns (split-map gradient,
    deferred), deferred holding what each dense layer's parameter
    gradients need (head_param_grads). The head holds no conv, so no
    entry of its gradient set is read."""
    deferred = []
    g = stack_backward(np.asarray(dlogit).reshape(split_shape[0], 1), net, params, caches,
                       net.split_index, len(net.layers), ParamGrads.zeros_like(params, 0),
                       deferred)
    if g.shape != split_shape:
        raise ShapeError("head backward produced wrong split-map gradient shape")
    return g, deferred


def head_param_grads(params, deferred, grads):
    """The head's second backward pass: each dense layer's weight and bias
    gradients from what head_backward deferred, added into grads. A
    layer's entry is allocated here unless grads holds it already (from a
    mini-batch's earlier image)."""
    for i, x, g in deferred:
        if grads.per_layer[i] is None:
            grads.per_layer[i] = Params(np.zeros_like(params[i].w), np.zeros_like(params[i].b))
        dense_backward(x, g, grads.per_layer[i])


def net_vgg13(in_channels=1, base=4, hidden=32):
    """13-conv VGG-pattern streaming section (2-2-3-3-3 blocks, 3x3 'same'
    convs, 2x2 pools after every block but the last, and one after it),
    with a small flatten/dense head."""
    widths = [base, base, None, 2 * base, 2 * base, None,
              4 * base, 4 * base, 4 * base, None,
              8 * base, 8 * base, 8 * base, None,
              8 * base, 8 * base, 8 * base, None]
    layers = []
    for wd in widths:
        if wd is None:
            layers.append(MaxPool(2, 2))
        else:
            layers += [Conv(wd, 3, 1, 1), Relu()]
    layers += [Flatten(), Dense(hidden), Relu(), Dense(1)]
    return NetworkSpec(in_channels, tuple(layers))


def net_tiny2(in_channels=1, base=8, hidden=16):
    """Two-conv streaming section for the synthetic-task experiment."""
    layers = [Conv(base, 3, 1, 1), Relu(), MaxPool(2, 2),
              Conv(2 * base, 3, 1, 1), Relu(), MaxPool(2, 2), MaxPool(2, 2),
              Flatten(), Dense(hidden), Relu(), Dense(1)]
    return NetworkSpec(in_channels, tuple(layers))


def net_giga64mp(in_channels=3):
    """Documented 64-megapixel reference: VGG-pattern streaming section sized
    so whole-image batch-1 activations land in the tens of gigabytes."""
    net = net_vgg13(in_channels=in_channels, base=16, hidden=64)
    # vgg13's streaming section, then more streamed pool/conv stages so the
    # flatten stays moderate at 8130x8130 inputs
    layers = net.layers[: net.split_index] + (
        Conv(192, 3, 1, 1), Relu(), MaxPool(2, 2), Conv(192, 3, 1, 1), Relu(),
        MaxPool(2, 2), MaxPool(2, 2), Flatten(), Dense(64), Relu(), Dense(1))
    return NetworkSpec(in_channels, layers)


PRESETS = {
    "vgg13": net_vgg13,
    "tiny2": net_tiny2,
    "giga64mp": net_giga64mp,
}
