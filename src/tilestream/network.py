"""Network description, parameters and whole-stack execution.

A network is an ordered list of layer nodes plus a split index. Layers
before the split form the streaming section (conv / maxpool / relu only,
every map stays spatial); layers from the split onward form the head,
which flattens once and ends in a width-1 dense layer producing the
binary logit.

Parameters are a list aligned with the layers (None for parameter-free
layers). Initialisation draws uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))
weights from a pinned, portable generator (numpy PCG64 seeded with the
run seed), always in double precision and then cast to the run dtype, so
single and double runs share the same initial point up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .layers import (
    ConvParams,
    ConvSpec,
    DenseParams,
    conv2d_backward,
    conv2d_forward,
    conv2d_param_grad,
    dense_backward,
    dense_forward,
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
class Conv:
    c_out: int
    kernel: int = 3
    stride: int = 1
    pad: int = 0


@dataclass(frozen=True)
class MaxPool:
    kernel: int = 2
    stride: int = 2


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
    """Ordered layers plus the split separating streaming section from head."""

    in_channels: int
    layers: tuple
    split_index: int
    conv_specs: list = field(init=False, repr=False)

    def __post_init__(self):
        self.layers = tuple(self.layers)
        if not 1 <= self.split_index < len(self.layers):
            raise ShapeError(f"split_index {self.split_index} out of range")
        specs = []
        c = self.in_channels
        seen_flatten = False
        for i, layer in enumerate(self.layers):
            streaming = i < self.split_index
            if streaming and not isinstance(layer, STREAMING_KINDS):
                raise ShapeError(f"layer {i} ({layer}) not allowed in the streaming section")
            if isinstance(layer, Conv):
                if seen_flatten:
                    raise ShapeError(f"conv layer {i} after flatten")
                specs.append(ConvSpec(layer.kernel, layer.stride, layer.pad, c, layer.c_out))
                c = layer.c_out
            elif isinstance(layer, MaxPool):
                if seen_flatten:
                    raise ShapeError(f"maxpool layer {i} after flatten")
                specs.append(None)
            elif isinstance(layer, Flatten):
                if seen_flatten:
                    raise ShapeError("second flatten")
                seen_flatten = True
                specs.append(None)
            elif isinstance(layer, Dense):
                if not seen_flatten:
                    raise ShapeError(f"dense layer {i} before flatten")
                specs.append(None)
            else:
                specs.append(None)
        last = self.layers[-1]
        if not isinstance(last, Dense) or last.width != 1:
            raise ShapeError("network must end in a width-1 dense layer")
        self.conv_specs = specs

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
        """Shapes of map 0 (input) .. map L for a square image.

        Spatial maps are ('map', c, h, w); post-flatten entries are ('vec', f).
        """
        shapes = [("map", self.in_channels, image_size, image_size)]
        cur = shapes[0]
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Conv):
                _, c, h, w = cur
                spec = self.conv_specs[i]
                cur = ("map", spec.c_out, out_size(h, spec.kernel, spec.stride, spec.pad),
                       out_size(w, spec.kernel, spec.stride, spec.pad))
            elif isinstance(layer, MaxPool):
                _, c, h, w = cur
                cur = ("map", c, out_size(h, layer.kernel, layer.stride),
                       out_size(w, layer.kernel, layer.stride))
            elif isinstance(layer, Flatten):
                _, c, h, w = cur
                cur = ("vec", c * h * w)
            elif isinstance(layer, Dense):
                cur = ("vec", layer.width)
            shapes.append(cur)
        return shapes

    def split_shape(self, image_size):
        shape = self.activation_shapes(image_size)[self.split_index]
        if shape[0] != "map":
            raise ShapeError("split map is not spatial")
        return shape[1:]


def init_params(net: NetworkSpec, image_size, seed, precision="double"):
    """Fan-in scaled uniform init, reproducible from (net, image_size, seed)."""
    dtype = resolve_dtype(precision)
    rng = np.random.Generator(np.random.PCG64(seed))
    shapes = net.activation_shapes(image_size)
    params = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Conv):
            spec = net.conv_specs[i]
            fan_in = spec.c_in * spec.kernel * spec.kernel
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, (spec.c_out, spec.c_in, spec.kernel, spec.kernel))
            params.append(ConvParams(w.astype(dtype), np.zeros(spec.c_out, dtype=dtype)))
        elif isinstance(layer, Dense):
            fan_in = shapes[i][1]
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, (layer.width, fan_in))
            params.append(DenseParams(w.astype(dtype), np.zeros(layer.width, dtype=dtype)))
        else:
            params.append(None)
    return params


def clone_params(params):
    out = []
    for p in params:
        if p is None:
            out.append(None)
        elif isinstance(p, ConvParams):
            out.append(ConvParams(p.w.copy(), p.b.copy()))
        else:
            out.append(DenseParams(p.w.copy(), p.b.copy()))
    return out


def cast_params(params, precision):
    dtype = resolve_dtype(precision)
    out = []
    for p in params:
        if p is None:
            out.append(None)
        else:
            out.append(type(p)(p.w.astype(dtype), p.b.astype(dtype)))
    return out


def param_bytes(params):
    return sum(p.w.nbytes + p.b.nbytes for p in params if p is not None)


class ParamGrads:
    """Per-layer parameter gradients, shape-mirroring a parameter list.

    images_accumulated counts how many per-image gradient sets were summed
    in; after mini-batch finalisation it equals the batch size.
    """

    def __init__(self, per_layer, images_accumulated=0):
        self.per_layer = per_layer
        self.images_accumulated = images_accumulated

    @classmethod
    def zeros_like(cls, params):
        out = []
        for p in params:
            if p is None:
                out.append(None)
            else:
                out.append(type(p)(np.zeros_like(p.w), np.zeros_like(p.b)))
        return cls(out)

    def add_(self, other):
        for mine, theirs in zip(self.per_layer, other.per_layer):
            if mine is None:
                continue
            if theirs is None or mine.w.shape != theirs.w.shape:
                raise ShapeError("gradient shape mismatch in accumulation")
            mine.w += theirs.w
            mine.b += theirs.b
        self.images_accumulated += max(other.images_accumulated, 1)
        return self

    def add_by_layer_(self, by_layer):
        """Add a {layer index: ConvParams/DenseParams} gradient dict in place."""
        for i, pg in by_layer.items():
            self.per_layer[i].w += pg.w
            self.per_layer[i].b += pg.b
        return self

    def div_(self, count):
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
            kind = "conv" if isinstance(g, ConvParams) else "dense"
            yield f"{kind}{i}.w", g.w
            yield f"{kind}{i}.b", g.b


def layer_forward(x, layer, lparams, conv_spec=None, pads=None, inplace_ok=False):
    """Run one layer; returns (out, cache) where cache feeds layer_backward."""
    if isinstance(layer, Conv):
        out = conv2d_forward(x, conv_spec, lparams, pads)
        return out, (x, pads)
    if isinstance(layer, MaxPool):
        out, argmax = maxpool2d_forward(x, layer.kernel, layer.stride)
        return out, (argmax, x.shape[2:])
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


def layer_backward(grad_out, layer, lparams, conv_spec, cache):
    """Run one layer backward; returns (grad_in, param_grads or None)."""
    if isinstance(layer, Conv):
        x, pads = cache
        gx, gw, gb = conv2d_backward(x, conv_spec, lparams, grad_out, pads)
        return gx, ConvParams(gw, gb)
    if isinstance(layer, MaxPool):
        argmax, in_hw = cache
        return maxpool2d_backward(argmax, grad_out, in_hw), None
    if isinstance(layer, Relu):
        return relu_backward(cache, grad_out), None
    if isinstance(layer, Flatten):
        return flatten_backward(grad_out, cache), None
    if isinstance(layer, Dense):
        gx, gw, gb = dense_backward(cache, lparams, grad_out)
        return gx, DenseParams(gw, gb)
    raise ShapeError(f"unknown layer {layer!r}")


def run_stack(x, net, params, start, stop, pads_seq=None, want_cache=True,
              protect_input=True, byte_sink=None):
    """Run layers [start, stop) forward.

    Returns (out, caches); caches is None when want_cache is False. Relu
    runs in place once the buffer is stack-owned; with protect_input the
    incoming array is never mutated. byte_sink, if given, is a list that
    receives (layer_index, activation_bytes) per layer under the shared
    accounting policy (relu and flatten count zero, maxpool adds its
    argmax bytes).
    """
    caches = [] if want_cache else None
    owns = not protect_input
    for i in range(start, stop):
        layer = net.layers[i]
        pads = pads_seq[i - start] if pads_seq is not None else None
        out, cache = layer_forward(x, layer, params[i], net.conv_specs[i], pads,
                                   inplace_ok=owns and isinstance(layer, Relu))
        if byte_sink is not None:
            if isinstance(layer, (Relu, Flatten)):
                byte_sink.append((i, 0))
            elif isinstance(layer, MaxPool):
                byte_sink.append((i, out.nbytes + cache[0].nbytes))
            else:
                byte_sink.append((i, out.nbytes))
        if want_cache:
            caches.append(cache)
        x = out
        owns = True
    return x, caches


def stack_backward(grad_out, net, params, caches, start, stop):
    """Backward through layers [start, stop); returns (grad_in, grads_by_layer).

    Nothing consumes a gradient with respect to the image, so with start 0
    layer 0 yields only its parameter gradients and grad_in is None.
    """
    grads = {}
    g = grad_out
    for i in range(stop - 1, max(start, 1) - 1, -1):
        layer = net.layers[i]
        g, pg = layer_backward(g, layer, params[i], net.conv_specs[i], caches[i - start])
        if pg is not None:
            grads[i] = pg
    if start == 0:
        if isinstance(net.layers[0], Conv):
            x, pads = caches[0]
            grads[0] = ConvParams(*conv2d_param_grad(x, net.conv_specs[0], g, pads))
        g = None
    return g, grads


def head_forward(split_map, net, params, byte_sink=None):
    """Run the head on a reconstructed split map; returns (logit, caches)."""
    out, caches = run_stack(split_map, net, params, net.split_index, len(net.layers),
                            protect_input=True, byte_sink=byte_sink)
    if out.shape[1] != 1:
        raise ShapeError("head did not produce a single logit per image")
    return out[:, 0], caches


def head_backward(dlogit, net, params, caches, split_shape):
    """Gradient of the head: returns (grad wrt split map, head grads dict)."""
    n = split_shape[0]
    g = np.asarray(dlogit).reshape(n, 1)
    grad_map, grads = stack_backward(g, net, params, caches, net.split_index, len(net.layers))
    if grad_map.shape != split_shape:
        raise ShapeError("head backward produced wrong split-map gradient shape")
    return grad_map, grads


def net_vgg13(in_channels=1, base=4, hidden=32):
    """13-conv VGG-pattern streaming section (2-2-3-3-3 blocks, 3x3 'same'
    convs, 2x2 pools between blocks) split after the thirteenth conv's relu,
    with a small pool/flatten/dense head."""
    widths = [base, base, None, 2 * base, 2 * base, None,
              4 * base, 4 * base, 4 * base, None,
              8 * base, 8 * base, 8 * base, None,
              8 * base, 8 * base, 8 * base]
    layers = []
    for wd in widths:
        if wd is None:
            layers.append(MaxPool(2, 2))
        else:
            layers += [Conv(wd, 3, 1, 1), Relu()]
    split = len(layers)
    layers += [MaxPool(2, 2), Flatten(), Dense(hidden), Relu(), Dense(1)]
    return NetworkSpec(in_channels, tuple(layers), split)


def net_tiny2(in_channels=1, base=8, hidden=16):
    """Two-conv streaming section for the synthetic-task experiment."""
    layers = [Conv(base, 3, 1, 1), Relu(), MaxPool(2, 2),
              Conv(2 * base, 3, 1, 1), Relu(), MaxPool(2, 2)]
    split = len(layers)
    layers += [MaxPool(2, 2), Flatten(), Dense(hidden), Relu(), Dense(1)]
    return NetworkSpec(in_channels, tuple(layers), split)


def net_giga64mp(in_channels=3):
    """Documented 64-megapixel reference: VGG-pattern streaming section sized
    so whole-image batch-1 activations land in the tens of gigabytes."""
    net = net_vgg13(in_channels=in_channels, base=16, hidden=64)
    # replace the stock head with extra pool/conv stages so the flatten
    # stays moderate at 8130x8130 inputs
    split = net.split_index
    layers = list(net.layers[:split])
    layers += [MaxPool(2, 2), Conv(192, 3, 1, 1), Relu(),
               MaxPool(2, 2), Conv(192, 3, 1, 1), Relu(),
               MaxPool(2, 2), MaxPool(2, 2), Flatten(), Dense(64), Relu(), Dense(1)]
    return NetworkSpec(in_channels, tuple(layers), split)


PRESETS = {
    "vgg13": net_vgg13,
    "tiny2": net_tiny2,
    "giga64mp": net_giga64mp,
}
