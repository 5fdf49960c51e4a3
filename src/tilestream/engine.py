"""Execution: whole-image and tiled passes, and the one SGD training step.

Both executors run one image forward and backward and return a
PassResult; train_step is the only code that picks between them (plan
None selects whole-image), so train, bench and verify's lockstep run the
same SGD loop and differ only in the per-image executor.

Whole image: the streaming section and the head run once on the whole
image with standard backprop, through the same kernels as the tiles.

Streaming forward: each tile's input crop runs through the streaming
section with the plan's border-only padding, lands exactly on its owned
split-map region and is pasted there; tile activations are then dropped,
so only the reconstructed split map (plus head activations) persists.
The head runs once on the reconstruction. Because every forward value
depends only on its receptive field (fixed-shape conv products, exact
max pooling; see tilestream.layers), the reconstructed map is
bit-identical to a whole-image pass.

Streaming backward: the head gradient is computed once on the whole split
map. Per tile, the forward crop is recomputed with caches and the tile's
owned slice of the split-map gradient is backpropagated through it with
the same stack_backward the whole-image executor uses. Each tile computes
its owned split-map values exactly, so by linearity the per-tile
parameter gradients sum to the whole-image gradient; only the order of
summation differs. Input-image gradients are not produced. Tiles run in
row-major order and accumulate sequentially, which pins the
floating-point summation order.

Memory accounting (shared with tilestream.memory): byte counters track
retained activation arrays only. Counted per tile: the input crop and
every layer output (relu and flatten are free since they run in place /
as views; maxpool keeps no index map). The whole input image is host
resident and never counted for streaming. Gradient maps are workspace
and uncounted; parameter and parameter-gradient bytes are separate
terms. Phase peaks:

    forward  = params + split_map + max(per-tile activations, head)
    backward = params + grads + 2*split_map + head + max per-tile
               activations (the recomputed forward crop)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlanError, ShapeError
from .layers import bce_with_logits
from .network import (
    NetworkSpec,
    ParamGrads,
    head_backward,
    head_forward,
    param_bytes,
    run_stack,
    stack_backward,
)
from .planner import TilePlan
from .tensors import check_tensor4


@dataclass
class StreamingRunRecord:
    """Instrumentation counters for one image pass, tiled or whole-image."""

    tiles_forward: int = 0
    tiles_backward: int = 0
    peak_tile_activation_bytes: int = 0
    head_activation_bytes: int = 0
    params_bytes: int = 0
    grads_bytes: int = 0
    peak_bytes_forward: int = 0
    peak_bytes_backward: int = 0

    @property
    def peak_bytes(self):
        return max(self.peak_bytes_forward, self.peak_bytes_backward)


@dataclass
class PassResult:
    """One image's forward and backward pass, from either executor."""

    loss: float
    logit: float
    split_map: np.ndarray
    grads: ParamGrads
    record: StreamingRunRecord

    def quantities(self):
        """Everything compared between executors, keyed as compare_runs expects."""
        out = {"loss": self.loss, "logit": self.logit, "split_map": self.split_map}
        for name, t in self.grads.named_tensors():
            out[f"grad:{name}"] = t
        return out


@dataclass
class StepResult:
    """One SGD step: batch-mean loss, per-image logits, the applied mean gradient."""

    loss: float
    logits: list
    grads: ParamGrads
    peak_bytes: int


@dataclass
class StreamingForwardState:
    """What streaming_forward retains for the matching backward call."""

    split_map: np.ndarray
    head_caches: list
    logit: np.ndarray
    record: StreamingRunRecord


def _check_image(image, plan):
    check_tensor4(image, "image")
    n, c, h, w = image.shape
    if (h, w) != (plan.image_size, plan.image_size):
        raise PlanError(f"image {h}x{w} does not match plan image_size {plan.image_size}")
    return image


def _tile_pass(net, params, image, tile, want_cache):
    """Run one tile's input crop through the streaming section.

    Returns (out, caches, activation bytes); out is checked to cover the
    tile's owned split-map region exactly.
    """
    r = tile.input_forward
    crop = np.ascontiguousarray(image[:, :, r.y0:r.y1, r.x0:r.x1])
    sink = []
    out, caches = run_stack(crop, net, params, 0, net.split_index,
                            pads_seq=tile.fwd_pads, want_cache=want_cache, byte_sink=sink)
    o = tile.owned_split
    if out.shape[2:] != o.shape():
        raise PlanError(f"tile ({tile.row},{tile.col}) produced {out.shape[2:]}, "
                        f"owned region is {o.shape()}")
    return out, caches, crop.nbytes + sum(b for _, b in sink)


def streaming_forward(net: NetworkSpec, params, image, plan: TilePlan):
    """Tile-reconstruct the split map, then run the head once.

    Requires a validated plan for (net, image size). Returns a
    StreamingForwardState; the split map it carries is bit-identical to the
    whole-image streaming-section output.
    """
    _check_image(image, plan)
    if plan.split_index != net.split_index:
        raise PlanError("plan split_index does not match the network")
    n = image.shape[0]
    c_split = net.split_shape(plan.image_size)[0]
    sh, sw = plan.split_hw
    split = np.empty((n, c_split, sh, sw), dtype=image.dtype)
    record = StreamingRunRecord(params_bytes=param_bytes(params))
    peak_tile = 0
    for tile in plan.tiles:
        out, _, nbytes = _tile_pass(net, params, image, tile, want_cache=False)
        o = tile.owned_split
        split[:, :, o.y0:o.y1, o.x0:o.x1] = out
        peak_tile = max(peak_tile, nbytes)
        record.tiles_forward += 1
    head_sink = []
    logit, head_caches = head_forward(split, net, params, byte_sink=head_sink)
    record.head_activation_bytes = sum(b for _, b in head_sink)
    record.peak_tile_activation_bytes = peak_tile
    record.peak_bytes_forward = (record.params_bytes + split.nbytes
                                 + max(peak_tile, record.head_activation_bytes))
    return StreamingForwardState(split_map=split, head_caches=head_caches,
                                 logit=logit, record=record)


def streaming_backward(net: NetworkSpec, params, image, plan: TilePlan,
                       state: StreamingForwardState, dloss_dlogit):
    """Backpropagate through head and tiles; returns per-image ParamGrads."""
    _check_image(image, plan)
    if state.split_map.shape[2:] != tuple(plan.split_hw):
        raise PlanError("forward state does not match this plan")
    grads = ParamGrads.zeros_like(params)
    grad_split, head_grads = head_backward(dloss_dlogit, net, params,
                                           state.head_caches, state.split_map.shape)
    grads.add_by_layer_(head_grads)

    record = state.record
    record.grads_bytes = param_bytes(grads.per_layer)
    peak_tile = record.peak_tile_activation_bytes
    for tile in plan.tiles:
        _, caches, nbytes = _tile_pass(net, params, image, tile, want_cache=True)
        o = tile.owned_split
        g = grad_split[:, :, o.y0:o.y1, o.x0:o.x1]
        _, tile_grads = stack_backward(g, net, params, caches, 0, net.split_index)
        grads.add_by_layer_(tile_grads)
        record.tiles_backward += 1
        peak_tile = max(peak_tile, nbytes)
    record.peak_tile_activation_bytes = peak_tile
    record.peak_bytes_backward = (record.params_bytes + record.grads_bytes
                                  + 2 * state.split_map.nbytes
                                  + record.head_activation_bytes + peak_tile)
    return grads


def streaming_loss_and_grads(net: NetworkSpec, params, image, label, plan: TilePlan):
    """One streaming image pass: tiled forward, BCE loss, recomputing backward."""
    state = streaming_forward(net, params, image, plan)
    loss, dlogit = bce_with_logits(state.logit[0], label)
    grads = streaming_backward(net, params, image, plan, state, np.asarray([dlogit]))
    return PassResult(float(loss), float(state.logit[0]), state.split_map, grads, state.record)


def baseline_forward_backward(net: NetworkSpec, params, image, label):
    """Single whole-image pass with standard backprop; same kernels as streaming."""
    check_tensor4(image, "image")
    if image.shape[0] != 1:
        raise ShapeError("baseline executor runs one image at a time")
    sink = []
    split, s_caches = run_stack(image, net, params, 0, net.split_index, byte_sink=sink)
    head_sink = []
    logit, h_caches = head_forward(split, net, params, byte_sink=head_sink)
    loss, dlogit = bce_with_logits(logit[0], label)
    grad_split, head_grads = head_backward(np.asarray([dlogit]), net, params,
                                           h_caches, split.shape)
    _, stream_grads = stack_backward(grad_split, net, params, s_caches, 0, net.split_index)
    grads = ParamGrads.zeros_like(params).add_by_layer_(head_grads).add_by_layer_(stream_grads)

    record = StreamingRunRecord(params_bytes=param_bytes(params))
    act = image.nbytes + sum(b for _, b in sink) + sum(b for _, b in head_sink)
    record.grads_bytes = param_bytes(grads.per_layer)
    record.peak_bytes_forward = record.params_bytes + act
    record.peak_bytes_backward = record.params_bytes + record.grads_bytes + act
    return PassResult(float(loss), float(logit[0]), split, grads, record)


def train_step(net: NetworkSpec, params, batch, lr, plan: TilePlan = None):
    """One SGD step on a mini-batch of samples (each with .image and .label).

    Every image is cast to the parameters' dtype and runs whole-image when
    plan is None, tiled through plan otherwise. The per-image gradients
    are averaged in batch order and applied to params in place.
    """
    dtype = next(p.w.dtype for p in params if p is not None)
    per_image, losses, logits, peak = [], [], [], 0
    for sample in batch:
        image = sample.image.astype(dtype)
        if plan is None:
            res = baseline_forward_backward(net, params, image, sample.label)
        else:
            res = streaming_loss_and_grads(net, params, image, sample.label, plan)
        per_image.append(res.grads)
        losses.append(res.loss)
        logits.append(res.logit)
        peak = max(peak, res.record.peak_bytes)
    grads = accumulate_minibatch(per_image)
    sgd_step(params, grads, lr)
    return StepResult(float(np.mean(losses)), logits, grads, peak)


def accumulate_minibatch(per_image):
    """Sum per-image gradients in order, then divide by the batch size."""
    if not per_image:
        raise ShapeError("empty mini-batch")
    total = ParamGrads.zeros_like(per_image[0].per_layer)
    for g in per_image:
        total.add_(g)
    total.div_(len(per_image))
    return total


def sgd_step(params, grads: ParamGrads, lr):
    """p <- p - lr * g, in place; returns params."""
    if lr < 0:
        raise ShapeError(f"negative learning rate {lr}")
    for p, g in zip(params, grads.per_layer):
        if p is None:
            continue
        if g is None or g.w.shape != p.w.shape:
            raise ShapeError("gradient/parameter shape mismatch in sgd_step")
        scale = p.w.dtype.type(lr)
        p.w -= scale * g.w
        p.b -= scale * g.b
    return params
