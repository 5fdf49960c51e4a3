"""Execution: one per-image executor over a tile plan, and the one SGD training step.

The executor runs one image per pass, as the memory model and the
engine's counters price it: streaming_forward, streaming_backward and
streaming_loss_and_grads each refuse a batch (ShapeError), and
train_step runs its mini-batch one image at a time. train, bench and
verify's lockstep all step through train_step and differ only in the
plan. Whole-image training is planner.whole_image_plan (one tile, no
checkpoints): standard backprop through the same kernels.

Streaming forward: the plan cuts the streaming section at checkpoint
maps into segments (tilestream.planner). Segment by segment, bottom-up,
each tile's crop of the segment's input map (the image for the first
segment), a view and not a copy, runs through the segment's layers with
the plan's border-only padding, lands exactly on its owned region of the
segment's output map and is pasted there (a segment's lone tile owns the
whole map, and its output becomes the map without a copy); tile
activations are then dropped, so only the cut maps (checkpoints and
split map, plus head activations) persist, and the caches of the plan's
last tile. Within a pass a pool keeps a uint8 route, and a relu directly
below it runs on the pool's output and keeps nothing
(tilestream.network.run_stack), so the map below a pool is freed once
the pool has run. The head, the flatten onward, runs once on the split
map. Because every forward value depends only on
its receptive field (fixed-shape conv products, exact max pooling; see
tilestream.layers), each cut map is bit-identical to a whole-image pass,
by induction from the image up.

Streaming backward runs in two phases, in this one order for every plan
and batch size, and every layer's backward runs in one loop,
tilestream.network.stack_backward. First head_backward runs that loop
over the head, once, down to the whole split map, deferring each dense
layer's parameter gradients: it keeps the layer's grad_out and the input
its cache holds. Then, segment by segment, top-down, each tile
backpropagates its owned slice of the gradient of the map above through
stack_backward: first the kept tile, from forward's caches, then every
other tile, recomputing its forward crop from the segment's retained
input map. Below the top segment that gradient is the checkpoint's
gradient map, which the segment above filled by adding each tile's input
gradient over its crop; at the image, layer 0 forms only its parameter
gradients. stack_backward pops each layer's cache as that
layer's backward starts and hands the layer its entry of the pass's one
ParamGrads, which the layer adds its parameter gradients into; so a
tile's activations are freed as its backward descends. After the last
tile, head_param_grads forms the head's weight and bias gradients, the
second phase: a pass allocates the head's entries of the set only then,
unless the set already holds them (train_step passes every image of its
mini-batch the same set), so no tile runs beside an array as large as
the head's weights that nothing reads until sgd_step, and no
parameter-sized gradient exists besides that set. Each head entry gets
the same products in the same order either way. Each tile computes its
owned values exactly, so by linearity the per-tile parameter and input
gradients sum to the whole-image gradients; only the order of summation
differs. Input-image gradients are not produced. Tiles accumulate
sequentially (the kept tile, then row-major), which pins the
floating-point summation order; in a mini-batch the second image's tiles
add onto the first image's sum, so at batch > 1 a tiled plan's step
gradient may differ in the last bits from summing per-image sets.

Memory accounting: the engine counts the element count of every layer
output a pass makes and turns them into live bytes with
tilestream.memory.live_peak, once per segment over all of its tiles in
forward and once for the head; backward's recompute counts nothing.
With the gradient set's bytes in each backward phase, it calls
tilestream.memory.stream_backward_peaks with what it counted, where the
model takes the same terms from tilestream.memory.plan_terms.

Finiteness: a pass raises NonFiniteError when its image, logit, loss or
any parameter gradient it returns holds a NaN or an Inf, and it scans
each value once (tilestream.tensors.check_finite). streaming_forward
checks the image on entry. The kernels that compute new values check
them: conv and dense outputs and input gradients, and the BCE loss and
its gradient (tilestream.layers). _backward checks every entry of the
gradient set once, after head_param_grads, so the sum of a conv's tile
gradients and the dense weight gradients are checked too. Relu, max
pooling, flatten and a tile's paste into its map only select, mask or
move values that the image or a checked kernel supplied, so they do not
scan: every forward value is the image, a checked product or a
selection of those, and every backward value reaches a parameter
gradient only through a checked conv kernel or the gradient set.
Backward's recompute feeds the image through conv forward, which checks
its output, so backward does not check the image again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PlanError, ShapeError
from .layers import bce_with_logits
from .memory import live_peak, stream_backward_peaks
from .network import (
    NetworkSpec,
    ParamGrads,
    head_backward,
    head_forward,
    head_param_grads,
    param_bytes,
    run_stack,
    stack_backward,
)
from .planner import TilePlan
from .tensors import check_finite, check_tensor4


@dataclass
class StreamingRunRecord:
    """Instrumentation counters for one image pass through a plan."""

    tiles_forward: int = 0
    tiles_backward: int = 0            # every tile, the kept one (not recomputed) included
    segment_tile_bytes: list = field(default_factory=list)  # largest tile per segment
    head_activation_bytes: int = 0
    params_bytes: int = 0
    tile_grads_bytes: int = 0          # the gradient set while the tiles run
    grads_bytes: int = 0               # the whole set, once the head's gradients exist
    peak_bytes_tiles: int = 0          # the backward's tile phase
    peak_bytes_head_grads: int = 0     # the backward's head-gradient phase

    @property
    def peak_bytes(self):
        return max(self.peak_bytes_tiles, self.peak_bytes_head_grads)


@dataclass
class PassResult:
    """One image's forward and backward pass through a plan."""

    loss: float
    logit: float
    split_map: np.ndarray
    grads: ParamGrads
    record: StreamingRunRecord

    def quantities(self):
        """Everything compared between two plans' runs, keyed as compare_runs expects."""
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

    cut_maps: list                     # per plan cut above the image: checkpoints, split map
    head_caches: list
    logit: np.ndarray
    record: StreamingRunRecord
    kept: tuple                        # (plan's last tile, its caches) until backward takes them

    @property
    def split_map(self):
        return self.cut_maps[-1]


def _check_image(image, plan):
    """Refuse anything but one image of the plan's size: a pass prices one image."""
    n, _, h, w = check_tensor4(image, "image").shape
    if n != 1:
        raise ShapeError(f"a pass runs one image at a time, not {n}")
    if (h, w) != (plan.image_size, plan.image_size):
        raise PlanError(f"image {h}x{w} does not match plan image_size {plan.image_size}")


def _check_state(net, plan, state):
    """Refuse a forward state of another plan, or one already backpropagated."""
    shapes = net.activation_shapes(plan.image_size)
    if ([m.shape[1:] for m in state.cut_maps] != [shapes[s.stop] for s in plan.segments]
            or state.kept is None or state.kept[0] is not plan.segments[-1].tiles[-1]):
        raise PlanError("forward state does not match this plan, or was backpropagated")


def _tile_pass(net, params, below, segment, tile, want_cache):
    """Run one tile's crop of its segment's input map through the segment.

    The crop is a view: run_stack never writes its input, and the conv
    kernels read strided windows. Returns (out, caches, sizes), sizes
    being each layer's output element count (run_stack's byte_sink); out
    is checked to cover the tile's owned region exactly.
    """
    r = tile.input_forward
    sizes = []
    out, caches = run_stack(below[:, :, r.y0:r.y1, r.x0:r.x1], net, params, segment.start,
                            segment.stop, pads_seq=tile.fwd_pads, want_cache=want_cache,
                            byte_sink=sizes)
    o = tile.owned_split
    if out.shape[2:] != o.shape():
        raise PlanError(f"tile ({tile.row},{tile.col}) of [{segment.start}, {segment.stop}) "
                        f"produced {out.shape[2:]}, owned region is {o.shape()}")
    return out, caches, sizes


def streaming_forward(net: NetworkSpec, params, image, plan: TilePlan):
    """Tile-rebuild every cut map bottom-up, then run the head once.

    Requires a validated plan for (net, image size). Returns a
    StreamingForwardState; every map it carries, the split map last, is
    bit-identical to the whole-image map.
    """
    _check_image(image, plan)
    check_finite(image, "image")
    if plan.cuts[-1] != net.split_index:
        raise PlanError("plan split_index does not match the network")
    item = image.itemsize
    shapes = net.activation_shapes(plan.image_size)
    record = StreamingRunRecord(params_bytes=param_bytes(params))
    maps = []
    below = image
    last = plan.segments[-1].tiles[-1]
    for segment in plan.segments:
        stop, tiles = segment.stop, segment.tiles
        out = None if len(tiles) == 1 else np.empty((1,) + shapes[stop], dtype=image.dtype)
        sizes = set()  # each tile shape's output sizes once: the walk takes their maximum
        for tile in tiles:
            y, caches, tile_sizes = _tile_pass(net, params, below, segment, tile,
                                               want_cache=tile is last)
            sizes.add(tuple(tile_sizes))
            o = tile.owned_split
            if out is None:  # a lone tile owns the whole map: its output is the cut map
                out = y
            else:
                out[:, :, o.y0:o.y1, o.x0:o.x1] = y
            record.tiles_forward += 1
        record.segment_tile_bytes.append(live_peak(net, segment.start, stop, list(sizes), item))
        maps.append(out)
        below = out
    head_sink = []
    logit, head_caches = head_forward(below, net, params, byte_sink=head_sink)
    record.head_activation_bytes = live_peak(net, net.split_index, len(net.layers), head_sink,
                                             item)
    return StreamingForwardState(cut_maps=maps, head_caches=head_caches,
                                 logit=logit, record=record, kept=(last, caches))


def streaming_backward(net: NetworkSpec, params, image, plan: TilePlan,
                       state: StreamingForwardState, dloss_dlogit):
    """Backpropagate a forward state, once, through the head and tiles; returns ParamGrads."""
    return _backward(net, params, image, plan, state, dloss_dlogit, None)


def _backward(net, params, image, plan, state, dloss_dlogit, grads):
    """streaming_backward, adding the pass's parameter gradients into grads
    (a fresh ParamGrads if None); returns grads."""
    _check_image(image, plan)
    _check_state(net, plan, state)
    segments = plan.segments
    kept, state.kept = state.kept, None
    if grads is None:
        grads = ParamGrads.zeros_like(params, net.split_index)
    grad_above, deferred = head_backward(dloss_dlogit, net, params, state.head_caches)
    record = state.record
    record.tile_grads_bytes = param_bytes(grads.per_layer)
    inputs = [image] + state.cut_maps[:-1]
    for segment, below in zip(segments[::-1], inputs[::-1]):
        grad_below = np.zeros_like(below) if segment.start > 0 else None
        tiles = segment.tiles
        if kept:  # the top segment: its last tile first, from forward's caches
            tiles = tiles[-1:] + tiles[:-1]
        for tile in tiles:
            if kept:
                (_, caches), kept = kept, None
            else:
                _, caches, _ = _tile_pass(net, params, below, segment, tile, want_cache=True)
            o = tile.owned_split
            g_in = stack_backward(grad_above[:, :, o.y0:o.y1, o.x0:o.x1], net, params,
                                  caches, segment.start, segment.stop, grads)
            if grad_below is not None:
                r = tile.input_forward
                grad_below[:, :, r.y0:r.y1, r.x0:r.x1] += g_in
            record.tiles_backward += 1
        grad_above = grad_below
    head_param_grads(params, deferred, grads)
    for name, t in grads.named_tensors():
        check_finite(t, f"gradient {name}")
    record.grads_bytes = param_bytes(grads.per_layer)
    record.peak_bytes_tiles, record.peak_bytes_head_grads = stream_backward_peaks(
        record.params_bytes, record.tile_grads_bytes, record.grads_bytes,
        record.head_activation_bytes, [0] + [m.nbytes for m in state.cut_maps],
        record.segment_tile_bytes)
    return grads


def streaming_loss_and_grads(net: NetworkSpec, params, image, label, plan: TilePlan,
                             grads=None):
    """One image's pass through plan: tiled forward, BCE loss, recomputing backward.

    The pass adds its parameter gradients into grads, a ParamGrads that
    train_step keeps for the whole mini-batch, or into a fresh one.
    """
    state = streaming_forward(net, params, image, plan)
    loss, dlogit = bce_with_logits(state.logit[0], label)
    grads = _backward(net, params, image, plan, state, np.asarray([dlogit]), grads)
    return PassResult(float(loss), float(state.logit[0]), state.split_map, grads, state.record)


def train_step(net: NetworkSpec, params, batch, lr, plan: TilePlan):
    """One SGD step on a mini-batch of samples (each with .image and .label).

    Every image runs through plan (planner.whole_image_plan for
    whole-image training) in the parameters' dtype; an image already in
    it is not copied. The step holds one gradient set whatever the batch
    size: each pass adds into it in batch order, it is divided once by
    the batch size and applied to params in place.
    """
    dtype = next(p.w.dtype for p in params if p is not None)
    grads, losses, logits, peak = None, [], [], 0
    for sample in batch:
        res = streaming_loss_and_grads(net, params, sample.image.astype(dtype, copy=False),
                                       sample.label, plan, grads)
        grads = res.grads
        losses.append(res.loss)
        logits.append(res.logit)
        peak = max(peak, res.record.peak_bytes)
        del res  # its split map would stay alive through the next image's pass
    if grads is None:
        raise ShapeError("empty mini-batch")
    grads.div_(len(batch))
    sgd_step(params, grads, lr)
    return StepResult(float(np.mean(losses)), logits, grads, peak)


def accumulate_minibatch(per_image):
    """The mean of per-image gradient sets: summed in order into the first
    set, in place, then divided by the batch size. Returns that first set;
    at batch 1 it is returned as it is, and nothing is allocated."""
    if not per_image:
        raise ShapeError("empty mini-batch")
    total = per_image[0]
    for g in per_image[1:]:
        total.add_(g)
    return total.div_(len(per_image))


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
        for pw, gw in zip(p.w, g.w):  # row by row: no temporary as large as a weight
            pw -= scale * gw
        p.b -= scale * g.b
    return params
