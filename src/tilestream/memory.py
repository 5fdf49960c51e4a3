"""Analytical activation-memory accounting for whole-image vs streaming runs.

Holds the accounting policy, the liveness walk, the phase-peak formula
and the tables. The engine's instrumentation counts under the same
policy, through the same walk, so on desk-scale runs the predicted bytes
equal the measured counters exactly (both count the same abstraction:
retained scalars times bytes, plus route bytes):

* each conv/maxpool/dense output is one retained array: n times the
  elements of its shape in NetworkSpec.activation_shapes, times the
  itemsize; relu runs in place and flatten is a view: zero additional
  bytes (retains_output);
* a maxpool keeps a uint8 route, one byte per output element in either
  precision, and not its input: the map below a pool counts only until
  the pool has run (pool_frees: unless it is the stack's input, or a
  relu or a fused pool's cache holds it). So a stack's term is the
  running maximum of its live bytes, counted after each layer has run
  and before its pool frees anything. live_peak is that one walk: the
  planner's tile terms, the head term and the engine's counters all
  call it, on modelled or on counted element counts;
* gradient maps inside a tile or the head are workspace and uncounted;
  parameter and parameter-gradient bytes are separate terms;
* one parameter-gradient set per training step, counted by liveness as
  in gradient checkpointing's accounting (Chen et al., arXiv:1604.06174):
  every layer's backward adds into the pass's one accumulator, and
  engine.train_step passes every image of its mini-batch the same set.
  The head's entries, as large as its weights, are allocated only after
  the pass's last tile (tilestream.engine), so a streaming backward has
  two phases: while the tiles run it holds the streaming layers'
  gradients, and the head's too from a mini-batch's second image on;
  then the head-gradient phase holds the whole set. Left out as
  workspace: a conv's kernel-sized and a dense layer's one-row gradient
  temporaries, the head's few deferred (n, width) gradients, and the
  conv kernels' band workspace, bounded by one rule (tilestream.layers,
  "Workspace");
* every row of estimate_streaming's per-layer table is one rule, over
  each streaming layer's largest tile output and then each head layer's
  output for one image: the output's elements times (the itemsize if
  retains_output, plus one route byte for a pool);
* whole-image mode (estimate_whole_image) is the naive-retention
  reference the big-memory figures imply: it retains the input and every
  layer output for the whole batch until its backward completes. Its
  rows are the batch's outputs times the itemsize if retains_output,
  with no route byte, and it frees nothing early (no pool_frees, no
  liveness walk);
* streaming mode never holds the whole input: a tile reads a view of its
  segment's input map (the image, host-resident, or a retained checkpoint
  map), so its crop costs nothing. The plan cuts the streaming section at
  checkpoint maps into segments (see tilestream.planner); the engine
  keeps every checkpoint map and the split map (the "cut maps") from the
  moment its segment's forward starts until the pass ends. The split map
  is the flatten's input: every conv and pool streams, so only that map
  is ever whole besides the checkpoints a plan keeps. One tile's
  activations are resident at a time, plus the head activations and the
  plan's last tile, which backward runs first. A segment's backward holds
  the gradient of the cut map above it and the checkpoint gradient it
  accumulates below (none for the image). Backward recomputes the other
  tiles' forward crops and releases each layer's activations once its
  backward is done, so one tile term per segment, T_j, the running
  maximum of its largest tile's live bytes, bounds a tile's live
  activations in both phases; the head term is the head's running
  maximum. A segment of one tile takes that tile's output as its cut map,
  which the formulas count twice, so for it they are an upper bound.
  Mini-batches stream per image into the step's one gradient set, so
  activation terms do not scale with batch size in streaming mode (the
  whole-image terms do).

Phase peaks (stream_backward_peaks: the engine calls it with its
counters, estimate_streaming and the planner with modelled bytes). With
cut maps C_1..C_k (C_k the split map), C_0 = 0 for the image, T_j the
largest tile term of segment [cut j-1, cut j), G the whole gradient set
and G_t the part of it held while the tiles run:

    whole:      input + sum(all layer outputs) + params [+ grads backward]
    tiles:      params + G_t + C_1 + .. + C_k + head + max_j (C_j + C_(j-1) + T_j)
    head grads: params + G + C_1 + .. + C_k + head
    stream:     max(tiles, head grads)

The head-gradient phase holds every cut map, the split map because
dense 0's input is a view of it, and the head term, which holds the
other dense layers' inputs. With one segment the phases are params +
G_t + 2*split_map + head + tile and params + G + split_map + head.

plan_terms is the one place that computes the terms no choice of plan
changes: params (and G, the same bytes), G_t, the head term and every
streaming map's bytes as a cut map; estimate_streaming and the planner
both take them from it. G_t is taken at the run's batch size: the
streaming layers' gradients at batch 1, and G at batch >= 2, where the
second image's tiles run beside the head gradients the first image
formed. So a plan chosen at batch b bounds a step at every batch up to
b, and only those: a batch-1 plan may exceed its budget at batch 2,
while G_t stops growing from batch 2 on, so a plan chosen there bounds
every batch. The forward needs no formula of its own: it holds a subset
of the tile phase's terms (the cut maps up to a segment's, its tile, and
the head beside the top segment's tile). A plan holds no bytes:
estimate_streaming prices it in the precision it is given, each
segment's tile term one live_peak over the element counts the planner
stores on the Segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ShapeError
from .network import Flatten, MaxPool, NetworkSpec, Relu, fused_relu
from .tensors import resolve_dtype


@dataclass
class MemoryEstimate:
    mode: str
    batch: int
    precision: str
    per_layer_bytes: list            # (layer index, bytes) under the shared policy
    input_bytes: int
    params_bytes: int
    grads_bytes: int
    peak_bytes: int
    split_map_bytes: int = 0
    head_bytes: int = 0
    peak_tile_forward_bytes: int = 0
    peak_tiles_bytes: int = 0        # the backward's tile phase
    peak_head_grads_bytes: int = 0   # the backward's head-gradient phase


def count_param_scalars(net: NetworkSpec, shapes, stop=None):
    """Parameter scalars of the layers below stop (every layer by default),
    shapes being the maps' (NetworkSpec.activation_shapes)."""
    return sum(math.prod(w) + math.prod(b)
               for w, b in filter(None, net.param_shapes(shapes)[:stop]))


def retains_output(layer):
    """Whether a layer's output costs activation bytes: run_stack and
    stack_backward run relu in place, and flatten is a view."""
    return not isinstance(layer, (Relu, Flatten))


def pool_frees(layers, start, i):
    """The map whose array run_stack's cached pass stops holding once pool i
    has run, or None (map m is layer m's input, so the pool reads map i).

    The pool's cache holds its route, not its input. A pool with a fused
    relu (tilestream.network.fused_relu) reads that relu's input, map
    i - 1. The map a pool reads is made by the layer below it; it stays
    held if it is the stack's input, if a relu caches it, or if it is the
    output of a pool with a fused relu.
    """
    m = i - 1 if fused_relu(layers, start, i) else i
    if m == start or isinstance(layers[m - 1], Relu) or fused_relu(layers, start, m - 1):
        return None
    return m


@cache
def _live_weights(layers, start, itemsize):
    """Bytes per element that a cached pass from map start to the last
    layer holds: row i, column j is what layer start + j's output costs
    once layer start + i has run, before its pool frees anything, the
    itemsize while its array is held (retains_output, not yet freed by
    pool_frees) plus a pool's route byte. A pass over [start, stop) holds
    the first stop - start rows and columns, since neither rule reads a
    layer above i."""
    n = len(layers) - start
    held, routes = np.zeros((2, n), dtype=np.int64)
    weights = np.zeros((n, n), dtype=np.int64)
    for i, layer in enumerate(layers[start:]):
        held[i] = itemsize * retains_output(layer)
        routes[i] = isinstance(layer, MaxPool)
        weights[i] = held + routes
        if routes[i] and (freed := pool_frees(layers, start, start + i)) is not None:
            held[freed - start - 1] = 0
    weights.flags.writeable = False
    return weights


def live_peak(net: NetworkSpec, start, stop, elements, itemsize):
    """The running maximum of the live bytes of run_stack's cached pass over
    layers [start, stop) (the module doc's policy): elements[..., j] is the
    element count of layer start + j's output, and any leading axes (tiles,
    or row by column extents) are maxed over too."""
    weights = _live_weights(net.layers, start, itemsize)[:stop - start, :stop - start]
    return int((np.asarray(elements, dtype=np.int64) @ weights.T).max())


def estimate_whole_image(net: NetworkSpec, image_size, batch, precision):
    """Naive-retention whole-image estimate (all activations live for
    backward; the module doc says what it leaves out)."""
    item = resolve_dtype(precision).itemsize
    shapes = net.activation_shapes(image_size)
    per_layer = [(i, batch * math.prod(shape) * item * retains_output(layer))
                 for i, (layer, shape) in enumerate(zip(net.layers, shapes[1:]))]
    input_bytes = batch * math.prod(shapes[0]) * item
    params = count_param_scalars(net, shapes) * item
    peak = input_bytes + sum(b for _, b in per_layer) + 2 * params
    return MemoryEstimate(mode="whole_image", batch=batch, precision=str(precision),
                          per_layer_bytes=per_layer, input_bytes=input_bytes,
                          params_bytes=params, grads_bytes=params, peak_bytes=peak)


def plan_terms(net: NetworkSpec, shapes, batch, itemsize):
    """The phase peaks' terms that no choice of plan changes, in bytes:
    (params, G_t, head, maps), shapes being one image's maps
    (NetworkSpec.activation_shapes). G_t is the gradient bytes held while
    the tiles run: the streaming layers' at batch 1, the whole set at batch
    >= 2, where the second image's tiles run beside the head gradients the
    first image formed. head is one image's head term, live_peak over the
    head's outputs; maps[m] is streaming map m's bytes as a cut map, 0 for
    the image (m = 0)."""
    L = net.split_index
    head = live_peak(net, L, len(net.layers), [math.prod(s) for s in shapes[L + 1:]], itemsize)
    return (count_param_scalars(net, shapes) * itemsize,
            count_param_scalars(net, shapes, None if batch > 1 else L) * itemsize,
            head, [0] + [math.prod(s) * itemsize for s in shapes[1:L + 1]])


def stream_backward_peaks(params, tile_grads, grads, head, cut_bytes, tile_bytes):
    """(tile phase, head-gradient phase) peaks of a segmented streaming
    pass (formula in the module doc): tile_grads are the gradient bytes
    held while the tiles run, grads the whole set; cut_bytes the bytes of
    each cut map, 0 for the image, then the checkpoint maps and the split
    map; tile_bytes the largest tile term of each segment."""
    live = max(below + above + tile
               for below, above, tile in zip(cut_bytes, cut_bytes[1:], tile_bytes))
    held = params + sum(cut_bytes[1:]) + head
    return held + tile_grads + live, held + grads


def estimate_streaming(net: NetworkSpec, plan, batch, precision):
    """Streaming estimate for a TilePlan, priced in this precision from the
    element counts its segments store.

    per_layer_bytes takes the module doc's per-layer rule; the phase peaks
    take each segment's tile term, one live_peak over its counts.
    """
    item = resolve_dtype(precision).itemsize
    shapes = net.activation_shapes(plan.image_size)
    params, tile_grads, head_bytes, maps = plan_terms(net, shapes, batch, item)
    cut_bytes = [maps[c] for c in plan.cuts]
    tile_bytes = [live_peak(net, s.start, s.stop, s.elements, item) for s in plan.segments]
    largest = np.concatenate([s.elements.reshape(-1, s.stop - s.start).max(axis=0)
                              for s in plan.segments]).tolist()
    elements = largest + [math.prod(shape) for shape in shapes[net.split_index + 1:]]
    peak_tiles, peak_head_grads = stream_backward_peaks(
        params, tile_grads, params, head_bytes, cut_bytes, tile_bytes)
    per_layer = [(m, e * (item * retains_output(layer) + isinstance(layer, MaxPool)))
                 for m, (layer, e) in enumerate(zip(net.layers, elements, strict=True))]
    return MemoryEstimate(mode="streaming", batch=batch, precision=str(precision),
                          per_layer_bytes=per_layer, input_bytes=0,
                          params_bytes=params, grads_bytes=params,
                          peak_bytes=max(peak_tiles, peak_head_grads),
                          split_map_bytes=cut_bytes[-1], head_bytes=head_bytes,
                          peak_tile_forward_bytes=max(tile_bytes),
                          peak_tiles_bytes=peak_tiles, peak_head_grads_bytes=peak_head_grads)


def reduction_report(whole: MemoryEstimate, stream: MemoryEstimate):
    """Peak-memory reduction of streaming vs whole-image, in percent."""
    if whole.peak_bytes == 0:
        raise ShapeError("whole-image peak is zero")
    return 100.0 * (1.0 - stream.peak_bytes / whole.peak_bytes)


def format_table(net: NetworkSpec, estimate: MemoryEstimate):
    """Human-readable per-layer table."""
    lines = [f"mode={estimate.mode} batch={estimate.batch} precision={estimate.precision}"]
    lines.append(f"{'layer':>6}  {'kind':<8} {'bytes':>16}")
    if estimate.input_bytes:
        lines.append(f"{'input':>6}  {'':<8} {estimate.input_bytes:>16,}")
    for i, b in estimate.per_layer_bytes:
        kind = type(net.layers[i]).__name__.lower()
        lines.append(f"{i:>6}  {kind:<8} {b:>16,}")
    lines.append(f"params: {estimate.params_bytes:,}  grads: {estimate.grads_bytes:,}")
    if estimate.mode == "streaming":
        lines.append(f"backward peak: tiles {estimate.peak_tiles_bytes:,}  "
                     f"head gradients {estimate.peak_head_grads_bytes:,}")
    lines.append(f"peak: {estimate.peak_bytes:,} bytes ({estimate.peak_bytes / 2**30:.2f} GiB)")
    return "\n".join(lines)
