"""Tile planning: checkpointed segments, back-projection and validated tile plans.

Geometry conventions
--------------------
Maps are indexed 0..L through the streaming section: map 0 is the input
image, map m is the output of streaming layer m-1, map L the split map.
All arithmetic is per axis (square kernels), with rows and columns
planned independently.

A layer with kernel k, stride s, pad p maps output position o to input
span [o*s - p, o*s - p + k). Back-projecting an output interval [a, b)
yields the minimal input interval [a*s - p, (b-1)*s - p + k), clipped to
the map with the clipped amounts recorded as zero-pad widths; tiles pad
only where the true image border was met, so interior tile edges always
consume real neighbour pixels.

Segments
--------
A plan cuts the streaming section at checkpoint maps 0 < c_1 < .. < c_k
< L into segments [0, c_1), [c_1, c_2), .., [c_k, L); with no checkpoint
it is the one segment [0, L). Each segment is tiled with its own grid
over its output map: that map is partitioned near-equally (remainder to
the last row/column), each tile owns one rectangle of it, and the tile's
chain back-projects the rectangle down to the segment's input map. The
tile's input crop, run with the chain's pads, produces exactly its owned
values, so every checkpoint map, and the split map, is rebuilt bit for
bit from the (bit-exact) map below it. The engine retains the checkpoint
maps, so a tile above a checkpoint back-projects only to it, not to the
image.

A TileEntry records only what the engine runs: the input crop, the owned
rectangle and the pads per layer. validate_tile_plan walks each crop up
through its pads, per axis, checking that every pad sits at the map
border within the layer pad and every padded window lies on the layer's
sampling lattice, and that the walk lands on the owned rectangle.

Choosing the layout
-------------------
A layout is a set of checkpoint maps and one grid per segment. The
candidate checkpoints are the streaming section's pool outputs below the
split map that hold the configured grid; a segment's grid is a
coarsening of the configured (r, c), (max(1, r >> j), max(1, c >> j))
for j = 0, 1, .. down to 1x1. A top segment at 1x1 runs whole.

The budget is the smallest modelled peak (tilestream.memory's streaming
formula) in the run's precision over every set of checkpoints, the empty
set included, with every segment at the configured grid. Within the
budget choose_layout keeps the layout with the least modelled step time

    SEC_PER_MAC * conv multiply-adds + SEC_PER_CALL * tile-layer calls

(a tile-layer call is one tile through one layer), breaking ties by the
smaller peak, then by fewer checkpoints. The search is separable: for a
fixed set of checkpoints each phase peak is a maximum of terms that hold
at most one segment's tile term T_j, so a layout fits the budget exactly
when each segment fits with every other tile term at zero, and the time
is a sum over segments. Each segment therefore takes its fastest grid
that fits on its own (ties to the smaller T_j), which equals the best of
the exhaustive product of grids.

The constants are fitted on a 2-vCPU x86-64 host (numpy 2.4, OpenBLAS,
two BLAS threads), single precision. One vgg13@512 image ran forward and
backward (streaming_loss_and_grads) through 9 layouts, interleaved in
one process: no checkpoints at 1x1 and 2x2; checkpoint 17 at 4x4,4x4,
4x4,2x2 and 8x8,4x4; checkpoints 10,17 at 4x4,2x2,1x1; checkpoints
10,17,24 at 8x8,4x4,2x2,1x1, 4x4,4x4,2x2,1x1 and 4x4,2x2,2x2,1x1. The
medians of their step seconds were fitted by least squares on conv
multiply-adds, tile-layer calls and a constant (about 0.05 s, the same
for every layout, so it is left out). Two fits, of 5 and 7 runs per
layout, gave 2.97e-10 and 3.14e-10 s per multiply-add and 2.86e-4 and
2.97e-4 s per call. Refit them the same way on another host.

Each distinct (segment, grid) is evaluated once, on per-axis intervals:
its tiles are the product of its row and column parts, so each map's
tile extent, each layer's largest tile output and the conv work factor
into row and column terms. A segment's tile term is the running maximum
of a tile's live bytes (tilestream.memory.live_maps) over its layers,
taken over the distinct row and column extents. This per-axis model is
the plan's only model; its Layout carries every streaming term
estimate_streaming prints, none of which scale with the batch. A route
costs one byte per pool output element in either precision, so the peak
and the tile terms are held per itemsize, and the chooser weighs the
run's precision (build_tile_plan's precision, double by default, as in
the config); every preset chooses the same layout in both. choose_layout
builds no tiles; build_tile_plan builds tile entries for the chosen
layout only.

Backward
--------
The backward pass walks the segments top-down and reruns the forward
crops (tilestream.engine). By linearity the per-tile parameter gradients,
and the input gradients the tiles add into the checkpoint's gradient
map, sum to the whole-image gradients, so no backward halo or per-map
ownership is planned.

Plan files
----------
TilePlan.to_json writes the plan (plan.json of the plan command, schema
5) for people and tools that read it: each segment's grid, and each
tile's segment, owned rectangle, input crop and pads. Nothing in the
package loads a plan file, so plans are always rebuilt from (network,
image size, grid).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations, groupby
from operator import attrgetter

import numpy as np

from .errors import PlanError, ShapeError
from .layers import Conv
from .memory import (count_param_scalars, head_peak_bytes, live_maps, stream_backward_peak,
                     stream_forward_peak)
from .network import MaxPool, NetworkSpec, retains_output
from .tensors import resolve_dtype

PLAN_SCHEMA_VERSION = 5

# Bytes per scalar of the two precisions; the memory terms are modelled in both.
ITEMSIZES = (4, 8)

# The modelled step time's constants (module doc, "Choosing the layout").
SEC_PER_MAC = 3.0e-10     # seconds per conv multiply-add of a tile pass
SEC_PER_CALL = 2.9e-4     # seconds per tile-layer call


def backproject_span(a, b, k, s, p, in_size):
    """Minimal input interval producing output [a, b); returns (lo, hi, pad_lo, pad_hi)."""
    if a >= b:
        raise PlanError(f"empty output interval [{a}, {b})")
    lo = a * s - p
    hi = (b - 1) * s - p + k
    pad_lo = max(0, -lo)
    pad_hi = max(0, hi - in_size)
    lo, hi = max(lo, 0), min(hi, in_size)
    if lo >= hi:
        raise PlanError("region empty after clipping to the input map")
    return lo, hi, pad_lo, pad_hi


@dataclass(frozen=True)
class Region:
    """Half-open pixel rectangle [y0, y1) x [x0, x1)."""

    y0: int
    x0: int
    y1: int
    x1: int

    def __post_init__(self):
        if self.y1 < self.y0 or self.x1 < self.x0:
            raise PlanError(f"inverted region {self}")

    @property
    def height(self):
        return self.y1 - self.y0

    @property
    def width(self):
        return self.x1 - self.x0

    @property
    def empty(self):
        return self.height == 0 or self.width == 0

    def shape(self):
        return (self.height, self.width)

    def as_list(self):
        return [self.y0, self.x0, self.y1, self.x1]


# ---------------------------------------------------------------------------
# single-axis planning


def _near_equal_bounds(total, parts):
    if parts < 1 or parts > total:
        raise PlanError(f"cannot split extent {total} into {parts} nonempty parts")
    base = total // parts
    return [i * base for i in range(parts)] + [total]


def _chain_down(geoms, sizes, top_iv):
    """Back-project an interval of a segment's top map down to its input map; returns (ivs, pads)."""
    ivs, pads = [top_iv], []
    for (k, s, p), size in zip(geoms[::-1], sizes[-2::-1]):
        lo, hi, pad_lo, pad_hi = backproject_span(*ivs[-1], k, s, p, size)
        ivs.append((lo, hi))
        pads.append((pad_lo, pad_hi))
    return ivs[::-1], pads[::-1]


# ---------------------------------------------------------------------------
# 2-D plan


@dataclass
class TileEntry:
    """One tile of segment [start, stop): what the engine runs.

    The input crop of map start, run through the segment's layers with
    fwd_pads, yields exactly the owned rectangle of map stop (the split
    map for the top segment).
    """

    row: int
    col: int
    start: int
    stop: int
    input_forward: Region              # crop of map start
    owned_split: Region                # owned rectangle of map stop
    fwd_pads: list                     # (t, b, l, r) per layer start..stop-1

    @property
    def input_backward(self):
        return self.input_forward      # backward recomputes the forward crop


@dataclass(frozen=True)
class Layout:
    """One set of checkpoint maps with a grid per segment, and what the
    planner models for it. The peak and the tile terms are bytes per
    itemsize (ITEMSIZES), since a route's byte does not scale with it;
    cut maps and layer outputs are scalars, times the itemsize
    tilestream.memory's streaming terms."""

    checkpoints: tuple
    grids: tuple                       # (rows, cols) per segment, bottom-up
    peak_bytes: dict                   # itemsize -> modelled streaming peak
    recompute: float                   # conv multiply-adds of all tiles over one whole-image pass
    calls: int                         # tile-layer calls: each segment's tiles times its layers
    seconds: float                     # modelled step time
    cut_scalars: tuple                 # 0 for the image, then each checkpoint map and the split map
    tile_bytes: dict                   # itemsize -> largest tile term per segment
    layer_scalars: tuple               # largest tile output per streaming layer


@dataclass
class TilePlan:
    image_size: int
    split_index: int
    grid: tuple                        # the configured grid; each segment's is in grids
    geoms: list
    map_sizes: list                    # (h, w) per map 0..L
    tiles: list                        # segment by segment bottom-up, row-major in each
    layout: Layout                     # the checkpoints the tiles follow

    @property
    def split_hw(self):
        return self.map_sizes[-1]

    @property
    def checkpoints(self):
        return self.layout.checkpoints

    @property
    def grids(self):
        """(rows, cols) per segment, bottom-up."""
        return self.layout.grids

    @property
    def cuts(self):
        """The image, the checkpoint maps and the split map: the segments' bounds."""
        return (0,) + self.checkpoints + (self.split_index,)

    @property
    def segments(self):
        """(start, stop, tiles) per segment, in the order of plan.tiles."""
        return [(a, b, list(tiles))
                for (a, b), tiles in groupby(self.tiles, key=attrgetter("start", "stop"))]

    @property
    def recompute_ratio(self):
        """Conv multiply-adds of all tiles of all segments per whole-image pass (1.0 without convs)."""
        return self.layout.recompute

    def to_json_dict(self):
        """Schema version 5, written for readers. grids holds each segment's
        grid, bottom-up. Each tile names its segment, its owned rectangle of
        the segment's top map (the split map only for the top segment), its
        input crop and its pads per layer; back-projecting the owned
        rectangle (backproject_span) gives the regions between."""
        return {
            "version": PLAN_SCHEMA_VERSION,
            "image_size": self.image_size,
            "split_index": self.split_index,
            "grid": list(self.grid),
            "geoms": [list(g) for g in self.geoms],
            "map_sizes": [list(sz) for sz in self.map_sizes],
            "checkpoints": list(self.checkpoints),
            "grids": [list(g) for g in self.grids],
            "tiles": [
                {
                    "row": t.row,
                    "col": t.col,
                    "segment": [t.start, t.stop],
                    "owned_split_region": t.owned_split.as_list(),
                    "input_region_forward": t.input_forward.as_list(),
                    "pads": [list(p) for p in t.fwd_pads],
                }
                for t in self.tiles
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)


class _Section:
    """The streaming section of one (network, image size, grid), with each
    (segment, grid) evaluated once, on per-axis intervals."""

    def __init__(self, net: NetworkSpec, image_size, grid):
        if min(grid) < 1:
            raise PlanError(f"bad grid {grid}")
        L = net.split_index
        try:
            shapes = net.activation_shapes(image_size)[: L + 1]
        except ShapeError as exc:
            raise PlanError(f"image too small for the network: {exc}") from exc
        self.sizes = [shape[2] for shape in shapes]
        self.channels = [shape[1] for shape in shapes]
        if max(grid) > self.sizes[-1]:
            raise PlanError(f"grid {grid} exceeds split map {self.sizes[-1]}x{self.sizes[-1]}")
        self.net, self.image_size, self.grid = net, image_size, tuple(grid)
        self.geoms = net.stream_geoms()
        layers = net.stream_layers
        # scalars per output pixel a layer's output retains (relu runs in
        # place) and multiply-adds per output pixel, per streaming layer
        self.kept = [self.channels[m + 1] if retains_output(layer) else 0
                     for m, layer in enumerate(layers)]
        self.macs = [layer.c_out * layer.c_in * layer.kernel ** 2 if isinstance(layer, Conv)
                     else 0 for layer in layers]
        self.whole_macs = sum(w * self.sizes[m + 1] ** 2 for m, w in enumerate(self.macs))
        self.params = count_param_scalars(net, image_size)
        self.head = {item: head_peak_bytes(net, image_size, item) for item in ITEMSIZES}
        candidates = [m + 1 for m, layer in enumerate(layers)
                      if isinstance(layer, MaxPool) and m + 1 < L
                      and self.sizes[m + 1] >= max(grid)]
        self.checkpoint_sets = list(chain.from_iterable(
            combinations(candidates, r) for r in range(len(candidates) + 1)))
        r, c = self.grid
        self.coarsenings = [(max(1, r >> j), max(1, c >> j))
                            for j in range(max(r, c).bit_length())]
        self._axes = {}
        self._segments = {}
        self._lives = {}
        self._budgets = {}

    def _axis(self, b, parts):
        """Per-part chains from map b down to the image, their extents per
        map, and those extents' distinct rows; a segment [a, b) takes their
        tails from map a."""
        if (b, parts) not in self._axes:
            bounds = _near_equal_bounds(self.sizes[b], parts)
            chains = [_chain_down(self.geoms[:b], self.sizes[:b + 1], iv)
                      for iv in zip(bounds, bounds[1:])]
            extents = np.array([[hi - lo for lo, hi in ivs] for ivs, _ in chains])
            distinct = np.array(sorted(set(map(tuple, extents.tolist()))))
            self._axes[(b, parts)] = chains, extents, distinct
        return self._axes[(b, parts)]

    def _live(self, a, b):
        """Per layer of segment [a, b), the scalars and route bytes per pixel
        of each map a..b that a tile holds once the layer has run
        (tilestream.memory.live_maps). A segment's steps are the first ones
        of the walk from map a to the split map."""
        if a not in self._lives:
            ch = np.array(self.channels[a:])
            self._lives[a] = [np.array(flags) * ch
                              for flags in zip(*live_maps(self.net, a, self.net.split_index))]
        return [terms[:b - a, :b - a + 1] for terms in self._lives[a]]

    def segment(self, a, b, grid):
        """(largest tile term per itemsize, conv multiply-adds of all tiles,
        largest tile output per layer, tile-layer calls, modelled seconds)
        of segment [a, b) cut by grid; outputs and work in scalars."""
        if (a, b, grid) not in self._segments:
            (_, hy, ys), (_, wx, xs) = (self._axis(b, parts) for parts in grid)
            # a tile's live bytes after each layer, over the distinct tile
            # extents per axis of maps a..b
            arrays, routes = self._live(a, b)
            per_item = np.multiply.outer(ITEMSIZES, arrays) + routes
            peaks = np.einsum("ism,ym,xm->isyx", per_item, ys[:, a:],
                              xs[:, a:]).max(axis=(1, 2, 3))
            tile = dict(zip(ITEMSIZES, peaks.tolist()))
            rows, cols = hy[:, a + 1:], wx[:, a + 1:]
            conv_macs = sum(m * h * w for m, h, w in zip(
                self.macs[a:b], rows.sum(axis=0).tolist(), cols.sum(axis=0).tolist()))
            outputs = tuple(k * h * w for k, h, w in zip(
                self.kept[a:b], rows.max(axis=0).tolist(), cols.max(axis=0).tolist()))
            calls = grid[0] * grid[1] * (b - a)
            self._segments[(a, b, grid)] = (tile, conv_macs, outputs, calls,
                                            SEC_PER_MAC * conv_macs + SEC_PER_CALL * calls)
        return self._segments[(a, b, grid)]

    def _cuts(self, checkpoints):
        cuts = (0,) + tuple(checkpoints) + (self.net.split_index,)
        return cuts, (0,) + tuple(self.channels[c] * self.sizes[c] ** 2 for c in cuts[1:])

    def _peak(self, cut_scalars, tiles, item):
        """The modelled peak in bytes at itemsize item, tiles being the tile terms in bytes."""
        params, cuts = self.params * item, [c * item for c in cut_scalars]
        return max(stream_forward_peak(params, self.head[item], cuts, tiles),
                   stream_backward_peak(params, params, self.head[item], cuts, tiles))

    def layout(self, checkpoints, grids=None):
        """The Layout of these checkpoints, each segment at its grid in grids
        (default: every segment at the configured grid)."""
        checkpoints = tuple(checkpoints)
        cuts, cut_scalars = self._cuts(checkpoints)
        grids = tuple(map(tuple, grids)) if grids else (self.grid,) * (len(cuts) - 1)
        tiles, macs, outputs, calls, seconds = zip(
            *(self.segment(a, b, g) for a, b, g in zip(cuts, cuts[1:], grids)))
        tile_bytes = {item: tuple(t[item] for t in tiles) for item in ITEMSIZES}
        return Layout(checkpoints, grids,
                      {item: self._peak(cut_scalars, tile_bytes[item], item) for item in ITEMSIZES},
                      sum(macs) / self.whole_macs if self.whole_macs else 1.0,
                      sum(calls), sum(seconds), cut_scalars, tile_bytes,
                      tuple(chain.from_iterable(outputs)))

    def budget(self, item):
        """The smallest modelled peak, in bytes at itemsize item, over every
        set of checkpoints with every segment at the configured grid."""
        if item not in self._budgets:
            self._budgets[item] = min(self.layout(cps).peak_bytes[item]
                                      for cps in self.checkpoint_sets)
        return self._budgets[item]

    def fastest(self, checkpoints, item):
        """The Layout of these checkpoints with the least modelled seconds
        within the budget at itemsize item, each segment's grid chosen on
        its own (module doc, "Choosing the layout"); None if some segment
        fits no grid."""
        cuts, cut_scalars = self._cuts(checkpoints)
        grids = []
        for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
            fits = []
            for grid in self.coarsenings:
                tile, _, _, _, seconds = self.segment(a, b, grid)
                alone = [0] * (len(cuts) - 1)
                alone[j] = tile[item]
                if self._peak(cut_scalars, alone, item) <= self.budget(item):
                    fits.append((seconds, tile[item], grid))
            if not fits:
                return None
            grids.append(min(fits)[2])
        return self.layout(checkpoints, grids)

    def choose(self, item):
        """(chosen Layout, every Layout weighed) at itemsize item; see choose_layout."""
        layouts = [self.fastest(cps, item) or self.layout(cps) for cps in self.checkpoint_sets]
        fits = [c for c in layouts if c.peak_bytes[item] <= self.budget(item)]
        return min(fits, key=lambda c: (c.seconds, c.peak_bytes[item], len(c.checkpoints))), layouts

    def plan(self, checkpoints, grids=None):
        """The TilePlan cut at these checkpoints, each segment tiled by its
        grid in grids (default: the configured grid)."""
        layout = self.layout(checkpoints, grids)
        cuts, _ = self._cuts(layout.checkpoints)
        tiles = []
        for a, b, grid in zip(cuts, cuts[1:], layout.grids):
            (rows, _, _), (cols, _, _) = (self._axis(b, parts) for parts in grid)
            for i, (y_ivs, y_pads) in enumerate(rows):
                for j, (x_ivs, x_pads) in enumerate(cols):
                    crop, owned = (Region(y_ivs[m][0], x_ivs[m][0], y_ivs[m][1], x_ivs[m][1])
                                   for m in (a, b))
                    pads = [yp + xp for yp, xp in zip(y_pads[a:], x_pads[a:])]
                    tiles.append(TileEntry(i, j, a, b, crop, owned, pads))
        return TilePlan(image_size=self.image_size, split_index=self.net.split_index,
                        grid=self.grid, geoms=self.geoms,
                        map_sizes=[(z, z) for z in self.sizes], tiles=tiles, layout=layout)


def choose_layout(net: NetworkSpec, image_size, grid, precision="double"):
    """(chosen Layout, every Layout weighed) for (network, image size, grid).

    Weighs every set of checkpoint maps, each with its fastest per-segment
    grids within the budget in the precision's bytes (or, if none fit,
    every segment at the configured grid), and keeps the least modelled
    step time, then the smallest peak, then fewest checkpoints (module
    doc, "Choosing the layout"). Builds no tiles.
    """
    return _Section(net, image_size, grid).choose(resolve_dtype(precision).itemsize)


def build_tile_plan(net: NetworkSpec, image_size, grid, precision="double"):
    """Construct the TilePlan for (network, image size, grid): the tiles of
    the layout choose_layout keeps in this precision."""
    section = _Section(net, image_size, grid)
    chosen, _ = section.choose(resolve_dtype(precision).itemsize)
    return section.plan(chosen.checkpoints, chosen.grids)


def whole_image_plan(net: NetworkSpec, image_size):
    """The plan of whole-image training: one tile and no checkpoints."""
    return _Section(net, image_size, (1, 1)).plan(())


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    ok: bool
    failures: list

    @property
    def first_failure(self):
        return self.failures[0] if self.failures else None


def _check_partition(fail, tiles, rows, cols, extent, name):
    """The tiles' owned rectangles must form a consistent grid partition of [0, extent)^2."""
    ybounds, xbounds = {}, {}
    for t in tiles:
        r = t.owned_split
        ybounds.setdefault(t.row, (r.y0, r.y1))
        xbounds.setdefault(t.col, (r.x0, r.x1))
        if ybounds[t.row] != (r.y0, r.y1) or xbounds[t.col] != (r.x0, r.x1):
            fail("partition", f"inconsistent owned rectangles of {name}")
            break
        if r.empty:
            fail("partition", f"tile ({t.row},{t.col}): empty owned region of {name}")
    ys = [ybounds.get(i, (None, None)) for i in range(rows)]
    xs = [xbounds.get(j, (None, None)) for j in range(cols)]
    for axis, axis_ivs in (("rows", ys), ("cols", xs)):
        pos = 0
        for iv in axis_ivs:
            if iv[0] != pos or iv[1] < iv[0]:
                fail("partition", f"{name} {axis} do not partition [0, {extent})")
                break
            pos = iv[1]
        else:
            if pos != extent:
                fail("partition", f"{name} {axis} do not cover [0, {extent})")


def _walk_up(iv, pads, geoms, sizes):
    """Walk one axis of a tile's crop up its pads and layers: (the interval
    it lands on, None), or (None, (tag, layer, message)) at the first fault."""
    lo, hi = iv
    for m, ((k, s, p), (plo, phi)) in enumerate(zip(geoms, pads)):
        if plo > p or phi > p:
            return None, ("padding", m, "pads exceed the layer pad")
        if lo < 0 or hi > sizes[m] or (plo and lo) or (phi and hi != sizes[m]):
            return None, ("padding", m, "pads away from the border")
        a, extent = lo - plo + p, hi + phi - lo + plo  # padded start + p, padded extent
        if a % s or extent < k or (extent - k) % s:
            return None, ("stride_alignment", m, "region off the sampling lattice")
        lo, hi = a // s, a // s + (extent - k) // s + 1
    return (lo, hi), None


def validate_tile_plan(plan: TilePlan, net: NetworkSpec):
    """Integer consistency checks; returns a ValidationReport (never raises).

    Each tile's crop is walked up through its pads, per axis, and must land
    on its owned rectangle; no intermediate region is stored or read.
    """
    failures = []

    def fail(tag, msg):
        failures.append(f"{tag}: {msg}")

    geoms = net.stream_geoms()
    L = len(geoms)
    try:
        sizes = [shape[2] for shape in net.activation_shapes(plan.image_size)[: L + 1]]
    except ShapeError as exc:
        return ValidationReport(False, [f"geometry: {exc}"])
    if geoms != list(plan.geoms) or [(z, z) for z in sizes] != list(plan.map_sizes):
        fail("geometry", "plan geometry does not match the network/image")
    cuts = plan.cuts
    if plan.split_index != L or any(a >= b for a, b in zip(cuts, cuts[1:])):
        fail("segments", f"cuts {list(cuts)} do not increase from 0 to the split {L}")
        return ValidationReport(False, failures)
    segments = plan.segments
    if [(a, b) for a, b, _ in segments] != list(zip(cuts, cuts[1:])):
        fail("segments", "tiles do not run segment by segment between the cuts")
        return ValidationReport(False, failures)
    grids = plan.grids
    if len(grids) != len(segments) or any(
            len(tiles) != rows * cols for (_, _, tiles), (rows, cols) in zip(segments, grids)):
        fail("grid", "tile count of a segment does not match its grid")
        return ValidationReport(False, failures)
    for (_, b, tiles), (rows, cols) in zip(segments, grids):
        _check_partition(fail, tiles, rows, cols, sizes[b],
                         "split map" if b == L else f"checkpoint map {b}")

    for t in plan.tiles:
        tag = f"tile ({t.row},{t.col}) of [{t.start}, {t.stop})"
        if len(t.fwd_pads) != t.stop - t.start:
            fail("chain", f"{tag}: {len(t.fwd_pads)} pads, want {t.stop - t.start}")
            continue
        r, o = t.input_forward, t.owned_split
        landed = []
        for iv, pads in (((r.y0, r.y1), [pd[:2] for pd in t.fwd_pads]),
                         ((r.x0, r.x1), [pd[2:] for pd in t.fwd_pads])):
            out, fault = _walk_up(iv, pads, geoms[t.start:t.stop], sizes[t.start:t.stop])
            if fault:
                kind, m, msg = fault
                fail(kind, f"{tag}: layer {t.start + m} {msg}")
            landed.append(out)
        if None not in landed and landed != [(o.y0, o.y1), (o.x0, o.x1)]:
            fail("chain", f"{tag}: the crop lands on rows {landed[0]}, cols {landed[1]}, "
                          f"not on the owned region {o.as_list()}")

    return ValidationReport(not failures, failures)
