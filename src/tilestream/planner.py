"""Tile planning: checkpointed segments, back-projection and validated tile plans.

Geometry conventions
--------------------
Maps are indexed 0..L through the streaming section: map 0 is the input
image, map m is the output of streaming layer m-1, map L the split map,
the flatten's input (NetworkSpec.split_index is the flatten's index).
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
over its output map, and a plan stores it per axis: each axis of that
map is partitioned into parts that differ by at most one, and each
part's chain back-projects its owned interval down to the segment's
input map. A Segment holds its row parts and its column parts, so its
grid is their counts; an AxisPart is a crop interval of the input map,
an owned interval of the output map and the (lo, hi) pads per layer. A
tile is one row part crossed with one column part. Its input crop, run
with the chains' pads, produces exactly its owned values, so every
checkpoint map, and the split map, is rebuilt bit for bit from the
(bit-exact) map below it. The engine retains the checkpoint maps, so a
tile above a checkpoint back-projects only to it, not to the image.

A TilePlan stores the image size, the configured grid, its segments and
what the planner models for them; its cuts, checkpoints and grids are
read from its segments. Map sizes and layer geometry belong to the
network: the engine, the memory model, validation and to_json read them
from NetworkSpec.activation_shapes and NetworkSpec.stream_geoms. A
segment's tiles, the TileEntry records the engine runs with their
segment (the input crop, the owned rectangle and the pads per layer),
are the row-major product of its parts, built once, on first read.
Planning, the memory model and validation read only the parts:
validate_tile_plan checks that the cuts rise from 0 to the network's
split index and that each axis's owned intervals partition the
segment's output map, and walks each part's crop up through its pads
and the network's layers, checking that every pad sits at the map
border within the layer pad and every padded window lies on the layer's
sampling lattice, and that the walk lands on the owned interval. A plan
built for another network fails the cut check or the walk.

Choosing the plan
-----------------
A candidate plan is a set of checkpoint maps and one grid per segment.
The candidate checkpoints are the streaming section's pool outputs below
the split map that hold the configured grid; a segment's grid is a
coarsening of the configured (r, c), (max(1, r >> j), max(1, c >> j))
for j = 0, 1, .. down to 1x1. A top segment at 1x1 runs whole, so the
layers the split map no longer needs tiling for run whole by the plan's
choice, not by a hand-placed split.

A plan's modelled peak is tilestream.memory.stream_backward_peaks, the
one phase-peak formula (that module's doc), taken with the whole
gradient set beside the tiles, so a plan's peak bounds a step's at any
batch size. The budget is the smallest modelled peak in the run's
precision over every set of checkpoints, the empty set included, with
every segment at the configured grid. The rule: each
segment takes its coarsest grid that fits the budget, and among the
plans that fit _Section.choose keeps the fewest tile-layer calls (a
tile-layer call is one tile through one layer), then the least conv
work, then the fewest checkpoints. No step time enters the rule: as in
the paper, the configured grid is the knob, and no segment is tiled
finer than the budget needs.

The search is separable: for a fixed set of checkpoints the peak is a
maximum of terms that hold at most one segment's tile term T_j, so
a plan fits the budget exactly when each segment fits with every other
tile term at zero, and the calls are a sum over segments, each falling
strictly as its grid coarsens. So each segment taking its coarsest grid
that fits on its own (_Section.coarsest scans from 1x1 towards the
configured grid and stops at the first fit) gives, per set of
checkpoints, the one plan within the budget with the fewest calls of
the exhaustive product of grids.

Each distinct (segment, grid) is evaluated once, on per-axis intervals,
and _Section.segment caches its Segment with its terms, so a candidate
plan costs only the sums of its segments' terms. A segment's tiles are
the product of its row and column parts, so each map's tile extent,
each layer's largest tile output and the conv work factor into row and
column terms. A segment's tile term is tilestream.memory.live_peak over
the distinct row and column extents. This per-axis model is the plan's
only model; the TilePlan carries the tile terms and layer outputs
estimate_streaming prints, none of which scale with the batch. A route
costs one byte per pool output element in either precision, so the peak
and the tile terms are held per itemsize, and the chooser weighs the
run's precision (build_tile_plan's precision, double by default, as in
the config); every preset chooses the same plan in both. Planning builds
no tiles.

Backward
--------
The backward pass walks the segments top-down and reruns the forward
crops (tilestream.engine). By linearity the per-tile parameter gradients,
and the input gradients the tiles add into the checkpoint's gradient
map, sum to the whole-image gradients, so no backward halo or per-map
ownership is planned.

Plan files
----------
TilePlan.to_json(net) writes the plan (plan.json of the plan command,
schema 5) for people and tools that read it: its top cut as the split
index; from net, the layers' geometry and the maps' sizes up to the
split map; each segment's grid; and each tile's segment, owned
rectangle, input crop and pads, so writing it builds the tiles. Nothing
in the package loads a plan file, so plans are always rebuilt from
(network, image size, grid).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .errors import PlanError, ShapeError
from .layers import Conv
from .memory import (count_param_scalars, head_peak_bytes, live_peak, retains_output,
                     stream_backward_peaks)
from .network import MaxPool, NetworkSpec
from .tensors import resolve_dtype

PLAN_SCHEMA_VERSION = 5

# Bytes per scalar of the two precisions; the memory terms are modelled in both.
ITEMSIZES = (4, 8)


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

    def shape(self):
        return (self.height, self.width)

    def as_list(self):
        return [self.y0, self.x0, self.y1, self.x1]


# ---------------------------------------------------------------------------
# single-axis planning


def _near_equal_bounds(total, parts):
    if parts < 1 or parts > total:
        raise PlanError(f"cannot split extent {total} into {parts} nonempty parts")
    return [i * total // parts for i in range(parts + 1)]


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
    """One tile of a segment [start, stop): what the engine runs.

    The input crop of map start, run through the segment's layers with
    fwd_pads, yields exactly the owned rectangle of map stop (the split
    map for the top segment).
    """

    row: int
    col: int
    input_forward: Region              # crop of map start
    owned_split: Region                # owned rectangle of map stop
    fwd_pads: list                     # (t, b, l, r) per layer start..stop-1

    @property
    def input_backward(self):
        return self.input_forward      # backward recomputes the forward crop


@dataclass(frozen=True)
class AxisPart:
    """One row (or column) band of a segment [start, stop): its crop of map
    start, its owned interval of map stop and the (lo, hi) pads of each
    layer start..stop-1."""

    crop: tuple
    owned: tuple
    pads: tuple


@dataclass(frozen=True)
class Segment:
    """Segment [start, stop) cut into row and column parts: its grid is
    (len(rows), len(cols)), and its tiles are the parts' row-major product."""

    start: int
    stop: int
    rows: tuple                        # AxisPart per row band, top-down
    cols: tuple                        # AxisPart per column band, left to right

    @property
    def grid(self):
        return len(self.rows), len(self.cols)

    @cached_property
    def tiles(self):
        """The TileEntry of each (row, column) pair, row-major, built on first read."""
        return [TileEntry(i, j, Region(y.crop[0], x.crop[0], y.crop[1], x.crop[1]),
                          Region(y.owned[0], x.owned[0], y.owned[1], x.owned[1]),
                          [yp + xp for yp, xp in zip(y.pads, x.pads)])
                for i, y in enumerate(self.rows) for j, x in enumerate(self.cols)]


@dataclass
class TilePlan:
    """Each segment's parts, and what the planner counts for them: the
    modelled peak, the conv work and the tile-layer calls the chooser
    weighs, and the terms tilestream.memory's estimate prints. The network
    holds the maps' shapes and the layers' geometry; a plan holds none of
    it. The peak and the tile terms are bytes per itemsize (ITEMSIZES),
    since a route's byte does not scale with it; layer outputs are
    scalars, times the itemsize tilestream.memory's streaming terms."""

    image_size: int
    grid: tuple                        # the configured grid; each segment's is in grids
    segments: list                     # Segment per segment, bottom-up
    peak_bytes: dict                   # itemsize -> modelled streaming peak
    recompute_ratio: float             # conv multiply-adds of all tiles per whole-image pass
    calls: int                         # tile-layer calls: each segment's tiles times its layers
    tile_bytes: dict                   # itemsize -> largest tile term per segment
    layer_scalars: tuple               # largest tile output per streaming layer

    @property
    def cuts(self):
        """The image, the checkpoint maps and the split map: 0, then each segment's stop."""
        return (0,) + tuple(s.stop for s in self.segments)

    @property
    def checkpoints(self):
        return self.cuts[1:-1]

    @property
    def grids(self):
        """(rows, cols) per segment, bottom-up."""
        return tuple(s.grid for s in self.segments)

    @property
    def tiles(self):
        """Every segment's tiles, bottom-up; the same objects on every read."""
        return [t for s in self.segments for t in s.tiles]

    def to_json_dict(self, net: NetworkSpec):
        """Schema version 5, written for readers: the maps' sizes and the
        layers' geometry (read from net) up to the split map, and grids,
        each segment's grid, bottom-up. Each tile names its segment, its
        owned rectangle of the segment's top map (the split map only for
        the top segment), its input crop and its pads per layer;
        back-projecting the owned rectangle (backproject_span) gives the
        regions between."""
        split = self.cuts[-1]
        return {
            "version": PLAN_SCHEMA_VERSION,
            "image_size": self.image_size,
            "split_index": split,
            "grid": list(self.grid),
            "geoms": [list(g) for g in net.stream_geoms()],
            "map_sizes": [list(shape[1:]) for shape in
                          net.activation_shapes(self.image_size)[: split + 1]],
            "checkpoints": list(self.checkpoints),
            "grids": [list(g) for g in self.grids],
            "tiles": [
                {
                    "row": t.row,
                    "col": t.col,
                    "segment": [s.start, s.stop],
                    "owned_split_region": t.owned_split.as_list(),
                    "input_region_forward": t.input_forward.as_list(),
                    "pads": [list(p) for p in t.fwd_pads],
                }
                for s in self.segments for t in s.tiles
            ],
        }

    def to_json(self, net: NetworkSpec):
        return json.dumps(self.to_json_dict(net), indent=2)


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
        self.channels = [c for c, _, _ in shapes]
        self.sizes = [h for _, h, _ in shapes]
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
        # a segment's grids, from 1x1 to the configured grid
        self.coarsenings = [(max(1, r >> j), max(1, c >> j))
                            for j in reversed(range(max(r, c).bit_length()))]
        self._axes = {}
        self._segments = {}
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

    def segment(self, a, b, grid):
        """(Segment, largest tile term per itemsize, conv multiply-adds of
        all tiles, largest tile output per layer, tile-layer calls) of
        segment [a, b) cut by grid; outputs and work in scalars."""
        if (a, b, grid) not in self._segments:
            (ychains, hy, ys), (xchains, wx, xs) = (self._axis(b, parts) for parts in grid)
            # each layer output's elements over the distinct tile extents
            # per axis of maps a + 1..b
            elements = (np.array(self.channels[a + 1:b + 1])
                        * ys[:, None, a + 1:] * xs[None, :, a + 1:])
            tile = {item: live_peak(self.net, a, b, elements, item) for item in ITEMSIZES}
            rows, cols = hy[:, a + 1:], wx[:, a + 1:]
            conv_macs = sum(m * h * w for m, h, w in zip(
                self.macs[a:b], rows.sum(axis=0).tolist(), cols.sum(axis=0).tolist()))
            outputs = tuple(k * h * w for k, h, w in zip(
                self.kept[a:b], rows.max(axis=0).tolist(), cols.max(axis=0).tolist()))
            calls = grid[0] * grid[1] * (b - a)
            segment = Segment(a, b, *(tuple(AxisPart(ivs[a], ivs[b], tuple(pads[a:]))
                                            for ivs, pads in chains)
                                      for chains in (ychains, xchains)))
            self._segments[(a, b, grid)] = segment, tile, conv_macs, outputs, calls
        return self._segments[(a, b, grid)]

    def _cuts(self, checkpoints):
        cuts = (0,) + tuple(checkpoints) + (self.net.split_index,)
        return cuts, (0,) + tuple(self.channels[c] * self.sizes[c] ** 2 for c in cuts[1:])

    def _peak(self, cut_scalars, tiles, item):
        """The modelled peak in bytes at itemsize item, tiles being the tile
        terms in bytes (tilestream.memory's module doc), with the whole
        gradient set beside the tiles, as from a mini-batch's second image
        on, so the budget holds at any batch size."""
        params, cuts = self.params * item, [c * item for c in cut_scalars]
        return max(stream_backward_peaks(params, params, params, self.head[item], cuts, tiles))

    def plan(self, checkpoints, grids=None):
        """The TilePlan cut at these checkpoints, each segment at its grid in
        grids (default: every segment at the configured grid)."""
        cuts, cut_scalars = self._cuts(checkpoints)
        grids = tuple(map(tuple, grids)) if grids else (self.grid,) * (len(cuts) - 1)
        segments, tiles, macs, outputs, calls = zip(
            *(self.segment(a, b, g) for a, b, g in zip(cuts, cuts[1:], grids)))
        tile_bytes = {item: tuple(t[item] for t in tiles) for item in ITEMSIZES}
        peaks = {item: self._peak(cut_scalars, tile_bytes[item], item) for item in ITEMSIZES}
        return TilePlan(self.image_size, self.grid, list(segments), peaks,
                        sum(macs) / self.whole_macs if self.whole_macs else 1.0,
                        sum(calls), tile_bytes,
                        tuple(chain.from_iterable(outputs)))

    def budget(self, item):
        """The smallest modelled peak, in bytes at itemsize item, over every
        set of checkpoints with every segment at the configured grid."""
        if item not in self._budgets:
            self._budgets[item] = min(self.plan(cps).peak_bytes[item]
                                      for cps in self.checkpoint_sets)
        return self._budgets[item]

    def coarsest(self, checkpoints, item):
        """The TilePlan of these checkpoints with each segment at its
        coarsest grid that fits the budget at itemsize item on its own
        (module doc, "Choosing the plan"); None if some segment fits no
        grid."""
        cuts, cut_scalars = self._cuts(checkpoints)
        grids = []
        for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
            alone = [0] * (len(cuts) - 1)
            for grid in self.coarsenings:
                alone[j] = self.segment(a, b, grid)[1][item]
                if self._peak(cut_scalars, alone, item) <= self.budget(item):
                    grids.append(grid)
                    break
            else:
                return None
        return self.plan(checkpoints, grids)

    def choose(self, item):
        """(chosen TilePlan, every TilePlan weighed) at itemsize item.

        Weighs every set of checkpoint maps, each with its coarsest
        per-segment grids within the budget (or, if none fit, every segment
        at the configured grid), and keeps the fewest tile-layer calls,
        then the least conv work, then the fewest checkpoints (module doc,
        "Choosing the plan")."""
        plans = [self.coarsest(cps, item) or self.plan(cps) for cps in self.checkpoint_sets]
        fits = [p for p in plans if p.peak_bytes[item] <= self.budget(item)]
        return min(fits, key=lambda p: (p.calls, p.recompute_ratio, len(p.checkpoints))), plans


def build_tile_plan(net: NetworkSpec, image_size, grid, precision="double"):
    """The TilePlan for (network, image size, grid) that the chooser keeps
    in this precision (_Section.choose). Builds no tiles."""
    return _Section(net, image_size, grid).choose(resolve_dtype(precision).itemsize)[0]


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
    """Integer consistency checks of plan against net; returns a
    ValidationReport (never raises).

    The cuts must rise from 0 to net's split index, each segment's row and
    column owned intervals must partition its top map, and each part's
    crop, walked up through its pads and net's layers, must land on its
    owned interval; no intermediate region is stored or read.
    """
    failures = []

    def fail(tag, msg):
        failures.append(f"{tag}: {msg}")

    geoms = net.stream_geoms()
    L = len(geoms)
    try:
        sizes = [h for _, h, _ in net.activation_shapes(plan.image_size)[: L + 1]]
    except ShapeError as exc:
        return ValidationReport(False, [f"geometry: {exc}"])
    cuts = plan.cuts
    if cuts[-1] != L or any(a >= b for a, b in zip(cuts, cuts[1:])):
        fail("segments", f"cuts {list(cuts)} do not increase from 0 to the split {L}")
        return ValidationReport(False, failures)
    if [(s.start, s.stop) for s in plan.segments] != list(zip(cuts, cuts[1:])):
        fail("segments", "segments do not run between the cuts")
        return ValidationReport(False, failures)

    for s in plan.segments:
        extent = sizes[s.stop]
        name = "split map" if s.stop == L else f"checkpoint map {s.stop}"
        for axis, parts in (("row", s.rows), ("col", s.cols)):
            owned = [part.owned for part in parts]
            if ([0] + [hi for _, hi in owned] != [lo for lo, _ in owned] + [extent]
                    or any(lo >= hi for lo, hi in owned)):
                fail("partition", f"{name} {axis}s do not partition [0, {extent})")
            for i, part in enumerate(parts):
                tag = f"{axis} {i} of [{s.start}, {s.stop})"
                if len(part.pads) != s.stop - s.start:
                    fail("chain", f"{tag}: {len(part.pads)} pads, want {s.stop - s.start}")
                    continue
                landed, fault = _walk_up(part.crop, part.pads, geoms[s.start:s.stop],
                                         sizes[s.start:s.stop])
                if fault:
                    kind, m, msg = fault
                    fail(kind, f"{tag}: layer {s.start + m} {msg}")
                elif landed != part.owned:
                    fail("chain", f"{tag}: the crop lands on {landed}, "
                                  f"not on the owned region {part.owned}")

    return ValidationReport(not failures, failures)
