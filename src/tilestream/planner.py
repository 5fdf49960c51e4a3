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

A TilePlan stores the image size, the configured grid, its segments, and
the conv work and tile-layer calls the chooser weighs; its cuts,
checkpoints and grids are read from its segments. Map sizes and layer
geometry belong to the network: the engine, the memory model, validation
and to_json read them from NetworkSpec.activation_shapes and
NetworkSpec.stream_geoms. A segment's tiles, the TileEntry records the
engine runs with their segment (the input crop, the owned rectangle and
the pads per layer), are the row-major product of its parts, built
once, on first read.
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
the product of its row and column parts, so each map's tile extent and
the conv work factor into row and column terms. A Segment stores the
element counts of each layer's output over the distinct row and column
extents, which do not depend on the precision; its tile term is
tilestream.memory.live_peak over them. A _Section prices in one
precision, the run's (build_tile_plan's precision, double by default, as
in the config), and every preset chooses the same plan in both;
estimate_streaming prices any plan in any precision from the same
counts, and equals _Section.peak at batch >= 2. Planning builds no
tiles.

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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .errors import PlanError, ShapeError
from .layers import Conv
from .memory import count_param_scalars, head_peak_bytes, live_peak, stream_backward_peaks
from .network import MaxPool, NetworkSpec
from .tensors import resolve_dtype

PLAN_SCHEMA_VERSION = 5


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
    (len(rows), len(cols)), and its tiles are the parts' row-major product.

    elements[y, x, j] is the element count of layer start + j's output in
    a tile of the y-th distinct row extent and the x-th distinct column
    extent: the counts tilestream.memory prices the segment's tile term
    and per-layer table from, in any precision."""

    start: int
    stop: int
    rows: tuple                        # AxisPart per row band, top-down
    cols: tuple                        # AxisPart per column band, left to right
    elements: np.ndarray = field(compare=False, repr=False)

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
    """Each segment's parts and element counts, and the conv work and
    tile-layer calls the chooser weighs. The network holds the maps'
    shapes and the layers' geometry; a plan holds none of it, and no
    bytes: tilestream.memory.estimate_streaming prices a plan in any
    precision."""

    image_size: int
    grid: tuple                        # the configured grid; each segment's is in grids
    segments: list                     # Segment per segment, bottom-up
    recompute_ratio: float             # conv multiply-adds of all tiles per whole-image pass
    calls: int                         # tile-layer calls: each segment's tiles times its layers

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
    (segment, grid) evaluated once, on per-axis intervals, and its tile
    term priced in the run's precision."""

    def __init__(self, net: NetworkSpec, image_size, grid, precision="double"):
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
        self.item = resolve_dtype(precision).itemsize
        self.geoms = net.stream_geoms()
        layers = net.stream_layers
        # multiply-adds per output pixel, per streaming layer
        self.macs = [layer.c_out * layer.c_in * layer.kernel ** 2 if isinstance(layer, Conv)
                     else 0 for layer in layers]
        self.whole_macs = sum(w * self.sizes[m + 1] ** 2 for m, w in enumerate(self.macs))
        self.params = count_param_scalars(net, image_size) * self.item
        self.head = head_peak_bytes(net, image_size, self.item)
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
        """(Segment, largest tile term in bytes, conv multiply-adds of all
        tiles, tile-layer calls) of segment [a, b) cut by grid."""
        if (a, b, grid) not in self._segments:
            (ychains, hy, ys), (xchains, wx, xs) = (self._axis(b, parts) for parts in grid)
            # each layer output's elements over the distinct tile extents
            # per axis of maps a + 1..b
            elements = (np.array(self.channels[a + 1:b + 1])
                        * ys[:, None, a + 1:] * xs[None, :, a + 1:])
            elements.flags.writeable = False
            tile = live_peak(self.net, a, b, elements, self.item)
            rows, cols = hy[:, a + 1:], wx[:, a + 1:]
            conv_macs = sum(m * h * w for m, h, w in zip(
                self.macs[a:b], rows.sum(axis=0).tolist(), cols.sum(axis=0).tolist()))
            calls = grid[0] * grid[1] * (b - a)
            segment = Segment(a, b, *(tuple(AxisPart(ivs[a], ivs[b], tuple(pads[a:]))
                                            for ivs, pads in chains)
                                      for chains in (ychains, xchains)), elements)
            self._segments[(a, b, grid)] = segment, tile, conv_macs, calls
        return self._segments[(a, b, grid)]

    def _cuts(self, checkpoints):
        cuts = (0,) + tuple(checkpoints) + (self.net.split_index,)
        return cuts, [0] + [self.channels[c] * self.sizes[c] ** 2 * self.item for c in cuts[1:]]

    def _peak(self, cut_bytes, tiles):
        """The modelled peak in bytes, tiles being the segments' tile terms
        (tilestream.memory's module doc), with the whole gradient set
        beside the tiles, as from a mini-batch's second image on, so the
        budget holds at any batch size."""
        params = self.params
        return max(stream_backward_peaks(params, params, params, self.head, cut_bytes, tiles))

    def peak(self, plan):
        """plan's modelled peak in the section's precision: estimate_streaming's
        at batch >= 2."""
        return self._peak(self._cuts(plan.checkpoints)[1],
                          [self.segment(s.start, s.stop, s.grid)[1] for s in plan.segments])

    def plan(self, checkpoints, grids=None):
        """The TilePlan cut at these checkpoints, each segment at its grid in
        grids (default: every segment at the configured grid)."""
        cuts = self._cuts(checkpoints)[0]
        grids = tuple(map(tuple, grids)) if grids else (self.grid,) * (len(cuts) - 1)
        segments, _, macs, calls = zip(
            *(self.segment(a, b, g) for a, b, g in zip(cuts, cuts[1:], grids)))
        return TilePlan(self.image_size, self.grid, list(segments),
                        sum(macs) / self.whole_macs if self.whole_macs else 1.0, sum(calls))

    @cached_property
    def budget(self):
        """The smallest modelled peak over every set of checkpoints with
        every segment at the configured grid."""
        return min(self.peak(self.plan(cps)) for cps in self.checkpoint_sets)

    def coarsest(self, checkpoints):
        """The TilePlan of these checkpoints with each segment at its
        coarsest grid that fits the budget on its own (module doc,
        "Choosing the plan"); None if some segment fits no grid."""
        cuts, cut_bytes = self._cuts(checkpoints)
        grids = []
        for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
            alone = [0] * (len(cuts) - 1)
            for grid in self.coarsenings:
                alone[j] = self.segment(a, b, grid)[1]
                if self._peak(cut_bytes, alone) <= self.budget:
                    grids.append(grid)
                    break
            else:
                return None
        return self.plan(checkpoints, grids)

    def choose(self):
        """(chosen TilePlan, every TilePlan weighed).

        Weighs every set of checkpoint maps, each with its coarsest
        per-segment grids within the budget (or, if none fit, every segment
        at the configured grid), and keeps the fewest tile-layer calls,
        then the least conv work, then the fewest checkpoints (module doc,
        "Choosing the plan")."""
        plans = [self.coarsest(cps) or self.plan(cps) for cps in self.checkpoint_sets]
        fits = [p for p in plans if self.peak(p) <= self.budget]
        return min(fits, key=lambda p: (p.calls, p.recompute_ratio, len(p.checkpoints))), plans


def build_tile_plan(net: NetworkSpec, image_size, grid, precision="double"):
    """The TilePlan for (network, image size, grid) that the chooser keeps
    in this precision (_Section.choose). Builds no tiles."""
    return _Section(net, image_size, grid, precision).choose()[0]


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
