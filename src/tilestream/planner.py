"""Tile planning: back-projection and validated tile plans.

Geometry conventions
--------------------
Maps are indexed 0..L through the streaming section: map 0 is the input
image, map m is the output of streaming layer m-1. All arithmetic is per
axis (square kernels), with rows and columns planned independently.

A layer with kernel k, stride s, pad p maps output position o to input
span [o*s - p, o*s - p + k). Back-projecting an output interval [a, b)
yields the minimal input interval [a*s - p, (b-1)*s - p + k), clipped to
the map with the clipped amounts recorded as zero-pad widths; tiles pad
only where the true image border was met, so interior tile edges always
consume real neighbour pixels.

Partition
---------
The split map is partitioned near-equally (remainder to the last
row/column); each tile owns one rectangle of it. A tile's forward chain
back-projects its owned rectangle down to the image, so the tile's input
crop, run with the chain's pads, produces exactly the owned split-map
values.

Backward
--------
The backward pass reads the same crops: each tile recomputes its forward
chain and backpropagates its owned slice of the split-map gradient. By
linearity the per-tile parameter gradients sum to the whole-image
gradient, so no backward halo or per-map ownership is planned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import PlanError, ShapeError
from .layers import out_size
from .network import NetworkSpec

PLAN_SCHEMA_VERSION = 2


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


def _axis_sizes(geoms, z):
    sizes = [z]
    for k, s, p in geoms:
        sizes.append(out_size(sizes[-1], k, s, p))
    return sizes


def _near_equal_bounds(total, parts):
    if parts < 1 or parts > total:
        raise PlanError(f"cannot split extent {total} into {parts} nonempty parts")
    base = total // parts
    return [i * base for i in range(parts)] + [total]


def _chain_down(geoms, sizes, top_iv):
    """Back-project an interval at the split down to the image; returns (ivs, pads)."""
    L = len(geoms)
    ivs = [None] * L + [top_iv]
    pads = [None] * L
    for m in range(L - 1, -1, -1):
        k, s, p = geoms[m]
        lo, hi, pad_lo, pad_hi = backproject_span(*ivs[m + 1], k, s, p, sizes[m])
        ivs[m] = (lo, hi)
        pads[m] = (pad_lo, pad_hi)
    return ivs, pads


def _plan_axis(geoms, sizes, parts):
    """Plan one axis; returns the forward (intervals, pads) chain per part."""
    split_bounds = _near_equal_bounds(sizes[-1], parts)
    return [_chain_down(geoms, sizes, (split_bounds[i], split_bounds[i + 1]))
            for i in range(parts)]


# ---------------------------------------------------------------------------
# 2-D plan


@dataclass
class TileEntry:
    row: int
    col: int
    owned_split: Region
    input_forward: Region
    fwd_regions: list                  # Region per map 0..L
    fwd_pads: list                     # (t, b, l, r) per layer 0..L-1

    @property
    def input_backward(self):
        """Backward recomputes the forward crop, so it reads the same region."""
        return self.input_forward


@dataclass
class TilePlan:
    image_size: int
    split_index: int
    grid: tuple
    geoms: list
    map_sizes: list                    # (h, w) per map 0..L
    tiles: list

    @property
    def stride_product(self):
        prod = 1
        for _, s, _ in self.geoms:
            prod *= s
        return prod

    @property
    def split_hw(self):
        return self.map_sizes[-1]

    @property
    def recompute_ratio(self):
        """Input pixels read by all tiles per image pixel (each pass, forward or backward)."""
        read = sum(t.input_forward.height * t.input_forward.width for t in self.tiles)
        return read / self.image_size ** 2

    def to_json_dict(self):
        return {
            "version": PLAN_SCHEMA_VERSION,
            "image_size": self.image_size,
            "split_index": self.split_index,
            "grid": list(self.grid),
            "stride_product": self.stride_product,
            "geoms": [list(g) for g in self.geoms],
            "map_sizes": [list(sz) for sz in self.map_sizes],
            "tiles": [
                {
                    "row": t.row,
                    "col": t.col,
                    "owned_split_region": t.owned_split.as_list(),
                    "input_region_forward": t.input_forward.as_list(),
                    "forward": {"regions": [r.as_list() for r in t.fwd_regions],
                                "pads": [list(p) for p in t.fwd_pads]},
                }
                for t in self.tiles
            ],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, doc):
        if doc.get("version") != PLAN_SCHEMA_VERSION:
            raise PlanError(f"unsupported plan schema version {doc.get('version')!r}")
        tiles = [TileEntry(row=td["row"], col=td["col"],
                           owned_split=Region(*td["owned_split_region"]),
                           input_forward=Region(*td["input_region_forward"]),
                           fwd_regions=[Region(*r) for r in td["forward"]["regions"]],
                           fwd_pads=[tuple(p) for p in td["forward"]["pads"]])
                 for td in doc["tiles"]]
        return cls(image_size=doc["image_size"], split_index=doc["split_index"],
                   grid=tuple(doc["grid"]), geoms=[tuple(g) for g in doc["geoms"]],
                   map_sizes=[tuple(sz) for sz in doc["map_sizes"]], tiles=tiles)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


def build_tile_plan(net: NetworkSpec, image_size, grid):
    """Construct a TilePlan for (network, image size, grid)."""
    rows, cols = grid
    if rows < 1 or cols < 1:
        raise PlanError(f"bad grid {grid}")
    geoms = net.stream_geoms()
    try:
        sizes = _axis_sizes(geoms, image_size)
    except ShapeError as exc:
        raise PlanError(f"image too small for the streaming section: {exc}") from exc
    if min(sizes) < 1:
        raise PlanError("a streaming map collapsed to zero extent")
    if rows > sizes[-1] or cols > sizes[-1]:
        raise PlanError(f"grid {grid} exceeds split map {sizes[-1]}x{sizes[-1]}")

    ay = _plan_axis(geoms, sizes, rows)
    ax = _plan_axis(geoms, sizes, cols)
    L = len(geoms)
    tiles = []
    for i, (y_ivs, y_pads) in enumerate(ay):
        for j, (x_ivs, x_pads) in enumerate(ax):
            fwd_regions = [Region(y_ivs[m][0], x_ivs[m][0], y_ivs[m][1], x_ivs[m][1])
                           for m in range(L + 1)]
            fwd_pads = [y_pads[m] + x_pads[m] for m in range(L)]
            tiles.append(TileEntry(row=i, col=j, owned_split=fwd_regions[L],
                                   input_forward=fwd_regions[0],
                                   fwd_regions=fwd_regions, fwd_pads=fwd_pads))
    return TilePlan(image_size=image_size, split_index=net.split_index,
                    grid=(rows, cols), geoms=geoms,
                    map_sizes=[(z, z) for z in sizes], tiles=tiles)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    ok: bool
    failures: list

    @property
    def first_failure(self):
        return self.failures[0] if self.failures else None


def validate_tile_plan(plan: TilePlan, net: NetworkSpec):
    """Integer consistency checks; returns a ValidationReport (never raises)."""
    failures = []

    def fail(tag, msg):
        failures.append(f"{tag}: {msg}")

    geoms = net.stream_geoms()
    L = len(geoms)
    rows, cols = plan.grid
    try:
        sizes = _axis_sizes(geoms, plan.image_size)
    except ShapeError as exc:
        return ValidationReport(False, [f"geometry: {exc}"])
    if geoms != list(plan.geoms) or [(z, z) for z in sizes] != list(plan.map_sizes):
        fail("geometry", "plan geometry does not match the network/image")
    if len(plan.tiles) != rows * cols:
        fail("grid", "tile count does not match grid")
        return ValidationReport(False, failures)

    # partition: row/col boundaries of the owned split rectangles must be
    # consistent and tile [0, split extent)
    ybounds, xbounds = {}, {}
    for t in plan.tiles:
        r = t.owned_split
        ybounds.setdefault(t.row, (r.y0, r.y1))
        xbounds.setdefault(t.col, (r.x0, r.x1))
        if ybounds[t.row] != (r.y0, r.y1) or xbounds[t.col] != (r.x0, r.x1):
            fail("partition", "inconsistent owned split rectangles")
            break
    ys = [ybounds.get(i, (None, None)) for i in range(rows)]
    xs = [xbounds.get(j, (None, None)) for j in range(cols)]
    for name, axis_ivs in (("rows", ys), ("cols", xs)):
        pos = 0
        for iv in axis_ivs:
            if iv[0] != pos or iv[1] < iv[0]:
                fail("partition", f"split map {name} do not partition [0, {sizes[L]})")
                break
            pos = iv[1]
        else:
            if pos != sizes[L]:
                fail("partition", f"split map {name} do not cover [0, {sizes[L]})")

    for t in plan.tiles:
        tag = f"tile ({t.row},{t.col})"
        if t.owned_split.empty:
            fail("partition", f"{tag}: empty owned split region")
        if t.fwd_regions[L] != t.owned_split:
            fail("forward_shapes", f"{tag}: forward chain does not end on the owned region")
        if t.input_forward != t.fwd_regions[0]:
            fail("forward_shapes", f"{tag}: input region does not match the chain")

        for m in range(L):
            k, s, p = geoms[m]
            out_r, in_r = t.fwd_regions[m + 1], t.fwd_regions[m]
            (pt, pb, pl, pr) = t.fwd_pads[m]
            for (o0, o1, i0, i1, plo, phi, ext) in (
                    (out_r.y0, out_r.y1, in_r.y0, in_r.y1, pt, pb, sizes[m]),
                    (out_r.x0, out_r.x1, in_r.x0, in_r.x1, pl, pr, sizes[m])):
                want_lo = o0 * s - p
                want_hi = (o1 - 1) * s - p + k
                if i0 - plo != want_lo or i1 + phi != want_hi:
                    fail("stride_alignment", f"{tag}: layer {m} region off the sampling lattice")
                if plo > p or phi > p:
                    fail("padding", f"{tag}: layer {m} pads exceed the layer pad")
                if (plo > 0 and i0 != 0) or (phi > 0 and i1 != ext):
                    fail("padding", f"{tag}: layer {m} pads away from the border")

    return ValidationReport(not failures, failures)
