"""Streaming vs whole-image equivalence, plan validity, plan JSON and the memory model."""

import dataclasses
import gc
import itertools
import json
import math
import tracemalloc
import weakref

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis.extra.numpy import arrays

import tilestream.engine
import tilestream.layers
import tilestream.network
import tilestream.planner
from conftest import plain_backprop, sample_streaming_config
from test_cli import CONFIG
from tilestream.config import build_network, parse_config
from tilestream.data import synth_dataset
from tilestream.engine import (
    PassResult,
    accumulate_minibatch,
    sgd_step,
    streaming_backward,
    streaming_forward,
    streaming_loss_and_grads,
    train_step,
)
from tilestream.equivalence import (
    DOUBLE_TOLERANCES,
    baseline_forward_backward,
    compare_runs,
    default_tolerances,
    finite_difference_check,
)
from tilestream.errors import PlanError, ShapeError
from tilestream.layers import bce_with_logits
from tilestream.memory import (
    estimate_streaming,
    estimate_whole_image,
    live_peak,
    pool_frees,
    retains_output,
    stream_backward_peaks,
)
from tilestream.network import (
    Conv,
    Dense,
    Flatten,
    MaxPool,
    NetworkSpec,
    ParamGrads,
    Relu,
    clone_params,
    head_forward,
    init_params,
    net_giga64mp,
    net_tiny2,
    net_vgg13,
    param_bytes,
    run_stack,
    stack_backward,
)
from tilestream.planner import (
    Region,
    TileEntry,
    _near_equal_bounds,
    _Section,
    backproject_span,
    build_tile_plan,
    validate_tile_plan,
    whole_image_plan,
)
from tilestream.tensors import resolve_dtype

SAMPLED = range(60)


def sampled(case):
    return sample_streaming_config(np.random.default_rng([2024, case]))


def run_both(net, z, plan, seed, image):
    label = seed % 2
    params = init_params(net, z, seed)
    base = plain_backprop(net, params, image, label)
    stream = streaming_loss_and_grads(net, params, image, label, plan)
    return base, stream.quantities(), stream.record


def assert_equivalent(base, stream):
    assert np.array_equal(stream["split_map"], base.split_map)
    assert stream["loss"] == base.loss
    report = compare_runs(base.quantities(), stream, DOUBLE_TOLERANCES)
    assert report.verdict, {n: report.entries[n].max_rel for n in report.failures}


@pytest.mark.parametrize("case", SAMPLED)
def test_sampled_config_matches_whole_image(case):
    net, z, _, plan = sampled(case)
    report = validate_tile_plan(plan, net)
    assert report.ok, report.failures
    image = np.random.default_rng(case).standard_normal((1, 1, z, z))
    base, stream, record = run_both(net, z, plan, case, image)
    assert_equivalent(base, stream)
    assert record.tiles_forward == record.tiles_backward == len(plan.tiles)


def small_vgg13(last_pool=True):
    """vgg13(base=2, hidden=4), or without last_pool the same net less its
    last pool: its streaming section then ends on the thirteenth conv's
    relu, and its split map has twice the side."""
    net = net_vgg13(base=2, hidden=4)
    if last_pool:
        return net
    return NetworkSpec(1, net.layers[:net.split_index - 1] + net.layers[net.split_index:])


# (image size, grid, last_pool) of the small vgg13's layout tests. Without
# its last pool the top segment ends on a relu; with it, the top segment
# runs the fused relu and pool, at the smallest image whose split map
# holds the grid.
SMALL_VGG13_CASES = [
    pytest.param(64, (4, 4), False, id="64-grid0"),
    pytest.param(96, (3, 5), False, id="96-grid1"),
    pytest.param(128, (4, 4), True, id="128-4x4-last-pool"),
    pytest.param(160, (3, 5), True, id="160-3x5-last-pool"),
]


@pytest.mark.parametrize("z, grid, last_pool", SMALL_VGG13_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_deep_vgg13_matches_whole_image(z, grid, last_pool, seed):
    net = small_vgg13(last_pool)
    plan = build_tile_plan(net, z, grid)
    assert validate_tile_plan(plan, net).ok
    sample = synth_dataset(seed, z, 2)[seed]
    base, stream, _ = run_both(net, z, plan, seed, sample.image)
    assert_equivalent(base, stream)


# Every set of checkpoints among the small vgg13's pool outputs (maps 5,
# 10, 17 and 24), forced through the plan builder the chooser calls.
POOL_OUTPUTS = (5, 10, 17, 24)
LAYOUTS = [cps for r in range(len(POOL_OUTPUTS) + 1)
           for cps in itertools.combinations(POOL_OUTPUTS, r)]


def assert_layout_matches_whole_image(net, z, plan, precision):
    """Every cut map of plan is bit-identical to whole-image, and so are the
    loss and split map; gradients agree within the precision's tolerance."""
    assert validate_tile_plan(plan, net).ok
    params = init_params(net, z, 3, precision)
    sample = synth_dataset(3, z, 2)[1]
    image = sample.image.astype(params[0].w.dtype)
    before = image.tobytes()
    base = plain_backprop(net, params, image, sample.label)
    state = streaming_forward(net, params, image, plan)
    loss, dlogit = bce_with_logits(state.logit[0], sample.label)
    grads = streaming_backward(net, params, image, plan, state, np.asarray([dlogit]))
    assert image.tobytes() == before
    for cut, got in zip(plan.cuts[1:], state.cut_maps):
        want, _ = run_stack(image, net, params, 0, cut, want_cache=False)
        assert got.tobytes() == want.tobytes(), cut
    assert state.split_map.tobytes() == base.split_map.tobytes()
    assert float(loss) == base.loss
    stream = PassResult(float(loss), float(state.logit[0]), state.split_map, grads, state.record)
    report = compare_runs(base.quantities(), stream.quantities(), default_tolerances(precision))
    assert all(e.max_rel_scaled <= e.tolerance for e in report.entries.values())
    if precision == "double":
        assert report.verdict, {n: report.entries[n].max_rel for n in report.failures}
    record = state.record
    assert record.tiles_forward == record.tiles_backward == len(plan.tiles)
    est = estimate_streaming(net, plan, 1, precision)
    assert est.peak_tiles_bytes == record.peak_bytes_tiles
    assert est.peak_head_grads_bytes == record.peak_bytes_head_grads
    # a section prices a plan as estimate_streaming does at the section's
    # batch, and at batch 1 or 2 bounds this batch-1 pass
    for batch in (1, 2):
        assert est.peak_bytes <= _Section(net, z, plan.grid, precision, batch).peak(plan) == \
            estimate_streaming(net, plan, batch, precision).peak_bytes


@pytest.mark.parametrize("checkpoints", LAYOUTS, ids=lambda c: "-".join(map(str, c)) or "none")
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("z, grid, last_pool", SMALL_VGG13_CASES)
def test_every_layout_matches_whole_image(z, grid, last_pool, precision, checkpoints):
    """Every segment at the configured grid."""
    net = small_vgg13(last_pool)
    plan = _Section(net, z, grid).plan(checkpoints)
    assert plan.checkpoints == checkpoints and plan.grids == (grid,) * (len(checkpoints) + 1)
    assert_layout_matches_whole_image(net, z, plan, precision)


def coarsenings(grid):
    """The grids a segment may take: (max(1, r >> j), max(1, c >> j)), j = 0, 1, .. to 1x1."""
    r, c = grid
    return sorted({(max(1, r >> j), max(1, c >> j)) for j in range(max(r, c).bit_length())},
                  reverse=True)


@pytest.mark.parametrize("checkpoints", LAYOUTS, ids=lambda c: "-".join(map(str, c)) or "none")
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("z, grid, last_pool", SMALL_VGG13_CASES)
def test_every_mixed_grid_layout_matches_whole_image(z, grid, last_pool, precision, checkpoints):
    """Mixed grids: segment s takes the configured grid coarsened s times
    (down to 1x1), and the top segment runs whole at 1x1."""
    net = small_vgg13(last_pool)
    options = coarsenings(grid)
    grids = tuple(options[min(s, len(options) - 1)] for s in range(len(checkpoints))) + ((1, 1),)
    plan = _Section(net, z, grid).plan(checkpoints, grids)
    assert plan.checkpoints == checkpoints and plan.grids == grids and plan.grid == grid
    assert [len(s.tiles) for s in plan.segments] == [r * c for r, c in grids]
    assert_layout_matches_whole_image(net, z, plan, precision)


CHOOSER_CASES = {
    "vgg13-small-64-4x4": (lambda: small_vgg13(last_pool=False), 64, (4, 4)),
    "vgg13-small-96-3x5": (lambda: small_vgg13(last_pool=False), 96, (3, 5)),
    "vgg13-small-128-4x4-last-pool": (small_vgg13, 128, (4, 4)),
    "vgg13-small-160-3x5-last-pool": (small_vgg13, 160, (3, 5)),
    "vgg13-512-4x4": (net_vgg13, 512, (4, 4)),
    "tiny2-512-8x8": (net_tiny2, 512, (8, 8)),
    "cli-32-2x2": (lambda: build_network(parse_config(CONFIG)), 32, (2, 2)),
    "vgg13-256-4x4": (net_vgg13, 256, (4, 4)),
}


def every_plan(section):
    """The exhaustive product: every set of checkpoints, every grid per segment."""
    for cps in section.checkpoint_sets:
        for grids in itertools.product(coarsenings(section.grid), repeat=len(cps) + 1):
            yield section.plan(cps, grids)


def rule(plan):
    """The chooser's key: tile-layer calls, then conv work, then checkpoints."""
    return plan.calls, plan.recompute_ratio, len(plan.checkpoints)


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("name", sorted(CHOOSER_CASES))
def test_chooser_keeps_the_smallest_modelled_peak(name, batch):
    """The planner weighs every set of pool outputs the grid fits. The
    chosen modelled peak is the least over those sets with every segment
    at the configured grid (the budget), as the memory model
    computes it on the built plans at the planned batch, and no layout
    within it, of any set and any grid per segment, makes fewer tile-layer
    calls, or as few with less conv work or fewer checkpoints; in each
    precision, whose bytes the chooser weighs. Every layout's peak, as
    the section prices it, is estimate_streaming's."""
    make, z, grid = CHOOSER_CASES[name]
    net = make()
    for precision in ("single", "double"):
        section = _Section(net, z, grid, precision, batch)
        chosen, candidates = section.choose()
        plan = build_tile_plan(net, z, grid, precision, batch)
        assert plan == chosen and plan.grid == grid
        sizes = [h for _, h, _ in net.activation_shapes(z)[:net.split_index + 1]]
        pools = [m + 1 for m, layer in enumerate(net.stream_layers) if isinstance(layer, MaxPool)
                 and m + 1 < net.split_index and sizes[m + 1] >= max(grid)]
        sets = sorted(cps for r in range(len(pools) + 1)
                      for cps in itertools.combinations(pools, r))
        assert sorted(c.checkpoints for c in candidates) == sets
        uniform = {}
        for cps in sets:
            forced = section.plan(cps)
            assert validate_tile_plan(forced, net).ok
            uniform[cps] = estimate_streaming(net, forced, batch, precision).peak_bytes
            assert uniform[cps] == section.peak(forced)
        budget = min(uniform.values())
        assert estimate_streaming(net, plan, batch, precision).peak_bytes == budget <= uniform[()]
        assert any(c is chosen for c in candidates)
        for candidate in candidates:
            assert validate_tile_plan(candidate, net).ok
            assert estimate_streaming(net, candidate, batch, precision).peak_bytes == \
                section.peak(candidate)
        assert section.budget == budget
        for other in every_plan(section):
            assert section.peak(other) == \
                estimate_streaming(net, other, batch, precision).peak_bytes
            if section.peak(other) <= budget:
                assert rule(other) >= rule(chosen), (other.checkpoints, other.grids)


def assert_separable(section):
    """Each segment at its coarsest grid that fits on its own gives, per
    set of checkpoints and overall, the layout the exhaustive product of
    per-segment grids keeps within the budget in the section's precision
    and at its batch."""
    best = {}
    for plan in every_plan(section):
        if section.peak(plan) <= section.budget:
            cps = plan.checkpoints
            if cps not in best or rule(plan) < rule(best[cps]):
                best[cps] = plan
    for cps in section.checkpoint_sets:
        assert section.coarsest(cps) == best.get(cps), cps
    assert section.choose()[0] == min(best.values(), key=rule)


@pytest.mark.parametrize("name", sorted(CHOOSER_CASES))
def test_separable_search_equals_the_exhaustive_product(name):
    """The fixed cases, in each precision, at batch 1 and 2;
    section.coarsenings runs from 1x1 to the configured grid."""
    make, z, grid = CHOOSER_CASES[name]
    for precision, batch in itertools.product(("single", "double"), (1, 2)):
        section = _Section(make(), z, grid, precision, batch)
        assert section.coarsenings == coarsenings(grid)[::-1]
        assert_separable(section)


def test_separable_search_on_sampled_nets():
    """The sampled nets, strided and pool-free ones among them, in each
    precision, at batch 1 and 2."""
    rng = np.random.default_rng(21)
    for _ in range(120):
        net, z, grid, _ = sample_streaming_config(rng)
        for precision, batch in itertools.product(("single", "double"), (1, 2)):
            assert_separable(_Section(net, z, grid, precision, batch))


@pytest.mark.parametrize("planned", [1, 2])
@pytest.mark.parametrize("make, z, grid", [(net_vgg13, 512, (4, 4)), (net_tiny2, 512, (8, 8)),
                                           (net_giga64mp, 8130, (16, 16))])
def test_a_plan_prices_the_same_whichever_precision_chose_it(make, z, grid, planned):
    """A plan stores element counts, not bytes: chosen at a batch in either
    precision and priced by estimate_streaming in either, at batch 1 and
    2, it gives the estimate of the plan chosen in the pricing precision
    (perfbench's traced run plans in double and estimates in single). The
    section that chose a plan prices it as estimate_streaming does at the
    planned batch."""
    net = make()
    plans = {precision: build_tile_plan(net, z, grid, precision, planned)
             for precision in ("single", "double")}
    for chosen, priced in itertools.product(plans, repeat=2):
        for batch in (1, 2):
            assert estimate_streaming(net, plans[chosen], batch, priced) == \
                estimate_streaming(net, plans[priced], batch, priced)
    for precision, plan in plans.items():
        section = _Section(net, z, grid, precision, planned)
        assert section.choose()[0] == plan
        assert section.peak(plan) == estimate_streaming(net, plan, planned, precision).peak_bytes


@pytest.mark.parametrize("make, z, grid, want", [
    (net_vgg13, 512, (4, 4), (17,)),     # the vgg13-g4 benchmark workload
    (net_tiny2, 512, (8, 8), ()),        # tiny2-g8: a map-3 checkpoint models more
    (net_vgg13, 8192, (16, 16), ()),     # paper scale: the split map is small
    # map 34 = 14 conv-relu pairs + 6 pools: the 127x127 output of the pool
    # after the first extra conv; the layers above it, up to the 31x31
    # split map, run whole
    (net_giga64mp, 8130, (16, 16), (34,)),
])
def test_chosen_checkpoints(make, z, grid, want):
    """Planning only, no arrays: where the chooser cuts the presets."""
    assert build_tile_plan(make(), z, grid).checkpoints == want


@pytest.mark.parametrize("make, z, grid, batch, checkpoints, grids", [
    (net_vgg13, 512, (4, 4), 1, (17,), ((4, 4), (2, 2))),    # vgg13-g4: 20 tiles
    (net_vgg13, 512, (4, 4), 2, (17,), ((4, 4), (2, 2))),
    (net_vgg13, 256, (4, 4), 1, (17,), ((4, 4), (2, 2))),
    (net_vgg13, 256, (4, 4), 2, (17,), ((4, 4), (2, 2))),
    (net_vgg13, 512, (2, 2), 1, (10,), ((2, 2), (2, 2))),
    (net_vgg13, 512, (2, 2), 2, (10,), ((2, 2), (2, 2))),
    # tiny2-g8: at batch 1 the head-gradient phase (8.26 MiB single) sets
    # the peak and 2x2 tiles fit beside it; at batch 2 the second image's
    # tiles run beside the head gradients, and 8x8 is the coarsest that fits
    (net_tiny2, 512, (8, 8), 1, (), ((2, 2),)),
    (net_tiny2, 512, (8, 8), 2, (), ((8, 8),)),
    (net_tiny2, 2048, (8, 8), 1, (), ((2, 2),)),
    (net_tiny2, 2048, (8, 8), 2, (), ((8, 8),)),
    (net_vgg13, 2048, (16, 16), 1, (), ((8, 8),)),
    (net_vgg13, 2048, (16, 16), 2, (), ((16, 16),)),
    # paper scale: at batch 1 the head-gradient phase (520.4 MiB single)
    # sets the peak, and 4x4 fits beside it at 1.10x conv work
    (net_vgg13, 8192, (16, 16), 1, (), ((4, 4),)),
    (net_vgg13, 8192, (16, 16), 2, (), ((16, 16),)),
    (net_giga64mp, 8130, (16, 16), 1, (34,), ((16, 16), (1, 1))),
    (net_giga64mp, 8130, (16, 16), 2, (34,), ((16, 16), (1, 1))),
])
def test_chosen_segment_grids(make, z, grid, batch, checkpoints, grids):
    """Planning only: each segment's grid the chooser picks for the presets
    at a batch size, the same in both precisions."""
    for precision in ("single", "double"):
        plan = build_tile_plan(make(), z, grid, precision, batch)
        assert (plan.checkpoints, plan.grids, plan.grid) == (checkpoints, grids, grid)
        assert len(plan.tiles) == sum(r * c for r, c in grids)


def test_planning_at_paper_scale_builds_no_tiles(monkeypatch):
    """Planning vgg13@8192 at batch 2, where 64x64 tiles (4,096 of them)
    are the coarsest that fit, and validating the plan constructs no
    TileEntry: the chooser, the memory model and validation read each
    segment's row and column parts."""
    built = []

    def counting(*args):
        built.append(args)

    monkeypatch.setattr(tilestream.planner, "TileEntry", counting)
    net = net_vgg13()
    plan = build_tile_plan(net, 8192, (64, 64), batch=2)
    assert plan.grids == ((64, 64),) and validate_tile_plan(plan, net).ok
    assert estimate_streaming(net, plan, 2, "single").peak_bytes == \
        _Section(net, 8192, (64, 64), "single", 2).peak(plan)
    assert built == []


def test_a_section_walks_the_network_once(monkeypatch):
    """A _Section reads every map and parameter shape it prices from one
    NetworkSpec.activation_shapes walk, handed to param_shapes and to
    memory.plan_terms; so do whole_image_plan, which the whole-image
    executor runs in every pass, and estimate_streaming."""
    walks, walk = [], NetworkSpec.activation_shapes

    def counting(self, image_size):
        walks.append(image_size)
        return walk(self, image_size)

    monkeypatch.setattr(NetworkSpec, "activation_shapes", counting)
    net = net_vgg13()
    plan = whole_image_plan(net, 512)
    for run in (lambda: _Section(net, 512, (4, 4), "single", 2),
                lambda: whole_image_plan(net, 512),
                lambda: estimate_streaming(net, plan, 1, "single")):
        walks.clear()
        run()
        assert walks == [512]


@pytest.mark.parametrize("case", SAMPLED)
def test_plan_tiles_are_the_row_major_product_of_parts(case):
    """Each segment's tiles are built once: reading plan.tiles twice gives
    the same objects, and they are its row parts crossed with its column
    parts, row-major, segment by segment."""
    _, _, _, plan = sampled(case)
    first, second = plan.tiles, plan.tiles
    assert len(first) == len(second) and all(a is b for a, b in zip(first, second))
    assert first == [
        TileEntry(i, j, Region(y.crop[0], x.crop[0], y.crop[1], x.crop[1]),
                  Region(y.owned[0], x.owned[0], y.owned[1], x.owned[1]),
                  [yp + xp for yp, xp in zip(y.pads, x.pads)])
        for s in plan.segments for i, y in enumerate(s.rows) for j, x in enumerate(s.cols)]


@settings(max_examples=200, deadline=None)
@given(total=st.integers(1, 10_000), parts=st.integers(1, 256))
@example(total=254, parts=16)   # giga64mp@8130's map 31
def test_near_equal_bounds_balance_the_parts(total, parts):
    """An axis's bounds run from 0 to its extent, and its parts are
    nonempty and differ by at most one."""
    assume(parts <= total)
    bounds = _near_equal_bounds(total, parts)
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    assert bounds[0] == 0 and bounds[-1] == total and len(sizes) == parts
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def damage_part(plan, s, axis, i, **changes):
    """Replace part i of segment s's rows or cols by a copy with changes."""
    segment = plan.segments[s]
    parts = list(getattr(segment, axis))
    parts[i] = dataclasses.replace(parts[i], **changes)
    plan.segments[s] = dataclasses.replace(segment, **{axis: tuple(parts)})


@pytest.mark.parametrize("damage, tag", [("segments-reversed", "segments"),
                                         ("segments-empty", "segments"),
                                         ("checkpoint-map-overlap", "partition"),
                                         ("tile-missing", "partition")])
def test_broken_segments_fail_validation(damage, tag):
    net = net_vgg13(base=2, hidden=4)
    plan = _Section(net, 64, (2, 2)).plan((10, 24))
    assert validate_tile_plan(plan, net).ok
    if damage == "segments-reversed":
        plan.segments.reverse()
    elif damage == "segments-empty":
        plan.segments.clear()
    elif damage == "checkpoint-map-overlap":
        # segment [0, 10): column 1 owns columns of checkpoint map 10
        lo, hi = plan.segments[0].cols[1].owned
        damage_part(plan, 0, "cols", 1, owned=(lo - 1, hi))
    else:  # segment [10, 24) loses its second row
        segment = plan.segments[1]
        plan.segments[1] = dataclasses.replace(segment, rows=segment.rows[:1])
    report = validate_tile_plan(plan, net)
    assert not report.ok
    assert report.first_failure.startswith(tag), report.failures


@pytest.mark.parametrize("other, tag", [("5x5-convs", "padding"), ("split-at-10", "segments")])
def test_a_plan_of_another_network_fails_validation(other, tag):
    """A plan stores no map size or geometry; validated against another
    network, the walk up its parts' pads or the cut check refuses it: the
    same maps made by 5x5, pad-2 convs, or the same lower layers with the
    head on map 10, so the split moves with the flatten."""
    net = net_vgg13(base=2, hidden=4)
    plan = build_tile_plan(net, 64, (2, 2))
    if other == "5x5-convs":
        layers = tuple(dataclasses.replace(layer, kernel=5, pad=2) if isinstance(layer, Conv)
                       else layer for layer in net.layers)
        other_net = NetworkSpec(net.in_channels, layers)
        assert other_net.activation_shapes(64) == net.activation_shapes(64)
    else:
        other_net = NetworkSpec(net.in_channels, net.layers[:10] + net.layers[net.split_index:])
        assert other_net.split_index == 10
    report = validate_tile_plan(plan, other_net)
    assert not report.ok
    assert any(f.startswith(f"{tag}: ") for f in report.failures), report.failures


# Streaming sections the sampled configs never draw: overlapping pool
# windows (k > s), and a relu right after a pool, which overwrites the
# pool's output in place while the pool's backward reads its input.
OVERLAPPING_POOL_NETS = {
    "relu-after-pool-3s2": ((Conv(4, 3, 1, 1), Relu(), MaxPool(3, 2), Relu(),
                             Conv(4, 3, 1, 1), Relu()), 48, (2, 2)),
    "pool-3s2-and-3s1": ((Conv(3, 3, 1, 1), MaxPool(3, 2), Relu(),
                          Conv(4, 3, 1, 1), MaxPool(3, 1)), 40, (4, 4)),
}


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("name", sorted(OVERLAPPING_POOL_NETS))
def test_overlapping_pools_and_relu_after_pool_match_whole_image(name, precision):
    layers, z, grid = OVERLAPPING_POOL_NETS[name]
    net = NetworkSpec(1, layers + (Flatten(), Dense(1)))
    plan = build_tile_plan(net, z, grid)
    assert validate_tile_plan(plan, net).ok
    params = init_params(net, z, 5, precision)
    sample = synth_dataset(5, z, 2)[1]
    image = sample.image.astype(params[0].w.dtype)
    before = image.tobytes()
    base = plain_backprop(net, params, image, sample.label)
    stream = streaming_loss_and_grads(net, params, image, sample.label, plan)
    assert image.tobytes() == before
    assert stream.split_map.tobytes() == base.split_map.tobytes()
    assert stream.loss == base.loss
    report = compare_runs(base.quantities(), stream.quantities(), default_tolerances(precision))
    assert all(e.max_rel_scaled <= e.tolerance for e in report.entries.values())
    if precision == "double":
        assert report.verdict, {n: report.entries[n].max_rel for n in report.failures}
    # In single precision the per-element gate fails on relu-after-pool-3s2:
    # one conv4.w entry differs by 1.6e-4 of itself, 3.3e-7 of the tensor's
    # largest entry, from summation order alone; the per-tensor scaled
    # metric above bounds it.
    whole = whole_image_plan(net, z)
    for p, record in ((plan, stream.record),
                      (whole, streaming_loss_and_grads(net, params, image, sample.label,
                                                       whole).record)):
        est = estimate_streaming(net, p, 1, precision)
        assert (est.peak_tiles_bytes, est.peak_head_grads_bytes) == (
            record.peak_bytes_tiles, record.peak_bytes_head_grads)


# name: (net, image size, layers whose last output row and column no layer
# above reads). A pool 3s2 on an even map skips its input's last row and
# column, so the 1x1 plan, which back-projects like any plan, does not
# compute them: that conv's parameter-gradient sums run over 39x39 (47x47)
# positions instead of 40x40 (48x48), and agree only within tolerance.
WHOLE_IMAGE_NETS = dict(
    {"vgg13-small": (net_vgg13(base=2, hidden=4), 64, ())},
    **{name: (NetworkSpec(1, layers + (Flatten(), Dense(1))), z, ("conv0",))
       for name, (layers, z, _) in OVERLAPPING_POOL_NETS.items()})


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("name", sorted(WHOLE_IMAGE_NETS))
def test_whole_image_plan_is_plain_backprop_bit_for_bit(name, precision):
    """The 1x1 plan with no checkpoints runs standard backprop: its loss,
    split map and every gradient equal the tests' oracle bit for bit, but
    for the parameter gradients of a layer whose output it trims."""
    net, z, trimmed = WHOLE_IMAGE_NETS[name]
    plan = whole_image_plan(net, z)
    assert len(plan.tiles) == 1 and plan.checkpoints == () and validate_tile_plan(plan, net).ok
    params = init_params(net, z, 5, precision)
    sample = synth_dataset(5, z, 2)[1]
    image = sample.image.astype(params[0].w.dtype)
    want = plain_backprop(net, params, image, sample.label).quantities()
    for got in (streaming_loss_and_grads(net, params, image, sample.label, plan),
                baseline_forward_backward(net, params, image, sample.label)):
        got = got.quantities()
        report = compare_runs(want, got, default_tolerances(precision))
        for key, value in want.items():
            if key.partition(":")[2].split(".")[0] in trimmed:
                assert report.entries[key].max_rel_scaled <= report.entries[key].tolerance, key
            else:
                assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key


def counted_tile_passes(monkeypatch):
    """Record want_cache of every engine._tile_pass call."""
    calls, tile_pass = [], tilestream.engine._tile_pass

    def counting(*args, want_cache):
        calls.append(want_cache)
        return tile_pass(*args, want_cache=want_cache)

    monkeypatch.setattr(tilestream.engine, "_tile_pass", counting)
    return calls


@pytest.mark.parametrize("grid, checkpoints", [((1, 1), ()), ((2, 2), ()), ((4, 4), (10, 24)),
                                               ((3, 5), (17,))])
def test_backward_recomputes_every_tile_but_the_kept_one(monkeypatch, grid, checkpoints):
    """Forward runs every tile once and keeps the caches of the last only;
    backward backpropagates every tile and recomputes all but that one."""
    net = net_vgg13(base=2, hidden=4)
    plan = _Section(net, 160, grid).plan(checkpoints)  # a 5x5 split map holds every grid
    params = init_params(net, 160, 0)
    image = synth_dataset(0, 160, 2)[0].image
    calls = counted_tile_passes(monkeypatch)
    state = streaming_forward(net, params, image, plan)
    assert calls == [False] * (len(plan.tiles) - 1) + [True]
    assert state.kept[0] is plan.tiles[-1]
    del calls[:]
    streaming_backward(net, params, image, plan, state, np.asarray([1.0]))
    assert calls == [True] * (len(plan.tiles) - 1)
    assert state.record.tiles_forward == state.record.tiles_backward == len(plan.tiles)
    assert state.kept is None


@pytest.mark.parametrize("grid, checkpoints", [((1, 1), ()), ((2, 2), (10,)), ((4, 4), (10, 24))])
def test_each_conv_backward_builds_its_columns_once(monkeypatch, grid, checkpoints):
    """In one streaming_backward every conv of every tile builds its im2col
    columns once (one layers._bands call): through conv2d_backward above
    map 0 and through conv2d_param_grad at map 0. The forward recompute's
    column builds are left out of the count."""
    net = net_vgg13(base=2, hidden=4)
    plan = _Section(net, 160, grid).plan(checkpoints)
    params = init_params(net, 160, 0)
    image = synth_dataset(0, 160, 2)[0].image
    state = streaming_forward(net, params, image, plan)
    calls, bands = [], tilestream.layers._bands  # calls: [kernel, layer index, _bands calls]
    inside = []

    def counting_bands(*args):
        if inside:
            calls[-1][2] += 1
        return bands(*args)

    def counted(name, kernel):
        def run(x, spec, *args):
            calls.append([name, next(i for i, layer in enumerate(net.layers) if layer is spec), 0])
            inside.append(name)
            try:
                return kernel(x, spec, *args)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(tilestream.layers, "_bands", counting_bands)
    for name in ("conv2d_backward", "conv2d_param_grad"):
        monkeypatch.setattr(tilestream.network, name,
                            counted(name, getattr(tilestream.network, name)))
    streaming_backward(net, params, image, plan, state, np.asarray([1.0]))
    convs = [i for i, layer in enumerate(net.layers) if isinstance(layer, Conv)]
    want = sorted((("conv2d_param_grad" if i == 0 else "conv2d_backward"), i, 1)
                  for seg in plan.segments for _ in seg.tiles
                  for i in convs if seg.start <= i < seg.stop)
    assert sorted(map(tuple, calls)) == want


def test_a_tiny2_step_runs_at_most_448_conv_bands(monkeypatch):
    """One single-precision tiny2@512 step, planned at (8, 8) and batch 1
    (the chooser keeps 2x2), runs at most 448 conv bands (layers._bands
    yields). Conv 3's backward reduces over 129-wide maps: the band rule's
    floor keeps it at two rows a band, where the accumulator's share alone
    would leave one, and the step would run 704 bands."""
    net, plan, params, samples = _single_precision_tiny2(512, (8, 8))
    assert plan.grids == ((2, 2),)
    bands, count = tilestream.layers._bands, []

    def counting(*args):
        for band in bands(*args):
            count.append(band)
            yield band

    monkeypatch.setattr(tilestream.layers, "_bands", counting)
    train_step(net, params, samples[:1], 0.05, plan)
    assert 0 < len(count) <= 448


def test_backward_frees_each_layer_cache_as_it_goes(monkeypatch):
    """On a whole-image (1x1) pass, after the cached forward no cache holds
    a map a pool read (a pool keeps its route): every pool streams, the
    last one below the flatten included; when layer j's backward starts, every array that
    only the caches of layers above j referenced is already freed, but the
    dense layers' inputs, which the head's parameter gradients read after
    the last tile; afterwards the stream's and the head's cache lists are
    empty."""
    net = net_vgg13(base=2, hidden=4)
    plan = whole_image_plan(net, 64)
    params = init_params(net, 64, 0)
    image = synth_dataset(0, 64, 2)[0].image
    pool_inputs, pool = [], tilestream.network.maxpool2d_forward

    def recording(x, k, s, route=False):
        pool_inputs.append(weakref.ref(x))
        return pool(x, k, s, route)

    monkeypatch.setattr(tilestream.network, "maxpool2d_forward", recording)
    state = streaming_forward(net, params, image, plan)
    monkeypatch.undo()
    pools = [i for i, layer in enumerate(net.layers) if isinstance(layer, MaxPool)]
    assert len(pool_inputs) == len(pools) == 5 and pools[-1] == net.split_index - 1
    assert [ref() is None for ref in pool_inputs] == [True] * 5
    stream_caches, head_caches = state.kept[1], state.head_caches
    held = {id(m) for m in state.cut_maps}  # the engine keeps these until the pass ends
    held |= {id(cache) for layer, cache in zip(net.layers[net.split_index:], head_caches)
             if isinstance(layer, Dense)}
    lowest = {}  # array id -> (lowest layer whose cache holds it, weakref)
    for i, cache in enumerate(stream_caches + head_caches):
        parts = cache if isinstance(cache, tuple) else (cache,)  # conv caches (x, pads)
        for a in parts:
            if isinstance(a, np.ndarray) and id(a) not in held:
                lowest.setdefault(id(a), (i, weakref.ref(a)))
    del cache, parts, a
    alive, layer_backward = [], tilestream.network.layer_backward

    def checking(grad_out, layer, lparams, cache, acc, inplace_ok=False, input_grad=True):
        j = len(net.layers) - 1 - len(alive)  # layers run top-down, layer 0 last
        assert layer is net.layers[j] and input_grad == (j > 0)
        alive.append([i for i, ref in lowest.values() if i > j and ref() is not None])
        return layer_backward(grad_out, layer, lparams, cache, acc, inplace_ok, input_grad)

    monkeypatch.setattr(tilestream.network, "layer_backward", checking)
    streaming_backward(net, params, image, plan, state, np.asarray([1.0]))
    assert alive == [[]] * len(net.layers)
    assert stream_caches == [] and head_caches == []


def test_whole_image_pass_traced_peak_within_model():
    """The tracemalloc peak of one whole-image (1x1 plan) pass of vgg13@256
    in single precision is at most the modelled peak of estimate_streaming for
    that plan. The scope is the whole-image case only; no bound on the
    traced peak of tiled plans is claimed here."""
    net = net_vgg13()
    plan = whole_image_plan(net, 256)
    params = init_params(net, 256, 0, "single")
    sample = synth_dataset(0, 256, 2)[0]
    image = sample.image.astype(np.float32)
    streaming_loss_and_grads(net, params, image, sample.label, plan)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        streaming_loss_and_grads(net, params, image, sample.label, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate_streaming(net, plan, 1, "single").peak_bytes


def _single_precision_tiny2(size, grid, batch=1):
    """tiny2 with a plan chosen at batch, single-precision parameters and
    two single-precision samples."""
    net = net_tiny2()
    plan = build_tile_plan(net, size, grid, batch=batch)
    params = init_params(net, size, 0, "single")
    samples = [dataclasses.replace(s, image=s.image.astype(np.float32))
               for s in synth_dataset(0, size, 2)]
    return net, plan, params, samples


def test_a_step_holds_one_gradient_set():
    """tiny2@256 4x4, single precision, batch 2: the step's traced peak
    exceeds that of one pass into a gradient set that already holds every
    entry, as the batch's second image sees it, by at most one dense-weight
    row (sgd_step's temporary) plus a 16 KiB slack for the step's Python
    objects. Each pass adds into the step's one gradient set; a per-image
    set or a mean copy would add 1 MiB (the head weight) each, and an image
    cast or a split map kept from the previous image 256 KiB."""
    net, plan, params, samples = _single_precision_tiny2(256, (4, 4), batch=2)
    assert plan.grids == ((4, 4),)

    def traced_peak(fn):
        fn()  # warm-up
        gc.collect()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    image, label = samples[0].image, samples[0].label
    one_pass = traced_peak(lambda: streaming_loss_and_grads(net, params, image, label, plan,
                                                            ParamGrads.zeros_like(params)))
    step = traced_peak(lambda: train_step(net, params, samples, 0.0, plan))
    row = max(p.w[0].nbytes for p in params if p is not None)
    assert row == 16384 * 4
    assert step <= one_pass + row + 16 * 1024


@pytest.mark.parametrize("make_plan", [
    pytest.param(lambda net: whole_image_plan(net, 128), id="1x1"),
    pytest.param(lambda net: _Section(net, 128, (4, 4)).plan(()), id="4x4")])
def test_no_head_gradient_exists_beside_the_tiles(monkeypatch, make_plan):
    """At batch 1 a pass allocates the head's gradient entries after its
    last tile: none exists while any tile's stack_backward runs, and each
    exists once the pass returns."""
    net = net_tiny2()
    plan = make_plan(net)
    params = init_params(net, 128, 0)
    sample = synth_dataset(0, 128, 2)[0]
    head = [i for i, layer in enumerate(net.layers) if isinstance(layer, Dense)]
    seen, stack = [], tilestream.engine.stack_backward

    def checking(grad_out, net, params, caches, start, stop, grads):
        seen.append([grads.per_layer[i] for i in head])
        return stack(grad_out, net, params, caches, start, stop, grads)

    monkeypatch.setattr(tilestream.engine, "stack_backward", checking)
    grads = streaming_loss_and_grads(net, params, sample.image, sample.label, plan).grads
    assert seen == [[None] * len(head)] * len(plan.tiles)
    assert all(grads.per_layer[i].w.shape == params[i].w.shape for i in head)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("make, size, grid", [(net_vgg13, 256, (2, 2)), (net_tiny2, 256, (4, 4))],
                         ids=["vgg13-256-2x2", "tiny2-256-4x4"])
def test_counted_backward_phases_equal_the_model_at_batch_one_and_two(make, size, grid,
                                                                      precision):
    """The engine counts the gradient set in each backward phase as
    estimate_streaming models it: at batch 1 a pass's tiles run beside the
    streaming layers' gradients only; at batch 2 the second image's tiles
    run beside the head's too, which the first image formed, and that is
    the step's peak. The plan is chosen at batch 2, so it bounds both."""
    net = make()
    plan = build_tile_plan(net, size, grid, precision, batch=2)
    params = init_params(net, size, 0, precision)
    dtype = resolve_dtype(precision)
    samples = [dataclasses.replace(s, image=s.image.astype(dtype))
               for s in synth_dataset(0, size, 2)]
    record = streaming_loss_and_grads(net, params, samples[0].image, samples[0].label,
                                      plan).record
    one, two = (estimate_streaming(net, plan, batch, precision) for batch in (1, 2))
    assert (record.peak_bytes_tiles, record.peak_bytes_head_grads, record.peak_bytes) \
        == (one.peak_tiles_bytes, one.peak_head_grads_bytes, one.peak_bytes)
    assert two.peak_tiles_bytes == one.peak_tiles_bytes + param_bytes(params[net.split_index:])
    step = train_step(net, params, samples, 0.0, plan)
    assert step.peak_bytes == two.peak_bytes


@pytest.mark.parametrize("planned", [1, 2])
@pytest.mark.parametrize("make, size, grid", [
    (net_tiny2, 256, (4, 4)),
    # a head-heavy vgg13: at batch 1 its tiles fit beside fewer cut maps
    (lambda: net_vgg13(base=2, hidden=64), 128, (4, 4)),
], ids=["tiny2-256-4x4", "vgg13-hidden64-128-4x4"])
def test_the_model_holds_at_the_planned_batch(monkeypatch, make, size, grid, planned):
    """A plan chosen at batch b bounds a train_step at every batch up to b:
    the i-th image's pass counts the phase peaks estimate_streaming models
    at batch i, and the step's peak is the model's at its batch, within
    the budget of the section that chose the plan. At batch 1 the head's
    gradients leave the tiles room, so the batch-1 plan makes fewer
    tile-layer calls than the batch-2 one."""
    net = make()
    sections = {b: _Section(net, size, grid, "single", b) for b in (1, 2)}
    plans = {b: section.choose()[0] for b, section in sections.items()}
    assert plans[1].calls < plans[2].calls
    plan, budget = plans[planned], sections[planned].budget
    params = init_params(net, size, 0, "single")
    samples = [dataclasses.replace(s, image=s.image.astype(np.float32))
               for s in synth_dataset(0, size, 2)]
    records, passes = [], tilestream.engine.streaming_loss_and_grads

    def recording(*args):
        res = passes(*args)
        records.append(res.record)
        return res

    monkeypatch.setattr(tilestream.engine, "streaming_loss_and_grads", recording)
    for batch in range(1, planned + 1):
        records.clear()
        step = train_step(net, params, samples[:batch], 0.0, plan)
        for image, record in enumerate(records, 1):
            est = estimate_streaming(net, plan, image, "single")
            assert (record.peak_bytes_tiles, record.peak_bytes_head_grads) == \
                (est.peak_tiles_bytes, est.peak_head_grads_bytes)
        assert len(records) == batch
        assert step.peak_bytes == estimate_streaming(net, plan, batch, "single").peak_bytes \
            <= budget


def test_a_batch_one_step_applies_the_pass_gradient():
    """At batch 1 the applied gradient is the pass's bit for bit, and so is
    each parameter update."""
    net, plan, params, samples = _single_precision_tiny2(128, (2, 2))
    sample = samples[0]
    want = streaming_loss_and_grads(net, params, sample.image, sample.label, plan).grads
    stepped = clone_params(params)
    got = train_step(net, stepped, [sample], 0.05, plan).grads
    for (name, a), (_, b) in zip(want.named_tensors(), got.named_tensors(), strict=True):
        assert np.array_equal(a, b), name
    for p, q, g in zip(params, stepped, want.per_layer):
        if p is not None:
            assert np.array_equal(q.w, p.w - np.float32(0.05) * g.w)
            assert np.array_equal(q.b, p.b - np.float32(0.05) * g.b)


@pytest.mark.parametrize("checkpoints", [(), (10, 24)])
def test_one_tile_segments_keep_their_tile_output(monkeypatch, checkpoints):
    """On a 1x1 plan every cut map, the split map included, is the output
    of its segment's lone tile, not a copy of it."""
    net = net_vgg13(base=2, hidden=4)
    plan = _Section(net, 96, (1, 1)).plan(checkpoints)
    outputs, tile_pass = [], tilestream.engine._tile_pass

    def recording(*args, want_cache):
        result = tile_pass(*args, want_cache=want_cache)
        outputs.append(result[0])
        return result

    monkeypatch.setattr(tilestream.engine, "_tile_pass", recording)
    state = streaming_forward(net, init_params(net, 96, 0), synth_dataset(0, 96, 2)[0].image, plan)
    assert len(outputs) == len(state.cut_maps) == len(checkpoints) + 1
    for cut, out in zip(state.cut_maps, outputs):
        assert np.shares_memory(cut, out) and cut.shape == out.shape


def test_forward_state_of_another_plan_raises():
    """A forward state carries the caches of its plan's last tile: a 2x2
    state, whose cut maps have the shapes of the 4x4 plan's, and a state
    already backpropagated are both refused; a refusal leaves the state
    usable with its own plan."""
    net = net_vgg13(base=2, hidden=4)
    coarse, fine = (_Section(net, 128, grid).plan((10,)) for grid in ((2, 2), (4, 4)))
    params = init_params(net, 128, 0)
    image = synth_dataset(0, 128, 2)[0].image
    state = streaming_forward(net, params, image, coarse)
    with pytest.raises(PlanError, match="does not match this plan"):
        streaming_backward(net, params, image, fine, state, np.asarray([1.0]))
    streaming_backward(net, params, image, coarse, state, np.asarray([1.0]))
    state = streaming_forward(net, params, image, fine)
    streaming_backward(net, params, image, fine, state, np.asarray([1.0]))
    with pytest.raises(PlanError, match="was backpropagated"):
        streaming_backward(net, params, image, fine, state, np.asarray([1.0]))


PASS_ENTRIES = {
    "streaming_forward": lambda net, params, batch, plan: streaming_forward(
        net, params, batch, plan),
    "streaming_backward": lambda net, params, batch, plan: streaming_backward(
        net, params, batch, plan, streaming_forward(net, params, batch[:1], plan),
        np.asarray([1.0])),
    "streaming_loss_and_grads": lambda net, params, batch, plan: streaming_loss_and_grads(
        net, params, batch, 1, plan),
}


@pytest.mark.parametrize("entry", sorted(PASS_ENTRIES))
def test_a_pass_takes_one_image(entry):
    """Every entry of the per-image executor refuses a two-image batch,
    which the model and the engine's counters would price as one image."""
    net = net_vgg13(base=2, hidden=4)
    params = init_params(net, 64, 0)
    batch = np.stack([s.image[0] for s in synth_dataset(0, 64, 2)])
    with pytest.raises(ShapeError, match="one image at a time"):
        PASS_ENTRIES[entry](net, params, batch, build_tile_plan(net, 64, (2, 2)))


GUARDS = {
    "image-of-another-size": (PlanError, "does not match plan image_size"),
    "plan-of-another-split": (PlanError, "split_index does not match"),
    "negative-learning-rate": (ShapeError, "negative learning rate"),
    "train-step-empty-batch": (ShapeError, "empty mini-batch"),
    "accumulate-empty-batch": (ShapeError, "empty mini-batch"),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guards_raise_their_documented_errors(guard):
    """Each engine guard refuses its bad input with its documented error."""
    net = net_vgg13(base=2, hidden=4)
    params = init_params(net, 32, 0)
    plan = whole_image_plan(net, 32)
    calls = {
        "image-of-another-size": lambda: streaming_forward(
            net, params, synth_dataset(0, 64, 2)[0].image, plan),
        "plan-of-another-split": lambda: streaming_forward(
            net, params, synth_dataset(0, 32, 2)[0].image,
            whole_image_plan(build_network(parse_config(CONFIG)), 32)),
        "negative-learning-rate": lambda: sgd_step(params, ParamGrads.zeros_like(params), -0.1),
        "train-step-empty-batch": lambda: train_step(net, params, [], 0.1, plan),
        "accumulate-empty-batch": lambda: accumulate_minibatch([]),
    }
    error, match = GUARDS[guard]
    with pytest.raises(error, match=match):
        calls[guard]()


def test_gradients_match_finite_differences():
    """The whole-image and a 2x2 plan against central differences on the
    CLI tests' ReLU-free net.

    Without ReLU no probe straddles a kink, so every coordinate of every
    tensor is checked at the default eps in double precision.
    """
    net = build_network(parse_config(CONFIG))
    plan = build_tile_plan(net, 32, (2, 2))
    params = init_params(net, 32, seed=0)
    sample = synth_dataset(0, 32, 2)[0]
    grad_sets = [streaming_loss_and_grads(net, params, sample.image, sample.label, p).grads
                 for p in (whole_image_plan(net, 32), plan)]
    errors = finite_difference_check(net, params, sample.image, sample.label, grad_sets,
                                     coords_per_tensor=1000)
    assert len(errors) == 2 and max(errors) <= 1e-5


def test_finite_differences_score_each_gradient_set():
    """One set of probes scores each gradient set on its own: the true
    gradients pass and the same gradients doubled are off by a half."""
    net = build_network(parse_config(CONFIG))
    params = init_params(net, 32, seed=0)
    sample = synth_dataset(0, 32, 2)[0]
    grads = plain_backprop(net, params, sample.image, sample.label).grads
    doubled = ParamGrads(clone_params(grads.per_layer)).add_(grads)
    good, bad = finite_difference_check(net, params, sample.image, sample.label,
                                        [grads, doubled], coords_per_tensor=5)
    assert good <= 1e-5 and abs(bad - 0.5) < 1e-3


@pytest.mark.parametrize("case, precision", [
    pytest.param(case, precision, id=str(case) if precision == "double" else f"{case}-single")
    for precision in ("double", "single") for case in SAMPLED])
def test_memory_model_equals_engine_counters(case, precision):
    """In both precisions: a route's byte does not scale with the itemsize."""
    net, z, _, plan = sampled(case)
    params = init_params(net, z, case, precision)
    image = np.random.default_rng(case).standard_normal((1, 1, z, z))
    image = image.astype(resolve_dtype(precision))
    record = streaming_loss_and_grads(net, params, image, case % 2, plan).record
    est = estimate_streaming(net, plan, 1, precision)
    assert (est.peak_tiles_bytes, est.peak_head_grads_bytes) == (
        record.peak_bytes_tiles, record.peak_bytes_head_grads)


def measured_layer_peaks(net, params, image, plan):
    """(layer, bytes) of each streaming layer's largest output over every
    tile, then of each head layer's output on the split map: the element
    counts run_stack's byte sink takes from the arrays it makes, times
    their itemsize if the output is retained, plus a route's byte per
    element for a pool."""
    peaks = [0] * len(net.layers)

    def take(start, sink):
        for m, size in enumerate(sink, start):
            layer = net.layers[m]
            kept = (size * image.itemsize if retains_output(layer) else 0) + (
                size if isinstance(layer, MaxPool) else 0)
            peaks[m] = max(peaks[m], kept)

    for s in plan.segments:
        below = run_stack(image, net, params, 0, s.start, want_cache=False)[0]
        for tile in s.tiles:
            r, sink = tile.input_forward, []
            run_stack(below[:, :, r.y0:r.y1, r.x0:r.x1], net, params, s.start, s.stop,
                      pads_seq=tile.fwd_pads, want_cache=False, byte_sink=sink)
            assert len(sink) == s.stop - s.start
            take(s.start, sink)
    split, sink = run_stack(image, net, params, 0, net.split_index, want_cache=False)[0], []
    head_forward(split, net, params, byte_sink=sink)
    assert len(sink) == len(net.layers) - net.split_index
    take(net.split_index, sink)
    return list(enumerate(peaks))


@pytest.mark.parametrize("case", SAMPLED)
def test_streaming_layer_table_matches_measured_arrays(case):
    """The per-layer table plan prints, modelled per axis, against the
    outputs every tile really makes."""
    net, z, _, plan = sampled(case)
    params = init_params(net, z, case)
    image = np.random.default_rng(case).standard_normal((1, 1, z, z))
    est = estimate_streaming(net, plan, 1, "double")
    assert est.per_layer_bytes == measured_layer_peaks(net, params, image, plan)


@pytest.mark.parametrize("checkpoints", LAYOUTS, ids=lambda c: "-".join(map(str, c)) or "none")
@pytest.mark.parametrize("precision", ["double", "single"])
def test_streaming_layer_table_of_every_layout(precision, checkpoints):
    net = net_vgg13(base=2, hidden=4)
    plan = _Section(net, 128, (4, 4)).plan(checkpoints)
    params = init_params(net, 128, 3, precision)
    image = synth_dataset(3, 128, 2)[1].image.astype(params[0].w.dtype)
    est = estimate_streaming(net, plan, 1, precision)
    assert est.per_layer_bytes == measured_layer_peaks(net, params, image, plan)


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("case", [*SAMPLED, "vgg13"])
def test_whole_image_layer_table_matches_measured_arrays(case, batch):
    """estimate_whole_image's rows against a whole-image forward of the
    batch: each output's element count times its itemsize if it is
    retained, and no route (the naive-retention reference)."""
    net, z = (net_vgg13(base=2, hidden=4), 64) if case == "vgg13" else sampled(case)[:2]
    params = init_params(net, z, 0)
    image = np.random.default_rng(0).standard_normal((batch, net.in_channels, z, z))
    sink = []
    run_stack(image, net, params, 0, len(net.layers), want_cache=False, byte_sink=sink)
    est = estimate_whole_image(net, z, batch, "double")
    assert est.per_layer_bytes == [
        (m, size * image.itemsize * retains_output(layer))
        for m, (layer, size) in enumerate(zip(net.layers, sink, strict=True))]


def test_segment_peak_formulas():
    """The shared phase peaks, by hand: cut maps of 100 and 10 bytes above
    the image, largest tiles of 5 and 45, params of 3, a gradient set of 3
    of which the tiles run beside 1, head 2."""
    cuts, tiles = [0, 100, 10], [5, 45]
    # tile phase: every cut map and the head, plus the gradients of
    # the cut maps bounding the segment (none for the image) and its tile;
    # head-gradient phase: every cut map, the head and the whole set
    assert stream_backward_peaks(3, 1, 3, 2, cuts, tiles) == (
        3 + 1 + 110 + 2 + max(0 + 100 + 5, 100 + 10 + 45), 3 + 3 + 110 + 2)
    # one segment: params + tile grads + 2 split + head + tile and params +
    # grads + split + head
    assert stream_backward_peaks(3, 1, 3, 2, [0, 10], [50]) == (
        3 + 1 + 2 * 10 + 2 + 50, 3 + 3 + 10 + 2)


def forward_phase_peak(params, head, cut_bytes, tile_bytes):
    """The reference for the forward's peak, which tilestream.memory leaves
    unmodelled: a segment holds the cut maps up to its output and its
    tile; the head holds them all and the top segment's kept tile."""
    held = peak = 0
    for out, tile in zip(cut_bytes[1:], tile_bytes, strict=True):
        held += out
        peak = max(peak, held + tile)
    return params + max(peak, held + head + tile_bytes[-1])


@settings(max_examples=200, deadline=None)
@given(segments=st.integers(1, 4), data=st.data())
def test_forward_formula_never_exceeds_backward_formula(segments, data):
    """The forward's peak <= the backward's tile phase for any non-negative
    terms over 1-4 segments (it holds a subset of the tile phase's terms,
    tilestream.memory's module doc), so the model needs no forward
    formula."""
    term = st.integers(0, 10**12)
    params, tile_grads, grads, head = (data.draw(term) for _ in range(4))
    cuts = [0] + data.draw(st.lists(term, min_size=segments, max_size=segments))
    tiles = data.draw(st.lists(term, min_size=segments, max_size=segments))
    assert (forward_phase_peak(params, head, cuts, tiles)
            <= stream_backward_peaks(params, tile_grads, grads, head, cuts, tiles)[0])


@pytest.mark.parametrize("case", SAMPLED)
def test_forward_peak_never_exceeds_backward_peak(case):
    """The kept tile in the forward's head term moves no modelled peak: for
    every checkpoint layout the chooser weighs, in both precisions, the
    forward's peak is within the batch-1 tile phase."""
    net, z, grid, _ = sampled(case)
    shapes = net.activation_shapes(z)
    for precision, item in (("single", 4), ("double", 8)):
        for candidate in _Section(net, z, grid, precision).choose()[1]:
            est = estimate_streaming(net, candidate, 1, precision)
            cuts = [0] + [math.prod(shapes[c]) * item for c in candidate.cuts[1:]]
            tiles = [live_peak(net, s.start, s.stop, s.elements, item)
                     for s in candidate.segments]
            forward = forward_phase_peak(est.params_bytes, est.head_bytes, cuts, tiles)
            assert forward <= est.peak_tiles_bytes


def running_sum_peak(net, start, stop, elements, itemsize):
    """The reference for live_peak: a running sum over one pass's output
    element counts, adding each layer's array (if retained) and route as
    it is made and taking away the map a pool frees."""
    layers, live, peak, made = net.layers, 0, 0, {}
    for i, size in zip(range(start, stop), elements, strict=True):
        pool = isinstance(layers[i], MaxPool)
        made[i + 1] = size * itemsize if retains_output(layers[i]) else 0
        live += made[i + 1] + (size if pool else 0)
        peak = max(peak, live)
        if pool:
            live -= made.get(pool_frees(layers, start, i), 0)
    return peak


def preset_passes():
    """(net, start, stop) of every segment a plan of a preset can cut, and
    of its head."""
    passes = []
    for net in (net_vgg13(), net_tiny2(), net_giga64mp()):
        split = net.split_index
        cuts = [0] + [m + 1 for m, layer in enumerate(net.stream_layers)
                      if isinstance(layer, MaxPool) and m + 1 < split] + [split]
        passes += [(net, a, b) for a, b in itertools.combinations(cuts, 2)]
        passes.append((net, split, len(net.layers)))
    return passes


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(preset_passes()), lead=st.lists(st.integers(1, 3), max_size=2),
       itemsize=st.sampled_from((4, 8)), data=st.data())
def test_live_peak_is_the_running_sum_maxed_over_leading_axes(case, lead, itemsize, data):
    """On every preset segment and head, with random element counts over 0-2
    leading axes, the walk equals the maximum of its calls per leading
    index, and each call equals the running-sum reference."""
    net, start, stop = case
    elements = data.draw(arrays(np.int64, tuple(lead) + (stop - start,),
                                elements=st.integers(0, 10**9)))
    rows = elements.reshape(-1, stop - start)
    got = live_peak(net, start, stop, elements, itemsize)
    assert got == max(live_peak(net, start, stop, row, itemsize) for row in rows)
    assert got == max(running_sum_peak(net, start, stop, row.tolist(), itemsize) for row in rows)


@pytest.mark.parametrize("grid, checkpoints", [((1, 1), ()), ((4, 4), ()), ((4, 4), (10, 24))],
                         ids=["1x1", "4x4", "4x4-10-24"])
def test_a_pass_walks_once_per_segment_and_once_for_the_head(monkeypatch, grid, checkpoints):
    """A walk costs tens of microseconds a call, so a pass counts each
    segment's tiles in one call, the head in one more, and backward's
    recompute in none."""
    net = net_vgg13(base=2, hidden=4)
    plan = _Section(net, 128, grid).plan(checkpoints)
    walks, walk = [], tilestream.engine.live_peak

    def counting(net, start, stop, elements, itemsize):
        walks.append((start, stop))
        return walk(net, start, stop, elements, itemsize)

    monkeypatch.setattr(tilestream.engine, "live_peak", counting)
    sample = synth_dataset(0, 128, 2)[0]
    streaming_loss_and_grads(net, init_params(net, 128, 0), sample.image, sample.label, plan)
    assert walks == [(s.start, s.stop) for s in plan.segments] + [
        (net.split_index, len(net.layers))]


@pytest.mark.parametrize("case", SAMPLED)
def test_plan_json_round_trips(case):
    """plan.json is written for readers and never loaded: its text alone
    rebuilds the plan's geometry, its segments and every tile's chain,
    each chain by back-projecting the tile's owned rectangle through its
    segment's layers down to its input crop and pads."""
    net, z, _, plan = sampled(case)
    doc = json.loads(plan.to_json(net))
    assert doc["version"] == 5
    assert (doc["image_size"], doc["split_index"], tuple(doc["grid"])) == (
        z, net.split_index, plan.grid)
    assert [tuple(g) for g in doc["geoms"]] == net.stream_geoms()
    assert [tuple(sz) for sz in doc["map_sizes"]] == [
        (h, w) for _, h, w in net.activation_shapes(z)[:net.split_index + 1]]
    assert tuple(doc["checkpoints"]) == plan.checkpoints
    assert tuple(map(tuple, doc["grids"])) == plan.grids
    cuts = [0] + doc["checkpoints"] + [doc["split_index"]]
    assert len(doc["grids"]) == len(cuts) - 1
    assert [(td["segment"], td["row"], td["col"]) for td in doc["tiles"]] == [
        ([a, b], i, j) for a, b, (rows, cols) in zip(cuts, cuts[1:], doc["grids"])
        for i in range(rows) for j in range(cols)]
    for td, (s, tile) in zip(doc["tiles"], [(s, t) for s in plan.segments for t in s.tiles]):
        a, b = td["segment"]
        assert (a, b) == (s.start, s.stop)
        region = Region(*td["owned_split_region"])
        pads = []
        for m in range(b - 1, a - 1, -1):
            size = doc["map_sizes"][m][0]
            ys = backproject_span(region.y0, region.y1, *doc["geoms"][m], size)
            xs = backproject_span(region.x0, region.x1, *doc["geoms"][m], size)
            region = Region(ys[0], xs[0], ys[1], xs[1])
            pads.insert(0, list(ys[2:] + xs[2:]))
        assert region == Region(*td["input_region_forward"])
        assert pads == td["pads"]


def test_plan_json_names_the_chain_ends():
    """Each tile's owned rectangle and input crop are written under their
    schema-2 names."""
    net = net_vgg13(base=2, hidden=4)
    plan = build_tile_plan(net, 96, (2, 3))
    for tile, doc in zip(plan.tiles, plan.to_json_dict(net)["tiles"]):
        assert doc["owned_split_region"] == tile.owned_split.as_list()
        assert doc["input_region_forward"] == tile.input_forward.as_list() == \
            tile.input_backward.as_list()


@pytest.mark.parametrize("damage, tag, what", [
    pytest.param("bad-pads", "padding", "pads away from the border", id="bad-pads"),
    pytest.param("pads-exceed", "padding", "pads exceed the layer pad", id="pads-exceed"),
    pytest.param("crop-shifted", "stride_alignment", "off the sampling lattice",
                 id="crop-shifted"),
    pytest.param("crop-shifted-a-stride", "chain", "not on the owned region",
                 id="crop-shifted-a-stride"),
    pytest.param("pads-truncated", "chain", "3 pads, want 10", id="pads-truncated")])
def test_broken_forward_chain_fails_validation(damage, tag, what):
    """A damaged chain is reported as a failure; validation never raises."""
    net = net_vgg13(base=2, hidden=4)
    plan = build_tile_plan(net, 128 if damage.startswith("crop") else 64,
                           (4, 4) if damage.startswith("crop") else (2, 2))
    pads = plan.segments[0].rows[0].pads
    if damage == "bad-pads":
        damage_part(plan, 0, "rows", 0, pads=((0, 0),) + pads[1:])
    elif damage == "pads-exceed":
        damage_part(plan, 0, "rows", 0, pads=((2, 0),) + pads[1:])
    elif damage.startswith("crop"):
        # row 1: an interior row of segment [0, 10), whose layers pool by
        # 4; a 4-row shift stays on the lattice and lands one row off
        part = plan.segments[0].rows[1]
        assert plan.segments[0].stop == 10 and all(p == (0, 0) for p in part.pads)
        lo, hi = part.crop
        dy = 1 if damage == "crop-shifted" else 4
        damage_part(plan, 0, "rows", 1, crop=(lo + dy, hi + dy))
    else:
        damage_part(plan, 0, "rows", 0, pads=pads[:3])
    report = validate_tile_plan(plan, net)
    assert not report.ok
    assert report.first_failure.startswith(tag) and what in report.first_failure, \
        report.failures


def test_recompute_ratio_and_backward_input_region():
    plan = build_tile_plan(net_vgg13(), 512, (4, 4))
    assert round(plan.recompute_ratio, 2) == 1.29
    assert all(t.input_backward == t.input_forward for t in plan.tiles)
    assert build_tile_plan(net_vgg13(), 512, (1, 1)).recompute_ratio == 1.0


def test_stack_backward_gives_layer0_param_grads_only(rng):
    """One loop runs the whole network top-down: it defers each dense
    layer's (index, input, grad_out), empties the caches, and layer 0
    yields only its parameter gradients, so None is returned."""
    net = net_vgg13(base=2, hidden=4)
    params = init_params(net, 32, 0)
    x = rng.standard_normal((1, 1, 32, 32))
    out, caches = run_stack(x, net, params, 0, len(net.layers))
    grads, deferred = ParamGrads.zeros_like(params, net.split_index), []
    assert stack_backward(np.ones_like(out), net, params, caches, 0, len(net.layers), grads,
                          deferred) is None
    assert caches == [] and np.any(grads.per_layer[0].w)
    assert [i for i, _, _ in deferred] == [i for i in reversed(range(len(net.layers)))
                                           if isinstance(net.layers[i], Dense)]
    assert grads.per_layer[net.split_index:] == [None] * (len(net.layers) - net.split_index)
    out0, caches = run_stack(x, net, params, 0, 1)  # fresh caches: the call above emptied them
    with pytest.raises(ShapeError, match="batch mismatch"):
        stack_backward(np.ones((2,) + out0.shape[1:]), net, params, caches, 0, 1, grads)
