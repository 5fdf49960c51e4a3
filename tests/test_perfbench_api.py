"""The package API the benchmark in perfbench/ calls and traces.

Tier-1 does not run the benchmark, so these checks keep a deletion in the
package from breaking it unnoticed.
"""

import importlib
import importlib.util
import inspect
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tilestream
import tilestream.network
from tilestream.layers import Conv, Params
from tilestream.planner import Region, TileEntry

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
RUN_PATH = SPANS_PATH.with_name("run.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_callable(spans):
    missing = [f"{short}.{name}" for short, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"tilestream.{short}"), name, None))]
    assert not missing


def test_conv_cost_hooks_bind_to_the_kernels(spans, rng):
    """Each cost function reads the kernel's arguments by name, as the tracer binds them."""
    spec = Conv(3, 3, 1, 1, c_in=2)
    x = rng.standard_normal((1, 2, 6, 6))
    pool = {"x": x, "spec": spec, "pads": None, "in_hw": (6, 6),
            "params": Params(rng.standard_normal((3, 2, 3, 3)), np.zeros(3)),
            "grad_out": rng.standard_normal((1, 3, 6, 6))}
    for name, cost in spans.CONV_COSTS.items():
        module, fname = name.split(".")
        kernel = getattr(importlib.import_module(f"tilestream.{module}"), fname)
        signature = inspect.signature(kernel)
        bound = signature.bind(**{p: pool[p] for p in signature.parameters})
        flop, nbytes = cost(bound.arguments, kernel(*bound.args, **bound.kwargs))
        assert flop > 0 and nbytes > 0, name


def test_names_the_benchmark_reads_exist():
    assert callable(tilestream.network.conv2d_forward)
    assert isinstance(TileEntry.input_backward, property)


def test_the_traced_run_reads_a_segmented_plan():
    """perfbench/run.py plans vgg13@512 4x4, which the planner now cuts into
    segments; everything its traced run reads of the plan still works."""
    net = tilestream.network.PRESETS["vgg13"]()
    plan = tilestream.build_tile_plan(net, 512, (4, 4))
    assert plan.checkpoints and tilestream.validate_tile_plan(plan, net).ok
    for tile in plan.tiles:
        assert isinstance(tile.input_forward, Region) and tile.input_backward == tile.input_forward
    assert tilestream.estimate_streaming(net, plan, 1, "single").peak_bytes > 0
    assert list(inspect.signature(tilestream.streaming_forward).parameters) == [
        "net", "params", "image", "plan"]
    assert list(inspect.signature(tilestream.streaming_backward).parameters) == [
        "net", "params", "image", "plan", "state", "dloss_dlogit"]


def test_accumulate_minibatch_sums_into_the_first_set(rng):
    """perfbench averages each step's one gradient set with it: at batch 1
    the set comes back as it is, with no array allocated (a set is 69 KiB
    here; under 1 KiB is a Python object or two); at batch 2 the first set
    holds the mean."""
    net = tilestream.network.net_tiny2()
    params = tilestream.init_params(net, 64, 0, "single")
    sets = [tilestream.network.ParamGrads(tilestream.network.clone_params(params))
            for _ in range(2)]
    for grads in sets:
        for _, a in grads.named_tensors():
            a[...] = rng.standard_normal(a.shape)
    first = [a.copy() for _, a in sets[0].named_tensors()]
    batch_of_one = sets[:1]
    tracemalloc.start()
    try:
        same = tilestream.accumulate_minibatch(batch_of_one)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same is sets[0] and allocated < 1024
    assert all(np.array_equal(a, b) for a, (_, b) in zip(first, same.named_tensors()))
    mean = tilestream.accumulate_minibatch(sets)
    assert mean is sets[0]
    for a, (_, b), (_, m) in zip(first, sets[1].named_tensors(), mean.named_tensors()):
        assert np.array_equal(m, (a + b) / np.float32(2))


def test_a_traced_step_runs_both_backward_kernels(spans):
    """perfbench's Tracer around one small tiny2 step: every traced name
    exists, each conv's backward runs as conv2d_backward (one band pass for
    both gradients) but map 0's, which runs conv2d_param_grad, and both
    kernels' cost hooks bind to their arguments."""
    net = tilestream.network.net_tiny2()
    plan = tilestream.build_tile_plan(net, 64, (2, 2))
    params = tilestream.init_params(net, 64, 0, "single")
    sample = tilestream.data.synth_dataset(0, 64, 2)[0]
    image = sample.image.astype(np.float32)

    def step():
        state = tilestream.streaming_forward(net, params, image, plan)
        _, dlogit = tilestream.layers.bce_with_logits(state.logit[0], sample.label)
        grads = tilestream.streaming_backward(net, params, image, plan, state,
                                              np.asarray([dlogit]))
        tilestream.sgd_step(params, tilestream.accumulate_minibatch([grads]), 0.05)

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run("step", step)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    metrics = spans.span_metrics(tracer.spans)
    for name in ("layers.conv2d_backward", "layers.conv2d_param_grad"):
        assert metrics[f"{name}.calls"][0] > 0, name
        assert metrics[f"{name}.gflop"][0] > 0 and metrics[f"{name}.mb_moved"][0] > 0, name
    assert metrics["layers.conv2d_input_grad.calls"][0] == 0


@pytest.mark.parametrize("grid", [(2, 2), None], ids=["tiny2-64-2x2", "tiny2-64-whole"])
def test_the_benchmark_check_passes_on_small_workloads(spans, monkeypatch, grid):
    """perfbench/run.py's own run, as it is, on tiny2@64 for about 0.2 s:
    no operation fails, and its check against the other executor finds the
    split map and loss bit-identical and every gradient within GRAD_TOL of
    its sup-norm."""
    monkeypatch.setitem(sys.modules, "spans", spans)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    record = run.run(run.Workload("tiny2", grid, 64), 3, 0.2, 0, ts=tilestream)
    check = record["check"]
    assert record["failed"] == 0, record["errors"]
    assert check["split_map_identical"] and check["loss_identical"]
    assert check["grad_err"] and max(check["grad_err"].values()) <= run.GRAD_TOL
