"""The finiteness rule (tilestream.engine, "Finiteness"): a pass raises
NonFiniteError when its image, logit, loss or any parameter gradient it
returns is non-finite, and it scans each value once."""

import dataclasses
import itertools
import sys

import numpy as np
import pytest

import tilestream.engine
import tilestream.equivalence
import tilestream.layers
import tilestream.network
from tilestream.data import synth_dataset
from tilestream.engine import streaming_forward, streaming_loss_and_grads, train_step
from tilestream.equivalence import finite_difference_check
from tilestream.errors import NonFiniteError
from tilestream.network import init_params, net_tiny2, net_vgg13
from tilestream.planner import build_tile_plan, whole_image_plan
from tilestream.tensors import check_finite

IMAGE_ENTRIES = {
    "streaming_forward": lambda net, params, sample, plan: streaming_forward(
        net, params, sample.image, plan),
    "streaming_loss_and_grads": lambda net, params, sample, plan: streaming_loss_and_grads(
        net, params, sample.image, sample.label, plan),
    "train_step": lambda net, params, sample, plan: train_step(net, params, [sample], 0.1, plan),
}


def _vgg13_case():
    net = net_vgg13(base=2, hidden=4)
    plan = build_tile_plan(net, 64, (2, 2))
    return net, init_params(net, 64, 0), synth_dataset(0, 64, 2)[0], plan


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", sorted(IMAGE_ENTRIES))
def test_a_non_finite_image_is_refused_as_the_image(entry, bad):
    """One NaN or Inf pixel raises NonFiniteError naming the image, before
    any kernel runs on it."""
    net, params, sample, plan = _vgg13_case()
    image = sample.image.copy()
    image[0, 0, 5, 7] = bad
    with pytest.raises(NonFiniteError, match="^image: "):
        IMAGE_ENTRIES[entry](net, params, dataclasses.replace(sample, image=image), plan)


def test_a_non_finite_dense_weight_gradient_raises(monkeypatch):
    """A dense weight gradient that goes non-finite after the pass's last
    tile is caught by the check of the gradient set the pass returns."""
    net, params, sample, plan = _vgg13_case()
    dense_backward = tilestream.network.dense_backward

    def overflowing(x, grad_out, acc):
        dense_backward(x, grad_out, acc)
        acc.w[0, 0] = np.inf

    monkeypatch.setattr(tilestream.network, "dense_backward", overflowing)
    with pytest.raises(NonFiniteError, match="^gradient dense"):
        streaming_loss_and_grads(net, params, sample.image, sample.label, plan)


def test_a_finite_difference_that_overflows_raises_non_finite(monkeypatch):
    """Losses of +-1e308 make a probe's central difference overflow: the
    check raises NonFiniteError (cli's exit 4), not a scored error."""
    net, params, sample, _ = _vgg13_case()
    grads = streaming_loss_and_grads(net, params, sample.image, sample.label,
                                     whole_image_plan(net, 64)).grads
    losses = itertools.cycle([1e308, -1e308])
    monkeypatch.setattr(tilestream.equivalence, "whole_image_loss",
                        lambda *args: next(losses))
    with pytest.raises(NonFiniteError, match="finite difference inf"):
        finite_difference_check(net, params, sample.image, sample.label, [grads],
                                coords_per_tensor=1)


SELECTING = {"relu_forward", "relu_backward", "maxpool2d_forward", "maxpool2d_backward"}
SCANNING = {"conv2d_forward", "_grad_in", "dense_forward", "dense_input_grad",
            "bce_with_logits", "streaming_forward", "_backward"}


def test_a_step_scans_each_value_once(monkeypatch):
    """A single-precision tiny2@64 2x2 step of two images: no relu or pool
    kernel scans, only the kernels that compute and the engine's two
    boundaries do; each image is scanned once, by its pass, and each
    tensor of the step's gradient set once per pass."""
    net = net_tiny2()
    plan = build_tile_plan(net, 64, (2, 2))
    assert plan.grids == ((2, 2),)
    params = init_params(net, 64, 0, "single")
    samples = [dataclasses.replace(s, image=s.image.astype(np.float32))
               for s in synth_dataset(0, 64, 2)]
    scans = []

    def recording(x, name="tensor"):
        scans.append((sys._getframe(1).f_code.co_name, x))
        return check_finite(x, name)

    monkeypatch.setattr(tilestream.layers, "check_finite", recording)
    monkeypatch.setattr(tilestream.engine, "check_finite", recording)
    grads = train_step(net, params, samples, 0.05, plan).grads
    callers = {caller for caller, _ in scans}
    assert not callers & SELECTING
    assert callers == SCANNING
    for s in samples:
        assert [caller for caller, x in scans if x is s.image] == ["streaming_forward"]
    for name, t in grads.named_tensors():
        assert [caller for caller, x in scans if x is t] == ["_backward"] * len(samples), name
