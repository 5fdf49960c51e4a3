"""Whole-image baseline and streaming-vs-baseline comparison machinery.

The baseline arm runs the identical kernels on the whole image in one
pass. Because the kernels pin their accumulation order per output
element, the baseline split map and loss are bit-identical to the
streaming reconstruction; parameter gradients differ only by
floating-point summation order (tiles accumulate blockwise) and are
compared under per-precision tolerances. Central finite differences give
both executors an independent ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import StreamingRunRecord, accumulate_minibatch, sgd_step, streaming_backward, streaming_forward
from .errors import NondeterminismError, ShapeError
from .layers import bce_with_logits
from .network import (
    NetworkSpec,
    ParamGrads,
    clone_params,
    head_backward,
    head_forward,
    param_bytes,
    run_stack,
    stack_backward,
)
from .tensors import check_tensor4

REL_EPS = 1e-30

DOUBLE_TOLERANCES = {"loss": 1e-10, "logit": 1e-10, "split_map": 0.0, "grad": 1e-9}
SINGLE_TOLERANCES = {"loss": 1e-4, "logit": 1e-4, "split_map": 0.0, "grad": 1e-4}


def default_tolerances(precision):
    return dict(DOUBLE_TOLERANCES if str(precision) in ("double", "float64")
                else SINGLE_TOLERANCES)


@dataclass
class BaselineResult:
    loss: float
    logit: float
    split_map: np.ndarray
    grads: ParamGrads
    record: StreamingRunRecord

    def quantities(self):
        out = {"loss": self.loss, "logit": self.logit, "split_map": self.split_map}
        for name, t in self.grads.named_tensors():
            out[f"grad:{name}"] = t
        return out


def baseline_forward_backward(net: NetworkSpec, params, image, label):
    """Single whole-image pass with standard backprop; same kernels as streaming."""
    check_tensor4(image, "image")
    if image.shape[0] != 1:
        raise ShapeError("baseline executor runs one image at a time")
    sink = []
    split, s_caches = run_stack(image, net, params, 0, net.split_index,
                                protect_input=True, byte_sink=sink)
    head_sink = []
    logit, h_caches = head_forward(split, net, params, byte_sink=head_sink)
    loss, dlogit = bce_with_logits(logit[0], label)
    grad_split, head_grads = head_backward(np.asarray([dlogit]), net, params,
                                           h_caches, split.shape)
    _, stream_grads = stack_backward(grad_split, net, params, s_caches, 0, net.split_index)
    grads = ParamGrads.zeros_like(params).add_by_layer_(head_grads).add_by_layer_(stream_grads)
    grads.images_accumulated = 1

    record = StreamingRunRecord(loss=float(loss), logit=float(logit[0]),
                                params_bytes=param_bytes(params),
                                reconstructed_map_bytes=split.nbytes)
    act = image.nbytes + sum(b for _, b in sink) + sum(b for _, b in head_sink)
    record.grads_bytes = param_bytes(grads.per_layer)
    record.peak_bytes_forward = record.params_bytes + act
    record.peak_bytes_backward = record.params_bytes + record.grads_bytes + act
    return BaselineResult(float(loss), float(logit[0]), split, grads, record)


def streaming_loss_and_grads(net, params, image, label, plan):
    """One streaming image pass; returns (loss, logit, split_map, grads, record)."""
    state = streaming_forward(net, params, image, plan)
    loss, dlogit = bce_with_logits(state.logit[0], label)
    grads = streaming_backward(net, params, image, plan, state, np.asarray([dlogit]))
    state.record.loss = float(loss)
    return float(loss), float(state.logit[0]), state.split_map, grads, state.record


def whole_image_loss(net, params, image, label):
    """Forward-only loss, used by the finite-difference oracle."""
    logit, _ = run_stack(image, net, params, 0, len(net.layers),
                         protect_input=True, want_cache=False)
    loss, _ = bce_with_logits(logit[0, 0], label)
    return float(loss)


# ---------------------------------------------------------------------------
# comparison


@dataclass
class QuantityDiff:
    max_abs: float
    mean_abs: float
    max_rel: float
    max_rel_scaled: float  # max |a-b| over the tensor's own sup-norm scale
    tolerance: float
    passed: bool


@dataclass
class EquivalenceReport:
    entries: dict
    verdict: bool

    @property
    def failures(self):
        return [name for name, e in self.entries.items() if not e.passed]

    def to_json_dict(self):
        return {
            "verdict": "pass" if self.verdict else "fail",
            "quantities": {
                name: {"max_abs_diff": e.max_abs, "mean_abs_diff": e.mean_abs,
                       "max_rel_diff": e.max_rel, "max_rel_diff_scaled": e.max_rel_scaled,
                       "tolerance": e.tolerance, "passed": e.passed}
                for name, e in self.entries.items()
            },
        }


def _tolerance_for(name, tolerances):
    if name in tolerances:
        return tolerances[name]
    group = name.split(":")[0]
    if group in tolerances:
        return tolerances[group]
    raise ShapeError(f"no tolerance given for quantity {name!r}")


def compare_runs(quantities_a, quantities_b, tolerances):
    """Elementwise comparison of two runs' quantities.

    Relative difference per element is |a-b| / max(|a|, |b|, 1e-30); a
    quantity passes when its max relative difference is within tolerance.
    Symmetric in the two arguments and zero on identical inputs.
    """
    if set(quantities_a) != set(quantities_b):
        raise ShapeError("runs expose different quantity sets")
    entries = {}
    for name in quantities_a:
        a = np.asarray(quantities_a[name], dtype=np.float64)
        b = np.asarray(quantities_b[name], dtype=np.float64)
        if a.shape != b.shape:
            raise ShapeError(f"shape mismatch for {name}: {a.shape} vs {b.shape}")
        diff = np.abs(a - b)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_EPS)
        tol = _tolerance_for(name, tolerances)
        max_rel = float((diff / denom).max()) if diff.size else 0.0
        scale = max(float(np.abs(a).max()) if a.size else 0.0,
                    float(np.abs(b).max()) if b.size else 0.0, REL_EPS)
        entries[name] = QuantityDiff(
            max_abs=float(diff.max()) if diff.size else 0.0,
            mean_abs=float(diff.mean()) if diff.size else 0.0,
            max_rel=max_rel,
            max_rel_scaled=(float(diff.max()) / scale) if diff.size else 0.0,
            tolerance=tol, passed=bool(max_rel <= tol))
    return EquivalenceReport(entries=entries, verdict=all(e.passed for e in entries.values()))


def grad_quantities(grads: ParamGrads):
    return {f"grad:{name}": t for name, t in grads.named_tensors()}


# ---------------------------------------------------------------------------
# lockstep training


@dataclass
class StepMetrics:
    step: int
    loss_sgd: float
    loss_ssgd: float
    abs_diff: float
    max_grad_rel_diff: float
    peak_bytes_sgd: int
    peak_bytes_ssgd: int


@dataclass
class LockstepResult:
    metrics: list
    params_sgd: list
    params_ssgd: list
    worst_grad_rel: float
    worst_loss_diff: float
    mean_loss_diff: float

    def csv_rows(self):
        yield ("step", "loss_sgd", "loss_ssgd", "abs_diff", "max_grad_rel_diff")
        for m in self.metrics:
            yield (m.step, repr(m.loss_sgd), repr(m.loss_ssgd),
                   repr(m.abs_diff), repr(m.max_grad_rel_diff))


def _batch(dataset, step, batch_size):
    n = len(dataset)
    return [dataset[(step * batch_size + i) % n] for i in range(batch_size)]


def _step_one_arm(net, params, batch, lr, dtype, plan=None):
    """One SGD step on one arm; returns (mean_loss, grads, peak_bytes)."""
    per_image, losses, peak = [], [], 0
    for sample in batch:
        image = sample.image.astype(dtype, copy=True)
        if plan is None:
            res = baseline_forward_backward(net, params, image, sample.label)
            loss, grads, rec = res.loss, res.grads, res.record
        else:
            loss, _, _, grads, rec = streaming_loss_and_grads(net, params, image,
                                                              sample.label, plan)
        per_image.append(grads)
        losses.append(loss)
        peak = max(peak, rec.peak_bytes)
    avg = accumulate_minibatch(per_image)
    sgd_step(params, avg, lr)
    return float(np.mean(losses)), avg, peak


def lockstep_train(net: NetworkSpec, params0, dataset, steps, lr, batch_size, plan,
                   precision="double", determinism_check_steps=2):
    """Train baseline and streaming arms from identical state, in lockstep.

    Both arms see identical initial parameters and data order. Per step the
    batch-averaged losses and gradients are compared before the update.
    A short rerun of both arms re-checks bit-exact reproducibility and
    raises NondeterminismError on any mismatch.
    """
    dtype = np.dtype(np.float64 if str(precision) in ("double", "float64") else np.float32)

    def run(n_steps, metrics_sink=None):
        pa = clone_params(params0)
        pb = clone_params(params0)
        trace = []
        for step in range(n_steps):
            batch = _batch(dataset, step, batch_size)
            loss_a, grads_a, peak_a = _step_one_arm(net, pa, batch, lr, dtype, plan=None)
            loss_b, grads_b, peak_b = _step_one_arm(net, pb, batch, lr, dtype, plan=plan)
            ga = grad_quantities(grads_a)
            gb = grad_quantities(grads_b)
            rel = 0.0
            for name in ga:
                a, b = ga[name].astype(np.float64), gb[name].astype(np.float64)
                denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_EPS)
                if a.size:
                    rel = max(rel, float((np.abs(a - b) / denom).max()))
            m = StepMetrics(step=step, loss_sgd=loss_a, loss_ssgd=loss_b,
                            abs_diff=abs(loss_a - loss_b), max_grad_rel_diff=rel,
                            peak_bytes_sgd=peak_a, peak_bytes_ssgd=peak_b)
            trace.append((loss_a, loss_b))
            if metrics_sink is not None:
                metrics_sink.append(m)
        return pa, pb, trace

    metrics = []
    pa, pb, trace = run(steps, metrics)
    if determinism_check_steps > 0:
        k = min(determinism_check_steps, steps)
        _, _, retrace = run(k)
        if retrace != trace[:k]:
            raise NondeterminismError("paired rerun produced different losses")
    diffs = [m.abs_diff for m in metrics]
    return LockstepResult(
        metrics=metrics, params_sgd=pa, params_ssgd=pb,
        worst_grad_rel=max((m.max_grad_rel_diff for m in metrics), default=0.0),
        worst_loss_diff=max(diffs, default=0.0),
        mean_loss_diff=float(np.mean(diffs)) if diffs else 0.0)


# ---------------------------------------------------------------------------
# finite differences


def finite_difference_check(net, params, image, label, eps=1e-5, seed=0,
                            coords_per_tensor=200, grads=None):
    """Max relative error of analytic grads against central finite differences.

    Samples min(coords_per_tensor, size) coordinates of every parameter
    tensor. The relative error denominator is floored at 1e-6 of the
    largest gradient magnitude so near-cancelled coordinates (where the
    quadratic FD truncation dominates) do not blow up the ratio; real
    disagreements above that floor are still caught. Double precision only.
    """
    for p in params:
        if p is not None and p.w.dtype != np.float64:
            raise ShapeError("finite differences require double precision parameters")
    if image.dtype != np.float64:
        raise ShapeError("finite differences require a double precision image")
    if grads is None:
        grads = baseline_forward_backward(net, params, image, label).grads
    gscale = max((float(np.abs(t).max()) for _, t in grads.named_tensors()), default=0.0)
    floor = max(1e-6 * gscale, REL_EPS)
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for i, (p, g) in enumerate(zip(params, grads.per_layer)):
        if p is None:
            continue
        for arr, garr in ((p.w, g.w), (p.b, g.b)):
            flat = arr.reshape(-1)
            gflat = garr.reshape(-1)
            m = min(coords_per_tensor, flat.size)
            coords = rng.choice(flat.size, size=m, replace=False) if m < flat.size \
                else np.arange(flat.size)
            for idx in coords:
                orig = flat[idx]
                flat[idx] = orig + eps
                lp = whole_image_loss(net, params, image, label)
                flat[idx] = orig - eps
                lm = whole_image_loss(net, params, image, label)
                flat[idx] = orig
                fd = (lp - lm) / (2.0 * eps)
                ga = float(gflat[idx])
                rel = abs(fd - ga) / max(abs(fd), abs(ga), floor)
                worst = max(worst, rel)
                if not math.isfinite(fd):
                    raise ShapeError("non-finite loss in finite-difference probe")
    return worst
