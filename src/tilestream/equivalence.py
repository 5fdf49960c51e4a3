"""Streaming-vs-whole-image comparison: quantity diffs, lockstep training,
finite differences.

Whole-image is the engine's 1x1 plan (planner.whole_image_plan). Because
each forward value depends only on its receptive field (see
tilestream.layers), its split map and loss are bit-identical to the
streaming reconstruction; parameter gradients differ in floating-point
summation order (tiles accumulate blockwise, and the gradient kernels'
products follow the map size) and are compared under per-precision
tolerances. lockstep_train runs both plans through engine.train_step.
The 1x1 plan runs no halo crop, interior pad or checkpoint gradient, so
the comparison still checks the tiled paths. Independent of the engine
are central finite differences (forward-only run_stack), the brute-force
kernel oracles and the tests' plain-backprop oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import minibatch
from .engine import streaming_loss_and_grads, train_step
from .errors import NondeterminismError, NonFiniteError, ShapeError
from .layers import bce_with_logits
from .network import NetworkSpec, ParamGrads, clone_params, run_stack
from .planner import whole_image_plan

REL_EPS = 1e-30

DOUBLE_TOLERANCES = {"loss": 1e-10, "logit": 1e-10, "split_map": 0.0, "grad": 1e-9}
SINGLE_TOLERANCES = {"loss": 1e-4, "logit": 1e-4, "split_map": 0.0, "grad": 1e-4}

# Finite differences: central-difference step and the gate on their max relative error.
FD_EPS = 1e-5
FD_TOL = 1e-5

# Leading lockstep steps rerun to check that both arms reproduce bit for bit.
DETERMINISM_CHECK_STEPS = 2


def default_tolerances(precision):
    return dict(DOUBLE_TOLERANCES if str(precision) in ("double", "float64")
                else SINGLE_TOLERANCES)


def baseline_forward_backward(net, params, image, label):
    """One whole-image pass, whole_image_plan's, as the benchmark in perfbench/ runs it."""
    return streaming_loss_and_grads(net, params, image, label, whole_image_plan(net, image.shape[-1]))


def whole_image_loss(net, params, image, label):
    """Forward-only loss, used by the finite-difference oracle."""
    logit, _ = run_stack(image, net, params, 0, len(net.layers), want_cache=False)
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


def compare_runs(quantities_a, quantities_b, tolerances):
    """Elementwise comparison of two runs' quantities.

    Relative difference per element is |a-b| / max(|a|, |b|, 1e-30); a
    quantity passes when its max relative difference is within the
    tolerance of its group (the name before any ":", so "grad:conv0.w"
    reads tolerances["grad"]).
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
        tol = tolerances[name.split(":")[0]]
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


@dataclass
class LockstepResult:
    metrics: list
    worst_grad_rel: float
    worst_loss_diff: float
    mean_loss_diff: float

    def csv_rows(self):
        yield ("step", "loss_sgd", "loss_ssgd", "abs_diff", "max_grad_rel_diff")
        for m in self.metrics:
            yield (m.step, repr(m.loss_sgd), repr(m.loss_ssgd),
                   repr(m.abs_diff), repr(m.max_grad_rel_diff))


def lockstep_train(net: NetworkSpec, params0, dataset, steps, lr, batch_size, plan):
    """Train whole-image and streaming arms from identical state, in lockstep.

    Both arms (whole_image_plan and plan) start from copies of params0 and
    see the same batches; each step's batch-mean losses and applied
    gradients are compared. The first DETERMINISM_CHECK_STEPS steps are
    rerun and must reproduce their losses bit for bit, or
    NondeterminismError is raised.
    """
    whole = whole_image_plan(net, plan.image_size)

    def run(n_steps):
        pa, pb = clone_params(params0), clone_params(params0)
        metrics = []
        for step in range(n_steps):
            batch = minibatch(dataset, step, batch_size)
            a = train_step(net, pa, batch, lr, whole)
            b = train_step(net, pb, batch, lr, plan)
            # only the differences are read here; verify gates them
            diff = compare_runs(grad_quantities(a.grads), grad_quantities(b.grads),
                                {"grad": math.inf})
            metrics.append(StepMetrics(
                step=step, loss_sgd=a.loss, loss_ssgd=b.loss, abs_diff=abs(a.loss - b.loss),
                max_grad_rel_diff=max((e.max_rel for e in diff.entries.values()), default=0.0)))
        return metrics

    metrics = run(steps)
    k = min(DETERMINISM_CHECK_STEPS, steps)
    losses = [(m.loss_sgd, m.loss_ssgd) for m in metrics[:k]]
    if [(m.loss_sgd, m.loss_ssgd) for m in run(k)] != losses:
        raise NondeterminismError("paired rerun produced different losses")
    diffs = [m.abs_diff for m in metrics]
    return LockstepResult(
        metrics=metrics,
        worst_grad_rel=max((m.max_grad_rel_diff for m in metrics), default=0.0),
        worst_loss_diff=max(diffs, default=0.0),
        mean_loss_diff=float(np.mean(diffs)) if diffs else 0.0)


# ---------------------------------------------------------------------------
# finite differences


def finite_difference_check(net, params, image, label, grad_sets, seed=0, coords_per_tensor=200):
    """Max relative error of each set of analytic grads against central finite differences.

    Samples min(coords_per_tensor, size) coordinates of every parameter
    tensor and probes each once; every set in grad_sets is scored against
    the same probes, and one error is returned per set. A set's relative
    error denominator is floored at 1e-6 of its largest gradient magnitude
    so near-cancelled coordinates (where the quadratic FD truncation
    dominates) do not blow up the ratio; real disagreements above that
    floor are still caught. Double precision only. A probe whose central
    difference is not finite raises NonFiniteError before it is scored.
    """
    for p in params:
        if p is not None and p.w.dtype != np.float64:
            raise ShapeError("finite differences require double precision parameters")
    if image.dtype != np.float64:
        raise ShapeError("finite differences require a double precision image")
    floors = []
    for grads in grad_sets:
        gscale = max((float(np.abs(t).max()) for _, t in grads.named_tensors()), default=0.0)
        floors.append(max(1e-6 * gscale, REL_EPS))
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = [0.0] * len(grad_sets)
    for i, p in enumerate(params):
        if p is None:
            continue
        for name in ("w", "b"):
            flat = getattr(p, name).reshape(-1)
            gflats = [getattr(grads.per_layer[i], name).reshape(-1) for grads in grad_sets]
            m = min(coords_per_tensor, flat.size)
            coords = rng.choice(flat.size, size=m, replace=False) if m < flat.size \
                else np.arange(flat.size)
            for idx in coords:
                orig = flat[idx]
                flat[idx] = orig + FD_EPS
                lp = whole_image_loss(net, params, image, label)
                flat[idx] = orig - FD_EPS
                lm = whole_image_loss(net, params, image, label)
                flat[idx] = orig
                fd = (lp - lm) / (2.0 * FD_EPS)
                if not math.isfinite(fd):
                    raise NonFiniteError(f"layer {i} {name}[{idx}]: finite difference {fd}")
                for k, (gflat, floor) in enumerate(zip(gflats, floors)):
                    ga = float(gflat[idx])
                    worst[k] = max(worst[k], abs(fd - ga) / max(abs(fd), abs(ga), floor))
    return worst
