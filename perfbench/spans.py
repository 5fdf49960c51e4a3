"""Spans around the package's public functions, recorded from outside.

A Tracer replaces every binding of each traced function object across the
loaded ``tilestream.*`` modules with a timing wrapper, so callers that did
``from .layers import conv2d_forward`` and a kernel's own internal calls
(``conv2d_backward`` -> ``conv2d_input_grad``) are both seen. Spans stay in
memory; the caller writes them out when the run ends. Nothing is wrapped
unless ``install`` is called, so untraced runs execute the package as is.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

# Public functions timed in the traced run; the span name is "<module>.<function>".
TRACED = {
    "data": ("synth_dataset",),
    "planner": ("build_tile_plan", "validate_tile_plan"),
    "network": ("init_params", "run_stack", "head_forward", "head_backward", "stack_backward"),
    "engine": ("streaming_forward", "streaming_backward", "accumulate_minibatch", "sgd_step"),
    "equivalence": ("baseline_forward_backward",),
    "layers": ("conv2d_forward", "conv2d_input_grad", "conv2d_param_grad", "conv2d_backward",
               "maxpool2d_forward", "maxpool2d_backward", "relu_forward", "relu_backward",
               "dense_forward", "dense_backward", "bce_with_logits"),
}
# Called while setting up a run, so reported per set-up rather than per step.
SETUP_FUNCTIONS = ("data.synth_dataset", "planner.build_tile_plan",
                   "planner.validate_tile_plan", "network.init_params")
CONV_KERNELS = ("layers.conv2d_forward", "layers.conv2d_input_grad",
                "layers.conv2d_param_grad", "layers.conv2d_backward")


def _conv_flop(spec, out_shape):
    """Multiply-adds of a conv as 2 * n * c_out * c_in * k^2 * oh * ow."""
    n, c_out, oh, ow = out_shape
    return 2 * n * c_out * spec.c_in * spec.kernel ** 2 * oh * ow


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays)


# (flop, bytes) of one conv call from its bound arguments and result. Bytes are
# each operand read once and each result written once, computed from array
# sizes; the kernels' real memory traffic (cache misses, temporaries) is higher.
CONV_COSTS = {
    "layers.conv2d_forward": lambda a, r: (
        _conv_flop(a["spec"], r.shape), _nbytes(a["x"], a["params"].w, a["params"].b, r)),
    "layers.conv2d_input_grad": lambda a, r: (
        _conv_flop(a["spec"], a["grad_out"].shape), _nbytes(a["grad_out"], a["params"].w, r)),
    "layers.conv2d_param_grad": lambda a, r: (
        _conv_flop(a["spec"], a["grad_out"].shape), _nbytes(a["x"], a["grad_out"], *r)),
    "layers.conv2d_backward": lambda a, r: (
        2 * _conv_flop(a["spec"], a["grad_out"].shape),
        _nbytes(a["x"], a["params"].w, a["grad_out"], *r)),
}

# Span fields, stored as plain lists to keep per-call cost low.
NAME, START, END, PARENT, STEP, FLOP, NBYTES = range(7)


class Tracer:
    """Records [name, start, end, parent, step, flop, bytes] spans in memory."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.step = -1
        self._stack = []
        self._restore = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.step, 0, 0])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the benchmark's own (a step or a set-up)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        cost = CONV_COSTS.get(name)
        signature = inspect.signature(fn) if cost else None

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if cost:
                span[FLOP], span[NBYTES] = cost(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TRACED function; names the package lacks go to self.missing."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tilestream" or key.startswith("tilestream."))]
        for short, names in TRACED.items():
            home = sys.modules.get(f"tilestream.{short}")
            for fname in names:
                name = f"{short}.{fname}"
                fn = getattr(home, fname, None)
                if not callable(fn):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def aggregate(spans):
    """Per unit span (a step or a set-up): {name: [seconds, self seconds, calls, flop, bytes]}.

    Self time is a span's duration minus the time its child spans cover.
    Returns {unit index: (unit name, unit seconds, totals by name)}.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]
    units = {}
    for i, sp in enumerate(spans):
        if sp[PARENT] < 0:
            units[i] = (sp[NAME], sp[END] - sp[START], {})
    for i, sp in enumerate(spans):
        root = i
        while spans[root][PARENT] >= 0:
            root = spans[root][PARENT]
        if root == i:
            continue
        dur = sp[END] - sp[START]
        acc = units[root][2].setdefault(sp[NAME], [0.0, 0.0, 0, 0, 0])
        acc[0] += dur
        acc[1] += dur - child[i]
        acc[2] += 1
        acc[3] += sp[FLOP]
        acc[4] += sp[NBYTES]
    return units


def top_level_coverage(spans):
    """For each step: the share of its wall time that its direct child spans cover."""
    child = {}
    for sp in spans:
        if sp[PARENT] >= 0 and spans[sp[PARENT]][PARENT] < 0:
            child[sp[PARENT]] = child.get(sp[PARENT], 0.0) + sp[END] - sp[START]
    return [child.get(i, 0.0) / (sp[END] - sp[START])
            for i, sp in enumerate(spans) if sp[PARENT] < 0 and sp[NAME] == "step"]


def span_metrics(spans):
    """Per-layer metrics for every TRACED function: medians over steps or set-ups."""
    units = aggregate(spans)
    metrics = {}
    for short, names in TRACED.items():
        for fname in names:
            name = f"{short}.{fname}"
            kind = "setup" if name in SETUP_FUNCTIONS else "step"
            rows = [totals.get(name, [0.0, 0.0, 0, 0, 0])
                    for unit, _, totals in units.values() if unit == kind] or [[0.0, 0.0, 0, 0, 0]]
            metrics[f"{name}.s"] = (statistics.median(r[0] for r in rows), "s")
            metrics[f"{name}.self_s"] = (statistics.median(r[1] for r in rows), "s")
            metrics[f"{name}.calls"] = (statistics.median(r[2] for r in rows), "count")
            if name in CONV_KERNELS:
                seconds = sum(r[0] for r in rows)
                flop = sum(r[3] for r in rows)
                metrics[f"{name}.gflop"] = (flop / len(rows) / 1e9, "GFLOP")
                metrics[f"{name}.gflops"] = (flop / seconds / 1e9 if seconds else 0.0, "GFLOP/s")
                metrics[f"{name}.mb_moved"] = (sum(r[4] for r in rows) / len(rows) / 1e6, "MB")
    return metrics
