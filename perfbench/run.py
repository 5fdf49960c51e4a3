"""Training-step benchmark for tilestream: one workload, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload vgg13-g4 --seed 1 --seconds 30 --trace 0

Drives the package from outside through its public Python API, in one
process and a closed loop: a training step (forward, backward,
accumulate_minibatch, sgd_step on one image) starts when the previous one
ends. A run sets up several times and times steps for --seconds. One
more step, untimed, gives the tracemalloc peak and is checked against the
other executor (whole-image vs streaming) at the same parameters. With
--trace 1 half of the steps run with every public function wrapped in a
span, and the run prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full record (environment,
per-step losses and seconds, check results, spans) is written to
perfbench/runs/. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import itertools
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = Path(__file__).resolve().parent / "runs"
MIB = 2 ** 20

PRECISION = "single"
LEARNING_RATE = 0.05          # the package's config default
DATASET_SIZE = 4              # images; step i trains on image i mod 4
SETUP_REPEATS = 15            # setup_s is the median of these
# Gradient agreement is measured as max|a - b| over the larger sup-norm of the
# two tensors; 1e-4 is the package's single-precision gradient tolerance.
GRAD_TOL = 1e-4
CHECK_GRID = (2, 2)           # streaming reference for the whole-image workload


@dataclass(frozen=True)
class Workload:
    preset: str
    grid: tuple | None        # None trains whole-image via baseline_forward_backward
    image_size: int = 512


# Why each workload was chosen: perfbench/README.md, "Workloads".
WORKLOADS = {
    "vgg13-g4": Workload("vgg13", (4, 4)),
    "tiny2-g8": Workload("tiny2", (8, 8)),
    "vgg13-whole": Workload("vgg13", None),
}


def import_package():
    """Import tilestream from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tilestream" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tilestream package under {src}")
    sys.path.insert(0, str(src))
    import tilestream
    import tilestream.data
    import tilestream.layers
    import tilestream.network

    if Path(tilestream.__file__).resolve().parent != (src / "tilestream").resolve():
        raise SystemExit(f"perfbench: imported tilestream from {tilestream.__file__}, not {src}")
    return tilestream


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


@contextlib.contextmanager
def cpu_rotation():
    """Yield a function that moves this process to the next allowed CPU.

    On a host shared with other tenants, one vCPU at a time can run 30-50%
    slower for tens of seconds. Moving at every step or set-up makes a run
    sample all allowed CPUs instead of whichever one it landed on. The
    affinity mask is restored on exit.
    """
    cpus = sorted(os.sched_getaffinity(0))
    turn = itertools.cycle(cpus)
    try:
        yield lambda: os.sched_setaffinity(0, {next(turn)})
    finally:
        os.sched_setaffinity(0, cpus)


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


class Bench:
    """One workload's inputs, parameters and operation counters."""

    def __init__(self, ts, workload, seed):
        self.ts = ts
        self.wl = workload
        self.seed = seed
        self.net = ts.network.PRESETS[workload.preset]()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def setup(self):
        """synth_dataset + build_tile_plan + validate_tile_plan + init_params."""
        ts, wl = self.ts, self.wl
        data = ts.data.synth_dataset(self.seed, wl.image_size, DATASET_SIZE)
        plan = None
        if wl.grid is not None:
            plan = ts.build_tile_plan(self.net, wl.image_size, wl.grid)
            report = ts.validate_tile_plan(plan, self.net)
            if not report.ok:
                raise RuntimeError(f"plan does not validate: {report.first_failure}")
        params = ts.init_params(self.net, wl.image_size, self.seed, precision=PRECISION)
        self.samples = [(s.image.astype(np.float32), s.label) for s in data]
        self.plan, self.params = plan, params

    def timed_setups(self, tracer=None):
        times = []
        with cpu_rotation() as next_cpu:
            for _ in range(SETUP_REPEATS):
                next_cpu()
                t0 = time.perf_counter()
                if tracer is None:
                    self.setup()
                else:
                    tracer.run("setup", self.setup)
                times.append(time.perf_counter() - t0)
        return times

    def passes(self, params, image, label, plan):
        """Forward and backward on one image: (loss, per-image grads, split map, run record)."""
        ts = self.ts
        if plan is None:
            res = ts.baseline_forward_backward(self.net, params, image, label)
            return res.loss, res.grads, res.split_map, res.record
        state = ts.streaming_forward(self.net, params, image, plan)
        loss, dlogit = ts.layers.bce_with_logits(state.logit[0], label)
        grads = ts.streaming_backward(self.net, params, image, plan, state, np.asarray([dlogit]))
        return float(loss), grads, state.split_map, state.record

    def step(self, i):
        """One training step on image i mod DATASET_SIZE; returns what passes() returns."""
        image, label = self.samples[i % len(self.samples)]
        out = self.passes(self.params, image, label, self.plan)
        self.ts.sgd_step(self.params, self.ts.accumulate_minibatch([out[1]]), LEARNING_RATE)
        return out

    def operation(self, what, fn):
        """Count one operation; a raise or a falsy result is a failure."""
        self.attempted += 1
        try:
            ok = bool(fn())
            if not ok:
                self.errors.append(f"{what}: failed")
        except Exception:  # a failed operation is reported, the run goes on
            ok = False
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
        self.failed += not ok
        return ok

    def timed_steps(self, seconds, first, tracer=None):
        """Closed loop for `seconds` (at least one step): (step seconds, losses)."""
        times, losses = [], []
        stop = time.perf_counter() + seconds
        i = first
        with cpu_rotation() as next_cpu:
            while not times or time.perf_counter() < stop:
                out = []

                def one_step():
                    out.append(self.step(i))
                    return math.isfinite(out[0][0])

                next_cpu()
                t0 = time.perf_counter()
                if tracer is None:
                    self.operation(f"step {i}", one_step)
                else:
                    tracer.step = i
                    tracer.run("step", self.operation, f"step {i}", one_step)
                times.append(time.perf_counter() - t0)
                losses.append(out[0][0] if out else float("nan"))
                i += 1
        return times, losses

    def peak_and_check(self, i):
        """One more step, untimed: its tracemalloc peak, run record and check.

        The step's result is checked against the other executor at the
        parameters the step started from: whole-image for a streaming
        workload, a CHECK_GRID streaming pass for a whole-image one. Split
        map and loss must be bit-identical; each gradient tensor must agree
        within GRAD_TOL of its sup-norm. Each comparison is one operation.
        Returns (peak bytes, run record, check results).
        """
        ts, wl = self.ts, self.wl
        image, label = self.samples[i % len(self.samples)]
        start = [None if p is None else type(p)(p.w.copy(), p.b.copy()) for p in self.params]
        result = {"split_map_identical": False, "loss_identical": False, "grad_err": {}}
        out, ref = [], []
        gc.collect()
        tracemalloc.start()
        try:
            self.operation("peak step", lambda: out.append(self.step(i)) or math.isfinite(out[0][0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        def reference():
            plan = None
            if self.plan is None:
                plan = ts.build_tile_plan(self.net, wl.image_size, CHECK_GRID)
                if not ts.validate_tile_plan(plan, self.net).ok:
                    return False
            ref.append(self.passes(start, image, label, plan))
            return True

        if not (out and self.operation("reference pass", reference)):
            return peak, (out[0][3] if out else None), result
        (loss, grads, split, record), (r_loss, r_grads, r_split, _) = out[0], ref[0]
        result.update(split_map_identical=bool(np.array_equal(split, r_split)),
                      loss_identical=loss == r_loss, loss=loss.hex(), loss_reference=r_loss.hex())
        self.operation("split map bit-identical", lambda: result["split_map_identical"])
        self.operation("loss bit-identical", lambda: result["loss_identical"])
        reference_grads = dict(r_grads.named_tensors())
        for name, a in grads.named_tensors():
            a, b = a.astype(np.float64), reference_grads[name].astype(np.float64)
            scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
            err = float(np.abs(a - b).max()) / scale if scale else 0.0
            result["grad_err"][name] = err
            self.operation(f"grad {name} within {GRAD_TOL:g} of sup-norm", lambda: err <= GRAD_TOL)
        return peak, record, result

    def planner_counts(self):
        """Recomputed input pixels per image pixel, forward and backward, and tiles."""
        if self.plan is None:
            return 1.0, 1.0, 1
        area = self.wl.image_size ** 2
        fwd = sum(t.input_forward.height * t.input_forward.width for t in self.plan.tiles)
        bwd = sum(t.input_backward.height * t.input_backward.width for t in self.plan.tiles)
        return fwd / area, bwd / area, len(self.plan.tiles)

    def model_peak(self):
        ts = self.ts
        if self.plan is None:
            return ts.estimate_whole_image(self.net, self.wl.image_size, 1, PRECISION).peak_bytes
        return ts.estimate_streaming(self.net, self.plan, 1, PRECISION).peak_bytes


def run(workload, seed, seconds, trace, ts=None):
    """One benchmark run; returns the result record (see module docstring)."""
    ts = ts or import_package()
    bench = Bench(ts, workload, seed)
    record = {"seed": seed, "seconds": seconds, "trace": trace, "workload": vars(workload),
              "environment": environment()}
    setup_times = bench.timed_setups()
    untimed = seconds / 2 if trace else seconds
    times, losses = bench.timed_steps(untimed, 0)
    record.update(setup_seconds=setup_times, step_seconds=times, losses=[x.hex() for x in losses])

    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            bench.timed_setups(tracer)
            traced_times, _ = bench.timed_steps(seconds - untimed, len(times), tracer)
        finally:
            tracer.uninstall()
        record["traced_step_seconds"] = traced_times
    peak, peak_record, record["check"] = bench.peak_and_check(len(times))

    if trace:
        fwd, bwd, tiles = bench.planner_counts()
        metrics = {"planner.fwd_px_ratio": (fwd, "ratio"), "planner.bwd_px_ratio": (bwd, "ratio"),
                   "planner.tiles": (tiles, "count")}
        metrics.update(spans.span_metrics(tracer.spans))
        model = bench.model_peak()
        metrics.update({
            "engine.tiles_forward": (getattr(peak_record, "tiles_forward", 0), "count"),
            "engine.tiles_backward": (getattr(peak_record, "tiles_backward", 0), "count"),
            "engine.counted_peak_mib": (getattr(peak_record, "peak_bytes", 0) / MIB, "MiB"),
            "memory.model_peak_mib": (model / MIB, "MiB"),
            "memory.model_over_traced": (model / peak if peak else 0.0, "ratio"),
            "trace.overhead_s": (statistics.median(traced_times) - statistics.median(times), "s"),
        })
        record["missing"] = tracer.missing
        record["coverage"] = spans.top_level_coverage(tracer.spans)
        record["spans"] = tracer.spans
    else:
        metrics = {"step_s": (statistics.median(times), "s"),
                   "peak_traced_mib": (peak / MIB, "MiB"),
                   "setup_s": (statistics.median(setup_times), "s")}
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  attempted=bench.attempted, failed=bench.failed, errors=bench.errors)
    return record


def summary_lines(name, record):
    """Human-readable lines printed ahead of the JSON result."""
    check = record["check"]
    worst = max(check["grad_err"].values(), default=0.0)
    lines = [
        f"perfbench {name} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}",
        "environment " + json.dumps(record["environment"], sort_keys=True),
        f"steps timed untraced: {len(record['step_seconds'])} (step_s is their median)"
        + (f"; traced: {len(record['traced_step_seconds'])}" if record["trace"] else ""),
        f"set-ups: {len(record['setup_seconds'])} (setup_s is their median)",
        "losses of the first steps (float.hex): " + " ".join(record["losses"][:8]),
        f"check: split map identical={check['split_map_identical']}, "
        f"loss identical={check['loss_identical']}, worst grad error {worst:.3e} "
        f"of sup-norm (tolerance {GRAD_TOL:g})",
        "peak_traced_mib counts Python and numpy allocations only; BLAS-internal buffers are not seen",
        f"failed_frac {record['failed']}/{record['attempted']} = "
        f"{record['failed'] / record['attempted']:.4f} (fraction)",
    ]
    if record["trace"] and record["missing"]:
        lines.append("missing functions (reported as 0): " + ", ".join(record["missing"]))
    lines += [e.rstrip() for e in record["errors"]]
    return lines


def write_record(name, record):
    RUNS_DIR.mkdir(exist_ok=True)
    path = RUNS_DIR / f"{name}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)
    return path


def emit(name, record):
    """Print the summary, write the record, and print the JSON result last."""
    for line in summary_lines(name, record):
        print(line)
    print(f"record: {write_record(name, record)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    emit(args.workload, run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
