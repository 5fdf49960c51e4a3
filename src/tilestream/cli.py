"""Command-line entry point: plan | verify | train | bench.

Exit codes: 0 success, 1 usage or config error (a learning rate above
the largest finite value of the run's precision is one), 2 infeasible
plan, 3 equivalence failure (or detected nondeterminism during verify), 4
divergence (non-finite loss). The output directory (--out or config
'out') is created once, before the command runs; a path that cannot be a
directory, such as an existing file, is a config error (exit 1). All runs
are deterministic in (config, seed): reruns produce bit-identical CSVs,
checkpoints and reports. train, bench and verify's lockstep all step
through engine.train_step, whole-image as planner.whole_image_plan.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import tracemalloc

import numpy as np

from .config import ExperimentConfig, build_network, load_config
from .data import minibatch, synth_dataset
from .engine import streaming_loss_and_grads, train_step
from .equivalence import (FD_EPS, FD_TOL, compare_runs, default_tolerances,
                          finite_difference_check, lockstep_train)
from .errors import ConfigError, NondeterminismError, NonFiniteError, PlanError, TilestreamError
from .memory import estimate_streaming, estimate_whole_image, format_table, reduction_report
from .network import cast_params, init_params, param_bytes
from .planner import _Section, build_tile_plan, validate_tile_plan, whole_image_plan
from .tensors import resolve_dtype, write_st4


def _fmt(x):
    return repr(float(x))


def _write_csv(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def save_checkpoint(dirpath, net, params, precision):
    os.makedirs(dirpath, exist_ok=True)
    manifest = {"version": 1, "precision": precision, "tensors": []}
    for i, p in enumerate(params):
        if p is None:
            continue
        for name, arr in (("w", p.w), ("b", p.b)):
            fname = f"layer{i:02d}.{name}.st4"
            write_st4(os.path.join(dirpath, fname), arr)
            manifest["tensors"].append({"layer": i, "kind": p.kind, "name": name,
                                        "file": fname, "shape": list(arr.shape)})
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _prepare(cfg: ExperimentConfig):
    """(network, validated plan, every plan weighed, the _Section that
    chose and priced them in the run's precision)."""
    net = build_network(cfg)
    section = _Section(net, cfg.image_size, cfg.grid, cfg.precision)
    plan, candidates = section.choose()
    report = validate_tile_plan(plan, net)
    if not report.ok:
        raise PlanError("; ".join(report.failures[:3]))
    return net, plan, candidates, section


def _dataset(cfg: ExperimentConfig, net, n):
    """synth_dataset's n samples, cast once to the run's dtype."""
    dtype = resolve_dtype(cfg.precision)
    return [dataclasses.replace(s, image=s.image.astype(dtype))
            for s in synth_dataset(cfg.seed, cfg.image_size, n,
                                   in_channels=net.in_channels, noise=cfg.noise)]


def _grids(grids):
    return ",".join(f"{r}x{c}" for r, c in grids)


def cmd_plan(cfg: ExperimentConfig):
    net, plan, candidates, section = _prepare(cfg)
    whole = estimate_whole_image(net, cfg.image_size, cfg.batch_size, cfg.precision)
    stream = estimate_streaming(net, plan, cfg.batch_size, cfg.precision)
    reduction = reduction_report(whole, stream)
    print(plan.to_json(net))
    print()
    print(format_table(net, whole))
    print()
    print(format_table(net, stream))
    print()
    print(f"tiles: {len(plan.tiles)}  grid: {plan.grid[0]}x{plan.grid[1]}  "
          f"segment grids: {_grids(plan.grids)}  "
          f"recompute: {plan.recompute_ratio:.2f}x whole-image conv work")
    budget = section.budget
    print(f"budget: modelled peak {budget:,} bytes at any batch size, the least with "
          f"every segment at {plan.grid[0]}x{plan.grid[1]}")
    for candidate in candidates:
        maps = ",".join(map(str, candidate.checkpoints)) or "none"
        peak = section.peak(candidate)
        mark = "  (chosen)" if candidate is plan else "  (over budget)" if peak > budget else ""
        print(f"checkpoints {maps} grids {_grids(candidate.grids)}: modelled peak "
              f"{peak:,} bytes, conv work {candidate.recompute_ratio:.2f}x, "
              f"{candidate.calls} tile-layer calls{mark}")
    g = 1
    while g <= min(net.split_shape(cfg.image_size)[1:]):
        ratio = (plan.recompute_ratio if (g, g) == plan.grid
                 else build_tile_plan(net, cfg.image_size, (g, g), cfg.precision).recompute_ratio)
        print(f"grid {g}x{g}: recompute {ratio:.2f}x")
        g *= 2
    print(f"peak reduction streaming vs whole image: {reduction:.2f}%")
    if cfg.out:
        with open(os.path.join(cfg.out, "plan.json"), "w") as fh:
            fh.write(plan.to_json(net))
        with open(os.path.join(cfg.out, "memory.json"), "w") as fh:
            json.dump({"whole_image": dataclasses.asdict(whole),
                       "streaming": dataclasses.asdict(stream),
                       "reduction_percent": reduction}, fh, indent=2, sort_keys=True)
    return 0


def cmd_verify(cfg: ExperimentConfig):
    net, plan, _, _ = _prepare(cfg)
    whole = whole_image_plan(net, cfg.image_size)
    data = synth_dataset(cfg.seed, cfg.image_size, cfg.n_train,
                         in_channels=net.in_channels, noise=cfg.noise)
    params0 = init_params(net, cfg.image_size, cfg.seed, precision="double")
    params_run = cast_params(params0, cfg.precision)
    tol = default_tolerances(cfg.precision)

    # one-shot full comparison at the initial parameters
    img = data[0].image.astype(resolve_dtype(cfg.precision))
    label = data[0].label
    base = streaming_loss_and_grads(net, params_run, img, label, whole)
    stream = streaming_loss_and_grads(net, params_run, img, label, plan)
    report = compare_runs(base.quantities(), stream.quantities(), tol)

    # finite-difference ground truth, always probed in double precision; in
    # double the one-shot pair already ran on these parameters and image
    fd_coords = int(cfg.verify.get("fd_coords", 40))
    img64 = data[0].image.astype(np.float64)
    runs = (base, stream) if cfg.precision == "double" else [
        streaming_loss_and_grads(net, params0, img64, label, p) for p in (whole, plan)]
    fd_base, fd_stream = finite_difference_check(net, params0, img64, label,
                                                 [r.grads for r in runs],
                                                 seed=cfg.seed, coords_per_tensor=fd_coords)

    result = lockstep_train(net, params_run, data, cfg.steps, cfg.learning_rate,
                            cfg.batch_size, plan)
    failures = [f"{name} max_rel_diff {e.max_rel:.3e} > {e.tolerance} "
                f"(sup-norm scaled {e.max_rel_scaled:.3e})"
                for name, e in report.entries.items() if not e.passed]
    if result.mean_loss_diff > tol["loss"]:
        failures.append(f"lockstep mean loss diff {result.mean_loss_diff:.3e} > {tol['loss']}")
    if result.worst_grad_rel > tol["grad"]:
        failures.append(f"lockstep grad rel diff {result.worst_grad_rel:.3e} > {tol['grad']}")
    for arm, err in (("baseline", fd_base), ("streaming", fd_stream)):
        if err > FD_TOL:
            failures.append(f"{arm} finite-difference error {err:.3e} > {FD_TOL}")

    doc = report.to_json_dict()
    doc["lockstep"] = {"steps": cfg.steps, "mean_loss_diff": result.mean_loss_diff,
                       "worst_loss_diff": result.worst_loss_diff,
                       "worst_grad_rel_diff": result.worst_grad_rel}
    doc["finite_difference"] = {"eps": FD_EPS, "coords_per_tensor": fd_coords,
                                "baseline_max_rel_err": fd_base,
                                "streaming_max_rel_err": fd_stream, "tolerance": FD_TOL}
    doc["verdict"] = "pass" if not failures else "fail"
    doc["failures"] = failures

    if cfg.out:
        _write_csv(os.path.join(cfg.out, "lockstep.csv"), result.csv_rows())
        with open(os.path.join(cfg.out, "report.json"), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"lockstep {cfg.steps} steps ({cfg.precision}): "
          f"mean |loss diff| = {result.mean_loss_diff:.3e}, "
          f"worst grad rel = {result.worst_grad_rel:.3e}")
    print(f"finite differences: baseline {fd_base:.3e}, streaming {fd_stream:.3e}")
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 3
    print("verify: PASS")
    return 0


def cmd_train(cfg: ExperimentConfig):
    if not cfg.out:
        raise ConfigError("train needs an output directory (--out or config 'out')")
    if cfg.mode == "ssgd":
        net, plan, _, _ = _prepare(cfg)
    else:  # the configured grid plays no part
        net = build_network(cfg)
        plan = whole_image_plan(net, cfg.image_size)
    data = _dataset(cfg, net, cfg.n_train)
    params = init_params(net, cfg.image_size, cfg.seed, precision=cfg.precision)
    rows = [("step", "loss", "train_acc_running", "peak_bytes")]
    seen = correct = 0
    for step in range(cfg.steps):
        batch = minibatch(data, step, cfg.batch_size)
        res = train_step(net, params, batch, cfg.learning_rate, plan)
        seen += len(batch)
        correct += sum(int((logit > 0) == bool(sample.label))
                       for logit, sample in zip(res.logits, batch))
        rows.append((step, _fmt(res.loss), _fmt(correct / seen), res.peak_bytes))
    _write_csv(os.path.join(cfg.out, "train.csv"), rows)
    save_checkpoint(os.path.join(cfg.out, "checkpoint"), net, params, cfg.precision)
    if len(rows) > 1:
        print(f"trained {cfg.steps} steps ({cfg.mode}); final loss {rows[-1][1]}, "
              f"running acc {rows[-1][2]}")
    else:
        print("trained 0 steps; checkpoint equals initialization")
    return 0


def cmd_bench(cfg: ExperimentConfig):
    net, plan, _, _ = _prepare(cfg)
    data = _dataset(cfg, net, max(cfg.batch_size * 2, 2))
    steps = int(cfg.bench.get("steps", 3))
    # the traced peak leaves out the parameters, made before tracing starts;
    # the model takes the batch size: train_step runs a batch one image at a
    # time, and from its second image on the tiles run beside the head's
    # gradients
    plans = {"sgd": whole_image_plan(net, cfg.image_size), "ssgd": plan}
    report = {}
    for mode, use_plan in plans.items():
        params = init_params(net, cfg.image_size, cfg.seed, precision=cfg.precision)
        times, peak = [], 0
        for step in range(steps):
            batch = minibatch(data, step, cfg.batch_size)
            t0 = time.perf_counter()
            res = train_step(net, params, batch, cfg.learning_rate, use_plan)
            times.append(time.perf_counter() - t0)
            peak = max(peak, res.peak_bytes)
        # one more step, untimed, for the traced peak beside the modelled one
        batch = minibatch(data, steps, cfg.batch_size)
        tracemalloc.start()
        try:
            train_step(net, params, batch, cfg.learning_rate, use_plan)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report[mode] = {"median_step_seconds": float(np.median(times)),
                        "peak_bytes": peak, "traced_peak_bytes": traced,
                        "param_bytes": param_bytes(params),
                        "modelled_peak_bytes": estimate_streaming(
                            net, use_plan, cfg.batch_size, cfg.precision).peak_bytes}
    ratio = report["ssgd"]["median_step_seconds"] / report["sgd"]["median_step_seconds"]
    report["recompute_time_ratio"] = ratio
    print(json.dumps(report, indent=2, sort_keys=True))
    if cfg.out:
        with open(os.path.join(cfg.out, "bench.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return 0


COMMANDS = {"plan": cmd_plan, "verify": cmd_verify, "train": cmd_train, "bench": cmd_bench}


def _seed(text):
    """argparse type of --seed: a non-negative int, as PCG64 requires."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return int(text)


def make_parser():
    parser = argparse.ArgumentParser(prog="tilestream",
                                     description="Tile-streamed CNN training tools")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=_seed, default=None, help="override config seed")
        p.add_argument("--precision", choices=["single", "double"], default=None)
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.precision is not None:
            cfg.precision = args.precision
        if args.out is not None:
            cfg.out = args.out
        if cfg.learning_rate > float(np.finfo(resolve_dtype(cfg.precision)).max):
            raise ConfigError(f"learning_rate {cfg.learning_rate!r} overflows {cfg.precision} "
                              "precision")
        if cfg.out:
            try:
                os.makedirs(cfg.out, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory {cfg.out!r}: {exc}") from exc
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PlanError as exc:
        print(f"plan error: {exc}", file=sys.stderr)
        return 2
    except NondeterminismError as exc:
        print(f"nondeterminism: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4
    except TilestreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
