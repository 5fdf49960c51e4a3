"""Command-line entry point: plan | verify | train | bench.

Exit codes: 0 success, 1 config error, 2 infeasible plan, 3 equivalence
failure (or detected nondeterminism during verify), 4 divergence
(non-finite loss). All runs are deterministic in (config, seed): reruns
produce bit-identical CSVs, checkpoints and reports. --threads caps
worker counts and never changes results; the current engine executes
tiles sequentially (a cap of 1 worker) so results are trivially
independent of it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .config import ExperimentConfig, build_network, load_config
from .data import synth_dataset
from .engine import accumulate_minibatch, sgd_step
from .equivalence import (
    baseline_forward_backward,
    compare_runs,
    default_tolerances,
    finite_difference_check,
    grad_quantities,
    lockstep_train,
    streaming_loss_and_grads,
)
from .errors import ConfigError, NondeterminismError, NonFiniteError, PlanError, TilestreamError
from .layers import ConvParams
from .memory import estimate_streaming, estimate_whole_image, format_table, reduction_report
from .network import NetworkSpec, cast_params, init_params
from .planner import build_tile_plan, validate_tile_plan
from .tensors import read_st4, write_st4


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
        kind = "conv" if isinstance(p, ConvParams) else "dense"
        for name, arr in (("w", p.w), ("b", p.b)):
            fname = f"layer{i:02d}.{name}.st4"
            write_st4(os.path.join(dirpath, fname), arr)
            manifest["tensors"].append({"layer": i, "kind": kind, "name": name,
                                        "file": fname, "shape": list(arr.shape)})
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_checkpoint(dirpath, net, image_size):
    with open(os.path.join(dirpath, "manifest.json")) as fh:
        manifest = json.load(fh)
    params = init_params(net, image_size, seed=0, precision=manifest["precision"])
    for entry in manifest["tensors"]:
        arr = read_st4(os.path.join(dirpath, entry["file"]))
        target = getattr(params[entry["layer"]], entry["name"])
        target[...] = arr.reshape(target.shape)
    return params


def _prepare(cfg: ExperimentConfig, need_plan):
    net = build_network(cfg)
    plan = None
    if need_plan:
        plan = build_tile_plan(net, cfg.image_size, cfg.grid)
        report = validate_tile_plan(plan, net)
        if not report.ok:
            raise PlanError("; ".join(report.failures[:3]))
    return net, plan


def cmd_plan(cfg: ExperimentConfig):
    net, plan = _prepare(cfg, need_plan=True)
    whole = estimate_whole_image(net, cfg.image_size, cfg.batch_size, cfg.precision)
    stream = estimate_streaming(net, plan, cfg.batch_size, cfg.precision)
    reduction = reduction_report(whole, stream)
    print(plan.to_json(indent=2))
    print()
    print(format_table(net, whole))
    print()
    print(format_table(net, stream))
    print()
    print(f"tiles: {len(plan.tiles)}  grid: {plan.grid[0]}x{plan.grid[1]}  "
          f"recompute: {plan.recompute_ratio:.2f}x image pixels per pass")
    print(f"peak reduction streaming vs whole image: {reduction:.2f}%")
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        with open(os.path.join(cfg.out, "plan.json"), "w") as fh:
            fh.write(plan.to_json(indent=2))
        with open(os.path.join(cfg.out, "memory.json"), "w") as fh:
            json.dump({"whole_image": whole.to_json_dict(),
                       "streaming": stream.to_json_dict(),
                       "reduction_percent": reduction}, fh, indent=2, sort_keys=True)
    return 0


def cmd_verify(cfg: ExperimentConfig):
    net, plan = _prepare(cfg, need_plan=True)
    data = synth_dataset(cfg.seed, cfg.image_size, cfg.n_train,
                         in_channels=cfg.in_channels, noise=cfg.noise)
    params0 = init_params(net, cfg.image_size, cfg.seed, precision="double")
    params_run = cast_params(params0, cfg.precision)
    tol = default_tolerances(cfg.precision)
    tol.update({k: float(v) for k, v in cfg.tolerances.items()})

    # one-shot full comparison at the initial parameters
    dtype = np.float64 if cfg.precision == "double" else np.float32
    img = data[0].image.astype(dtype)
    base = baseline_forward_backward(net, params_run, img, data[0].label)
    s_loss, s_logit, s_split, s_grads, _ = streaming_loss_and_grads(
        net, params_run, img, data[0].label, plan)
    qa = {"loss": base.loss, "logit": base.logit, "split_map": base.split_map}
    qa.update(grad_quantities(base.grads))
    qb = {"loss": s_loss, "logit": s_logit, "split_map": s_split}
    qb.update(grad_quantities(s_grads))
    report = compare_runs(qa, qb, tol)

    # finite-difference ground truth, always probed in double precision
    fd_eps = float(cfg.verify.get("fd_eps", 1e-5))
    fd_coords = int(cfg.verify.get("fd_coords", 40))
    fd_tol = float(cfg.verify.get("fd_tol", 1e-5))
    img64 = data[0].image.astype(np.float64)
    base64 = baseline_forward_backward(net, params0, img64, data[0].label)
    fd_base = finite_difference_check(net, params0, img64, data[0].label, eps=fd_eps,
                                      seed=cfg.seed, coords_per_tensor=fd_coords,
                                      grads=base64.grads)
    _, _, _, sg64, _ = streaming_loss_and_grads(net, params0, img64, data[0].label, plan)
    fd_stream = finite_difference_check(net, params0, img64, data[0].label, eps=fd_eps,
                                        seed=cfg.seed, coords_per_tensor=fd_coords,
                                        grads=sg64)

    result = lockstep_train(net, params_run, data, cfg.steps, cfg.learning_rate,
                            cfg.batch_size, plan, precision=cfg.precision)
    failures = list(report.failures)
    if result.mean_loss_diff > tol["loss"]:
        failures.append(f"lockstep mean loss diff {result.mean_loss_diff:.3e} > {tol['loss']}")
    if result.worst_grad_rel > tol["grad"]:
        failures.append(f"lockstep grad rel diff {result.worst_grad_rel:.3e} > {tol['grad']}")
    if fd_base > fd_tol:
        failures.append(f"baseline finite-difference error {fd_base:.3e} > {fd_tol}")
    if fd_stream > fd_tol:
        failures.append(f"streaming finite-difference error {fd_stream:.3e} > {fd_tol}")

    doc = report.to_json_dict()
    doc["lockstep"] = {"steps": cfg.steps, "mean_loss_diff": result.mean_loss_diff,
                       "worst_loss_diff": result.worst_loss_diff,
                       "worst_grad_rel_diff": result.worst_grad_rel}
    doc["finite_difference"] = {"eps": fd_eps, "coords_per_tensor": fd_coords,
                                "baseline_max_rel_err": fd_base,
                                "streaming_max_rel_err": fd_stream, "tolerance": fd_tol}
    doc["verdict"] = "pass" if not failures else "fail"
    doc["failures"] = failures

    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
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


def _train_loop(cfg, net, params, data, plan, csv_path=None):
    rows = [("step", "loss", "train_acc_running", "peak_bytes")]
    dtype = np.float64 if cfg.precision == "double" else np.float32
    seen = correct = 0
    for step in range(cfg.steps):
        batch = [data[(step * cfg.batch_size + i) % len(data)]
                 for i in range(cfg.batch_size)]
        per_image, losses, peak = [], [], 0
        for sample in batch:
            img = sample.image.astype(dtype)
            if plan is None:
                res = baseline_forward_backward(net, params, img, sample.label)
                loss, logit, grads, rec = res.loss, res.logit, res.grads, res.record
            else:
                loss, logit, _, grads, rec = streaming_loss_and_grads(
                    net, params, img, sample.label, plan)
            per_image.append(grads)
            losses.append(loss)
            peak = max(peak, rec.peak_bytes)
            seen += 1
            correct += int((logit > 0) == bool(sample.label))
        sgd_step(params, accumulate_minibatch(per_image), cfg.learning_rate)
        rows.append((step, _fmt(np.mean(losses)), _fmt(correct / seen), peak))
    if csv_path:
        _write_csv(csv_path, rows)
    return rows


def cmd_train(cfg: ExperimentConfig):
    if cfg.mode not in ("sgd", "ssgd"):
        raise ConfigError(f"train needs mode sgd or ssgd, got {cfg.mode}")
    if not cfg.out:
        raise ConfigError("train needs an output directory (--out or config 'out')")
    net, plan = _prepare(cfg, need_plan=cfg.mode == "ssgd")
    data = synth_dataset(cfg.seed, cfg.image_size, cfg.n_train,
                         in_channels=cfg.in_channels, noise=cfg.noise)
    params = init_params(net, cfg.image_size, cfg.seed, precision=cfg.precision)
    os.makedirs(cfg.out, exist_ok=True)
    rows = _train_loop(cfg, net, params, data, plan,
                       csv_path=os.path.join(cfg.out, "train.csv"))
    save_checkpoint(os.path.join(cfg.out, "checkpoint"), net, params, cfg.precision)
    if len(rows) > 1:
        print(f"trained {cfg.steps} steps ({cfg.mode}); final loss {rows[-1][1]}, "
              f"running acc {rows[-1][2]}")
    else:
        print("trained 0 steps; checkpoint equals initialization")
    return 0


def cmd_bench(cfg: ExperimentConfig):
    net, plan = _prepare(cfg, need_plan=True)
    data = synth_dataset(cfg.seed, cfg.image_size, max(cfg.batch_size * 2, 2),
                         in_channels=cfg.in_channels, noise=cfg.noise)
    steps = int(cfg.bench.get("steps", 3))
    report = {}
    for mode, use_plan in (("sgd", None), ("ssgd", plan)):
        params = init_params(net, cfg.image_size, cfg.seed, precision=cfg.precision)
        times, peak = [], 0
        dtype = np.float64 if cfg.precision == "double" else np.float32
        for step in range(steps):
            batch = [data[(step * cfg.batch_size + i) % len(data)]
                     for i in range(cfg.batch_size)]
            t0 = time.perf_counter()
            per_image = []
            for sample in batch:
                img = sample.image.astype(dtype)
                if use_plan is None:
                    res = baseline_forward_backward(net, params, img, sample.label)
                    grads, rec = res.grads, res.record
                else:
                    _, _, _, grads, rec = streaming_loss_and_grads(
                        net, params, img, sample.label, use_plan)
                per_image.append(grads)
                peak = max(peak, rec.peak_bytes)
            sgd_step(params, accumulate_minibatch(per_image), cfg.learning_rate)
            times.append(time.perf_counter() - t0)
        report[mode] = {"median_step_seconds": float(np.median(times)),
                        "peak_bytes": peak}
    ratio = report["ssgd"]["median_step_seconds"] / report["sgd"]["median_step_seconds"]
    report["recompute_time_ratio"] = ratio
    print(json.dumps(report, indent=2, sort_keys=True))
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        with open(os.path.join(cfg.out, "bench.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return 0


COMMANDS = {"plan": cmd_plan, "verify": cmd_verify, "train": cmd_train, "bench": cmd_bench}


def make_parser():
    parser = argparse.ArgumentParser(prog="tilestream",
                                     description="Tile-streamed CNN training tools")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--precision", choices=["single", "double"], default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="cap worker count (results never depend on it)")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.precision is not None:
            cfg.precision = args.precision
        if args.out is not None:
            cfg.out = args.out
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("--threads must be >= 1")
            cfg.threads = args.threads
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
