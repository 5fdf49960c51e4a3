"""Smoke runs of every CLI command and their exit codes."""

import hashlib
import json
import re

import pytest

from tilestream import cli, equivalence, planner
from tilestream.cli import main
from tilestream.errors import NondeterminismError
from tilestream.network import Conv, net_tiny2, net_vgg13
from tilestream.tensors import read_st4

# conv3/p1 -> maxpool -> conv3/s2 on a 32x32 image; no relu, so finite
# differences never straddle a kink.
CONFIG = {
    "version": 1,
    "network": {"in_channels": 1, "layers": [
        {"kind": "conv", "c_out": 2, "kernel": 3, "stride": 1, "pad": 1},
        {"kind": "maxpool", "kernel": 2, "stride": 2},
        {"kind": "conv", "c_out": 2, "kernel": 3, "stride": 2, "pad": 0},
        {"kind": "flatten"}, {"kind": "dense", "width": 1}]},
    "image_size": 32, "grid": [2, 2], "steps": 2,
    "dataset": {"n_train": 4}, "verify": {"fd_coords": 5}, "bench": {"steps": 2},
}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("command", ["plan", "verify", "train", "bench"])
def test_command_exits_zero(tmp_path, capsys, command, precision):
    out = tmp_path / "out"
    code = main([command, "--config", write_config(tmp_path, CONFIG),
                 "--precision", precision, "--out", str(out)])
    assert code == 0, capsys.readouterr()
    if command == "verify":
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "pass" and report["failures"] == []
    if command == "plan":
        text = capsys.readouterr().out
        # the unpadded stride-2 conv never reads the last row and column of the
        # pooled map, so one tile runs the first conv on 30x30 of its 32x32
        # outputs: (30**2 * 18 + 7**2 * 36) / (32**2 * 18 + 7**2 * 36) multiply-adds
        assert "recompute: 1.00x whole-image conv work" in text
        assert "grid 1x1: recompute 0.89x" in text
        assert "grid 4x4: recompute " in text and "grid 8x8" not in text
    if command == "bench":
        # the modelled and the traced peak, side by side, on stdout and in bench.json
        printed = json.loads(capsys.readouterr().out)
        for report in (printed, json.loads((out / "bench.json").read_text())):
            for mode in ("sgd", "ssgd"):
                for key in ("peak_bytes", "traced_peak_bytes", "param_bytes",
                            "modelled_peak_bytes"):
                    assert type(report[mode][key]) is int and report[mode][key] > 0
            # conv 18 + 2 and 36 + 2, dense 2*7*7 + 1 scalars; each mode's
            # model (sgd runs the 1x1 plan) equals the engine's counters,
            # and none counts less than its parameters and their gradients
            item = 8 if precision == "double" else 4
            assert report["sgd"]["param_bytes"] == report["ssgd"]["param_bytes"] == 157 * item
            for mode in ("sgd", "ssgd"):
                assert report[mode]["modelled_peak_bytes"] == report[mode]["peak_bytes"]
                assert report[mode]["modelled_peak_bytes"] > 2 * report[mode]["param_bytes"]


@pytest.mark.parametrize("doc, extra", [
    pytest.param("{not json", [], id="not-json"),
    pytest.param(None, [], id="missing-config"),
    pytest.param(CONFIG, ["--threads", "2"], id="threads-flag"),
    pytest.param(dict(CONFIG, version=2), [], id="wrong-version"),
    pytest.param(dict(CONFIG, network=dict(CONFIG["network"], preset="vgg13")), [],
                 id="preset-and-layers"),
    pytest.param(dict(CONFIG, network={"preset": "vgg99"}), [], id="unknown-preset"),
    pytest.param(dict(CONFIG, grid=[2]), [], id="grid-one-entry"),
    pytest.param(dict(CONFIG, grid=[0, 2]), [], id="grid-zero"),
    pytest.param(dict(CONFIG, dataset={"n_train": 3}), [], id="odd-n-train"),
    pytest.param(dict(CONFIG, precision="half"), [], id="precision-half"),
    pytest.param(dict(CONFIG, mode="lockstep"), [], id="mode-lockstep"),
    pytest.param(dict(CONFIG, batch_size=True), [], id="bool-batch-size"),
    pytest.param(dict(CONFIG, threads=2), [], id="threads-key"),
    pytest.param(dict(CONFIG, stpes=5), [], id="misspelt-steps"),
    pytest.param(dict(CONFIG, network=dict(CONFIG["network"], layers=[
        dict(CONFIG["network"]["layers"][0], dilation=2)] + CONFIG["network"]["layers"][1:])),
        [], id="conv-dilation"),
    pytest.param(dict(CONFIG, dataset={"n_train": 4, "n_test": 4}), [], id="dataset-n-test"),
    pytest.param(dict(CONFIG, tolerances={"lossx": 1e-3}), [], id="tolerance-lossx"),
    pytest.param(dict(CONFIG, tolerances={"loss": "tight"}), [], id="tolerance-string"),
    pytest.param(dict(CONFIG, verify={"fd_coords": "many"}), [], id="fd-coords-string"),
    pytest.param(dict(CONFIG, verify={"fd_coords": 0}), [], id="fd-coords-zero"),
    pytest.param(dict(CONFIG, bench={"steps": "three"}), [], id="bench-steps-string"),
    pytest.param(dict(CONFIG, dataset={"n_train": 4, "noise": "low"}), [], id="noise-string"),
    pytest.param(dict(CONFIG, dataset={"n_train": 4, "noise": float("inf")}), [], id="noise-inf"),
    pytest.param(dict(CONFIG, learning_rate=float("inf")), [], id="learning-rate-inf"),
    pytest.param(dict(CONFIG, network=dict(CONFIG["network"], layers=5)), [],
                 id="layers-not-list"),
    pytest.param(dict(CONFIG, network=dict(CONFIG["network"], split_index=3)), [],
                 id="split-index"),
    pytest.param(dict(CONFIG, grid=[True, True]), [], id="grid-bools"),
    pytest.param(dict(CONFIG, seed=-1), [], id="negative-seed"),
    pytest.param(CONFIG, ["--seed", "-1"], id="negative-seed-flag"),
    pytest.param(dict(CONFIG, image_size=68, network=dict(CONFIG["network"], layers=[
        CONFIG["network"]["layers"][0], {"kind": "maxpool", "kernel": 17, "stride": 17},
        {"kind": "flatten"}, {"kind": "dense", "width": 1}])), [], id="pool-17x17"),
])
def test_malformed_config_exits_1(tmp_path, capsys, doc, extra):
    """Config errors and command-line usage errors both exit 1 (2 means
    infeasible plan), in every command, before it plans or runs."""
    config = [] if doc is None else ["--config", write_config(tmp_path, doc)]
    for command in cli.COMMANDS:
        assert main([command, "--out", str(tmp_path / "out")] + config + extra) == 1, command
        err = capsys.readouterr().err
        assert err.startswith(("usage:", "config error:")), err


def test_split_index_key_names_the_flatten(tmp_path, capsys):
    """A network of layers has no split_index: the split is its flatten."""
    doc = dict(CONFIG, network=dict(CONFIG["network"], split_index=3))
    assert main(["plan", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "'split_index'" in err and "the split is the network's flatten" in err


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("command", ["train", "verify"])
def test_reruns_write_identical_files(tmp_path, command, precision):
    """Runs are deterministic in (config, seed): a rerun writes every file
    (CSVs, checkpoint tensors and manifest, reports) byte for byte again."""
    config = write_config(tmp_path, CONFIG)
    runs = [tmp_path / "first", tmp_path / "second"]
    for out in runs:
        assert main([command, "--config", config, "--precision", precision,
                     "--out", str(out)]) == 0
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in runs]
    assert files[0] and files[0] == files[1]
    for name in files[0]:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


@pytest.mark.parametrize("command", ["plan", "verify", "train", "bench"])
def test_out_is_a_file_exits_1(tmp_path, capsys, command):
    """The output directory is made before the command runs; a file in its
    place is a config error, not a traceback after the run."""
    out = tmp_path / "out"
    out.write_text("not a directory")
    assert main([command, "--config", write_config(tmp_path, CONFIG), "--out", str(out)]) == 1
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["double", "single"])
def test_divergence_exits_4(tmp_path, capsys, precision):
    """A learning rate of 1e20 drives the CLI net's outputs non-finite
    within four steps in both precisions; train reports divergence."""
    doc = dict(CONFIG, learning_rate=1e20, steps=4)
    assert main(["train", "--config", write_config(tmp_path, doc), "--precision", precision,
                 "--out", str(tmp_path / "out")]) == 4
    assert "divergence: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "verify", "bench"])
def test_learning_rate_beyond_the_precision_exits_1(tmp_path, capsys, command):
    """A rate above float32's largest value would turn every weight inf at
    the first single-precision step; with --precision single it is a
    config error before any step, naming the key and the precision."""
    doc = dict(CONFIG, learning_rate=1e100)
    assert main([command, "--config", write_config(tmp_path, doc), "--precision", "single",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error: learning_rate 1e+100" in err and "single precision" in err


@pytest.mark.parametrize("precision", ["double", "single"])
def test_train_checkpoint_reads_back(tmp_path, monkeypatch, precision):
    """Every tensor manifest.json lists, read with read_st4 and reshaped to
    its shape, is bit for bit the final parameter train saved; each conv
    layer's tensors are kind conv and each dense layer's kind dense."""
    saved, save = [], cli.save_checkpoint

    def capturing(dirpath, net, params, precision):
        saved.append((net, params))
        save(dirpath, net, params, precision)

    monkeypatch.setattr(cli, "save_checkpoint", capturing)
    out = tmp_path / "out"
    assert main(["train", "--config", write_config(tmp_path, CONFIG), "--precision", precision,
                 "--out", str(out)]) == 0
    [(net, params)] = saved
    manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
    assert manifest["precision"] == precision
    tensors = manifest["tensors"]
    assert [(t["layer"], t["name"]) for t in tensors] == [
        (i, name) for i, p in enumerate(params) if p is not None for name in ("w", "b")]
    for t in tensors:
        want = getattr(params[t["layer"]], t["name"])
        got = read_st4(str(out / "checkpoint" / t["file"])).reshape(t["shape"])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), t["file"]
        assert t["kind"] == ("conv" if isinstance(net.layers[t["layer"]], Conv) else "dense")


def test_nondeterminism_exits_3(tmp_path, capsys, monkeypatch):
    def nondeterministic(*args):
        raise NondeterminismError("rerun differs")

    monkeypatch.setattr(cli, "lockstep_train", nondeterministic)
    assert main(["verify", "--config", write_config(tmp_path, CONFIG)]) == 3
    assert "nondeterminism: rerun differs" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, message", [
    pytest.param("plan", "missing.json", "cannot read config", id="config-missing"),
    pytest.param("train", None, "train needs an output directory", id="train-without-out"),
])
def test_config_errors_exit_1(tmp_path, capsys, command, config, message):
    path = str(tmp_path / config) if config else write_config(tmp_path, CONFIG)
    assert main([command, "--config", path]) == 1
    assert message in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["plan", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_grid_beyond_split_map_exits_2(tmp_path):
    doc = dict(CONFIG, grid=[8, 8])  # split map is 7x7
    assert main(["plan", "--config", write_config(tmp_path, doc)]) == 2


def test_sgd_train_ignores_the_grid(tmp_path, capsys):
    """Whole-image training builds only the 1x1 plan, so a grid the split
    map cannot hold does not stop it."""
    doc = dict(CONFIG, grid=[8, 8], mode="sgd")
    code = main(["train", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 0, capsys.readouterr()


@pytest.mark.parametrize("z", [16, 8])
def test_image_too_small_exits_2(tmp_path, capsys, z):
    """At 16x16 the image is too small only for the head's pool, at 8x8
    already for the streaming section: both are infeasible plans."""
    doc = dict(CONFIG, network={"preset": "vgg13", "base": 2, "hidden": 4},
               image_size=z, grid=[1, 1])
    assert main(["plan", "--config", write_config(tmp_path, doc)]) == 2
    assert "image too small for the network" in capsys.readouterr().err


def test_verify_fail_lines_name_metric_and_margin(tmp_path, capsys, monkeypatch):
    """A failing quantity's line carries its max relative difference against
    the tolerance and its sup-norm-scaled difference."""
    monkeypatch.setitem(equivalence.DOUBLE_TOLERANCES, "grad", 0.0)
    assert main(["verify", "--config", write_config(tmp_path, CONFIG),
                 "--precision", "double"]) == 3
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL grad:")]
    assert lines
    number = r"\d\.\d{3}e[+-]\d\d"
    for line in lines:
        assert re.fullmatch(rf"FAIL grad:\S+ max_rel_diff {number} > 0\.0 "
                            rf"\(sup-norm scaled {number}\)", line), line


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("precision", ["double", "single"])
def test_plan_prints_the_budget_at_its_batch(tmp_path, capsys, precision, batch):
    """One candidate checkpoint, the pool output (map 2); one segment models
    less, and its 1x1 grid exceeds that budget. Beside the tiles run 157
    parameter scalars and G_t gradient scalars: at batch 1 the two convs'
    58, at batch 2 all 157. The largest tile's term is its pool step: 810
    scalars and 162 route bytes (with map 2 cut, 640 scalars and 128 route
    bytes below it)."""
    doc = dict(CONFIG, batch_size=batch)
    assert main(["plan", "--config", write_config(tmp_path, doc), "--precision", precision]) == 0
    text = capsys.readouterr().out
    item = 8 if precision == "double" else 4
    tile_grads = 18 + 2 + 36 + 2 if batch == 1 else 157
    none = (157 + tile_grads) * item + 98 * 2 * item + item + 810 * item + 162
    cut = (157 + tile_grads) * item + (512 + 98) * item + item + 512 * item + 640 * item + 128
    assert (none, cut) == {("double", 1): (9938, 15952), ("single", 1): (5050, 8040),
                           ("double", 2): (10730, 16744), ("single", 2): (5446, 8436)}[
                               precision, batch]
    assert f"budget: modelled peak {none:,} bytes at batch {batch}, the least with " \
           "every segment at 2x2\n" in text
    assert re.search(rf"^checkpoints none grids 2x2: modelled peak {none:,} bytes, "
                     r"conv work 1\.00x, 12 tile-layer calls  \(chosen\)$", text, re.M)
    assert re.search(rf"^checkpoints 2 grids 2x2,2x2: modelled peak {cut:,} bytes, "
                     r"conv work 1\.00x, 12 tile-layer calls  \(over budget\)$", text, re.M)


def test_plan_is_chosen_at_the_configured_batch(tmp_path, capsys):
    """tiny2@512 8x8, double precision; its head's weights are 99.9% of its
    parameters. At batch 2 plan writes the 8x8 plan.json and memory.json
    that planning with the whole gradient set beside the tiles wrote (their
    SHA-256 digests, pinned when the batch entered the budget). At batch 1
    the head-gradient phase sets the budget: the parameters, the whole
    gradient set, the split map and the head's outputs. The coarser 2x2
    plan fits it and is chosen, and the finer 8x8 plan, priced at batch 1,
    is not over it: both model exactly the budget."""
    doc = {"version": 1, "network": {"preset": "tiny2"}, "image_size": 512, "grid": [8, 8]}
    texts = {}
    for batch in (1, 2):
        out = tmp_path / f"batch{batch}"
        config = write_config(tmp_path, dict(doc, batch_size=batch))
        assert main(["plan", "--config", config, "--out", str(out)]) == 0
        texts[batch] = capsys.readouterr().out
    digests = {name: hashlib.sha256((tmp_path / "batch2" / name).read_bytes()).hexdigest()
               for name in ("plan.json", "memory.json")}
    assert digests == {
        "plan.json": "e35519f9c3226f731fe35d73f4b13441637f710a1cf1f556b881783c713ef8c5",
        "memory.json": "02df252d8dda59f816c0ab9e09312081e8ed6c85d2ef8c49af4f8046a7f01859"}
    assert "tiles: 64  grid: 8x8  segment grids: 8x8  " in texts[2]
    assert re.search(r"^checkpoints none grids 8x8: modelled peak [\d,]+ bytes, conv work "
                     r"1\.02x, 448 tile-layer calls  \(chosen\)$", texts[2], re.M)
    params = 8 * 9 + 8 + 16 * 8 * 9 + 16 + 16 * 64 ** 2 * 16 + 16 + 16 + 1
    budget = (2 * params + 16 * 64 ** 2 + 16 + 1) * 8
    assert budget == 17_322_136
    assert "tiles: 4  grid: 8x8  segment grids: 2x2  " in texts[1]
    assert f"budget: modelled peak {budget:,} bytes at batch 1, the least" in texts[1]
    assert re.search(rf"^checkpoints none grids 2x2: modelled peak {budget:,} bytes, conv work "
                     r"1\.00x, 28 tile-layer calls  \(chosen\)$", texts[1], re.M)
    net = net_tiny2()
    finer = planner.build_tile_plan(net, 512, (8, 8), batch=2)
    assert finer.grids == ((8, 8),)
    assert planner._Section(net, 512, (8, 8), batch=1).peak(finer) == budget


@pytest.mark.parametrize("batch", [1, 2])
def test_plan_builds_only_the_printed_plans_tiles(tmp_path, capsys, monkeypatch, batch):
    """plan builds 2-D tiles for the plan it prints and no other: its grid
    and candidate lines read the chooser, and each grid ratio is the one
    build_tile_plan gives for that grid at the configured batch. At batch
    1 the chosen plan's peak leaves out the head's weight gradients."""
    built = []
    tile_entry = planner.TileEntry

    def counting(*args):
        built.append(tile_entry(*args))
        return built[-1]

    monkeypatch.setattr(planner, "TileEntry", counting)
    doc = {"version": 1, "network": {"preset": "vgg13"}, "image_size": 512, "grid": [4, 4],
           "batch_size": batch}
    assert main(["plan", "--config", write_config(tmp_path, doc)]) == 0
    text = capsys.readouterr().out
    assert "tiles: 20  grid: 4x4  segment grids: 4x4,2x2" in text and len(built) == 20
    number = r"\d[\d,.]*"
    candidates = re.findall(rf"^checkpoints (\S+) grids (\S+): modelled peak ({number}) bytes, "
                            rf"conv work {number}x, (\d+) tile-layer calls"
                            r"(  \(chosen\)|  \(over budget\))?$", text, re.M)
    assert len(candidates) == 16 and [c[0] for c in candidates if "over" not in c[4]] == ["17"]
    # 16 tiles through layers 0-16 and 4 through layers 17-30; the head's
    # dense layers (32x16x16 inputs, 32 wide, then 1) hold 262,209 scalars
    peak = 8_279_160 - (32 * 16 ** 2 * 32 + 32 + 32 + 1) * 8 * (batch == 1)
    assert peak == (6_181_488 if batch == 1 else 8_279_160)
    assert ("17", "4x4,2x2", f"{peak:,}", f"{16 * 17 + 4 * 14}", "  (chosen)") in candidates
    ratios = re.findall(r"^grid (\d+)x\1: recompute (\S+)x$", text, re.M)
    assert [int(g) for g, _ in ratios] == [1, 2, 4, 8, 16]  # the split map is 16x16
    for g, ratio in ratios:
        plan = planner.build_tile_plan(net_vgg13(), 512, (int(g), int(g)), batch=batch)
        assert ratio == f"{plan.recompute_ratio:.2f}"


def test_plan_reproduces_the_headline_memory_figure(tmp_path, capsys):
    """Planning only, no arrays: a 64-megapixel image (8130x8130) in 16x16
    tiles, cut at map 34 (127x127) with the layers above it, up to the
    31x31 split map, run whole, models 99.11% less peak activation memory
    than whole-image, in double precision, at batch 1."""
    doc = {"version": 1, "network": {"preset": "giga64mp"}, "image_size": 8130, "grid": [16, 16]}
    out = tmp_path / "out"
    assert main(["plan", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert "tiles: 257  grid: 16x16  segment grids: 16x16,1x1" in capsys.readouterr().out
    memory = json.loads((out / "memory.json").read_text())
    item = 8
    params = 13_283_025 * item
    head_params = (192 * 31 ** 2 * 64 + 64 + 64 + 1) * item  # the two dense layers
    checkpoint = 192 * 127 ** 2 * item   # map 34
    split = 192 * 31 ** 2 * item
    head = (64 + 1) * item               # the two dense outputs
    tile = 202_620_288                   # the largest 16x16 tile's term
    assert memory["streaming"]["peak_tile_forward_bytes"] == tile
    # the backward peak of the lower segment's tile phase: parameters, the
    # streaming layers' gradients (the head's are formed after the last
    # tile), both cut maps, the head, map 34's gradient and a tile
    stream = params + (params - head_params) + checkpoint + split + head + checkpoint + tile
    assert memory["streaming"]["peak_bytes"] == memory["streaming"]["peak_tiles_bytes"] \
        == stream == 371_702_416
    # the head-gradient phase: parameters, the whole gradient set, the cut maps and the head
    assert memory["streaming"]["peak_head_grads_bytes"] == 2 * params + checkpoint + split + head
    whole = memory["whole_image"]["peak_bytes"]
    assert whole == 41_673_293_304
    assert memory["reduction_percent"] == 100 * (1 - stream / whole)
    assert round(memory["reduction_percent"], 2) == 99.11


def test_plan_builds_one_section_per_grid(tmp_path, capsys, monkeypatch):
    """plan models each grid once: the configured one for the plan and its
    candidate lines, and one per other grid line (giga64mp@8130 prints
    grids 1x1 to 16x16 on its 31x31 split map, five in all)."""
    grids = []
    section_init = planner._Section.__init__

    def counting(self, net, image_size, grid, precision="double", batch=1):
        grids.append(tuple(grid))
        section_init(self, net, image_size, grid, precision, batch)

    monkeypatch.setattr(planner._Section, "__init__", counting)
    doc = {"version": 1, "network": {"preset": "giga64mp"}, "image_size": 8130, "grid": [16, 16]}
    assert main(["plan", "--config", write_config(tmp_path, doc)]) == 0
    assert "grid 16x16: recompute" in capsys.readouterr().out
    assert sorted(grids) == [(g, g) for g in (1, 2, 4, 8, 16)]


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("command", ["train", "bench"])
def test_steps_get_images_in_the_parameters_dtype(tmp_path, monkeypatch, command, precision):
    """train and bench cast the dataset once, so no step copies an image
    to the parameters' dtype."""
    seen, train_step = [], cli.train_step

    def checking(net, params, batch, lr, plan):
        dtype = next(p.w.dtype for p in params if p is not None)
        seen.extend(sample.image.dtype == dtype for sample in batch)
        return train_step(net, params, batch, lr, plan)

    monkeypatch.setattr(cli, "train_step", checking)
    assert main([command, "--config", write_config(tmp_path, CONFIG), "--precision", precision,
                 "--out", str(tmp_path / "out")]) == 0
    assert seen and all(seen)
