"""Smoke runs of every CLI command and their exit codes."""

import json

import pytest

from tilestream.cli import main

# conv3/p1 -> maxpool -> conv3/s2 on a 32x32 image; no relu, so finite
# differences never straddle a kink.
CONFIG = {
    "version": 1,
    "network": {"in_channels": 1, "split_index": 3, "layers": [
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
        assert "recompute: " in capsys.readouterr().out


def test_malformed_config_exits_1(tmp_path):
    assert main(["plan", "--config", write_config(tmp_path, "{not json")]) == 1


def test_grid_beyond_split_map_exits_2(tmp_path):
    doc = dict(CONFIG, grid=[8, 8])  # split map is 7x7
    assert main(["plan", "--config", write_config(tmp_path, doc)]) == 2
