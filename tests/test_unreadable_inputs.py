"""An input file that cannot be read as text is a named error, not a traceback.

Each input the CLI reads is replaced by a directory or made to hold a byte
that is not UTF-8.  The command must exit with the documented code (2 for
a config file or a manifest, 3 for a data file or a checkpoint) and name
the file in its message.
"""

import json

import pytest

from rffgraph.cli import main as cli_main

BASE = {
    "runs": 1, "base_seed": 3,
    "generator": {"N": 3, "P": 2, "T": 60, "edge_probability": 0.3, "noise_std": 0.1},
    "estimator": {"N": 3, "P": 2, "D": 4, "lambda": 0.1, "gamma": 100.0, "rff_seed": 5},
    "metrics": {"delta": 0.05, "mse_window": 20},
}


def _not_utf8(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2:])


def _directory(path):
    path.unlink()
    path.mkdir()


def _setup(tmp_path):
    """A generated and estimated run; returns (config path, output directory)."""
    out = tmp_path / "out"
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({**BASE, "output_dir": str(out)}))
    for command in ("generate", "estimate"):
        assert cli_main([command, str(cfg)]) == 0
    return cfg, out


def _inputs(tmp_path, cfg, out):
    """input -> (the file to damage, the command that reads it, its exit code)."""
    csv = tmp_path / "series.csv"
    csv.write_bytes((out / "run000_data.csv").read_bytes())
    csv_cfg = tmp_path / "from_csv.json"
    csv_cfg.write_text(json.dumps({**{k: v for k, v in BASE.items() if k != "generator"},
                                   "output_dir": str(tmp_path / "csv_out"),
                                   "data_csv": str(csv)}))
    ckpt, manifest = out / "run000_checkpoint.json", out / "estimate_manifest.json"
    metrics = ["metrics", str(cfg)]
    return {
        "config": (cfg, ["generate", str(cfg)], 2),
        "manifest": (manifest, ["replay", str(manifest)], 2),
        "checkpoint": (ckpt, ["estimate", str(cfg), "--from-checkpoint", str(ckpt)], 3),
        "data_csv": (csv, ["estimate", str(csv_cfg)], 3),
        "topology": (out / "run000_topology.jsonl", metrics, 3),
    }


@pytest.mark.parametrize("damage", [_directory, _not_utf8], ids=["directory", "not UTF-8"])
@pytest.mark.parametrize("name", ["config", "manifest", "checkpoint", "data_csv", "topology"])
def test_an_unreadable_input_is_a_named_error(tmp_path, capsys, name, damage):
    cfg, out = _setup(tmp_path)
    path, argv, code = _inputs(tmp_path, cfg, out)[name]
    damage(path)
    capsys.readouterr()
    assert cli_main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "data error: ")
    assert str(path) in err
