"""An output file that cannot be written is a named error, not a traceback.

Each output the CLI writes is replaced by a directory before the command
that writes it (or, for a stale `_resumed` file, deletes it).  The command
must exit 3 (a data error) and name the file in its message.  So must a
command whose output directory is a regular file.
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

CUT = ["estimate", "--limit", "30"]
RESUME = ["estimate", "--from-checkpoint", "run000_checkpoint.json"]
ESTIMATED = [["estimate"]]

# output -> (the commands run after generate, the command that writes it)
OUTPUTS = {
    "run000_data.csv": ([], ["generate"]),
    "run000_topology.jsonl": ([], ["generate"]),
    "generate_manifest.json": ([], ["generate"]),
    "run000_estimates.csv": ([], ["estimate"]),
    "run000_estimates.npy": ([], ["estimate"]),
    "run000_predictions.csv": ([], ["estimate"]),
    "run000_residuals.npy": ([], ["estimate"]),
    "run000_checkpoint.json": ([], CUT),
    "estimate_manifest.json": ([], ["estimate"]),
    "estimate_initial_manifest.json": ([], ["estimate"]),
    "run000_estimates_resumed.npy": ([CUT], RESUME),
    "run000_checkpoint_resumed.json": ([CUT], RESUME),
    "run000_estimate_resumed_manifest.json": ([CUT], RESUME),
    "pmd.csv": (ESTIMATED, ["metrics"]),
    "report.json": (ESTIMATED, ["metrics"]),
    "metrics_manifest.json": (ESTIMATED, ["metrics"]),
    "bench.csv": ([], ["bench", "--T", "40"]),
    "bench_manifest.json": ([], ["bench", "--T", "40"]),
    # a fresh estimate deletes the resume files an earlier estimate left
    "stale run000_residuals_resumed.npy": ([], ["estimate"]),
}


def _argv(command, cfg, out):
    """A command of OUTPUTS as CLI arguments: the config after the command's
    name, and run file names as paths in out."""
    name, *options = command
    return [name, str(cfg)] + [str(out / o) if o.startswith("run") else o for o in options]


def _assert_named_data_error(capsys, argv, path):
    capsys.readouterr()
    assert cli_main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err and "Traceback" not in err, err


@pytest.mark.parametrize("output", list(OUTPUTS))
def test_an_output_replaced_by_a_directory_is_a_named_error(tmp_path, capsys, output):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({**BASE, "output_dir": str(out)}))
    before, command = OUTPUTS[output]
    for earlier in [["generate"]] * (command[0] != "generate") + before:
        assert cli_main(_argv(earlier, cfg, out)) == 0
    path = out / output.split()[-1]
    path.unlink(missing_ok=True)
    path.mkdir(parents=True)
    _assert_named_data_error(capsys, _argv(command, cfg, out), path)


@pytest.mark.parametrize("command", ["generate", "estimate", "metrics", "bench"])
def test_an_output_directory_that_is_a_file_is_a_named_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    out.write_text("")
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({**BASE, "output_dir": str(out)}))
    _assert_named_data_error(capsys, [command, str(cfg)], out)
