"""An array that cannot be allocated ends in exit 5 and one named line.

Nothing here allocates for real: the generator's first large allocation,
`init_bank`, is replaced by one that raises numpy's own message.
"""

import json

import pytest

from rffgraph import generator
from rffgraph.cli import main as cli_main

MESSAGE = ("Unable to allocate 1.34 GiB for an array with shape (3000, 3000, 2, 10) "
           "and data type float64")

CONFIG = {
    "runs": 1, "base_seed": 3,
    "generator": {"N": 3, "P": 2, "T": 60, "edge_probability": 0.3, "noise_std": 0.1},
    "estimator": {"N": 3, "P": 2, "D": 4, "lambda": 0.1, "gamma": 100.0, "rff_seed": 5},
}


@pytest.mark.parametrize("command", ["generate", "estimate"])
def test_an_allocation_that_fails_is_exit_5_naming_the_command_and_shape(
        tmp_path, capsys, monkeypatch, command):
    def init_bank(cfg, rng):
        raise MemoryError(MESSAGE)

    monkeypatch.setattr(generator, "init_bank", init_bank)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(dict(CONFIG, output_dir=str(tmp_path / "out"))))
    assert cli_main([command, str(cfg)]) == 5
    out, err = capsys.readouterr()
    assert err == f"out of memory: {command}: {MESSAGE}\n"
    assert out == ""
