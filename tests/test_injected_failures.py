"""Every file the CLI opens, made to fail in turn.

`io.opened` is the one opener of every file the package reads or writes.
Each command of a 2-run switching flow (generate, a cut, a resume of each
run, metrics, a replay of the cut, bench) is run once per open it makes,
with that open failing in one of three ways: an OSError (ENOSPC) from the
open itself, the same error from the file's first read or write, and a
KeyboardInterrupt from the open.  An OSError must end in exit 2 when the
file is the config file or a manifest being read and in exit 3 otherwise,
with one stderr line naming the file, nothing on stdout and no traceback.
A KeyboardInterrupt must propagate, as a user's Ctrl-C should.

Each command's input directory is made once, by running the flow, and
copied for every case.  What a failed command leaves behind is not checked
here: a command that fails part-way still leaves the files it wrote.
"""

import builtins
import errno
import json
import os
import shutil
from pathlib import Path

import pytest

from rffgraph import io
from rffgraph.cli import main as cli_main

CONFIG = {
    "runs": 2, "base_seed": 3, "output_dir": "out",
    "generator": {"N": 3, "P": 2, "T": 80, "edge_probability": 0.3, "switch_interval": 30,
                  "noise_std": 0.1},
    "estimator": {"N": 3, "P": 2, "D": 4, "lambda": 0.1, "gamma": 100.0,
                  "kernel_variance": 0.1, "rff_seed": 5},
    "metrics": {"delta": 0.05, "mse_window": 20},
}

# (name, argv), run in this order in one directory, relative to it
FLOW = [
    ("generate", ["generate", "exp.json"]),
    ("cut", ["estimate", "exp.json", "--limit", "40"]),
    ("resume run000", ["estimate", "exp.json", "--from-checkpoint",
                       "out/run000_checkpoint.json"]),
    ("resume run001", ["estimate", "exp.json", "--from-checkpoint",
                       "out/run001_checkpoint.json"]),
    ("metrics", ["metrics", "exp.json"]),
    ("replay the cut", ["replay", "out/estimate_initial_manifest.json"]),
    ("bench", ["bench", "exp.json"]),
]

FAILURES = ["at open", "at the first read or write", "interrupt"]


def _enospc():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FailingFile:
    """An open file whose first read or write raises ENOSPC."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def _fail(self, *args):
        raise _enospc()

    read = readline = readinto = write = writelines = __iter__ = _fail


def _opener(calls, k=None, failure=None):
    """An `open` for io that records each (path, mode) in calls and fails
    the k-th call (from 0) as failure says."""
    def fake_open(path, mode):
        calls.append((Path(path), mode))
        if len(calls) - 1 != k:
            return builtins.open(path, mode)
        if failure == "interrupt":
            raise KeyboardInterrupt
        if failure == "at open":
            raise _enospc()
        return _FailingFile(builtins.open(path, mode))
    return fake_open


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """For each command of FLOW, a copy of the directory it starts from and
    the number of files it opens."""
    work = tmp_path_factory.mktemp("flow")
    (work / "exp.json").write_text(json.dumps(CONFIG))
    steps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("RFFGRAPH_OUTPUT_DIR", raising=False)
        mp.chdir(work)
        for i, (_, argv) in enumerate(FLOW):
            before = tmp_path_factory.mktemp(f"before{i}")
            shutil.copytree(work, before, dirs_exist_ok=True)
            calls = []
            mp.setattr(io, "open", _opener(calls), raising=False)
            assert cli_main(argv) == 0
            steps.append((before, len(calls)))
    return steps


@pytest.mark.parametrize("failure", FAILURES)
@pytest.mark.parametrize("step", range(len(FLOW)), ids=[name for name, _ in FLOW])
def test_every_open_that_fails_ends_as_documented(flow, tmp_path, monkeypatch, capsys, step,
                                                  failure):
    argv = FLOW[step][1]
    before, opens = flow[step]
    monkeypatch.delenv("RFFGRAPH_OUTPUT_DIR", raising=False)
    for k in range(opens):
        case = tmp_path / f"open{k}"
        shutil.copytree(before, case)
        monkeypatch.chdir(case)
        calls = []
        monkeypatch.setattr(io, "open", _opener(calls, k, failure), raising=False)
        capsys.readouterr()
        if failure == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                cli_main(argv)
            continue
        code = cli_main(argv)
        out, err = capsys.readouterr()
        path, mode = calls[k]
        settings = "r" in mode and (path.name == "exp.json" or path.name.endswith("_manifest.json"))
        assert (code, out, err.count("\n")) == (2 if settings else 3, "", 1), (k, path, err)
        assert err.startswith("config error: " if settings else "data error: ") and \
            str(path) in err, (k, err)
