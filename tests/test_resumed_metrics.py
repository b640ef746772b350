"""metrics scores a cut-and-resumed run as the run it continues.

After `estimate --limit c` and a `--from-checkpoint` resume of every run,
`metrics` reads each run's cut files followed by its `_resumed` files, so
its products equal those of the uncut `estimate -> metrics` byte for byte.
A run set where only some runs were resumed, or a resumed file that does
not continue its cut file (a resume of the checkpoint of an earlier
estimate in the same directory, or of a checkpoint without its emit_every
under another one), is a data error naming the runs or the files.  So is
a resume under another estimator config or emit_every than the cut's,
named by the checkpoint and the key.
"""

import json
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rffgraph.cli import main as cli_main

N, P, T, RUNS = 3, 2, 90, 2
REGIMES = {"switching": {"switch_interval": 30}, "drift": {"drift": True}}
PRODUCTS = ("pmd.csv", "pfa.csv", "mse.csv", "report.json")


def _config(path, regime, K):
    path.write_text(json.dumps({
        "runs": RUNS, "base_seed": 3, "output_dir": str(path.parent / "out"), "emit_every": K,
        "generator": {"N": N, "P": P, "T": T, "edge_probability": 0.3, "noise_std": 0.1,
                      **REGIMES[regime]},
        "estimator": {"N": N, "P": P, "D": 4, "lambda": 0.1, "gamma": 100.0,
                      "kernel_variance": 0.1, "rff_seed": 5},
        "metrics": {"delta": 0.05, "mse_window": 20}}))
    return str(path)


def _cut_and_resume(cfg, out, cut, runs=range(RUNS)):
    assert cli_main(["estimate", cfg, "--limit", str(cut)]) == 0
    for r in runs:
        assert cli_main(["estimate", cfg, "--from-checkpoint",
                         str(out / f"run{r:03d}_checkpoint.json")]) == 0


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(regime=st.sampled_from(sorted(REGIMES)), K=st.sampled_from([1, 7]),
       cut=st.integers(P + 1, T - 1))
@example(regime="switching", K=7, cut=T - 1)  # the resume emits no estimates row
def test_metrics_after_cut_and_resume_equals_the_uncut_metrics(tmp_path_factory, regime, K,
                                                               cut):
    d = tmp_path_factory.mktemp("resume")
    cfg, out = _config(d / "exp.json", regime, K), d / "out"
    for command in ("generate", "estimate", "metrics"):
        assert cli_main([command, cfg]) == 0
    uncut = {name: (out / name).read_bytes() for name in PRODUCTS}
    shutil.rmtree(out)
    assert cli_main(["generate", cfg]) == 0
    _cut_and_resume(cfg, out, cut)
    assert cli_main(["metrics", cfg]) == 0
    assert {name: (out / name).read_bytes() for name in PRODUCTS} == uncut


def test_a_partly_resumed_run_set_is_a_data_error_listing_the_runs(tmp_path, capsys):
    cfg, out = _config(tmp_path / "exp.json", "switching", 1), tmp_path / "out"
    assert cli_main(["generate", cfg]) == 0
    _cut_and_resume(cfg, out, 40, runs=[1])
    capsys.readouterr()
    assert cli_main(["metrics", cfg]) == 3
    assert "runs without a resume: [0]" in capsys.readouterr().err


@pytest.mark.parametrize("later", [[], ["--limit", "30"], ["--limit", "60"]],
                         ids=["uncut", "earlier cut", "later cut"])
def test_a_resume_left_by_an_earlier_estimate_is_a_data_error_naming_both_files(
        tmp_path, capsys, later):
    cfg, out = _config(tmp_path / "exp.json", "switching", 1), tmp_path / "out"
    assert cli_main(["generate", cfg]) == 0
    assert cli_main(["estimate", cfg, "--limit", "45"]) == 0
    kept = tmp_path / "kept"
    kept.mkdir()
    for r in range(RUNS):
        shutil.copy(out / f"run{r:03d}_checkpoint.json", kept)
    assert cli_main(["estimate", cfg] + later) == 0
    for r in range(RUNS):  # resumes of the earlier estimate's cut
        assert cli_main(["estimate", cfg, "--from-checkpoint",
                         str(kept / f"run{r:03d}_checkpoint.json")]) == 0
    capsys.readouterr()
    assert cli_main(["metrics", cfg]) == 3
    err = capsys.readouterr().err
    assert f"{out / 'run000_estimates_resumed.npy'} does not continue " \
           f"{out / 'run000_estimates.npy'}" in err


@pytest.mark.parametrize("key, value", [("lambda", 5.0), ("rff_seed", 9)])
def test_a_resume_under_another_estimator_config_is_a_data_error_naming_the_key(
        tmp_path, capsys, key, value):
    cfg, out = _config(tmp_path / "exp.json", "switching", 1), tmp_path / "out"
    assert cli_main(["generate", cfg]) == 0
    assert cli_main(["estimate", cfg, "--limit", "45"]) == 0
    obj = json.loads((tmp_path / "exp.json").read_text())
    obj["estimator"][key] = value
    (tmp_path / "exp.json").write_text(json.dumps(obj))
    ckpt = out / "run001_checkpoint.json"
    capsys.readouterr()
    assert cli_main(["estimate", cfg, "--from-checkpoint", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {ckpt}: estimator {key} is ")
    assert not (out / "run001_estimates_resumed.npy").exists()


def test_a_resume_under_another_emit_every_names_both_causes(tmp_path, capsys):
    # the checkpoint records emit_every, so the resume itself is a data error
    cfg, out = _config(tmp_path / "exp.json", "switching", 1), tmp_path / "out"
    assert cli_main(["generate", cfg]) == 0
    assert cli_main(["estimate", cfg, "--emit-every", "3", "--limit", "45"]) == 0
    capsys.readouterr()
    ckpt = out / "run000_checkpoint.json"
    assert cli_main(["estimate", cfg, "--emit-every", "5", "--from-checkpoint", str(ckpt)]) == 3
    assert capsys.readouterr().err.startswith(
        f"data error: {ckpt}: extra.emit_every is 3 in the checkpoint but 5 in the config")
    # a checkpoint without the record resumes, and metrics names both causes
    for r in range(RUNS):
        ckpt = out / f"run{r:03d}_checkpoint.json"
        obj = json.loads(ckpt.read_text())
        del obj["extra"]["emit_every"]
        copy = tmp_path / ckpt.name
        copy.write_text(json.dumps(obj))
        assert cli_main(["estimate", cfg, "--emit-every", "5", "--from-checkpoint",
                         str(copy)]) == 0
    capsys.readouterr()
    assert cli_main(["metrics", cfg]) == 3
    err = capsys.readouterr().err
    assert "does not continue" in err and "earlier estimate's checkpoint" in err
    assert "another emit_every" in err
