"""The binary estimates file beside each estimates CSV, and the metrics stage
that reads it one run at a time."""

import json
import weakref

import numpy as np
import pytest

from rffgraph import DataError, DetectionCounts
from rffgraph.cli import main as cli_main

from whole_files import estimates, estimates_csv

BASE = {
    "runs": 2,
    "base_seed": 3,
    "generator": {"N": 3, "P": 2, "T": 120, "edge_probability": 0.3,
                  "switch_interval": 50, "noise_std": 0.1},
    "estimator": {"N": 3, "P": 2, "D": 8, "lambda": 0.1, "gamma": 100.0,
                  "kernel_variance": 0.1, "rff_seed": 5},
    "metrics": {"delta": 0.05, "mse_window": 20},
}


def _cfg(tmp_path, **updates):
    obj = json.loads(json.dumps(BASE))
    obj.update(output_dir=str(tmp_path / "out"), **updates)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(obj))
    return path


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("argv, resume", [
    ([], False), (["--emit-every", "3"], False), (["--emit-every", "3", "--limit", "61"], True),
], ids=["fresh", "emit-every 3", "limit cut and its resume"])
def test_npy_holds_the_csv_rows_bit_for_bit(tmp_path, argv, resume):
    cfg_path = _cfg(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["estimate", str(cfg_path)] + argv) == 0
    names = [f"run{r:03d}_estimates" for r in range(2)]
    if resume:
        for r in range(2):
            assert cli_main(["estimate", str(cfg_path), "--emit-every", "3", "--from-checkpoint",
                             str(out / f"run{r:03d}_checkpoint.json")]) == 0
        names += [f"run{r:03d}_estimates_resumed" for r in range(2)]
    for name in names:
        t_csv, est_csv = estimates_csv(out / f"{name}.csv", 3, 2)
        t_npy, est_npy = estimates(out / f"{name}.npy", 3, 2)
        assert np.array_equal(t_csv, t_npy), name
        assert _same_bits(est_csv, est_npy), name
        table = np.load(out / f"{name}.npy")
        assert table.dtype == np.float64 and table.shape == (len(t_csv), 1 + 3 * 3 * 2)


def test_metrics_needs_no_estimates_csv(tmp_path):
    cfg_path = _cfg(tmp_path)
    out = tmp_path / "out"
    for command in ("generate", "estimate", "metrics"):
        assert cli_main([command, str(cfg_path)]) == 0
    products = ("pmd.csv", "pfa.csv", "mse.csv", "report.json")
    before = {name: (out / name).read_bytes() for name in products}
    for r in range(2):
        (out / f"run{r:03d}_estimates.csv").unlink()
    for name in products:
        (out / name).unlink()
    assert cli_main(["metrics", str(cfg_path)]) == 0
    assert {name: (out / name).read_bytes() for name in products} == before


def _with_fractional_t(table):
    table[3, 0] += 0.5
    return table


# defect -> (rewrite of the file, text the data error must carry)
DEFECTS = {
    "missing": (lambda p: p.unlink(), "re-run estimate"),
    "truncated": (lambda p: p.write_bytes(p.read_bytes()[:-9]), "unreadable"),
    "header only": (lambda p: p.write_bytes(p.read_bytes()[:40]), "unreadable"),
    "text": (lambda p: p.write_text("t,b_1_1_1\n2,0.5\n"), "unreadable"),
    "wide": (lambda p: np.save(p, np.pad(np.load(p), ((0, 0), (0, 1)))), "array for N=3, P=2"),
    "narrow": (lambda p: np.save(p, np.load(p)[:, :-1]), "array for N=3, P=2"),
    "flat": (lambda p: np.save(p, np.load(p).ravel()), "array for N=3, P=2"),
    "integer dtype": (lambda p: np.save(p, np.load(p).astype(np.int64)), "float64"),
    "no rows": (lambda p: np.save(p, np.load(p)[:0]), "no estimates rows"),
    "fractional t": (lambda p: np.save(p, _with_fractional_t(np.load(p))), "integers"),
}


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_bad_estimates_npy_is_a_data_error_naming_the_file(tmp_path, capsys, defect):
    rewrite, message = DEFECTS[defect]
    cfg_path = _cfg(tmp_path)
    for command in ("generate", "estimate"):
        assert cli_main([command, str(cfg_path)]) == 0
    path = tmp_path / "out" / "run001_estimates.npy"
    rewrite(path)
    with pytest.raises(DataError, match=message):
        estimates(path, 3, 2)
    capsys.readouterr()
    assert cli_main(["metrics", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "run001_estimates.npy" in err and message in err


def _ensemble(runs=4, T=6, N=3, P=2, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.random((T, N, N, P)), rng.random((T, N, N, P)) < 0.3) for _ in range(runs)]


def test_pmd_pfa_lets_go_of_each_run_it_has_counted():
    refs, alive = [], []

    def runs():
        for k in range(5):
            est, truth = _ensemble(runs=1, seed=k)[0]
            # while run k is drawn, the counting loop may still hold run k - 1,
            # and DetectionCounts none
            alive.extend(ref() is not None for ref in refs[:-1])
            refs.append(weakref.ref(est))
            yield est, truth

    counts = DetectionCounts()
    for est, truth in runs():
        counts.add(est, truth)
    assert len(refs) == 5 and len(alive) == 6 and not any(alive)
