"""The benchmark's workloads: their inputs, one timed round, and their checks.

A round is a fixed list of operations run by one caller in a closed loop;
every round of a run repeats the same operations on the same inputs, so a
run's rounds must produce byte-identical outputs.  `prepare` and `check`
run in the benchmark's own process, `worker_setup` and `run_round` in the
worker process.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from pathlib import Path

import numpy as np

import checks

ENV_OUTPUT_DIR = "RFFGRAPH_OUTPUT_DIR"

# The estimator and metric settings of configs/switching.json and
# configs/drift.json, kept here so that the benchmark's inputs do not move
# when the shipped configs do.
ESTIMATOR = {"lambda": 0.1, "gamma": 1000.0, "kernel_variance": 0.1}
GENERATOR = {"edge_probability": 0.1, "kernel_variance": 0.01, "beta_variance": 30.0, "M": 10}
METRICS = {"delta": 0.05, "exclude_self_loops": True, "mse_window": 100}


def experiment_config(N, P, D, T, runs, base_seed, rff_seed, **generator):
    return {
        "runs": runs, "base_seed": base_seed, "output_dir": "out",
        "generator": {"N": N, "P": P, "T": T, **GENERATOR, **generator},
        "estimator": {"N": N, "P": P, "D": D, **ESTIMATOR, "rff_seed": rff_seed},
        "metrics": METRICS,
    }


def cli_call(argv):
    """One CLI invocation through rffgraph.cli.main; (ok, seconds, stdout)."""
    from rffgraph import cli
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # an uncaught program error fails this operation only
        traceback.print_exc()
        rc = None
    return rc == 0, time.perf_counter() - t0, buf.getvalue()


class Workload:
    name = ""
    runs = 1  # experiment runs per round; 0 when no config runs are streamed
    writes_files = True  # the round's operations write the program's output files

    def config(self, seed):
        raise NotImplementedError

    def prepare(self, work: Path, seed: int):
        """Write the inputs of every round into `work`."""
        (work / "config.json").write_text(json.dumps(self.config(seed), indent=1))

    def worker_setup(self, work: Path):
        """Load, before timing starts, what every round of the worker reuses."""

    def samples_per_round(self, cfg):
        return self.runs * cfg["generator"]["T"]

    def reference_figures(self, work):
        """Quality figures printed beside the metrics, from the first round's outputs."""
        return {}


class SwitchingPipeline(Workload):
    """generate, estimate, metrics on the shape of configs/switching.json."""

    name = "switching-pipeline"
    runs = 2

    def config(self, seed):
        from rffgraph import GeneratorConfig, init_topology
        cfg = experiment_config(N=5, P=2, D=50, T=3000, runs=self.runs, base_seed=0,
                                rff_seed=10_000 + 1000 * seed,
                                switch_interval=1000, noise_std=0.3)
        # A switching series needs an edge to switch: skip data seeds whose
        # initial topology has none, as the acceptance tests do.
        def usable(s):
            topo = init_topology(GeneratorConfig(seed=s, **cfg["generator"]))
            return 0 < topo.n_active() < topo.active.size

        base = 11 + 1000 * seed
        while not all(usable(base + r) for r in range(self.runs)):
            base += 1
        cfg["base_seed"] = base
        return cfg

    def run_round(self, work, out):
        conf = str(work / "config.json")
        rec = {"stages": {}, "ops": 0, "failed": 0}
        for stage in ("generate", "estimate", "metrics"):
            ok, dt, _ = cli_call([stage, conf])
            rec["stages"][f"{stage}_s"] = dt
            rec["ops"] += 1
            rec["failed"] += not ok
        rec["wall_s"] = sum(rec["stages"].values())
        rec["estimator_s"] = rec["stages"]["estimate_s"]
        return rec

    def check(self, work, first):
        cfg = json.loads((work / "config.json").read_text())
        out = work / "first"
        g, e = cfg["generator"], cfg["estimator"]
        res = []
        for r in range(self.runs):
            _, _, data = checks.read_table(out / f"run{r:03d}_data.csv")
            res += checks.check_stream(
                f"run {r}", data.T, frequencies(work, r), 1.0 / e["gamma"], e["lambda"],
                [out / f"run{r:03d}_predictions.csv"], [out / f"run{r:03d}_estimates.csv"],
                g["N"], g["P"])
        res += checks.check_metrics(out, self.runs, g["N"], g["P"], cfg["metrics"]["delta"])
        return res

    def reference_figures(self, work):
        """Steady-state P_MD (last 500 samples of each inter-switch segment) and
        terminal MSE (mean of the ensemble curve's last 100 samples)."""
        cfg = json.loads((work / "config.json").read_text())
        g = cfg["generator"]
        _, t, pmd = checks.read_table(work / "first" / "pmd.csv")
        _, _, mse = checks.read_table(work / "first" / "mse.csv")
        ends = [g["P"] + g["switch_interval"] * k for k in (1, 2)] + [g["T"]]
        segs = [pmd[(t >= end - 500) & (t < end), 0] for end in ends]
        return {"steady_state_pmd": float(np.mean([np.nanmean(s) for s in segs])),
                "terminal_mse": float(np.nanmean(mse[-100:, 0]))}


class WideStream(Workload):
    """N=50 samples handed one at a time to OnlineEstimator.step, each followed
    by pseudo_adjacency(); the estimator starts afresh every round."""

    name = "wide-stream"
    runs = 0
    writes_files = False
    T = 120

    def config(self, seed):
        return experiment_config(N=50, P=3, D=50, T=self.T, runs=1, base_seed=11 + 1000 * seed,
                                 rff_seed=50_000 + 1000 * seed,
                                 switch_interval=40, noise_std=0.3)

    def prepare(self, work, seed):
        super().prepare(work, seed)
        from rffgraph import experiment, generate
        cfg = experiment.load_experiment(work / "config.json")
        np.save(work / "series.npy", generate(cfg.generator_for_run(0)).values)

    def samples_per_round(self, cfg):
        return self.T

    def worker_setup(self, work):
        from rffgraph import experiment
        self.est_cfg = experiment.load_experiment(work / "config.json").estimator_for_run(0)
        self.values = np.load(work / "series.npy")

    def run_round(self, work, out):
        from rffgraph import OnlineEstimator
        values = self.values
        N, T = values.shape
        preds = np.full((N, T), np.nan)
        adj = None
        lat = []
        failed = 0
        clock = time.perf_counter_ns
        t_start = clock()
        est = OnlineEstimator(self.est_cfg)
        for t in range(T):
            x = values[:, t]
            try:
                t0 = clock()
                step_out = est.step(x)
                row = est.pseudo_adjacency()
                t1 = clock()
            except Exception:  # an uncaught program error fails this sample only
                traceback.print_exc()
                failed += 1
                continue
            lat.append((t1 - t0) * 1e-3)
            if adj is None:
                adj = np.zeros((T,) + row.shape)
            adj[t] = row
            if step_out is not None:
                preds[:, t] = step_out[0]
        wall = (clock() - t_start) * 1e-9
        np.save(out / "predictions.npy", preds)
        np.save(out / "pseudo_adjacency.npy", adj if adj is not None else np.zeros(0))
        est_s = sum(lat) * 1e-6
        return {"stages": {"estimate_s": est_s}, "ops": T, "failed": failed, "wall_s": wall,
                "estimator_s": est_s, "latencies_us": lat}

    def check(self, work, first):
        e = json.loads((work / "config.json").read_text())["estimator"]
        values = np.load(work / "series.npy")
        preds_ref, adj_ref = checks.reference_stream(
            values, frequencies(work, 0), 1.0 / e["gamma"], e["lambda"])
        preds = np.load(work / "first" / "predictions.npy")
        adj = np.load(work / "first" / "pseudo_adjacency.npy")
        return [("stream: predictions", *checks.agree(preds, preds_ref)),
                ("stream: pseudo-adjacency rows", *checks.agree(adj, adj_ref))]


class DriftResume(Workload):
    """estimate --limit (thinned) on the shape of configs/drift.json, resume of
    every run with --from-checkpoint, then replay of the resume manifest."""

    name = "drift-resume"
    runs = 2
    LIMIT = 2000
    EMIT_EVERY = 7

    def config(self, seed):
        return experiment_config(N=5, P=2, D=50, T=4000, runs=self.runs,
                                 base_seed=11 + 1000 * seed, rff_seed=30_000 + 1000 * seed,
                                 switch_interval=0, drift=True, drift_scope="all",
                                 noise_std=0.01)

    def run_round(self, work, out):
        conf = str(work / "config.json")
        thin = ["--emit-every", str(self.EMIT_EVERY)]
        rec = {"stages": {}, "ops": 0, "failed": 0}
        ok, dt, _ = cli_call(["estimate", conf, "--limit", str(self.LIMIT)] + thin)
        rec["stages"]["estimate_s"] = dt
        rec["ops"] += 1
        rec["failed"] += not ok
        resume = 0.0
        for r in range(self.runs):
            ckpt = str(out / f"run{r:03d}_checkpoint.json")
            ok, dt, _ = cli_call(["estimate", conf, "--from-checkpoint", ckpt] + thin)
            resume += dt
            rec["ops"] += 1
            rec["failed"] += not ok
        rec["stages"]["resume_s"] = resume
        before = checks.hash_dir(out)
        ok, dt, stdout = cli_call(["replay", str(out / "estimate_manifest.json")])
        rec["stages"]["replay_s"] = dt
        rec["ops"] += 1
        rec["failed"] += not ok
        rec["replay"] = {"before": before, "after": checks.hash_dir(out),
                         "written": [Path(p).name for p in stdout.split()]}
        rec["wall_s"] = sum(rec["stages"].values())
        rec["estimator_s"] = rec["stages"]["estimate_s"] + resume
        return rec

    def check(self, work, first):
        from rffgraph import experiment, generate
        cfg = json.loads((work / "config.json").read_text())
        exp = experiment.load_experiment(work / "config.json")
        out = work / "first"
        e = cfg["estimator"]
        res = []
        for r in range(self.runs):
            values = generate(exp.generator_for_run(r)).values
            pre = f"run{r:03d}"
            res += checks.check_stream(
                f"run {r}", values, frequencies(work, r), 1.0 / e["gamma"], e["lambda"],
                [out / f"{pre}_predictions.csv", out / f"{pre}_predictions_resumed.csv"],
                [out / f"{pre}_estimates.csv", out / f"{pre}_estimates_resumed.csv"],
                e["N"], e["P"])
        rep = first["replay"]
        res.append(checks.check_replay(rep["before"], rep["written"], rep["after"]))
        return res


def frequencies(work, r):
    """The (P, N, D) frequencies of run r, read from the estimator's public maps."""
    from rffgraph import OnlineEstimator, experiment
    exp = experiment.load_experiment(work / "config.json")
    return OnlineEstimator(exp.estimator_for_run(r)).maps.frequencies


WORKLOADS = {w.name: w for w in (SwitchingPipeline(), WideStream(), DriftResume())}
