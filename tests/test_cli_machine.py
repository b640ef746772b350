"""A state machine over `cli.main`: after `generate`, any sequence of fresh
estimates (cut or not, thinned or not), resumes of single runs, metrics and
replays keeps the CLI's promises.

- Every call exits 0, 2, 3 or 4; an uncaught exception fails the test.
- Checked after every step: only runs resumed since the latest fresh
  estimate have `_resumed` files, and `metrics` exits 0 once every run of
  that estimate is either uncut or cut and resumed, whatever earlier
  estimates left in the directory.
- Replaying the manifest the last command wrote rewrites every file it
  lists byte for byte.

`generate` runs once, first, as the machine's initialize rule.  Resumes are
drawn only when the latest fresh estimate was cut.
"""

import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from rffgraph.cli import main as cli_main

N, P, D, T, RUNS = 3, 2, 5, 60, 2


class CliMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="cli-machine-"))
        self.out = self.dir / "out"
        self.cfg = str(self.dir / "exp.json")
        Path(self.cfg).write_text(json.dumps({
            "runs": RUNS, "base_seed": 3, "output_dir": str(self.out),
            "generator": {"N": N, "P": P, "T": T, "edge_probability": 0.3,
                          "switch_interval": 20, "noise_std": 0.1},
            "estimator": {"N": N, "P": P, "D": D, "lambda": 0.1, "gamma": 100.0,
                          "kernel_variance": 0.1, "rff_seed": 5},
            "metrics": {"delta": 0.05, "mse_window": 10}}))
        self.fresh = None  # (emit_every, whether cut) of the latest fresh estimate
        self.resumed = set()  # runs resumed since then
        self.manifest = None  # the manifest the last command wrote

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _call(self, argv, step=True):
        """(exit code, paths written) of the CLI on argv; a step notes the
        manifest it wrote."""
        stdout = StringIO()
        with redirect_stdout(stdout), redirect_stderr(StringIO()):
            code = cli_main(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        written = [Path(line) for line in stdout.getvalue().splitlines()]
        if step:
            manifests = [p for p in written if p.name.endswith("_manifest.json")]
            self.manifest = manifests[-1] if code == 0 else None
        return code, written

    @initialize()
    def generate(self):
        assert self._call(["generate", self.cfg])[0] == 0

    # cuts: one in the middle, none, the first and last the CLI allows, one
    # inside the warm-up (exit 3) and one past the end (uncut)
    @rule(cut=st.sampled_from([T // 2, None, P + 1, T - 1, P, T + 3]), K=st.sampled_from([1, 3]))
    def estimate(self, cut, K):
        argv = ["estimate", self.cfg, "--emit-every", str(K)]
        code, _ = self._call(argv + ([] if cut is None else ["--limit", str(cut)]))
        assert code == (3 if cut is not None and cut <= P else 0)
        if code == 0:
            self.fresh, self.resumed = (K, cut is not None and cut < T), set()

    @precondition(lambda self: self.fresh is not None and self.fresh[1])
    @rule(r=st.integers(0, RUNS - 1))
    def resume(self, r):
        K = self.fresh[0]
        code, _ = self._call(["estimate", self.cfg, "--emit-every", str(K), "--from-checkpoint",
                              str(self.out / f"run{r:03d}_checkpoint.json")])
        assert code == 0
        self.resumed.add(r)

    def _scorable(self):
        return self.fresh is not None and \
            (not self.fresh[1] or self.resumed == set(range(RUNS)))

    @rule()
    def metrics(self):
        code, _ = self._call(["metrics", self.cfg])
        assert code == 0 or not self._scorable()

    @invariant()
    def only_the_latest_estimate_has_resumes(self):
        resumed = {int(p.name[3:6]) for p in self.out.glob("run*_estimates_resumed.npy")}
        assert resumed == self.resumed

    @invariant()
    def metrics_scores_a_complete_estimate(self):
        if self._scorable():
            assert self._call(["metrics", self.cfg], step=False)[0] == 0

    @precondition(lambda self: self.manifest is not None)
    @rule()
    def replay(self):
        before = {p: p.read_bytes() for p in self.out.iterdir() if p.is_file()}
        code, written = self._call(["replay", str(self.manifest)])
        assert code == 0 and written
        for path in written:
            assert path.read_bytes() == before[path], path


CliMachine.TestCase.settings = settings(max_examples=25, stateful_step_count=8, deadline=None,
                                        derandomize=True, database=None)
test_cli_state_machine = CliMachine.TestCase
