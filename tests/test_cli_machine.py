"""A state machine over `cli.main`: after `generate`, any sequence of fresh
estimates (cut or not, thinned or not), resumes of single runs, metrics and
replays keeps the CLI's promises.

- Every call exits 0, 2, 3 or 4; an uncaught exception fails the test.
- Checked after every step: only runs resumed since the latest fresh
  estimate have `_resumed` files, and `metrics` exits 0 once every run of
  that estimate is either uncut or cut and resumed, whatever earlier
  estimates left in the directory.
- Replaying every manifest still on disk, in the order the commands wrote
  them, rewrites the directory byte for byte.  A metrics manifest whose
  estimate a later estimate replaced is left out: its inputs are gone.
- Damaging one output, by truncating it to half or by putting a directory
  in its place, makes the command that reads it (or, where nothing reads
  it, writes it) exit 2 or 3 with a message naming it.  The directory is
  then restored.

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
        self.manifests = []  # the manifests to replay, in the order they were written

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _call(self, argv):
        """(exit code, paths written, stderr) of the CLI on argv.  A command
        that is not a replay notes the manifests it wrote, and an estimate
        drops the metrics manifest, whose inputs it replaced."""
        stdout, stderr = StringIO(), StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        written = [Path(line) for line in stdout.getvalue().splitlines()]
        if code == 0 and argv[0] != "replay":
            manifests = [p for p in written if p.name.endswith("_manifest.json")]
            stale = manifests + [self.out / "metrics_manifest.json"] * (argv[0] == "estimate")
            self.manifests = [p for p in self.manifests if p not in stale] + manifests
        return code, written, stderr.getvalue()

    def _files(self):
        return {p: p.read_bytes() for p in self.out.iterdir() if p.is_file()}

    @initialize()
    def generate(self):
        assert self._call(["generate", self.cfg])[0] == 0

    # cuts: one in the middle, none, the first and last the CLI allows, one
    # inside the warm-up (exit 3) and one past the end (uncut)
    @rule(cut=st.sampled_from([T // 2, None, P + 1, T - 1, P, T + 3]), K=st.sampled_from([1, 3]))
    def estimate(self, cut, K):
        argv = ["estimate", self.cfg, "--emit-every", str(K)]
        code = self._call(argv + ([] if cut is None else ["--limit", str(cut)]))[0]
        assert code == (3 if cut is not None and cut <= P else 0)
        if code == 0:
            self.fresh, self.resumed = (K, cut is not None and cut < T), set()

    @precondition(lambda self: self.fresh is not None and self.fresh[1])
    @rule(r=st.integers(0, RUNS - 1))
    def resume(self, r):
        K = self.fresh[0]
        code = self._call(["estimate", self.cfg, "--emit-every", str(K), "--from-checkpoint",
                           str(self.out / f"run{r:03d}_checkpoint.json")])[0]
        assert code == 0
        self.resumed.add(r)

    def _scorable(self):
        return self.fresh is not None and \
            (not self.fresh[1] or self.resumed == set(range(RUNS)))

    @rule()
    def metrics(self):
        code = self._call(["metrics", self.cfg])[0]
        assert code == 0 or not self._scorable()

    @invariant()
    def only_the_latest_estimate_has_resumes(self):
        resumed = {int(p.name[3:6]) for p in self.out.glob("run*_estimates_resumed.npy")}
        assert resumed == self.resumed

    @invariant()
    def metrics_scores_a_complete_estimate(self):
        if self._scorable():
            assert self._call(["metrics", self.cfg])[0] == 0

    @rule()
    def replay(self):
        before = self._files()
        # copies, as replaying a fresh estimate deletes the resume manifests
        copies = self.dir / "replayed"
        copies.mkdir(exist_ok=True)
        for manifest in self.manifests:
            if manifest in before:
                copy = copies / manifest.name
                copy.write_bytes(before[manifest])
                code, written, _ = self._call(["replay", str(copy)])
                assert code == 0 and set(written) <= set(before), manifest
        assert self._files() == before

    def _reader(self, path, damage):
        """(argv, exit code) of a command that reads the file at path or,
        for a directory, reads or writes it; None if no command does."""
        name = path.name
        if name.endswith("_manifest.json"):
            return ["replay", str(path)], 2
        if "_checkpoint" in name:
            return ["estimate", self.cfg, "--from-checkpoint", str(path)], 3
        if name.endswith((".npy", ".jsonl")) and self._scorable():
            return ["metrics", self.cfg], 3
        if damage != "directory":
            return None
        if name.endswith(("_data.csv", "_topology.jsonl")):
            return ["generate", self.cfg], 3
        if name.startswith("run"):
            return ["estimate", self.cfg], 3  # writes, or deletes a stale resume file
        return (["metrics", self.cfg], 3) if self._scorable() else None

    @precondition(lambda self: self.fresh is not None)
    @rule(data=st.data())
    def damage(self, data):
        files = self._files()
        path, damage, (argv, expected) = data.draw(st.sampled_from(
            [(path, damage, reader) for path in sorted(files)
             for damage in ("truncate", "directory")
             if (reader := self._reader(path, damage))]))
        if damage == "truncate":
            path.write_bytes(files[path][:len(files[path]) // 2])
        else:
            path.unlink()
            path.mkdir()
        code, _, err = self._call(argv)
        assert code == expected and str(path) in err and "Traceback" not in err, (argv, err)
        shutil.rmtree(self.out)
        self.out.mkdir()
        for p, blob in files.items():
            p.write_bytes(blob)


CliMachine.TestCase.settings = settings(max_examples=50, stateful_step_count=8, deadline=None,
                                        derandomize=True, database=None)
test_cli_state_machine = CliMachine.TestCase
