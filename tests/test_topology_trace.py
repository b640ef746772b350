"""The generator records topology changes, not one topology per sample.

`generate` returns its ground truth as a `TopologyTrace` (one state per
segment of a switching or static run, the cumulative drift coefficients of
a drift run, one record per change), and `io.write_topology_jsonl` writes
one line per record.  The file must equal, byte for byte, what the
per-sample writer of the dense `(T, N, N, P)` traces wrote: a line at
t = P and at every sample whose coefficients or mask differ from the
last line's.  The dense traces, `TimeSeries.coeffs` and `.active`, are
the trace forward-filled, and the oracle below reads them.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffgraph import GeneratorConfig, generate, init_topology
from rffgraph import io

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _dense_diff_jsonl(ts):
    """The per-sample writer: a line at the first modeled sample and wherever
    the dense trace differs from the last line written."""
    lines, prev = [], None
    for t in range(ts.config.P, ts.values.shape[1]):
        snap = (ts.coeffs[t], ts.active[t])
        if prev is not None and np.array_equal(prev[0], snap[0]) \
                and np.array_equal(prev[1], snap[1]):
            continue
        lines.append(json.dumps({"t": t, "coeffs": snap[0].tolist(),
                                 "active": snap[1].tolist()}) + "\n")
        prev = snap
    return "".join(lines)


REGIMES = {
    "static": dict(),
    "switching": dict(switch_interval=7),
    "drift all": dict(drift=True),
    "drift single": dict(drift=True, drift_scope="single"),
    "drift, no active slot": dict(drift=True, edge_probability=0.0),
}


@pytest.mark.parametrize("regime", list(REGIMES))
@SETTINGS
@given(N=st.integers(1, 4), P=st.integers(1, 3), extra=st.integers(1, 60),
       cut=st.one_of(st.none(), st.integers(1, 60)), seed=st.integers(0, 2**32 - 1))
def test_topology_jsonl_equals_the_dense_diff_writer(tmp_path_factory, regime, N, P, extra,
                                                     cut, seed):
    kw = {"edge_probability": 0.4, **REGIMES[regime]}
    cfg = GeneratorConfig(N=N, P=P, T=P + extra, noise_std=0.1, seed=seed, **kw)
    if cfg.switch_interval and N * N * P == 1:
        cfg = replace(cfg, switch_interval=0)  # one slot: no edge can switch
    while cfg.switch_interval and init_topology(cfg).n_active() in (0, N * N * P):
        cfg = replace(cfg, seed=cfg.seed + 1)  # the first seed with an edge to switch
    ts = generate(cfg, stop=None if cut is None else P + cut)
    path = tmp_path_factory.mktemp("topo") / "topology.jsonl"
    io.write_topology_jsonl(path, ts)
    assert path.read_text() == _dense_diff_jsonl(ts)
    # the dense traces are the trace forward-filled, rows < P included
    T = ts.values.shape[1]
    assert ts.coeffs.shape == ts.active.shape == (T, N, N, P)
    assert np.array_equal(ts.coeffs[:P + 1], np.broadcast_to(ts.coeffs[P], (P + 1, N, N, P)))
    back = io.read_topology(path)
    assert np.array_equal(back.active_at(np.arange(T)), ts.active)


def test_a_switching_trace_holds_one_state_per_segment():
    cfg = GeneratorConfig(N=4, P=2, T=1002, edge_probability=0.3, switch_interval=100, seed=5)
    trace = generate(cfg).topology
    assert trace.coeffs.shape == trace.active.shape == (10, 4, 4, 2)
    assert np.array_equal(trace.starts, np.arange(2, 1002, 100))
    assert np.array_equal(trace.which, np.arange(10))


def test_a_trace_read_from_a_file_says_it_keeps_no_coefficients(tmp_path):
    ts = generate(GeneratorConfig(N=2, P=1, T=20, edge_probability=0.5, seed=1))
    io.write_topology_jsonl(tmp_path / "topology.jsonl", ts)
    back = io.read_topology(tmp_path / "topology.jsonl")
    with pytest.raises(ValueError, match="^this trace keeps no coefficients: a trace read from "
                                         "a topology file keeps only its active masks$"):
        back.coeffs_at(np.arange(3))
    assert np.array_equal(back.active_at(np.arange(3)), ts.active[:3])


_PEAK = """
import sys
from rffgraph.cli import main
assert main(["generate", sys.argv[1]]) == 0
print([int(l.split()[1]) for l in open("/proc/self/status") if l.startswith("VmHWM")][0])
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_generate_memory_per_run_does_not_grow_with_t(tmp_path):
    # one N=20, P=2 switching run: the dense traces grew by 2 * 6.4 KB per sample
    src = str(Path(__file__).resolve().parents[1] / "src")
    peaks = []
    for T in (2000, 8000):
        cfg = tmp_path / f"T{T}.json"
        cfg.write_text(json.dumps({
            "runs": 1, "base_seed": 11, "output_dir": str(tmp_path / f"T{T}"),
            "generator": {"N": 20, "P": 2, "T": T, "edge_probability": 0.1,
                          "switch_interval": 500, "noise_std": 0.3},
            "estimator": {"N": 20, "P": 2, "D": 1}}))
        run = subprocess.run([sys.executable, "-c", _PEAK, str(cfg)], capture_output=True,
                             text=True, env={"PYTHONPATH": src, "PATH": ""}, check=True)
        peaks.append(int(run.stdout.split()[-1]) / 1024)
    assert peaks[1] - peaks[0] < 5.0, peaks
