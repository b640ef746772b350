"""The generator records topology changes, not one topology per sample.

`generate` returns its ground truth as a `TopologyTrace` (one state per
segment of a switching or static run, one record per change of the active
mask), and `io.write_topology_jsonl` writes one line per record.  A
switching or static file must equal, byte for byte, what the per-sample
writer of the dense `(T, N, N, P)` traces wrote: a line at t = P and at
every sample whose coefficients or mask differ from the last line's.  A
drift file is one line at t = P holding the law of the run's coefficients:
the initial coefficients, the mask and the drifting mask.  The dense
traces, `TimeSeries.coeffs` and `.active`, are the trace forward-filled; a
drift run's coefficients must equal one dense cumulative sum, whatever the
blocks of samples `generate` makes them in, and so must the rows rebuilt
from the written record alone.
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

from rffgraph import GeneratorConfig, generate, generator, init_topology
from rffgraph import io
from whole_files import drift_coeffs

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _dense_diff_jsonl(ts, coeffs):
    """The per-sample writer of the dense coefficients and ts.active: a line
    at the first modeled sample and wherever they differ from the last line
    written."""
    lines, prev = [], None
    for t in range(ts.config.P, ts.values.shape[1]):
        snap = (coeffs[t], ts.active[t])
        if prev is not None and np.array_equal(prev[0], snap[0]) \
                and np.array_equal(prev[1], snap[1]):
            continue
        lines.append(json.dumps({"t": t, "coeffs": snap[0].tolist(),
                                 "active": snap[1].tolist()}) + "\n")
        prev = snap
    return "".join(lines)


def _law_jsonl(cfg, coeffs, active):
    """A drift run's one line: t = P, its initial coefficients and mask, and
    its drifting slots (every active one, or under drift_scope single the
    lexicographically first)."""
    P = cfg.P
    drifting = active[P].copy()
    if cfg.drift_scope == "single":
        drifting.flat[np.flatnonzero(drifting)[1:]] = False
    return json.dumps({"t": P, "coeffs": coeffs[P].tolist(), "active": active[P].tolist(),
                       "drifting": drifting.tolist()}) + "\n"


def _rows_from_the_record(line, P, t):
    """The coefficients at times t rebuilt from a drift line's raw JSON:
    sample s + 1 adds 0.01 sin(0.03 s) to sample s's in the drifting slots,
    one cumulative sum from the record's coefficients at t = P, and the
    rows before P hold those."""
    record = json.loads(line)
    drifting = np.array(record["drifting"], dtype=bool)
    rows = np.zeros((max(max(t) - P, 0) + 1,) + drifting.shape)
    rows[0] = record["coeffs"]
    rows[1:, drifting] = 0.01 * np.sin(0.03 * np.arange(P, P + len(rows) - 1))[:, None]
    np.cumsum(rows, axis=0, out=rows)
    return rows[np.maximum(np.asarray(t) - P, 0)]


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
    stop = None if cut is None else P + cut
    T = min(cfg.T, stop or cfg.T)
    path = tmp_path_factory.mktemp("topo") / "topology.jsonl"
    # the default blocks of samples, and blocks of 1, 2 and 3 rows, which
    # cross a block edge at every sample or every few and end the series
    # (or its cut) inside a block
    for rows in (None, 1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(generator, "BLOCK_BYTES", rows * 8 * N * N * P)
            ts = generate(cfg, stop=stop)
            io.write_topology_jsonl(path, ts)
        # the dense traces are the trace forward-filled, rows < P included
        assert ts.coeffs.shape == ts.active.shape == (T, N, N, P)
        dense = drift_coeffs(cfg, T) if cfg.drift else ts.coeffs
        assert np.array_equal(ts.coeffs, dense)
        oracle = _law_jsonl(cfg, dense, ts.active) if cfg.drift else _dense_diff_jsonl(ts, dense)
        assert path.read_text() == oracle
        assert np.array_equal(ts.coeffs[:P + 1], np.broadcast_to(ts.coeffs[P], (P + 1, N, N, P)))
        back = io.read_topology(path)
        assert np.array_equal(back.active_at(np.arange(T)), ts.active)
    if cfg.drift:  # a per-sample file of the writer before the law record reads the same
        path.write_text(_dense_diff_jsonl(ts, dense))
        assert np.array_equal(io.read_topology(path).active_at(np.arange(T)), ts.active)


@pytest.mark.parametrize("scope", ["all", "single"])
def test_the_rows_rebuilt_from_a_drift_record_equal_the_dense_sum(tmp_path, monkeypatch, scope):
    cfg = GeneratorConfig(N=3, P=2, T=120, edge_probability=0.4, noise_std=0.1, drift=True,
                          drift_scope=scope, seed=4)
    # blocks of 7 rows; the cut run stops inside its fourth block
    monkeypatch.setattr(generator, "BLOCK_BYTES", 7 * 8 * 3 * 3 * 2)
    for stop in (None, 2 + 7 * 3 + 4):
        ts = generate(cfg, stop=stop)
        T = ts.values.shape[1]
        io.write_topology_jsonl(tmp_path / "topology.jsonl", ts)
        (line,) = (tmp_path / "topology.jsonl").read_text().splitlines()
        t = [0, 1, 2 + 7 * 3 + 3, T - 1]  # before P, inside a block and the last sample
        assert np.array_equal(_rows_from_the_record(line, cfg.P, t), drift_coeffs(cfg, T)[t])
        assert np.array_equal(ts.topology.coeffs_at(np.array(t)), drift_coeffs(cfg, T)[t])


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
@pytest.mark.parametrize("regime", [
    # one N=20, P=2 switching run: the dense traces grew by 2 * 6.4 KB per sample
    dict(N=20, switch_interval=500),
    # one N=10, P=2 drift run: a table of every sample's coefficients grew
    # by 1.6 KB per sample, its change scan by 0.2 KB
    dict(N=10, drift=True),
], ids=["switching", "drift"])
def test_generate_memory_per_run_does_not_grow_with_t(tmp_path, regime):
    src = str(Path(__file__).resolve().parents[1] / "src")
    N = regime["N"]
    peaks = []
    for T in (2000, 8000):
        cfg = tmp_path / f"T{T}.json"
        cfg.write_text(json.dumps({
            "runs": 1, "base_seed": 11, "output_dir": str(tmp_path / f"T{T}"),
            "generator": {"P": 2, "T": T, "edge_probability": 0.1, "noise_std": 0.3, **regime},
            "estimator": {"N": N, "P": 2, "D": 1}}))
        run = subprocess.run([sys.executable, "-c", _PEAK, str(cfg)], capture_output=True,
                             text=True, check=True,
                             env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"})
        peaks.append(int(run.stdout.split()[-1]) / 1024)
    assert peaks[1] - peaks[0] < 5.0, peaks
