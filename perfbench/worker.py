"""The timed part of one benchmark run, in a fresh process of its own.

Usage: python3 worker.py SPEC.json

SPEC names the workload, its work directory, the seconds to measure and
whether to trace.  Rounds repeat until the time is spent; a run always
completes whole rounds.  With tracing on, untraced and traced rounds
alternate in pairs, so that the tracing overhead is measured in the same
run.  The first round's outputs are kept in `first/` for the checks; later
rounds keep only a hash of each output file.  Results go to
`results.json` in the work directory, spans to the file SPEC names.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import ENV_OUTPUT_DIR, WORKLOADS  # noqa: E402


def peak_rss_mb():
    """This process's own peak resident memory.

    VmHWM belongs to the process image; ru_maxrss of a spawned child also
    carries the high-water mark of the parent that spawned it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    wl = WORKLOADS[spec["workload"]]
    work = Path(spec["work_dir"])
    out = work / "out"
    os.environ[ENV_OUTPUT_DIR] = str(out)
    import rffgraph.cli  # noqa: F401  (every module the tracer patches is loaded)
    import rffgraph.io  # noqa: F401
    wl.worker_setup(work)
    tracer = tracing.Tracer() if spec["trace"] else None
    rounds = []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        # Round 0 is the warm-up; with tracing, odd rounds run untraced and
        # even rounds traced, and a run stops only after a whole pair.
        traced = tracer is not None and k > 0 and k % 2 == 0
        if k >= 2 and not traced and time.perf_counter() - start >= spec["seconds"]:
            break
        if out.exists():
            shutil.rmtree(out)
        out.mkdir()
        if traced:
            rec = tracer.root(k, lambda: wl.run_round(work, out))
        else:
            rec = wl.run_round(work, out)
        rec["traced"] = traced
        rec["hashes"] = checks.hash_dir(out)
        rec["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        if k == 0:
            out.rename(work / "first")
        rounds.append(rec)
    peak = peak_rss_mb()
    if out.exists():
        shutil.rmtree(out)
    if tracer is not None:
        tracer.write(spec["spans_file"])
    (work / "results.json").write_text(json.dumps({"rounds": rounds, "peak_rss_mb": peak}))


if __name__ == "__main__":
    main(sys.argv[1])
