"""Byte identity of the CLI's outputs: record a fixed flow matrix, compare two records.

`run` executes the matrix through `python -m rffgraph.cli`, with a given
source tree's `src/` on PYTHONPATH, each flow in its own directory under
WORK (the commands run there, so every path they print or record is
relative to it).  The flows use the bundled configs cut to 2 runs:

- for `switching`, `drift` and `standardized`, each of: generate ->
  estimate -> metrics; generate -> `estimate --limit T/2+3` -> a resume of
  every run -> metrics; the same with `--emit-every 7`; the same with
  `--standardize`;
- a `data_csv` config (1 run) whose series is a relative path to what
  `generate` wrote: a cut, a resume and metrics; the same with
  `--standardize`, whose per-node mean and std depend on the memory
  layout of the parsed series;
- `bench --T 120` with and without `--reference`.

Each flow then replays every manifest it wrote, from copies, in the order
the commands last wrote them.  The record holds each command's argv, exit
code, stdout and stderr, and one SHA-256 per file in each flow's output
directory, with WORK masked in all of them.  Bench CSVs hold timings and
are not hashed.  `compare` prints every difference between two records
and exits 1 if there is one.

    python tools/identity.py run WORK RECORD.json [--src SRC]
    python tools/identity.py compare A.json B.json

Compare records made on the same host: `sin`/`cos` results can differ in
their last bits between CPUs, so a record is not a fixed reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONFIGS = ("switching", "drift", "standardized")
MASK = "<work>"


def _config(name: str, **changes) -> dict:
    cfg = json.loads((REPO / "configs" / f"{name}.json").read_text())
    return {**cfg, "runs": 2, "output_dir": "out", **changes}


def _flows():
    """(flow name, {config file name: config}, list of argv) of every flow
    but its replays."""
    for name in CONFIGS:
        cfg = _config(name)
        cut = str(cfg["generator"]["T"] // 2 + 3)
        resumes = [["estimate", "exp.json", "--from-checkpoint",
                    f"out/run{r:03d}_checkpoint.json"] for r in range(cfg["runs"])]
        for flow, argv in (("plain", []), ("emit7", ["--emit-every", "7"]),
                           ("standardize", ["--standardize"])):
            yield f"{name}-{flow}", {"exp.json": cfg}, [
                ["generate", "exp.json"], ["estimate", "exp.json", *argv], ["metrics", "exp.json"]]
        yield f"{name}-cut", {"exp.json": cfg}, [
            ["generate", "exp.json"], ["estimate", "exp.json", "--limit", cut], *resumes,
            ["metrics", "exp.json"]]
    gen = _config("switching", runs=1)
    cut = str(gen["generator"]["T"] // 2 + 3)
    data = {key: value for key, value in gen.items() if key != "generator"}
    data["data_csv"] = "out/run000_data.csv"
    for flow, argv in (("data_csv", []), ("data_csv-standardize", ["--standardize"])):
        yield flow, {"gen.json": gen, "exp.json": data}, [
            ["generate", "gen.json"], ["estimate", "exp.json", "--limit", cut, *argv],
            ["estimate", "exp.json", "--from-checkpoint", "out/run000_checkpoint.json", *argv],
            ["metrics", "exp.json"]]
    yield "bench", {"exp.json": _config("switching")}, [
        ["bench", "exp.json", "--T", "120"], ["bench", "exp.json", "--T", "120", "--reference"]]


def _call(src: Path, cwd: Path, argv: list[str], work: Path) -> list:
    env = {k: v for k, v in os.environ.items() if k != "RFFGRAPH_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, "-m", "rffgraph.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return [cwd.name, argv, done.returncode, done.stdout.replace(str(work), MASK),
            done.stderr.replace(str(work), MASK)]


def _sha256(path: Path, work: Path) -> str:
    masked = path.read_bytes().replace(str(work).encode(), MASK.encode())
    return hashlib.sha256(masked).hexdigest()


def run(work: Path, src: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    work = work.resolve()
    commands, files = [], {}
    for flow, configs, argvs in _flows():
        d = work / flow
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        for file_name, cfg in configs.items():
            (d / file_name).write_text(json.dumps(cfg, indent=2))
        manifests = []  # in the order they were last written
        for argv in argvs:
            commands.append(_call(src, d, argv, work))
            written = [line for line in commands[-1][3].splitlines()
                       if line.endswith("_manifest.json")]
            manifests = [m for m in manifests if m not in written] + written
        # copies: replaying a fresh estimate deletes the resume manifests
        (d / "replayed").mkdir()
        for manifest in manifests:
            shutil.copy(d / manifest, d / "replayed" / Path(manifest).name)
        for manifest in manifests:
            commands.append(_call(src, d, ["replay", f"replayed/{Path(manifest).name}"], work))
        for path in sorted((d / "out").iterdir()):
            if not (path.name.startswith("bench") and path.suffix == ".csv"):
                files[f"{flow}/out/{path.name}"] = _sha256(path, work)
    return {"src": str(src), "commands": commands, "files": files}


def compare(a: dict, b: dict) -> list[str]:
    """One line per difference between records a and b."""
    diffs = []
    if len(a["commands"]) != len(b["commands"]):
        diffs.append(f"{len(a['commands'])} commands != {len(b['commands'])} commands")
    for ca, cb in zip(a["commands"], b["commands"]):
        if ca != cb:
            diffs.append(f"command differs:\n  {ca}\n  {cb}")
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name) != b["files"].get(name):
            diffs.append(f"file differs: {name}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run", help="run the flow matrix and write its record")
    r.add_argument("work", type=Path, help="directory the flows run in")
    r.add_argument("record", type=Path, help="JSON record to write")
    r.add_argument("--src", type=Path, default=REPO / "src",
                   help="the src/ directory of the tree to run (default: this tree's)")
    c = sub.add_parser("compare", help="compare two records")
    c.add_argument("records", type=Path, nargs=2)
    args = parser.parse_args(argv)
    if args.mode == "run":
        record = run(args.work, args.src.resolve())
        args.record.write_text(json.dumps(record, indent=1))
        print(f"{len(record['commands'])} commands, {len(record['files'])} files")
        return 0
    a, b = (json.loads(p.read_text()) for p in args.records)
    diffs = compare(a, b)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) over {len(a['commands'])} commands and "
          f"{len(a['files'])} files")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
