"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
divergence, 5 out of memory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .exceptions import ConfigError, DataError, DivergenceError
from . import experiment

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_MEMORY = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rffgraph",
        description="Streaming identification of sparse nonlinear causal graph topologies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write synthetic data and topology traces")
    g.add_argument("config", help="experiment config JSON")

    e = sub.add_parser("estimate", help="stream data through the online estimator")
    e.add_argument("config", help="experiment config JSON")
    e.add_argument("--emit-every", type=int, default=None, metavar="K",
                   help="thin the pseudo-adjacency trace to every K-th sample")
    e.add_argument("--standardize", action="store_true",
                   help="per-node zero-mean unit-variance scaling before estimation")
    e.add_argument("--limit", type=int, default=None, metavar="T0",
                   help="process only the first T0 samples (checkpoint marks the cut)")
    e.add_argument("--from-checkpoint", default=None, metavar="PATH",
                   help="resume from a checkpoint written by a previous estimate")

    m = sub.add_parser("metrics", help="detection and error curves from run outputs")
    m.add_argument("config", help="experiment config JSON")

    b = sub.add_parser("bench", help="per-iteration wall-clock timing")
    b.add_argument("config", help="experiment config JSON")
    b.add_argument("--T", type=int, default=None, help="override the horizon length")
    b.add_argument("--reference", action="store_true",
                   help="time the growing-dictionary reference estimator instead")
    b.add_argument("--standardize", action="store_true",
                   help="per-node zero-mean unit-variance scaling before estimation")

    r = sub.add_parser("replay", help="re-execute a recorded manifest byte-identically")
    r.add_argument("manifest", help="manifest JSON written by a previous command")
    return parser


def main(argv=None) -> int:
    options = vars(_build_parser().parse_args(argv))
    command = options.pop("command")
    try:
        if command == "replay":
            written = experiment.replay(options["manifest"])
        else:
            cfg = experiment.load_experiment(options.pop("config"))
            # the config's own keys; what is left in options is the command's own
            overrides = {"standardize": True} if options.pop("standardize", False) else {}
            if (emit_every := options.pop("emit_every", None)) is not None:
                overrides["emit_every"] = emit_every
            written = experiment.execute(replace(cfg, **overrides), command, options)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except MemoryError as e:
        # numpy's message names the size and the shape it could not allocate
        print(f"out of memory: {command}: {e}", file=sys.stderr)
        return EXIT_MEMORY
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
