"""Set-up time of one fresh process: import rffgraph, load the experiment
config, and build the first run's estimator (which draws its feature maps).

Usage: python3 setup_probe.py CONFIG.json   -- prints the seconds taken.
"""

import sys
import time
from pathlib import Path


def main(config):
    t0 = time.perf_counter()
    from rffgraph import OnlineEstimator, experiment

    cfg = experiment.load_experiment(config)
    OnlineEstimator(cfg.estimator_for_run(0))
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(repr(main(sys.argv[1])))
