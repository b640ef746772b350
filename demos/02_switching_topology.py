"""Recovering an abruptly switching causal topology from a stream.

Generates a small ensemble of nonlinear VAR runs whose graph swaps one
active edge for a new one every 500 samples, estimates the topology online,
and prints the miss-detection / false-alarm curves around a switch plus a
side-by-side of the final normalized estimate and the ground truth.
"""

from rffgraph import (
    DetectionConfig,
    DetectionCounts,
    EstimatorConfig,
    GeneratorConfig,
    OnlineEstimator,
    generate,
    normalize,
)

GEN = dict(N=5, P=2, T=1500, edge_probability=0.1, switch_interval=500,
           noise_std=0.3, kernel_variance=0.01, beta_variance=30.0, M=10)


def main():
    counts = DetectionCounts(DetectionConfig(delta=0.05))
    for seed in range(11, 21):
        ts = generate(GeneratorConfig(seed=seed, **GEN))
        cfg = EstimatorConfig(N=5, P=2, D=50, lam=0.1, gamma=1000.0,
                              kernel_variance=0.1, rff_seed=10_000 + seed)
        series = OnlineEstimator(cfg).run(ts.values)
        counts.add(series.group_norms, ts.active)  # one run at a time

    pmd, pfa = counts.curves()
    switch_t = 2 + 500  # first sample generated under the switched topology
    print("10-run ensemble, switch visible at t=%d" % switch_t)
    print("      t   P_MD    P_FA")
    for t in range(switch_t - 40, switch_t + 80, 10):
        print(f"  {t:5d}  {pmd[t]:.3f}   {pfa[t]:.3f}")
    print()
    print("Both curves jump right after the switch (the vanished edge keeps")
    print("firing alarms, the new edge is briefly missed), then settle as the")
    print("group-sparse updates adapt.")

    est = normalize(series.group_norms[-1])  # the last run's
    print()
    print("final run, lag-1 slice: normalized estimate (left) vs truth (right)")
    for n in range(5):
        row_est = " ".join(f"{est[n, m, 0]:5.2f}" for m in range(5))
        row_tru = " ".join(f"{ts.coeffs[-1][n, m, 0]:5.2f}" for m in range(5))
        print(f"  [{row_est}]   [{row_tru}]")


if __name__ == "__main__":
    main()
