"""Online identification of sparse nonlinear causal graph topologies.

A streaming library for learning which lagged node-to-node dependencies
drive a multivariate time series.  Nonlinear influences are captured by
lifting lagged samples through random Fourier feature maps; the resulting
coefficient groups are estimated online with closed-form group-sparse
updates whose per-sample cost does not grow with the stream length.
"""

from .exceptions import ConfigError, DataError, DivergenceError
from .kernels import (
    GaussianKernel,
    RFFMap,
    feature_map,
    kernel_approx,
    kernel_exact,
    sample_frequencies,
)
from .generator import (
    GeneratorConfig,
    NonlinearityBank,
    TimeSeries,
    Topology,
    TopologyTrace,
    generate,
    init_bank,
    init_topology,
    slow_drift,
    step,
    switch_edge,
)
from .estimator import (
    BatchResult,
    CoefficientState,
    EstimateSeries,
    EstimatorConfig,
    FeatureMaps,
    GrowingDictionaryEstimator,
    LinearBaseline,
    OnlineEstimator,
    batch_oracle,
    build_feature_vector,
    comid_group_update,
    gradient,
    group_norms,
    instantaneous_loss,
    linear_baseline_step,
    online_step,
    predict,
)
from .metrics import (
    DetectionConfig,
    DetectionCounts,
    ErrorSums,
    normalize,
    normalize_series,
)

__version__ = "0.1.0"
