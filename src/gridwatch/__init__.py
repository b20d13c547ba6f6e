"""Line-outage detection and localization for distribution grids.

Synthesizes voltage-increment streams from a linearized feeder model, runs a
sequential Bayesian change-point detector on them, and localizes the
out-of-service branches through conditional-correlation tests.
"""

import types as _types

from .grid import (
    Branch,
    GridTopology,
    Island,
    SingularBlockError,
    TopologyError,
    apply_outage,
    build_admittance,
    bundled_feeders,
    islands,
    load_feeder,
    parse_feeder,
    random_feeder,
    transfer,
)
from .gaussmodel import (
    CoordinateLayout,
    GaussianModel,
    GeometricPrior,
    estimate_post_outage,
    kl_divergence,
    log_density,
    model_from_topology,
    score_pairs,
)
from .detector import (
    DetectionReport,
    DetectionRule,
    DetectorConfig,
    NonFiniteLikelihoodError,
    expected_delay_bound,
    run_detector,
)
from .localizer import (
    LocalizationReport,
    PairScore,
    PhasorWindow,
    Thresholds,
    estimate_admittance,
    scan_pairs,
    zero_test_floors,
)
from .simgen import (
    MeasurementStream,
    Scenario,
    SensorSchedule,
    generate,
    parse_stream,
    sample_outage_time,
    write_stream,
)
from .experiments import (
    ExperimentConfig,
    MetricsTable,
    run_experiment,
    run_pmu_sweep,
)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
