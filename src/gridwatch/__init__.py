"""Line-outage detection and localization for distribution grids.

Synthesizes voltage-increment streams from a linearized feeder model, runs a
sequential Bayesian change-point detector on them, and localizes the
out-of-service branches through conditional-correlation tests.

The names of the detector, localizer and experiments modules load on first
use, so that importing the package, or a command that runs none of them,
does not pay for compiling and running their code.
"""

import importlib as _importlib
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
from .simgen import (
    MeasurementStream,
    Scenario,
    SensorSchedule,
    generate,
    parse_stream,
    write_stream,
)

# public name -> the module, loaded on first use, that defines it
_DEFERRED = {
    **dict.fromkeys(("DetectionReport", "DetectionRule", "DetectorConfig",
                     "NonFiniteLikelihoodError", "expected_delay_bound", "run_detector"),
                    "detector"),
    **dict.fromkeys(("LocalizationReport", "PairScore", "PhasorWindow", "Thresholds",
                     "estimate_admittance", "scan_pairs", "zero_test_floors"), "localizer"),
    **dict.fromkeys(("ExperimentConfig", "MetricsTable", "run_experiment", "run_pmu_sweep"),
                    "experiments"),
}

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
                 + list(_DEFERRED))


def __getattr__(name: str):
    # not cached here: the package reads the module's binding on every access
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{_DEFERRED[name]}"), name)
