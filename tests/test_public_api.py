"""The package namespace: every exported name resolves."""

import gridwatch


def test_every_exported_name_resolves():
    missing = [name for name in gridwatch.__all__ if not hasattr(gridwatch, name)]
    assert not missing, f"__all__ names without a binding: {missing}"
    assert len(set(gridwatch.__all__)) == len(gridwatch.__all__)


# the public API: a name that joins or leaves it is an API change
EXPORTS = {
    "Branch", "CoordinateLayout", "DetectionReport", "DetectionRule",
    "DetectorConfig", "ExperimentConfig", "GaussianModel",
    "GeometricPrior", "GridTopology", "Island", "LocalizationReport", "MeasurementStream",
    "MetricsTable", "NonFiniteLikelihoodError", "PairScore", "PhasorWindow", "Scenario",
    "SensorSchedule", "SingularBlockError", "Thresholds", "TopologyError", "apply_outage",
    "build_admittance", "bundled_feeders", "estimate_admittance",
    "estimate_post_outage", "expected_delay_bound", "generate", "islands", "kl_divergence",
    "load_feeder", "log_density", "model_from_topology", "parse_feeder",
    "parse_stream", "random_feeder", "run_detector", "run_experiment",
    "run_pmu_sweep", "sample_outage_time", "scan_pairs", "score_pairs",
    "transfer", "write_stream", "zero_test_floors",
}


def test_exported_names_are_unchanged():
    assert set(gridwatch.__all__) == EXPORTS and len(EXPORTS) == 45
