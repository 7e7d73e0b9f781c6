"""Miscellaneous coverage: error hierarchy, package surface."""

import pytest

import repro
from repro.errors import (
    ConvergenceError,
    DataValidationError,
    FingerprintError,
    PartitionError,
    ReproError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [DataValidationError, PartitionError, ConvergenceError, FingerprintError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_errors_are_value_errors(self):
        # Callers using except ValueError keep working.
        assert issubclass(DataValidationError, ValueError)
        assert issubclass(PartitionError, ValueError)
        assert issubclass(FingerprintError, ValueError)

    def test_convergence_is_runtime_error(self):
        assert issubclass(ConvergenceError, RuntimeError)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_all_names_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_simulation_all_names_resolve(self):
        import repro.simulation as simulation

        for name in simulation.__all__:
            assert hasattr(simulation, name), name

    def test_ml_all_names_resolve(self):
        import repro.ml as ml

        for name in ml.__all__:
            assert hasattr(ml, name), name

    def test_timeseries_all_names_resolve(self):
        import repro.timeseries as timeseries

        for name in timeseries.__all__:
            assert hasattr(timeseries, name), name

    def test_grouping_all_names_resolve(self):
        import repro.core.grouping as grouping

        for name in grouping.__all__:
            assert hasattr(grouping, name), name

    def test_metrics_all_names_resolve(self):
        import repro.metrics as metrics

        for name in metrics.__all__:
            assert hasattr(metrics, name), name
