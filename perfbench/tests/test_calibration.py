"""Scaling of timed batches by the calibration units around them."""

import itertools

import pytest

import calibration
import worker
from workloads import Batch


class FixedWorkload:
    """Batches of one 0.1-s operation, taking 0.1 s in all."""

    def batch(self, index):
        return Batch(ops=1, latencies=[0.1], wall=0.1)


def test_batch_times_scale_by_the_mean_of_the_units_around_them(monkeypatch):
    # units alternate 1x and 3x the nominal time, so every batch sits between
    # one of each and is scaled by REF_S / (2 REF_S) = 1/2
    units = itertools.cycle([calibration.REF_S, 3 * calibration.REF_S])
    monkeypatch.setattr(calibration, "unit_s", lambda: next(units))
    result = worker.measure(FixedWorkload(), seconds=0.0)
    assert result["attempted"] == 100
    assert result["raw_metrics"]["rep_p50_ms"] == pytest.approx(100.0)
    assert result["metrics"]["rep_p50_ms"] == pytest.approx(50.0)
    assert result["metrics"]["rep_p90_ms"] == pytest.approx(50.0)
    assert result["metrics"]["reps_per_s"] == pytest.approx(20.0)
    assert result["raw_metrics"]["reps_per_s"] == pytest.approx(10.0)

