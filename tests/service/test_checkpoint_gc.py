"""The end-of-run fleet digest runs with the cyclic GC paused.

``fleet_digest`` builds many small acyclic objects, so it pauses the
cyclic garbage collector (``gc_paused``).  The caller's GC state must come
back unchanged: enabled stays enabled, disabled stays disabled, and an
exception inside the capture changes neither.  ``capture_checkpoint``
keeps the caller's GC state throughout.
"""

from __future__ import annotations

import gc

import pytest

import repro.service.checkpoint as checkpoint
from repro.api.service import ServiceConfig
from repro.core.demand import DemandMap
from repro.service import fleet_digest, run_service
from repro.vehicles.fleet import Fleet
from repro.workloads.arrivals import alternating_arrivals

DEMAND = DemandMap({(0, 0): 4.0, (2, 1): 3.0, (5, 4): 2.0, (1, 6): 5.0})


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    """Run the test with the GC enabled or disabled; put it back after."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def _spy_capture(monkeypatch, table):
    """Record ``gc.isenabled()`` inside every direct ``table.capture`` call."""
    seen = []
    capture = table.capture

    def spy(obj):
        seen.append(gc.isenabled())
        return capture(obj)

    monkeypatch.setattr(table, "capture", spy)
    return seen


def _raise(*args, **kwargs):
    raise RuntimeError("capture failed")


class TestFleetDigest:
    def test_pauses_gc_and_restores_the_callers_state(self, gc_state, monkeypatch):
        seen = _spy_capture(monkeypatch, checkpoint.FLEET)
        fleet = Fleet(DEMAND, omega=4.0)
        digest = fleet_digest(fleet)
        assert seen == [False]
        assert gc.isenabled() is gc_state
        assert digest == fleet_digest(fleet)  # pure function of the state

    def test_restores_the_callers_state_when_capture_raises(self, gc_state, monkeypatch):
        fleet = Fleet(DEMAND, omega=4.0)
        monkeypatch.setattr(checkpoint.FLEET, "capture", _raise)
        with pytest.raises(RuntimeError, match="capture failed"):
            fleet_digest(fleet)
        assert gc.isenabled() is gc_state


class TestCaptureCheckpoint:
    """A checkpoint capture keeps the caller's GC state: pausing it moves the
    full collections its allocations trigger into later dispatch windows."""

    def test_runs_under_the_callers_gc_state(self, gc_state, monkeypatch, tmp_path):
        seen = _spy_capture(monkeypatch, checkpoint.JOBS)
        config = ServiceConfig.from_demand(DEMAND, window_jobs=4, checkpoint_every=1)
        jobs = alternating_arrivals(DEMAND)
        run_service(
            config,
            list(jobs.jobs),
            checkpoint_path=str(tmp_path / "snap.json"),
            stop_after_checkpoints=2,
        )
        assert seen == [gc_state, gc_state]  # one call per checkpoint
        assert gc.isenabled() is gc_state
