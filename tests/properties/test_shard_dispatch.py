"""Dispatch contract of the multi-process shard engine.

One pool and one merge run every multi-process sharded run, but
:mod:`repro.core.online` binds them under two names each:
``run_parallel`` / ``merge_shard_results`` for ``"parallel"`` runs and
``run_parallel_lockstep`` / ``merge_parallel_lockstep_results`` for
``"parallel-lockstep"`` runs.  The benchmark ledger
(``perfbench/bench_ledger.py``) times each mode by patching those module
names, so each mode must call exactly its own pair, looked up at call
time -- and both must stay byte-identical to the unsharded run.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.core.online as online
from repro.core.demand import JobSequence
from repro.distsim.transport import TransportSpec
from repro.vehicles.fleet import FleetConfig

PARALLEL_PAIR = ("run_parallel", "merge_shard_results")
LOCKSTEP_PAIR = ("run_parallel_lockstep", "merge_parallel_lockstep_results")

FIELDS = (
    "jobs_total",
    "jobs_served",
    "feasible",
    "max_vehicle_energy",
    "total_travel",
    "total_service",
    "replacements",
    "searches",
    "failed_replacements",
    "messages",
    "heartbeat_rounds",
    "events_processed",
    "sim_time",
    "messages_dropped",
    "messages_corrupted",
    "vehicle_energies",
)

EDGE_LOSSY = TransportSpec(
    kind="lossy", params={"loss": 0.05, "delay": 0.02, "seed": 3, "stream": "edge"}
)


@pytest.fixture(scope="module")
def jobs():
    rng = np.random.default_rng(11)
    points = rng.integers(0, 16, size=(80, 2))
    return JobSequence.from_positions(
        [tuple(int(c) for c in points[i % len(points)]) for i in range(100)]
    )


@pytest.fixture
def calls(monkeypatch):
    """Count calls to the four pool/merge names, passing through."""
    counts: Counter = Counter()
    for name in PARALLEL_PAIR + LOCKSTEP_PAIR:
        original = getattr(online, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(online, name, counted)
    return counts


def _run(jobs, shards, **kwargs):
    return online.run_online(
        jobs, omega=3.0, capacity="theorem", shards=shards, shard_workers=1, **kwargs
    )


def _assert_identical(a, b):
    for field in FIELDS:
        assert getattr(a, field) == getattr(b, field), field


def test_failure_free_run_calls_only_the_parallel_pair(jobs, calls):
    base = _run(jobs, 1, config=FleetConfig())
    assert not calls
    sharded = _run(jobs, 4, config=FleetConfig())
    assert sharded.shard_mode == "parallel"
    assert calls == Counter({name: 1 for name in PARALLEL_PAIR})
    _assert_identical(base, sharded)


def test_monitored_edge_lossy_run_calls_only_the_lockstep_pair(jobs, calls):
    kwargs = dict(
        config=FleetConfig(monitoring=True), transport=EDGE_LOSSY, escalation=False
    )
    base = _run(jobs, 1, **kwargs)
    assert not calls
    sharded = _run(jobs, 4, **kwargs)
    assert sharded.shard_mode == "parallel-lockstep"
    assert calls == Counter({name: 1 for name in LOCKSTEP_PAIR})
    _assert_identical(base, sharded)
