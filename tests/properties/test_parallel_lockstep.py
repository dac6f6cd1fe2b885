"""Parallel lockstep suite: multi-process failure-mode runs, byte for byte.

PR 9 widens the multi-process shard class from "no failures at all" to
every failure mode whose protocol traffic is provably shard-local
(monitoring without escalation, crashes, suppression, partitions, churn,
edge-keyed lossy/corrupting transports).  This suite pins the contract:

* **Byte identity** -- a full failure-mode configuration produces the same
  result at shards=1, 4, 8 and at any worker count, through the
  ``parallel-lockstep`` mode (asserted, not assumed).
* **Eligibility** -- every disqualifying feature names itself: the
  recorded ``shard_mode_reason`` is the first structural property that
  forced the single-process lockstep fallback, and the fallback itself
  stays byte-identical.
* **Window floor** (satellite 1) -- ``lockstep_window`` derives the
  conservative window from actual probed cross-shard edge latencies;
  sub-unit positive latencies no longer fall through to the hard 1.0
  last resort.
* **Mailbox prefix cuts** (satellite 3) -- many same-timestamp boundary
  messages across >= 3 shards drain in exact ``(timestamp, sequence)``
  order, prefix by prefix.
* **Adaptive windows** -- ``run_lockstep`` with a horizon crosses fewer
  barriers over quiet stretches yet executes the identical event sequence.
* **N -> M resume** -- a service checkpoint taken under N shards resumes
  under M shards to the same ``result_hash`` / ``fleet_digest``.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.core.demand import JobSequence
from repro.core.online import run_online
from repro.distsim.engine import Simulator
from repro.distsim.failures import ChurnSpec, FailurePlan, PartitionSpec
from repro.distsim.parallel_lockstep import parallel_lockstep_eligibility
from repro.distsim.sharding import (
    ShardMailbox,
    cross_shard_edge_latencies,
    lockstep_window,
    run_lockstep,
)
from repro.distsim.transport import (
    CorruptingTransport,
    DistanceLatencyTransport,
    LossyTransport,
    TransportSpec,
)
from repro.vehicles.fleet import FleetConfig

#: Every field two runs must agree on to count as byte-identical.
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
    "escalations",
    "escalated_replacements",
    "adoptions",
    "vehicle_energies",
)


def _assert_identical(a, b):
    for field in FIELDS:
        assert getattr(a, field) == getattr(b, field), field


@pytest.fixture(scope="module")
def failure_workload():
    """A failure-heavy workload: crashes, suppression, a partition, churn."""
    rng = np.random.default_rng(7)
    pts = rng.integers(0, 16, size=(100, 2))
    positions = [tuple(int(c) for c in pts[i % len(pts)]) for i in range(120)]
    jobs = JobSequence.from_positions(positions)
    ids = sorted({tuple(int(c) for c in p) for p in pts})
    plan = FailurePlan()
    for v in ids[::17]:
        plan.crash(v)
    for v in ids[3::23]:
        plan.suppress_initiation(v)
    plan.add_partition(PartitionSpec(start=25.0, end=60.0, axis=0, boundary=8))
    churn = [
        ChurnSpec(time=20.0, vertex=ids[5], action="leave"),
        ChurnSpec(time=45.0, vertex=ids[5], action="join"),
        ChurnSpec(time=70.0, vertex=ids[9], action="leave"),
    ]
    dead = [ids[2], ids[11]]
    return jobs, plan, churn, dead


@pytest.fixture(scope="module")
def tiny_workload():
    """A minimal monitored workload for mode/reason assertions only."""
    rng = np.random.default_rng(3)
    pts = rng.integers(0, 8, size=(30, 2))
    positions = [tuple(int(c) for c in pts[i % len(pts)]) for i in range(40)]
    return JobSequence.from_positions(positions)


EDGE_LOSSY = TransportSpec(
    kind="lossy", params={"loss": 0.08, "delay": 0.02, "seed": 3, "stream": "edge"}
)
GLOBAL_LOSSY = TransportSpec(
    kind="lossy", params={"loss": 0.08, "delay": 0.02, "seed": 3}
)


class TestParallelLockstepByteIdentity:
    """Failure-mode runs: multi-process == single-process, bit for bit."""

    def _run(self, workload, shards, workers=None, transport=EDGE_LOSSY):
        jobs, plan, churn, dead = workload
        return run_online(
            jobs,
            omega=3.0,
            capacity="theorem",
            config=FleetConfig(monitoring=True),
            failure_plan=copy.deepcopy(plan),
            dead_vehicles=dead,
            churn=churn,
            transport=transport,
            escalation=False,
            shards=shards,
            shard_workers=workers,
        )

    @pytest.fixture(scope="class")
    def baseline(self, failure_workload):
        return self._run(failure_workload, 1)

    @pytest.mark.parametrize("shards", [4, 8])
    def test_identical_across_shard_counts(self, failure_workload, baseline, shards):
        sharded = self._run(failure_workload, shards)
        assert sharded.shard_mode == "parallel-lockstep"
        assert sharded.shard_mode_reason == ""
        assert sharded.cross_shard_messages == 0
        _assert_identical(baseline, sharded)

    def test_identical_at_any_worker_count(self, failure_workload, baseline):
        # The worker pool size is pure scheduling: each shard is a closed
        # deterministic sub-simulation, so serializing them changes nothing.
        serial = self._run(failure_workload, 4, workers=1)
        assert serial.shard_mode == "parallel-lockstep"
        _assert_identical(baseline, serial)

    def test_one_barrier_per_shard(self, failure_workload):
        # Zero outbound boundary edges -> infinite Chandy-Misra lookahead
        # -> each worker free-runs through exactly one window barrier.
        sharded = self._run(failure_workload, 4)
        assert sharded.window_barriers == 4

    def test_corrupting_edge_stream_identical(self, failure_workload):
        spec = TransportSpec(
            kind="corrupting",
            params={"rate": 0.1, "delay": 0.02, "seed": 5, "stream": "edge"},
        )
        base = self._run(failure_workload, 1, transport=spec)
        sharded = self._run(failure_workload, 4, transport=spec)
        assert sharded.shard_mode == "parallel-lockstep"
        assert sharded.messages_corrupted == base.messages_corrupted
        _assert_identical(base, sharded)


class TestEligibilityAndFallback:
    """Disqualified configs fall back to lockstep -- attributably, exactly."""

    def _run(self, jobs, shards, **overrides):
        kwargs = dict(
            omega=3.0,
            config=FleetConfig(monitoring=True),
            transport=GLOBAL_LOSSY,
            escalation=False,
            shards=shards,
        )
        kwargs.update(overrides)
        return run_online(jobs, **kwargs)

    def test_global_stream_falls_back_identically(self, failure_workload):
        jobs, plan, churn, dead = failure_workload
        kwargs = dict(churn=churn, dead_vehicles=dead)
        base = self._run(jobs, 1, failure_plan=copy.deepcopy(plan), **kwargs)
        sharded = self._run(jobs, 4, failure_plan=copy.deepcopy(plan), **kwargs)
        assert sharded.shard_mode == "lockstep"
        assert "shared stream" in sharded.shard_mode_reason
        assert sharded.window_barriers > 0
        _assert_identical(base, sharded)

    def test_escalation_reason(self, tiny_workload):
        result = self._run(
            tiny_workload,
            4,
            config=FleetConfig(monitoring=True, escalation=True),
            escalation=None,
        )
        assert result.shard_mode == "lockstep"
        assert result.shard_mode_reason.startswith("escalation")

    def test_recovery_rounds_reason(self, tiny_workload):
        result = self._run(tiny_workload, 4, recovery_rounds=2)
        assert result.shard_mode == "lockstep"
        assert result.shard_mode_reason.startswith("recovery_rounds")

    def test_shared_rng_jitter_reason(self, tiny_workload):
        result = self._run(
            tiny_workload, 4, transport=None, rng=np.random.default_rng(1)
        )
        assert result.shard_mode == "lockstep"
        assert "shared-rng" in result.shard_mode_reason

    def test_single_shard_records_no_mode(self, tiny_workload):
        result = self._run(tiny_workload, 1)
        assert result.shard_mode == ""
        assert result.shard_mode_reason == ""

    def test_shard_safe_config_still_takes_parallel(self, tiny_workload):
        # The PR 8 isolated fast path survives: no failures, pure-edge
        # transport, no monitoring -> "parallel", not "parallel-lockstep".
        result = run_online(tiny_workload, omega=3.0, transport="latency", shards=4)
        assert result.shard_mode == "parallel"
        assert result.shard_mode_reason == ""

    def test_eligibility_unit_reasons(self):
        config = FleetConfig(monitoring=True)
        ok, reason = parallel_lockstep_eligibility(
            "lossy", LossyTransport(stream="edge"), config, None, None, 0, False
        )
        assert ok and reason == ""
        plan = FailurePlan()
        plan.drop_predicates.append(lambda *a: False)
        ok, reason = parallel_lockstep_eligibility(
            "lossy", LossyTransport(stream="edge"), config, None, plan, 0, False
        )
        assert not ok and "drop predicates" in reason
        instance = LossyTransport(stream="edge")
        ok, reason = parallel_lockstep_eligibility(
            instance, instance, config, None, None, 0, False
        )
        assert not ok and "caller-owned" in reason
        ok, reason = parallel_lockstep_eligibility(
            None, None, config, None, None, 0, False
        )
        assert ok  # fixed-delay reliable default, rebuilt per worker


class TestLockstepWindowFloor:
    """Satellite 1: the window derives from real edge latencies, not 1.0."""

    def test_probed_latencies_beat_the_last_resort(self):
        # A distance-proportional transport with a zero floor used to fall
        # through min_latency (0) and fallback (0) to the hard 1.0 last
        # resort -- wildly over-wide when actual cross-shard edges sit a
        # few lattice steps apart.
        transport = DistanceLatencyTransport(delay=0.0, per_step=0.002)
        assert transport.min_latency() == 0.0
        window = lockstep_window(transport, 0.0, edge_latencies=[0.006, 0.014])
        assert window == 0.006

    def test_non_positive_probes_are_ignored(self):
        transport = LossyTransport(delay=0.25)
        assert lockstep_window(transport, 0.0, edge_latencies=[0.0, -1.0]) == 0.25
        assert lockstep_window(transport, 0.0, edge_latencies=[]) == 0.25

    def test_last_resort_only_when_nothing_is_positive(self):
        assert lockstep_window(None, 0.0) == 1.0
        assert lockstep_window(None, 0.05) == 0.05

    def test_cross_shard_probe_sampling(self):
        # Duck-typed plan: two boundary cubes owned by different shards,
        # whose rank-1 siblings belong to the other shard.
        class Hierarchy:
            def siblings(self, index, level):
                return [(index[0] + 1, index[1])]

        class Plan:
            hierarchy = Hierarchy()

            def boundary_cubes(self):
                return [(0, 0), (1, 0)]

            def shard_of(self, index):
                return index[0]

            def shard_of_or(self, index, default):
                return index[0] if index[0] <= 2 else default

        members = {(0, 0): [(1, 1)], (1, 0): [(5, 1)], (2, 0): [(9, 1)]}
        transport = DistanceLatencyTransport(delay=0.0, per_step=0.002)
        probes = cross_shard_edge_latencies(transport, Plan(), members.get)
        assert probes == [0.008, 0.008]  # 4 lattice steps * 0.002, per cube
        assert lockstep_window(transport, 0.0, edge_latencies=probes) == 0.008


class TestShardMailboxPrefixCut:
    """Satellite 3: same-timestamp floods drain in exact posted order."""

    def _flood(self):
        mailbox = ShardMailbox()
        # Three barrier epochs; inside each, nine same-timestamp messages
        # interleaved across shards 0/1/2 in a fixed global send order.
        for epoch in range(3):
            time = float(epoch)
            for burst in range(3):
                for source in range(3):
                    mailbox.post(time, source, (source + 1) % 3, (epoch, burst, source))
        return mailbox

    def test_drain_is_a_prefix_cut_in_sequence_order(self):
        mailbox = self._flood()
        assert mailbox.posted == 27
        first = mailbox.drain_until(0.0)
        assert len(first) == 9
        # Same timestamp throughout: order is exactly the posting sequence.
        assert [entry[1] for entry in first] == list(range(9))
        assert [entry[4] for entry in first] == [
            (0, burst, source) for burst in range(3) for source in range(3)
        ]
        assert len(mailbox) == 18
        assert mailbox.exchanged == 9

    def test_repeated_drains_partition_the_ledger(self):
        mailbox = self._flood()
        drained = []
        for epoch in range(3):
            batch = mailbox.drain_until(float(epoch))
            assert all(entry[0] == float(epoch) for entry in batch)
            drained.extend(batch)
        assert len(drained) == 27
        assert [entry[1] for entry in drained] == list(range(27))
        assert len(mailbox) == 0
        assert mailbox.drain_until(math.inf) == []

    def test_mid_epoch_bound_takes_whole_timestamp_group(self):
        mailbox = self._flood()
        batch = mailbox.drain_until(1.5)
        assert len(batch) == 18  # epochs 0 and 1, never a partial timestamp
        assert {entry[0] for entry in batch} == {0.0, 1.0}
        sources = [entry[2] for entry in batch]
        assert sorted(set(sources)) == [0, 1, 2]


class TestAdaptiveWindows:
    """Horizon-bounded barriers: same events, fewer synchronization points."""

    @staticmethod
    def _sparse_simulator(log):
        simulator = Simulator()
        for time in (1.0, 50.0, 100.0):
            simulator.schedule_at(time, lambda t=time: log.append(t))
        return simulator

    def test_grid_vs_horizon_same_events_fewer_barriers(self):
        grid_log, horizon_log = [], []
        grid_executed, grid_barriers = run_lockstep(
            self._sparse_simulator(grid_log), 0.5
        )
        horizon_executed, horizon_barriers = run_lockstep(
            self._sparse_simulator(horizon_log), 0.5, horizon=math.inf
        )
        assert grid_log == horizon_log == [1.0, 50.0, 100.0]
        assert grid_executed == horizon_executed == 3
        assert grid_barriers == 3  # empty windows are skipped, one per event
        assert horizon_barriers == 1  # free-run: the Chandy-Misra optimum

    def test_finite_horizon_batches_nearby_events(self):
        log = []
        simulator = Simulator()
        for time in (1.0, 1.2, 1.4, 80.0):
            simulator.schedule_at(time, lambda t=time: log.append(t))
        executed, barriers = run_lockstep(simulator, 0.5, horizon=2.0)
        assert log == [1.0, 1.2, 1.4, 80.0]
        assert executed == 4
        assert barriers == 2  # [1.0, 3.0) takes the cluster, one more for 80.0

    def test_horizon_below_window_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            run_lockstep(Simulator(), 0.5, horizon=0.25)


class TestServiceShardResume:
    """A checkpoint taken under N shards resumes under M shards, same bytes."""

    @pytest.fixture(scope="class")
    def service_runs(self, tmp_path_factory):
        from repro.api.service import ServiceConfig
        from repro.service import resume_service, run_service
        from repro.workloads.arrivals import streaming_arrivals
        from repro.workloads.library import build_family_demand

        demand = build_family_demand("scale-up", {"side": 8, "per_point": 2.0})
        config = ServiceConfig.from_demand(
            demand, seed=5, shards=2, checkpoint_every=1, window_jobs=20
        )
        jobs = lambda: streaming_arrivals(demand, jobs=80)
        snap = tmp_path_factory.mktemp("snap") / "snap.json"
        full = run_service(config.replace(shards=1), jobs())
        interrupted = run_service(
            config, jobs(), checkpoint_path=snap, stop_after_checkpoints=1
        )
        assert interrupted.interrupted
        return full, snap, jobs, resume_service

    def test_resume_under_more_shards(self, service_runs):
        full, snap, jobs, resume_service = service_runs
        resumed = resume_service(snap, jobs(), shards=5)
        assert resumed.shards == 5
        assert resumed.result_hash() == full.result_hash()
        assert resumed.fleet_digest == full.fleet_digest

    def test_resume_under_one_shard(self, service_runs):
        full, snap, jobs, resume_service = service_runs
        resumed = resume_service(snap, jobs(), shards=1)
        assert resumed.shards == 1
        assert resumed.result_hash() == full.result_hash()

    def test_resume_keeps_snapshot_shards_by_default(self, service_runs):
        full, snap, jobs, resume_service = service_runs
        resumed = resume_service(snap, jobs())
        assert resumed.shards == 2
        assert resumed.result_hash() == full.result_hash()
