"""The four benchmark workloads: inputs from a seed, one timed execution, a digest.

Every execution starts cold.  :func:`generate` builds fresh objects each
time it is called (a new demand map, a new :class:`JobSequence`, a new
failure plan), so ``run_online``'s omega* memo -- keyed by the identity of
the job sequence -- and the family demand cache never carry over from an
earlier repeat.

The digest of an execution hashes its physical outcome only: for
``run_online`` the :class:`OnlineResult` fields that the sharded modes
reproduce byte for byte (energies, counters, clock, per-vehicle energies);
for ``run_service`` the result's ``result_hash`` together with its
``fleet_digest``.  Execution-mode bookkeeping (shard count, barriers,
timings) is left out, so a sharded run and its ``shards=1`` twin hash the
same.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.api.service import ServiceConfig
from repro.core.demand import Job, JobSequence
from repro.core.online import run_online
from repro.distsim.failures import FailurePlan
from repro.distsim.transport import TransportSpec
from repro.service import run_service
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import random_arrivals
from repro.workloads.generators import grid_demand

#: Logical shards of the sharded workloads.
SHARDS = 8

#: Worker processes of a sharded execution.  One worker runs the shards in
#: turn, so a single process of the workload is busy at any moment whatever
#: the host's core count; the shard results, and so the digest, do not
#: depend on the worker count.
SHARD_WORKERS = 1

#: The omega every workload partitions with (what scale-up resolves to).
OMEGA = 3.0


@dataclass(frozen=True)
class Size:
    """The knobs that size a workload (reduced in the benchmark's tests)."""

    side: int
    jobs: int = 0


#: Workload name -> full size.  ``jobs`` is the prefix / stream length.
SIZES = {
    # side 224: 2 * 224**2 = 100,352 unit jobs, one per arrival.
    "batch-1e5": Size(side=224),
    "ring-loss": Size(side=32, jobs=40),
    # side 100: 10,000 demand points, 10,404 vehicles at omega 3.
    "serve-ckpt-1e4": Size(side=100, jobs=20_000),
    "gossip-1e3": Size(side=32, jobs=12),
}

#: serve-ckpt-1e4: jobs per metrics window and windows per checkpoint.
#: Four of its 20 windows write a checkpoint, so the 90th percentile of the
#: window times (between the 18th and 19th fastest) lands among them.
SERVE_WINDOW = 1000
SERVE_CHECKPOINT_EVERY = 4

#: gossip-1e3: vehicles dead from the start, one per far corner region.
GOSSIP_DEAD = ((0, 0), (15, 15), (30, 30), (0, 30))

#: gossip-1e3: jobs (= heartbeat rounds) per window.  The harness pulls the
#: second job before it runs the first, so a one-job window would read 0.
GOSSIP_WINDOW = 2


@dataclass
class Execution:
    """What one timed execution of a workload measured."""

    result: Any
    run_s: float
    setup_s: float
    #: Wall seconds of the worker-pool call (0.0 when no pool ran).
    pool_s: float
    #: The largest ``shard_timings`` entry (0.0 when no pool ran).
    slowest_shard_s: float
    #: Host milliseconds per window of the job stream.
    windows_ms: List[float]
    attempted: int
    served: int
    events: int
    digest: str
    problems: List[str] = field(default_factory=list)

    @property
    def critical_path_s(self) -> float:
        """Coordinator time outside the pool plus the slowest worker.

        An execution without a worker pool is all coordinator: its critical
        path is the whole run.
        """
        if not self.slowest_shard_s or not self.pool_s:
            return self.run_s
        return self.run_s - self.pool_s + self.slowest_shard_s


# ---------------------------------------------------------------------- #
# digests
# ---------------------------------------------------------------------- #

_ONLINE_FIELDS = (
    "jobs_total",
    "jobs_served",
    "feasible",
    "max_vehicle_energy",
    "total_travel",
    "total_service",
    "omega",
    "omega_star",
    "capacity",
    "theorem_capacity",
    "replacements",
    "searches",
    "failed_replacements",
    "messages",
    "heartbeat_rounds",
    "events_processed",
    "sim_time",
    "transport",
    "messages_dropped",
    "messages_corrupted",
)


def online_digest(result) -> str:
    """SHA-256 over an OnlineResult's physical fields and vehicle energies."""
    payload = {name: getattr(result, name) for name in _ONLINE_FIELDS}
    payload["vehicle_energies"] = sorted(
        [list(vertex), energy] for vertex, energy in result.vehicle_energies.items()
    )
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def service_digest(result) -> str:
    """``result_hash`` and ``fleet_digest`` of a ServiceResult, joined."""
    return f"{result.result_hash()}:{result.fleet_digest}"


# ---------------------------------------------------------------------- #
# the job stream the service harness pulls from
# ---------------------------------------------------------------------- #


class TimedStream:
    """Yields jobs and stamps the host clock every ``window`` pulls.

    The harness pulls the next job only when it is ready for it, so the
    gaps between stamps are a closed-loop measure of host time per window.
    The first stamp is the moment set-up ended and dispatch began.
    """

    def __init__(self, jobs: List[Job], window: int) -> None:
        self.jobs = jobs
        self.window = window
        self.stamps: List[float] = []

    def __iter__(self):
        for index, job in enumerate(self.jobs):
            if index % self.window == 0:
                self.stamps.append(perf_counter())
            yield job
        self.stamps.append(perf_counter())

    def windows_ms(self) -> List[float]:
        """Milliseconds per full window (a trailing partial window is dropped)."""
        full = len(self.jobs) // self.window
        return [(b - a) * 1e3 for a, b in zip(self.stamps[:full], self.stamps[1 : full + 1])]


def _seeded_jobs(positions, count: int, rng: np.random.Generator) -> List[Job]:
    picks = rng.integers(0, len(positions), size=count)
    return [
        Job(time=float(k + 1), position=positions[i], energy=1.0)
        for k, i in enumerate(picks.tolist())
    ]


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


def _online_execution(result, ledger, start: float, end: float) -> Execution:
    run_s = end - start
    pool_layer = "plockstep.pool" if result.shard_mode == "parallel-lockstep" else "sharding.pool"
    pool_start = ledger.first_start.get(pool_layer)
    setup_s = (pool_start / 1e9 - start) if pool_start is not None else run_s
    pool_s = ledger.wall(pool_layer)
    return Execution(
        result=result,
        run_s=run_s,
        setup_s=setup_s,
        pool_s=pool_s,
        slowest_shard_s=max(result.shard_timings.values(), default=0.0),
        # A run_online call consumes its whole job sequence as one window.
        windows_ms=[run_s * 1e3],
        attempted=result.jobs_total,
        served=result.jobs_served,
        events=result.events_processed,
        digest=online_digest(result),
    )


def _service_execution(result, stream: TimedStream, start: float, end: float) -> Execution:
    return Execution(
        result=result,
        run_s=end - start,
        setup_s=stream.stamps[0] - start,
        pool_s=0.0,
        slowest_shard_s=0.0,
        windows_ms=stream.windows_ms(),
        attempted=result.jobs_total,
        served=result.jobs_served,
        events=result.events_processed,
        digest=service_digest(result),
    )


class Workload:
    """One named workload: ``generate(seed)`` then ``execute(inputs, ledger)``."""

    name: str = ""
    #: Whether the workload runs through a multi-process shard mode.
    sharded: bool = False
    #: The shard mode a sharded execution must report.
    mode: str = ""
    #: The layer the workload is built to load most, in the in-process
    #: ledger (the ``shards=1`` pass of a sharded workload); the traced run
    #: reports whether it still is.
    busiest_layer: str = ""

    def __init__(self, size: Optional[Size] = None) -> None:
        self.size = size if size is not None else SIZES[self.name]

    def generate(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def execute(self, inputs: Dict[str, Any], ledger, *, shards: int, scratch: Path) -> Execution:
        """Run once; ``shards`` applies to the sharded workloads only."""
        raise NotImplementedError

    def check(self, execution: Execution, *, shards: int) -> List[str]:
        """Invariants every execution must satisfy, as a list of violations."""
        problems = []
        result = execution.result
        if execution.attempted != self.expected_jobs():
            problems.append(f"attempted {execution.attempted} jobs, expected {self.expected_jobs()}")
        if result.capacity is not None and result.max_vehicle_energy > result.capacity + 1e-9:
            problems.append("a vehicle drew more energy than its capacity")
        if self.sharded and shards > 1 and result.shard_mode != self.mode:
            problems.append(f"shard mode {result.shard_mode!r} ({result.shard_mode_reason}), expected {self.mode!r}")
        return problems

    def expected_jobs(self) -> int:
        return self.size.jobs


class BatchWorkload(Workload):
    name = "batch-1e5"
    sharded = True
    mode = "parallel"

    def generate(self, seed: int) -> Dict[str, Any]:
        demand = grid_demand(self.size.side, 2.0)
        return {"jobs": random_arrivals(demand, np.random.default_rng(seed))}

    def expected_jobs(self) -> int:
        return 2 * self.size.side**2

    def execute(self, inputs, ledger, *, shards, scratch):
        start = perf_counter()
        result = run_online(
            inputs["jobs"],
            capacity="theorem",
            config=FleetConfig(),
            shards=shards,
            shard_workers=SHARD_WORKERS,
        )
        execution = _online_execution(result, ledger, start, perf_counter())
        if not result.feasible:
            execution.problems.append("reliable batch run left jobs unserved")
        if result.messages:
            execution.problems.append("a reliable failure-free batch sent protocol messages")
        return execution


class RingLossWorkload(Workload):
    name = "ring-loss"
    sharded = True
    mode = "parallel-lockstep"
    busiest_layer = "transport.draw"

    def generate(self, seed: int) -> Dict[str, Any]:
        demand = grid_demand(self.size.side, 2.0)
        order = random_arrivals(demand, np.random.default_rng(seed))
        jobs = JobSequence.from_positions([job.position for job in order.jobs[: self.size.jobs]])
        plan = FailurePlan()
        for vertex in sorted(demand.support())[::97]:
            plan.crash(tuple(int(c) for c in vertex))
        transport = TransportSpec(
            kind="lossy",
            params={"loss": 0.05, "delay": 0.02, "seed": seed, "stream": "edge"},
        )
        return {"jobs": jobs, "plan": plan, "transport": transport}

    def execute(self, inputs, ledger, *, shards, scratch):
        start = perf_counter()
        result = run_online(
            inputs["jobs"],
            omega=OMEGA,
            config=FleetConfig(monitoring=True),
            failure_plan=inputs["plan"],
            transport=inputs["transport"],
            shards=shards,
            shard_workers=SHARD_WORKERS,
        )
        return _online_execution(result, ledger, start, perf_counter())


class ServeCheckpointWorkload(Workload):
    name = "serve-ckpt-1e4"

    def generate(self, seed: int) -> Dict[str, Any]:
        demand = grid_demand(self.size.side, 2.0)
        config = ServiceConfig.from_demand(
            demand,
            capacity=None,
            omega=OMEGA,
            window_jobs=SERVE_WINDOW,
            checkpoint_every=SERVE_CHECKPOINT_EVERY,
        )
        positions = sorted(demand.support())
        jobs = _seeded_jobs(positions, self.size.jobs, np.random.default_rng(seed))
        return {"config": config, "jobs": jobs}

    def execute(self, inputs, ledger, *, shards, scratch):
        stream = TimedStream(inputs["jobs"], SERVE_WINDOW)
        with tempfile.TemporaryDirectory(dir=scratch) as directory:
            start = perf_counter()
            result = run_service(
                inputs["config"], stream, checkpoint_path=Path(directory) / "checkpoint.json"
            )
            end = perf_counter()
        execution = _service_execution(result, stream, start, end)
        windows = self.size.jobs // SERVE_WINDOW
        if result.windows != windows:
            execution.problems.append(f"{result.windows} metrics windows, expected {windows}")
        if result.checkpoints_written != (windows - 1) // SERVE_CHECKPOINT_EVERY:
            execution.problems.append(f"{result.checkpoints_written} checkpoints written")
        if not result.feasible:
            execution.problems.append("unbounded-capacity service left jobs unserved")
        return execution


class GossipWorkload(Workload):
    name = "gossip-1e3"

    def generate(self, seed: int) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        demand = grid_demand(self.size.side, 2.0)
        positions = sorted(demand.support())
        dead = set(GOSSIP_DEAD)
        candidates = [p for p in positions if p not in dead]
        quorum = FleetConfig().quorum
        watchers = [candidates[i] for i in rng.choice(len(candidates), quorum - 1, replace=False)]
        config = ServiceConfig.from_demand(
            demand,
            omega=OMEGA,
            fleet={"monitoring": "gossip"},
            transport=TransportSpec("lossy", {"loss": 0.1, "seed": seed}),
            dead_vehicles=GOSSIP_DEAD,
            byzantine_watchers=tuple(watchers),
            # One arrival scheduled ahead: each pull is one heartbeat round.
            lookahead=1,
        )
        return {"config": config, "jobs": _seeded_jobs(positions, self.size.jobs, rng)}

    def execute(self, inputs, ledger, *, shards, scratch):
        stream = TimedStream(inputs["jobs"], GOSSIP_WINDOW)
        start = perf_counter()
        result = run_service(inputs["config"], stream)
        execution = _service_execution(result, stream, start, perf_counter())
        if result.detections != len(GOSSIP_DEAD):
            execution.problems.append(
                f"{result.detections} of {len(GOSSIP_DEAD)} dead vehicles detected"
            )
        return execution


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls
    for cls in (BatchWorkload, RingLossWorkload, ServeCheckpointWorkload, GossipWorkload)
}
