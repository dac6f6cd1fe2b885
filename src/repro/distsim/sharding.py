"""Cube-partitioned sharding of deterministic simulation runs.

The protocol is cube-local by construction: Phase I/II replacement traffic
never leaves a cube, and the only messages that cross a cube boundary are
the escalation/monitoring flows the hierarchy defines (escalation rings,
hierarchical watch-ring heartbeats, adoption moves).  The cube partition is
therefore a natural shard key, and this module turns it into one:

* :class:`ShardPlan` assigns every occupied cube to one of ``N`` shards by
  grouping cubes under a common :class:`~repro.grid.cubes.CubeHierarchy`
  ancestor (a dyadic level box) and distributing the lex-ordered groups
  contiguously, balanced by cube count.
* :class:`ShardMonitor` hooks :attr:`Network.shard_monitor
  <repro.distsim.network.Network.shard_monitor>` to count each logical send
  as intra- vs cross-shard.  It is how a single-process ``lockstep`` run
  (one global fleet on one clock, so every configuration is exact,
  including the stream-coupled transports whose draws depend on the global
  send order) reports its boundary traffic.
* :func:`run_parallel` is the multi-process engine for the configurations
  :func:`~repro.distsim.parallel_lockstep.parallel_lockstep_eligibility`
  admits (all protocol traffic shard-local): each :func:`_shard_worker`
  builds its own sub-fleet over the global window, replays the failure
  plan, churn and foreign-arrival ticks the run needs (none for a
  failure-free run, which is then a set of fully independent
  sub-simulations), runs to quiescence under an :class:`IsolationGuard`,
  and :func:`merge_shard_results` reassembles the per-cube state segments
  in global creation (lex) order so even float summation order -- and
  with it ``total_travel``/``total_service`` -- matches the
  single-process run bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ShardPlan",
    "ShardMonitor",
    "IsolationGuard",
    "run_parallel",
    "merge_shard_results",
]

CubeIndex = Tuple[int, ...]


class ShardPlan:
    """Assignment of cubes to shards via hierarchy-level ancestor groups.

    Parameters
    ----------
    hierarchy:
        The run's :class:`~repro.grid.cubes.CubeHierarchy` (only ``grid``,
        ``levels`` and ``ancestors_array`` are used; it is not imported, so
        the distsim layer stays import-independent of the grid package).
    shards:
        Number of shards (``>= 1``).  Shards may end up empty when the
        occupied-cube count is smaller.
    cubes:
        The cube multi-indices to assign -- typically the cubes with
        demand, in any order.  Defaults to every cube of the grid.
    """

    def __init__(
        self,
        hierarchy,
        shards: int,
        cubes: Optional[Sequence[CubeIndex]] = None,
    ) -> None:
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        if cubes is None:
            cubes = [index for index, _box in hierarchy.grid.cubes()]
        normalized = sorted({tuple(int(c) for c in index) for index in cubes})
        if not normalized:
            raise ValueError("cannot build a shard plan over zero cubes")
        self.cubes: Tuple[CubeIndex, ...] = tuple(normalized)

        self.level = self._choose_level(hierarchy, normalized, shards)
        grouped = self._group_members(hierarchy, normalized, self.level)

        # Contiguous balanced partition of the lex-ordered group list: walk
        # groups in ancestor order, closing the current shard once adding
        # more than half the next group would overshoot its fair share of
        # what remains.  Deterministic, and shard regions stay unions of
        # whole level boxes.
        assignment: List[List[CubeIndex]] = [[] for _ in range(shards)]
        shard = 0
        count = 0
        remaining = len(normalized)
        for members in grouped:
            if shard < shards - 1 and count > 0:
                fair = (count + remaining) / (shards - shard)
                if count + 0.5 * len(members) > fair:
                    shard += 1
                    count = 0
            assignment[shard].extend(members)
            count += len(members)
            remaining -= len(members)
        self._assignment: Tuple[Tuple[CubeIndex, ...], ...] = tuple(
            tuple(members) for members in assignment
        )
        self._shard_of: Dict[CubeIndex, int] = {
            index: shard
            for shard, members in enumerate(self._assignment)
            for index in members
        }

    @staticmethod
    def _choose_level(hierarchy, cubes: List[CubeIndex], shards: int) -> int:
        """The coarsest level that still leaves room to balance.

        Prefer the largest level whose ancestor-group count is at least
        ``4 * shards`` (slack for the greedy balancer), falling back to at
        least ``shards`` groups, then to level 0 (every cube its own
        group).  Coarser groups mean fewer boundary cubes; finer groups
        mean better load balance -- the 4x slack is the compromise.
        """
        fallback = 0
        for level in range(hierarchy.levels, -1, -1):
            count = len(np.unique(hierarchy.ancestors_array(cubes, level), axis=0))
            if count >= 4 * shards:
                return level
            if count >= shards and fallback == 0:
                fallback = level
        return fallback

    @staticmethod
    def _group_members(
        hierarchy, normalized: List[CubeIndex], level: int
    ) -> List[List[CubeIndex]]:
        """Member lists per ancestor group, in lexicographic ancestor order.

        Members keep their (lex) order inside each group.  The grouping is
        one vectorized unique + stable sort over ``ancestors_array`` rather
        than one Python ``ancestor()`` call per cube -- at ``10^5`` cubes
        that is the difference between milliseconds and seconds on the
        shard-planning critical path, which every multi-process run pays
        before the first worker starts.
        """
        uniq, inverse = np.unique(
            hierarchy.ancestors_array(normalized, level), axis=0, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        counts = np.bincount(inverse, minlength=len(uniq))
        order = np.argsort(inverse, kind="stable")
        grouped: List[List[CubeIndex]] = []
        start = 0
        for size in counts:
            grouped.append([normalized[i] for i in order[start : start + size]])
            start += size
        return grouped

    def shard_of(self, index: CubeIndex) -> int:
        """The shard owning cube ``index`` (raises on unassigned cubes)."""
        return self._shard_of[tuple(index)]

    def shard_of_or(self, index: CubeIndex, default: int = 0) -> int:
        """Like :meth:`shard_of` but tolerant of unassigned cubes."""
        return self._shard_of.get(tuple(index), default)

    def cubes_of(self, shard: int) -> Tuple[CubeIndex, ...]:
        """The cubes assigned to ``shard``, in lexicographic order."""
        return self._assignment[shard]

    def counts(self) -> Tuple[int, ...]:
        """Cube count per shard (empty shards report 0)."""
        return tuple(len(members) for members in self._assignment)


class ShardMonitor:
    """Classifies every logical send as intra- or cross-shard.

    Installed as :attr:`Network.shard_monitor
    <repro.distsim.network.Network.shard_monitor>`; purely observational,
    so the monitored run stays byte-identical to an unmonitored one.
    Identities are mapped to shards through their *home cube* (vehicle
    identities are home vertices; a vehicle that physically moved still
    answers protocol traffic under its identity).
    """

    def __init__(
        self, plan: ShardPlan, cube_of: Callable[[Hashable], CubeIndex]
    ) -> None:
        self.plan = plan
        self._cube_of = cube_of
        self._cache: Dict[Hashable, int] = {}
        self.intra_shard = 0
        self.cross_shard = 0

    def shard_of_identity(self, identity: Hashable) -> int:
        shard = self._cache.get(identity)
        if shard is None:
            shard = self.plan.shard_of_or(self._cube_of(identity), 0)
            self._cache[identity] = shard
        return shard

    def __call__(self, sender: Hashable, destination: Hashable, message: Any) -> None:
        source = self.shard_of_identity(sender)
        target = self.shard_of_identity(destination)
        if source == target:
            self.intra_shard += 1
        else:
            self.cross_shard += 1


class IsolationGuard:
    """Raises on the first send that crosses a shard boundary.

    Installed as ``Network.shard_monitor`` inside each worker.  Identities
    map to shards through their home cube (the dense cube->shard lookup
    table the coordinator built), cached per identity.  The eligible
    configuration class guarantees this never fires; the guard converts a
    violated guarantee into an immediate, attributable error rather than a
    silently diverged merge.
    """

    __slots__ = ("shard", "lut", "lo", "side", "_cache", "checked")

    def __init__(self, shard: int, lut, lo: Sequence[int], side: int) -> None:
        self.shard = int(shard)
        self.lut = lut
        self.lo = tuple(int(c) for c in lo)
        self.side = int(side)
        self._cache: Dict[Hashable, int] = {}
        self.checked = 0

    def shard_of(self, identity: Hashable) -> int:
        shard = self._cache.get(identity)
        if shard is None:
            cube = tuple(
                (int(c) - low) // self.side for c, low in zip(identity, self.lo)
            )
            shard = int(self.lut[cube])
            self._cache[identity] = shard
        return shard

    def __call__(self, sender: Hashable, destination: Hashable, message: Any) -> None:
        self.checked += 1
        source = self.shard_of(sender)
        target = self.shard_of(destination)
        if source != self.shard or target != self.shard:
            raise RuntimeError(
                f"shard isolation violated: shard {self.shard} "
                f"observed a send {sender!r} (shard {source}) -> "
                f"{destination!r} (shard {target}) of "
                f"{type(message).__name__}; this configuration should have "
                "fallen back to single-process lockstep"
            )


# --------------------------------------------------------------------------- #
# the multi-process shard engine (one worker per shard)
# --------------------------------------------------------------------------- #


def _shard_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Module-level worker entrypoint: run one shard's sub-fleet to quiescence.

    The payload is plain picklable data (demand entries, resolved omega and
    capacity, the fleet config, the *global* window corners, the shard's
    job subsequence, a rebuildable transport description) plus the
    failure-mode inputs: the pickled failure plan and dead-vehicle sweep,
    every churn spec (foreign vertices no-op), and -- when the run needs
    clock/round replication -- one *tick* event per foreign arrival time
    replaying the reference arrival's bookkeeping prefix (failure-clock
    advance + global heartbeat round).  A run without failures ships
    ``None`` / empty for all of these, and the worker is then a plain
    isolated sub-simulation.

    An :class:`IsolationGuard` checks every send stays inside the shard, so
    nothing ever has to be exchanged with another shard and the worker
    drains its queue to quiescence in one go.  Harness imports happen
    lazily: distsim is a layer below the vehicle protocol and must not
    depend on it at import time.
    """
    import time as _time

    from repro.core.demand import DemandMap, Job, JobSequence
    from repro.core.online import _run_events, provision_fleet
    from repro.distsim.transport import TransportSpec
    from repro.grid.lattice import Box

    start = _time.perf_counter()
    demand = DemandMap(
        {tuple(point): value for point, value in payload["entries"]},
        dim=payload["dim"],
    )
    window = Box(tuple(payload["window_lo"]), tuple(payload["window_hi"]))
    transport = payload["transport"]
    if isinstance(transport, dict):
        transport = TransportSpec.from_json(transport).build()
    elif isinstance(transport, str):
        transport = TransportSpec(kind=transport).build()
    fleet, fleet_config, _, _ = provision_fleet(
        demand,
        omega=payload["omega"],
        capacity=payload["capacity"],
        config=payload["config"],
        failure_plan=payload["failure_plan"],
        dead_vehicles=payload["dead"],
        transport=transport,
        window=window,
    )
    fleet.network.shard_monitor = IsolationGuard(
        payload["shard"], payload["shard_lut"], payload["window_lo"],
        payload["cube_side"],
    )
    # Positions pickled straight out of valid Job objects: the trusted
    # constructors skip the per-job validation sweep, which dominates the
    # rebuild at 10^5 jobs.
    jobs = JobSequence.from_sorted(
        [
            Job.trusted(time, tuple(position), energy)
            for time, position, energy in payload["jobs"]
        ]
    )

    served = _run_events(
        fleet,
        fleet_config,
        jobs,
        0,
        payload["churn"],
        fleet.failure_plan,
        foreign_times=payload["foreign_times"],
    )

    # Replicated bookkeeping events (foreign-arrival ticks, churn specs
    # owned by other shards) execute once per shard but once in the
    # reference run; subtract them so merged events sum to the reference.
    replicated = len(payload["foreign_times"]) + (
        len(payload["churn"]) - payload["churn_owned"]
    )

    # Per-cube state segments in the worker's creation (= lex) order: the
    # coordinator re-sorts segments globally so merged travel/service sums
    # replay the single-process float-addition order exactly.
    flat = fleet.flat
    segments = []
    for index, cube_id in flat.cube_id_of.items():
        lo, hi = flat.cube_slices[cube_id]
        segments.append(
            (
                index,
                flat.identities[lo:hi],
                list(flat.travel[lo:hi]),
                list(flat.service[lo:hi]),
            )
        )
    return {
        "shard": payload["shard"],
        "jobs_total": len(jobs),
        "served": served,
        "segments": segments,
        "max_energy": fleet.max_energy_used(),
        "replacements": fleet.stats.replacements,
        "searches": fleet.stats.searches_started,
        "failed_replacements": fleet.stats.failed_replacements,
        "messages": fleet.messages_sent(),
        "heartbeat_rounds": fleet.stats.heartbeat_rounds,
        "messages_dropped": fleet.messages_dropped(),
        "messages_corrupted": fleet.messages_corrupted(),
        "events": fleet.simulator.events_processed - replicated,
        "replicated_events": replicated,
        "sim_time": fleet.simulator.now,
        "vehicles": len(fleet.vehicles),
        "elapsed": _time.perf_counter() - start,
    }


def run_parallel(
    payloads: Sequence[Dict[str, Any]], *, workers: Optional[int] = None
) -> List[Dict[str, Any]]:
    """Run one :func:`_shard_worker` per payload in a process pool.

    A single payload runs inline (no pool overhead); results come back in
    payload order regardless of completion order, and each worker is a
    closed deterministic sub-simulation, so the merged result is
    independent of ``workers`` (clamped to ``[1, len(payloads)]``).
    """
    if not payloads:
        return []
    if len(payloads) == 1:
        return [_shard_worker(payloads[0])]
    import os
    from concurrent.futures import ProcessPoolExecutor

    if workers is None:
        workers = min(len(payloads), os.cpu_count() or 1)
    else:
        workers = max(1, min(int(workers), len(payloads)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_shard_worker, payloads))


def merge_shard_results(results: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge worker results into single-process-equivalent run measurements.

    Counters sum; clocks and maxima take the maximum; and the per-cube
    travel/service segments are concatenated in *global* lex cube order --
    the single-process creation order -- before one sequential sum, so the
    merged ``total_travel``/``total_service`` floats (and the merged
    ``vehicle_energies`` insertion order) are bit-identical to the
    unsharded run's.

    Two measurements are replication-aware: heartbeat rounds are
    *replicated* (every shard runs every global round, so the merged count
    is the per-shard maximum, not the sum), and ``events`` already arrive
    net of each worker's replicated bookkeeping (the sum is the reference
    count).  The drain count and replication total ride along for the
    bench artifacts.
    """
    segments = []
    for result in results:
        segments.extend(result["segments"])
    segments.sort(key=lambda segment: segment[0])
    total_travel = 0.0
    total_service = 0.0
    vehicle_energies: Dict[Tuple[int, ...], float] = {}
    for _index, identities, travel, service in segments:
        for identity, travel_energy, service_energy in zip(identities, travel, service):
            total_travel += travel_energy
            total_service += service_energy
            vehicle_energies[tuple(identity)] = travel_energy + service_energy
    merged = {
        "jobs_total": sum(result["jobs_total"] for result in results),
        "served": sum(result["served"] for result in results),
        "max_energy": max((result["max_energy"] for result in results), default=0.0),
        "total_travel": total_travel,
        "total_service": total_service,
        "vehicle_energies": vehicle_energies,
        "replacements": sum(result["replacements"] for result in results),
        "searches": sum(result["searches"] for result in results),
        "failed_replacements": sum(result["failed_replacements"] for result in results),
        "messages": sum(result["messages"] for result in results),
        "heartbeat_rounds": max(
            (result["heartbeat_rounds"] for result in results), default=0
        ),
        "messages_dropped": sum(result["messages_dropped"] for result in results),
        "messages_corrupted": sum(result["messages_corrupted"] for result in results),
        "events": sum(result["events"] for result in results),
        "sim_time": max((result["sim_time"] for result in results), default=0.0),
        "vehicles": sum(result["vehicles"] for result in results),
        # One drain per non-empty shard.
        "window_barriers": len(results),
        "replicated_events": sum(result["replicated_events"] for result in results),
        "timings": {result["shard"]: result["elapsed"] for result in results},
    }
    return merged
