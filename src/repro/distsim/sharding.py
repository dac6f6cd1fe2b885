"""Cube-partitioned sharding of deterministic simulation runs.

The protocol is cube-local by construction: Phase I/II replacement traffic
never leaves a cube, and the only messages that cross a cube boundary are
the escalation/monitoring flows the hierarchy defines (escalation rings,
hierarchical watch-ring heartbeats, adoption moves).  The cube partition is
therefore a natural shard key, and this module turns it into one:

* :class:`ShardPlan` assigns every occupied cube to one of ``N`` shards by
  grouping cubes under a common :class:`~repro.grid.cubes.CubeHierarchy`
  ancestor (a dyadic level box) and distributing the lex-ordered groups
  contiguously, balanced by cube count.  Boundary cubes -- the ones whose
  sibling ring contains a cube owned by another shard -- are exactly where
  cross-shard traffic can originate.
* :class:`ShardMailbox` is the boundary-message ledger: every cross-shard
  send is recorded under a ``(timestamp, sequence)`` key and exchanged at
  the next window barrier, in exactly that deterministic order.
* :class:`ShardMonitor` hooks :attr:`Network.shard_monitor
  <repro.distsim.network.Network.shard_monitor>` to classify each logical
  send as intra- vs cross-shard and feed the mailbox.
* :func:`run_lockstep` advances a run through conservative time windows on
  the calendar queue (:meth:`Simulator.run_window
  <repro.distsim.engine.Simulator.run_window>`), the window length bounded
  by the minimum cross-shard transport latency
  (:func:`lockstep_window`): a message sent inside a window cannot be
  delivered before the next barrier, so exchanging boundary traffic at
  barriers reproduces the single-process delivery order exactly.  Because
  the windows partition one global event timeline, the executed event
  sequence -- and hence every result byte -- is identical to an unwindowed
  run; this mode covers *every* configuration, including the stream-coupled
  transports (lossy, corrupting, shared-RNG jitter) whose draws depend on
  the global send order.
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

import math
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.distsim.engine import Simulator

__all__ = [
    "ShardPlan",
    "ShardMailbox",
    "ShardMonitor",
    "IsolationGuard",
    "lockstep_window",
    "cross_shard_edge_latencies",
    "run_lockstep",
    "run_parallel",
    "merge_shard_results",
]

CubeIndex = Tuple[int, ...]


class ShardPlan:
    """Assignment of cubes to shards via hierarchy-level ancestor groups.

    Parameters
    ----------
    hierarchy:
        The run's :class:`~repro.grid.cubes.CubeHierarchy` (duck-typed:
        only ``levels``, ``ancestor`` and ``siblings`` are used, so the
        distsim layer stays import-independent of the grid package).
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
        self.hierarchy = hierarchy
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
        # whole level boxes (the property boundary detection relies on).
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
        bulk = getattr(hierarchy, "ancestors_array", None)
        fallback = 0
        for level in range(hierarchy.levels, -1, -1):
            if bulk is not None:
                import numpy as np

                count = len(np.unique(bulk(cubes, level), axis=0))
            else:
                count = len({hierarchy.ancestor(index, level) for index in cubes})
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

        Members keep their (lex) order inside each group.  When the
        hierarchy offers the bulk ``ancestors_array`` hook the grouping is
        a vectorized unique + stable sort instead of one Python
        ``ancestor()`` call per cube -- at ``10^5`` cubes that is the
        difference between milliseconds and seconds on the shard-planning
        critical path, which every multi-process run pays before the first
        worker starts.  Both paths produce identical group lists.
        """
        bulk = getattr(hierarchy, "ancestors_array", None)
        if bulk is not None:
            import numpy as np

            uniq, inverse = np.unique(
                bulk(normalized, level), axis=0, return_inverse=True
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
        groups: Dict[CubeIndex, List[CubeIndex]] = {}
        for index in normalized:
            groups.setdefault(hierarchy.ancestor(index, level), []).append(index)
        return [groups[ancestor] for ancestor in sorted(groups)]

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

    def boundary_cubes(self, level: int = 1) -> Tuple[CubeIndex, ...]:
        """Cubes whose level-``level`` sibling ring crosses a shard boundary.

        These are exactly the cubes from which an escalation ring (or a
        hierarchical watch edge) of that level can generate cross-shard
        traffic; everything else is provably shard-local at that level.
        """
        result = []
        for index in self.cubes:
            own = self._shard_of[index]
            for sibling in self.hierarchy.siblings(index, level):
                other = self._shard_of.get(sibling)
                if other is not None and other != own:
                    result.append(index)
                    break
        return tuple(result)


class ShardMailbox:
    """The boundary-message ledger, keyed ``(timestamp, sequence)``.

    Cross-shard sends are posted in global send order (the sequence number
    is the deterministic tiebreak for same-timestamp messages) and drained
    at window barriers.  Simulation time is nondecreasing while events
    execute, so the entry list is always sorted by key and a drain is a
    prefix cut.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[float, int, int, int, Any]] = []
        self._sequence = 0
        #: Cross-shard messages posted so far.
        self.posted = 0
        #: Messages exchanged at barriers so far.
        self.exchanged = 0

    def post(self, time: float, source: int, destination: int, payload: Any = None) -> None:
        """Record one cross-shard message sent at ``time``."""
        self._entries.append((float(time), self._sequence, source, destination, payload))
        self._sequence += 1
        self.posted += 1

    def __len__(self) -> int:
        return len(self._entries)

    def drain_until(self, bound: float) -> List[Tuple[float, int, int, int, Any]]:
        """Exchange (remove and return) every entry with ``time <= bound``."""
        cut = 0
        entries = self._entries
        while cut < len(entries) and entries[cut][0] <= bound:
            cut += 1
        drained, self._entries = entries[:cut], entries[cut:]
        self.exchanged += len(drained)
        return drained


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
        self,
        plan: ShardPlan,
        cube_of: Callable[[Hashable], CubeIndex],
        simulator: Simulator,
        mailbox: ShardMailbox,
    ) -> None:
        self.plan = plan
        self.mailbox = mailbox
        self._cube_of = cube_of
        self._simulator = simulator
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
            self.mailbox.post(
                self._simulator.now, source, target, type(message).__name__
            )


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


def lockstep_window(
    transport,
    fallback: float = 0.0,
    *,
    edge_latencies: Optional[Sequence[float]] = None,
) -> float:
    """The conservative window length for a lockstep sharded run.

    Any window ``W <= min_latency`` guarantees a message sent inside
    ``[kW, (k+1)W)`` is delivered at or after the barrier at ``(k+1)W``,
    so barriers are the only points where cross-shard traffic must be
    exchanged.

    ``edge_latencies`` are probed latencies over representative cross-shard
    edges (see :func:`cross_shard_edge_latencies`); when any are positive,
    their minimum is the window -- the sharpest bound actually realized by
    the shard topology, typically wider than the transport's global
    ``min_latency`` floor.  Otherwise the transport's ``min_latency``
    bounds the window; for instantaneous transports the ``fallback``
    (typically the fleet's ``message_delay``) bounds it instead.  A last
    resort of 1.0 covers only the degenerate case where no positive
    latency exists anywhere (job arrivals are at least one time unit
    apart) -- sub-unit edge latencies no longer fall through to it.
    """
    if edge_latencies is not None:
        positive = [float(value) for value in edge_latencies if float(value) > 0.0]
        if positive:
            return min(positive)
    window = float(transport.min_latency()) if transport is not None else 0.0
    if window <= 0.0:
        window = float(fallback)
    if window <= 0.0:
        window = 1.0
    return window


def cross_shard_edge_latencies(
    transport,
    plan: ShardPlan,
    members_of: Callable[[CubeIndex], Optional[Sequence[Hashable]]],
    *,
    limit: int = 64,
) -> List[float]:
    """Probe actual latencies over a deterministic sample of cross-shard edges.

    For each boundary cube (up to ``limit`` probes) the first member is
    paired with the first member of the nearest sibling cube owned by a
    different shard, and the transport's latency hook is evaluated on that
    edge.  Only safe for *pure* (edge-function) transports: callers must
    skip stream-coupled transports, where a probe would consume shared RNG
    draws and perturb the run.  The sample is a lower-coverage estimate --
    fine for the observational single-process lockstep windows, where the
    window length never changes the executed event order.
    """
    if transport is None:
        return []
    probes: List[float] = []
    for index in plan.boundary_cubes():
        if len(probes) >= limit:
            break
        own = plan.shard_of(index)
        senders = members_of(index)
        if not senders:
            continue
        for sibling in plan.hierarchy.siblings(index, 1):
            other = plan.shard_of_or(tuple(sibling), own)
            if other == own:
                continue
            receivers = members_of(tuple(sibling))
            if not receivers:
                continue
            try:
                probes.append(float(transport.latency(senders[0], receivers[0], None)))
            except Exception:
                return []  # exotic transport hook: fall back to min_latency
            break
    return probes


def run_lockstep(
    simulator: Simulator,
    window: float,
    *,
    mailbox: Optional[ShardMailbox] = None,
    max_events: int = 10_000_000,
    horizon: Optional[float] = None,
) -> Tuple[int, int]:
    """Drive the queue to quiescence through lockstep time windows.

    Returns ``(events executed, window barriers crossed)``.  Empty windows
    are skipped (the next barrier is the one just past the earliest pending
    event), so the barrier count measures synchronization points, not idle
    time.  Executes exactly the events ``run_until_quiescent`` would, in
    exactly the same order -- the windows only partition the timeline.

    With ``horizon`` set, barriers adapt Chandy-Misra style instead of
    sitting on a fixed grid: each window runs to ``next_event_time +
    horizon``, the earliest instant a message sent from the pending
    frontier could be delivered.  Any ``horizon >= window`` stays
    conservative (a message sent at ``t' >= next_time`` delivers at
    ``>= t' + window >= bound`` whenever ``horizon <= window``; for larger
    horizons the bound is the per-shard lookahead the caller computed), and
    quiet stretches cross one barrier instead of one per grid cell.  An
    infinite horizon degenerates to a single free-running window -- the
    lookahead optimum for a shard with no outbound boundary edges.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if horizon is not None and horizon < window:
        raise ValueError(f"horizon {horizon} must be >= window {window}")
    executed = 0
    barriers = 0
    queue = simulator.queue
    while True:
        next_time = queue.next_time()
        if next_time is None:
            break
        if horizon is not None:
            bound = next_time + horizon
        else:
            bound = (math.floor(next_time / window) + 1) * window
        while bound <= next_time:  # float-precision guard: always progress
            bound = math.nextafter(bound, math.inf)
        executed += simulator.run_window(bound, max_events=max_events - executed)
        barriers += 1
        if mailbox is not None:
            mailbox.drain_until(bound)
        if executed >= max_events and simulator.pending:
            raise RuntimeError(
                f"sharded simulation did not quiesce within {max_events} events "
                f"({simulator.pending} still pending)"
            )
    if mailbox is not None and len(mailbox):
        mailbox.drain_until(math.inf)
        barriers += 1
    return executed, barriers

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

    An :class:`IsolationGuard` checks every send stays inside the shard.
    Execution goes through :func:`run_lockstep` with an infinite horizon:
    one conservative window to quiescence, one barrier, the Chandy-Misra
    optimum for a shard with no outbound boundary edges.  Harness imports
    happen lazily: distsim is a layer below the vehicle protocol and must
    not depend on it at import time.
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

    barriers = 0
    window_length = lockstep_window(
        fleet.network.transport, fleet_config.message_delay
    )
    mailbox = ShardMailbox()

    def _run(simulator) -> None:
        nonlocal barriers
        _executed, barriers = run_lockstep(
            simulator, window_length, mailbox=mailbox, horizon=math.inf
        )

    served = _run_events(
        fleet,
        fleet_config,
        jobs,
        0,
        payload["churn"],
        fleet.failure_plan,
        run=_run,
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
        "barriers": barriers,
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
    count).  Barrier and replication totals ride along for the bench
    artifacts.
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
        "window_barriers": sum(result["barriers"] for result in results),
        "replicated_events": sum(result["replicated_events"] for result in results),
        "timings": {result["shard"]: result["elapsed"] for result in results},
    }
    return merged
