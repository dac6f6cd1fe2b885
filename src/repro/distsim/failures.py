"""Failure injection for the distributed substrate.

Section 3.2.5 distinguishes four scenarios: (1) no failures, (2) done
vehicles that fail to start their diffusing computation, (3) a constant
number of active vehicles breaking down ("dead"), and (4) many vehicles
breaking down (handled analytically in Chapter 4).  The simulator covers
scenarios 1--3; this module carries the knobs:

* *crashed* processes receive nothing and send nothing (their outgoing
  messages are silently discarded by the network);
* targeted *message drops* can suppress, e.g., the initiation of a specific
  diffusing computation;
* arbitrary predicates can be registered for fuzz-style omission testing;
* timed **partition windows** (:class:`PartitionSpec`) cut the network
  along an axis-aligned hyperplane for an interval of the failure clock --
  messages whose endpoints lie on opposite sides are dropped while the
  window is active;
* timed **churn** (:class:`ChurnSpec`) makes vehicles leave (break down)
  and later rejoin (be repaired); the schedule is declarative and applied
  by the run harness as scheduled simulator events.

The *failure clock* is the job clock of the workload: job ``k`` of a
:class:`~repro.core.demand.JobSequence` arrives at time ``k + 1``, so
partition/churn times are expressed in arrival units regardless of the
message-delay timescale.  The harness advances it via :meth:`FailurePlan.set_time`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, List, Sequence, Set, Tuple

__all__ = ["ChurnSpec", "FailurePlan", "PartitionSpec", "apply_churn"]

DropPredicate = Callable[[Hashable, Hashable, Any], bool]

#: Churn actions: ``"leave"`` breaks the vehicle down, ``"join"`` repairs it.
CHURN_ACTIONS = ("leave", "join")


@dataclass(frozen=True)
class PartitionSpec:
    """A timed network partition along an axis-aligned cut.

    While ``start <= t < end`` on the failure clock, every message whose
    sender and destination identities (lattice points) lie on opposite
    sides of the hyperplane ``coordinate[axis] <= boundary`` is dropped.
    Identities that are not coordinate tuples are never partitioned.
    """

    start: float
    end: float
    axis: int = 0
    boundary: float = 0.0

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ValueError(
                f"partition window must have end > start, got [{self.start}, {self.end})"
            )
        if self.axis < 0:
            raise ValueError(f"partition axis must be non-negative, got {self.axis}")

    def active_at(self, time: float) -> bool:
        """Whether the window covers failure-clock instant ``time``."""
        return self.start <= time < self.end

    def separates(self, a: Hashable, b: Hashable) -> bool:
        """Whether identities ``a`` and ``b`` fall on opposite sides of the cut."""
        try:
            side_a = a[self.axis] <= self.boundary  # type: ignore[index]
            side_b = b[self.axis] <= self.boundary  # type: ignore[index]
        except (TypeError, IndexError, KeyError):
            return False
        return side_a != side_b


@dataclass(frozen=True)
class ChurnSpec:
    """One churn event: at failure-clock ``time`` the vehicle at ``vertex``
    leaves (breaks down) or joins (is repaired)."""

    time: float
    vertex: Tuple[int, ...]
    action: str = "leave"

    def __post_init__(self) -> None:
        if self.action not in CHURN_ACTIONS:
            raise ValueError(
                f"churn action must be one of {CHURN_ACTIONS}, got {self.action!r}"
            )
        if self.time < 0:
            raise ValueError(f"churn time must be non-negative, got {self.time}")
        object.__setattr__(self, "vertex", tuple(int(c) for c in self.vertex))


@dataclass
class FailurePlan:
    """A mutable description of which failures to inject."""

    crashed: Set[Hashable] = field(default_factory=set)
    #: Processes that, although alive, never *initiate* a protocol action on
    #: their own (scenario 2's "done vehicle fails to initialize a diffusing
    #: computation").  The network does not consult this set -- protocol
    #: implementations do.
    initiation_suppressed: Set[Hashable] = field(default_factory=set)
    drop_predicates: List[DropPredicate] = field(default_factory=list)
    #: Timed partition windows, consulted against the failure clock.
    partitions: List[PartitionSpec] = field(default_factory=list)
    dropped_count: int = 0
    partition_dropped_count: int = 0
    #: Current failure-clock time (advanced by the harness, never by the plan).
    clock: float = 0.0
    #: Byzantine *watchers* (gossip monitoring): alive vehicles whose
    #: failure-detection behavior lies -- they report every pair silent,
    #: suspect regardless of evidence, and invert their attestations
    #: (forging grants for healthy pairs, withholding for dead ones).
    #: Job service and Phase I/II behavior stay honest; only the detector
    #: is faulty.  The quorum masks up to ``quorum - 1`` of these.
    byzantine_watchers: Set[Hashable] = field(default_factory=set)

    # ------------------------------------------------------------------ #
    # crash failures
    # ------------------------------------------------------------------ #

    def crash(self, identity: Hashable) -> None:
        """Mark a process as crashed (dead): it neither sends nor receives."""
        self.crashed.add(identity)

    def recover(self, identity: Hashable) -> None:
        """Undo a crash (churn rejoin); unknown identities are ignored."""
        self.crashed.discard(identity)

    def is_crashed(self, identity: Hashable) -> bool:
        """Whether the process is crashed."""
        return identity in self.crashed

    # ------------------------------------------------------------------ #
    # initiation suppression (scenario 2)
    # ------------------------------------------------------------------ #

    def suppress_initiation(self, identity: Hashable) -> None:
        """Prevent ``identity`` from starting its own diffusing computations."""
        self.initiation_suppressed.add(identity)

    def is_initiation_suppressed(self, identity: Hashable) -> bool:
        """Whether the process must not self-initiate protocol actions."""
        return identity in self.initiation_suppressed

    # ------------------------------------------------------------------ #
    # Byzantine watchers (gossip monitoring)
    # ------------------------------------------------------------------ #

    def mark_byzantine_watcher(self, identity: Hashable) -> None:
        """Make ``identity``'s failure detector lie (see field docstring)."""
        self.byzantine_watchers.add(identity)

    def is_byzantine_watcher(self, identity: Hashable) -> bool:
        """Whether the process's failure-detection behavior is Byzantine."""
        return identity in self.byzantine_watchers

    # ------------------------------------------------------------------ #
    # partitions and the failure clock
    # ------------------------------------------------------------------ #

    def add_partition(self, spec: PartitionSpec) -> None:
        """Register a timed partition window."""
        self.partitions.append(spec)

    def set_time(self, time: float) -> None:
        """Advance the failure clock (the harness calls this at job arrivals)."""
        self.clock = float(time)

    def active_partitions(self) -> List[PartitionSpec]:
        """The partition windows covering the current failure-clock time."""
        return [spec for spec in self.partitions if spec.active_at(self.clock)]

    def is_partitioned(self, a: Hashable, b: Hashable) -> bool:
        """Whether an active partition window separates ``a`` from ``b`` now."""
        if not self.partitions:
            return False
        return any(
            spec.active_at(self.clock) and spec.separates(a, b)
            for spec in self.partitions
        )

    # ------------------------------------------------------------------ #
    # message omission
    # ------------------------------------------------------------------ #

    def add_drop_rule(self, predicate: DropPredicate) -> None:
        """Drop every message for which ``predicate(sender, dest, msg)`` is true."""
        self.drop_predicates.append(predicate)

    def should_drop(self, sender: Hashable, destination: Hashable, message: Any) -> bool:
        """Consulted by the network on every send (crashed senders also drop)."""
        if sender in self.crashed:
            self.dropped_count += 1
            return True
        if self.is_partitioned(sender, destination):
            self.dropped_count += 1
            self.partition_dropped_count += 1
            return True
        for predicate in self.drop_predicates:
            if predicate(sender, destination, message):
                self.dropped_count += 1
                return True
        return False


def apply_churn(
    events: Iterable[ChurnSpec],
    time: float,
    applied: Set[ChurnSpec],
    *,
    leave: Callable[[Tuple[int, ...]], None],
    join: Callable[[Tuple[int, ...]], None],
) -> None:
    """Apply every not-yet-applied churn event with ``event.time <= time``.

    Each scheduled churn event calls this, so batch, streaming and resumed
    runs consume a churn schedule identically (in ``(time, vertex)``
    order).  ``applied`` is the caller-owned memory of already-executed
    events.
    """
    due = sorted(
        (e for e in events if e.time <= time and e not in applied),
        key=lambda e: (e.time, e.vertex, e.action),
    )
    for event in due:
        applied.add(event)
        if event.action == "leave":
            leave(event.vertex)
        else:
            join(event.vertex)
