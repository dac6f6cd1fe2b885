"""Versioned snapshots of a running service: capture, save, load, restore.

A checkpoint is taken only at a *clean boundary* (all events strictly
before the next arrival executed, nothing transient pending -- see
:meth:`repro.service.stream.StreamDriver.at_clean_point`), which is what
keeps the format small and exact:

* The calendar queue holds only arrival and churn events, both of which
  are *re-derived* (pending arrivals from the snapshot's job list, churn
  from the embedded config minus the applied set) rather than serialized
  as live events.  Re-pushing them onto a fresh queue in the original
  order reproduces their relative sequence numbers, and the queue's
  statistics are overwritten afterwards so ``events_processed`` continues
  exactly as in an uninterrupted run.
* The transport's FIFO clamp (``_last_delivery``) is dropped: at a clean
  point every recorded delivery time is ``<= now``, so the clamp
  ``max(now + delay, last)`` can never bind for any future send.
* All protocol state lives in the fleet: flat registry arrays in full,
  per-vehicle protocol fields sparsely (only vehicles that diverge from
  their constructed state), plus the pair registry, cube residency, and
  counters.  The restored fleet is *bit-identical* to the captured one,
  which the differential suite asserts end-to-end (resume-at-T equals
  uninterrupted).

The format is declared once, as the :class:`Table` constants below.  A
:class:`Row` names a JSON key, the attribute path it mirrors and a codec;
one walk over a table captures an object, and the same walk restores it
onto a freshly built run.  Per-vehicle rows carry a default: a field is
written only where it differs from its default, and restore resets every
absent field to it.  Restore rejects any key a table does not declare.

JSON keeps every float exact (``repr`` round-trip), so "byte-identical"
means exactly that, not "close".
"""

from __future__ import annotations

import hashlib
import json
from array import array
from copy import copy
from dataclasses import fields
from functools import partial
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, NamedTuple, Optional

from repro.core.demand import Job
from repro.distsim.events import EventStats
from repro.distsim.failures import ChurnSpec
from repro.io.serialize import load_json, save_json
from repro.service.metrics import LatencyDigest
from repro.vehicles.fleet import Fleet, FleetStats, gc_paused
from repro.vehicles.registry import WATCH_NEVER, WATCH_NONE
from repro.vehicles.state import TransferState, WorkingState

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "Codec",
    "Row",
    "Table",
    "capture_checkpoint",
    "restore_checkpoint",
    "save_checkpoint",
    "save_rotated_checkpoint",
    "rotated_checkpoint_path",
    "load_checkpoint",
    "fleet_digest",
]

CHECKPOINT_SCHEMA = "repro.service/checkpoint"
CHECKPOINT_VERSION = 1


# --------------------------------------------------------------------- #
# codecs
# --------------------------------------------------------------------- #


class Codec(NamedTuple):
    """A value codec: ``encode`` to JSON-safe data, ``decode`` back."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


def _same(value: Any) -> Any:
    return value


def _edge_encode(value: Any) -> Any:
    return [_edge_encode(item) for item in value] if isinstance(value, tuple) else value


def _edge_decode(raw: Any) -> Any:
    return tuple(_edge_decode(item) for item in raw) if isinstance(raw, list) else raw


RAW = Codec(_same, _same)
POINT = Codec(list, tuple)
OPT_POINT = Codec(
    lambda p: None if p is None else list(p), lambda r: None if r is None else tuple(r)
)
#: A computation tag ``(initiator, round)``.
TAG = Codec(lambda tag: [list(tag[0]), int(tag[1])], lambda raw: (tuple(raw[0]), int(raw[1])))
DIGEST = Codec(LatencyDigest.to_json, LatencyDigest.from_json)
#: A transport edge key: tuples nested to any depth become lists.
EDGE = Codec(_edge_encode, _edge_decode)


def array_of(typecode: str) -> Codec:
    return Codec(list, partial(array, typecode))


def list_of(item: Codec) -> Codec:
    encode, decode = item
    return Codec(lambda v: list(map(encode, v)), lambda raw: list(map(decode, raw)))


def set_of(item: Codec) -> Codec:
    """A set, written as the sorted list of its encoded members."""
    encode, decode = item
    return Codec(lambda v: sorted(encode(x) for x in v), lambda raw: {decode(x) for x in raw})


def tuple_of(*items: Codec) -> Codec:
    return Codec(
        lambda v: [c.encode(x) for c, x in zip(items, v)],
        lambda raw: tuple(c.decode(x) for c, x in zip(items, raw)),
    )


def items(key: Codec, value: Codec, order: Any = False) -> Codec:
    """A dict as ``[[key, value], ...]``: insertion order, sorted
    (``order=True``), or sorted by the key function ``order``."""
    kenc, kdec = key
    venc, vdec = value
    sort_key = None if order is True else order

    def encode(mapping: Dict) -> list:
        pairs = sorted(mapping.items(), key=sort_key) if order else mapping.items()
        if value is RAW:  # the common case; skips one call per entry
            return [[kenc(k), v] for k, v in pairs]
        return [[kenc(k), venc(v)] for k, v in pairs]

    return Codec(encode, lambda raw: {kdec(k): vdec(v) for k, v in raw})


def record(positional: bool = False, **named: Codec) -> Codec:
    """A dict with fixed keys, written as a dict (or, positionally, a list)."""
    if positional:
        return Codec(
            lambda v: [c.encode(v[n]) for n, c in named.items()],
            lambda raw: {n: c.decode(x) for (n, c), x in zip(named.items(), raw)},
        )
    return Codec(
        lambda v: {n: c.encode(v[n]) for n, c in named.items()},
        lambda raw: {n: c.decode(raw[n]) for n, c in named.items()},
    )


# --------------------------------------------------------------------- #
# rows and tables
# --------------------------------------------------------------------- #

_NO_DEFAULT = object()


class Row:
    """One declared field of a :class:`Table`.

    ``key`` is the JSON key; ``path`` the dotted attribute path (default:
    the key; ``""`` is the owner itself).  ``codec`` is a value
    :class:`Codec`, or a nested object codec with ``capture(obj)`` and
    ``restore(obj, raw)`` (a :class:`Table` is one) that restores in place.
    A row with a ``default`` is *sparse*: written only where the value
    differs from it, reset to it when absent.  An ``optional`` row is
    omitted where its path does not resolve or captures ``None``, and left
    as constructed when absent.  A ``check`` row is a construction constant
    that restore verifies instead of assigning.
    """

    def __init__(
        self,
        key: str,
        path: Optional[str] = None,
        codec: Any = RAW,
        *,
        default: Any = _NO_DEFAULT,
        optional: bool = False,
        check: bool = False,
    ) -> None:
        self.key = key
        self.path = key if path is None else path
        self.codec = codec
        self.default = default
        self.sparse = default is not _NO_DEFAULT
        self.optional = optional
        self.check = check
        self.nested = not isinstance(codec, Codec)
        self.encode = codec.capture if self.nested else codec.encode
        self.get = attrgetter(self.path) if self.path else _same
        head, _, self._name = self.path.rpartition(".")
        self._owner = attrgetter(head) if head else _same

    def assign(self, obj: Any, value: Any) -> None:
        setattr(self._owner(obj), self._name, value)


class Table:
    """An ordered list of rows: one walk captures an object, one restores it."""

    def __init__(self, name: str, *rows: Row) -> None:
        self.name = name
        self.rows = rows
        self.keys = frozenset(row.key for row in rows)
        self._sparse = [row for row in rows if row.sparse]
        self._dense = [row for row in rows if not row.sparse]
        self._defaults = tuple(row.default for row in self._sparse)
        if self._sparse:
            values = attrgetter(*(row.path for row in self._sparse))
            self._values = values if len(self._sparse) > 1 else lambda obj: (values(obj),)

    def changed(self, obj: Any) -> Dict[str, Any]:
        """The sparse rows of ``obj`` off their defaults, encoded."""
        values = self._values(obj)
        if values == self._defaults:  # the typical object: one tuple compare
            return {}
        return {
            row.key: row.encode(value)
            for row, value, default in zip(self._sparse, values, self._defaults)
            if value != default
        }

    def capture(self, obj: Any) -> Dict[str, Any]:
        out = self.changed(obj) if self._sparse else {}
        for row in self._dense:
            try:
                value = row.get(obj)
            except AttributeError:
                if row.optional:
                    continue
                raise
            if value is not None:
                value = row.encode(value)
            if value is not None or not row.optional:
                out[row.key] = value
        return out

    def restore(self, obj: Any, payload: Dict[str, Any], where: Optional[str] = None) -> None:
        unknown = payload.keys() - self.keys
        if unknown:
            where = where or self.name
            raise ValueError(f"unknown checkpoint key(s) in {where}: {sorted(unknown)}")
        for row in self.rows:
            if row.key not in payload:
                if row.sparse:
                    row.assign(obj, copy(row.default))
                elif not row.optional:
                    raise ValueError(f"checkpoint {self.name} lacks {row.key!r}")
                continue
            raw = payload[row.key]
            if row.nested:
                target = row.get(obj)
                if target is not None and raw is not None:
                    row.codec.restore(target, raw)
                continue
            value = None if raw is None else row.codec.decode(raw)
            if not row.check:
                row.assign(obj, value)
            elif value != row.get(obj):
                raise ValueError(
                    f"snapshot {self.name} {row.key} {value!r} does not match "
                    f"the rebuilt {row.get(obj)!r}"
                )


# --------------------------------------------------------------------- #
# object codecs for what plain rows cannot express
# --------------------------------------------------------------------- #


class _Via:
    """A nested table applied to ``owner(obj)``; captures ``None`` where
    the owner is ``None``.  ``table`` is called on use, so a table can
    nest itself (:data:`TRANSPORT` through ``inner``)."""

    def __init__(self, owner: Callable[[Any], Any], table: Callable[[], Table]) -> None:
        self.owner = owner
        self.table = table

    def capture(self, obj: Any) -> Optional[Dict[str, Any]]:
        owner = self.owner(obj)
        return None if owner is None else self.table().capture(owner)

    def restore(self, obj: Any, raw: Dict[str, Any]) -> None:
        self.table().restore(self.owner(obj), raw)


def _edge_stream_owner(transport):
    """The channel whose per-edge counters a transport's ``streams`` entry
    carries: itself in ``stream="edge"`` mode, else (a retransmit wrapper
    repeats them) its inner channel's; ``None`` when there are none."""
    while transport is not None and getattr(transport, "stream", None) != "edge":
        transport = getattr(transport, "inner", None)
    return transport


class _PairLive:
    """Every vehicle's ``pair_key`` as a dense column of pair ids (-1: none)."""

    def capture(self, fleet: Fleet) -> list:
        pair_id_of = fleet.flat.pair_id_of
        keys = [fleet.vehicles[identity].pair_key for identity in fleet.flat.identities]
        return [-1 if key is None else pair_id_of[key] for key in keys]

    def restore(self, fleet: Fleet, column: list) -> None:
        flat = fleet.flat
        for identity, pair_id in zip(flat.identities, column):
            fleet.vehicles[identity].pair_key = flat.pair_keys[pair_id] if pair_id >= 0 else None


_WORKING_BY_CODE = {0: WorkingState.IDLE, 1: WorkingState.ACTIVE, 2: WorkingState.DONE}


class _Vehicles:
    """:data:`VEHICLE` rows of every vehicle off its defaults, by dense index.

    A vehicle a takeover moved off its constructed pair also carries its
    :data:`RESIDENCY`: the communication graph was computed from the
    position it held *at rehoming time* and cannot be re-derived from the
    drifted current position, so it is serialized verbatim.
    """

    def capture(self, fleet: Fleet) -> Dict[str, Any]:
        flat = fleet.flat
        original = [flat.pair_keys[pair_id] for pair_id in flat.vehicle_pair.tolist()]
        out: Dict[str, Any] = {}
        for index, identity in enumerate(flat.identities):
            vehicle = fleet.vehicles[identity]
            entry = VEHICLE.changed(vehicle)
            if vehicle.pair_key != original[index]:
                entry["residency"] = RESIDENCY.capture(vehicle)
            if entry:
                out[str(index)] = entry
        return out

    def restore(self, fleet: Fleet, entries: Dict[str, Any]) -> None:
        flat = fleet.flat
        unknown = entries.keys() - {str(index) for index in range(len(flat.identities))}
        if unknown:
            raise ValueError(f"unknown checkpoint vehicle index(es): {sorted(unknown)}")
        flat.engaged.clear()
        for index, identity in enumerate(flat.identities):
            vehicle = fleet.vehicles[identity]
            # Object mirrors of the registry arrays restored above, written
            # directly: the status dataclass validates *transitions*, not
            # states, and the arrays must not be mirrored back twice.
            vehicle.status.working = _WORKING_BY_CODE[flat.state[index]]
            vehicle.broken = bool(flat.broken[index])
            watch = flat.watch[index]
            monitored = vehicle._monitored_pair = flat.pair_keys[watch] if watch >= 0 else None
            entry = entries.get(str(index), {})
            if "residency" in entry:
                entry = dict(entry)
                RESIDENCY.restore(vehicle, entry.pop("residency"))
                vehicle.coloring = fleet.colorings[vehicle.cube_index]
            VEHICLE.restore(vehicle, entry, f"fleet.vehicles[{index}]")
            # The engaged set and the watch-heard mirror are not serialized;
            # both are pure functions of the restored vehicle.
            if (
                vehicle._engaged_tag is not None
                or vehicle.escalations
                or vehicle._engaged_rounds
                or vehicle._engaged_tag_seen is not None
            ):
                flat.engaged.add(index)
            flat.watch_heard[index] = (
                WATCH_NONE if monitored is None else vehicle.last_heard.get(monitored, WATCH_NEVER)
            )


# --------------------------------------------------------------------- #
# the tables
# --------------------------------------------------------------------- #

RESIDENCY = Table(
    "residency",
    Row("cube_index", codec=POINT),
    Row("neighbors", codec=list_of(POINT)),
    Row("cube_peers", codec=list_of(POINT)),
)

#: Per-vehicle protocol state, sparse against the constructed defaults
#: (plus ``residency`` for rehomed vehicles, see :class:`_Vehicles`).
VEHICLE = Table(
    "vehicle",
    Row("jobs_served", default=0),
    Row("engaged_tag", "_engaged_tag", TAG, default=None),
    Row("last_tag", codec=TAG, default=None),
    Row("parent", codec=POINT, default=None),
    Row("child", codec=POINT, default=None),
    Row("deficit", default=0),
    Row(
        "initiated",
        codec=items(TAG, record(positional=True, destination=POINT, pair_key=POINT)),
        default={},
    ),
    Row("last_heard", codec=items(POINT, RAW), default={}),
    Row("engaged_tag_seen", "_engaged_tag_seen", TAG, default=None),
    Row("engaged_rounds", "_engaged_rounds", default=0),
    Row("adopted_pairs", codec=list_of(POINT), default=[]),
    Row(
        "escalations",
        codec=items(
            TAG,
            record(
                rings=list_of(list_of(POINT)),
                level=RAW,
                pending=RAW,
                candidates=list_of(tuple_of(Codec(bool, _same), POINT, OPT_POINT)),
                rounds=RAW,
            ),
        ),
        default={},
    ),
    Row(
        "transfer",
        "status.transfer",
        Codec(attrgetter("value"), TransferState),
        default=TransferState.WAITING,
    ),
    Row("gossip_counter", "_gossip_counter", default=0),
    Row(
        "gossip_reports",
        codec=items(POINT, items(POINT, RAW, order=True), order=True),
        default={},
    ),
    Row(
        "pending_suspicions",
        codec=items(POINT, record(granted=set_of(POINT), round=RAW), order=True),
        default={},
    ),
)

#: Run counters; optional, so a snapshot predating a counter still loads.
FLEET_STATS = Table("fleet.stats", *(Row(f.name, optional=True) for f in fields(FleetStats)))

FLEET = Table(
    "fleet",
    Row("travel", "flat.travel", array_of("d")),
    Row("service", "flat.service", array_of("d")),
    Row("state", "flat.state", array_of("b")),
    Row("broken", "flat.broken", array_of("b")),
    Row("watch", "flat.watch", array_of("q")),
    Row("positions", "flat.positions", list_of(POINT)),
    Row("pair_live", "", _PairLive()),
    Row("vehicles", "", _Vehicles()),
    Row("registry", codec=items(POINT, POINT, order=True)),
    Row("cube_members", "_cube_members", items(POINT, list_of(POINT), order=True)),
    Row("stats", codec=FLEET_STATS),
    Row("computation_round", "_computation_round"),
    Row("heartbeat_round", "_heartbeat_round"),
    Row("monitoring_baseline"),
    Row("crash_rounds", "_crash_rounds", items(POINT, RAW, order=True), optional=True),
    Row("detection_digest", codec=DIGEST, optional=True),
)

EDGE_COUNTS = Table(
    "transport.streams",
    Row("edge_counts", "_edge_counts", items(EDGE, RAW, order=lambda item: repr(item[0]))),
)

#: Every transport in the chain; which rows apply depends on the class.
TRANSPORT = Table(
    "transport",
    Row("kind", check=True),
    Row("messages_scheduled"),
    Row("messages_dropped"),
    Row("messages_corrupted"),
    Row("rng", "_rng.bit_generator.state", optional=True),
    Row("retransmissions", optional=True),
    Row("attempts_lost", optional=True),
    Row("streams", "", _Via(_edge_stream_owner, lambda: EDGE_COUNTS), optional=True),
    Row("inner", codec=_Via(_same, lambda: TRANSPORT), optional=True),
)

NETWORK = Table(
    "network", Row("messages_sent"), Row("messages_delivered"), Row("messages_dropped")
)

FAILURE_PLAN = Table(
    "failure_plan",
    Row("crashed", codec=set_of(POINT)),
    Row("initiation_suppressed", codec=set_of(POINT)),
    Row("dropped_count"),
    Row("partition_dropped_count"),
    Row("clock"),
    Row("byzantine_watchers", codec=set_of(POINT), optional=True),
)

METRICS = Table(
    "metrics",
    Row("window_index"),
    Row("jobs_arrived"),
    Row("jobs_served"),
    Row("window_arrivals", "_window_arrivals"),
    Row("window_served", "_window_served"),
    Row("window_start_time", "_window_start_time"),
    Row("baseline", "_baseline", Codec(dict, dict)),
    Row("window_digest", "_window_digest", DIGEST),
    Row("run_digest", codec=DIGEST),
)

#: The queue statistics, overwritten once the resumed driver re-primes.
EVENT_STATS = Table("event_stats", *(Row(f.name) for f in fields(EventStats)))

JOBS = Table("jobs", Row("consumed"), Row("dispatched"), Row("served"))
PENDING = list_of(
    Codec(
        lambda item: [item[0], item[1].time, list(item[1].position), item[1].energy],
        lambda raw: (raw[0], Job(time=raw[1], position=tuple(raw[2]), energy=raw[3])),
    )
)
CHURN = set_of(
    Codec(
        lambda spec: [spec.time, list(spec.vertex), spec.action],
        lambda raw: ChurnSpec(time=raw[0], vertex=tuple(raw[1]), action=raw[2]),
    )
)

#: The run objects, over a ``SimpleNamespace(fleet=, recorder=)``.
SNAPSHOT = Table(
    "checkpoint",
    Row("network", "fleet.network", NETWORK),
    Row("transport", "fleet.network.transport", TRANSPORT),
    Row("failure_plan", "fleet.failure_plan", FAILURE_PLAN),
    Row("fleet", codec=FLEET),
    Row("metrics", "recorder", METRICS, optional=True),
)

#: Snapshot keys :func:`capture_checkpoint` writes outside :data:`SNAPSHOT`.
_HEADER = frozenset(
    ("schema", "version", "config", "clock", "jobs", "pending_arrivals", "churn_applied",
     "event_stats", "rng")
)


@gc_paused()
def fleet_digest(fleet: Fleet) -> str:
    """SHA-256 over the fleet's complete captured state.

    Two runs have equal digests iff their physical *and* protocol state is
    byte-identical -- the strongest equality the differential suite checks.
    The capture builds one small list per vehicle field and no cycles, so
    it runs with the cyclic GC paused (see :func:`gc_paused`).
    """
    text = json.dumps(FLEET.capture(fleet), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# the snapshot
# --------------------------------------------------------------------- #


def capture_checkpoint(
    config,
    driver,
    *,
    rng=None,
    recorder=None,
) -> Dict[str, Any]:
    """Snapshot a service run at a clean boundary (see module docstring).

    ``rng`` is the run's shared generator (``None`` when unseeded).

    Unlike :func:`fleet_digest`, the capture keeps the caller's GC state.
    The full collections its allocations trigger also collect what the
    dispatch since the last one promoted; paused, those collections move
    into later dispatch windows instead (measured on a 10^4-vehicle
    service checkpointing every 4 windows: median window time up about
    30%, checkpoint windows down about 20%).
    """
    fleet = driver.fleet
    payload: Dict[str, Any] = {
        "schema": CHECKPOINT_SCHEMA,
        "version": CHECKPOINT_VERSION,
        "config": config.to_json(),
        "clock": fleet.simulator.now,
        "jobs": JOBS.capture(driver),
        "pending_arrivals": PENDING.encode(driver.pending_arrivals()),
        "churn_applied": CHURN.encode(driver.churn_applied),
        "event_stats": EVENT_STATS.capture(fleet.simulator.queue.stats),
        "rng": rng.bit_generator.state if rng is not None else None,
    }
    payload.update(SNAPSHOT.capture(SimpleNamespace(fleet=fleet, recorder=recorder)))
    return payload


def restore_checkpoint(
    snapshot: Dict[str, Any], fleet: Fleet, *, rng=None, recorder=None
) -> SimpleNamespace:
    """Overlay a loaded snapshot onto a freshly provisioned run.

    Returns where the streaming driver resumes: ``consumed``,
    ``dispatched`` and ``served`` job counts, the ``pending`` look-ahead
    as ``(index, Job)`` pairs, and the ``churn_applied`` set.  The event
    statistics (:data:`EVENT_STATS`) are restored by the caller once the
    driver has re-primed its queue.
    """
    fleet.simulator.clock.advance(snapshot["clock"])
    SNAPSHOT.restore(
        SimpleNamespace(fleet=fleet, recorder=recorder),
        {key: value for key, value in snapshot.items() if key not in _HEADER},
    )
    if rng is not None and snapshot["rng"] is not None:
        rng.bit_generator.state = snapshot["rng"]
    start = SimpleNamespace(
        pending=PENDING.decode(snapshot["pending_arrivals"]),
        churn_applied=CHURN.decode(snapshot["churn_applied"]),
    )
    JOBS.restore(start, snapshot["jobs"])
    return start


def save_checkpoint(payload: Dict[str, Any], path) -> None:
    """Write a snapshot atomically (:func:`repro.io.serialize.save_json`)."""
    save_json(payload, path)


def rotated_checkpoint_path(path, ordinal: int) -> Path:
    """The rotation slot for the snapshot taken after window ``ordinal``.

    ``checkpoint.json`` at window 12 becomes ``checkpoint.w00000012.json``;
    the zero-padded ordinal makes lexicographic order equal numeric order,
    which is what keeps pruning deterministic.
    """
    path = Path(path)
    return path.with_name(f"{path.stem}.w{ordinal:08d}{path.suffix}")


def save_rotated_checkpoint(payload: Dict[str, Any], path, *, ordinal: int, keep: int) -> Path:
    """Write a snapshot to its rotation slot and prune older slots.

    The latest snapshot is *also* written to ``path`` itself, so every
    resume flow that points at the un-numbered path keeps working; the
    numbered siblings retain the last ``keep`` snapshots for resuming
    from an older point (e.g. after a corrupted latest write).  Ordinals
    are the recorder's window index -- monotonic across resumed legs, so
    a resumed run rotates into fresh slots instead of colliding with the
    previous leg's files.
    """
    if keep < 1:
        raise ValueError(f"keep must be at least 1, got {keep}")
    path = Path(path)
    slot = rotated_checkpoint_path(path, ordinal)
    save_json(payload, slot)
    save_json(payload, path)
    pattern = f"{path.stem}.w????????{path.suffix}"
    slots = sorted(path.parent.glob(pattern))
    for stale in slots[: max(0, len(slots) - keep)]:
        stale.unlink()
    return slot


def load_checkpoint(source) -> Dict[str, Any]:
    """Load and validate a snapshot (a path, or an already-parsed payload)."""
    payload = source if isinstance(source, dict) else load_json(source)
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(f"not a service checkpoint: schema {payload.get('schema')!r}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return payload
