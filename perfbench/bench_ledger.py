"""Outside-in span recorder: times calls into the program's public layers.

The benchmark never edits the program.  It measures a layer by swapping a
module or class attribute for a timing wrapper (:meth:`Ledger.patch`) and
putting the original back afterwards (:meth:`Ledger.restore`).  Every
wrapped call becomes a span on one in-memory stack, so a layer's *self*
time is its span time minus the wrapped calls nested inside it, and
whatever no wrapper covers is the explicit ``other`` remainder of the run.

Two wrapper sets exist:

* :func:`install_boundary` -- the handful of calls a timed run needs for
  ``setup_s`` and ``critical_path_s``: the omega* functions, the shard
  plan, the worker-pool call and the merge.  A few calls per run.
* :func:`install_traced` -- adds the per-message wrappers (network sends by
  message class, transport loss draws, gossip peer selection, heartbeat
  rounds, fleet construction, checkpoint capture/save).  Traced runs only.

Spans stay in memory and :meth:`Ledger.write_chrome_trace` writes them as
Chrome trace-event JSON, which Perfetto and ``chrome://tracing`` open.
Calls made inside forked shard workers are recorded in the worker's copy
of the ledger and are lost; the workload layer re-runs sharded workloads
with ``shards=1`` to see those layers.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept for the Chrome trace; the per-layer totals count every call.
SPAN_CAP = 50_000


class Ledger:
    """Per-layer call counts, self nanoseconds, counters and kept spans."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Start of the first and end of the last call, per layer.
        self.first_start: Dict[str, int] = {}
        self.last_end: Dict[str, int] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[str, int, int, int]] = []
        self.spans_dropped = 0
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Every network that carried a traced send, by identity.
        self.networks: Dict[int, Any] = {}
        #: ``(name, start_ns, end_ns)`` of the call the ledger was taken around.
        self.root: Tuple[str, int, int] = ("run", 0, 0)

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #

    def timed(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span of ``layer``.

        ``after(args, kwargs, result)``, when given, runs after the span
        closes, so bookkeeping it does is not charged to the layer.
        """
        stack = self._stack
        calls, own = self.calls, self.self_ns
        first, last, spans = self.first_start, self.last_end, self.spans

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                calls[layer] += 1
                own[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                first.setdefault(layer, start)
                last[layer] = end
                if len(spans) < SPAN_CAP:
                    spans.append((layer, start, end, len(stack)))
                else:
                    self.spans_dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(
        self,
        owner: Any,
        name: str,
        layer: str,
        after: Optional[Callable] = None,
        around: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Replace ``owner.name`` with a timed wrapper until :meth:`restore`.

        ``around(original)``, when given, returns the function to time in
        place of the original (for bookkeeping that needs the call's inside).
        """
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        inner = around(original) if around is not None else original
        setattr(owner, name, self.timed(layer, inner, after))

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    # readout
    # ------------------------------------------------------------------ #

    def seconds(self, layer: str) -> float:
        """Self seconds of ``layer`` (0.0 when it never ran)."""
        return self.self_ns.get(layer, 0) / 1e9

    def wall(self, layer: str) -> float:
        """Seconds from the first call of ``layer`` to the end of its last."""
        if layer not in self.first_start:
            return 0.0
        return (self.last_end[layer] - self.first_start[layer]) / 1e9

    def layers(self) -> Dict[str, float]:
        """Self seconds per layer that ran."""
        return {layer: ns / 1e9 for layer, ns in sorted(self.self_ns.items())}

    def write_chrome_trace(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write the root span plus every kept span as Chrome trace-event JSON."""
        pid = os.getpid()
        root = self.root
        base = root[1]
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - base) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": 0,
                "args": {"depth": depth + 1},
            }
            for name, start, end, depth in [(root[0], root[1], root[2], -1)] + self.spans
        ]
        meta = dict(meta, spans_dropped=self.spans_dropped)
        payload = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------- #
# wrapper sets
# ---------------------------------------------------------------------- #


def install_boundary(ledger: Ledger) -> Ledger:
    """The few boundary wrappers a timed run uses (a handful of calls per run)."""
    import repro.core.omega as omega
    import repro.core.online as online
    import repro.service.harness as harness
    from repro.api.service import ServiceConfig
    from repro.core.demand import JobSequence

    ledger.patch(JobSequence, "demand_map", "demand.map")
    ledger.patch(ServiceConfig, "demand", "demand.map")
    for module in (omega, online):
        ledger.patch(module, "demand_cube_maxima", "omega.cube_maxima")
    for module in (online, harness):
        ledger.patch(module, "omega_c", "omega.c")
        ledger.patch(module, "omega_star_cubes", "omega.star")
        ledger.patch(module, "ShardPlan", "sharding.plan")
    ledger.patch(online, "run_parallel", "sharding.pool")
    ledger.patch(online, "merge_shard_results", "sharding.merge")
    ledger.patch(online, "run_parallel_lockstep", "plockstep.pool")
    ledger.patch(online, "merge_parallel_lockstep_results", "plockstep.merge")
    return ledger


def install_traced(ledger: Ledger) -> Ledger:
    """Boundary wrappers plus the per-message and per-round wrappers."""
    import repro.distsim.transport as transport
    import repro.service.harness as harness
    import repro.vehicles.vehicle as vehicle
    from repro.distsim.network import Network
    from repro.vehicles.fleet import Fleet

    install_boundary(ledger)
    counts = ledger.counts
    networks = ledger.networks

    def count_send(args, kwargs, result):
        network, message = args[0], args[3]
        counts["network.sends"] += 1
        counts["network.msgs." + type(message).__name__] += 1
        networks[id(network)] = network

    ledger.patch(Network, "send", "network.send", count_send)

    # A batched broadcast (the reliable fixed-delay channel) never enters
    # ``send``; the sends it made are the counter delta not seen by it.
    def count_batched(send_many):
        def counted(network, sender, destinations, message):
            sent_before = network.messages_sent
            counted_before = counts["network.sends"]
            send_many(network, sender, destinations, message)
            batched = (network.messages_sent - sent_before) - (
                counts["network.sends"] - counted_before
            )
            if batched:
                counts["network.sends"] += batched
                counts["network.msgs." + type(message).__name__] += batched
                networks[id(network)] = network

        return counted

    ledger.patch(Network, "send_many", "network.send", around=count_batched)

    for cls in vars(transport).values():
        if isinstance(cls, type) and issubclass(cls, transport.Transport) and "drops" in cls.__dict__:
            ledger.patch(cls, "drops", "transport.draw")

    ledger.patch(vehicle, "select_peers", "gossip.select_peers")
    ledger.patch(vehicle, "freshest_entries", "gossip.freshest_entries")

    def count_fleet(args, kwargs, result):
        counts["fleet.vehicles"] += len(args[0].vehicles)

    ledger.patch(Fleet, "__init__", "fleet.build", count_fleet)
    ledger.patch(Fleet, "run_heartbeat_round", "fleet.heartbeat")
    ledger.patch(harness, "capture_checkpoint", "checkpoint.capture")

    def count_bytes(args, kwargs, result):
        counts["checkpoint.bytes"] += os.path.getsize(args[1])

    ledger.patch(harness, "save_checkpoint", "checkpoint.save", count_bytes)
    return ledger
