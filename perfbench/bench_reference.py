"""A host-speed reference timed between the executions of a timed run.

The benchmark runs on a few cores of a shared host whose speed drifts with
what the host's other tenants do: for minutes at a time a core runs the
same Python code up to 1.5x slower, and runs of one workload made a few
minutes apart spread past every bound on that alone.

:class:`SpeedReference` measures the drift in the benchmark's own process,
on the core the workload runs on.  Between executions it times passes of
:func:`reference_loop` -- a fixed discrete-event loop on plain Python
objects, with no code of the program in it.  An execution's *speed scale*
is :data:`NOMINAL_PASS_S` over the mean time of the passes on either side
of it: a host time multiplied by it is the time at the reference speed.  A change to the program moves
the scaled times; a change of the host's speed moves the workload and the
reference alike and leaves them be.
"""

from __future__ import annotations

import hashlib
import heapq
import statistics
from time import perf_counter
from typing import List

#: Seconds one :func:`reference_loop` pass takes at the reference speed
#: (about its time in a fast phase of a 2-vCPU x86-64 VM).
NOMINAL_PASS_S = 0.05

#: Objects the loop reaches into: a working set of a few megabytes, past
#: the per-core caches, as the program's fleets are.
NODES = 50_000

#: Events one pass schedules.
EVENTS = 20_000


class _Event:
    __slots__ = ("time", "target", "amount")

    def __init__(self, time: float, target: "_Node", amount: float) -> None:
        self.time = time
        self.target = target
        self.amount = amount


class _Node:
    __slots__ = ("identity", "energy", "received")

    def __init__(self, identity: int) -> None:
        self.identity = identity
        self.energy = 0.0
        self.received = 0

    def receive(self, event: _Event) -> int:
        self.energy += event.amount
        self.received += 1
        return self.identity


def reference_loop(nodes: List[_Node]) -> int:
    """One fixed pass: heap-ordered events, method calls, dict counts, hashes."""
    heap: list = []
    counts: dict = {}
    state = 12345
    for sequence in range(EVENTS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        event = _Event(float(state & 1023), nodes[state % NODES], 0.5)
        heapq.heappush(heap, (event.time, sequence, event))
        if len(heap) > 512:
            event = heapq.heappop(heap)[2]
            key = event.target.receive(event)
            counts[key] = counts.get(key, 0) + 1
        if sequence & 7 == 0:
            hashlib.blake2b(state.to_bytes(8, "little"), digest_size=8).digest()
    return len(counts)


class SpeedReference:
    """Reference passes timed in the calling process, between executions."""

    def __init__(self) -> None:
        self.nodes = [_Node(identity) for identity in range(NODES)]
        self.passes: List[float] = []

    def sample(self, seconds: float) -> List[float]:
        """Time passes for about ``seconds`` (at least one); return their seconds."""
        block: List[float] = []
        start = perf_counter()
        while True:
            begin = perf_counter()
            reference_loop(self.nodes)
            end = perf_counter()
            block.append(end - begin)
            if end - start >= seconds:
                self.passes.extend(block)
                return block


def speed_scale(passes: List[float]) -> float:
    """Reference speed over measured speed: host seconds times this = reference seconds.

    The mean, not the median: a core flips between a fast and a slow speed
    every few seconds, and what a workload pays is the share of time spent
    in each, which the mean pass time follows and a median jumps across.
    """
    return NOMINAL_PASS_S / statistics.fmean(passes)
