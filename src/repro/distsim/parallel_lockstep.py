"""Which sharded runs may fan out to worker processes, and why that is exact.

Gao's strategy serves each job inside its own omega-cube, and
:class:`~repro.distsim.sharding.ShardPlan` assigns cubes whole to shards,
so a sharded run whose protocol traffic never leaves a cube is a set of
independent sub-fleets.  :func:`~repro.distsim.sharding.run_parallel`
runs one worker process per shard for exactly that class; a failure-free
reliable run is its simplest member (no failure payload, no tick events),
and the failure modes below are the rest:

* **Monitoring without escalation.**  With ``FleetConfig.escalation`` off
  the fleet builds no hierarchical watch ring: heartbeats flow between
  cube-local watch pairs, Phase I/II replacement is intra-cube, and the
  engaged-set round tick touches only local vehicles.  Every logical send
  therefore stays inside the cube that owns both endpoints, so no message
  ever crosses a shard boundary and each worker drains its own queue to
  quiescence with nothing to exchange: a synchronizer earns its barriers
  only when messages cross them.
* **Crashes, initiation suppression, partitions, churn.**  The
  :class:`~repro.distsim.failures.FailurePlan` is declarative (sets of
  identities, timed partition windows, churn specs), so it partitions by
  owning shard trivially; what does *not* partition is the failure
  **clock** and the fleet-wide heartbeat **round numbering**, which the
  reference run advances inside every arrival event.  Workers replicate
  them: every foreign arrival time is scheduled as a *tick* event (advance
  the failure clock; run the global heartbeat round over the local
  vehicles) and every churn spec is scheduled in every shard (foreign
  vertices no-op through the ``vertex in fleet.vehicles`` guard).  Each
  shard then executes exactly the reference event sequence restricted to
  its own vehicles, with identical clocks and round numbers -- byte
  identity follows, and the replicated bookkeeping events are subtracted
  from the merged ``events_processed``.
* **Edge-keyed transport streams.**  ``LossyTransport`` /
  ``CorruptingTransport`` with ``stream="edge"`` derive their draws per
  ``(edge, purpose, seed, message counter)`` instead of one generator in
  global send order (see :func:`~repro.distsim.transport._edge_stream_rng`),
  which makes loss and corruption shardable; the default ``"global"``
  stream is the compat shim reproducing every pre-split hash and falls
  back to single-process lockstep.

Everything outside the class -- escalation (replacement migrates vehicles
*between* shards: distributed state migration, not message exchange),
``recovery_rounds`` (conditional mid-run global rounds that cannot be
precomputed per shard), shared-RNG transports, closure drop rules -- is
rejected by :func:`parallel_lockstep_eligibility` with the first
disqualifying feature as a human-readable reason, and ``run_online`` falls
back to the single-process ``lockstep`` mode (one global fleet on one
clock, cross-shard sends counted), which is exact for every configuration.  The reason is recorded on the result (and logged), so
bench numbers can't silently be misread as parallel.

Workers verify the zero-boundary-traffic claim at runtime: an
:class:`~repro.distsim.sharding.IsolationGuard` installed as
``Network.shard_monitor`` raises on the first send whose endpoints map to
different shards, turning any future eligibility bug into a loud failure
instead of a silent divergence.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.distsim.failures import FailurePlan

__all__ = ["parallel_lockstep_eligibility"]


def parallel_lockstep_eligibility(
    transport,
    transport_instance,
    config,
    rng,
    failure_plan: Optional[FailurePlan],
    recovery_rounds: int,
    escalation: Optional[bool],
) -> Tuple[bool, str]:
    """Whether a sharded run may use the parallel lockstep engine.

    Returns ``(eligible, reason)`` where ``reason`` names the *first*
    disqualifying feature (empty when eligible) -- recorded on the result
    so a fallback to single-process lockstep is always attributable.
    The checks mirror the structural argument in the module docstring:
    anything that would generate cross-shard traffic, couple shards
    through a shared stream, or fail to pickle into a worker process
    disqualifies.
    """
    if escalation is not None:
        escalated = bool(escalation)
    else:
        escalated = config.escalation if config is not None else False
    if escalated:
        return (
            False,
            "escalation: cross-cube replacement migrates vehicles between shards",
        )
    if (config.monitoring if config is not None else False) == "gossip":
        return (
            False,
            "gossip monitoring: digest fanout targets fleet-wide peers, so "
            "every round generates cross-cube (hence cross-shard) traffic",
        )
    if recovery_rounds != 0:
        return (
            False,
            "recovery_rounds: conditional mid-run heartbeat rounds cannot be "
            "precomputed per shard",
        )
    if failure_plan is not None and failure_plan.drop_predicates:
        return (
            False,
            "failure-plan drop predicates: arbitrary callables do not pickle "
            "into worker processes",
        )
    if transport is None:
        if rng is not None:
            return (
                False,
                "shared-rng jitter transport: latency draws are consumed in "
                "global send order",
            )
        return (True, "")  # the fixed-delay reliable default, rebuilt per worker
    from repro.distsim.transport import TransportSpec

    if not isinstance(transport, (str, TransportSpec)):
        return (
            False,
            "caller-owned transport instance: workers need a rebuildable "
            "spec or kind name",
        )
    if not transport_instance.shardable:
        return (
            False,
            f"transport {transport_instance.kind!r} couples shards through a "
            'shared stream (lossy/corrupting need stream="edge")',
        )
    return (True, "")
