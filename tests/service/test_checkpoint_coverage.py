"""Every mutable attribute of a checkpointed object is declared or derived.

The snapshot format is the field tables of :mod:`repro.service.checkpoint`.
This test runs service configurations that exercise escalation, churn,
gossip with a Byzantine watcher, edge-stream loss and corruption, and a
retransmit wrapper, then enumerates ``vars()`` of every object a snapshot
covers.  Each attribute must be a table row or appear in :data:`DERIVED`
below, with the reason it need not be saved.  A new attribute that is
neither makes the test fail, so it cannot silently miss the checkpoint.
"""

from __future__ import annotations

import pytest

from repro.api.service import ServiceConfig
from repro.core.demand import DemandMap
from repro.distsim.failures import ChurnSpec
from repro.distsim.transport import TransportSpec
from repro.service import checkpoint, harness, run_service
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import alternating_arrivals

SIDE6 = DemandMap({(x, y): 3.0 for x in range(6) for y in range(6)})
EDGE_LOSS = TransportSpec(
    kind="lossy", params=(("loss", 0.1), ("seed", 5), ("stream", "edge"))
)

CONFIGS = {
    "escalation-churn-retransmit": ServiceConfig.from_demand(
        SIDE6,
        fleet=FleetConfig(monitoring=True, escalation=True),
        recovery_rounds=2,
        churn=(
            ChurnSpec(time=6.5, vertex=(0, 0), action="leave"),
            ChurnSpec(time=30.5, vertex=(0, 0), action="join"),
        ),
        window_jobs=10,
        checkpoint_every=1,
        transport=TransportSpec(
            kind="retransmit", params=(("inner", EDGE_LOSS.to_json()), ("retries", 1))
        ),
    ),
    "gossip-byzantine-corrupting": ServiceConfig.from_demand(
        SIDE6,
        omega=4.0,
        capacity=64.0,
        fleet=FleetConfig(monitoring="gossip"),
        dead_vehicles=((0, 0),),
        byzantine_watchers=((1, 1),),
        recovery_rounds=12,
        window_jobs=10,
        checkpoint_every=1,
        transport=TransportSpec(
            kind="corrupting", params=(("rate", 0.1), ("seed", 2), ("stream", "edge"))
        ),
    ),
}

#: Attributes a snapshot does not store, by class, with the reason.
DERIVED = {
    "VehicleProcess": {
        "identity": "construction",
        "home": "construction",
        "capacity": "construction",
        "done_threshold": "construction",
        "fleet": "back-reference",
        "_index": "construction",
        "_registry": "back-reference",
        "_network": "back-reference",
        "log_messages": "set by the harness for every service run",
        "message_log": "disabled in service runs (log_messages is False)",
        "coloring": "looked up from the (restored) cube_index",
        "broken": "mirror of the registry's broken array",
        "_monitored_pair": "mirror of the registry's watch array",
        "pair_key": "stored densely as the fleet's pair_live column",
    },
    "Fleet": {
        "demand": "construction",
        "omega": "construction",
        "config": "construction",
        "dim": "construction",
        "cube_side": "construction",
        "window": "construction",
        "cube_grid": "construction",
        "hierarchy": "construction",
        "colorings": "construction",
        "watch_ring": "construction",
        "_ring_inverse": "construction",
        "_pair_of_position": "construction",
        "_pair_cube": "construction",
        "_gossip_candidates": "cache of construction data",
        "_by_index_cache": "cache rebuilt on demand",
        "_by_index_count": "cache rebuilt on demand",
        "simulator": "clock restored, queue re-derived, event stats restored",
        "vehicles": "walked per vehicle below",
    },
    "FleetRegistry": {
        "window": "construction",
        "dim": "construction",
        "count": "construction",
        "index_of": "construction",
        "identities": "construction",
        "cube_id_of": "construction",
        "cube_slices": "construction",
        "pair_id_of": "construction",
        "pair_keys": "construction",
        "homes": "construction",
        "vehicle_pair": "construction",
        "initially_active": "construction",
        "pair_black": "construction",
        "pair_cube": "construction",
        "_pair_cube_ids": "construction",
        "_pos_pair": "construction",
        "_pair_window": "construction",
        "engaged": "rebuilt from the restored vehicles",
        "watch_heard": "rebuilt from the restored vehicles",
        "peers": "mirrored by the cube_peers setter",
    },
    "Network": {
        "simulator": "back-reference",
        "failure_plan": "walked as the failure plan",
        "_processes": "construction",
        "shard_monitor": "observational, rebuilt from the config",
    },
    "FailurePlan": {
        "drop_predicates": "construction",
        "partitions": "construction",
    },
    "Transport": {
        "_simulator": "back-reference",
        "_last_delivery": "FIFO clamp, inert at a clean point",
        "_pending_wait": "zero between sends",
        "delay": "construction",
        "loss": "construction",
        "rate": "construction",
        "seed": "construction",
        "stream": "construction",
        "retries": "construction",
        "timeout": "construction",
    },
    "MetricsRecorder": {
        "fleet": "back-reference",
        "window_jobs": "construction",
        "omega_star": "construction",
        "emit": "construction",
        "_digest_capacity": "construction",
        "recent": "display-only ring of closed windows; restarts empty",
    },
}


def _declared(*tables, prefix=""):
    """First attribute names of the rows of ``tables`` under ``prefix``."""
    names = set()
    for table in tables:
        for row in table.rows:
            if row.path.startswith(prefix) and row.path != prefix.rstrip("."):
                names.add(row.path[len(prefix):].split(".")[0])
    return names - {""}


DECLARED = {
    "VehicleProcess": _declared(checkpoint.VEHICLE, checkpoint.RESIDENCY),
    "Fleet": _declared(checkpoint.FLEET)
    | _declared(checkpoint.SNAPSHOT, prefix="fleet."),
    "FleetRegistry": _declared(checkpoint.FLEET, prefix="flat."),
    "Network": _declared(checkpoint.NETWORK)
    | _declared(checkpoint.SNAPSHOT, prefix="fleet.network."),
    "FailurePlan": _declared(checkpoint.FAILURE_PLAN),
    "Transport": _declared(checkpoint.TRANSPORT, checkpoint.EDGE_COUNTS),
    "MetricsRecorder": _declared(checkpoint.METRICS),
}


@pytest.fixture(scope="module")
def snapshot_objects(tmp_path_factory):
    """Per config, the fleet and recorder its run hands to checkpoint capture."""
    runs = {}
    capture = harness.capture_checkpoint
    for name, config in CONFIGS.items():
        seen = {}

        def spy(config, driver, *, rng=None, recorder=None):
            seen[id(driver.fleet)] = (driver.fleet, recorder)
            return capture(config, driver, rng=rng, recorder=recorder)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "capture_checkpoint", spy)
            jobs = list(alternating_arrivals(config.demand()).jobs)
            snapshot = tmp_path_factory.mktemp(name) / "snap.json"
            run_service(config, jobs, checkpoint_path=str(snapshot))
        assert seen, f"{name}: the run wrote no checkpoint"
        runs[name] = list(seen.values())
    return runs


def _objects(fleet, recorder):
    yield "Fleet", fleet
    yield "FleetRegistry", fleet.flat
    yield "Network", fleet.network
    yield "FailurePlan", fleet.failure_plan
    yield "MetricsRecorder", recorder
    for vehicle in fleet.vehicles.values():
        yield "VehicleProcess", vehicle
    transport = fleet.network.transport
    while transport is not None:
        yield "Transport", transport
        transport = getattr(transport, "inner", None)


def _covered(name, declared):
    # A row may go through a property (``cube_peers`` -> ``_cube_peers``).
    return name in declared or name.lstrip("_") in declared


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_attribute_is_a_row_or_derived(snapshot_objects, name):
    undeclared = set()
    for fleet, recorder in snapshot_objects[name]:
        for kind, obj in _objects(fleet, recorder):
            for attribute in vars(obj):
                if not (
                    _covered(attribute, DECLARED[kind]) or attribute in DERIVED[kind]
                ):
                    undeclared.add(f"{kind}.{attribute}")
    assert not undeclared, (
        "attributes neither in a checkpoint table nor listed as derived: "
        f"{sorted(undeclared)}"
    )


def test_the_configs_reach_the_state_they_are_meant_to_cover(snapshot_objects):
    keys = set()
    for runs in snapshot_objects.values():
        for fleet, _ in runs:
            for vehicle in fleet.vehicles.values():
                keys |= set(checkpoint.VEHICLE.capture(vehicle))
            transport = checkpoint.TRANSPORT.capture(fleet.network.transport)
            keys |= {f"transport.{key}" for key in transport}
            keys |= {f"inner.{key}" for key in transport.get("inner", {})}
    assert {
        "adopted_pairs",
        "gossip_reports",
        "gossip_counter",
        "last_heard",
        "initiated",
        "transport.retransmissions",
        "transport.streams",
        "inner.streams",
    } <= keys


def test_derived_lists_name_no_declared_attribute():
    for kind, derived in DERIVED.items():
        assert not {name for name in derived if _covered(name, DECLARED[kind])}, kind
