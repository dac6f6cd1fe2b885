"""The differential suite's transport axis.

Three relations pin the transport layer, with no golden values:

* **reliable spec** -- an explicit ``TransportSpec("reliable")`` runs
  every failure-free family workload over the reliable transport;
* **invariants under adversarial channels** -- for every family x online
  solver, seeded loss and Byzantine corruption may degrade service but
  never break the model: all solvers still agree on ``omega*``, any
  feasible run still costs at least the offline bound, and the run is a
  pure function of its config (byte-identical on re-execution);
* **eventual job service** -- with monitoring and recovery rounds, a lossy
  channel delays replacements but every job is still eventually served on
  a workload provisioned for it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExperimentEngine, TransportSpec
from repro.core.online import run_online
from repro.distsim.transport import LossyTransport
from repro.vehicles.fleet import FleetConfig
from repro.workloads.library import (
    available_families,
    family_broken_failures,
    family_config,
    family_spec,
    get_family,
)

SEED = 1
FAMILIES = sorted(available_families())
ONLINE_SOLVERS = ("online", "online-broken")

#: The adversarial channels of the transport axis.  Loss/corruption rates
#: are low enough that CI-scale workloads still terminate quickly but high
#: enough that every family sees at least some interference.
ADVERSARIAL_TRANSPORTS = (
    TransportSpec("lossy", {"loss": 0.1, "seed": 3}),
    TransportSpec("corrupting", {"rate": 0.1, "seed": 3}),
)

RELATIVE_TOLERANCE = 1e-6


@pytest.mark.parametrize("family", FAMILIES)
class TestReliableTransportSpec:
    def test_runs_over_reliable_transport(self, family):
        jobs = family_spec(family, seed=SEED, preset="small").jobs()
        result = run_online(
            jobs,
            capacity="theorem",
            config=FleetConfig(),
            transport=TransportSpec("reliable"),
        )
        assert result.transport == "reliable"


def _adversarial_config(family: str, solver: str, transport: TransportSpec):
    if solver == "online-broken":
        # The family's own failure plan plus the adversarial channel; the
        # explicit transport wins over any family-bundled one.
        return family_config(family, solver, seed=SEED, preset="small", transport=transport)
    return family_config(family, solver, seed=SEED, preset="small").replace(
        transport=transport
    )


@pytest.fixture(scope="module")
def adversarial_results():
    """family x online-solver x transport, solved once and shared."""
    engine = ExperimentEngine()
    results = {}
    for family in FAMILIES:
        results[(family, "offline")] = engine.run(
            family_config(family, "offline", seed=SEED, preset="small")
        )
        for solver in ONLINE_SOLVERS:
            for transport in ADVERSARIAL_TRANSPORTS:
                config = _adversarial_config(family, solver, transport)
                results[(family, solver, transport.kind)] = engine.run(config)
    return results


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("solver", ONLINE_SOLVERS)
@pytest.mark.parametrize("kind", [spec.kind for spec in ADVERSARIAL_TRANSPORTS])
class TestInvariantsUnderAdversarialTransports:
    def test_run_completes_with_consistent_numbers(
        self, adversarial_results, family, solver, kind
    ):
        result = adversarial_results[(family, solver, kind)]
        assert result.extra("transport") == kind
        assert 0 <= result.jobs_served <= result.jobs_total
        assert result.jobs_total > 0
        assert result.max_vehicle_energy >= 0.0

    def test_omega_star_agrees_with_offline(
        self, adversarial_results, family, solver, kind
    ):
        """The adversary attacks the channel, never the workload: the
        offline lower bound is untouched."""
        result = adversarial_results[(family, solver, kind)]
        reference = adversarial_results[(family, "offline")].omega_star
        assert result.omega_star == pytest.approx(reference, rel=RELATIVE_TOLERANCE)

    def test_feasible_runs_cost_at_least_the_offline_bound(
        self, adversarial_results, family, solver, kind
    ):
        result = adversarial_results[(family, solver, kind)]
        if result.feasible:
            floor = result.omega_star * (1.0 - RELATIVE_TOLERANCE)
            assert result.max_vehicle_energy >= floor

    def test_rerun_is_byte_identical(self, adversarial_results, family, solver, kind):
        """Seeded adversaries are part of the config: re-executing in a
        fresh engine reproduces the result bit for bit."""
        transport = next(t for t in ADVERSARIAL_TRANSPORTS if t.kind == kind)
        config = _adversarial_config(family, solver, transport)
        fresh = ExperimentEngine().run(config)
        assert fresh.canonical_json() == adversarial_results[
            (family, solver, kind)
        ].canonical_json()


class TestEventualJobServiceUnderLoss:
    def test_monitoring_recovers_every_job_on_a_lossy_channel(self):
        """Replacement searches may lose messages, but the monitoring loop
        keeps retrying: on a provisioned workload every job is eventually
        served."""
        from repro.core.demand import JobSequence

        jobs = JobSequence.from_positions([(0, 0)] * 20)
        result = run_online(
            jobs,
            omega=3.0,
            capacity=8.0,
            config=FleetConfig(monitoring=True),
            recovery_rounds=6,
            transport=LossyTransport(loss=0.15, seed=5),
        )
        assert result.transport == "lossy"
        assert result.messages_dropped > 0
        assert result.feasible
        assert result.jobs_served == result.jobs_total

    def test_corrupted_channel_degrades_but_never_crashes(self):
        """Byzantine corruption of Phase I/II messages is survived legally:
        the run terminates, counters stay consistent, service may degrade."""
        from repro.core.demand import JobSequence

        jobs = JobSequence.from_positions([(0, 0), (1, 1)] * 15)
        result = run_online(
            jobs,
            omega=3.0,
            capacity=8.0,
            config=FleetConfig(monitoring=True),
            recovery_rounds=4,
            transport=TransportSpec("corrupting", {"rate": 0.3, "seed": 9}),
        )
        assert result.messages_corrupted > 0
        assert 0 <= result.jobs_served <= result.jobs_total
