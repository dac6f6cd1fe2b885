"""The differential suite's escalation axis.

Three relations pin the cross-cube escalation layer, with no goldens:

* **recovery in the omega_c < 1 regime** -- on every spread-demand
  scenario whose natural partition is singleton cubes (``omega_c < 1``,
  verified per scenario), a run with dead vehicles abandons jobs under the
  intra-cube protocol but reaches *full* job service with escalation on;
* **worker-count determinism** -- escalated runs are byte-identical
  across 1 thread, 4 threads, and 4 processes (the new messages, ring
  state, and adoption bookkeeping must all be free of ambient state);
* **inertness** -- enabling escalation on a failure-free intra-cube run
  changes no physical outcome at all (escalation only ever fires when a
  cube search exhausts);
* **shard equivalence** -- with escalation and monitoring enabled and no
  failures, a ``shards=4`` run (the single-process ``lockstep`` fallback,
  whose only addition is the cross-shard send counter) reproduces the
  unsharded run exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.bounds import escalation_capacity_bound
from repro.api import ExperimentEngine, FailureSpec, RunConfig, ScenarioSpec
from repro.core.demand import DemandMap
from repro.core.omega import omega_c
from repro.core.online import run_online
from repro.vehicles.fleet import FleetConfig
from repro.workloads.arrivals import random_arrivals
from repro.workloads.generators import square_demand
from repro.workloads.library import family_spec


def _spread(side: int, stride: int, per_point: float) -> DemandMap:
    return DemandMap(
        {
            (stride * x, stride * y): per_point
            for x in range(side)
            for y in range(side)
        }
    )


#: The omega_c < 1 scenario axis: (name, demand, dead vehicles).  Each
#: demand is spread thin enough that the natural cube partition degenerates
#: to singletons -- the regime where the intra-cube protocol has no
#: replacement path at all.
SPARSE_SCENARIOS = [
    ("spread-3x3", _spread(3, 3, 2.0), [(0, 0)]),
    ("spread-4x4", _spread(4, 4, 1.0), [(0, 0), (4, 4)]),
    ("spread-line", DemandMap({(5 * x, 0): 2.0 for x in range(5)}), [(5, 0)]),
]


def _sparse_config(name, demand, dead, *, escalation):
    return RunConfig(
        solver="online-broken",
        scenario=ScenarioSpec.from_demand(demand, name=name, order="sequential"),
        # Provisioned from the escalation-aware Lemma 3.3.1 bound instead
        # of a hand-tuned constant: growing a scenario grows its battery.
        capacity=escalation_capacity_bound(demand),
        failures=FailureSpec(crashed=tuple(dead)),
        escalation=escalation,
        recovery_rounds=6,
    )


@pytest.mark.parametrize(
    "name,demand,dead", SPARSE_SCENARIOS, ids=[s[0] for s in SPARSE_SCENARIOS]
)
class TestSparseRegimeRecovery:
    def test_scenario_really_is_singleton_cube(self, name, demand, dead):
        assert omega_c(demand) < 1.0

    def test_intra_cube_abandons_jobs(self, name, demand, dead):
        result = ExperimentEngine().run(
            _sparse_config(name, demand, dead, escalation=False)
        )
        assert result.jobs_served < result.jobs_total

    def test_escalation_reaches_full_service(self, name, demand, dead):
        result = ExperimentEngine().run(
            _sparse_config(name, demand, dead, escalation=True)
        )
        assert result.feasible
        assert result.jobs_served == result.jobs_total
        assert int(result.extra("escalations", 0)) >= 1


class TestEscalationWorkerDeterminism:
    def _configs(self):
        return [
            _sparse_config(name, demand, dead, escalation=True)
            for name, demand, dead in SPARSE_SCENARIOS
        ]

    @pytest.fixture(scope="class")
    def serial_payload(self) -> str:
        engine = ExperimentEngine(workers=1)
        return engine.results_payload(engine.run_many(self._configs()))

    def test_four_threads_byte_identical(self, serial_payload):
        engine = ExperimentEngine(workers=4)
        assert engine.results_payload(engine.run_many(self._configs())) == serial_payload

    def test_four_processes_byte_identical(self, serial_payload):
        engine = ExperimentEngine(workers=4, use_processes=True)
        assert engine.results_payload(engine.run_many(self._configs())) == serial_payload

    def test_rerun_byte_identical(self, serial_payload):
        engine = ExperimentEngine(workers=1)
        assert engine.results_payload(engine.run_many(self._configs())) == serial_payload


def _fingerprint(result):
    return (
        result.jobs_served,
        result.feasible,
        result.max_vehicle_energy,
        result.total_travel,
        result.total_service,
        result.replacements,
        result.searches,
        result.messages,
        tuple(sorted(result.vehicle_energies.items())),
    )


class TestShardEquivalenceWithEscalation:
    @pytest.mark.parametrize(
        "family, cross", [("hotspot", 160), ("scale-up", 100), ("mobility", 144)]
    )
    def test_sharded_equals_unsharded_failure_free(self, family, cross):
        jobs = family_spec(family, seed=1, preset="small").jobs()
        config = FleetConfig(monitoring=True, escalation=True)
        base = run_online(jobs, capacity="theorem", config=config)
        sharded = run_online(jobs, capacity="theorem", config=config, shards=4)
        assert sharded.shard_mode == "lockstep"
        assert _fingerprint(sharded) == _fingerprint(base)
        assert base.feasible and base.cross_shard_messages == 0
        assert sharded.cross_shard_messages == cross


class TestEscalationInertness:
    def test_escalation_is_inert_on_failure_free_intra_cube_runs(self):
        """With healthy vehicles and theorem provisioning no search ever
        exhausts its cube, so enabling escalation must not change the
        physical outcome of a classical intra-cube run."""
        jobs = random_arrivals(square_demand(5, 3.0), np.random.default_rng(0))
        off = run_online(jobs, config=FleetConfig(monitoring=False))
        on = run_online(
            jobs, config=FleetConfig(monitoring=False, escalation=True)
        )
        assert _fingerprint(off) == _fingerprint(on)
        assert on.escalations == 0
