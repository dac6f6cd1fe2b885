"""E15 -- the scenario family library on the event-driven engine.

Two throughput questions the ROADMAP's "as fast as the hardware allows"
goal keeps asking:

* how many simulator events per second does the event-driven online driver
  sustain on a large fleet (the distsim hot path), and
* how long does each scenario family take to solve end-to-end through the
  experiment engine (the sweep hot path)?

Every benchmark records events/sec (where meaningful) and the workload
shape via ``benchmark.extra_info``, and asserts the load-bearing semantic
claims: the failure-free driver run is feasible, and every family solves
to a valid result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExperimentEngine
from repro.core.online import run_online
from repro.vehicles.fleet import FleetConfig
from repro.workloads.library import available_families, build_family_demand, family_config
from repro.workloads.arrivals import random_arrivals

#: CI-scale preset keeps each family's solve in fractions of a second; drop
#: ``preset`` to benchmark the laptop-scale defaults.
_PRESET = "small"
_SOLVERS = ("offline", "greedy", "online")


def _scale_up_jobs(side: int = 10):
    demand = build_family_demand("scale-up", {"side": side, "per_point": 2.0})
    return random_arrivals(demand, np.random.default_rng(0))


# A single value: it keeps the gated benchmark id
# ``bench_online_driver_events_per_sec[events]`` stable.
@pytest.mark.parametrize("engine", ["events"])
def bench_online_driver_events_per_sec(benchmark, engine):
    """Events/sec of the online event driver on a scale-up fleet."""
    jobs = _scale_up_jobs()

    result = benchmark(
        lambda: run_online(jobs, capacity="theorem", config=FleetConfig())
    )

    events_per_sec = (
        result.events_processed / benchmark.stats.stats.mean
        if benchmark.stats.stats.mean
        else 0.0
    )
    benchmark.extra_info.update(
        {
            "engine": engine,
            "jobs": result.jobs_total,
            "events_processed": result.events_processed,
            "sim_time": result.sim_time,
            "events_per_sec": events_per_sec,
        }
    )
    assert result.feasible


@pytest.mark.parametrize("family", sorted(available_families()))
def bench_family_solve_time(benchmark, family):
    """End-to-end solve time per scenario family across the core solvers."""
    configs = [
        family_config(family, solver, preset=_PRESET, params={"engine": "events"})
        if solver.startswith("online")
        else family_config(family, solver, preset=_PRESET)
        for solver in _SOLVERS
    ]

    results = benchmark(lambda: ExperimentEngine().run_many(configs))

    events = sum(int(r.extra("events_processed", 0)) for r in results)
    benchmark.extra_info.update(
        {
            "family": family,
            "solvers": len(_SOLVERS),
            "jobs_total": results[0].jobs_total,
            "events_processed": events,
            "events_per_sec": (
                events / benchmark.stats.stats.mean if benchmark.stats.stats.mean else 0.0
            ),
        }
    )
    # Every family must produce valid, omega*-consistent results.
    omega_stars = {round(r.omega_star, 9) for r in results}
    assert len(omega_stars) == 1
    for result in results:
        assert result.jobs_served <= result.jobs_total


def bench_family_registry_resolution(benchmark):
    """Spec -> demand resolution for the whole registry (the cached lookup path)."""

    def resolve_all():
        return [
            build_family_demand(name, seed=seed)
            for name in available_families()
            for seed in (0, 1)
        ]

    demands = benchmark(resolve_all)
    benchmark.extra_info.update({"families": len(available_families())})
    assert all(not demand.is_empty() for demand in demands)
