"""Cross-solver smoke tests: every built-in solver produces a sane RunResult."""

from __future__ import annotations

import pytest

from repro.api import (
    BUILTIN_SOLVERS,
    ConfigError,
    ExperimentEngine,
    FailureSpec,
    RunConfig,
    RunResult,
    ScenarioSpec,
    get_solver,
)
from repro.core.demand import DemandMap
from repro.core.offline import offline_bounds
from repro.core.transfer import TransferAccounting, line_tank_requirement


@pytest.fixture
def tiny_scenario() -> ScenarioSpec:
    demand = DemandMap({(0, 0): 4.0, (2, 0): 3.0, (0, 2): 2.0})
    return ScenarioSpec.from_demand(demand, name="tiny", seed=0)


def _run(solver: str, scenario: ScenarioSpec, **kwargs) -> RunResult:
    return ExperimentEngine().run(RunConfig(solver=solver, scenario=scenario, **kwargs))


@pytest.mark.parametrize(
    "solver", [s for s in BUILTIN_SOLVERS if s not in ("online-broken",)]
)
def test_solver_reports_core_quantities(solver, tiny_scenario):
    result = _run(solver, tiny_scenario)
    assert result.solver == solver
    assert result.scenario == "tiny"
    assert result.omega_star > 0
    assert result.max_vehicle_energy >= 0
    assert result.jobs_total == 9  # 4 + 3 + 2 unit jobs
    # Every result survives the JSON round-trip (the engine cache relies on it).
    assert RunResult.from_json(result.to_json()) == result


def test_offline_matches_offline_bounds(tiny_scenario):
    result = _run("offline", tiny_scenario)
    bounds = offline_bounds(tiny_scenario.demand())
    assert result.omega_star == bounds.omega_star
    assert result.max_vehicle_energy == bounds.constructive_capacity
    assert result.extra("omega_c") == bounds.omega_c


def test_online_feasible_at_theorem_capacity(tiny_scenario):
    result = _run("online", tiny_scenario)
    assert result.feasible
    assert result.jobs_served == result.jobs_total
    assert result.capacity == result.extra("theorem_capacity")


def test_online_broken_requires_failures(tiny_scenario):
    with pytest.raises(ConfigError, match="failures"):
        get_solver("online-broken")(
            RunConfig(solver="online-broken", scenario=tiny_scenario)
        )


def test_online_broken_records_failure_counts(tiny_scenario):
    result = _run(
        "online-broken",
        tiny_scenario,
        failures=FailureSpec(crashed=((5, 5),)),
        recovery_rounds=2,
    )
    assert result.extra("crashed_vehicles") == 1
    # A crash far from the demand support must not break feasibility.
    assert result.feasible


def test_online_reports_the_events_engine(tiny_scenario):
    plain = _run("online", tiny_scenario)
    spelled = _run("online", tiny_scenario, params={"engine": "events"})
    assert plain.extra("engine") == spelled.extra("engine") == "events"
    # Spelling out the one driver changes the config, never the outcome.
    assert spelled.extras_dict() == plain.extras_dict()
    assert spelled.max_vehicle_energy == plain.max_vehicle_energy
    assert spelled.jobs_served == plain.jobs_served


@pytest.mark.parametrize("solver", ["online", "online-broken"])
@pytest.mark.parametrize("engine", ["rounds", "warp"])
def test_online_unknown_engine_rejected(solver, engine, tiny_scenario):
    config = RunConfig(
        solver=solver,
        scenario=tiny_scenario,
        params={"engine": engine},
        failures=FailureSpec(crashed=((5, 5),)),
    )
    with pytest.raises(ConfigError, match="engine"):
        get_solver(solver)(config)


def test_transfer_line_mode_matches_closed_form():
    demand = DemandMap({(x, 0): 2.0 for x in range(6)})
    scenario = ScenarioSpec.from_demand(demand, name="line6")
    result = _run("online-transfer", scenario, params={"accounting": "fixed", "a1": 0.5})
    assert result.extra("mode") == "line-tanks"
    closed_form = line_tank_requirement(
        [2.0] * 6, accounting=TransferAccounting.FIXED, a1=0.5
    )
    assert result.extra("closed_form_requirement") == pytest.approx(closed_form)
    # The executed schedule needs the closed form up to integrality slack.
    assert result.capacity == pytest.approx(closed_form, rel=0.5)


def test_transfer_square_mode_uses_theorem_bound(tiny_scenario):
    result = _run("online-transfer", tiny_scenario)
    assert result.extra("mode") == "square-bound"
    assert result.max_vehicle_energy > 0


def test_greedy_sandwiched_by_omega_star(tiny_scenario):
    result = _run("greedy", tiny_scenario)
    assert result.feasible
    # The empirical upper bound must respect the omega* lower bound.
    assert result.max_vehicle_energy >= result.omega_star - 1e-9


def test_cvrp_heuristic_param(tiny_scenario):
    result = _run("cvrp", tiny_scenario, params={"heuristic": "nearest-neighbor"})
    assert result.extra("heuristic") == "nearest-neighbor"
    assert result.feasible


def test_cvrp_unknown_heuristic_rejected(tiny_scenario):
    with pytest.raises(ConfigError, match="heuristic"):
        get_solver("cvrp")(
            RunConfig(
                solver="cvrp", scenario=tiny_scenario, params={"heuristic": "magic"}
            )
        )


def test_transportation_supply_modes(tiny_scenario):
    center = _run("transportation", tiny_scenario)
    uniform = _run("transportation", tiny_scenario, params={"supply": "uniform"})
    assert center.extra("supply_mode") == "center"
    assert uniform.extra("supply_mode") == "uniform"
    assert center.objective >= 0 and uniform.objective >= 0


def test_empty_demand_short_circuits():
    scenario = ScenarioSpec(name="empty", entries=(), dim=2)
    for solver in BUILTIN_SOLVERS:
        kwargs = {}
        if solver == "online-broken":
            kwargs["failures"] = FailureSpec(crashed=((9, 9),))
        result = _run(solver, scenario, **kwargs)
        assert result.feasible
        assert result.jobs_total == 0
