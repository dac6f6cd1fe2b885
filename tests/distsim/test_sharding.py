"""Unit suite for the cube-sharding layer (:mod:`repro.distsim.sharding`).

Covers the pieces the determinism property tests build on:

* ``ShardPlan`` -- every occupied cube assigned to exactly one shard,
  shard regions contiguous in ancestor order, the level heuristic, and
  the vectorized grouping against a per-cube ``ancestor()`` walk.
* ``ShardMonitor`` -- intra/cross classification through home cubes.
* ``merge_shard_results`` -- counter sums, replicated maxima, and one
  drain per worker result.
"""

from __future__ import annotations

import pytest

from repro.distsim.sharding import ShardMonitor, ShardPlan, merge_shard_results
from repro.grid.cubes import CubeGrid, CubeHierarchy
from repro.grid.lattice import Box


def make_hierarchy(extent: int = 24, side: int = 3, dim: int = 2) -> CubeHierarchy:
    window = Box((0,) * dim, (extent - 1,) * dim)
    return CubeHierarchy(CubeGrid(window, side))


class TestShardPlan:
    def test_every_cube_assigned_exactly_once(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 4)
        seen = [index for shard in range(plan.shards) for index in plan.cubes_of(shard)]
        assert sorted(seen) == list(plan.cubes)
        assert len(seen) == len(set(seen)), "a cube landed in two shards"
        for index in plan.cubes:
            assert 0 <= plan.shard_of(index) < plan.shards

    def test_counts_sum_and_rough_balance(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 4)
        counts = plan.counts()
        assert sum(counts) == len(plan.cubes)
        assert all(count > 0 for count in counts)
        # The greedy walk over ancestor groups stays within one group of fair.
        fair = len(plan.cubes) / plan.shards
        assert max(counts) <= 2 * fair

    def test_shard_regions_are_whole_ancestor_groups_in_order(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 3)
        groups = {}
        for index in plan.cubes:
            groups.setdefault(hierarchy.ancestor(index, plan.level), []).append(index)
        # Groups are atomic (never split across shards) and the walk hands
        # them out in lex ancestor order, so group owners are nondecreasing.
        owners = []
        for ancestor in sorted(groups):
            member_owners = {plan.shard_of(index) for index in groups[ancestor]}
            assert len(member_owners) == 1, f"group {ancestor} split across shards"
            owners.append(member_owners.pop())
        assert owners == sorted(owners)

    def test_sparse_occupancy_only_assigns_given_cubes(self):
        hierarchy = make_hierarchy()
        occupied = [(0, 0), (0, 1), (5, 5), (7, 0), (7, 7)]
        plan = ShardPlan(hierarchy, 2, cubes=occupied)
        assert plan.cubes == tuple(sorted(occupied))
        with pytest.raises(KeyError):
            plan.shard_of((3, 3))
        assert plan.shard_of_or((3, 3), default=7) == 7

    def test_more_shards_than_cubes_leaves_empties(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 3, cubes=[(0, 0), (1, 1)])
        assert sum(plan.counts()) == 2
        assert len([c for c in plan.counts() if c == 0]) == 1

    def test_validation(self):
        hierarchy = make_hierarchy()
        with pytest.raises(ValueError):
            ShardPlan(hierarchy, 0)
        with pytest.raises(ValueError):
            ShardPlan(hierarchy, 2, cubes=[])

    def test_deterministic_across_input_order(self):
        hierarchy = make_hierarchy()
        cubes = [(0, 0), (3, 2), (1, 7), (5, 5), (2, 2)]
        a = ShardPlan(hierarchy, 2, cubes=cubes)
        b = ShardPlan(hierarchy, 2, cubes=list(reversed(cubes)))
        assert a.cubes == b.cubes
        assert [a.cubes_of(s) for s in range(2)] == [b.cubes_of(s) for s in range(2)]


def scalar_groups(hierarchy, cubes, level):
    """Reference grouping: one ``ancestor()`` call per cube."""
    groups = {}
    for index in sorted(cubes):
        groups.setdefault(hierarchy.ancestor(index, level), []).append(index)
    return [groups[ancestor] for ancestor in sorted(groups)]


def scalar_level(hierarchy, cubes, shards):
    """Reference level heuristic over scalar ancestor-group counts."""
    fallback = 0
    for level in range(hierarchy.levels, -1, -1):
        count = len({hierarchy.ancestor(index, level) for index in cubes})
        if count >= 4 * shards:
            return level
        if count >= shards and fallback == 0:
            fallback = level
    return fallback


class TestShardPlanMatchesScalarAncestors:
    """The vectorized ``ancestors_array`` path equals a per-cube walk."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_groups_match_scalar_ancestor_walk(self, shards):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, shards)
        cubes = list(plan.cubes)
        assert ShardPlan._group_members(hierarchy, cubes, plan.level) == scalar_groups(
            hierarchy, cubes, plan.level
        )

    @pytest.mark.parametrize("dim, extent", [(1, 60), (2, 24), (3, 12)])
    def test_level_matches_scalar_group_counts(self, dim, extent):
        hierarchy = make_hierarchy(extent=extent, dim=dim)
        cubes = [index for index, _box in hierarchy.grid.cubes()]
        for shards in (1, 2, 3, 5):
            assert ShardPlan(hierarchy, shards).level == scalar_level(
                hierarchy, cubes, shards
            )

    def test_sparse_plan_shards_are_unions_of_scalar_groups(self):
        hierarchy = make_hierarchy()
        occupied = [(0, 0), (0, 1), (1, 7), (2, 2), (3, 2), (5, 5), (7, 0), (7, 7)]
        plan = ShardPlan(hierarchy, 3, cubes=occupied)
        for members in scalar_groups(hierarchy, occupied, plan.level):
            assert len({plan.shard_of(index) for index in members}) == 1
        flat = [index for shard in range(3) for index in plan.cubes_of(shard)]
        assert flat == [
            index
            for members in scalar_groups(hierarchy, occupied, plan.level)
            for index in members
        ]


class TestShardMonitor:
    def test_classifies_by_home_cube(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 2)
        grid = hierarchy.grid
        monitor = ShardMonitor(plan, grid.cube_index)

        left = next(c for c in plan.cubes if plan.shard_of(c) == 0)
        right = next(c for c in plan.cubes if plan.shard_of(c) == 1)
        point_of = {index: box.lo for index, box in grid.cubes()}

        monitor(point_of[left], point_of[left], "ping")
        assert (monitor.intra_shard, monitor.cross_shard) == (1, 0)
        monitor(point_of[left], point_of[right], "ping")
        assert (monitor.intra_shard, monitor.cross_shard) == (1, 1)

    def test_identity_shard_is_resolved_once(self):
        plan = ShardPlan(make_hierarchy(), 2)
        grid = make_hierarchy().grid
        lookups = []

        def cube_of(identity):
            lookups.append(identity)
            return grid.cube_index(identity)

        monitor = ShardMonitor(plan, cube_of)
        for _ in range(3):
            monitor((0, 0), (1, 1), "ping")
        assert lookups == [(0, 0), (1, 1)]
        assert monitor.intra_shard == 3

    def test_unassigned_home_cube_counts_as_shard_zero(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 2, cubes=[(0, 0), (7, 7)])
        monitor = ShardMonitor(plan, hierarchy.grid.cube_index)
        assert plan.shard_of((0, 0)) == 0 and plan.shard_of((7, 7)) == 1
        monitor((12, 12), (0, 0), "ping")  # cube (4, 4) is in no shard
        monitor((12, 12), (21, 21), "ping")
        assert (monitor.intra_shard, monitor.cross_shard) == (1, 1)

    def test_single_shard_plan_counts_everything_intra(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 1)
        monitor = ShardMonitor(plan, hierarchy.grid.cube_index)
        for sender, destination in [((0, 0), (23, 23)), ((23, 0), (0, 23))]:
            monitor(sender, destination, "ping")
        assert (monitor.intra_shard, monitor.cross_shard) == (2, 0)

    def test_cross_count_is_direction_symmetric(self):
        hierarchy = make_hierarchy()
        plan = ShardPlan(hierarchy, 4)
        grid = hierarchy.grid
        monitor = ShardMonitor(plan, grid.cube_index)
        points = [box.lo for _index, box in grid.cubes()]
        for a in points[::7]:
            for b in points[::11]:
                monitor(a, b, None)
        forward = monitor.cross_shard
        monitor.cross_shard = monitor.intra_shard = 0
        for a in points[::7]:
            for b in points[::11]:
                monitor(b, a, None)
        assert monitor.cross_shard == forward > 0


def worker_result(shard, cube, energies, **counters):
    """A minimal ``_shard_worker`` result dict for merge tests."""
    identities = [(cube[0] * 3 + k, cube[1] * 3) for k in range(len(energies))]
    result = {
        "shard": shard,
        "elapsed": 0.1 * (shard + 1),
        "segments": [(cube, identities, list(energies), [1.0] * len(energies))],
        "jobs_total": len(energies),
        "served": len(energies),
        "max_energy": max(energies) + 1.0,
        "replacements": 0,
        "searches": 0,
        "failed_replacements": 0,
        "messages": 0,
        "heartbeat_rounds": 0,
        "messages_dropped": 0,
        "messages_corrupted": 0,
        "events": len(energies),
        "sim_time": float(len(energies)),
        "vehicles": len(energies),
        "replicated_events": 0,
    }
    result.update(counters)
    return result


class TestMergeShardResults:
    def test_one_drain_per_worker_result(self):
        results = [worker_result(s, (s, 0), [0.5]) for s in range(3)]
        assert merge_shard_results(results)["window_barriers"] == 3
        assert merge_shard_results(results[:1])["window_barriers"] == 1

    def test_counters_sum_and_replicated_rounds_take_the_max(self):
        merged = merge_shard_results(
            [
                worker_result(0, (0, 0), [1.0, 2.0], messages=5, heartbeat_rounds=7),
                worker_result(1, (1, 0), [3.0], messages=4, heartbeat_rounds=9),
            ]
        )
        assert merged["messages"] == 9
        assert merged["heartbeat_rounds"] == 9  # every shard runs every round
        assert merged["jobs_total"] == merged["served"] == 3
        assert merged["max_energy"] == 4.0
        assert merged["sim_time"] == 2.0
        assert merged["timings"] == {0: 0.1, 1: 0.2}

    def test_segments_merge_in_global_cube_order(self):
        early = worker_result(1, (0, 1), [0.1, 0.2])
        late = worker_result(0, (2, 0), [1e16])
        merged = merge_shard_results([late, early])
        # Lex cube order (0, 1) < (2, 0), whatever order the workers report.
        assert list(merged["vehicle_energies"]) == [(0, 3), (1, 3), (6, 0)]
        assert merged["total_travel"] == (0.1 + 0.2) + 1e16
        assert merged == merge_shard_results([early, late])
