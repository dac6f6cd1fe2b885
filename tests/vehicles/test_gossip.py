"""Gossip failure detection with quorum-attested replacement.

The epidemic detector (``FleetConfig(monitoring="gossip")``) replaces the
Section 3.2.5 heartbeat ring's single-watcher initiation with a three-step
accountable pipeline: digests piggyback recently-heard ``(pair, round)``
entries to ``gossip_fanout`` deterministically-seeded peers; a watcher
opens a suspicion only after ``suspicion_threshold`` independent silent
reports; replacement starts only after ``quorum`` co-signatures.  The
quorum masks up to ``quorum - 1`` Byzantine watchers: liars can flood
suspicions, but honest peers refuse to co-sign for pairs they still hear.
"""

from __future__ import annotations

import random

import pytest

from repro.api import ConfigError, ExperimentEngine, FailureSpec, RunConfig, ScenarioSpec
from repro.core.demand import DemandMap, JobSequence
from repro.core.online import _run_events, provision_fleet, run_online
from repro.distsim.failures import FailurePlan
from repro.distsim.transport import TransportSpec, build_transport
from repro.vehicles.fleet import FleetConfig
from repro.vehicles.gossip import GOSSIP_ENTRY_CAP, _draw, freshest_entries, select_peers
from repro.vehicles.messages import GossipDigest

#: One 4-cube under omega=4: eight pairs, so every cube has enough honest
#: watchers for any reasonable suspicion threshold and quorum.
DEMAND = DemandMap({(x, y): 2.0 for x in range(4) for y in range(4)})
JOBS = JobSequence.from_positions(sorted(DEMAND.support()) * 2)
LOSSY = TransportSpec("lossy", {"loss": 0.1, "seed": 3})


def _gossip_fleet(dead=((0, 0),), *, transport=None, **knobs):
    plan = FailurePlan()
    config = FleetConfig(monitoring="gossip", **knobs)
    fleet, fleet_config, _, _ = provision_fleet(
        DEMAND,
        omega=4.0,
        capacity=64.0,
        config=config,
        dead_vehicles=list(dead),
        failure_plan=plan,
        transport=build_transport(transport) if transport is not None else None,
    )
    return fleet, fleet_config


def _run(fleet, fleet_config, recovery_rounds=12):
    return _run_events(fleet, fleet_config, JOBS, recovery_rounds, (), fleet.failure_plan)


def _pair_holders(fleet):
    pairs = sorted(
        {v.pair_key for v in fleet.vehicles.values() if v.pair_key is not None}
    )
    return {p: fleet.registry.get(p) for p in pairs}


def _live_watchers(fleet, *, excluding=()):
    return sorted(
        v.identity
        for v in fleet.vehicles.values()
        if v.monitored_pair is not None
        and not v.broken
        and v.monitored_pair not in excluding
    )


class TestPeerSelection:
    CANDIDATES = [(x, y) for x in range(5) for y in range(5)]

    def test_deterministic(self):
        a = select_peers((1, 2), 7, self.CANDIDATES, 3)
        b = select_peers((1, 2), 7, self.CANDIDATES, 3)
        assert a == b

    def test_never_selects_self_and_never_repeats(self):
        for counter in range(40):
            peers = select_peers((2, 2), counter, self.CANDIDATES, 4)
            assert (2, 2) not in peers
            assert len(peers) == len(set(peers)) == 4

    def test_counter_varies_the_selection(self):
        draws = {
            tuple(select_peers((0, 0), c, self.CANDIDATES, 2)) for c in range(20)
        }
        assert len(draws) > 1

    def test_fanout_larger_than_pool_takes_everyone_else(self):
        pool = [(0, 0), (0, 1), (1, 0)]
        peers = select_peers((0, 0), 0, pool, 10)
        assert sorted(peers) == [(0, 1), (1, 0)]

    def test_identity_varies_the_selection(self):
        draws = {
            tuple(select_peers(identity, 0, self.CANDIDATES, 2))
            for identity in self.CANDIDATES[:10]
        }
        assert len(draws) > 1


def _reference_select_peers(identity, counter, candidates, fanout):
    """Pop-from-a-copied-pool sampling: the definition of the picks."""
    pool = [peer for peer in candidates if peer != identity]
    chosen = []
    for slot in range(min(fanout, len(pool))):
        index = _draw(identity, counter, slot, len(pool))
        chosen.append(pool.pop(index))
    return chosen


def _reference_freshest_entries(last_heard, cap=GOSSIP_ENTRY_CAP):
    """Full sort, then cut: the definition of a digest's entries."""
    ranked = sorted(last_heard.items(), key=lambda item: (-item[1], item[0]))
    return tuple(ranked[:cap])


class TestPeerSelectionOracle:
    """The order-statistic sampler picks exactly what the pop-based one does."""

    CASES = 20_000

    def test_random_cases_match_the_pop_based_reference(self):
        rng = random.Random(20260)
        grid = [(x, y) for x in range(8) for y in range(8)]
        for _ in range(self.CASES):
            candidates = sorted(rng.sample(grid, rng.randint(0, len(grid))))
            if candidates and rng.random() < 0.75:
                identity = rng.choice(candidates)
            else:
                identity = (rng.randint(-2, 9), rng.randint(-2, 9))
            fanout = rng.randint(0, len(candidates) + 3)
            counter = rng.randrange(1 << 20)
            assert select_peers(identity, counter, candidates, fanout) == (
                _reference_select_peers(identity, counter, candidates, fanout)
            ), (identity, counter, candidates, fanout)

    def test_sender_absent_from_the_candidates(self):
        candidates = [(x, 0) for x in range(10)]
        for sender in ((-1, 0), (4, 1), (99, 99)):
            for counter in range(50):
                picks = select_peers(sender, counter, candidates, 4)
                assert picks == _reference_select_peers(sender, counter, candidates, 4)
                assert len(set(picks)) == 4

    def test_fanout_zero_picks_nobody(self):
        candidates = [(x, 0) for x in range(10)]
        assert select_peers((3, 0), 5, candidates, 0) == []
        assert select_peers((3, 0), 5, [], 3) == []
        assert select_peers((3, 0), 5, [(3, 0)], 3) == []

    def test_fanout_at_or_above_the_pool_takes_everyone_else_in_draw_order(self):
        candidates = [(x, y) for x in range(4) for y in range(3)]
        for sender in ((1, 1), (7, 7)):
            pool = [peer for peer in candidates if peer != sender]
            for fanout in (len(pool), len(pool) + 1, 50):
                for counter in range(20):
                    picks = select_peers(sender, counter, candidates, fanout)
                    assert picks == _reference_select_peers(
                        sender, counter, candidates, fanout
                    )
                    assert sorted(picks) == pool


class TestFreshestEntriesOracle:
    """The threshold-then-sort digest equals the full sort on every input."""

    CASES = 20_000

    def test_random_cases_match_the_full_sort(self):
        rng = random.Random(7)
        grid = [(x, y) for x in range(10) for y in range(10)]
        for case in range(self.CASES):
            size = rng.randint(0, 40)
            # Alternate narrow round ranges (heavy ties) with wide ones.
            top = 2 if case % 2 else 1000
            last_heard = {
                key: rng.randint(0, top) for key in rng.sample(grid, size)
            }
            cap = GOSSIP_ENTRY_CAP if case % 3 else rng.randint(0, 12)
            assert freshest_entries(last_heard, cap) == (
                _reference_freshest_entries(last_heard, cap)
            ), (last_heard, cap)

    def test_empty_last_heard(self):
        assert freshest_entries({}) == ()

    def test_at_most_cap_entries_are_all_kept_in_order(self):
        heard = {(3, 0): 1, (0, 0): 4, (1, 2): 4, (2, 2): 0}
        assert freshest_entries(heard) == (
            ((0, 0), 4), ((1, 2), 4), ((3, 0), 1), ((2, 2), 0)
        )
        full = {(i, 0): i % 3 for i in range(GOSSIP_ENTRY_CAP)}
        assert freshest_entries(full) == _reference_freshest_entries(full)

    def test_every_round_tied_keeps_the_smallest_pair_keys(self):
        heard = {(i, j): 9 for i in range(6) for j in range(6)}
        entries = freshest_entries(heard)
        assert entries == tuple(((0, j), 9) for j in range(6)) + (((1, 0), 9), ((1, 1), 9))

    def test_ties_straddling_the_cut(self):
        heard = {(i, 0): 5 for i in range(20)}
        heard.update({(i, 1): 6 for i in range(3)})
        entries = freshest_entries(heard)
        assert entries == _reference_freshest_entries(heard)
        assert [round_id for _, round_id in entries] == [6, 6, 6, 5, 5, 5, 5, 5]


class TestDigestSilentOrder:
    def test_silent_reports_are_ordered_by_pair_then_reporter(self):
        fleet, _ = _gossip_fleet(dead=())
        vehicle = fleet.vehicles[(1, 1)]
        # Insertion order deliberately scrambled at both levels.
        vehicle.gossip_reports = {
            (2, 3): {(3, 3): 4, (0, 1): 7},
            (0, 1): {(2, 2): 2, (1, 0): 9, (0, 3): 5},
            (1, 2): {(3, 0): 1},
        }
        sent = []
        vehicle.send_many = lambda peers, message: sent.append(message)
        vehicle._gossip_send_digest(round_id=11)
        (digest,) = sent
        assert isinstance(digest, GossipDigest)
        assert digest.silent == (
            ((0, 1), (0, 3), 5),
            ((0, 1), (1, 0), 9),
            ((0, 1), (2, 2), 2),
            ((1, 2), (3, 0), 1),
            ((2, 3), (0, 1), 7),
            ((2, 3), (3, 3), 4),
        )


class TestFreshestEntries:
    def test_orders_by_round_then_pair_and_caps(self):
        heard = {(i, 0): i for i in range(GOSSIP_ENTRY_CAP + 4)}
        entries = freshest_entries(heard)
        assert len(entries) == GOSSIP_ENTRY_CAP
        rounds = [round_id for _, round_id in entries]
        assert rounds == sorted(rounds, reverse=True)

    def test_ties_break_on_pair_key(self):
        heard = {(1, 0): 5, (0, 1): 5, (0, 0): 5}
        entries = freshest_entries(heard)
        assert entries == (((0, 0), 5), ((0, 1), 5), ((1, 0), 5))


class TestFleetConfigValidation:
    def test_rejects_unknown_monitoring_mode(self):
        with pytest.raises(ValueError, match="monitoring"):
            FleetConfig(monitoring="broadcast")

    def test_rejects_quorum_above_suspicion_threshold(self):
        with pytest.raises(ValueError, match="quorum"):
            FleetConfig(monitoring="gossip", suspicion_threshold=2, quorum=3)

    def test_rejects_gossip_with_escalation(self):
        with pytest.raises(ValueError, match="escalation"):
            FleetConfig(monitoring="gossip", escalation=True)

    def test_rejects_non_positive_knobs(self):
        for knob in ("gossip_fanout", "suspicion_threshold", "quorum"):
            with pytest.raises(ValueError, match=knob):
                FleetConfig(monitoring="gossip", **{knob: 0})

    def test_ring_spelling_keeps_truthiness(self):
        assert bool(FleetConfig(monitoring="ring").monitoring)
        assert bool(FleetConfig(monitoring="gossip").monitoring)
        assert not bool(FleetConfig().monitoring)


class TestCrashDetection:
    def test_crashed_pair_is_replaced(self):
        fleet, fleet_config = _gossip_fleet()
        served = _run(fleet, fleet_config)
        assert served == len(JOBS)
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))
        assert fleet.stats.suspicions >= 1
        assert fleet.stats.attestations >= fleet.config.quorum

    def test_detection_latency_is_recorded(self):
        fleet, fleet_config = _gossip_fleet()
        _run(fleet, fleet_config)
        assert fleet.detection_digest.count == 1
        assert fleet.detection_digest.quantile(0.5) >= 1.0

    def test_no_failures_means_no_suspicions(self):
        fleet, fleet_config = _gossip_fleet(dead=())
        served = _run(fleet, fleet_config, recovery_rounds=0)
        assert served == len(JOBS)
        assert fleet.stats.suspicions == 0
        assert fleet.stats.false_suspicions == 0
        assert fleet.detection_digest.count == 0

    def test_lossy_channel_still_replaces_and_serves(self):
        fleet, fleet_config = _gossip_fleet(transport=LOSSY)
        served = _run(fleet, fleet_config)
        assert served == len(JOBS)
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))


class TestQuorumMasking:
    """``quorum - 1`` Byzantine watchers cannot trigger a spurious takeover."""

    def _masked_run(self, *, transport=None, quorum=2, suspicion_threshold=2):
        fleet, fleet_config = _gossip_fleet(
            transport=transport,
            quorum=quorum,
            suspicion_threshold=suspicion_threshold,
        )
        liars = _live_watchers(fleet, excluding=((0, 0),))[: quorum - 1]
        assert len(liars) == quorum - 1
        for liar in liars:
            fleet.failure_plan.mark_byzantine_watcher(liar)
        healthy_before = {
            pair: holder
            for pair, holder in _pair_holders(fleet).items()
            if pair != (0, 0)
        }
        served = _run(fleet, fleet_config)
        healthy_after = {pair: fleet.registry.get(pair) for pair in healthy_before}
        return fleet, served, healthy_before, healthy_after

    def test_zero_spurious_takeovers_on_reliable_channel(self):
        fleet, served, before, after = self._masked_run()
        assert after == before  # nobody stole a living vehicle's pair
        assert served == len(JOBS)
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))  # real crash handled
        assert fleet.stats.false_suspicions > 0  # the liar really did lie
        assert fleet.stats.refused_attestations > 0  # honest peers refused to co-sign

    def test_zero_spurious_takeovers_under_loss(self):
        fleet, served, before, after = self._masked_run(transport=LOSSY)
        assert after == before
        assert served == len(JOBS)
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))

    def test_zero_spurious_takeovers_under_corruption(self):
        fleet, served, before, after = self._masked_run(
            transport=TransportSpec("corrupting", {"rate": 0.1, "seed": 3})
        )
        assert after == before
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))

    def test_wider_quorum_masks_two_liars(self):
        fleet, served, before, after = self._masked_run(
            quorum=3, suspicion_threshold=3
        )
        assert after == before
        assert served == len(JOBS)
        assert fleet.registry.get((0, 0)) not in (None, (0, 0))


class TestRingDetectionLatency:
    def test_ring_records_detections_too(self):
        result = run_online(
            JOBS,
            omega=4.0,
            capacity=64.0,
            config=FleetConfig(monitoring=True),
            dead_vehicles=[(0, 0)],
            recovery_rounds=8,
        )
        assert result.monitoring_mode == "ring"
        assert result.detections == 1
        assert result.detection_p50 >= 1.0

    def test_gossip_result_carries_the_accountability_counters(self):
        result = run_online(
            JOBS,
            omega=4.0,
            capacity=64.0,
            config=FleetConfig(monitoring="gossip"),
            dead_vehicles=[(0, 0)],
            recovery_rounds=12,
        )
        assert result.monitoring_mode == "gossip"
        assert result.feasible
        assert result.detections == 1
        assert result.suspicions >= 1
        assert result.attestations >= 2


class TestSolverValidation:
    def _config(self, solver="online-broken", **params):
        return RunConfig(
            solver=solver,
            scenario=ScenarioSpec.from_demand(DEMAND, name="gossip-grid"),
            capacity=64.0,
            omega=4.0,
            failures=FailureSpec(crashed=((0, 0),)) if solver == "online-broken" else None,
            recovery_rounds=12 if solver == "online-broken" else 0,
            params=params,
        )

    def test_unknown_monitoring_param_is_a_config_error(self):
        with pytest.raises(ConfigError, match="monitoring"):
            ExperimentEngine().run(self._config(monitoring="broadcast"))

    def test_quorum_above_suspicion_threshold_is_a_config_error(self):
        with pytest.raises(ConfigError, match="quorum"):
            ExperimentEngine().run(
                self._config(monitoring="gossip", suspicion_threshold=2, quorum=3)
            )

    def test_gossip_param_runs_and_fills_extras(self):
        result = ExperimentEngine().run(self._config(monitoring="gossip"))
        assert result.feasible
        assert result.extra("monitoring_mode") == "gossip"
        assert int(result.extra("detections", 0)) == 1
        assert float(result.extra("detection_p50", 0.0)) >= 1.0

    def test_byzantine_watcher_count_lands_in_extras(self):
        config = RunConfig(
            solver="online-broken",
            scenario=ScenarioSpec.from_demand(DEMAND, name="gossip-grid"),
            capacity=64.0,
            omega=4.0,
            failures=FailureSpec(
                crashed=((0, 0),), byzantine_watchers=((1, 1),)
            ),
            recovery_rounds=12,
            params={"monitoring": "gossip"},
        )
        result = ExperimentEngine().run(config)
        assert result.feasible
        assert int(result.extra("byzantine_watchers", 0)) == 1


class TestCliValidation:
    """PR 3 convention: flag misuse is a clean exit 2, never a traceback."""

    @pytest.fixture
    def demand_path(self, tmp_path):
        from repro.io.serialize import demand_to_json, save_json

        path = tmp_path / "demand.json"
        save_json(demand_to_json(DEMAND), path)
        return str(path)

    def _main(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_monitoring_rejected_on_non_transport_solver(self, demand_path, capsys):
        code = self._main(
            "run", "--demand-json", demand_path, "--solver", "greedy",
            "--monitoring", "gossip",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_gossip_knobs_rejected_on_non_transport_solver(self, demand_path, capsys):
        code = self._main(
            "run", "--demand-json", demand_path, "--solver", "offline",
            "--quorum", "2",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_gossip_knobs_need_gossip_monitoring(self, demand_path, capsys):
        code = self._main(
            "run", "--demand-json", demand_path, "--solver", "online",
            "--gossip-fanout", "3",
        )
        assert code == 2
        assert "--monitoring gossip" in capsys.readouterr().err

    def test_quorum_above_suspicion_threshold_is_exit_2(self, demand_path, capsys):
        code = self._main(
            "run", "--demand-json", demand_path, "--solver", "online-broken",
            "--crash", "0,0", "--recovery-rounds", "12", "--omega", "4",
            "--capacity", "64", "--monitoring", "gossip",
            "--suspicion-threshold", "2", "--quorum", "3",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "quorum" in err

    def test_gossip_run_succeeds_on_transport_solver(self, demand_path, capsys):
        code = self._main(
            "run", "--demand-json", demand_path, "--solver", "online-broken",
            "--crash", "0,0", "--recovery-rounds", "12", "--omega", "4",
            "--capacity", "64", "--monitoring", "gossip",
            "--byzantine-watcher", "1,1",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "monitoring_mode" in out
        assert "byzantine_watchers" in out

    def test_serve_gossip_knobs_need_gossip_monitoring(self, demand_path, capsys):
        code = self._main(
            "serve", "--demand-json", demand_path, "--jobs", "8",
            "--monitoring", "ring", "--quorum", "2",
        )
        assert code == 2
        assert "--monitoring gossip" in capsys.readouterr().err

    def test_serve_runs_with_gossip_monitoring(self, demand_path, capsys):
        code = self._main(
            "serve", "--demand-json", demand_path, "--jobs", "32",
            "--omega", "4", "--capacity", "64", "--crash", "0,0",
            "--recovery-rounds", "12", "--monitoring", "gossip",
            "--gossip-fanout", "3",
        )
        assert code == 0
        assert "Service run" in capsys.readouterr().out
