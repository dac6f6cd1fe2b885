"""Tests of the benchmark itself, at reduced workload sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from bench_ledger import Ledger, install_boundary, install_traced  # noqa: E402
from bench_reference import NOMINAL_PASS_S, SpeedReference, reference_loop, speed_scale  # noqa: E402
from bench_workloads import (  # noqa: E402
    WORKLOADS,
    BatchWorkload,
    GossipWorkload,
    SHARDS,
    RingLossWorkload,
    ServeCheckpointWorkload,
    Size,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _execute(workload, install=install_boundary, *, shards=None, tmp_path):
    inputs = workload.generate(7)
    shards = SHARDS if shards is None else shards
    with install(Ledger()) as ledger:
        execution = workload.execute(inputs, ledger, shards=shards, scratch=tmp_path)
    execution.problems.extend(workload.check(execution, shards=shards))
    return execution, ledger


# ---------------------------------------------------------------------- #
# the benchmark definition
# ---------------------------------------------------------------------- #


def test_benchmark_json_keys_and_names():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    seen = set(names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
        assert metric["name"] not in seen
        seen.add(metric["name"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_per_layer_metric_is_mapped_to_one_layer():
    mapped = [name for entry in LAYERS["layers"] for name in entry["metrics"]]
    assert len(mapped) == len(set(mapped))
    assert set(mapped) == {metric["name"] for metric in SPEC["per_layer"]}


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "ring-loss", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ---------------------------------------------------------------------- #
# correctness of the workloads
# ---------------------------------------------------------------------- #


def test_sharded_batch_matches_single_shard(tmp_path):
    workload = BatchWorkload(Size(side=24))
    sharded, _ = _execute(workload, tmp_path=tmp_path)
    single, _ = _execute(workload, shards=1, tmp_path=tmp_path)
    assert sharded.result.shard_mode == "parallel"
    assert not sharded.problems and not single.problems
    assert sharded.digest == single.digest


def test_sharded_ring_loss_matches_single_shard(tmp_path):
    workload = RingLossWorkload(Size(side=16, jobs=24))
    sharded, _ = _execute(workload, tmp_path=tmp_path)
    single, _ = _execute(workload, shards=1, tmp_path=tmp_path)
    assert sharded.result.shard_mode == "parallel-lockstep"
    assert sharded.result.messages > 0
    assert not sharded.problems and not single.problems
    assert sharded.digest == single.digest


def test_service_runs_repeat_byte_identically(tmp_path):
    workload = ServeCheckpointWorkload(Size(side=20, jobs=3000))
    first, _ = _execute(workload, tmp_path=tmp_path)
    second, _ = _execute(workload, tmp_path=tmp_path)
    assert not first.problems
    assert first.digest == second.digest
    assert len(first.windows_ms) == 3 and first.setup_s > 0


def test_a_different_seed_gives_a_different_outcome(tmp_path):
    workload = RingLossWorkload(Size(side=16, jobs=24))
    first = workload.execute(workload.generate(1), Ledger(), shards=1, scratch=tmp_path)
    second = workload.execute(workload.generate(2), Ledger(), shards=1, scratch=tmp_path)
    assert first.digest != second.digest


def test_every_repeat_starts_cold():
    import repro.core.online as online

    workload = BatchWorkload(Size(side=8))
    first = workload.generate(3)["jobs"]
    online.run_online(first)
    assert id(first) in online._OMEGA_MEMO
    second = workload.generate(3)["jobs"]
    assert second is not first
    assert id(second) not in online._OMEGA_MEMO


# ---------------------------------------------------------------------- #
# the ledger
# ---------------------------------------------------------------------- #


def test_wrappers_are_removed_on_exit():
    import repro.core.online as online
    from repro.distsim.network import Network

    before = (online.run_parallel, online.ShardPlan, Network.__dict__["send"], Network.__dict__["send_many"])
    with install_traced(Ledger()):
        assert online.run_parallel is not before[0]
    after = (online.run_parallel, online.ShardPlan, Network.__dict__["send"], Network.__dict__["send_many"])
    assert after == before


def test_traced_counts_match_the_program_counters(tmp_path):
    workload = RingLossWorkload(Size(side=16, jobs=24))
    execution, ledger = _execute(workload, install_traced, shards=1, tmp_path=tmp_path)
    result = execution.result
    assert ledger.counts["network.sends"] == result.messages
    # Sends to a crashed vehicle are dropped before the transport draws.
    assert 0 < ledger.calls["transport.draw"] <= result.messages
    assert ledger.seconds("transport.draw") > 0
    assert ledger.counts["fleet.vehicles"] > 0


def test_ring_loss_transport_draws_are_the_largest_layer(tmp_path):
    workload = RingLossWorkload(Size(side=16, jobs=24))
    _, ledger = _execute(workload, install_traced, shards=1, tmp_path=tmp_path)
    layers = ledger.layers()
    assert max(layers, key=layers.get) == workload.busiest_layer == "transport.draw"


def test_gossip_traced_run_sees_the_detector(tmp_path):
    workload = GossipWorkload(Size(side=12, jobs=10))
    execution, ledger = _execute(workload, install_traced, tmp_path=tmp_path)
    assert ledger.calls["gossip.select_peers"] > 0
    assert ledger.counts["network.msgs.GossipDigest"] > 0
    assert execution.digest == _execute(workload, tmp_path=tmp_path)[0].digest


def test_speed_reference_times_fixed_passes():
    reference = SpeedReference()
    block = reference.sample(0.0)
    assert len(block) == 1 and block[0] > 0
    assert reference.passes == block
    assert speed_scale(block) == NOMINAL_PASS_S / block[0]
    assert reference_loop(reference.nodes) == reference_loop(reference.nodes)


def test_boundary_wrappers_cost_nothing_measurable(tmp_path):
    """A timed run makes a handful of wrapped calls; their cost is below 1e-4 of it."""
    execution, ledger = _execute(BatchWorkload(Size(side=48)), tmp_path=tmp_path)
    calls = sum(ledger.calls.values())
    assert 0 < calls < 20

    def noop():
        return None

    wrapped = Ledger().timed("noop", noop)
    rounds = 20_000
    start = perf_counter_ns()
    for _ in range(rounds):
        wrapped()
    per_call_ns = (perf_counter_ns() - start) / rounds
    assert calls * per_call_ns / 1e9 < 1e-4 * execution.run_s


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_full_size_workloads_generate_their_stated_sizes(name):
    workload = WORKLOADS[name]()
    inputs = workload.generate(0)
    jobs = inputs["jobs"]
    assert len(jobs) == workload.expected_jobs()
