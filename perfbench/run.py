#!/usr/bin/env python3
"""Repository benchmark: four workloads, end-to-end metrics, a per-layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-1e5 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload ring-loss --seed 0 --trace 1
    python3 perfbench/run.py --pin 0 1 2          # refresh perfbench/digests.json

``--trace 0`` repeats the workload, each time from freshly generated inputs,
until ``--seconds`` are used up, and reports each end-to-end metric of
``BENCHMARK.json`` as its median over the repeats (window quantiles are
taken per repeat first).  Every time is scaled by its repeat's speed
scale from :mod:`bench_reference`, timed between the repeats.  Only the
boundary wrappers of :func:`bench_ledger.install_boundary` are installed.

``--trace 1`` alternates untraced executions with executions under every
per-message wrapper, and reports the per-layer ledger of the first traced
one (self seconds per layer, the ``other`` remainder) and the tracing
overhead (median traced over median untraced run time).  Sharded workloads
also run once with ``shards=1``: shard workers are forked, and what the
wrappers record inside a worker is lost, so the in-process layers (fleet,
engine, network, transport, protocol, gossip) come from that pass, which
executes the identical event sequence.  Chrome trace-event files and the
full ledger land in ``perfbench/out/``.

Every execution is checked: all repeats must give the same digest of the
physical outcome, the digest must equal the one pinned in
``perfbench/digests.json`` for that workload and seed (when pinned), and
the workload's invariants must hold.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count
executions.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
LAYERS = HERE / "layers.json"

#: Executions a timed run makes at least, whatever ``--seconds`` says.
MIN_REPEATS = 2

#: Seconds of reference passes a timed run makes before its first execution
#: and at least after each one; after a long execution it makes
#: ``REFERENCE_SHARE`` of the execution's time, since a core's speed flips
#: every few seconds and a short block of passes catches one speed only.
REFERENCE_S = 0.4
REFERENCE_SHARE = 0.15

#: Untraced/traced execution pairs a traced run alternates through; the
#: tracing overhead is the ratio of their median run times.
TRACE_PAIRS = 3


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; exit 2 when it is missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        print(f"error: cannot import the program from {src}: {error}", file=sys.stderr)
        sys.exit(2)
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        print(f"error: repro resolved to {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _pinned(workload: str, seed: int):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _cold_execution(workload, seed: int, install, *, shards=None):
    """Generate fresh inputs, then execute once under ``install``'s wrappers."""
    from bench_ledger import Ledger
    from bench_workloads import SHARDS

    gc.collect()
    start = perf_counter()
    inputs = workload.generate(seed)
    generate_s = perf_counter() - start
    gc.collect()
    OUT.mkdir(parents=True, exist_ok=True)
    shards = SHARDS if shards is None else shards
    with install(Ledger()) as ledger:
        start_ns = perf_counter_ns()
        execution = workload.execute(inputs, ledger, shards=shards, scratch=OUT)
    ledger.root = ("run", start_ns, start_ns + int(execution.run_s * 1e9))
    execution.problems.extend(workload.check(execution, shards=shards))
    return execution, ledger, generate_s


def _digest_problems(executions, pinned) -> list:
    problems = []
    digests = {execution.digest for execution in executions}
    if len(digests) > 1:
        problems.append(f"executions disagree: {len(digests)} distinct digests")
    if pinned is not None and digests != {pinned}:
        problems.append("digest differs from the pinned digest")
    return problems


def _emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


# ---------------------------------------------------------------------- #
# timed run (--trace 0)
# ---------------------------------------------------------------------- #


def timed_run(workload, seed: int, seconds: float) -> tuple:
    from bench_ledger import install_boundary
    from bench_reference import SpeedReference, speed_scale

    executions, scales = [], []
    reference = SpeedReference()
    start = perf_counter()
    before = reference.sample(REFERENCE_S)
    while True:
        repeat_start = perf_counter()
        execution, _, _ = _cold_execution(workload, seed, install_boundary)
        if not executions:
            detections = _detections(execution.result)
        # A result kept alive would enlarge the heap that the garbage
        # collector walks in every later execution; only the numbers stay.
        execution.result = None
        executions.append(execution)
        if len(executions) == MIN_REPEATS:
            # Later executions grow the high-water mark through allocator
            # fragmentation alone; a fixed count keeps runs comparable.
            peak_rss_mb = _peak_rss_mb()
        repeat_s = perf_counter() - repeat_start
        after = reference.sample(max(REFERENCE_S, REFERENCE_SHARE * repeat_s))
        # The passes on either side of an execution give its speed scale.
        scales.append(speed_scale(before + after))
        before = after
        elapsed = perf_counter() - start
        if len(executions) >= MIN_REPEATS and elapsed + repeat_s / 2 >= seconds:
            break

    shared = _digest_problems(executions, _pinned(workload.name, seed))
    failed = sum(1 for execution in executions if execution.problems or shared)
    windows = sum(len(execution.windows_ms) for execution in executions)
    served = sum(execution.served for execution in executions)
    attempted = sum(execution.attempted for execution in executions)
    timings = {
        "run_s": lambda e: e.run_s,
        "setup_s": lambda e: e.setup_s,
        "critical_path_s": lambda e: e.critical_path_s,
        "window_p50_ms": lambda e: _percentile(e.windows_ms, 50),
        "window_p90_ms": lambda e: _percentile(e.windows_ms, 90),
    }
    host = {name: statistics.median(map(of, executions)) for name, of in timings.items()}
    values = {
        name: statistics.median(of(e) * scale for e, scale in zip(executions, scales))
        for name, of in timings.items()
    }
    values["events_per_s"] = statistics.median(
        e.events / (e.run_s * scale) for e, scale in zip(executions, scales)
    )
    values["peak_rss_mb"] = peak_rss_mb
    values["served_ratio"] = served / attempted
    (OUT / f"{workload.name}-seed{seed}-timed.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "executions": [
                    {
                        "run_s": e.run_s,
                        "setup_s": e.setup_s,
                        "critical_path_s": e.critical_path_s,
                        "events": e.events,
                        "windows_ms": e.windows_ms,
                        "speed_scale": scale,
                    }
                    for e, scale in zip(executions, scales)
                ],
                "reference_passes_s": reference.passes,
                "host_metrics": host,
                "metrics": values,
            },
            indent=1,
        )
    )
    print(f"{workload.name} seed {seed}: {len(executions)} cold executions, {windows} windows")
    print("  run_s per execution:   " + " ".join(f"{e.run_s:.4f}" for e in executions))
    print("  setup_s per execution: " + " ".join(f"{e.setup_s:.4f}" for e in executions))
    print("  speed scale per execution: " + " ".join(f"{scale:.4f}" for scale in scales))
    print("  host medians: " + ", ".join(f"{name} {value:.6g}" for name, value in host.items()))
    for execution in executions:
        for problem in execution.problems:
            print(f"  CHECK FAILED: {problem}")
    for problem in shared:
        print(f"  CHECK FAILED: {problem}")
    _print_end_to_end(values, detections)
    return not failed, len(executions), failed, values


def _detections(result):
    """``(p50, p99)`` detection rounds, or ``None`` when the result reports none."""
    if not getattr(result, "detections", 0):
        return None
    return result.detection_p50, result.detection_p99


def _print_end_to_end(values: dict, detections) -> None:
    """Every end-to-end metric the benchmark defines, by name, with its unit."""
    rows = [
        ("run_s", values["run_s"], "s"),
        ("setup_s", values["setup_s"], "s"),
        ("events_per_s", values["events_per_s"], "1/s"),
        ("critical_path_s", values["critical_path_s"], "s"),
        ("window_p50_ms", values["window_p50_ms"], "ms"),
        ("window_p90_ms", values["window_p90_ms"], "ms"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB"),
        ("served_ratio", values["served_ratio"], "ratio"),
        ("unserved_ratio", 1.0 - values["served_ratio"], "ratio"),
        ("detect_p50_rounds", detections[0] if detections else None, "rounds"),
        ("detect_p99_rounds", detections[1] if detections else None, "rounds"),
    ]
    for name, value, unit in rows:
        shown = "n/a (the result reports no detections)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<20} {shown}")


# ---------------------------------------------------------------------- #
# traced run (--trace 1)
# ---------------------------------------------------------------------- #


_COARSE = (
    ("demand.map_s", "demand.map"),
    ("omega.cube_maxima_s", "omega.cube_maxima"),
    ("omega.c_s", "omega.c"),
    ("omega.star_s", "omega.star"),
    ("sharding.plan_s", "sharding.plan"),
    ("sharding.pool_s", "sharding.pool"),
    ("sharding.merge_s", "sharding.merge"),
    ("plockstep.pool_s", "plockstep.pool"),
    ("plockstep.merge_s", "plockstep.merge"),
    ("checkpoint.capture_s", "checkpoint.capture"),
    ("checkpoint.save_s", "checkpoint.save"),
)

#: Layers whose time counts toward the coordinator's pre-pool set-up.
_SETUP_LAYERS = ("demand.map", "omega.cube_maxima", "omega.c", "omega.star", "sharding.plan")

MESSAGE_CLASSES = (
    "QueryMessage",
    "ReplyMessage",
    "MoveMessage",
    "ExistingMessage",
    "ActivationNotice",
    "EscalateQuery",
    "EscalateReply",
    "GossipDigest",
    "SuspectMessage",
    "AttestMessage",
)


def _ledger_table(ledger, run_s: float, derived: dict) -> dict:
    """Self seconds per layer, derived splits, and the ``other`` remainder."""
    table = dict(ledger.layers())
    table.update(derived)
    table["other"] = run_s - sum(table.values())
    return table


def traced_run(workload, seed: int) -> tuple:
    from bench_ledger import install_boundary, install_traced

    passes, plains, traced_s = [], [], []
    for index in range(TRACE_PAIRS):
        plain, _, _ = _cold_execution(workload, seed, install_boundary)
        execution, ledger, generated = _cold_execution(workload, seed, install_traced)
        passes += [plain, execution]
        plains.append(plain)
        traced_s.append(execution.run_s)
        if index == 0:
            traced, coarse, generate_s = execution, ledger, generated
    single = None
    detail, detail_ledger = traced, coarse
    if workload.sharded:
        single, single_ledger, _ = _cold_execution(workload, seed, install_traced, shards=1)
        passes.append(single)
        detail, detail_ledger = single, single_ledger

    counted = detail_ledger.counts["network.sends"]
    if counted != detail.result.messages:
        detail.problems.append(f"traced sends {counted} != result.messages {detail.result.messages}")
    shared = _digest_problems(passes, _pinned(workload.name, seed))
    problems = shared + [problem for execution in passes for problem in execution.problems]
    failed = len(passes) if shared else sum(1 for execution in passes if execution.problems)

    m = {"workloads.generate_s": generate_s}
    for name, layer in _COARSE:
        m[name] = coarse.seconds(layer)
    result = traced.result
    mode = getattr(result, "shard_mode", "")
    prefix = {"parallel": "sharding", "parallel-lockstep": "plockstep"}.get(mode)
    coordinator_other = 0.0
    if prefix is not None:
        coordinator_other = traced.setup_s - sum(coarse.seconds(layer) for layer in _SETUP_LAYERS)
    m["sharding.coordinator_other_s"] = coordinator_other
    for name in ("sharding", "plockstep"):
        timings = list(result.shard_timings.values()) if prefix == name else []
        m[f"{name}.worker_max_s"] = max(timings, default=0.0)
        m[f"{name}.worker_sum_s"] = sum(timings, 0.0)
        if name == "sharding":
            m["sharding.worker_imbalance"] = (
                max(timings) / statistics.mean(timings) if timings else 0.0
            )
    m["plockstep.window_barriers"] = result.window_barriers if prefix == "plockstep" else 0
    m["plockstep.cross_shard_messages"] = getattr(result, "cross_shard_messages", 0)

    r = detail.result
    counts = detail_ledger.counts
    sends = counts["network.sends"]
    delivered = sum(network.messages_delivered for network in detail_ledger.networks.values())
    m.update(
        {
            "fleet.build_s": detail_ledger.seconds("fleet.build"),
            "fleet.vehicles": counts["fleet.vehicles"],
            "fleet.heartbeat_rounds": r.heartbeat_rounds,
            "fleet.heartbeat_s": detail_ledger.seconds("fleet.heartbeat"),
            "engine.events": r.events_processed,
            "network.sends": sends,
            "network.send_self_s": detail_ledger.seconds("network.send"),
            "network.dropped": r.messages_dropped,
            "network.corrupted": r.messages_corrupted,
            "network.delivered_ratio": delivered / sends if sends else 0.0,
            "transport.draws": detail_ledger.calls["transport.draw"],
            "transport.draw_s": detail_ledger.seconds("transport.draw"),
            "protocol.searches": r.searches,
            "protocol.replacements": r.replacements,
            "protocol.failed_replacements": r.failed_replacements,
            "protocol.search_yield": r.replacements / r.searches if r.searches else 0.0,
            "gossip.select_peers_calls": detail_ledger.calls["gossip.select_peers"],
            "gossip.select_peers_s": detail_ledger.seconds("gossip.select_peers"),
            "gossip.freshest_entries_s": detail_ledger.seconds("gossip.freshest_entries"),
            "gossip.suspicions": r.suspicions,
            "gossip.attestations": r.attestations,
            "gossip.refused_attestations": r.refused_attestations,
            "gossip.false_suspicions": r.false_suspicions,
            "gossip.detect_p50_rounds": r.detection_p50,
            "gossip.detect_p99_rounds": r.detection_p99,
            "service.windows": getattr(r, "windows", 0),
            "checkpoint.writes": getattr(r, "checkpoints_written", 0),
            "checkpoint.bytes": coarse.counts["checkpoint.bytes"],
        }
    )
    known = 0
    for name in MESSAGE_CLASSES:
        m[f"network.msgs.{name}"] = counts[f"network.msgs.{name}"]
        known += counts[f"network.msgs.{name}"]
    m["network.msgs.other"] = sends - known

    derived = {"sharding.coordinator_other": coordinator_other} if prefix else {}
    tables = {"traced": _ledger_table(coarse, traced.run_s, derived)}
    if single is not None:
        tables["shards=1"] = _ledger_table(detail_ledger, single.run_s, {})
    m["ledger.untraced_run_s"] = statistics.median(e.run_s for e in plains)
    m["ledger.traced_run_s"] = statistics.median(traced_s)
    m["ledger.overhead"] = m["ledger.traced_run_s"] / m["ledger.untraced_run_s"]
    m["ledger.other_s"] = tables["traced"]["other"]
    m["ledger.single_run_s"] = single.run_s if single is not None else 0.0
    m["ledger.single_other_s"] = tables["shards=1"]["other"] if single is not None else 0.0

    _report_ledger(workload, seed, tables, m, problems, passes)
    stem = f"{workload.name}-seed{seed}"
    meta = {"workload": workload.name, "seed": seed}
    coarse.write_chrome_trace(OUT / f"{stem}-traced.trace.json", dict(meta, run="traced"))
    if single is not None:
        detail_ledger.write_chrome_trace(OUT / f"{stem}-shards1.trace.json", dict(meta, run="shards=1"))
    (OUT / f"{stem}-ledger.json").write_text(
        json.dumps({"workload": workload.name, "seed": seed, "tables": tables, "metrics": m, "problems": problems}, indent=1)
    )
    return not failed, len(passes), failed, m


def _largest_layer(table: dict) -> str:
    """The layer with the most self time; ``other`` is no layer."""
    return max((layer for layer in table if layer != "other"), key=table.get)


def _report_ledger(workload, seed, tables, m, problems, passes) -> None:
    print(f"{workload.name} seed {seed}: traced ledger (self seconds per layer)")
    for label, table in tables.items():
        run_s = sum(table.values())
        largest = _largest_layer(table)
        print(f"  pass {label}: run {run_s:.4f} s, largest layer {largest}")
        if workload.busiest_layer and label == list(tables)[-1]:
            holds = "holds" if largest == workload.busiest_layer else "DOES NOT HOLD"
            print(f"  expected largest layer {workload.busiest_layer}: {holds}")
        for layer, seconds in sorted(table.items(), key=lambda item: -item[1]):
            print(f"    {layer:<28} {seconds:10.4f} s  {100 * seconds / run_s:6.2f}%")
    print(
        f"  tracing overhead: {m['ledger.overhead']:.3f}x (median traced {m['ledger.traced_run_s']:.4f} s"
        f" / median untraced {m['ledger.untraced_run_s']:.4f} s over {TRACE_PAIRS} alternating pairs)"
    )
    if workload.sharded:
        print(
            "  note: fleet, engine, network, transport, protocol and gossip figures come"
            " from the shards=1 pass; worker-side splits only from shard_timings"
        )
    print("  which end-to-end metric each layer should move:")
    for entry in json.loads(LAYERS.read_text())["layers"]:
        print(f"    {entry['layer']:<38} {entry['moves']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #


def pin(seeds) -> int:
    """Record the digest of one cold execution per workload and seed."""
    from bench_ledger import install_boundary
    from bench_workloads import WORKLOADS

    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name, factory in WORKLOADS.items():
        workload = factory()
        for seed in seeds:
            execution, _, _ = _cold_execution(workload, seed, install_boundary)
            if execution.problems:
                print(f"{name} seed {seed}: not pinned: {execution.problems}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = execution.digest
            print(f"{name} seed {seed}: {execution.digest[:16]}... ({execution.run_s:.2f} s)")
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0, help="workload seed: the same seed gives the same inputs")
    parser.add_argument(
        "--seconds", type=float, help="measurement time of a timed run (default: run_seconds of BENCHMARK.json)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED", help="pin digests for these seeds")
    args = parser.parse_args(argv)

    _import_program()
    from bench_workloads import WORKLOADS

    if args.pin:
        return pin(args.pin)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = _spec()
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    workload = WORKLOADS[args.workload]()
    if args.trace:
        correct, attempted, failed, values = traced_run(workload, args.seed)
    else:
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        correct, attempted, failed, values = timed_run(workload, args.seed, seconds)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    _emit(correct, attempted, failed, values, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
