"""The batched dispatch fast path: Network.send_many / Transport.send_batch.

The contract is byte-identity: a broadcast through ``send_many`` must be
indistinguishable -- delivery order, counters, dropped messages, FIFO
clamping, the loss stream's state -- from the per-destination ``send`` loop
it replaces, on every transport (batched on the reliable fixed-delay and
the global-stream lossy channels, per-message everywhere else).
"""

from __future__ import annotations

import pytest

from repro.distsim.engine import Simulator
from repro.distsim.failures import FailurePlan, PartitionSpec
from repro.distsim.network import Network
from repro.distsim.process import Process
from repro.distsim.transport import (
    CorruptingTransport,
    LossyTransport,
    RandomJitterTransport,
    ReliableTransport,
    RetransmitTransport,
    TransportSpec,
)


class Recorder(Process):
    def __init__(self, identity):
        super().__init__(identity)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.network.simulator.now, sender, message))


def _network(transport=None, *, failure_plan=None, delay=0.25):
    net = Network(
        Simulator(), delay=delay, failure_plan=failure_plan, transport=transport
    )
    procs = [Recorder(f"p{i}") for i in range(5)]
    net.register_all(procs)
    return net, procs


def _trace(net, procs):
    net.run_until_quiescent()
    return [
        (p.identity, p.received) for p in procs
    ], (net.messages_sent, net.messages_delivered, net.messages_dropped)


class TestReliableFastPath:
    def test_identical_to_sequential_sends(self):
        targets = ["p1", "p2", "p3", "p4"]
        batched, procs_a = _network(ReliableTransport(0.25))
        batched.send_many("p0", targets, "hello")
        sequential, procs_b = _network(ReliableTransport(0.25))
        for t in targets:
            sequential.send("p0", t, "hello")
        assert _trace(batched, procs_a) == _trace(sequential, procs_b)

    def test_zero_delay_batch(self):
        batched, procs = _network(ReliableTransport(0.0))
        batched.send_many("p0", ["p1", "p2"], "x")
        trace, counters = _trace(batched, procs)
        assert counters == (2, 2, 0)
        assert dict(trace)["p1"] == [(0.0, "p0", "x")]

    def test_fifo_clamp_preserved_across_batches(self):
        # A slow earlier message on one link must not be overtaken by a
        # later batch on the same link.
        net, procs = _network(ReliableTransport(1.0))
        net.send("p0", "p1", "slow")
        # batch at delay 1.0 again: p1's second message must arrive after
        # its first even though both land at the same nominal time; FIFO
        # clamping keeps per-link order.
        net.send_many("p0", ["p1", "p2"], "fast")
        trace = dict(_trace(net, procs)[0])
        assert [m for _, _, m in trace["p1"]] == ["slow", "fast"]
        assert [m for _, _, m in trace["p2"]] == ["fast"]

    def test_callable_delay_uses_fallback(self):
        transport = ReliableTransport(lambda s, d, m: 0.5)
        assert transport.batch_latency("a", ["b"], "m") is None

    def test_send_batch_clamps_late_links(self):
        # A link whose previous delivery lands *later* than the batch's
        # nominal time must keep per-link FIFO order: the batch's message
        # on that link is pushed out to the previous delivery time while
        # the other links keep the nominal time.
        sim = Simulator()
        transport = ReliableTransport(0.2).bind(sim)
        log = []
        transport.send("a", "b", "slow", lambda m: log.append(("b", m)))
        transport._last_delivery[("a", "b")] = 1.0  # as if a 1.0-delay send
        transport.send_batch(
            "a",
            ["b", "c"],
            "fast",
            lambda dest: (lambda: log.append((dest, "fast"))),
            0.2,
        )
        sim.run()
        assert log == [("b", "slow"), ("c", "fast"), ("b", "fast")]
        assert transport._last_delivery[("a", "b")] == 1.0
        assert transport._last_delivery[("a", "c")] == 0.2

    def test_crashed_destination_dropped(self):
        plan = FailurePlan()
        net, procs = _network(ReliableTransport(0.1), failure_plan=plan)
        plan.crash("p2")
        net.send_many("p0", ["p1", "p2", "p3"], "m")
        trace, (sent, delivered, dropped) = _trace(net, procs)
        assert (sent, delivered, dropped) == (3, 2, 1)
        assert dict(trace)["p2"] == []

    def test_unknown_destination_raises(self):
        net, _ = _network(ReliableTransport(0.1))
        with pytest.raises(KeyError):
            net.send_many("p0", ["p1", "nope"], "m")


class TestFallbackPaths:
    def test_lossy_stream_consumed_in_send_order(self):
        # The seeded loss stream must be drawn per message in destination
        # order, exactly as sequential sends draw it.
        spec = TransportSpec("lossy", {"loss": 0.5, "seed": 7})
        targets = ["p1", "p2", "p3", "p4"]
        batched, procs_a = _network(spec.build())
        batched.send_many("p0", targets, "m")
        sequential, procs_b = _network(spec.build())
        for t in targets:
            sequential.send("p0", t, "m")
        assert _trace(batched, procs_a) == _trace(sequential, procs_b)

    def test_per_message_lossy_transports_have_no_batch_latency(self):
        # Only the global loss stream batches; edge streams, corruption and
        # retransmission draw per message and keep the per-message path.
        class Subclassed(LossyTransport):
            pass

        for transport in (
            LossyTransport(0.1, stream="edge"),
            CorruptingTransport(0.1),
            CorruptingTransport(0.1, stream="edge"),
            RetransmitTransport(TransportSpec("lossy", {"loss": 0.1})),
            Subclassed(0.1),
        ):
            assert transport.batch_latency("a", ["b"], "m") is None, transport

    def test_global_lossy_batch_latency_is_its_delay(self):
        assert LossyTransport(0.1, delay=0.25).batch_latency("a", ["b"], "m") == 0.25

    def test_random_jitter_falls_back(self):
        import numpy as np

        rng = np.random.default_rng(0)
        transport = RandomJitterTransport(0.1, rng)
        assert transport.batch_latency("a", ["b"], "m") is None


class LogRecorder(Process):
    """Appends every delivery to one log shared by the whole network."""

    def __init__(self, identity, log):
        super().__init__(identity)
        self.log = log

    def on_message(self, sender, message):
        self.log.append((self.network.simulator.now, self.identity, sender, message))


#: Lattice identities, so partitions along axis 0 can separate them.
POINTS = [(i, 0) for i in range(10)]
SENDER = POINTS[0]


def _lossy_network(loss, seed, *, crash=(), partition=False, drop_to=(), clamp=()):
    plan = FailurePlan()
    for identity in crash:
        plan.crash(identity)
    if partition:
        plan.add_partition(PartitionSpec(start=0.0, end=10.0, axis=0, boundary=5.5))
    for identity in drop_to:
        plan.add_drop_rule(lambda s, d, m, identity=identity: d == identity)
    transport = LossyTransport(loss, delay=0.25, seed=seed)
    net = Network(Simulator(), failure_plan=plan, transport=transport)
    log = []
    net.register_all(LogRecorder(identity, log) for identity in POINTS)
    for identity in clamp:
        # As if an earlier, slower message were still in flight on the link.
        transport._last_delivery[(SENDER, identity)] = 3.0
    return net, log


def _state(net):
    transport, plan = net.transport, net.failure_plan
    return (
        (net.messages_sent, net.messages_delivered, net.messages_dropped),
        (
            transport.messages_scheduled,
            transport.messages_dropped,
            transport.messages_corrupted,
        ),
        (plan.dropped_count, plan.partition_dropped_count),
        transport._rng.bit_generator.state,
        dict(transport._last_delivery),
    )


class TestGlobalLossBatch:
    """A global-stream lossy broadcast draws one loss mask over the plan's
    survivors and equals the per-message ``send`` loop in everything."""

    TARGETS = POINTS[1:]

    def _both(self, broadcasts, loss, seed, **plan):
        batched, log_a = _lossy_network(loss, seed, **plan)
        sequential, log_b = _lossy_network(loss, seed, **plan)
        for message in broadcasts:
            batched.send_many(SENDER, self.TARGETS, message)
            for target in self.TARGETS:
                sequential.send(SENDER, target, message)
            assert _state(batched) == _state(sequential)
        batched.run_until_quiescent()
        sequential.run_until_quiescent()
        assert log_a == log_b
        assert _state(batched) == _state(sequential)
        return batched, log_a

    @pytest.mark.parametrize("loss", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_sequential_sends(self, loss, seed):
        net, log = self._both(["a", "b", "c"], loss, seed)
        if loss == 0.0:
            assert len(log) == 3 * len(self.TARGETS)
            assert net.transport.messages_dropped == 0
        if loss == 1.0:
            assert log == []
            assert net.transport.messages_dropped == 3 * len(self.TARGETS)

    @pytest.mark.parametrize("loss", [0.0, 0.5, 1.0])
    def test_crashed_destination(self, loss):
        net, log = self._both(["a", "b"], loss, 3, crash=[(2, 0), (7, 0)])
        assert all(identity not in ((2, 0), (7, 0)) for _, identity, _, _ in log)

    @pytest.mark.parametrize("loss", [0.0, 0.5, 1.0])
    def test_partitioned_links(self, loss):
        net, log = self._both(["a", "b"], loss, 3, partition=True)
        assert net.failure_plan.partition_dropped_count == 2 * 4
        assert all(identity[0] <= 5 for _, identity, _, _ in log)

    @pytest.mark.parametrize("loss", [0.0, 0.5, 1.0])
    def test_drop_predicate(self, loss):
        self._both(["a", "b"], loss, 5, drop_to=[(1, 0), (9, 0)])

    @pytest.mark.parametrize("loss", [0.0, 0.5])
    def test_fifo_clamped_links(self, loss):
        net, log = self._both(["a", "b"], loss, 9, clamp=[(3, 0), (4, 0)])
        if loss == 0.0:
            assert [time for time, identity, _, _ in log if identity == (3, 0)] == [3.0, 3.0]

    def test_everything_at_once_with_interleaved_sends(self):
        plan = dict(crash=[(2, 0)], partition=True, drop_to=[(1, 0)], clamp=[(4, 0)])
        batched, log_a = _lossy_network(0.4, 13, **plan)
        sequential, log_b = _lossy_network(0.4, 13, **plan)
        for message in range(6):
            batched.send(SENDER, (3, 0), ("solo", message))
            sequential.send(SENDER, (3, 0), ("solo", message))
            batched.send_many(SENDER, self.TARGETS, message)
            for target in self.TARGETS:
                sequential.send(SENDER, target, message)
        batched.run_until_quiescent()
        sequential.run_until_quiescent()
        assert log_a == log_b
        assert _state(batched) == _state(sequential)

    def test_unknown_destination_keeps_the_sends_before_it(self):
        # A sequential loop raises at the unknown destination after drawing
        # and scheduling the sends before it; the batch must leave the same.
        batched, log_a = _lossy_network(0.5, 21)
        sequential, log_b = _lossy_network(0.5, 21)
        targets = list(self.TARGETS[:5]) + [(99, 99)] + list(self.TARGETS[5:])
        with pytest.raises(KeyError):
            batched.send_many(SENDER, targets, "m")
        with pytest.raises(KeyError):
            for target in targets:
                sequential.send(SENDER, target, "m")
        batched.run_until_quiescent()
        sequential.run_until_quiescent()
        assert log_a == log_b
        assert _state(batched) == _state(sequential)

    def test_broadcast_takes_the_batched_path(self):
        net, log = _lossy_network(0.5, 0)

        def per_message(*args):
            raise AssertionError("global-stream broadcast drew per message")

        net.transport.drops = per_message
        net.send_many(SENDER, self.TARGETS, "m")
        net.run_until_quiescent()
        assert 0 < len(log) < len(self.TARGETS)


class TestQueueBatchPush:
    def test_push_many_at_matches_sequential_pushes(self):
        a, b = Simulator(), Simulator()
        log_a, log_b = [], []
        a.queue.push_many_at(1.5, [lambda i=i: log_a.append(i) for i in range(4)])
        for i in range(4):
            b.queue.push(1.5, lambda i=i: log_b.append(i))
        a.run()
        b.run()
        assert log_a == log_b == [0, 1, 2, 3]
        assert a.now == b.now == 1.5

    def test_schedule_batch_at_rejects_past(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_batch_at(0.5, [lambda: None])

    def test_interleaves_with_existing_bucket(self):
        sim = Simulator()
        log = []
        sim.queue.push(1.0, lambda: log.append("first"))
        sim.queue.push_many_at(1.0, [lambda: log.append("second"), lambda: log.append("third")])
        sim.queue.push(1.0, lambda: log.append("fourth"))
        sim.run()
        assert log == ["first", "second", "third", "fourth"]
