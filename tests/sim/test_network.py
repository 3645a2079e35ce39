"""Unit tests for the simulated network."""

import weakref

import pytest

from repro.sim.engine import Environment
from repro.sim.network import Network, NodeUnreachable


def make_network(latency=50.0, local=0.5):
    env = Environment()
    return env, Network(env, one_way_latency_us=latency, local_latency_us=local)


def test_rpc_charges_a_full_round_trip():
    env, net = make_network(latency=40.0)
    times = []

    def caller():
        result = yield from net.rpc(0, 1, lambda: "pong")
        times.append((env.now, result))

    env.process(caller())
    env.run(until=1000)
    assert times == [(80.0, "pong")]


def test_local_rpc_uses_local_latency():
    env, net = make_network(latency=40.0, local=1.0)
    times = []

    def caller():
        yield from net.rpc(2, 2, lambda: None)
        times.append(env.now)

    env.process(caller())
    env.run(until=1000)
    assert times == [2.0]


def test_rpc_handler_can_be_a_generator():
    env, net = make_network(latency=10.0)
    results = []

    def handler():
        yield env.timeout(5.0)
        return "slow-result"

    def caller():
        result = yield from net.rpc(0, 1, handler)
        results.append((env.now, result))

    env.process(caller())
    env.run(until=1000)
    assert results == [(25.0, "slow-result")]


def test_send_is_one_way_and_does_not_block():
    env, net = make_network(latency=30.0)
    delivered = []

    def caller():
        net.send(0, 1, lambda value: delivered.append((env.now, value)), "hello")
        return env.now
        yield  # pragma: no cover - make this a generator

    env.process(caller())
    env.run(until=1000)
    assert delivered == [(30.0, "hello")]


def test_unreachable_destination_raises_for_rpc():
    env, net = make_network()
    net.set_unreachable(1)
    errors = []

    def caller():
        try:
            yield from net.rpc(0, 1, lambda: "never")
        except NodeUnreachable as exc:
            errors.append(exc.node_id)

    env.process(caller())
    env.run(until=1000)
    assert errors == [1]
    assert net.counters.get("messages_dropped") == 1


def test_unreachable_destination_drops_one_way_messages():
    env, net = make_network()
    net.set_unreachable(3)
    delivered = []
    net.send(0, 3, delivered.append, "lost")
    env.run(until=1000)
    assert delivered == []
    assert net.counters.get("messages_dropped") == 1


def test_reachability_can_be_restored():
    env, net = make_network()
    net.set_unreachable(1)
    net.set_unreachable(1, False)
    assert not net.is_unreachable(1)


def test_extra_delay_from_a_node_slows_its_messages():
    env, net = make_network(latency=10.0)
    net.set_extra_delay_from(5, 100.0)
    assert net.latency(5, 1) == 110.0
    assert net.latency(1, 5) == 10.0


def test_extra_delay_to_a_node_slows_inbound_messages():
    env, net = make_network(latency=10.0)
    net.set_extra_delay_to(2, 40.0)
    assert net.latency(0, 2) == 50.0
    assert net.latency(2, 0) == 10.0


def test_message_statistics_are_counted():
    env, net = make_network()

    def caller():
        yield from net.rpc(0, 1, lambda: None)
        net.send(0, 2, lambda: None)

    env.process(caller())
    env.run(until=1000)
    assert net.counters.as_dict() == {"rpc_calls": 1, "one_way_messages": 1}


def test_roundtrip_helper_sums_both_directions():
    env, net = make_network(latency=25.0)
    net.set_extra_delay_from(0, 5.0)
    assert net.roundtrip_us(0, 1) == 25.0 + 5.0 + 25.0


def test_stats_reset_zeroes_every_counter():
    """Nothing resets: a window's count is the difference of two readings,
    which is how Cluster.run reports the measurement window's messages."""
    env, net = make_network()

    def caller():
        yield from net.rpc(0, 1, lambda: "x")
        net.send(0, 2, lambda: None)

    env.process(caller())
    env.run(until=1000)
    before = net.counters.as_dict()
    assert before == {"rpc_calls": 1, "one_way_messages": 1}

    def second():
        yield from net.rpc(0, 1, lambda: "y")

    env.process(second())
    env.run(until=2000)
    after = net.counters.as_dict()
    assert {name: after[name] - before.get(name, 0) for name in after} == {
        "rpc_calls": 1, "one_way_messages": 0}


def test_per_destination_is_a_counter():
    """A network counts into the Counter it is given (a cluster passes its
    run's), and builds a fresh one when given none."""
    from repro.sim.stats import Counter

    env = Environment()
    counters = Counter()
    net = Network(env, counters=counters)
    assert net.counters is counters
    net.set_unreachable(3)
    net.send(0, 1, lambda: None)
    net.send(0, 3, lambda: None)
    env.run(until=1000)
    assert counters.as_dict() == {"one_way_messages": 2, "messages_dropped": 1}
    assert make_network()[1].counters.as_dict() == {}


def test_generator_handlers_are_driven_after_classification():
    """A generator handler is driven to completion for both rpc and send, on
    every delivery: a handler is classified by what each call returns."""
    env, net = make_network(latency=10.0)
    log = []

    def gen_handler(tag):
        yield env.timeout(5.0)
        log.append((env.now, tag))
        return tag

    results = []

    def caller():
        value = yield from net.rpc(0, 1, gen_handler, "rpc-1")
        results.append(value)
        net.send(0, 1, gen_handler, "send-1")
        value = yield from net.rpc(0, 1, gen_handler, "rpc-2")
        results.append(value)

    env.process(caller())
    env.run(until=1000)
    assert results == ["rpc-1", "rpc-2"]
    # Both one-way deliveries complete; the send's delivery timeout draws its
    # sequence number one kick-off hop after rpc-2's arrival timeout, so the
    # rpc handler runs first at the shared timestamp.
    assert [tag for _, tag in log] == ["rpc-1", "rpc-2", "send-1"]


def test_plain_send_fires_after_one_way_latency():
    env, net = make_network(latency=30.0)
    arrived = []
    net.send(0, 1, lambda: arrived.append(env.now))
    env.run(until=1000)
    assert arrived == [30.0]


def test_send_to_node_that_crashes_in_flight_is_dropped():
    env, net = make_network(latency=50.0)
    delivered = []

    def crash_soon():
        yield env.timeout(10.0)
        net.set_unreachable(1)

    net.send(0, 1, lambda: delivered.append("boom"))
    env.process(crash_soon())
    env.run(until=1000)
    assert delivered == []
    assert net.counters.get("messages_dropped") == 1


def test_latency_fast_path_matches_slow_path():
    env, net = make_network(latency=20.0)
    # No faults configured: fast path.
    assert net.latency(0, 1) == 20.0
    assert net.latency(3, 3) == net.local_latency_us
    # Configuring then clearing injection must restore the fast path values.
    net.set_extra_delay_to(1, 5.0)
    assert net.latency(0, 1) == 25.0
    net.set_extra_delay_to(1, 0.0)
    assert net.latency(0, 1) == 20.0


@pytest.mark.parametrize("kind", ["plain", "generator"])
def test_one_way_handler_that_raises_fails_the_run(kind):
    """Nobody awaits a one-way delivery, so its handler's exception must
    surface from env.run rather than die with the delivery."""
    env, net = make_network(latency=10.0)

    class HandlerFailed(Exception):
        pass

    def plain():
        raise HandlerFailed(kind)

    def generator():
        yield env.timeout(1.0)
        raise HandlerFailed(kind)

    net.send(0, 1, plain if kind == "plain" else generator)
    with pytest.raises(HandlerFailed, match=kind):
        env.run(until=1000)


def test_network_does_not_pin_per_message_handler_closures():
    """Protocols pass a fresh closure per message; once delivered, neither
    the network nor the engine may keep it (or its captured state) alive."""
    env, net = make_network()
    results = []
    handlers = []

    def caller():
        for i in range(50):
            def handler(value=i):  # new closure every message
                return value
            handlers.append(weakref.ref(handler))
            results.append((yield from net.rpc(0, 1, handler)))
            net.send(0, 1, handler)

    env.process(caller())
    env.run(until=100_000)
    assert results == list(range(50))
    assert [ref() for ref in handlers] == [None] * 50
