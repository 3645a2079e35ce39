"""Simulated cluster network.

Models point-to-point messaging between partition servers with a configurable
one-way latency.  Two primitives are provided:

* :meth:`Network.rpc` — request/response; the handler runs at the destination
  after one one-way latency, and its return value arrives back at the caller
  after another one-way latency.  Handlers may be plain callables or
  simulation generators (so remote handlers can themselves wait for locks,
  other RPCs, log flushes, ...).
* :meth:`Network.send` — one-way, fire-and-forget message.

The network also supports targeted fault/latency injection, which the
benchmark harness uses for the "watermark lagging" experiment (Fig. 13a) and
for crash experiments (messages to a crashed node are dropped).

Message counts (``rpc_calls``, ``one_way_messages``, ``messages_dropped``) go
to the :class:`~repro.sim.stats.Counter` it is given; in a cluster, the run's.

Hot-path notes: every transaction sends a handful of messages, so delivery
avoids per-message allocations where it can.  The latency lookup skips the
injected-delay dictionaries entirely while no fault injection is configured,
handlers are classified as generator/plain once per handler code object
(C-level callables classify for free — they can never be generator
functions), and one-way sends of plain handlers are carried end to end by a
single slotted, self-rescheduling :class:`_OneWaySend` event: no
:class:`Process`, no generator frame, no :class:`Timeout` and no closure
pair per message, with FIFO delivery order preserved bit-for-bit.
"""

from __future__ import annotations

import inspect
from heapq import heappush
from types import BuiltinFunctionType, GeneratorType, MethodWrapperType
from typing import Any, Callable, Generator, Optional

# Callables implemented in C: no code object, cannot be generator functions.
_C_CALLABLE_TYPES = (BuiltinFunctionType, MethodWrapperType)

from .engine import Environment, Event, Timeout
from .stats import Counter

__all__ = ["Network", "NodeUnreachable"]


class NodeUnreachable(Exception):
    """Raised at the caller when an RPC destination is crashed/partitioned."""

    def __init__(self, node_id: int):
        super().__init__(f"node {node_id} is unreachable")
        self.node_id = node_id


class _OneWaySend(Event):
    """A one-way plain-handler delivery, allocated once per message.

    The event object *is* both scheduling hops of the delivery:

    1. born on the fast lane (same dispatch point at which the old
       process-based path kicked off its generator), so the delivery delay's
       sequence number is drawn exactly where it always was — FIFO order
       among same-timestamp deliveries is preserved bit-for-bit;
    2. when the fast-lane hop fires, the event *reschedules itself* for the
       one-way latency (fast lane again for zero-delay, heap otherwise) —
       no :class:`Timeout`, no closure pair, no cell variables;
    3. when the second hop fires, the handler runs at the destination.

    The latency is read at dispatch time of the first hop (not at ``send()``
    call time) so a fault injected by an earlier-sequenced event at the same
    timestamp is observed exactly as the old path observed it.
    """

    __slots__ = ("_network", "_src", "_dst", "_handler", "_args", "_kwargs",
                 "_in_flight")

    def __init__(self, network: "Network", src: int, dst: int,
                 handler: Callable[..., Any], args: tuple, kwargs: dict):
        env = network.env
        self.env = env
        self._network = network
        self._src = src
        self._dst = dst
        self._handler = handler
        self._args = args
        self._kwargs = kwargs
        self._value = None
        self._ok = True
        self._in_flight = False
        # The dispatch callback is one shared module-level function (the
        # dispatcher hands it the event, which *is* this op) — no bound
        # method and no closure allocated per message.
        self.callbacks = _dispatch_one_way_send
        self._seq = env._next_seq()
        env._fast_append(self)


def _dispatch_one_way_send(op: "_OneWaySend") -> None:
    """Dispatcher callback for both hops of a :class:`_OneWaySend`."""
    network = op._network
    env = op.env
    if not op._in_flight:
        # Hop 1: departure.  Read the latency now (it may have changed
        # since send() was called) and reschedule the op as the delivery.
        op._in_flight = True
        src = op._src
        dst = op._dst
        if network._faults_active or network._topology is not None:
            delay = network.latency(src, dst)
        elif src == dst:
            delay = network.local_latency_us
        else:
            delay = network.one_way_latency_us
        op.callbacks = _dispatch_one_way_send
        if delay == 0.0:
            op._seq = env._next_seq()
            env._fast_append(op)
        else:
            heappush(env._queue, (env._now + delay, env._next_seq(), op))
        return
    # Hop 2: arrival.
    if op._dst in network._unreachable:
        network.counters.increment("messages_dropped")
        op._handler = op._args = op._kwargs = None
        return
    handler, args, kwargs = op._handler, op._args, op._kwargs
    # Drop the payload references so the delivered message is reclaimed by
    # refcount, not the cycle GC.
    op._handler = op._args = op._kwargs = None
    result = handler(*args, **kwargs)
    if type(result) is GeneratorType:
        # Misclassified exotic callable: drive it as a process after all.
        env.process(result, name=f"send:{op._src}->{op._dst}")


class Network:
    """Point-to-point message fabric between numbered nodes."""

    def __init__(
        self,
        env: Environment,
        one_way_latency_us: float = 50.0,
        local_latency_us: float = 0.2,
        counters: Optional[Counter] = None,
    ):
        self.env = env
        self.one_way_latency_us = float(one_way_latency_us)
        self.local_latency_us = float(local_latency_us)
        self.counters = counters if counters is not None else Counter()
        # Extra one-way delay injected on messages *from* a given node
        # (used to lag a partition's watermark/epoch messages, Fig. 13a).
        self._extra_delay_from: dict[int, float] = {}
        # Extra one-way delay on messages *to* a given node.
        self._extra_delay_to: dict[int, float] = {}
        self._unreachable: set[int] = set()
        # True iff any injection above is configured; the latency fast path
        # keys off this single flag.
        self._faults_active = False
        # Optional geo topology (install_topology): node id -> region index
        # plus the region×region one-way latency matrix.  ``None`` keeps the
        # scalar fast path bit-identical.
        self._topology: Optional[tuple] = None
        self._node_region: dict[int, int] = {}
        # handler code object -> returns-a-generator flag (see
        # _handler_returns_generator); bounded by the number of def sites.
        self._gen_handlers: dict = {}

    # -- fault / delay injection ----------------------------------------
    def _refresh_fault_flag(self) -> None:
        self._faults_active = bool(
            self._extra_delay_from or self._extra_delay_to or self._unreachable
        )

    def set_extra_delay_from(self, node_id: int, delay_us: float) -> None:
        """Add ``delay_us`` to every message originating at ``node_id``.

        A zero delay clears the injection (fault windows revert through here),
        so the no-faults latency fast path re-engages once nothing is injected.
        """
        if delay_us:
            self._extra_delay_from[node_id] = float(delay_us)
        else:
            self._extra_delay_from.pop(node_id, None)
        self._refresh_fault_flag()

    def set_extra_delay_to(self, node_id: int, delay_us: float) -> None:
        """Add ``delay_us`` to every message destined to ``node_id`` (0 clears)."""
        if delay_us:
            self._extra_delay_to[node_id] = float(delay_us)
        else:
            self._extra_delay_to.pop(node_id, None)
        self._refresh_fault_flag()

    def set_unreachable(self, node_id: int, unreachable: bool = True) -> None:
        """Mark a node as crashed: messages to it are dropped, RPCs fail."""
        if unreachable:
            self._unreachable.add(node_id)
        else:
            self._unreachable.discard(node_id)
        self._refresh_fault_flag()

    def is_unreachable(self, node_id: int) -> bool:
        return node_id in self._unreachable

    # -- geo topology -----------------------------------------------------
    def install_topology(self, node_region: dict, latency_matrix) -> None:
        """Replace the scalar base latency with a region-matrix lookup.

        ``node_region`` maps node ids to region indices into
        ``latency_matrix`` (rows/columns in region order).  Nodes absent from
        the map fall back to the scalar one-way latency; the same-node case
        always stays local.  Injected fault delays stack on top of the
        topology base, exactly as they stack on the scalar base.
        """
        self._node_region = dict(node_region)
        self._topology = tuple(tuple(float(v) for v in row) for row in latency_matrix)

    def _topology_latency(self, src: int, dst: int) -> float:
        """Base one-way latency under the installed region matrix."""
        if src == dst:
            return self.local_latency_us
        node_region = self._node_region
        src_region = node_region.get(src)
        dst_region = node_region.get(dst)
        if src_region is None or dst_region is None:
            return self.one_way_latency_us
        return self._topology[src_region][dst_region]

    # -- latency model ---------------------------------------------------
    def latency(self, src: int, dst: int) -> float:
        """One-way latency from ``src`` to ``dst`` including injected delays."""
        if not self._faults_active:
            if self._topology is None:
                return self.local_latency_us if src == dst else self.one_way_latency_us
            return self._topology_latency(src, dst)
        if self._topology is None:
            base = self.local_latency_us if src == dst else self.one_way_latency_us
        else:
            base = self._topology_latency(src, dst)
        return (
            base
            + self._extra_delay_from.get(src, 0.0)
            + self._extra_delay_to.get(dst, 0.0)
        )

    # -- handler classification -------------------------------------------
    def _handler_returns_generator(self, handler: Callable[..., Any]) -> bool:
        """Classify a handler once per *def site*; delivery trusts the flag.

        The cache is keyed by the handler's code object, not the handler:
        protocols pass a fresh closure per message, so keying by the callable
        would never hit and would pin every closure (and its captured
        transaction state) for the life of the network.  Whether a function
        is a generator function is a property of its code object, so this is
        both bounded (one entry per ``def``) and stable.  Plain functions and
        bound methods both expose ``__code__`` through one attribute lookup;
        C-level callables (built-in functions/methods like ``list.append``)
        have no code object and can never be Python generator functions, so
        they classify as plain without the (uncached, per-message)
        ``inspect`` round trip.  Other exotic callables fall back to an
        uncached check, and delivery re-checks the actual result type, so a
        misclassification can never drop a generator on the floor.
        """
        if type(handler) in _C_CALLABLE_TYPES:
            # Built-in function/method: no code object, cannot be a Python
            # generator function — and skipping the getattr below avoids an
            # internally raised-and-caught AttributeError per message.
            return False
        code = getattr(handler, "__code__", None)
        if code is None:
            return bool(inspect.isgeneratorfunction(handler))
        cache = self._gen_handlers
        flag = cache.get(code)
        if flag is None:
            cache[code] = flag = bool(
                inspect.isgeneratorfunction(getattr(handler, "__func__", handler))
            )
        return flag

    # -- messaging primitives ---------------------------------------------
    def rpc(
        self,
        src: int,
        dst: int,
        handler: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> Generator[Event, Any, Any]:
        """Request/response round trip; generator to be driven with ``yield from``."""
        self.counters.increment("rpc_calls")
        env = self.env
        unreachable = self._unreachable
        if dst in unreachable:
            self.counters.increment("messages_dropped")
            # The caller notices the failure after a timeout-ish delay.
            yield Timeout(env, self.latency(src, dst) * 2)
            raise NodeUnreachable(dst)
        yield Timeout(env, self.latency(src, dst))
        result = handler(*args, **kwargs)
        if self._handler_returns_generator(handler) or type(result) is GeneratorType:
            result = yield from result
        if dst in unreachable:
            # Crashed while processing: response is lost.
            self.counters.increment("messages_dropped")
            yield Timeout(env, self.latency(dst, src))
            raise NodeUnreachable(dst)
        yield Timeout(env, self.latency(dst, src))
        return result

    def send(
        self,
        src: int,
        dst: int,
        handler: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> None:
        """One-way message: schedule ``handler`` at the destination, don't wait."""
        self.counters.increment("one_way_messages")
        if dst in self._unreachable:
            self.counters.increment("messages_dropped")
            return

        if self._handler_returns_generator(handler):
            self.env.process(
                self._deliver_generator(src, dst, handler, args, kwargs),
                name=f"send:{src}->{dst}",
            )
            return

        # Plain handler: one slotted self-rescheduling event carries the
        # whole delivery — no Process, no generator frame, no Timeout and no
        # closure pair per message (see _OneWaySend).
        _OneWaySend(self, src, dst, handler, args, kwargs)

    def _deliver_generator(self, src, dst, handler, args, kwargs) -> Generator:
        yield Timeout(self.env, self.latency(src, dst))
        if dst in self._unreachable:
            self.counters.increment("messages_dropped")
            return
        yield from handler(*args, **kwargs)

    def roundtrip_us(self, src: int, dst: int) -> float:
        """Convenience: full round-trip latency between two nodes."""
        return self.latency(src, dst) + self.latency(dst, src)
