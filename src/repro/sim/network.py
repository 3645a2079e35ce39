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

Delivery: a handler is called at the destination after one one-way latency,
and a generator it returns is driven with ``yield from``.  A one-way message
is one :class:`~repro.sim.engine.Process`; it reads the latency when it
starts, one fast-lane hop after :meth:`Network.send`, so a fault injected
earlier at the same timestamp is observed.  Nobody awaits a one-way delivery,
so a handler that raises fails :meth:`Environment.run` instead of vanishing.
The latency lookup skips the injected-delay dictionaries while no fault
injection or topology is configured.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from .engine import Environment, Event, Timeout
from .stats import Counter

__all__ = ["Network", "NodeUnreachable"]


class NodeUnreachable(Exception):
    """Raised at the caller when an RPC destination is crashed/partitioned."""

    def __init__(self, node_id: int):
        super().__init__(f"node {node_id} is unreachable")
        self.node_id = node_id


def _raise_if_failed(delivery: Event) -> None:
    """Re-raise a one-way handler's exception out of the dispatcher."""
    if not delivery._ok:
        raise delivery._value


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
        if type(result) is GeneratorType:
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
        self.env.process(self._deliver(src, dst, handler, args, kwargs)).add_callback(
            _raise_if_failed)

    def _deliver(self, src, dst, handler, args, kwargs) -> Generator:
        yield Timeout(self.env, self.latency(src, dst))
        if dst in self._unreachable:
            self.counters.increment("messages_dropped")
            return
        result = handler(*args, **kwargs)
        if type(result) is GeneratorType:
            yield from result

    def roundtrip_us(self, src: int, dst: int) -> float:
        """Convenience: full round-trip latency between two nodes."""
        return self.latency(src, dst) + self.latency(dst, src)
