"""First-class registries: the extension points of the package.

Every pluggable axis of the evaluation grid — concurrency-control
*protocols*, *durability* (group-commit) schemes, *workloads*, and the
benchmark *figures* built from them — is registered here under a short
string name.  Built-in implementations register themselves with the
decorators below; external code can do exactly the same from any module,
and the new name immediately shows up everywhere names are consumed:
``SystemConfig`` validation, :class:`repro.scenario.ScenarioSpec`,
``python -m repro.bench --list``, and the orchestrator's figure sweeps.

Example — a new protocol in one file, no core edits::

    from repro.registry import register_protocol
    from repro.protocols import SiloProtocol

    @register_protocol("silo_patched", default_durability="coco")
    class PatchedSilo(SiloProtocol):
        ...

Lookups are strict: an unknown name raises :class:`UnknownNameError`
(a ``ValueError``) listing the registered choices plus a did-you-mean
suggestion, so a typo'd name fails loudly at *plan* time instead of
mid-sweep inside a worker process.

Built-in implementations live in modules that are only imported on first
use (``ensure_modules``), which keeps this module import-cycle-free:
it depends on nothing but the standard library.

Registrations are per-process.  The orchestrator's process pool
(``run_cells(jobs=N)``) re-imports ``repro`` in each worker, which registers
the built-ins but not your module — on fork-based platforms (Linux default)
workers inherit the parent's registrations, but under the ``spawn``/
``forkserver`` start methods an externally registered name would miss inside
a worker.  Run externally registered scenarios with ``jobs=1``, or make sure
the registering module is imported by the workers (e.g. register inside an
installed package that ``repro`` extensions import).
"""

from __future__ import annotations

import difflib
import importlib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = [
    "ARRIVAL_REGISTRY",
    "DURABILITY_REGISTRY",
    "FAULT_REGISTRY",
    "FIGURE_REGISTRY",
    "PROTOCOL_REGISTRY",
    "SCALE_REGISTRY",
    "WORKLOAD_REGISTRY",
    "DuplicateNameError",
    "Registry",
    "RegistryEntry",
    "UnknownNameError",
    "register_arrival",
    "register_durability",
    "register_fault",
    "register_figure",
    "register_protocol",
    "register_scale",
    "register_workload",
    "suggestion_hint",
]


class UnknownNameError(ValueError):
    """An unregistered name was looked up (carries a did-you-mean hint).

    Instances raised through :func:`unknown_name_error` carry structured
    attributes alongside the rendered message — ``kind`` (what sort of name
    was looked up), ``name`` (what was asked for) and ``choices`` (what was
    registered) — so layered validators (campaign specs wrapping scenario
    errors with factor context) can re-render without parsing the string.
    """

    kind: str = ""
    name: str = ""
    choices: tuple = ()


class DuplicateNameError(ValueError):
    """A name was registered twice without ``replace=True``."""


def suggestion_hint(name: str, choices: Sequence[str]) -> str:
    """``" (did you mean 'x'?)"`` when ``name`` is close to a choice, else ``""``."""
    matches = difflib.get_close_matches(name, list(choices), n=2, cutoff=0.5)
    if not matches:
        return ""
    if len(matches) == 1:
        return f" (did you mean {matches[0]!r}?)"
    return f" (did you mean {matches[0]!r} or {matches[1]!r}?)"


def unknown_name_error(kind: str, name: Any, choices: Sequence[str]) -> UnknownNameError:
    """The single error used for every unknown protocol/durability/workload/figure."""
    listing = ", ".join(repr(c) for c in choices) or "<nothing registered>"
    hint = suggestion_hint(str(name), choices)
    error = UnknownNameError(f"unknown {kind} {name!r}{hint}; registered: {listing}")
    error.kind = kind
    error.name = str(name)
    error.choices = tuple(choices)
    return error


@dataclass(frozen=True)
class RegistryEntry:
    """One registered implementation plus its registration metadata."""

    name: str
    obj: Any
    metadata: dict = field(default_factory=dict)


class Registry(Mapping):
    """A name -> implementation table with strict, suggestion-bearing lookups.

    ``ensure_modules`` are imported (once, lazily) before the first lookup or
    listing so the built-in implementations — which register themselves at
    import time via the decorators below — are always visible without this
    module importing any of them eagerly.

    It is a live read-only :class:`~collections.abc.Mapping` (``PROTOCOLS``,
    ``WORKLOADS``, ``SCALES``, ``FIGURES`` … *are* the registries): iteration
    yields the sorted names, and ``registry[name]`` — like ``get(name)`` —
    raises the suggestion-bearing :class:`UnknownNameError`, never a bare
    ``KeyError`` and never a default.
    """

    def __init__(self, kind: str, ensure_modules: Sequence[str] = ()) -> None:
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}
        self._ensure_modules = tuple(ensure_modules)
        self._ensured = not self._ensure_modules

    def _ensure(self) -> None:
        if not self._ensured:
            # Flip the flag first: the modules being imported call back into
            # register(), and a second _ensure() there must be a no-op.
            self._ensured = True
            for module in self._ensure_modules:
                importlib.import_module(module)

    # -- registration -----------------------------------------------------------
    def register(self, name: str, obj: Any = None, *, replace: bool = False,
                 **metadata) -> Any:
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        Metadata keywords are kept on the :class:`RegistryEntry` for consumers
        (e.g. a protocol's ``default_durability``, a workload's ``config_cls``).
        """
        if obj is None:
            def decorator(target: Any) -> Any:
                self.register(name, target, replace=replace, **metadata)
                return target
            return decorator
        if not replace and name in self._entries:
            raise DuplicateNameError(
                f"{self.kind} {name!r} is already registered "
                f"({self._entries[name].obj!r}); pass replace=True to override"
            )
        self._entries[name] = RegistryEntry(name=name, obj=obj, metadata=dict(metadata))
        return obj

    def unregister(self, name: str) -> RegistryEntry:
        """Remove and return an entry (primarily for tests of extensions)."""
        self._ensure()
        if name not in self._entries:
            raise unknown_name_error(self.kind, name, self.names())
        return self._entries.pop(name)

    # -- lookup -----------------------------------------------------------------
    def entry(self, name: str) -> RegistryEntry:
        self._ensure()
        try:
            return self._entries[name]
        except KeyError:
            raise unknown_name_error(self.kind, name, self.names()) from None

    def get(self, name: str) -> Any:
        return self.entry(name).obj

    __getitem__ = get

    def check(self, name: str) -> str:
        """Validate that ``name`` is registered (returns it for chaining)."""
        self.entry(name)
        return name

    def names(self) -> tuple[str, ...]:
        self._ensure()
        return tuple(sorted(self._entries))

    def entries(self) -> tuple[RegistryEntry, ...]:
        self._ensure()
        return tuple(self._entries[name] for name in self.names())

    def __contains__(self, name: object) -> bool:
        self._ensure()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {list(self.names())})"


# ---------------------------------------------------------------------------
# The four registries
# ---------------------------------------------------------------------------

#: Concurrency-control protocols.  Entry: the protocol class (``cls(cluster)``);
#: metadata: ``default_durability`` — the paper's §6.1.3 pairing, read by
#: ``ScenarioSpec.resolved_durability`` — and ``description``.
PROTOCOL_REGISTRY = Registry(
    "protocol", ensure_modules=("repro.core.primo", "repro.protocols")
)

#: Durability / group-commit schemes.  Entry: the scheme class (``cls(cluster)``).
DURABILITY_REGISTRY = Registry(
    "durability scheme", ensure_modules=("repro.commit", "repro.core.watermark")
)

#: OLTP workloads.  Entry: the Workload class; metadata: ``config_cls`` (its
#: config dataclass — override keys are validated against its fields) and
#: ``scale_defaults`` (config field -> BenchScale attribute supplying the
#: population sizing for that scale).
WORKLOAD_REGISTRY = Registry("workload", ensure_modules=("repro.workloads",))

#: Benchmark figures.  Entry: a FigureSpec (``plan``/``render`` pair).
FIGURE_REGISTRY = Registry("figure", ensure_modules=("repro.bench.experiments",))

#: Fault-injection event types usable in a :class:`repro.faults.FaultPlan`.
#: Entry: the fault-type class (``apply``/``revert`` staticmethods); metadata:
#: ``params`` (required parameter names), ``windowed`` (whether a
#: ``duration_us`` window is allowed) and ``requires_membership`` (whether the
#: cluster must run its failure detector for this fault to resolve).
FAULT_REGISTRY = Registry("fault type", ensure_modules=("repro.faults",))

#: Run-size presets accepted by ``ScenarioSpec.scale`` and ``--scale``.
#: Entry: the BenchScale instance itself.
SCALE_REGISTRY = Registry("scale", ensure_modules=("repro.scales",))

#: Arrival processes (traffic shapes) usable as ``ScenarioSpec.arrival``.
#: Entry: the arrival-process class (a ``gaps(ctx)`` staticmethod generator —
#: see :mod:`repro.arrivals`); metadata: ``params`` (optional parameter name
#: -> default), ``open_loop`` (``False`` only for the built-in closed loop)
#: and ``description``.
ARRIVAL_REGISTRY = Registry("arrival process", ensure_modules=("repro.arrivals",))


def register_protocol(name: str, *, default_durability: str = "coco",
                      description: str = "", replace: bool = False) -> Callable:
    """Class decorator registering a concurrency-control protocol."""
    return PROTOCOL_REGISTRY.register(
        name, replace=replace,
        default_durability=default_durability, description=description,
    )


def register_durability(name: str, *, description: str = "",
                        replace: bool = False) -> Callable:
    """Class decorator registering a durability / group-commit scheme."""
    return DURABILITY_REGISTRY.register(name, replace=replace, description=description)


def register_workload(name: str, *, config_cls: type,
                      scale_defaults: Optional[Mapping[str, str]] = None,
                      description: str = "", replace: bool = False) -> Callable:
    """Class decorator registering a workload plus its config dataclass.

    ``scale_defaults`` maps config-field names to ``BenchScale`` attribute
    names; ``repro.scenario.build_workload`` seeds the config with those
    per-scale values before applying explicit overrides.
    """
    return WORKLOAD_REGISTRY.register(
        name, replace=replace,
        config_cls=config_cls,
        scale_defaults=dict(scale_defaults or {}),
        description=description,
    )


def register_figure(name: str, *, description: str = "",
                    replace: bool = False) -> Callable:
    """Decorator (or direct call via ``FIGURE_REGISTRY.register``) for figures."""
    return FIGURE_REGISTRY.register(name, replace=replace, description=description)


# ---------------------------------------------------------------------------
# Kind+params specs: one codec for FaultEvent and ArrivalSpec
# ---------------------------------------------------------------------------

#: FaultEvent field names a fault type's parameters must not collide with
#: (event JSON documents flatten parameters next to these).
_FAULT_RESERVED_FIELDS = frozenset({"kind", "at_us", "duration_us", "target"})

#: ArrivalSpec field names an arrival kind's parameters must not collide with
#: (spec JSON documents flatten parameters next to these).
_ARRIVAL_RESERVED_FIELDS = frozenset({"kind", "rate_tps", "component_rates"})


def _check_reserved(registry: Registry, name: str, params: Iterable[str],
                    reserved: frozenset) -> None:
    collisions = reserved.intersection(params)
    if collisions:
        raise ValueError(
            f"{registry.kind} {name!r} declares reserved parameter name(s) "
            f"{', '.join(sorted(map(repr, collisions)))}"
        )


def normalize_kind_params(registry: Registry, kind: str, params,
                          allowed: Iterable[str]) -> tuple:
    """A registered kind's parameters as sorted ``(name, value)`` pairs.

    A name outside ``allowed`` fails with a did-you-mean hint.  Values must
    be scalars; ints become floats, because equal specs must hash and
    serialize identically (5000 vs 5000.0) or they would get different
    orchestrator cache keys.
    """
    allowed = tuple(allowed)
    params = dict(params or ())
    for name in params:
        if name not in allowed:
            raise ValueError(
                f"unknown parameter {name!r} for {registry.kind} {kind!r}"
                f"{suggestion_hint(str(name), allowed)}; "
                f"expected: {', '.join(allowed) or '<none>'}"
            )
    normalized = []
    for name in sorted(params):
        value = params[name]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = float(value)
        elif not (value is None or isinstance(value, (bool, str))):
            raise TypeError(
                f"{registry.kind} parameter {name!r} must be a scalar, got "
                f"{type(value).__name__}"
            )
        normalized.append((name, value))
    return tuple(normalized)


def split_kind_json(data: Any, reserved: frozenset, what: str) -> tuple[dict, tuple]:
    """Split a flat JSON object into its spec fields and its kind's params.

    Parameters sit next to the ``reserved`` field names in the flat form;
    they come back as sorted ``(name, value)`` pairs.  ``what`` names the
    document in errors ("fault event", "arrival").
    """
    if not isinstance(data, Mapping):
        raise TypeError(f"{what} must be a JSON object, got {type(data).__name__}")
    if "kind" not in data:
        raise ValueError(f"{what} is missing the required 'kind' field")
    fields = {name: value for name, value in data.items() if name in reserved}
    params = tuple(sorted((name, value) for name, value in data.items()
                          if name not in reserved))
    return fields, params


def register_fault(name: str, *, params: Sequence[str] = (),
                   windowed: bool = True, requires_membership: bool = False,
                   description: str = "", replace: bool = False) -> Callable:
    """Class decorator registering a fault-injection event type.

    The class must expose ``apply(cluster, partition_id, params)`` and — when
    ``windowed`` — ``revert(cluster, partition_id, params)`` staticmethods.
    ``params`` names the required parameters of the fault (e.g. ``delay_us``);
    they are validated eagerly when a :class:`repro.faults.FaultEvent` is
    constructed.  ``requires_membership`` marks fault types (crashes) whose
    resolution relies on the cluster's heartbeat-based failure detector.
    """
    _check_reserved(FAULT_REGISTRY, name, params, _FAULT_RESERVED_FIELDS)
    return FAULT_REGISTRY.register(
        name, replace=replace,
        params=tuple(params), windowed=bool(windowed),
        requires_membership=bool(requires_membership), description=description,
    )


def register_arrival(name: str, *, params: Optional[Mapping[str, Any]] = None,
                     open_loop: bool = True, description: str = "",
                     replace: bool = False) -> Callable:
    """Class decorator registering an arrival process (traffic shape).

    The class must expose a ``gaps(ctx)`` staticmethod: a generator yielding
    inter-arrival gaps in simulated microseconds for one arrival stream (the
    ``ctx`` is an :class:`repro.arrivals.ArrivalContext`).  It may also expose
    ``check_params(params)`` to validate parameter *values* eagerly.
    ``params`` maps the kind's optional parameters to their defaults; an
    :class:`repro.arrivals.ArrivalSpec` naming this kind validates its
    parameters against them at construction, with did-you-mean hints.
    """
    params = dict(params or {})
    _check_reserved(ARRIVAL_REGISTRY, name, params, _ARRIVAL_RESERVED_FIELDS)
    return ARRIVAL_REGISTRY.register(
        name, replace=replace,
        params=params, open_loop=bool(open_loop), description=description,
    )


def register_scale(scale: Any = None, *, replace: bool = False, description: str = ""):
    """Register a :class:`repro.scales.BenchScale` preset under its own name.

    Usable as a plain call (``register_scale(BenchScale(...))``) or as a
    decorator on a zero-argument factory function whose result is registered::

        @register_scale
        def huge():
            return BenchScale(name="huge", ...)

    The new name is immediately accepted by ``ScenarioSpec.scale``,
    ``repro.scales.resolve_scale`` and ``python -m repro.bench --scale``.
    """
    if scale is None:
        def decorator(target):
            register_scale(target, replace=replace, description=description)
            return target
        return decorator
    if callable(scale) and not hasattr(scale, "name"):
        produced = scale()
        register_scale(produced, replace=replace, description=description)
        return scale
    SCALE_REGISTRY.register(scale.name, scale, replace=replace,
                            description=description)
    return scale
