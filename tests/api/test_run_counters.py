"""The run's one counter surface: every name a run emits is declared once.

``repro.sim.stats.COUNTERS`` declares each run counter with its meaning, and
README's "Run counters" table documents the same names.  An increment runs
no check against the declaration, so this test does: it runs every
registered protocol on ycsb, the standard storm and an open loop, all at
``tiny``, and compares the names they emit with the declaration.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
from repro.registry import PROTOCOL_REGISTRY
from repro.scenario import ScenarioSpec, build
from repro.sim.stats import COUNTERS

README = Path(__file__).resolve().parents[2] / "README.md"

SHORT = {"duration_us": 5_000.0, "warmup_us": 1_000.0}


def specs() -> list[ScenarioSpec]:
    runs = [ScenarioSpec(protocol=name, workload="ycsb", scale="tiny", config_overrides=SHORT)
            for name in PROTOCOL_REGISTRY.names()]
    runs.append(ScenarioSpec(
        protocol="primo", workload="ycsb", scale="tiny",
        config_overrides={"duration_us": 30_000.0, "heartbeat_interval_us": 500.0,
                          "heartbeat_timeout_us": 2_000.0},
        faults=repro.standard_storm(2_000.0, 30_000.0)))
    runs.append(ScenarioSpec(
        protocol="sundial", workload="ycsb", scale="tiny",
        config_overrides={**SHORT, "admission_queue_depth": 4},
        arrival={"kind": "poisson", "rate_tps": 400_000}))
    return runs


def test_every_emitted_counter_is_declared():
    emitted: set[str] = set()
    for spec in specs():
        cluster = build(spec)
        result = cluster.run()
        assert cluster.counters is cluster.metrics.counters is result.metrics.counters
        emitted.update(result.metrics.counters.as_dict())
    undeclared = sorted(emitted - set(COUNTERS))
    assert not undeclared, f"counters missing from COUNTERS: {undeclared}"
    # The sweep reaches the network, the log, the storm and the open loop.
    assert {"rpc_calls", "one_way_messages", "log_flushes", "aria_batches",
            "crashes_injected", "recoveries_completed", "arrivals_dropped"} <= emitted


def test_readme_counters_table_lists_exactly_the_declared_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Run counters", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([a-z0-9_]+)` \|", section, re.MULTILINE)
    assert len(documented) == len(set(documented))
    assert set(documented) == set(COUNTERS)
