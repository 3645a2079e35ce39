"""The commit path of every registered protocol, pinned.

Two halves:

* **Goldens.**  For every registered protocol (plus Primo's 2PC fallback) one
  fixed-seed tuple ``(committed, aborted, network_messages,
  sorted(abort_reasons), final clock)`` on a contended ``tiny`` YCSB (zipf
  0.9, 50 % distributed, 40 % blind writes) and on ``tiny`` TPC-C.  They were
  captured at 0da5693, *before* the commit phase was folded into one path,
  and must not move unless a PR changes commit semantics on purpose (then:
  regenerate here, in ``tests/integration/test_determinism.py`` and in
  ``BENCH_substrate.json`` in the same commit).  Messages and abort reasons
  are pinned because the other goldens pin neither — an ABORT sent twice or a
  site reporting another reason changes no commit count.
* **Structure.**  The attempt skeleton, the 2PC rounds and the abort round
  exist once; a protocol supplies hooks.
"""

import pytest

from repro.protocols import BaseProtocol, TwoPhaseCommitProtocol
from repro.registry import PROTOCOL_REGISTRY
from repro.scenario import ScenarioSpec, build

CONTENDED_YCSB = dict(workload="ycsb", workload_overrides={
    "zipf_theta": 0.9, "distributed_pct": 0.5, "blind_write_pct": 0.4})
TPCC = dict(workload="tpcc")
FALLBACK = {"primo_fallback_to_2pc": True}

# (protocol, workload) -> (committed, aborted, network_messages,
#                          sorted(abort_reasons.items()), final simulated time)
GOLDEN = {
    ("2pl_nw", "ycsb"): (56, 22, 249, [("lock_conflict", 22)], 38000.0),
    ("2pl_wd", "ycsb"): (134, 29, 438, [("lock_conflict", 29)], 38000.0),
    ("aria", "ycsb"): (26, 214, 246, [("reservation", 214)], 38000.0),
    ("primo", "ycsb"): (201, 24, 412, [("lock_conflict", 16), ("mode_switch", 4),
                                       ("validation", 4)], 38000.0),
    ("primo+2pc", "ycsb"): (146, 20, 541, [("lock_conflict", 19), ("validation", 1)], 38000.0),
    ("silo", "ycsb"): (118, 24, 466, [("lock_conflict", 18), ("validation", 6)], 38000.0),
    ("sundial", "ycsb"): (146, 20, 517, [("lock_conflict", 19), ("validation", 1)], 38000.0),
    ("tapir", "ycsb"): (156, 32, 664, [("validation", 32)], 38000.0),
    ("2pl_nw", "tpcc"): (406, 32, 153, [("lock_conflict", 32)], 38000.0),
    ("2pl_wd", "tpcc"): (382, 30, 179, [("lock_conflict", 30)], 38000.0),
    ("aria", "tpcc"): (94, 546, 131, [("reservation", 546)], 38000.0),
    ("primo", "tpcc"): (698, 39, 207, [("lock_conflict", 15), ("mode_switch", 2),
                                       ("validation", 22)], 38000.0),
    ("primo+2pc", "tpcc"): (377, 33, 202, [("lock_conflict", 12), ("validation", 21)], 38000.0),
    ("silo", "tpcc"): (370, 32, 176, [("lock_conflict", 10), ("validation", 22)], 38000.0),
    ("sundial", "tpcc"): (377, 33, 178, [("lock_conflict", 12), ("validation", 21)], 38000.0),
    ("tapir", "tpcc"): (518, 27, 755, [("validation", 27)], 38000.0),
}


def test_every_registered_protocol_has_a_golden():
    assert {p for p, _ in GOLDEN} - {"primo+2pc"} == set(PROTOCOL_REGISTRY.names())


@pytest.mark.parametrize("protocol,workload", sorted(GOLDEN))
def test_fixed_seed_commit_path_matches_golden(protocol, workload):
    name, _, fallback = protocol.partition("+")
    spec = ScenarioSpec(protocol=name, scale="tiny",
                        config_overrides=FALLBACK if fallback else {},
                        **(CONTENDED_YCSB if workload == "ycsb" else TPCC))
    cluster = build(spec)
    result = cluster.run()
    assert (result.committed, result.aborted, result.network_messages,
            sorted(result.abort_reasons.items()), cluster.env.now) == GOLDEN[protocol, workload]


# -- structure: one attempt skeleton, one set of 2PC rounds, one abort round ----

TWO_PC_FAMILY = ("2pl_nw", "2pl_wd", "silo", "sundial")


@pytest.mark.parametrize("protocol", TWO_PC_FAMILY + ("tapir",))
def test_the_attempt_skeleton_is_the_shared_one(protocol):
    assert PROTOCOL_REGISTRY.get(protocol).run_transaction is BaseProtocol.run_transaction


@pytest.mark.parametrize("protocol", TWO_PC_FAMILY)
def test_the_2pc_family_supplies_prepare_work_not_a_commit_phase(protocol):
    cls = PROTOCOL_REGISTRY.get(protocol)
    assert cls.commit is TwoPhaseCommitProtocol.commit
    assert cls.two_phase_commit is TwoPhaseCommitProtocol.two_phase_commit
    assert cls.prepare_partition is not TwoPhaseCommitProtocol.prepare_partition


@pytest.mark.parametrize("protocol", PROTOCOL_REGISTRY.names())
def test_no_protocol_carries_its_own_copy_of_the_shared_commit_steps(protocol):
    copies = {"commit_local", "commit_participant", "_cleanup_abort", "_abort_everywhere"}
    for cls in PROTOCOL_REGISTRY.get(protocol).__mro__:
        assert not copies & set(vars(cls)), cls
