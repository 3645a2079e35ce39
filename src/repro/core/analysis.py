"""Theoretical conflict-rate model of Appendix A.

Implements equations (1)–(6): the probability that a representative local
transaction conflicts with a concurrent transaction under a 2PC-based scheme
versus under Primo, and the resulting conflict rates given the workload and
cluster parameters.  The ``appendix`` figure (``repro.bench``) sweeps the read
ratio and contention exactly as the appendix discusses (Primo wins for
``R_r < 0.8`` with the conservative ``R_u = 0.6``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AnalysisParameters", "ConflictRateModel"]


@dataclass
class AnalysisParameters:
    """Workload/cluster parameters of Appendix A."""

    n_partitions: int = 4            # n
    threads_per_server: int = 16     # h
    keys_per_transaction: int = 10   # m
    read_ratio: float = 0.5          # R_r
    distributed_ratio: float = 0.2   # R_d
    contention: float = 1e-5         # P_c: P(two ops touch the same record)
    rts_update_ratio: float = 0.6    # R_u (conservative max observed)
    local_txn_duration_us: float = 20.0    # t_l
    remote_access_duration_us: float = 100.0  # t_r
    concurrent_local_txns: float = 32.0       # N_l

    def validate(self) -> None:
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        if not 0.0 <= self.distributed_ratio <= 1.0:
            raise ValueError("distributed_ratio must be in [0, 1]")
        if not 0.0 <= self.rts_update_ratio <= 1.0:
            raise ValueError("rts_update_ratio must be in [0, 1]")
        if not 0.0 <= self.contention <= 1.0:
            raise ValueError("contention must be a probability")


class ConflictRateModel:
    """Closed-form conflict rates CR_2PC and CR_Primo (equations 1–6)."""

    def __init__(self, params: AnalysisParameters):
        params.validate()
        self.params = params

    # -- probability that T_l conflicts with one given concurrent transaction ---
    def conflict_with_one_2pc(self) -> float:
        """Equation (1)."""
        p = self.params
        exponent = p.keys_per_transaction ** 2 * (1.0 - p.read_ratio ** 2)
        return 1.0 - (1.0 - p.contention) ** exponent

    def conflict_with_one_primo_local(self) -> float:
        """C_Primo_l = C_2PC (local transactions behave identically)."""
        return self.conflict_with_one_2pc()

    def conflict_with_one_primo_distributed(self) -> float:
        """Equation (2)."""
        p = self.params
        exponent = p.keys_per_transaction ** 2 * (
            1.0 - p.read_ratio ** 2 + p.read_ratio ** 2 * p.rts_update_ratio
        )
        return 1.0 - (1.0 - p.contention) ** exponent

    # -- number of concurrent distributed transactions ---------------------------
    def concurrent_distributed_2pc(self) -> float:
        """Equation (3)."""
        p = self.params
        return (
            p.distributed_ratio
            * p.n_partitions
            * p.threads_per_server
            * (2.0 + 2.0 * p.remote_access_duration_us / p.local_txn_duration_us)
        )

    def concurrent_distributed_primo(self) -> float:
        """Equation (4)."""
        p = self.params
        return (
            p.distributed_ratio
            * p.n_partitions
            * p.threads_per_server
            * (2.0 + p.remote_access_duration_us / p.local_txn_duration_us)
        )

    # -- conflict rate of the representative local transaction ---------------------
    def conflict_rate_2pc(self) -> float:
        """Equation (5)."""
        p = self.params
        c_one = self.conflict_with_one_2pc()
        n_distributed = self.concurrent_distributed_2pc()
        no_conflict = (1.0 - c_one) ** (n_distributed + p.concurrent_local_txns)
        return 1.0 - no_conflict

    def conflict_rate_primo(self) -> float:
        """Equation (6)."""
        p = self.params
        c_local = self.conflict_with_one_primo_local()
        c_distributed = self.conflict_with_one_primo_distributed()
        n_distributed = self.concurrent_distributed_primo()
        no_conflict = ((1.0 - c_distributed) ** n_distributed) * (
            (1.0 - c_local) ** p.concurrent_local_txns
        )
        return 1.0 - no_conflict

    def primo_wins(self) -> bool:
        """Does the model predict fewer conflicts under Primo?"""
        return self.conflict_rate_primo() <= self.conflict_rate_2pc()

    # -- sweeps used by the appendix bench -------------------------------------------
    @staticmethod
    def sweep_read_ratio(base: AnalysisParameters, read_ratios) -> list[dict]:
        rows = []
        for read_ratio in read_ratios:
            params = AnalysisParameters(**{**base.__dict__, "read_ratio": read_ratio})
            model = ConflictRateModel(params)
            rows.append(
                {
                    "read_ratio": read_ratio,
                    "cr_2pc": model.conflict_rate_2pc(),
                    "cr_primo": model.conflict_rate_primo(),
                    "primo_wins": model.primo_wins(),
                }
            )
        return rows
