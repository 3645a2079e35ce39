"""Deterministic random number generation for workloads.

Provides a seeded wrapper around :mod:`random` plus a Zipfian generator using
the classic Gray et al. (SIGMOD '94) rejection-free method, which is what YCSB
and DBx1000 use.  Every worker gets its own :class:`DeterministicRandom`
derived from the run seed so that simulations are exactly reproducible.

The Zipf sampler is the analytic inverse-CDF approximation with all per-draw
constants hoisted at construction time, so a draw is one uniform, two
comparisons and at most one ``pow``.  The determinism goldens are pinned to
it: it consumes exactly one uniform per draw and reproduces the seed
repository's key stream bit-for-bit.
"""

from __future__ import annotations

import math
import random
from zlib import crc32

__all__ = [
    "DeterministicRandom",
    "ZipfGenerator",
    "derive_seed",
    "stable_hash",
]


def derive_seed(base_seed: int, *components: int) -> int:
    """Derive a child seed from a base seed and a tuple of integer components."""
    seed = base_seed & 0xFFFFFFFFFFFFFFFF
    for component in components:
        seed = (seed * 1_000_003 + (component + 0x9E3779B9)) & 0xFFFFFFFFFFFFFFFF
    return seed


def stable_hash(label: str) -> int:
    """Process-independent 32-bit hash of a string label.

    ``hash(str)`` is randomized per interpreter process (PYTHONHASHSEED), so
    deriving worker seeds from it silently made every run unique.  All seed
    derivation goes through this function instead, which is what makes the
    fixed-seed determinism gate (``scripts/bench_gate.py --check``) possible.
    """
    return crc32(label.encode("utf-8")) & 0xFFFFFFFF


#: TPC-C's last-name syllables (clause 4.3.2.3), indexed by digit.
_SYLLABLES = ("BAR", "OUGHT", "ABLE", "PRI", "PRES",
              "ESE", "ANTI", "CALLY", "ATION", "EING")


class DeterministicRandom:
    """Seeded random source with the helpers workloads need."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)
        # Bind the hot entry points straight to the underlying C methods:
        # workload inner loops call these millions of times per run.
        self.random = self._rng.random
        self.uniform = self._rng.uniform
        self.choice = self._rng.choice
        self.shuffle = self._rng.shuffle
        self._randbelow = self._rng._randbelow

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive.

        The draw ``random.Random.randint`` makes (``low + _randbelow(width)``
        in CPython 3.10-3.12), without its two Python frames; like it, an
        empty range raises ``ValueError`` (``_randbelow(0)`` never returns).
        """
        width = high - low + 1
        if width <= 0:
            raise ValueError(f"empty range for uniform_int({low}, {high})")
        return low + self._randbelow(width)

    def boolean(self, probability_true: float) -> bool:
        return self._rng.random() < probability_true

    def exponential(self, mean: float) -> float:
        return self._rng.expovariate(1.0 / mean) if mean > 0 else 0.0

    def nurand(self, a: int, x: int, y: int, c: int = 123) -> int:
        """TPC-C NURand non-uniform distribution."""
        return (((self.uniform_int(0, a) | self.uniform_int(x, y)) + c) % (y - x + 1)) + x

    def last_name(self, number: int) -> str:
        """TPC-C customer last-name syllable encoding."""
        return (
            _SYLLABLES[(number // 100) % 10]
            + _SYLLABLES[(number // 10) % 10]
            + _SYLLABLES[number % 10]
        )


class ZipfGenerator:
    """Zipfian key generator over ``[0, n_items)`` with skew ``theta``.

    ``theta = 0`` degenerates to uniform; ``theta -> 1`` concentrates accesses
    on a few hot keys.  The zeta constants are memoised per ``(n, theta)`` to
    keep repeated workload construction cheap.
    """

    _zeta_cache: dict[tuple[int, float], float] = {}

    def __init__(self, n_items: int, theta: float, rng: DeterministicRandom):
        if n_items <= 0:
            raise ValueError("ZipfGenerator requires at least one item")
        if not 0.0 <= theta < 1.0:
            raise ValueError("theta must be in [0, 1)")
        self.n_items = n_items
        self.theta = theta
        self._rng = rng
        self._random = rng.random
        if theta == 0.0:
            self.next = self._next_uniform
            return
        self._zetan = self._zeta(n_items, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        denominator = 1.0 - self._zeta2 / self._zetan
        if denominator == 0.0:
            # n_items == 2: the analytic tail below is unreachable (every
            # uz < zetan maps to key 0 or 1), so eta's value is irrelevant —
            # but the seed code divided by zero here.
            self._eta = 0.0
        else:
            self._eta = (1.0 - math.pow(2.0 / n_items, 1.0 - theta)) / denominator
        # Per-draw constants hoisted out of next(): the seed code recomputed
        # pow(0.5, theta) on every draw.
        self._cut2 = 1.0 + math.pow(0.5, theta)

    @classmethod
    def _zeta(cls, n: int, theta: float) -> float:
        key = (n, theta)
        if key not in cls._zeta_cache:
            cls._zeta_cache[key] = sum(1.0 / math.pow(i, theta) for i in range(1, n + 1))
        return cls._zeta_cache[key]

    def _next_uniform(self) -> int:
        return self._rng.uniform_int(0, self.n_items - 1)

    def next(self) -> int:
        """Draw the next key in ``[0, n_items)``.

        (Rebound per instance in ``__init__`` to the uniform fast path when
        ``theta == 0``; this body is the Gray et al. analytic method.)
        """
        u = self._random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._cut2:
            return 1
        return int(self.n_items * (self._eta * u - self._eta + 1.0) ** self._alpha)
