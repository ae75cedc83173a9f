"""Token / QA-round / latency cost models, calibrated to Tables 2-3.

All times are *virtual* seconds — nothing sleeps.  The samplers are clipped
lognormals whose parameters were chosen so that a 100-run campaign lands near
the paper's reported min/max/median/mean.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: GPT-4 ChatCompletion pricing the paper's ~$0.5/mutator figure implies.
USD_PER_1K_TOKENS = 0.06


def _lognormal(rng: random.Random, median: float, sigma: float, lo: float, hi: float) -> float:
    value = median * math.exp(rng.gauss(0.0, sigma))
    return min(max(value, lo), hi)


def sample_invention_tokens(rng: random.Random) -> int:
    return int(_lognormal(rng, 1130, 0.35, 359, 2240))


def sample_implementation_tokens(rng: random.Random) -> int:
    return int(_lognormal(rng, 2488, 0.35, 372, 3870))


def sample_bugfix_round_tokens(rng: random.Random) -> int:
    # ~4 rounds consume ~4,935 tokens on average, long tail up to ~31k total.
    return int(_lognormal(rng, 1230, 0.58, 335, 8600))


def sample_wait_seconds(rng: random.Random) -> float:
    return _lognormal(rng, 40, 0.45, 11, 123)


def sample_prepare_seconds(rng: random.Random) -> float:
    return _lognormal(rng, 11, 0.75, 0.5, 69)


@dataclass
class StageCost:
    tokens: int = 0
    qa_rounds: int = 0
    seconds: float = 0.0

    def add(self, tokens: int, seconds: float, rounds: int = 1) -> None:
        self.tokens += tokens
        self.seconds += seconds
        self.qa_rounds += rounds


@dataclass
class MutatorCost:
    """Per-mutator generation cost, one row of the Table 2 population."""

    name: str
    invention: StageCost = field(default_factory=StageCost)
    implementation: StageCost = field(default_factory=StageCost)
    bugfix: StageCost = field(default_factory=StageCost)
    wait_seconds: list[float] = field(default_factory=list)
    prepare_seconds: list[float] = field(default_factory=list)
    #: Throttled attempts absorbed by the retry policy, and the virtual
    #: seconds spent backing off before each eventual success.  Kept out of
    #: ``wait_seconds`` so Table 3's wait/prepare distributions stay pure;
    #: stage ``seconds`` totals include backoff so wall time stays honest.
    retries: int = 0
    backoff_seconds: list[float] = field(default_factory=list)

    def record_transport(self, usage) -> None:
        """Per-request latency/retry accounting shared by every stage."""
        self.wait_seconds.append(usage.wait_seconds)
        self.retries += usage.retries
        if usage.backoff_seconds:
            self.backoff_seconds.append(usage.backoff_seconds)

    @property
    def total_backoff_seconds(self) -> float:
        return sum(self.backoff_seconds)

    @property
    def total_tokens(self) -> int:
        return self.invention.tokens + self.implementation.tokens + self.bugfix.tokens

    @property
    def total_rounds(self) -> int:
        return (
            self.invention.qa_rounds
            + self.implementation.qa_rounds
            + self.bugfix.qa_rounds
        )

    @property
    def total_seconds(self) -> float:
        return (
            self.invention.seconds
            + self.implementation.seconds
            + self.bugfix.seconds
        )

    @property
    def usd(self) -> float:
        return self.total_tokens / 1000.0 * USD_PER_1K_TOKENS


@dataclass
class CostLedger:
    """All per-mutator costs of a generation campaign."""

    records: list[MutatorCost] = field(default_factory=list)

    def add(self, cost: MutatorCost) -> None:
        self.records.append(cost)

    def summarize(self, values: list[float]) -> dict[str, float]:
        if not values:
            return {"min": 0, "max": 0, "median": 0, "mean": 0}
        ordered = sorted(values)
        n = len(ordered)
        median = (
            ordered[n // 2]
            if n % 2
            else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
        )
        return {
            "min": ordered[0],
            "max": ordered[-1],
            "median": median,
            "mean": sum(ordered) / n,
        }

    def table2(self) -> dict[str, dict[str, dict[str, float]]]:
        """The Table 2 structure: metric -> stage -> min/max/median/mean."""
        rows = self.records
        return {
            "Tokens": {
                "Invention": self.summarize([r.invention.tokens for r in rows]),
                "Implementation": self.summarize(
                    [r.implementation.tokens for r in rows]
                ),
                "Bug-Fixing": self.summarize([r.bugfix.tokens for r in rows]),
                "Total": self.summarize([r.total_tokens for r in rows]),
            },
            "QA": {
                "Bug-Fixing": self.summarize(
                    [r.bugfix.qa_rounds for r in rows]
                ),
                "Total": self.summarize([r.total_rounds for r in rows]),
            },
            "Time": {
                "Invention": self.summarize([r.invention.seconds for r in rows]),
                "Implementation": self.summarize(
                    [r.implementation.seconds for r in rows]
                ),
                "Bug-Fixing": self.summarize([r.bugfix.seconds for r in rows]),
                "Total": self.summarize([r.total_seconds for r in rows]),
            },
        }

    def table3(self) -> dict[str, dict[str, float]]:
        """Request/response latency (Table 3)."""
        waits = [w for r in self.records for w in r.wait_seconds]
        prepares = [p for r in self.records for p in r.prepare_seconds]
        return {
            "Wait for Response (s)": self.summarize(waits),
            "Prepare for Request (s)": self.summarize(prepares),
        }

    def retry_stats(self) -> dict[str, float]:
        """Campaign-wide retry/backoff accounting (resilience layer)."""
        return {
            "retries": sum(r.retries for r in self.records),
            "backoff_seconds": sum(
                r.total_backoff_seconds for r in self.records
            ),
            "retried_mutators": sum(1 for r in self.records if r.retries),
        }

    def mean_usd(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.usd for r in self.records) / len(self.records)
