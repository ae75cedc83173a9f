"""A per-mutator circuit breaker (quarantine) with fitness retirement.

A generated mutator that crashes or hangs once is noise; one that fails on
every draw burns the fuzzer's per-iteration timeslice for the whole
campaign.  The breaker counts *consecutive* failures per mutator and
quarantines a mutator for the rest of the run once the count reaches the
threshold; any success resets its count.  Only a *changed* application
counts as a success — a mutator whose non-crashing draws are all no-ops
must not dodge the breaker (the fuzzer enforces this by recording success
after the changed check).

The quarantine also tracks the scheduler's population management
(:mod:`repro.fuzzing.schedule`): :meth:`retire` permanently removes a
chronic low-fitness mutator and surfaces the retired set in
:meth:`stats`.  All state transitions are pure functions of
the observed event sequence, so quarantine and retirement decisions are
deterministic and identical across serial, parallel, and fabric campaign
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class QuarantineEvent:
    """One mutator crossing the threshold (or being retired)."""

    mutator: str
    failures: int
    reason: str = ""


@dataclass
class MutatorQuarantine:
    """Consecutive-failure circuit breaker over mutator names.

    ``threshold=None`` disables the breaker itself (failures are counted
    but never trip) while keeping the retirement bookkeeping available —
    the scheduler uses that mode when no crash-quarantine was requested.
    """

    threshold: int | None = 3
    events: list[QuarantineEvent] = field(default_factory=list)
    #: One event per retirement, in retirement order.
    retirements: list[QuarantineEvent] = field(default_factory=list)
    _consecutive: dict[str, int] = field(default_factory=dict)
    _quarantined: set[str] = field(default_factory=set)
    _retired: dict[str, str] = field(default_factory=dict)

    def allows(self, name: str) -> bool:
        """Whether the mutator may still be scheduled."""
        return name not in self._quarantined and name not in self._retired

    def record_success(self, name: str) -> None:
        """A clean *changed* application resets the consecutive count."""
        self._consecutive.pop(name, None)

    def record_failure(self, name: str, reason: str = "") -> bool:
        """Count one crash/hang; returns True iff this tripped the breaker."""
        if name in self._quarantined or name in self._retired:
            return False
        count = self._consecutive.get(name, 0) + 1
        self._consecutive[name] = count
        if self.threshold is None or count < self.threshold:
            return False
        self._quarantined.add(name)
        self.events.append(QuarantineEvent(name, count, reason))
        return True

    def retire(self, name: str, reason: str = "low-fitness") -> bool:
        """Permanently retire a mutator; True iff newly retired.

        Retirement is the scheduler's fitness verdict, not a crash verdict:
        it is recorded separately from breaker events.
        """
        if name in self._retired:
            return False
        self._retired[name] = reason
        self.retirements.append(
            QuarantineEvent(name, self._consecutive.get(name, 0), reason)
        )
        return True

    @property
    def quarantined(self) -> set[str]:
        return set(self._quarantined)

    @property
    def retired(self) -> set[str]:
        return set(self._retired)

    def stats(self) -> dict:
        """Summary for ``StepResult``/``CampaignResult`` stats dicts."""
        return {
            "quarantine_threshold": self.threshold,
            "quarantine_events": len(self.events),
            "quarantined_mutators": sorted(self._quarantined),
            "retirements": len(self._retired),
            "retired_mutators": sorted(self._retired),
        }
