"""A per-mutator circuit breaker (quarantine).

A generated mutator that crashes or hangs once is noise; one that fails on
every draw burns the fuzzer's per-iteration timeslice for the whole
campaign.  The breaker counts *consecutive* failures per mutator and
quarantines a mutator for the rest of the run once the count reaches the
threshold; any success resets its count.  Only a *changed* application
counts as a success — a mutator whose non-crashing draws are all no-ops
must not dodge the breaker (the fuzzer enforces this by recording success
after the changed check).

The breaker records each trip once, as a :class:`QuarantineEvent`; the
fuzzer that fed it the tripping failure emits the one ``quarantine``
telemetry event.  Retiring a low-fitness mutator is a different verdict,
kept by the scheduler (:class:`repro.fuzzing.schedule.MutatorScheduler`).
All state transitions are pure functions of the observed event sequence,
so quarantine decisions are deterministic and identical across serial,
parallel, and fabric campaign runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class QuarantineEvent:
    """One mutator crossing the threshold."""

    mutator: str
    failures: int
    reason: str = ""


@dataclass
class MutatorQuarantine:
    """Consecutive-failure circuit breaker over mutator names."""

    threshold: int = 3
    events: list[QuarantineEvent] = field(default_factory=list)
    _consecutive: dict[str, int] = field(default_factory=dict)
    _quarantined: set[str] = field(default_factory=set)

    def allows(self, name: str) -> bool:
        """Whether the mutator may still be scheduled."""
        return name not in self._quarantined

    def record_success(self, name: str) -> None:
        """A clean *changed* application resets the consecutive count."""
        self._consecutive.pop(name, None)

    def record_failure(self, name: str, reason: str = "") -> bool:
        """Count one crash/hang; returns True iff this tripped the breaker."""
        if name in self._quarantined:
            return False
        count = self._consecutive.get(name, 0) + 1
        self._consecutive[name] = count
        if count < self.threshold:
            return False
        self._quarantined.add(name)
        self.events.append(QuarantineEvent(name, count, reason))
        return True

    def stats(self) -> dict:
        """Summary for the fuzzer's (and so ``CampaignResult``'s) stats."""
        return {
            "quarantine_threshold": self.threshold,
            "quarantine_events": len(self.events),
            "quarantined_mutators": sorted(self._quarantined),
        }
