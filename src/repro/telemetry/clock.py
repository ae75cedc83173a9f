"""The deterministic step clock telemetry timestamps come from.

Wall-clock timestamps are real and machine-dependent, so they can never be
part of determinism-compared state (the serial==parallel==incremental
contract on campaign results).  Telemetry therefore timestamps every event
with a :class:`StepClock` *sequence number* — a plain counter that advances
once per recorded event — and keeps wall-clock readings strictly as
annotations (the ``wall`` field of an event, the ``wall`` span totals of a
:class:`~repro.telemetry.TelemetrySession`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StepClock:
    """A monotonically increasing event sequence counter."""

    seq: int = 0

    def tick(self) -> int:
        """Advance the clock and return the new timestamp."""
        self.seq += 1
        return self.seq

    def peek(self) -> int:
        """The current timestamp without advancing."""
        return self.seq
