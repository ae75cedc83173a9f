"""Unified telemetry: deterministic counters, span tracing, JSONL events.

The paper's evaluation is observational — coverage curves, unique-crash
timelines, per-module bug censuses (§5.1, Tables 5-7) — so the reproduction
carries one telemetry layer through every subsystem:

* :class:`TelemetrySession` — one run's deterministic ``counters`` (a
  fuzzer's ``stats`` *is* this dict) and its ``wall`` span totals, which
  are kept strictly out of determinism-compared state;
* :mod:`repro.telemetry.metrics` — :func:`merge_stats`, the deterministic
  fold of per-cell stats snapshots into one grid summary;
* :mod:`repro.telemetry.spans` — pipeline-stage tracing
  (lex/parse/sema/irgen/opt/backend, mutation, LLM stages);
* :mod:`repro.telemetry.sink` / :mod:`repro.telemetry.events` — a rotated
  JSONL event stream with a validated schema and deterministic step-clock
  timestamps;
* :mod:`repro.telemetry.report` — crash-triage reports (per-module census,
  discovery timeline, trigger pointers) rendered from campaign results.

Determinism contract: telemetry on vs. off produces bit-identical fuzzing
results.  Emission consumes no RNG, wall-clock readings live only in event
annotations and the session's ``wall`` totals, and sink bookkeeping stays on
the sink object.
"""

from __future__ import annotations

import os

from repro.telemetry.clock import StepClock
from repro.telemetry.events import SCHEMA_VERSION, validate_event, validate_jsonl
from repro.telemetry.metrics import merge_stats
from repro.telemetry.sink import JSONLSink
from repro.telemetry.spans import Span, Tracer, span

__all__ = [
    "JSONLSink",
    "SCHEMA_VERSION",
    "Span",
    "StepClock",
    "TelemetrySession",
    "Tracer",
    "merge_stats",
    "span",
    "validate_event",
    "validate_jsonl",
]


class TelemetrySession:
    """One run's telemetry: counters, wall totals, a clock, a tracer, a sink.

    Every fuzzer owns a session; by default it is sink-less, so only the
    deterministic ``counters`` (which back ``stats_snapshot()``) and the
    ``wall`` span totals are live.  Attach a :class:`JSONLSink` (or pass
    one here) to additionally stream schema-validated events.
    """

    def __init__(self, sink=None, clock: StepClock | None = None) -> None:
        self.clock = clock if clock is not None else StepClock()
        #: Deterministic cumulative counters: a fuzzer's ``self.stats`` is
        #: this dict, so ``stats_snapshot()`` reads it directly.
        self.counters: dict = {}
        #: Wall-clock seconds by span name; spans accumulate here.  Never
        #: part of compared state (``profile_snapshot()`` reports it).
        self.wall: dict = {}
        self.sink = sink
        self.tracer = Tracer(timings=self.wall, sink=sink, clock=self.clock)

    @classmethod
    def to_jsonl(cls, path: str | os.PathLike, **sink_kwargs) -> "TelemetrySession":
        """A session streaming events to a rotated JSONL file."""
        return cls(sink=JSONLSink(path, **sink_kwargs))

    @property
    def enabled(self) -> bool:
        """Whether an event sink is attached."""
        return self.sink is not None

    def emit(
        self, kind: str, name: str, wall: float | None = None, /, **fields
    ) -> None:
        """Write one event to the sink (a no-op when none is attached).

        ``kind``/``name``/``wall`` are positional-only so event *fields* may
        freely use those names (e.g. a crash's ``kind=...`` detail).
        """
        if self.sink is None:
            return
        event: dict = {
            "v": SCHEMA_VERSION,
            "seq": self.clock.tick(),
            "kind": kind,
            "name": name,
        }
        if fields:
            event["fields"] = fields
        if wall is not None:
            event["wall"] = wall
        self.sink.write(event)

    def span(self, name: str, **fields) -> Span:
        """A traced span accumulating into this session's wall profile."""
        return self.tracer.span(name, **fields)

    def attach_compiler(self, compiler) -> None:
        """Route the compiler's stage spans into this session's sink/clock.

        The compiler keeps accumulating wall seconds into its own
        ``stage_timings``; attaching only adds event emission on the shared
        step clock.
        """
        compiler.tracer.sink = self.sink
        compiler.tracer.clock = self.clock

    def flush(self) -> None:
        if self.sink is not None:
            self.sink.flush()

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
