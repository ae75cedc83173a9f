"""The telemetry event schema and its validator.

Every event written to a JSONL sink is one flat dict:

``v``
    Schema version (currently 1).
``seq``
    Deterministic :class:`~repro.telemetry.clock.StepClock` timestamp —
    a non-negative integer, non-decreasing within one sink's stream.
``kind``
    One of :data:`EVENT_KINDS` (the subsystem that produced the event).
``name``
    The event's identifier within its kind (a stage name, a bug id, …).
``fields`` (optional)
    A dict of JSON-scalar details.
``wall`` (optional)
    A wall-clock annotation in seconds.  Wall readings live *only* here
    and in the metrics ``wall`` namespace; they never enter
    determinism-compared state.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_VERSION = 1

#: Every subsystem that emits events.
EVENT_KINDS = frozenset(
    {
        "campaign",  # campaign lifecycle (start/end)
        "step",      # fuzzer steps that kept a mutant or crashed
        "crash",     # a new unique crash/hang discovery
        "coverage",  # coverage-trend samples
        "span",      # pipeline-stage spans (lex/parse/sema/irgen/opt/backend/…)
        "llm",       # LLM requests / invocations
        "retry",     # retry/backoff events (resilience layer)
        "quarantine",  # mutator circuit-breaker trips
        "cell",      # campaign-grid cell lifecycle (fabric supervisor)
        "fabric",    # lease/worker lifecycle (fabric supervisor)
    }
)

_ALLOWED_KEYS = frozenset({"v", "seq", "kind", "name", "fields", "wall"})
_SCALARS = (str, int, float, bool, type(None))


class EventSchemaError(ValueError):
    """An event violates the telemetry schema."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise EventSchemaError(message)


def validate_event(event: object) -> None:
    """Raise :class:`EventSchemaError` unless ``event`` matches the schema."""
    _check(isinstance(event, dict), f"event is not a dict: {event!r}")
    assert isinstance(event, dict)
    extra = set(event) - _ALLOWED_KEYS
    _check(not extra, f"unknown event keys {sorted(extra)}")
    _check(event.get("v") == SCHEMA_VERSION, f"bad schema version {event.get('v')!r}")
    seq = event.get("seq")
    _check(isinstance(seq, int) and not isinstance(seq, bool) and seq >= 0,
           f"bad seq {seq!r}")
    _check(event.get("kind") in EVENT_KINDS, f"unknown kind {event.get('kind')!r}")
    _check(isinstance(event.get("name"), str) and bool(event["name"]),
           f"bad name {event.get('name')!r}")
    if "wall" in event:
        wall = event["wall"]
        _check(isinstance(wall, (int, float)) and not isinstance(wall, bool)
               and wall >= 0, f"bad wall annotation {wall!r}")
    if "fields" in event:
        fields = event["fields"]
        _check(isinstance(fields, dict), f"fields is not a dict: {fields!r}")
        for key, value in fields.items():
            _check(isinstance(key, str), f"non-string field key {key!r}")
            _check(
                isinstance(value, _SCALARS)
                or (isinstance(value, list)
                    and all(isinstance(v, _SCALARS) or isinstance(v, list)
                            for v in value)),
                f"field {key!r} is not JSON-scalar shaped: {value!r}",
            )


def validate_jsonl(path: str | Path) -> int:
    """Validate one JSONL event file; returns the number of events.

    Checks every line parses, matches the schema, and that ``seq`` is
    non-decreasing within the file (rotation splits one stream over several
    files, so cross-file ordering is the caller's concern).
    """
    count = 0
    last_seq = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise EventSchemaError(f"{path}:{lineno}: not JSON: {exc}") from exc
            try:
                validate_event(event)
            except EventSchemaError as exc:
                raise EventSchemaError(f"{path}:{lineno}: {exc}") from exc
            _check(event["seq"] >= last_seq,
                   f"{path}:{lineno}: seq went backwards "
                   f"({event['seq']} < {last_seq})")
            last_seq = event["seq"]
            count += 1
    return count
