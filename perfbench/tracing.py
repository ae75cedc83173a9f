"""Span tracing for the benchmark's traced runs, from outside the library.

:func:`traced` installs wrappers around the public functions at each layer
boundary (mutation, front end, compile, middle end) and a ``gc.callbacks``
hook, and removes them on exit.  Every span records its name, start, end,
parent span and the id of the op it belongs to; spans stay in memory until
the round writes them out.  A span's self time is its duration minus the
part its children cover.  Garbage-collector pauses are spans too, children
of whatever span was open when the collection started, because the
library's own stage timings include the collections that land inside them.

Nothing under ``src/`` is changed: the wrappers replace module and class
attributes for the duration of the ``with`` block only.
"""

from __future__ import annotations

import functools
import gc
import json
from contextlib import contextmanager
from time import perf_counter

# Span record fields (records are small lists, so one append adds a span).
NAME, START, END, PARENT, OP, TAG = range(6)


class Recorder:
    """In-memory span store for one traced round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        #: Id of the op now running (None between ops).
        self.op: int | None = None
        #: Source bytes handed to the cold front end.
        self.analyze_bytes = 0
        #: ``apply_mutator`` calls that changed the program.
        self.changed = 0

    def open(self, name: str, tag=None) -> int:
        parent = self._open[-1] if self._open else -1
        # Building the record may trigger a collection; its span then
        # completes before this one is appended, so the stack stays sound.
        record = [name, 0.0, 0.0, parent, self.op, tag]
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        record[START] = perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._open.pop()

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.open("gc", info["generation"])
        else:
            self.close(self._open[-1])

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, op, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _wrap(recorder: Recorder, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


@contextmanager
def traced(recorder: Recorder):
    """Install the layer wrappers and the GC hook; restore on exit."""
    import repro.cast.cache as cache_mod
    import repro.compiler.driver as driver
    import repro.fuzzing.macro as macro
    import repro.fuzzing.mucfuzz as mucfuzz
    from repro.cast.cache import FrontendCache
    from repro.compiler.driver import Compiler

    def count_changed(args, outcome) -> None:
        if outcome.changed:
            recorder.changed += 1

    def count_bytes(args, entry) -> None:
        recorder.analyze_bytes += len(args[0].encode("utf-8", "replace"))

    patches = [
        (mucfuzz, "apply_mutator", "muast", count_changed),
        (macro, "apply_mutator", "muast", count_changed),
        (FrontendCache, "front_end", "cast.front_end", None),
        (FrontendCache, "front_end_incremental", "cast.incremental", None),
        (cache_mod, "analyze_front_end", "cast.analyze", count_bytes),
        (driver, "analyze_front_end", "cast.analyze", count_bytes),
        (Compiler, "compile", "compiler.compile", None),
        (Compiler, "compile_batch", "compiler.batch", None),
        (driver, "lower_and_optimize", "compiler.middle", None),
        (driver, "lower_and_optimize_session", "compiler.middle", None),
    ]
    originals = []
    try:
        for owner, attr, name, on_result in patches:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original, on_result))
        gc.callbacks.append(recorder._gc_callback)
        yield recorder
    finally:
        if recorder._gc_callback in gc.callbacks:
            gc.callbacks.remove(recorder._gc_callback)
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    covered = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            covered[record[PARENT]] += record[END] - record[START]
    return [r[END] - r[START] - covered[i] for i, r in enumerate(spans)]


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans outside their parent, across ops, or with negative self time."""
    errors = []
    for i, record in enumerate(spans):
        if record[END] < record[START]:
            errors.append(f"span {i} ({record[NAME]}) ends before it starts")
        parent = record[PARENT]
        if parent < 0:
            continue
        outer = spans[parent]
        if not outer[START] <= record[START] <= record[END] <= outer[END]:
            errors.append(f"span {i} ({record[NAME]}) leaves parent {parent}")
        if outer[OP] != record[OP]:
            errors.append(f"span {i} ({record[NAME]}) has another op id")
    for i, own in enumerate(self_times(spans)):
        if own < 0:
            errors.append(f"span {i} ({spans[i][NAME]}) has self time {own}")
    return errors


#: Span names -> the layer their self time is billed to.
LAYER_OF = {
    "op": "fuzzing",
    "muast": "muast",
    "cast.front_end": "cast.front_end",
    "cast.analyze": "cast.front_end",
    "cast.incremental": "cast.incremental",
    "compiler.compile": "compiler",
    "compiler.batch": "compiler",
    "compiler.middle": "compiler.middle",
    "gc": "gc",
}


def layer_metrics(recorder: Recorder, ops: int, op_wall_s: float) -> dict:
    """Per-op layer numbers from one traced round's spans.

    ``op_wall_s`` is the steps' summed wall time, without the benchmark's
    bookkeeping and reference samples between them.
    """
    spans = recorder.spans
    own = self_times(spans)
    self_s: dict[str, float] = dict.fromkeys(set(LAYER_OF.values()), 0.0)
    calls: dict[str, int] = dict.fromkeys(LAYER_OF, 0)
    middle_total = analyze_self = attributed = 0.0
    full_collections = 0
    for record, seconds in zip(spans, own):
        name = record[NAME]
        self_s[LAYER_OF[name]] += seconds
        calls[name] += 1
        if record[OP] is not None:
            attributed += seconds
        if name == "compiler.middle":
            middle_total += record[END] - record[START]
        elif name == "cast.analyze":
            analyze_self += seconds
        elif name == "gc" and record[TAG] == 2:
            full_collections += 1

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    return {
        "fuzzing.self_ms_per_op": per_op_ms(self_s["fuzzing"]),
        "fuzzing.attempts_per_op": calls["muast"] / ops,
        "fuzzing.compiles_per_op": calls["compiler.compile"] / ops,
        "muast.self_ms_per_op": per_op_ms(self_s["muast"]),
        "muast.changed_share": (
            recorder.changed / calls["muast"] if calls["muast"] else 0.0
        ),
        "cast.front_end_ms_per_op": per_op_ms(self_s["cast.front_end"]),
        "cast.incremental_ms_per_op": per_op_ms(self_s["cast.incremental"]),
        "cast.kb_per_s": (
            recorder.analyze_bytes / 1024 / analyze_self if analyze_self else 0.0
        ),
        "compiler.self_ms_per_op": per_op_ms(self_s["compiler"]),
        "compiler.middle_ms_per_op": per_op_ms(middle_total),
        "gc.ms_per_op": per_op_ms(self_s["gc"]),
        "gc.full_collections": full_collections,
        # The op roots' self time is whatever no wrapper claims, so this is
        # 1 by construction, off only by the few instructions between a
        # step's timer and its root span.  An unwrapped layer shows up in
        # fuzzing.self_ms_per_op instead, which the tests hold to a ceiling.
        "trace.attributed_share": attributed / op_wall_s,
    }
