"""JSONL event sinks with size-bounded rotation.

A sink is a plain ``write(event: dict)`` target.  :class:`JSONLSink` appends
one JSON object per line to a file and rotates it once it exceeds
``max_bytes``: the current file moves to ``<path>.1``, ``.1`` to ``.2`` and
so on, dropping anything beyond ``max_files`` rotated generations.  The
live stream is therefore always at ``path`` and history ages outward.

Sink bookkeeping (events written, rotations) lives on the sink object, not
in the session's counters, so enabling a sink can never change
determinism-compared campaign stats.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

DEFAULT_MAX_BYTES = 4_000_000
DEFAULT_MAX_FILES = 8


class JSONLSink:
    """One JSONL file per telemetry stream, rotated by size."""

    def __init__(
        self,
        path: str | os.PathLike,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_files = max(max_files, 1)
        self.events_written = 0
        self.rotations = 0
        self._bytes = 0
        self._fh = open(self.path, "w", encoding="utf-8")

    def _rotated(self, index: int) -> Path:
        return self.path.with_name(f"{self.path.name}.{index}")

    def _rotate(self) -> None:
        self._fh.close()
        oldest = self._rotated(self.max_files)
        if oldest.exists():
            oldest.unlink()
        for index in range(self.max_files - 1, 0, -1):
            src = self._rotated(index)
            if src.exists():
                os.replace(src, self._rotated(index + 1))
        os.replace(self.path, self._rotated(1))
        self.rotations += 1
        self._bytes = 0
        self._fh = open(self.path, "w", encoding="utf-8")

    def write(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True, default=str) + "\n"
        if self._bytes and self._bytes + len(line) > self.max_bytes:
            self._rotate()
        self._fh.write(line)
        self._bytes += len(line)
        self.events_written += 1

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def files(self) -> list[Path]:
        """Every file of the stream, oldest first, live file last."""
        rotated = [
            self._rotated(i)
            for i in range(self.max_files, 0, -1)
            if self._rotated(i).exists()
        ]
        return rotated + ([self.path] if self.path.exists() else [])

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
