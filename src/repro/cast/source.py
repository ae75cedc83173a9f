"""Source files, locations, and ranges.

Locations are plain character offsets into the original text, which makes the
rewriter (see :mod:`repro.cast.rewriter`) a simple piecewise-text substitution.
Line/column information is derived lazily for diagnostics.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A position in a source file, as a 0-based character offset."""

    offset: int

    def advanced(self, n: int) -> "SourceLocation":
        return SourceLocation(self.offset + n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"loc({self.offset})"


@dataclass(frozen=True)
class SourceRange:
    """A half-open [begin, end) character range in a source file."""

    begin: SourceLocation
    end: SourceLocation

    @staticmethod
    def of(begin: int, end: int) -> "SourceRange":
        # Interned: ranges are immutable value objects and the lexer/clone
        # hot paths construct millions of repeats; the bound keeps a
        # pathological offset spread from pinning memory.
        key = (begin, end)
        cached = _RANGE_INTERN.get(key)
        if cached is None:
            cached = SourceRange(SourceLocation(begin), SourceLocation(end))
            if len(_RANGE_INTERN) < 1_000_000:
                _RANGE_INTERN[key] = cached
        return cached

    @property
    def length(self) -> int:
        return self.end.offset - self.begin.offset

    def contains(self, other: "SourceRange") -> bool:
        return (
            self.begin.offset <= other.begin.offset
            and other.end.offset <= self.end.offset
        )

    def overlaps(self, other: "SourceRange") -> bool:
        return self.begin.offset < other.end.offset and other.begin.offset < self.end.offset

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"range({self.begin.offset},{self.end.offset})"


_RANGE_INTERN: dict[tuple[int, int], SourceRange] = {}


@dataclass
class SourceFile:
    """A named piece of C source text with line-offset bookkeeping."""

    text: str
    name: str = "<input>"
    #: Offsets at which lines start, built by the first ``line_column``
    #: call: only diagnostics need them, and every front end makes a file.
    _line_starts: list[int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def slice(self, rng: SourceRange) -> str:
        return self.text[rng.begin.offset : rng.end.offset]

    def line_column(self, loc: SourceLocation) -> tuple[int, int]:
        """Return 1-based (line, column) for a location."""
        starts = self._line_starts
        if starts is None:
            starts = [0]
            starts.extend(
                i + 1 for i, ch in enumerate(self.text) if ch == "\n"
            )
            self._line_starts = starts
        line = bisect.bisect_right(starts, loc.offset) - 1
        return line + 1, loc.offset - starts[line] + 1

    def describe(self, loc: SourceLocation) -> str:
        line, col = self.line_column(loc)
        return f"{self.name}:{line}:{col}"
