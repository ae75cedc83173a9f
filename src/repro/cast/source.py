"""Source files, locations, and ranges.

Locations are plain character offsets into the original text, which makes the
rewriter (see :mod:`repro.cast.rewriter`) a simple piecewise-text substitution.
Line/column information is derived lazily for diagnostics.

Both are immutable values, and the front end makes the same ones over and
over: :meth:`SourceLocation.at` and :meth:`SourceRange.of` intern them, so
every unit the front end builds shares one location per offset, and the
ranges made through :meth:`SourceRange.of` one range per span.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True, slots=True)
class SourceLocation:
    """A position in a source file, as a 0-based character offset."""

    offset: int

    @staticmethod
    def at(offset: int) -> "SourceLocation":
        """The interned location of ``offset`` (see :meth:`SourceRange.of`)."""
        loc = _LOCATION_INTERN.get(offset)
        if loc is None:
            loc = SourceLocation(offset)
            if len(_LOCATION_INTERN) >= RANGE_INTERN_BOUND:
                _LOCATION_INTERN.clear()
            _LOCATION_INTERN[offset] = loc
        return loc

    def advanced(self, n: int) -> "SourceLocation":
        return SourceLocation.at(self.offset + n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"loc({self.offset})"


@dataclass(frozen=True, slots=True)
class SourceRange:
    """A half-open [begin, end) character range in a source file."""

    begin: SourceLocation
    end: SourceLocation

    @staticmethod
    def of(begin: int, end: int) -> "SourceRange":
        # Interned: ranges are immutable value objects and the parser and
        # the suffix clone construct millions of repeats.  The table starts over
        # when it reaches its bound, so a long campaign's offset spread
        # never pins memory; ranges compare by value, so a range made
        # before a reset still equals one made after it.
        key = (begin, end)
        cached = _RANGE_INTERN.get(key)
        if cached is None:
            cached = SourceRange(SourceLocation.at(begin), SourceLocation.at(end))
            if len(_RANGE_INTERN) >= RANGE_INTERN_BOUND:
                _RANGE_INTERN.clear()
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


#: Entries each intern table (ranges, locations) holds before it starts
#: over.  A 120-step benchmark round of μCFuzz interns about 16k ranges and
#: 4k locations, a 100-step macro round about 19k and 4.5k, so no round
#: reaches it.
RANGE_INTERN_BOUND = 65_536
_RANGE_INTERN: dict[tuple[int, int], SourceRange] = {}
_LOCATION_INTERN: dict[int, SourceLocation] = {}


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
