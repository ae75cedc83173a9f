"""Source files, locations, and ranges.

Locations are plain character offsets into the original text, which makes the
rewriter (see :mod:`repro.cast.rewriter`) a simple piecewise-text substitution.

Both are immutable values made on demand: tokens and AST nodes hold their
positions as int offsets (:mod:`repro.cast.ast_nodes`), and build a
location or range only when one is read, so these objects live no longer
than the mutator or diagnostic that asked for them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True, slots=True)
class SourceLocation:
    """A position in a source file, as a 0-based character offset."""

    offset: int

    @staticmethod
    def at(offset: int) -> "SourceLocation":
        """The location of ``offset``."""
        return SourceLocation(offset)

    def advanced(self, n: int) -> "SourceLocation":
        return SourceLocation(self.offset + n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"loc({self.offset})"


@dataclass(frozen=True, slots=True)
class SourceRange:
    """A half-open [begin, end) character range in a source file."""

    begin: SourceLocation
    end: SourceLocation

    @staticmethod
    def of(begin: int, end: int) -> "SourceRange":
        """The range ``[begin, end)`` of two offsets."""
        return SourceRange(SourceLocation(begin), SourceLocation(end))

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


@dataclass
class SourceFile:
    """A named piece of C source text."""

    text: str
    name: str = "<input>"

    def slice(self, rng: SourceRange) -> str:
        return self.text[rng.begin.offset : rng.end.offset]
