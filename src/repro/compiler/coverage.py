"""Branch-coverage instrumentation for the simulated compilers.

Compiler components report branch *edges* — (site, outcome) pairs — into a
:class:`CoverageMap`.  Sites are parameterized by the structures being
processed (node kinds, operator names, type combinations, pass decisions), so
the edge space grows with input diversity the way real compiler branch
coverage does; μCFuzz's Algorithm 1 keeps a mutant iff it covers a new edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable


Edge = tuple[str, Hashable]


@dataclass
class CoverageMap:
    """A set of covered branch edges, with cheap union/diff operations."""

    edges: set[Edge] = field(default_factory=set)
    #: Optional event sink: when set, every :meth:`hit` *attempt* (including
    #: re-hits of already-covered edges) is appended as ``("cov", site,
    #: outcome)``, in order.  The compile session
    #: (:mod:`repro.compiler.session`) records a cached compile's event
    #: stream through this hook and replays it for functions it has already
    #: compiled.  Excluded from :meth:`copy` and merge semantics.
    journal: list | None = field(default=None, repr=False, compare=False)

    def hit(self, site: str, outcome: Hashable = True) -> None:
        """Record that branch ``site`` was taken with ``outcome``."""
        if self.journal is not None:
            self.journal.append(("cov", site, outcome))
        self.edges.add((site, outcome))

    def merge(self, other: "CoverageMap | Iterable[Edge]") -> int:
        """Merge edges in; returns how many were new."""
        edges = other.edges if isinstance(other, CoverageMap) else other
        before = len(self.edges)
        self.edges.update(edges)
        return len(self.edges) - before

    def covers(self, other: "CoverageMap") -> bool:
        """Whether this map already covers every edge of ``other``."""
        return other.edges <= self.edges

    def __len__(self) -> int:
        return len(self.edges)

    def copy(self) -> "CoverageMap":
        return CoverageMap(set(self.edges))
