"""Shared optimizer infrastructure."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.compiler.coverage import CoverageMap
from repro.compiler.ir import Block, IRFunction, Operand, Temp


@dataclass
class OptStats:
    counters: Counter = field(default_factory=Counter)
    #: Optional event sink mirroring :attr:`CoverageMap.journal`: every bump
    #: is appended as ``("stat", key, n)`` so the compile session can replay
    #: a known function's statistics without re-running passes.
    journal: list | None = field(default=None, repr=False, compare=False)

    def bump(self, key: str, n: int = 1) -> None:
        if self.journal is not None:
            self.journal.append(("stat", key, n))
        self.counters[key] += n

    def get(self, key: str, default: int = 0) -> int:
        return self.counters.get(key, default)


@dataclass
class OptContext:
    cov: CoverageMap
    stats: OptStats = field(default_factory=OptStats)
    opt_level: int = 2
    flags: tuple[str, ...] = ()
    #: Hook invoked at named points with the evolving feature dict; the bug
    #: registry uses it to fire seeded crashes mid-pass.
    checkpoint: Callable[[str, dict], None] | None = None
    #: Functions are buffer-native :class:`~repro.compiler.flatir.FlatFunction`
    #: carriers (the default pipeline): every stage runs its flat port over
    #: the :class:`~repro.compiler.flatir.IRBuffer`.  ``False`` is the
    #: object-IR reference pipeline.  Results are bit-identical either way.
    flat: bool = False
    #: Per-compiler :class:`~repro.compiler.flatir.BridgeCounters`, threaded
    #: through so passes can charge any object<->buffer bridge crossing they
    #: cause.  Deliberately not an ``OptStats`` counter: bridge accounting
    #: must not leak into the compared feature dict or the replay journal.
    bridge: object | None = None

    def flag(self, name: str) -> bool:
        return name in self.flags

    def check(self, point: str, features: dict) -> None:
        if self.checkpoint is not None:
            self.checkpoint(point, features)


def use_counts(fn: IRFunction) -> Counter:
    uses: Counter = Counter()
    for instr in fn.instructions():
        for op in instr.operands():
            if isinstance(op, Temp):
                uses[op.index] += 1
    return uses


def replace_uses(fn: IRFunction, mapping: dict[Operand, Operand]) -> None:
    if not mapping:
        return
    for instr in fn.instructions():
        instr.replace_operands(mapping)


def reachable_blocks(fn: IRFunction) -> set[str]:
    if not fn.blocks:
        return set()
    seen = {fn.blocks[0].label}
    work = [fn.blocks[0]]
    block_map = fn.block_map()
    while work:
        b = work.pop()
        for s in b.successors():
            if s not in seen and s in block_map:
                seen.add(s)
                work.append(block_map[s])
    return seen
