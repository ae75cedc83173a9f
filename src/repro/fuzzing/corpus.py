"""The fuzzing corpus: program entries and the seed pool."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field


def text_digest(text: str) -> str:
    """The pool's identity of a program text."""
    return hashlib.sha1(text.encode("utf-8", "replace")).hexdigest()[:16]


@dataclass
class ProgramEntry:
    """One test program in the pool, with its provenance."""

    text: str
    seed_id: int
    generation: int = 0
    parent: int | None = None
    mutator: str | None = None

    @property
    def digest(self) -> str:
        return text_digest(self.text)


@dataclass
class Corpus:
    """The growing pool P of Algorithm 1."""

    entries: list[ProgramEntry] = field(default_factory=list)
    _digests: set[str] = field(default_factory=set)

    def add(self, entry: ProgramEntry) -> bool:
        digest = entry.digest
        if digest in self._digests:
            return False
        self._digests.add(digest)
        self.entries.append(entry)
        return True

    def random_choice(self, rng: random.Random) -> ProgramEntry:
        return self.entries[rng.randrange(len(self.entries))]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, text: str) -> bool:
        return text_digest(text) in self._digests

    @classmethod
    def from_texts(cls, texts: list[str]) -> "Corpus":
        corpus = cls()
        for i, text in enumerate(texts):
            corpus.add(ProgramEntry(text, seed_id=i))
        return corpus
