"""Durable fabric state: which distinct workers each cell has killed.

The journal is the one owner of kill attribution: for every cell, the
distinct workers that died (or were reaped) while holding its lease.
Poison is derived from it, never stored: a cell is poison once its
distinct killers reach the supervisor's ``poison_threshold``
(:meth:`FabricJournal.is_poison`), and the supervisor asks that one
question both when a worker dies and at intake.

With a :class:`~repro.resilience.checkpoint.CheckpointStore`, the journal
is persisted under one reserved key beside the finished cells'
checkpoints as ``{runs, kills}``, atomically rewritten once per run and
whenever a new killer is recorded, so a supervisor killed at any instant
restarts with every kill it attributed.  Without a store it lives in
memory for one run.  Every other transition (grant, reclaim, poison,
complete, fail) is an event in ``grid.jsonl``, not a journal record.

Worker identities are prefixed with a per-supervisor *run* number
(``run3:w1``), because worker ids restart at zero in every supervisor
incarnation; without the prefix, a poison cell that killed worker 1 in two
different runs would count one distinct killer instead of two.
"""

from __future__ import annotations

from repro.resilience.checkpoint import CheckpointStore

#: The checkpoint key the journal lives under (never a valid cell key —
#: cell keys always carry a sha1 suffix).
JOURNAL_KEY = "fabric-journal"


class FabricJournal:
    """Each cell's distinct killers, and the run number, made durable."""

    def __init__(self, store: CheckpointStore | None) -> None:
        self.store = store
        payload = (store.load(JOURNAL_KEY) if store is not None else None) or {}
        self.runs = int(payload.get("runs", 0)) + 1
        #: cell key → the distinct worker tokens that died holding it.
        self.kills: dict[str, list[str]] = {
            key: list(tokens) for key, tokens in payload.get("kills", {}).items()
        }
        self._persist()  # record the new run number immediately

    def worker_token(self, worker_id: int) -> str:
        """A worker identity unique across supervisor restarts."""
        return f"run{self.runs}:w{worker_id}"

    def record_kill(self, cell_key: str, worker_token: str) -> list[str]:
        """Attribute a worker death to a cell; the distinct-killer list."""
        tokens = self.kills.setdefault(cell_key, [])
        if worker_token not in tokens:
            tokens.append(worker_token)
            self._persist()
        return tokens

    def is_poison(self, cell_key: str, threshold: int) -> bool:
        """Whether the cell has killed ``threshold`` distinct workers."""
        return len(self.kills.get(cell_key, ())) >= threshold

    def kills_for(self, cell_key: str) -> list[str]:
        return list(self.kills.get(cell_key, ()))

    def to_json(self) -> dict:
        return {
            "runs": self.runs,
            "kills": {key: sorted(tokens) for key, tokens in self.kills.items()},
        }

    def _persist(self) -> None:
        if self.store is not None:
            self.store.save(JOURNAL_KEY, self.to_json())
