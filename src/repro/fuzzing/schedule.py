"""Evolutionary mutator scheduling: a seeded fitness-proportional bandit.

The paper's μCFuzz picks mutators uniformly at random (Algorithm 1).
FunFuzz-style evolutionary outer loops do better: mutators that keep
producing coverage, crashes, or at least compilable mutants should be
tried first, and chronic losers should be retired.
:class:`MutatorScheduler` implements that as a
deterministic multi-armed bandit over the per-mutator yield counters the
fuzzer records (see :data:`MUTATOR_STAT_KEYS`):

* **Fitness** is the average per-attempt yield — coverage gain and crash
  yield weighted far above the mere compilable/changed ratios — so an arm's
  score is a pure function of its observed counter record.
* **Ordering** is a fitness-proportional sample without replacement
  (Efraimidis–Spirakis keys: ``u ** (1/w)`` with ``u`` from the
  scheduler's *own* seeded RNG), so high-yield mutators tend to occupy the
  front of each step's try-order while every live arm keeps a nonzero
  chance (the exploration floor plus an optimistic prior for barely-tried
  arms).
* **Retirement** permanently removes an arm whose fitness stays below
  ``retire_below`` after ``retire_after`` attempts.  The scheduler is the
  one record of it: :attr:`MutatorScheduler.retired` keeps the arms in
  retirement order with their reason, :meth:`MutatorScheduler.stats`
  reports them, and the fuzzer emits one ``quarantine … reason="retired"``
  event per retirement.  The crash breaker
  (:class:`~repro.resilience.circuit.MutatorQuarantine`) knows nothing of
  it; the scheduler only consults the breaker's verdicts.

RNG-neutrality contract (the quarantine-consult rule): the scheduler owns
a private :class:`random.Random` derived from the campaign cell seed and
never draws from the fuzzer's RNG stream, and a retired or quarantined
mutator draws **no** scheduler entropy either — so ``scheduler=None``
leaves the fuzzer byte-identical to the uniform Algorithm 1 loop, and a
scheduled cell is reproducible serial == parallel == fabric.
"""

from __future__ import annotations

import argparse
import math
import random
import zlib
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.muast.registry import MutatorInfo
    from repro.resilience.circuit import MutatorQuarantine

#: The uniform per-mutator counter schema every tracked cell zero-fills up
#: front: a cell snapshot carries *every* mutator's record with *all* of
#: these keys, whether or not the mutator was ever tried, so grid
#: ``merge_stats`` folds are schema-identical regardless of which cells
#: happened to try (or skip) which arms.
MUTATOR_STAT_KEYS = ("attempts", "changed", "compiled", "coverage_gain", "crashes")

#: Domain-separation constant mixed into the cell seed so the scheduler's
#: private RNG stream never collides with the fuzzer's.
_SCHEDULER_SALT = zlib.crc32(b"mutator-scheduler")


def zero_mutator_stats(names: Iterable[str]) -> dict:
    """A zero-filled ``name -> counter record`` table over ``names``."""
    return {name: dict.fromkeys(MUTATOR_STAT_KEYS, 0) for name in sorted(names)}


class MutatorScheduler:
    """Deterministic fitness-proportional ordering over the mutator set.

    Construct via :meth:`from_cell_seed` inside a campaign cell (the
    scheduler's RNG is derived from the cell seed, so two runs of the same
    cell schedule identically), then :meth:`attach` the fuzzer's mutator
    stat table and quarantine (if any).  :meth:`order` is the only per-step
    entry point; it retires the chronic losers it meets.
    """

    def __init__(
        self,
        seed: int,
        *,
        prior: float = 2.0,
        floor: float = 0.3,
        w_coverage: float = 8.0,
        w_crash: float = 4.0,
        w_compiled: float = 0.5,
        w_changed: float = 0.25,
        retire_after: int | None = 60,
        retire_below: float = 0.02,
    ) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        #: Optimistic weight of an untried arm; decays as ``prior/(1+n)``.
        self.prior = prior
        #: Exploration floor: no live arm's weight falls to zero.
        self.floor = floor
        self.w_coverage = w_coverage
        self.w_crash = w_crash
        self.w_compiled = w_compiled
        self.w_changed = w_changed
        #: Attempts before an arm becomes eligible for retirement
        #: (``None`` disables retirement outright).
        self.retire_after = retire_after
        #: Fitness below which a fully-sampled arm is a chronic loser.
        self.retire_below = retire_below
        #: Retired arm name -> reason, in retirement order.
        self.retired: dict[str, str] = {}
        self._stats: dict | None = None
        self._quarantine: "MutatorQuarantine | None" = None

    @classmethod
    def from_cell_seed(cls, cell_seed: int, **knobs) -> "MutatorScheduler":
        """The cell's scheduler: seeded from (salted) ``cell_seed``.

        The salt keeps the scheduler's stream disjoint from the fuzzer's
        ``random.Random(cell_seed)`` stream even though both derive from
        the same cell identity.
        """
        return cls(_SCHEDULER_SALT ^ (int(cell_seed) & 0xFFFFFFFF), **knobs)

    def attach(
        self, stats: dict, quarantine: "MutatorQuarantine | None"
    ) -> None:
        """Bind the fuzzer's per-mutator counter table and quarantine.

        The stat table is the scheduler's *only* input signal — the fuzzer
        records yields there and the scheduler reads them, so there is one
        source of truth and the stats snapshot the campaign compares is
        exactly what drove the schedule.
        """
        self._stats = stats
        self._quarantine = quarantine

    # -- fitness -----------------------------------------------------------

    def fitness(self, rec: dict | None) -> float | None:
        """Average per-attempt yield of one arm; None when never tried."""
        if rec is None:
            return None
        attempts = rec.get("attempts", 0)
        if not attempts:
            return None
        score = (
            self.w_coverage * rec.get("coverage_gain", 0)
            + self.w_crash * rec.get("crashes", 0)
            + self.w_compiled * rec.get("compiled", 0)
            + self.w_changed * rec.get("changed", 0)
        )
        return score / attempts

    def weight(self, rec: dict | None) -> float:
        """Sampling weight: saturated fitness with a floor and prior.

        The square root tempers the raw per-attempt average: one lucky
        coverage burst must not let an arm monopolise the front of the
        order after its marginal yield has decayed (coverage is a
        saturating resource, but the lifetime average stays high), while
        the ordering between arms is preserved.
        """
        observed = self.fitness(rec)
        if observed is None:
            return self.prior
        return max(self.floor, math.sqrt(observed)) + self.prior / (
            1.0 + rec.get("attempts", 0)
        )

    def should_retire(self, rec: dict | None) -> bool:
        """Chronic loser: fully sampled and still yielding ~nothing."""
        if self.retire_after is None or rec is None:
            return False
        if rec.get("attempts", 0) < self.retire_after:
            return False
        return (self.fitness(rec) or 0.0) < self.retire_below

    # -- population management ---------------------------------------------

    def retire(self, info: "MutatorInfo | str") -> bool:
        """Retire one arm for good; True iff newly retired."""
        name = info if isinstance(info, str) else info.name
        if name in self.retired:
            return False
        self.retired[name] = "low-fitness"
        return True

    def stats(self) -> dict:
        """The retirement summary the fuzzer merges into its snapshot."""
        return {
            "retirements": len(self.retired),
            "retired_mutators": sorted(self.retired),
        }

    # -- ordering ----------------------------------------------------------

    def order(self, candidates: "list[MutatorInfo]") -> "list[MutatorInfo]":
        """The step's try-order: weighted sample without replacement.

        Quarantined and retired arms are excluded *before* any entropy is
        drawn — exactly one ``random()`` per live arm — so population
        changes never shift another arm's draw within the same call, and
        the draw sequence stays a pure function of (seed, recorded stats,
        quarantine state).
        """
        stats = self._stats or {}
        quarantine = self._quarantine
        live: list = []
        for info in candidates:
            name = info if isinstance(info, str) else info.name
            if name in self.retired:
                continue
            if quarantine is not None and not quarantine.allows(name):
                continue
            rec = stats.get(name)
            if self.should_retire(rec):
                self.retire(info)
                continue
            live.append((name, info))
        keyed = []
        for pos, (name, info) in enumerate(live):
            w = self.weight(stats.get(name))
            u = self._rng.random()
            # Efraimidis–Spirakis: sorting by u**(1/w) descending is a
            # weight-proportional sample without replacement.
            keyed.append((-(u ** (1.0 / w)), pos))
        keyed.sort()
        return [live[pos][1] for _, pos in keyed]


# ---------------------------------------------------------------------------
# sched-smoke: the scheduled-vs-uniform ablation gate (tier-2 CI)

#: Seed-state golden for the uniform arm of :func:`smoke_main` (uCFuzz.s,
#: GCC sim, 40 generated seeds, RNG seed 2024, 150 steps): the scheduler
#: PR must leave the uniform fuzzer's results untouched.
_UNIFORM_GOLDEN = {"steps": 300, "seed": 2024, "coverage": 1322, "pool": 186}


def _smoke_arm(scheduled: bool, steps: int, seed: int, seeds: list[str]) -> dict:
    import repro.mutators  # noqa: F401  (populate the registry)
    from repro.compiler.driver import Compiler, GCC_SIM
    from repro.fuzzing.mucfuzz import MuCFuzz
    from repro.muast.registry import global_registry

    compiler = Compiler(*GCC_SIM)
    scheduler = MutatorScheduler.from_cell_seed(seed) if scheduled else None
    fuzzer = MuCFuzz(
        compiler,
        random.Random(seed),
        seeds,
        global_registry.supervised(),
        name="uCFuzz.s",
        scheduler=scheduler,
        mutator_stats=True,
    )
    trend = []
    sample_every = max(steps // 6, 1)
    for i in range(steps):
        fuzzer.step()
        if (i + 1) % sample_every == 0 or i + 1 == steps:
            trend.append(len(fuzzer.coverage))
    return {
        "coverage": len(fuzzer.coverage),
        "pool": len(fuzzer.pool),
        "trend": trend,
        "stats": fuzzer.stats_snapshot(),
    }


def smoke_main(argv: "list[str] | None" = None) -> int:
    """Scheduled-vs-uniform ablation smoke on a short Fig. 7-style trend.

    Gates on: (1) determinism — two runs of each arm are identical;
    (2) the uniform arm's coverage/pool exactly match the recorded
    pre-scheduler seed state; (3) the scheduled arm's final coverage is at
    least the uniform arm's; (4) every arm's snapshot carries the full
    zero-filled per-mutator yield schema.
    """
    parser = argparse.ArgumentParser(description="sched-smoke")
    parser.add_argument("--steps", type=int, default=_UNIFORM_GOLDEN["steps"])
    parser.add_argument("--seed", type=int, default=_UNIFORM_GOLDEN["seed"])
    args = parser.parse_args(argv)
    from repro.fuzzing.seedgen import generate_seeds
    from repro.muast.registry import global_registry

    import repro.mutators  # noqa: F401

    seeds = generate_seeds(40)
    arms: dict[str, dict] = {}
    for label, scheduled in (("uniform", False), ("scheduled", True)):
        first = _smoke_arm(scheduled, args.steps, args.seed, seeds)
        second = _smoke_arm(scheduled, args.steps, args.seed, seeds)
        if first != second:
            raise SystemExit(f"sched-smoke: {label} arm is nondeterministic")
        arms[label] = first
    uniform, scheduled_arm = arms["uniform"], arms["scheduled"]
    pinned = (
        args.steps == _UNIFORM_GOLDEN["steps"]
        and args.seed == _UNIFORM_GOLDEN["seed"]
    )
    if pinned and (
        uniform["coverage"] != _UNIFORM_GOLDEN["coverage"]
        or uniform["pool"] != _UNIFORM_GOLDEN["pool"]
    ):
        raise SystemExit(
            "sched-smoke: uniform arm diverged from the seed state "
            f"(coverage {uniform['coverage']} pool {uniform['pool']}, "
            f"expected {_UNIFORM_GOLDEN['coverage']}/{_UNIFORM_GOLDEN['pool']})"
        )
    if scheduled_arm["coverage"] < uniform["coverage"]:
        raise SystemExit(
            f"sched-smoke: scheduled coverage {scheduled_arm['coverage']} fell "
            f"below uniform {uniform['coverage']}"
        )
    expected = set(m.name for m in global_registry.supervised())
    for label, arm in arms.items():
        table = arm["stats"].get("mutator_stats")
        if table is None or set(table) != expected or any(
            set(rec) != set(MUTATOR_STAT_KEYS) for rec in table.values()
        ):
            raise SystemExit(
                f"sched-smoke: {label} arm's per-mutator stat schema is "
                "missing or non-uniform"
            )
    print(
        f"sched-smoke: {args.steps} steps, uniform coverage "
        f"{uniform['coverage']} (pool {uniform['pool']}) vs scheduled "
        f"{scheduled_arm['coverage']} (pool {scheduled_arm['pool']}), "
        "both deterministic, per-mutator schema uniform"
    )
    return 0

