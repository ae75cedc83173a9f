"""The end-to-end MetaMut pipeline (Figure 1) and the §4 campaigns.

``MetaMut.generate_one`` runs invention → synthesis → validation/refinement
for a single mutator; ``run_unsupervised`` reproduces the paper's 100 fully
automated invocations (24 system failures, 76 completions, 50 valid), and
``run_supervised`` the human-in-the-loop production of the 68 M_s mutators.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.llm.client import APIError, LLMClient
from repro.llm.costs import CostLedger, MutatorCost
from repro.resilience.retry import RetryPolicy
from repro.llm.model import Implementation, Invention, SimulatedLLM
from repro.metamut.invention import invent_mutator
from repro.metamut.refinement import RefinementOutcome, refine
from repro.metamut.synthesis import generate_unit_tests, synthesize_implementation
from repro.muast.registry import MutatorRegistry, global_registry
from repro.telemetry import TelemetrySession

# Importing the library populates the global registry with all 118 mutators.
import repro.mutators  # noqa: F401  (registration side effect)


@dataclass
class GenerationRecord:
    """Outcome of one MetaMut invocation."""

    status: str  # "valid" | "api_error" | "invalid"
    reason: str = ""  # for invalid: refine-death | mismatched | unthorough | duplicate
    invention: Invention | None = None
    implementation: Implementation | None = None
    cost: MutatorCost | None = None
    fixed: Counter = field(default_factory=Counter)
    rounds: int = 0

    @property
    def name(self) -> str:
        return self.invention.name if self.invention else "<none>"


@dataclass
class UnsupervisedCampaign:
    """Aggregate results of the 100-invocation unsupervised run (§4.1)."""

    records: list[GenerationRecord] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)

    @property
    def api_errors(self) -> int:
        return sum(1 for r in self.records if r.status == "api_error")

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status != "api_error")

    @property
    def completion_rate(self) -> float:
        return self.completed / len(self.records) if self.records else 0.0

    @property
    def total_retries(self) -> int:
        """Throttles absorbed by the retry policy, across all invocations."""
        return sum(r.cost.retries for r in self.records if r.cost is not None)

    @property
    def total_backoff_seconds(self) -> float:
        return sum(
            r.cost.total_backoff_seconds
            for r in self.records
            if r.cost is not None
        )

    @property
    def valid(self) -> list[GenerationRecord]:
        return [r for r in self.records if r.status == "valid"]

    def invalid_census(self) -> Counter:
        """§4.1's failure-cause census for invalid mutators."""
        return Counter(
            r.reason for r in self.records if r.status == "invalid"
        )

    def table1(self) -> dict[int, int]:
        """Bugs fixed by the refinement loop, by goal category (Table 1).

        The paper's census covers the mutators that survived into M_u.
        """
        fixed: Counter = Counter()
        for r in self.valid:
            fixed.update(r.fixed)
        return {goal: fixed.get(goal, 0) for goal in range(1, 7)}

    def faulty_drafts(self) -> int:
        """How many valid mutators needed at least one fix (§4.1: 27/50)."""
        return sum(1 for r in self.valid if sum(r.fixed.values()) > 0)


class MetaMut:
    """The framework: prompts + processes around an LLM (Figure 1)."""

    def __init__(
        self,
        client: LLMClient | None = None,
        registry: MutatorRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        telemetry: TelemetrySession | None = None,
    ) -> None:
        self.registry = registry or global_registry
        if client is None:
            client = LLMClient(
                SimulatedLLM(self.registry), retry_policy=retry_policy,
                telemetry=telemetry,
            )
        self.client = client
        self.telemetry = (
            telemetry if telemetry is not None else self.client.telemetry
        )

    # ------------------------------------------------------------------

    def generate_one(
        self,
        rng: random.Random,
        previously_generated: set[str],
        origin: str = "unsupervised",
    ) -> GenerationRecord:
        """One full invocation: invention → synthesis → refinement."""
        cost = MutatorCost(name="<pending>")
        telem = self.telemetry
        try:
            with telem.span("invention", origin=origin):
                invention = invent_mutator(
                    self.client, rng, previously_generated, cost, origin
                )
            cost.name = invention.name
            with telem.span("implementation", mutator=invention.name):
                impl = synthesize_implementation(
                    self.client, rng, invention, cost
                )
                tests = generate_unit_tests(self.client, rng, invention, cost)
            with telem.span("refinement", mutator=invention.name):
                outcome = refine(self.client, impl, tests, rng, cost)
        except APIError:
            telem.emit("llm", "invocation", status="api_error", origin=origin)
            return GenerationRecord("api_error", cost=cost)
        record = GenerationRecord(
            status="valid",
            invention=invention,
            implementation=outcome.implementation,
            cost=cost,
            fixed=outcome.fixed,
            rounds=outcome.rounds,
        )
        if not outcome.passed:
            record.status = "invalid"
            record.reason = "refine-death"
        else:
            # Manual review (§4): two authors independently check that the
            # implementation performs as described on all (including their
            # own, more complex) test cases, and that it is not a duplicate.
            verdict = self.manual_review(invention, outcome)
            if verdict is not None:
                record.status = "invalid"
                record.reason = verdict
        telem.emit(
            "llm", "invocation",
            status=record.status, reason=record.reason or None,
            mutator=record.name, rounds=record.rounds, origin=origin,
        )
        return record

    def manual_review(
        self, invention: Invention, outcome: RefinementOutcome
    ) -> str | None:
        """None = accepted into the mutator set; else the rejection cause."""
        if invention.fate == "mismatched":
            return "mismatched"
        if invention.fate == "unthorough":
            return "unthorough"
        if invention.fate == "duplicate":
            return "duplicate"
        if outcome.implementation.latent_defect is not None:
            return outcome.implementation.latent_defect
        return None

    # ------------------------------------------------------------------

    def run_unsupervised(
        self, invocations: int = 100, seed: int = 118
    ) -> UnsupervisedCampaign:
        """The fully automated campaign of §4 (100 invocations)."""
        campaign = UnsupervisedCampaign()
        rng = random.Random(seed)
        generated: set[str] = set()
        for _ in range(invocations):
            record = self.generate_one(
                random.Random(rng.randrange(1 << 62)), generated
            )
            campaign.records.append(record)
            if record.invention is not None:
                generated.add(record.invention.name)
            if record.status == "valid" and record.cost is not None:
                campaign.ledger.add(record.cost)
        return campaign

    def run_supervised(
        self, count: int = 68, seed: int = 68
    ) -> UnsupervisedCampaign:
        """The human-in-the-loop production of M_s.

        An author interactively repaired anything the loop could not, so
        every invocation converges on a valid supervised mutator; costs are
        tracked the same way.
        """
        campaign = UnsupervisedCampaign()
        rng = random.Random(seed)
        generated: set[str] = set()
        supervised = self.registry.supervised()
        target = min(count, len(supervised))
        produced = 0
        while produced < target:
            record = self.generate_one(
                random.Random(rng.randrange(1 << 62)), generated, origin="supervised"
            )
            campaign.records.append(record)
            if record.invention is not None:
                generated.add(record.invention.name)
            if record.status == "invalid":
                # The supervising author diagnoses and fixes it by hand.
                record.status = "valid"
                record.reason = "human-fixed"
            if record.status == "valid" and record.cost is not None:
                campaign.ledger.add(record.cost)
            if (
                record.status == "valid"
                and record.invention is not None
                and record.invention.registry_name is not None
            ):
                produced += 1
        return campaign
