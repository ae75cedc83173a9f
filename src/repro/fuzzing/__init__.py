"""Fuzzers: μCFuzz, the macro fuzzer, the four baselines, and the campaign
runner used by the evaluation benches."""

from repro.fuzzing.corpus import Corpus, ProgramEntry
from repro.fuzzing.seedgen import generate_seeds
from repro.fuzzing.schedule import MutatorScheduler
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.macro import MacroFuzzer
from repro.fuzzing.campaign import Campaign, CampaignResult, run_campaign
from repro.fuzzing.parallel import (
    CellOutcome,
    CellSpec,
    run_cells,
)

__all__ = [
    "Corpus",
    "ProgramEntry",
    "generate_seeds",
    "MutatorScheduler",
    "MuCFuzz",
    "MacroFuzzer",
    "Campaign",
    "CampaignResult",
    "run_campaign",
    "CellOutcome",
    "CellSpec",
    "run_cells",
]
