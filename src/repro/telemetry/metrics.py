"""Deterministic merging of per-cell stats snapshots.

A run's counters live on its :class:`~repro.telemetry.TelemetrySession`
(a fuzzer's ``stats``); they hold only values that are pure functions of
the run's inputs, so they may appear in determinism-compared campaign
stats, while wall-clock span totals stay in the session's separate
``wall`` dict.  :func:`merge_stats` folds the snapshots of a grid's cells
into one summary: numbers sum and derived ratios are recomputed after the
fold (a sum of ratios is meaningless).
"""

from __future__ import annotations

from typing import Iterable

#: Derived-ratio stats keys recomputed (never summed) by :func:`merge_stats`,
#: mapped to their (numerator, denominator) source keys.
DERIVED_RATES = {
    "cache_hit_rate": ("cache_hits", "cache_misses"),
    "cache_eviction_rate": ("cache_evictions", "cache_misses"),
    "middle_session_hit_rate": ("middle_session_hits", "middle_session_misses"),
    "attempts_per_step": ("attempts", "steps"),
}


def _merge_layer(snapshots: Iterable[dict]) -> dict:
    """One fold layer: sums, event-list counters, and dict recursion."""
    merged: dict = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key in DERIVED_RATES:
                continue
            if isinstance(value, bool):
                merged.setdefault(key, value)
            elif isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
            elif isinstance(value, list):
                # Event lists merge as a counter dict: the same mutator
                # quarantined in N cells must count N times, not collapse
                # into a set.  Counting is commutative, so fold order
                # still cannot change the result; re-merging an
                # already-merged summary sums the counters via the dict
                # branch below.
                counts = merged.get(key)
                if not isinstance(counts, dict):
                    counts = {}
                for item in value:
                    counts[item] = counts.get(item, 0) + 1
                merged[key] = dict(sorted(counts.items()))
            elif isinstance(value, dict):
                merged[key] = _merge_layer([merged.get(key, {}), value])
            else:
                merged.setdefault(key, value)
    return merged


def merge_stats(snapshots: Iterable[dict]) -> dict:
    """Deterministically fold per-cell stats snapshots into one summary.

    Numeric values sum, event lists merge as ``value -> count`` counter
    dicts (multiplicity preserved), nested dicts recurse, and the known
    derived ratios of :data:`DERIVED_RATES` are recomputed — at the top
    level only, so a nested counter schema that happens to reuse a source
    key (e.g. per-mutator ``attempts``) never grows spurious rate keys —
    from their merged numerator/denominator instead of being
    (meaninglessly) summed.  Fold order does not matter for the result, so
    serial and parallel campaigns merge to identical summaries.
    """
    merged = _merge_layer(snapshots)
    for rate, (num, den) in DERIVED_RATES.items():
        if num in merged or den in merged:
            denominator = merged.get(den, 0)
            if rate.endswith("_hit_rate"):
                # hits/(hits+misses): the "denominator" source key is the
                # miss counter, not the whole population.
                denominator = merged.get(num, 0) + merged.get(den, 0)
            merged[rate] = (
                merged.get(num, 0) / denominator if denominator else 0.0
            )
    return merged
