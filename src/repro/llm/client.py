"""The LLM API client: latency, token accounting, and throttling errors.

Wraps :class:`SimulatedLLM` behind a ChatCompletion-shaped interface.  Every
request consumes virtual wait/prepare time and tokens (Tables 2-3); a small
per-request failure probability reproduces the API throttling/timeouts that
killed 24 of the paper's 100 unsupervised invocations.

With a :class:`~repro.resilience.retry.RetryPolicy`, throttled requests are
retried with exponential backoff on the virtual clock; the retries and
backoff seconds are reported in :class:`ChatUsage` so the pipeline's cost
ledger can account for them.  Without a policy (the default, matching the
paper's unprotected setup) the random stream is untouched and a throttle
kills the request exactly as before.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.llm import costs
from repro.llm.model import SimulatedLLM
from repro.resilience.retry import RetryPolicy, run_with_retry
from repro.telemetry import TelemetrySession


class APIError(Exception):
    """An API-side failure (throttle / timeout)."""


@dataclass
class ChatUsage:
    tokens: int
    wait_seconds: float
    #: Transparent retry accounting: how many throttled attempts preceded
    #: the successful one, and the virtual seconds spent backing off.
    retries: int = 0
    backoff_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Wall time the request occupied, backoff included."""
        return self.wait_seconds + self.backoff_seconds


class LLMClient:
    """A thin, failure-prone transport in front of the model.

    ``failure_rate`` is per *request*; an invocation issues ~6 requests on
    average, so the default reproduces the ~24% per-invocation failure rate
    of §4.  ``retry_policy`` (off by default) absorbs throttles with a
    deterministic seeded backoff schedule instead of failing the request.
    """

    def __init__(
        self,
        model: SimulatedLLM | None = None,
        failure_rate: float = 0.040,
        retry_policy: RetryPolicy | None = None,
        telemetry: TelemetrySession | None = None,
    ) -> None:
        self.model = model or SimulatedLLM()
        self.failure_rate = failure_rate
        self.retry_policy = retry_policy
        #: Transport telemetry: per-request ``llm``/``retry`` events when
        #: the session carries a sink (the counts are the client's own
        #: ``requests``/``failures``/``retries``).  Emission consumes no
        #: RNG, so a telemetry session never perturbs the request stream.
        self.telemetry = telemetry if telemetry is not None else TelemetrySession()
        self.requests = 0
        self.failures = 0
        self.retries = 0
        self.backoff_seconds = 0.0

    def _attempt(self, rng: random.Random, tokens: int) -> ChatUsage:
        self.requests += 1
        if rng.random() < self.failure_rate:
            self.failures += 1
            self.telemetry.emit("llm", "throttled", tokens=tokens)
            raise APIError("rate limited (simulated throttle/timeout)")
        usage = ChatUsage(tokens, costs.sample_wait_seconds(rng))
        self.telemetry.emit(
            "llm", "ok", tokens=tokens, wait=round(usage.wait_seconds, 3)
        )
        return usage

    def _on_backoff(self, retry: int, pause: float) -> None:
        self.retries += 1
        self.backoff_seconds += pause
        self.telemetry.emit("retry", "llm", retry=retry, pause=round(pause, 3))

    def _request(self, rng: random.Random, tokens: int) -> ChatUsage:
        usage, retries, backoff = run_with_retry(
            self.retry_policy,
            rng,
            lambda: self._attempt(rng, tokens),
            retryable=(APIError,),
            on_backoff=self._on_backoff,
        )
        usage.retries = retries
        usage.backoff_seconds = backoff
        return usage

    # -- the three request kinds MetaMut issues ---------------------------

    def invent(self, rng: random.Random, avoid: set[str], origin: str):
        usage = self._request(rng, costs.sample_invention_tokens(rng))
        return self.model.invent(rng, avoid, origin), usage

    def synthesize(self, rng: random.Random, invention):
        usage = self._request(rng, costs.sample_implementation_tokens(rng))
        return self.model.synthesize(rng, invention), usage

    def fix(self, rng: random.Random, impl, goal: int):
        usage = self._request(rng, costs.sample_bugfix_round_tokens(rng))
        return self.model.fix(rng, impl, goal), usage

    def generate_tests(self, rng: random.Random, invention):
        usage = self._request(rng, costs.sample_bugfix_round_tokens(rng))
        return self.model.generate_tests(rng, invention), usage
