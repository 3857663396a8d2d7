"""The benchmark's four workloads: what each builds and the trace it serves.

Every trace is open loop: arrival times are fixed in simulated time
before the run, so a slow simulator never delays the generator.  The
program sees only the generated :class:`repro.engine.Request` stream;
the ``--seed`` reaches the trace generators and nothing else.

A *round* builds a fresh target (so every memo starts cold, as it does
for a user's run) and serves one trace through it.  All rounds of a run
serve the same trace, so they are equal units of work and their
simulated results must repeat bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.cluster import (DegradedModeConfig, FailureDomain, FaultEvent,
                           FaultSchedule, HedgePolicy, ReplicaRouter,
                           RetryPolicy)
from repro.config import KV260, LLAMA2_7B, TINY_MODEL, W4A16_KV8, QuantConfig
from repro.engine import (ContinuousBatchScheduler, CycleModelBackend,
                          Request, TenantSpec, iter_synthetic_trace)

#: step cap handed to every ``run``: never binding, but the engines
#: refuse an unbounded run.
MAX_STEPS = 1_000_000_000
#: the tiny model's hidden size is 64, below the default 128-wide
#: weight group.
TINY_QUANT = QuantConfig(weight_group_size=32)


@dataclass
class Target:
    """What one round serves a trace through: one engine, or a router."""

    engines: list
    router: ReplicaRouter | None
    telemetry: str

    def serve(self, trace: Iterator[Request]):
        if self.router is not None:
            return self.router.run(list(trace), telemetry=self.telemetry,
                                   max_steps=MAX_STEPS)
        return self.engines[0].run(trace, max_steps=MAX_STEPS,
                                   telemetry=self.telemetry)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: requests per round (fixed: host time is per request of this trace)
    n_requests: int
    build: Callable[[], Target]
    #: ``trace(seed, n)`` -> the arrival-sorted request stream
    trace: Callable[[int, int], Iterator[Request]]


# -- arrival_sweep -----------------------------------------------------------

SWEEP_RATE_RPS = 2000.0


def _sweep_build() -> Target:
    backend = CycleModelBackend(TINY_MODEL, TINY_QUANT, n_slots=16)
    return Target([ContinuousBatchScheduler(backend, max_batch=16)], None,
                  "summary")


def _sweep_trace(seed: int, n: int) -> Iterator[Request]:
    return iter_synthetic_trace(TINY_MODEL, n, SWEEP_RATE_RPS,
                                prompt_len=(4, 16), decode_len=(8, 48),
                                seed=seed)


# -- long_decode -------------------------------------------------------------

BURST = 16
BURST_GAP_S = 10.0


def _long_build() -> Target:
    backend = CycleModelBackend(TINY_MODEL, TINY_QUANT, n_slots=BURST,
                                kv_mode="paged", block_size=8,
                                n_kv_blocks=128)
    return Target([ContinuousBatchScheduler(backend, max_batch=BURST)],
                  None, "summary")


def _long_trace(seed: int, n: int) -> Iterator[Request]:
    """Bursts of 16 requests every 10 simulated seconds, each drained
    long before the next lands: 2-4-token prompts (3 on average; a fixed
    length would make every burst's TTFT queue, and so every TTFT
    percentile, the same on every seed) and 48-56 new tokens."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, 5, size=n)
    tokens = rng.integers(0, TINY_MODEL.vocab_size, size=(n, 4))
    decodes = rng.integers(48, 57, size=n)
    for rid in range(n):
        yield Request(request_id=rid,
                      prompt=tuple(tokens[rid, :lengths[rid]].tolist()),
                      max_new_tokens=int(decodes[rid]),
                      arrival_s=(rid // BURST) * BURST_GAP_S)


# -- cluster_chaos -----------------------------------------------------------

CHAOS_RATE_RPS = 18_000.0
CHAOS_REQUESTS = 3000
CHAOS_REPLICAS = 4
RACKS = (FailureDomain("rack0", (0, 1)), FailureDomain("rack1", (2, 3)))
CHAOS_MIX = ((TenantSpec("fg", "interactive"), 0.25),
             (TenantSpec("bulk", "batch"), 0.5),
             (TenantSpec("bg", "best_effort"), 0.25))
CRASH_S = 0.004
HANG_S = 0.004
HEDGE_DELAY_S = 0.004
#: the fault pattern repeats once per episode.  The router's fixed point
#: iterates over all episodes at once, so its round count (and with it
#: host time) is a maximum over episodes: the same on every seed, where
#: a single episode needs 2 to 6 rounds depending on the seed.
EPISODES = 8


def _chaos_faults(span_s: float) -> FaultSchedule:
    """In every episode rack0 crashes whole and warms back up; then rack1
    hangs whole, so its in-flight requests (about 2% of the trace) wait
    out the hedge delay and set the TTFT tail on every seed; then
    replica 3 drains."""
    events = []
    ep = span_s / EPISODES
    for k in range(EPISODES):
        t0 = k * ep
        events += [FaultEvent("crash", r, t0 + 0.2 * ep, CRASH_S,
                              warmup_s=CRASH_S, warmup_factor=2.0)
                   for r in RACKS[0].replicas]
        events += [FaultEvent("hang", r, t0 + 0.5 * ep, HANG_S)
                   for r in RACKS[1].replicas]
        events.append(FaultEvent("drain", 3, t0 + 0.8 * ep, 0.0001))
    return FaultSchedule(tuple(events), topology=RACKS)


def _chaos_build(n: int = CHAOS_REQUESTS) -> Target:
    """The cluster for an ``n``-request trace: the fault episodes span
    the trace's expected arrival span."""
    engines = [ContinuousBatchScheduler(
        CycleModelBackend(TINY_MODEL, TINY_QUANT, n_slots=8), max_batch=8)
        for _ in range(CHAOS_REPLICAS)]
    router = ReplicaRouter(engines, "least_loaded",
                           faults=_chaos_faults(n / CHAOS_RATE_RPS),
                           retry=RetryPolicy(),
                           degraded=DegradedModeConfig(),
                           hedge=HedgePolicy(HEDGE_DELAY_S))
    return Target(engines, router, "full")


def _chaos_trace(seed: int, n: int) -> Iterator[Request]:
    return iter_synthetic_trace(TINY_MODEL, n, CHAOS_RATE_RPS,
                                prompt_len=(3, 10), decode_len=(3, 14),
                                seed=seed, tenant_mix=CHAOS_MIX)


# -- paper_7b ----------------------------------------------------------------

PAPER_SLOTS = 16
PAPER_RATE_RPS = 0.0085


def _paper_build() -> Target:
    backend = CycleModelBackend(LLAMA2_7B, W4A16_KV8, KV260,
                                n_slots=PAPER_SLOTS, kv_mode="paged")
    return Target([ContinuousBatchScheduler(backend,
                                            max_batch=PAPER_SLOTS)],
                  None, "summary")


def _paper_trace(seed: int, n: int) -> Iterator[Request]:
    """A 16-token system prompt (one shared KV block) before a 4-16-token
    question.  Prompts stay short because every distinct prompt position
    costs one full cost-model token schedule (~80 ms of host time) the
    first time a fresh backend meets it."""
    return iter_synthetic_trace(LLAMA2_7B, n, PAPER_RATE_RPS,
                                prompt_len=(4, 16), decode_len=(64, 256),
                                seed=seed, shared_prefix_len=16)


WORKLOADS = {w.name: w for w in (
    Workload("arrival_sweep",
             "Poisson arrivals break a window at every admission and "
             "arrival, so scheduler control cost dominates",
             8000, _sweep_build, _sweep_trace),
    Workload("long_decode",
             "drained bursts of long decodes on paged KV: one window per "
             "burst, so backend fast-forward and the KV window cap do the "
             "work",
             4000, _long_build, _long_trace),
    Workload("cluster_chaos",
             "4 replicas in 2 racks through a rack crash, a hang, a drain "
             "and hedging: the router's fixed-point replay path",
             CHAOS_REQUESTS, _chaos_build, _chaos_trace),
    Workload("paper_7b",
             "the paper's LLaMA2-7B W4A16 KV8 deployment on the KV260: "
             "host time is cost-model memo fill",
             2000, _paper_build, _paper_trace),
)}
