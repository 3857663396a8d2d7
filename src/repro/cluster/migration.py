"""Checkpoint-style KV migration and hedged dispatch policies.

A draining replica (``FaultEvent("drain", ...)``) hands its in-flight
work over instead of losing it: the engine checkpoints each surviving
sequence (:class:`repro.engine.scheduler.MigratedRequest`) and the
router re-admits it on a healthy replica.  :class:`MigrationPolicy`
prices that handoff — serialize the KV checkpoint, push it over the
cluster interconnect (:class:`repro.cluster.interconnect.LinkSpec`),
and re-admit with a prefill that *skips* the transferred positions
(the ``start=`` prefix-skip path), so a migrated request resumes with
its context intact and zero recompute.  The cost is a pure function of
the checkpoint's byte size, which keeps the whole migration timeline
deterministic with scheduler fast-forward on or off.

:class:`HedgePolicy` is the classic tail-tolerance mechanism measured
against the retry-only baseline: a request still waiting for its first
token ``delay_s`` after arrival is duplicated onto a second healthy
failure domain, and whichever copy streams a token first wins — the
loser is cancelled at its first token.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from .interconnect import TEN_GIG_ETHERNET, LinkSpec


@dataclass(frozen=True)
class MigrationPolicy:
    """Cost model of one KV-checkpoint handoff between replicas.

    ``handoff_s(kv_bytes)`` = ``serialize_s`` (gather + frame the
    quantized KV codes on the source) + the link's base latency + the
    payload's store-and-forward time.  A queued or just-arrived
    migrant ships zero KV bytes and pays only the fixed terms.
    """

    link: LinkSpec = TEN_GIG_ETHERNET
    #: source-side checkpoint gather/frame time, charged once per
    #: handoff regardless of size (DMA descriptor setup, metadata).
    serialize_s: float = 20e-6

    def __post_init__(self) -> None:
        if self.serialize_s < 0:
            raise SimulationError(
                f"serialize_s must be >= 0: {self.serialize_s}")

    def handoff_s(self, kv_bytes: int) -> float:
        """Checkpoint-to-readmission latency for ``kv_bytes`` of KV."""
        if kv_bytes < 0:
            raise SimulationError(f"kv_bytes must be >= 0: {kv_bytes}")
        return self.serialize_s + self.link.latency_s \
            + kv_bytes / self.link.bandwidth_bytes_per_s


@dataclass(frozen=True)
class HedgePolicy:
    """First-token-wins duplicate dispatch for tail tolerance.

    A request whose first token has not streamed ``delay_s`` after its
    arrival is duplicated onto a healthy replica in a *different*
    failure domain (at most ``max_hedges`` copies per request); the
    first copy to produce a token wins and the loser is cancelled at
    its own first token.  Pick ``delay_s`` from a baseline run's TTFT
    tail — :meth:`from_report` reads the quantile off any report with
    a ``ttft_percentile_s`` method.
    """

    delay_s: float
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if self.delay_s <= 0:
            raise SimulationError(
                f"hedge delay must be positive: {self.delay_s}")
        if self.max_hedges < 1:
            raise SimulationError(
                f"max_hedges must be >= 1: {self.max_hedges}")

    @classmethod
    def from_report(cls, report, quantile: float = 95.0,
                    max_hedges: int = 1) -> "HedgePolicy":
        """Hedge past the baseline's ``quantile`` TTFT percentile."""
        delay = report.ttft_percentile_s(quantile)
        if delay is None or delay <= 0:
            raise SimulationError(
                "baseline report has no usable TTFT percentile to "
                "derive a hedge delay from")
        return cls(delay_s=float(delay), max_hedges=max_hedges)
