"""Correctness gate: what a served round must satisfy, and the simulated
metrics read off its report.

A run that fails any check exits nonzero and reports ``correct: false``;
its host-time numbers are never printed as a result.
"""

from __future__ import annotations

from repro.engine import FinishReason, ServeReport
from repro.errors import SimulationError
from repro.report.summary import reproduction_summary

#: simulated end-to-end metrics, in output order.
SIM_METRICS = ("sim_tokens_per_s", "sim_ttft_p50_ms", "sim_ttft_p99_ms",
               "sim_tpot_p50_ms", "sim_tpot_p99_ms", "sim_served_share")


class GateError(Exception):
    """A served round, or the paper reproduction, failed a check."""


def _served_ids(report) -> list[int]:
    if isinstance(report, ServeReport):
        return [r.request_id for r in report.results]
    return [int(i) for i in report.ttft_columns()[0].tolist()]


def _missed(report) -> int:
    """Requests that were shed, refused or failed: each counts as
    missing every latency limit."""
    if isinstance(report, ServeReport):
        return sum(1 for r in report.results if r.finish_reason
                   in (FinishReason.REJECTED, FinishReason.FAILED))
    return sum(s["n_rejected"] + s["n_failed"]
               for s in report.tenant_stats.values())


def observe(report, n_submitted: int) -> dict[str, float]:
    """The simulated end-to-end metrics of one served round.  Each is a
    pure function of the trace and the modelled system."""
    return {
        "sim_tokens_per_s": report.aggregate_tokens_per_s,
        "sim_ttft_p50_ms": report.ttft_percentile_s(50) * 1e3,
        "sim_ttft_p99_ms": report.ttft_percentile_s(99) * 1e3,
        "sim_tpot_p50_ms": report.latency_percentile_s(50) * 1e3,
        "sim_tpot_p99_ms": report.latency_percentile_s(99) * 1e3,
        "sim_served_share": (n_submitted - _missed(report)) / n_submitted,
    }


def check_round(report, engines, n_submitted: int) -> None:
    """Accounting, loss and KV-pool invariants after one served round:
    every submitted id is reported exactly once, nothing is lost, and
    every paged pool audits clean with no sequence left open."""
    ids = _served_ids(report)
    if len(ids) != n_submitted or sorted(ids) != list(range(n_submitted)):
        missing = n_submitted - len(set(ids))
        raise GateError(
            f"report holds {len(ids)} results for {n_submitted} submitted "
            f"requests ({missing} ids missing, "
            f"{len(ids) - len(set(ids))} duplicated)")
    resilience = getattr(report, "resilience", None) or {}
    if resilience.get("n_lost", 0) != 0:
        raise GateError(f"{resilience['n_lost']} requests lost")
    for idx, engine in enumerate(engines):
        kv = getattr(engine.backend, "paged_kv", None)
        if kv is None:
            continue
        if kv.n_sequences:
            raise GateError(f"replica {idx}: {kv.n_sequences} KV sequences "
                            "still open after the round")
        try:
            kv.audit()
        except SimulationError as exc:
            raise GateError(f"replica {idx}: paged KV audit failed: "
                            f"{exc}") from exc


def check_same(reference: dict, observed: dict, what: str) -> None:
    """Simulated results must repeat bit for bit."""
    for name in SIM_METRICS:
        if observed[name] != reference[name]:
            raise GateError(f"{name} differs {what}: {observed[name]!r} "
                            f"vs {reference[name]!r}")


def check_paper(numbers=None) -> None:
    """``repro.report.summary`` must still reproduce every paper claim,
    among them DRAM-bandwidth utilization (84.5% vs the paper's 85%)
    and memory-capacity utilization (93.1% vs 93.3%)."""
    if numbers is None:
        numbers = reproduction_summary()
    failed = [claim for claim, ok in numbers.matches_paper().items()
              if not ok]
    if failed:
        raise GateError("paper reproduction broken: " + "; ".join(failed))
