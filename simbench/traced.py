"""Per-layer metrics of one served round, from a :class:`Tracer`.

:func:`instrument` wraps the public methods of each simulator layer (the
``repro`` package names them) so one traced round splits its host time
by layer.  A span is named ``<layer>:<method>``; a layer's self time is
the sum of its spans' self times, so the layers' self times, plus the
benchmark's own glue (the round's root span), sum to the round's host
time.
"""

from __future__ import annotations

from collections import defaultdict

from repro.cluster import ReplicaRouter
from repro.cluster import router as router_module
from repro.core.cyclemodel import CycleModel
from repro.core.pipeline import AttentionPipeline
from repro.engine import (WINDOW_BREAK_REASONS, ContinuousBatchScheduler,
                          CycleModelBackend, ServeReport, StreamedServeReport)
from repro.engine.telemetry import TelemetryRecorder
from repro.kv import PagedKVCache

from tracer import Tracer

ROOT = "round"
TRACE = "trace:next"

#: layer -> (owner, method names) whose calls are timed as spans.
LAYER_METHODS = {
    "engine.scheduler": (ContinuousBatchScheduler, (
        "run", "submit", "step", "extract_state", "fault_stats")),
    "engine.backends": (CycleModelBackend, (
        "admit", "release", "prefill", "prefill_cycles", "sample",
        "decode_batch", "step_cycles", "planned_tokens", "replay_tokens",
        "fast_forward_cycles", "commit_fast_forward")),
    "kv": (PagedKVCache, (
        "allocate", "free", "fork", "admission_plan", "blocks_needed",
        "append_needs_block", "window_advance_cap", "advance",
        "commit_prefix", "fetch_plan")),
    "cluster.router": (ReplicaRouter, ("run", "route")),
}
#: the cost model: one ``token_schedule`` per prefill position, one
#: ``fused_schedule`` per layer of it or per exposed-misc context.
CORE_METHODS = ((CycleModel, "token_schedule"),
                (AttentionPipeline, "fused_schedule"))
RECORD_METHODS = ("record_event", "record_window", "note_break",
                  "fold_result", "fold_tenant")
REPORT_METHODS = (
    (TelemetryRecorder, "window_stats"),
    (TelemetryRecorder, "tenant_summaries"),
    (ServeReport, "aggregate_tokens_per_s"),
    (ServeReport, "ttft_percentile_s"),
    (ServeReport, "latency_percentile_s"),
    (StreamedServeReport, "aggregate_tokens_per_s"),
    (StreamedServeReport, "ttft_percentile_s"),
    (StreamedServeReport, "latency_percentile_s"),
    (StreamedServeReport, "tenant_stats"),
    (router_module, "merge_reports"),
)


def _count_prefill(counts, out, backend, n_tokens, start=0):
    counts["cost_lookups"] += n_tokens - start


def _count_ff(counts, out, backend, states, n_steps):
    counts["cost_lookups"] += len(states) * n_steps
    counts["ff_steps"] += n_steps


def _count_step(counts, out, backend, contexts, fetched=None):
    counts["cost_lookups"] += len(contexts)


def _count_allocate(counts, seq_id, cache, tokens=None):
    if tokens is not None:
        counts["prompt_tokens"] += len(tokens)
        counts["prefix_hit_tokens"] += cache.cached_length(seq_id)


HOOKS = {"prefill_cycles": _count_prefill,
         "fast_forward_cycles": _count_ff,
         "step_cycles": _count_step,
         "allocate": _count_allocate}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public methods for the tracer's ``with``
    block."""
    for layer, (owner, methods) in LAYER_METHODS.items():
        for m in methods:
            tracer.wrap(owner, m, f"{layer}:{m}", HOOKS.get(m))
    for owner, m in CORE_METHODS:
        tracer.wrap(owner, m, f"core:{m}")
    for m in RECORD_METHODS:
        tracer.wrap(TelemetryRecorder, m, f"engine.telemetry:{m}")
    for owner, m in REPORT_METHODS:
        tracer.wrap(owner, m, f"engine.telemetry:{m}")


#: per-layer metrics of the traced run, ``(name, unit)``, in output order.
PER_LAYER = (
    ("setup.interp_s", "s"),
    ("setup.numpy_import_s", "s"),
    ("setup.repro_import_s", "s"),
    ("setup.build_s", "s"),
    ("trace.gen_s", "s"),
    ("engine.scheduler.self_s", "s"),
    ("engine.scheduler.windows", "count"),
    ("engine.scheduler.steps", "count"),
    ("engine.scheduler.mean_batch", "requests"),
    ("engine.scheduler.preemptions", "count"),
    *((f"engine.scheduler.break.{r}", "count")
      for r in WINDOW_BREAK_REASONS),
    ("engine.backends.self_s", "s"),
    ("engine.backends.ff_calls", "count"),
    ("engine.backends.ff_s", "s"),
    ("engine.backends.ff_steps_per_call", "steps"),
    ("engine.backends.prefill_calls", "count"),
    ("engine.backends.prefill_s", "s"),
    ("engine.backends.plan_s", "s"),
    ("engine.backends.commit_s", "s"),
    ("core.self_s", "s"),
    ("core.fused_schedule_calls", "count"),
    ("core.fused_schedule_s", "s"),
    ("core.memo_hit_ratio", "fraction"),
    ("kv.self_s", "s"),
    ("kv.admission_plan_calls", "count"),
    ("kv.admission_plan_s", "s"),
    ("kv.window_cap_calls", "count"),
    ("kv.window_cap_s", "s"),
    ("kv.append_check_calls", "count"),
    ("kv.prefix_hit_share", "fraction"),
    ("engine.telemetry.record_s", "s"),
    ("engine.telemetry.report_s", "s"),
    ("cluster.router.self_s", "s"),
    ("cluster.router.replays", "count"),
    ("cluster.router.retry_rounds", "count"),
    ("cluster.router.useful_replay_ratio", "fraction"),
    ("cluster.faults.killed", "count"),
    ("cluster.faults.redispatched", "count"),
    ("cluster.faults.shed", "count"),
    ("cluster.faults.migrated", "count"),
    ("cluster.faults.migrated_kv_bytes", "bytes"),
    ("cluster.faults.recompute_tokens", "tokens"),
    ("cluster.faults.hedged", "count"),
    ("cluster.faults.hedge_win_ratio", "fraction"),
    ("cluster.faults.lost", "count"),
    ("run.glue_self_s", "s"),
    ("run.untraced_us_per_request", "us"),
    ("run.traced_us_per_request", "us"),
    ("run.tracing_overhead_pct", "%"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, report, router) -> dict[str, float]:
    """Per-layer metrics of one traced round (every span of ``tracer``
    belongs to it).  Times are seconds of host time in this round."""
    selfs = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_layer: dict[str, float] = defaultdict(float)
    outer_core = 0
    replays = 0
    for i, name in enumerate(tracer.names):
        by_name[name] += selfs[i]
        calls[name] += 1
        layer = name.split(":")[0]
        by_layer[layer] += selfs[i]
        if layer == "core":
            p = tracer.parent[i]
            if p < 0 or not tracer.names[p].startswith("core:"):
                outer_core += 1
    if router is not None:
        replays = calls["engine.scheduler:run"]
    counts = tracer.counts
    record_s = sum(by_name[f"engine.telemetry:{m}"] for m in RECORD_METHODS)
    m = {
        "trace.gen_s": by_layer["trace"],
        "engine.scheduler.self_s": by_layer["engine.scheduler"],
        "engine.backends.self_s": by_layer["engine.backends"],
        "engine.backends.ff_calls":
            calls["engine.backends:fast_forward_cycles"],
        "engine.backends.ff_s": by_name["engine.backends:fast_forward_cycles"],
        "engine.backends.ff_steps_per_call": _ratio(
            counts["ff_steps"], calls["engine.backends:fast_forward_cycles"]),
        "engine.backends.prefill_calls": calls["engine.backends:prefill"],
        "engine.backends.prefill_s": by_name["engine.backends:prefill"]
        + by_name["engine.backends:prefill_cycles"],
        "engine.backends.plan_s": by_name["engine.backends:planned_tokens"],
        "engine.backends.commit_s":
            by_name["engine.backends:commit_fast_forward"],
        "core.self_s": by_layer["core"],
        "core.fused_schedule_calls": calls["core:fused_schedule"],
        "core.fused_schedule_s": by_name["core:fused_schedule"],
        "core.memo_hit_ratio": 1.0 - _ratio(outer_core,
                                            counts["cost_lookups"]),
        "kv.self_s": by_layer["kv"],
        "kv.admission_plan_calls": calls["kv:admission_plan"],
        "kv.admission_plan_s": by_name["kv:admission_plan"],
        "kv.window_cap_calls": calls["kv:window_advance_cap"],
        "kv.window_cap_s": by_name["kv:window_advance_cap"],
        "kv.append_check_calls": calls["kv:append_needs_block"],
        "kv.prefix_hit_share": _ratio(counts["prefix_hit_tokens"],
                                      counts["prompt_tokens"]),
        "engine.telemetry.record_s": record_s,
        "engine.telemetry.report_s": by_layer["engine.telemetry"] - record_s,
        "cluster.router.self_s": by_layer["cluster.router"],
        "cluster.router.replays": replays,
        "cluster.router.useful_replay_ratio": _ratio(
            len(router.engines), replays) if router is not None else 0.0,
        "run.glue_self_s": by_layer[ROOT],
    }
    m.update(_scheduler_counts(report))
    m.update(_fault_counts(report))
    return m


def _scheduler_counts(report) -> dict[str, float]:
    if isinstance(report, ServeReport):
        steps = len(report.step_batches)
    else:
        steps = report.n_decode_steps
    stats = report.window_stats
    out = {
        "engine.scheduler.windows": stats.get("n_windows", 0),
        "engine.scheduler.steps": steps,
        "engine.scheduler.mean_batch": report.mean_batch,
        "engine.scheduler.preemptions": report.preemptions,
    }
    breaks = stats.get("breaks", {})
    for r in WINDOW_BREAK_REASONS:
        out[f"engine.scheduler.break.{r}"] = breaks.get(r, 0)
    return out


def _fault_counts(report) -> dict[str, float]:
    res = getattr(report, "resilience", None) or {}
    return {
        "cluster.router.retry_rounds": res.get("retry_rounds", 0),
        "cluster.faults.killed": res.get("n_killed", 0),
        "cluster.faults.redispatched": res.get("n_redispatched", 0),
        "cluster.faults.shed": res.get("n_shed", 0),
        "cluster.faults.migrated": res.get("n_migrated", 0),
        "cluster.faults.migrated_kv_bytes": res.get("migrated_kv_bytes", 0),
        "cluster.faults.recompute_tokens":
            res.get("resume_recompute_tokens", 0),
        "cluster.faults.hedged": res.get("n_hedged", 0),
        "cluster.faults.hedge_win_ratio": _ratio(res.get("n_hedge_wins", 0),
                                                 res.get("n_hedged", 0)),
        "cluster.faults.lost": res.get("n_lost", 0),
    }


def lacking(tracer: Tracer, router) -> list[str]:
    """Layers this workload never calls into: their metrics read 0."""
    seen = {name.split(":")[0] for name in tracer.names}
    out = [layer for layer in ("kv", "core", "cluster.router")
           if layer not in seen]
    if router is None or router.faults is None:
        out.append("cluster.faults")
    return out
