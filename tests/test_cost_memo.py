"""The cost-model memo layers of the timing backends.

The cycle-model backend evaluates each distinct cost-model input once:
``Mcu.stream_transfer`` memoizes transfer reports by size, and the
backend keeps one attention-pipeline report per ``(context, mode)``
from which both decode windows and prefill positions are charged.
These tests pin that the memoized values are bit-identical to the
full schedule builders and that no context is scheduled twice.
"""

import pytest

from repro.cluster import ShardedCycleBackend
from repro.config import KV260, LLAMA2_7B, TINY_MODEL, W4A16_KV8
from repro.core.cyclemodel import CycleModel
from repro.core.mcu import Mcu
from repro.core.pipeline import AttentionPipeline
from repro.engine import (ContinuousBatchScheduler, CycleModelBackend,
                          synthetic_trace)

#: prompt lengths per model: every start of the LLaMA2-7B prompt costs
#: a handful of full 32-layer reference schedules.
PROMPTS = ((LLAMA2_7B, 5), (TINY_MODEL, 24))


class TestMcuMemo:
    @pytest.mark.parametrize("kwargs", [
        {}, {"contiguous": False}, {"is_write": True},
        {"burst_bytes": 4096}])
    def test_memoized_report_matches_a_fresh_simulation(self, kwargs):
        mcu = Mcu()
        first = mcu.stream_transfer(10_000, **kwargs)
        again = mcu.stream_transfer(10_000, **kwargs)
        assert again == first
        assert first == Mcu().stream_transfer(10_000, **kwargs)

    def test_key_covers_every_argument(self):
        mcu = Mcu()
        base = mcu.stream_transfer(1 << 16, burst_bytes=1024)
        scattered = dict(contiguous=False, burst_bytes=1024)
        assert mcu.stream_transfer(1 << 16, **scattered) != base
        assert mcu.stream_transfer(1 << 16) != base
        assert mcu.stream_transfer(1 << 16, **scattered) \
            == Mcu().stream_transfer(1 << 16, **scattered)


class TestPrefillBitIdentity:
    @pytest.mark.parametrize("model,n", PROMPTS,
                             ids=[m.name for m, _ in PROMPTS])
    @pytest.mark.parametrize("mode", ["fused", "coarse"])
    def test_every_start_matches_cycle_model(self, model, n, mode):
        """Prefill is fused on either backend mode; starts run from
        last to first so later calls mix memo hits and misses."""
        backend = CycleModelBackend(model, W4A16_KV8, KV260, mode=mode)
        reference = CycleModel(model, W4A16_KV8, KV260)
        for start in reversed(range(n)):
            got = backend.prefill_cycles(n, start)
            want = reference.prefill_cycles(n, start)
            assert got == want and type(got) is type(want), start

    def test_tp2_shard_matches_cycle_model_plus_comm(self):
        n = 24
        backend = ShardedCycleBackend(TINY_MODEL, W4A16_KV8, KV260, tp=2)
        reference = CycleModel(TINY_MODEL, W4A16_KV8, KV260, tp=2)
        for start in range(n):
            assert backend.prefill_cycles(n, start) \
                == reference.prefill_cycles(n, start) \
                + backend.comm.prefill_cycles(n - start)

    def test_coarse_decode_and_fused_prefill_keep_separate_reports(self):
        """One context memoized under both modes: each mode's value
        still matches its own full schedule."""
        backend = CycleModelBackend(TINY_MODEL, W4A16_KV8, KV260,
                                    mode="coarse")
        reference = CycleModel(TINY_MODEL, W4A16_KV8, KV260)
        step = backend.step_cycles([3, 5])
        assert backend.prefill_cycles(8) == reference.prefill_cycles(8)
        assert backend.step_cycles([3, 5]) == step \
            == reference.batched_decode_step([3, 5], "coarse").cycles


class TestScheduleBuildCount:
    def test_one_fused_schedule_per_distinct_context(self, monkeypatch):
        """A cold LLaMA2-7B backend serving a short trace builds the
        fused attention pipeline once per context it ever charges —
        prefill positions and decode contexts alike — never once per
        layer."""
        seen: list[int] = []
        build = AttentionPipeline.fused_schedule

        def counted(pipeline, context):
            seen.append(context)
            return build(pipeline, context)

        monkeypatch.setattr(AttentionPipeline, "fused_schedule", counted)
        trace = synthetic_trace(LLAMA2_7B, 4, arrival_rate_rps=0.5,
                                prompt_len=(4, 8), decode_len=(4, 8),
                                seed=3, shared_prefix_len=0)
        backend = CycleModelBackend(LLAMA2_7B, W4A16_KV8, KV260,
                                    n_slots=4, kv_mode="paged")
        report = ContinuousBatchScheduler(backend, max_batch=4).run(trace)
        assert report.total_new_tokens > 0
        # Request r is charged at prompt positions and decode contexts
        # 0 .. len(prompt) + max_new_tokens - 1.
        charged = set()
        for r in trace:
            charged.update(range(len(r.prompt) + r.max_new_tokens))
        assert sorted(seen) == sorted(charged)
