"""Host-time benchmark of the serving simulator: one workload, one run.

Usage (from the repository root)::

    python3 simbench/run.py --workload arrival_sweep --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: after one discarded
warm-up round it serves equal rounds of the workload's trace for
``--seconds`` seconds and reports the median round time per request
(normalised for host speed, see ``REFERENCE_S``), the median of
fresh-interpreter set-up probes spread across the run, peak RSS, and
the simulated metrics of the trace.  ``--trace 1`` serves
the same trace untraced and traced in pairs and reports per-layer
metrics instead (see ``traced.py``).  Every round passes the correctness
gate (``gate.py``); a failure prints ``correct: false`` and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: end-to-end metrics, ``(name, unit)``, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("host_us_per_request", "us"),
    ("peak_rss_mb", "MB"),
    ("sim_tokens_per_s", "token/s"),
    ("sim_ttft_p50_ms", "ms"),
    ("sim_ttft_p99_ms", "ms"),
    ("sim_tpot_p50_ms", "ms"),
    ("sim_tpot_p99_ms", "ms"),
    ("sim_served_share", "fraction"),
)
#: set-up probes per run, spread evenly over its measuring time
PROBES = 8
#: at least this many measured rounds (or traced pairs) per run, even
#: when a round is long against ``--seconds``
MIN_ROUNDS = 3
#: host time is normalised to a host on which ``reference_seconds()``
#: takes this long.  The host's speed drifts between regimes ~40% apart
#: that last from seconds to minutes, so the raw median round time of a
#: 20-s run moves with the regime (152-210 us/request over 4 runs of
#: ``long_decode``).  The reference loop, timed just before and after
#: each round, slows down with the round (round-level correlation 0.8);
#: the ratio's run medians of those 4 runs stayed within 5%.
REFERENCE_S = 0.025


def reference_seconds(n: int = 60_000) -> float:
    """Wall time of a fixed pure-Python loop of dict, float, list and sort
    work (the kind of work the simulator does), on the host as it is
    now.  Frozen: changing it rescales every host-time result."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0.0
    items: list[tuple[int, float]] = []
    for i in range(n):
        k = i % 977
        counts[k] = counts.get(k, 0) + 1
        acc += (i * 0.5) / (k + 1)
        items.append((k, acc))
        if len(items) > 64:
            items.sort()
            del items[:32]
    return time.perf_counter() - t0


@dataclass
class Round:
    target: object
    report: object
    observed: dict
    #: host time of the round, as measured
    seconds: float
    #: ``reference_seconds()`` around the round (mean of before and after)
    reference: float
    tracer: object = None

    @property
    def scaled(self) -> float:
        """Host time normalised to ``REFERENCE_S`` (see there)."""
        return self.seconds * REFERENCE_S / self.reference


def serve_round(workload, seed: int, traced: bool = False) -> Round:
    """Build a fresh target, then time trace generation through the
    report queries; gate the result afterwards, untimed."""
    from gate import check_round, observe
    from traced import ROOT as ROOT_SPAN, TRACE, instrument
    from tracer import Tracer

    target = workload.build()
    n = workload.n_requests
    gc.collect()
    before = reference_seconds()
    tracer = None
    if not traced:
        t0 = time.perf_counter()
        report = target.serve(workload.trace(seed, n))
        observed = observe(report, n)
        seconds = time.perf_counter() - t0
    else:
        with Tracer() as tracer:
            instrument(tracer)
            root = tracer.open(ROOT_SPAN)
            report = target.serve(tracer.iterate(workload.trace(seed, n),
                                                 TRACE))
            observed = observe(report, n)
            tracer.close(root)
        seconds = tracer.t1[root] - tracer.t0[root]
    reference = (before + reference_seconds()) / 2
    check_round(report, target.engines, n)
    return Round(target, report, observed, seconds, reference, tracer)


def probe(name: str, seed: int) -> dict[str, float]:
    """Set-up time of a fresh interpreter, split by stage (``probe.py``)."""
    t_spawn = time.perf_counter()
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), name,
                          str(seed)], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    stamps = json.loads(out.strip().splitlines()[-1])
    return {
        "setup_s": stamps["first"] - t_spawn,
        "setup.interp_s": stamps["start"] - t_spawn,
        "setup.numpy_import_s": stamps["numpy"] - stamps["start"],
        "setup.repro_import_s": stamps["repro"] - stamps["numpy"],
        "setup.build_s": stamps["build"] - stamps["repro"],
    }


class Sampler:
    """Serves rounds until ``seconds`` have passed (and at least
    ``MIN_ROUNDS``), firing ``PROBES`` set-up probes at even intervals
    between rounds so no single noisy second sets ``setup_s``."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name, self.seed, self.seconds = name, seed, seconds
        self.probes: list[dict[str, float]] = []
        self.t_start = time.perf_counter()

    def rounds(self):
        every = self.seconds / PROBES
        n = 0
        while True:
            elapsed = time.perf_counter() - self.t_start
            if len(self.probes) < PROBES and elapsed >= len(self.probes) \
                    * every:
                self.probes.append(probe(self.name, self.seed))
            if elapsed >= self.seconds and n >= MIN_ROUNDS:
                break
            yield n
            n += 1
        while len(self.probes) < PROBES:
            self.probes.append(probe(self.name, self.seed))

    def setup_median(self, key: str) -> float:
        return statistics.median(p[key] for p in self.probes)


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(seed: int, rounds: int, samples: dict[str, int]) -> dict:
    import numpy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit.strip() if commit else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "src_sha256": digest.hexdigest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "rounds": rounds,
        "samples": samples,
    }


def _result(correct: bool, attempted: int, failed: int,
            metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def timed_run(workload, seed: int, seconds: float):
    """End-to-end metrics: untraced rounds, medians, probes."""
    from gate import SIM_METRICS, check_same

    probe(workload.name, seed)  # warm: bytecode and page cache
    expected = serve_round(workload, seed).observed  # warm-up round
    attempted = workload.n_requests
    sampler = Sampler(workload.name, seed, seconds)
    # Keep numbers only: a kept report or target would inflate peak RSS.
    raw, refs, scaled = [], [], []
    for _ in sampler.rounds():
        r = serve_round(workload, seed)
        attempted += workload.n_requests
        check_same(expected, r.observed, "between rounds")
        raw.append(r.seconds)
        refs.append(r.reference)
        scaled.append(r.scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = workload.n_requests
    values = {
        "setup_s": sampler.setup_median("setup_s"),
        "host_us_per_request":
            statistics.median(scaled) / n * 1e6,
        "peak_rss_mb": peak_rss_mb,
        **{k: float(expected[k]) for k in SIM_METRICS},
    }
    samples = {"setup_s": len(sampler.probes),
               "host_us_per_request": len(scaled), "peak_rss_mb": 1,
               **{k: len(scaled) + 1 for k in SIM_METRICS}}
    units = dict(END_TO_END)
    metrics = {k: (values[k], units[k]) for k, _ in END_TO_END}
    prov = provenance(seed, len(scaled), samples)
    prov["raw_us_per_request"] = statistics.median(raw) / n * 1e6
    prov["reference_s"] = statistics.median(refs)
    return attempted, metrics, prov


def traced_run(workload, seed: int, seconds: float):
    """Per-layer metrics: untraced and traced rounds in pairs."""
    from gate import GateError, check_same
    from traced import PER_LAYER, lacking, layer_metrics

    probe(workload.name, seed)
    expected = serve_round(workload, seed).observed
    attempted = workload.n_requests
    sampler = Sampler(workload.name, seed, seconds)
    plain, traced, layers = [], [], []
    last = None
    for _ in sampler.rounds():
        u = serve_round(workload, seed)
        check_same(expected, u.observed, "between rounds")
        t = serve_round(workload, seed, traced=True)
        check_same(u.observed, t.observed, "traced vs untraced")
        attempted += 2 * workload.n_requests
        m = layer_metrics(t.tracer, t.report, t.target.router)
        total = sum(t.tracer.self_times())
        if abs(total - t.seconds) > 1e-6 * t.seconds:
            raise GateError(f"layer self times sum to {total} s, not the "
                            f"traced round's {t.seconds} s")
        for name, value in m.items():
            if not name.endswith("_s") and layers \
                    and value != layers[0][name]:
                raise GateError(f"count {name} differs between traced "
                                f"rounds: {value} vs {layers[0][name]}")
        plain.append(u.scaled)
        traced.append(t.scaled)
        layers.append(m)
        last = t
    n = workload.n_requests
    # Times are medians over traced rounds; counts repeat exactly.
    values = {name: statistics.median(m[name] for m in layers)
              if name.endswith("_s") else layers[0][name]
              for name in layers[0]}
    for key in ("setup.interp_s", "setup.numpy_import_s",
                "setup.repro_import_s", "setup.build_s"):
        values[key] = sampler.setup_median(key)
    untraced_us = statistics.median(plain) / n * 1e6
    traced_us = statistics.median(traced) / n * 1e6
    values["run.untraced_us_per_request"] = untraced_us
    values["run.traced_us_per_request"] = traced_us
    values["run.tracing_overhead_pct"] = (traced_us / untraced_us - 1) * 100
    last.tracer.write(OUT / f"{workload.name}-{seed}-spans.json")
    print(f"{workload.name}: layer self times sum to the traced round's "
          f"host time ({len(traced)} traced rounds); tracing overhead "
          f"{values['run.tracing_overhead_pct']:.1f}%")
    missing = lacking(last.tracer, last.target.router)
    if missing:
        print(f"{workload.name} does not exercise: {', '.join(missing)} "
              "(their metrics read 0)")
    samples = {"setup.*": len(sampler.probes), "other": len(layers)}
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return attempted, metrics, provenance(seed, len(traced), samples)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"no simulator sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from gate import GateError, check_paper
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    try:
        attempted, metrics, prov = run(workload, args.seed, args.seconds)
        check_paper()
    except GateError as exc:
        print(f"gate failed: {exc}", file=sys.stderr)
        print(_result(False, 1, 1, {}))
        return 1
    print("provenance: " + json.dumps(prov))
    print(_result(True, attempted, 0, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
