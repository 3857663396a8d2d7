"""Steadiness check: run one workload k times and show each end-to-end
metric's spread against its bound in ``BENCHMARK.json``.

Usage (from the repository root)::

    python3 simbench/steady.py --workload paper_7b --runs 10 \\
        [--sets 2] [--first-seed 1] [--seconds 20] [--save out.json]

Run ``i`` of a set uses seed ``first_seed + i``; every set repeats the
same seeds.  For each metric it prints the median, quartiles
(``statistics.quantiles(values, n=4)``), min and max, and the spread
``(q3 - q1) / median`` against the metric's bound: ``steady`` when the
spread is under a third of the bound, ``ok`` under the bound, ``NOISY``
otherwise (``setup_s`` spread is shown but not judged).  With
``--sets 2`` or more it also shows how far each later set's median
moved from the first set's, in the worse direction, against the bound.
Exits 1 if any judged value fails its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=600).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run was not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(first: float, later: float, better: str) -> float:
    """Share of ``first`` by which ``later`` is worse (negative: better)."""
    if not first:
        return 0.0
    delta = later - first if better == "lower" else first - later
    return delta / abs(first)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=bench["run_seconds"])
    parser.add_argument("--save", type=Path,
                        help="write every run's metrics here as JSON")
    args = parser.parse_args(argv)

    sets = []
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            runs.append(run_once(args.workload, args.first_seed + i,
                                 args.seconds))
            print(f"set {s + 1} run {i + 1}/{args.runs} done", flush=True)
        sets.append(runs)
    if args.save:
        args.save.write_text(json.dumps(sets, indent=1))

    failed = False
    print(f"\n{args.workload}: {args.runs} runs x {args.sets} set(s), "
          f"{args.seconds} s each")
    print(f"{'metric':<22}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'min':>14}{'max':>14}{'spread':>9}{'bound':>7}  verdict")
    for name, spec in metrics.items():
        bound = spec["bound"]
        medians = []
        for s, runs in enumerate(sets):
            values = [r[name] for r in runs]
            med, q1, q3, sp = spread(values)
            medians.append(med)
            if name == "setup_s":
                verdict = "(not judged)"
            elif sp < bound / 3:
                verdict = "steady"
            elif sp <= bound:
                verdict = "ok"
            else:
                verdict, failed = "NOISY", True
            print(f"{name:<22}{s + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{min(values):>14.6g}{max(values):>14.6g}{sp:>9.4f}"
                  f"{bound:>7.3f}  {verdict}")
        for s, med in enumerate(medians[1:], start=2):
            moved = worse_by(medians[0], med, spec["better"])
            ok = moved <= bound
            failed |= not ok
            print(f"{'':<22}{s:>4}  median worse than set 1 by "
                  f"{moved:+.4f} (bound {bound})  "
                  f"{'ok' if ok else 'MOVED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
