"""One set-up probe, run in a fresh interpreter by ``run.py``.

Prints one JSON line of ``time.perf_counter()`` stamps (CLOCK_MONOTONIC,
shared with the parent process) taken as set-up passes each stage:
interpreter up, numpy imported, repro imported, target built, first
trace element generated.

Usage: ``python3 simbench/probe.py <workload> <seed>``
"""

import time

t_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401

t_numpy = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
from workloads import WORKLOADS  # noqa: E402

t_repro = time.perf_counter()
workload = WORKLOADS[sys.argv[1]]
workload.build()
t_build = time.perf_counter()
next(iter(workload.trace(int(sys.argv[2]), workload.n_requests)))
t_first = time.perf_counter()
print(json.dumps({"start": t_start, "numpy": t_numpy, "repro": t_repro,
                  "build": t_build, "first": t_first}))
