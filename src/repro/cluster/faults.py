"""Deterministic fault injection for replicated serving clusters.

A :class:`FaultSchedule` is a seeded, immutable timeline of replica
faults — crash, hang, slowdown, and interconnect degradation — pinned
to *simulated* timestamps.  Determinism is the whole design: the same
seed replays the same faults against the same trace and produces a
bit-identical cluster report with scheduler fast-forward on or off
(the engine ends fast-forward windows at fault boundaries), so a
chaos run is as diffable and regression-testable as a healthy one.

The schedule compiles per replica into a :class:`ReplicaFaultPlan` of
scheduler-facing actions:

* ``"crash"`` — the replica loses all volatile state at ``start_s``:
  running sequences drop their KV and generated tokens, queued work is
  lost, and arrivals during the outage find nobody listening.  The
  engine logs every killed request (:class:`KilledRequest`) for the
  router to re-dispatch; after ``duration_s`` the replica restarts,
  optionally serving through a warm-up slowdown while caches refill.
* ``"stall"`` — a hang: the replica freezes for ``duration_s`` (a GC
  pause, a driver wedge), then resumes with all state intact.
* ``"slow"`` — degraded service: every prefill/decode step costs
  ``factor``x cycles over ``[start_s, start_s + duration_s)``.  An
  ``interconnect`` fault maps here too — on a TP-sharded replica the
  per-step collectives serialize with compute, so a link running at
  ``1/factor`` bandwidth is conservatively modeled as a replica-wide
  service-rate reduction.
* ``"drain"`` — a *planned* disruption (rolling restart, maintenance):
  admission closes at ``start_s``, running sequences decode on toward
  the ``duration_s`` deadline, and whatever is still in flight then
  checkpoints (:class:`repro.engine.scheduler.MigratedRequest`) for
  the router to hand over to a healthy replica — work moves, nothing
  dies.

Correlated failures ride on a :class:`FailureDomain` topology (racks,
hosts, power feeds): :meth:`FaultSchedule.generate` draws one fault
process per domain and expands each domain event into per-member
events with a shared clock, so a rack outage takes all of its replicas
down together instead of PR 9's independent-crash assumption.

Health tracking (:class:`HealthTracker`) models the router's view: a
fault is *detected* only after ``detection_delay_s`` of missed
queue-clock heartbeats, so arrivals inside the detection window still
route into the failing replica (and come back as kills to retry).
Retry dispatch uses a capped exponential backoff
(:class:`RetryPolicy`) with a per-request budget; the budget exhausted
surfaces as ``FinishReason.FAILED``, never a silent loss.  Degraded-
mode admission (:class:`DegradedModeConfig`) sheds ``best_effort``
then ``batch`` traffic cluster-wide while healthy capacity is reduced.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError

#: Event kinds a schedule may carry (validated on construction).
FAULT_KINDS = ("crash", "hang", "slowdown", "interconnect", "drain")

#: Scheduler-facing action kinds a plan expands events into.
ACTION_KINDS = ("crash", "stall", "slow", "drain")


@dataclass(frozen=True)
class FailureDomain:
    """One correlated-failure blast radius — a rack, a host, a power
    feed: the replicas that go down together when the domain does."""

    name: str
    replicas: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicas", tuple(self.replicas))
        if not self.replicas:
            raise SimulationError(
                f"failure domain {self.name!r} needs at least one replica")
        if len(set(self.replicas)) != len(self.replicas):
            raise SimulationError(
                f"failure domain {self.name!r} repeats a replica")
        if any(r < 0 for r in self.replicas):
            raise SimulationError(
                f"failure domain {self.name!r} has a negative replica id")


def _domain_map(topology: "tuple[FailureDomain, ...]",
                n_replicas: int) -> dict[int, str]:
    """replica -> domain name; validates disjointness and bounds."""
    names: set[str] = set()
    members: dict[int, str] = {}
    for domain in topology:
        if domain.name in names:
            raise SimulationError(
                f"duplicate failure domain name {domain.name!r}")
        names.add(domain.name)
        for replica in domain.replicas:
            if replica >= n_replicas:
                raise SimulationError(
                    f"domain {domain.name!r} targets replica {replica} "
                    f"of a {n_replicas}-replica cluster")
            if replica in members:
                raise SimulationError(
                    f"replica {replica} belongs to both "
                    f"{members[replica]!r} and {domain.name!r}")
            members[replica] = domain.name
    return members


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault on one replica (see module docstring)."""

    kind: str
    replica: int
    start_s: float
    duration_s: float
    #: service-rate multiplier for ``slowdown``/``interconnect``
    #: (cycles per step scale by this; must be > 1).
    factor: float = 1.0
    #: post-crash warm-up: the restarted replica serves at
    #: ``warmup_factor``x cycles for ``warmup_s`` while caches refill.
    warmup_s: float = 0.0
    warmup_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SimulationError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{FAULT_KINDS}")
        if self.replica < 0:
            raise SimulationError(
                f"fault replica must be >= 0: {self.replica}")
        if self.start_s < 0:
            raise SimulationError(
                f"fault start must be >= 0: {self.start_s}")
        if self.duration_s <= 0:
            raise SimulationError(
                f"fault duration must be positive: {self.duration_s}")
        if self.kind in ("slowdown", "interconnect") and self.factor <= 1:
            raise SimulationError(
                f"{self.kind} factor must be > 1: {self.factor}")
        if self.warmup_s < 0 or self.warmup_factor < 1:
            raise SimulationError(
                "crash warm-up needs warmup_s >= 0 and "
                f"warmup_factor >= 1: {self.warmup_s}/{self.warmup_factor}")

    @property
    def end_s(self) -> float:
        """When the replica is fully healthy again (warm-up included)."""
        end = self.start_s + self.duration_s
        if self.kind == "crash":
            end += self.warmup_s
        return end


@dataclass(frozen=True)
class FaultAction:
    """One scheduler-facing action of a replica's compiled plan."""

    kind: str  # "crash" | "stall" | "slow"
    start_s: float
    duration_s: float
    factor: float = 1.0

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class ReplicaFaultPlan:
    """One replica's action timeline, sorted and non-overlapping."""

    replica: int
    actions: tuple[FaultAction, ...]

    def __post_init__(self) -> None:
        prev_end = -1.0
        for action in self.actions:
            if action.kind not in ACTION_KINDS:
                raise SimulationError(
                    f"unknown fault action {action.kind!r}")
            if action.start_s < prev_end:
                raise SimulationError(
                    f"replica {self.replica}: fault actions overlap at "
                    f"t={action.start_s:.6f}s")
            prev_end = action.end_s


class FaultSchedule:
    """An immutable, validated multi-replica fault timeline."""

    def __init__(self, events: "list[FaultEvent] | tuple[FaultEvent, ...]",
                 seed: int | None = None,
                 topology: "tuple[FailureDomain, ...] | None" = None,
                 ) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(sorted(
            events, key=lambda e: (e.start_s, e.replica)))
        #: the generating seed, carried for provenance only (None for a
        #: hand-built schedule); replay needs just the events.
        self.seed = seed
        #: the failure-domain topology the events were drawn over (if
        #: any) — the router's :class:`HealthTracker` picks it up so
        #: retry rotation and affinity become domain-aware.
        self.topology: tuple[FailureDomain, ...] = \
            tuple(topology) if topology else ()
        if self.topology:
            # Disjointness/uniqueness now; the bounds check against the
            # actual cluster size happens where that size is known
            # (generate(), HealthTracker).
            _domain_map(self.topology,
                        max(r for d in self.topology
                            for r in d.replicas) + 1)
        # Per-replica non-overlap (warm-up included) is what lets the
        # engine keep a single active slowdown/outage at a time.
        for replica in {e.replica for e in self.events}:
            self.plan_for(replica)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultSchedule) \
            and self.events == other.events

    def plan_for(self, replica: int) -> ReplicaFaultPlan:
        """Compile this replica's events into scheduler actions.  A
        crash expands into the outage plus (optionally) a warm-up
        slowdown starting the moment the replica restarts."""
        actions: list[FaultAction] = []
        for event in self.events:
            if event.replica != replica:
                continue
            if event.kind == "crash":
                actions.append(FaultAction(
                    "crash", event.start_s, event.duration_s))
                if event.warmup_s > 0 and event.warmup_factor > 1:
                    actions.append(FaultAction(
                        "slow", event.start_s + event.duration_s,
                        event.warmup_s, event.warmup_factor))
            elif event.kind == "hang":
                actions.append(FaultAction(
                    "stall", event.start_s, event.duration_s))
            elif event.kind == "drain":
                actions.append(FaultAction(
                    "drain", event.start_s, event.duration_s))
            else:  # slowdown / interconnect
                actions.append(FaultAction(
                    "slow", event.start_s, event.duration_s,
                    event.factor))
        actions.sort(key=lambda a: a.start_s)
        return ReplicaFaultPlan(replica, tuple(actions))

    # -- constructors -------------------------------------------------

    @classmethod
    def single_crash(cls, replica: int, at_s: float, downtime_s: float,
                     warmup_s: float = 0.0,
                     warmup_factor: float = 2.0) -> "FaultSchedule":
        """The canonical chaos experiment: one replica crashes once."""
        return cls([FaultEvent("crash", replica, at_s, downtime_s,
                               warmup_s=warmup_s,
                               warmup_factor=warmup_factor)])

    @classmethod
    def generate(cls, n_replicas: int, horizon_s: float, seed: int = 0,
                 mean_gap_s: float | None = None,
                 kind_weights: "dict[str, float] | None" = None,
                 downtime_s: tuple[float, float] = (0.002, 0.01),
                 hang_s: tuple[float, float] = (0.001, 0.005),
                 slow_s: tuple[float, float] = (0.005, 0.02),
                 slow_factor: tuple[float, float] = (1.5, 4.0),
                 warmup_s: float = 0.002,
                 drain_s: tuple[float, float] = (0.005, 0.02),
                 topology: "tuple[FailureDomain, ...] | None" = None,
                 ) -> "FaultSchedule":
        """A seeded random schedule: exponentially spaced faults over
        ``[0, horizon_s)`` with kinds drawn from ``kind_weights``.
        Pure function of its arguments — the deterministic-replay
        contract of the whole subsystem.

        Without ``topology`` every replica runs its own fault process
        (PR 9's independent-failure assumption).  With it, each
        :class:`FailureDomain` runs ONE process whose events expand to
        every member replica with a shared clock — a rack outage takes
        the whole rack down at the same instant — and replicas outside
        any domain keep independent draws.  ``"drain"`` only appears
        when ``kind_weights`` gives it weight (planned disruptions are
        usually placed explicitly, not drawn)."""
        if n_replicas <= 0 or horizon_s <= 0:
            raise SimulationError(
                "generate needs n_replicas >= 1 and horizon_s > 0")
        weights = kind_weights or {"crash": 0.4, "hang": 0.2,
                                   "slowdown": 0.3, "interconnect": 0.1}
        kinds = sorted(weights)
        probs = np.array([weights[k] for k in kinds], dtype=np.float64)
        if (probs < 0).any() or probs.sum() <= 0:
            raise SimulationError("kind_weights must be non-negative "
                                  "with a positive sum")
        probs = probs / probs.sum()
        gap = mean_gap_s if mean_gap_s is not None else horizon_s / 3
        covered = _domain_map(tuple(topology), n_replicas) \
            if topology else {}
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []

        def draw_process(targets: tuple[int, ...]) -> None:
            t = 0.0
            while True:
                t += float(rng.exponential(gap))
                if t >= horizon_s:
                    break
                kind = kinds[int(rng.choice(len(kinds), p=probs))]
                if kind == "crash":
                    duration = float(rng.uniform(*downtime_s))
                    for replica in targets:
                        events.append(FaultEvent(
                            "crash", replica, t, duration,
                            warmup_s=warmup_s))
                    t += duration + warmup_s
                elif kind == "hang":
                    duration = float(rng.uniform(*hang_s))
                    for replica in targets:
                        events.append(FaultEvent(
                            "hang", replica, t, duration))
                    t += duration
                elif kind == "drain":
                    duration = float(rng.uniform(*drain_s))
                    for replica in targets:
                        events.append(FaultEvent(
                            "drain", replica, t, duration))
                    t += duration
                else:
                    duration = float(rng.uniform(*slow_s))
                    factor = float(rng.uniform(*slow_factor))
                    for replica in targets:
                        events.append(FaultEvent(
                            kind, replica, t, duration, factor=factor))
                    t += duration

        # Domain processes first (declaration order), then uncovered
        # replicas ascending: with topology=None this consumes the rng
        # exactly as the pre-topology generator did, so existing seeds
        # replay unchanged.
        for domain in (topology or ()):
            draw_process(tuple(domain.replicas))
        for replica in range(n_replicas):
            if replica not in covered:
                draw_process((replica,))
        return cls(events, seed=seed, topology=topology)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with a per-request retry budget.

    Attempt ``k`` (1-based) of a killed request is re-dispatched
    ``min(cap_s, base_s * multiplier**(k-1))`` after its kill; a
    request killed more than ``budget`` times surfaces as
    ``FinishReason.FAILED`` at its final kill time.
    """

    base_s: float = 0.0005
    multiplier: float = 2.0
    cap_s: float = 0.01
    budget: int = 3

    def __post_init__(self) -> None:
        if self.base_s <= 0 or self.cap_s < self.base_s:
            raise SimulationError(
                "retry backoff needs 0 < base_s <= cap_s")
        if self.multiplier < 1:
            raise SimulationError(
                f"retry multiplier must be >= 1: {self.multiplier}")
        if self.budget < 0:
            raise SimulationError(
                f"retry budget must be >= 0: {self.budget}")

    def delay_s(self, attempt: int) -> float:
        if attempt < 1:
            raise SimulationError(
                f"retry attempts are 1-based: {attempt}")
        return min(self.cap_s, self.base_s * self.multiplier
                   ** (attempt - 1))


@dataclass(frozen=True)
class DegradedModeConfig:
    """Cluster-wide load shedding while healthy capacity is reduced.

    Thresholds are healthy-capacity fractions: with fraction ``f``,
    ``best_effort`` arrivals are shed when ``f < shed_best_effort_below``
    and ``batch`` arrivals additionally when ``f < shed_batch_below``.
    Interactive traffic is never shed — protecting it is the point.
    """

    shed_best_effort_below: float = 1.0
    shed_batch_below: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.shed_batch_below
                <= self.shed_best_effort_below <= 1.0):
            raise SimulationError(
                "degraded-mode thresholds need 0 <= shed_batch_below "
                "<= shed_best_effort_below <= 1")

    def shed_classes(self, healthy_fraction: float) -> frozenset:
        if healthy_fraction < self.shed_batch_below:
            return frozenset(("best_effort", "batch"))
        if healthy_fraction < self.shed_best_effort_below:
            return frozenset(("best_effort",))
        return frozenset()


# The engine owns the kill and migration records (it cannot import
# cluster code); re-exported here because callers naturally reach for
# them next to the schedule and the retry policy.
from ..engine.scheduler import (  # noqa: E402,F401
    KilledRequest,
    MigratedRequest,
)


class HealthTracker:
    """The router's health view of a schedule: per-replica unhealthy
    intervals after a detection delay of missed queue-clock heartbeats.

    A crash is detected ``detection_delay_s`` after it starts and the
    replica reads unhealthy until restart *plus warm-up* (a warming
    replica accepts retries only once its service rate recovers); a
    hang long enough to miss heartbeats reads unhealthy until it ends.
    Slowdowns keep heartbeats flowing and stay healthy — they degrade
    goodput, not liveness.  A drain is *planned*: the router knows the
    window in advance, so the replica reads unhealthy over the whole
    ``[start_s, end_s)`` with no detection delay — but a drain is not
    an outage (work hands over, nothing dies), so it joins neither the
    repair ledger nor the degraded spans.

    With a :class:`FailureDomain` topology (passed explicitly or
    carried by the schedule), the tracker also reports per-domain
    health and computes domain-aware retry candidates: never back into
    the blast radius the request just died in, away from partially
    failing domains while clean ones remain, interleaved across
    domains so consecutive attempts spread the risk.
    """

    def __init__(self, schedule: FaultSchedule, n_replicas: int,
                 detection_delay_s: float = 0.0005,
                 topology: "tuple[FailureDomain, ...] | None" = None,
                 ) -> None:
        if n_replicas <= 0:
            raise SimulationError(
                f"n_replicas must be >= 1: {n_replicas}")
        if detection_delay_s < 0:
            raise SimulationError(
                f"detection delay must be >= 0: {detection_delay_s}")
        self.schedule = schedule
        self.n_replicas = n_replicas
        self.detection_delay_s = detection_delay_s
        if topology is None:
            topology = getattr(schedule, "topology", None)
        self.topology: tuple[FailureDomain, ...] = \
            tuple(topology) if topology else ()
        self._domain_of = _domain_map(self.topology, n_replicas)
        #: replica -> merged, sorted (start, end) unhealthy intervals.
        self._unhealthy: dict[int, list[tuple[float, float]]] = \
            {r: [] for r in range(n_replicas)}
        #: crash repair times (fault start -> healthy again), for MTTR.
        self._repairs: list[float] = []
        #: capacity-reducing outage spans (crash incl. warm-up), for
        #: goodput-during-recovery accounting.
        outages: list[tuple[float, float]] = []
        for event in schedule.events:
            if event.replica >= n_replicas:
                raise SimulationError(
                    f"fault targets replica {event.replica} of a "
                    f"{n_replicas}-replica cluster")
            if event.kind == "crash":
                lo = event.start_s + detection_delay_s
                hi = event.end_s
                self._repairs.append(hi - event.start_s)
                outages.append((event.start_s, hi))
            elif event.kind == "hang" \
                    and event.duration_s > detection_delay_s:
                lo = event.start_s + detection_delay_s
                hi = event.start_s + event.duration_s
            elif event.kind == "drain":
                # Planned: no detection delay, no repair, no outage.
                lo = event.start_s
                hi = event.end_s
            else:
                continue
            if hi > lo:
                self._unhealthy[event.replica].append((lo, hi))
        for replica, spans in self._unhealthy.items():
            self._unhealthy[replica] = _merge_spans(spans)
        self._degraded = _merge_spans(outages)
        #: bisect keys per replica (interval starts).
        self._starts = {r: [s for s, _ in spans]
                        for r, spans in self._unhealthy.items()}

    def is_healthy(self, replica: int, t_s: float) -> bool:
        spans = self._unhealthy[replica]
        i = bisect.bisect_right(self._starts[replica], t_s) - 1
        return not (i >= 0 and t_s < spans[i][1])

    def healthy_replicas(self, t_s: float) -> tuple[int, ...]:
        return tuple(r for r in range(self.n_replicas)
                     if self.is_healthy(r, t_s))

    def healthy_fraction(self, t_s: float) -> float:
        return len(self.healthy_replicas(t_s)) / self.n_replicas

    def degraded_spans(self) -> tuple[tuple[float, float], ...]:
        """Cluster-wide capacity-reduced intervals (crash outages plus
        their warm-ups), merged across replicas."""
        return tuple(self._degraded)

    def degraded_time_s(self) -> float:
        return sum(hi - lo for lo, hi in self._degraded)

    def mttr_s(self) -> float | None:
        """Mean time to repair a crash (fault start to fully healthy:
        detection + restart + warm-up); None without crashes."""
        if not self._repairs:
            return None
        return sum(self._repairs) / len(self._repairs)

    # -- failure domains ----------------------------------------------

    def domain_of(self, replica: int) -> str | None:
        """The failure domain ``replica`` belongs to (None outside
        every domain)."""
        return self._domain_of.get(replica)

    def domain_health(self, t_s: float) -> dict[str, float]:
        """domain name -> healthy fraction of its members at ``t_s``."""
        return {
            d.name: sum(1 for r in d.replicas
                        if self.is_healthy(r, t_s)) / len(d.replicas)
            for d in self.topology}

    def retry_candidates(self, t_s: float,
                         died_on: int | None = None) -> tuple[int, ...]:
        """Replicas a retry (or migration handoff) at ``t_s`` should
        rotate over, best first.

        Healthy replicas only; the domain the request just died in is
        excluded outright while survivors exist outside it, and
        partially-unhealthy domains are dropped while fully-clean
        candidates remain.  The result interleaves domains round-robin
        so attempt ``k`` and attempt ``k+1`` land in different blast
        radii.  Falls back gracefully: with every candidate suspect,
        suspicion is ignored; with none at all, the tuple is empty and
        the caller decides (fail, or re-dispatch blind).
        """
        healthy = [r for r in range(self.n_replicas)
                   if self.is_healthy(r, t_s)]
        if not healthy:
            return ()
        if not self._domain_of:
            if died_on is not None:
                kept = [r for r in healthy if r != died_on]
                if kept:
                    return tuple(kept)
            return tuple(healthy)
        bad = self._domain_of.get(died_on) \
            if died_on is not None else None
        if bad is not None:
            outside = [r for r in healthy
                       if self._domain_of.get(r) != bad]
            if outside:
                healthy = outside
        if died_on is not None and died_on in healthy:
            kept = [r for r in healthy if r != died_on]
            if kept:
                healthy = kept
        suspect = {d.name for d in self.topology
                   if any(not self.is_healthy(r, t_s)
                          for r in d.replicas)}
        if suspect:
            clean = [r for r in healthy
                     if self._domain_of.get(r) not in suspect]
            if clean:
                healthy = clean
        # Interleave across domains (ungrouped replicas count as their
        # own singleton domain) so consecutive retries spread out.
        groups: dict[object, list[int]] = {}
        for r in healthy:
            groups.setdefault(self._domain_of.get(r, r), []).append(r)
        ordered = sorted(groups.values(), key=lambda g: g[0])
        out: list[int] = []
        for i in range(max(len(g) for g in ordered)):
            for group in ordered:
                if i < len(group):
                    out.append(group[i])
        return tuple(out)


def _merge_spans(
        spans: "list[tuple[float, float]]",
) -> list[tuple[float, float]]:
    """Sorted union of half-open intervals."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged
