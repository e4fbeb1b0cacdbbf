"""The cluster gateway: route, health-probe, fail over, brown out.

One :class:`ClusterGateway` drives one open-loop sweep end to end on a
single virtual timeline (a :class:`~repro.sim.events.LeanEventQueue`):
arrivals from the traffic generator, placement via the bin-pack/
zone-spread scheduler, warm-pool VM lifecycle on each node, health
probing with suspect→dead transitions, failover with hedged retries
under a retry budget, and the brownout ladder when the queue backs up.

**The conservation invariant** (the whole point of a resilience
layer): every request finalizes exactly once, as *served*, *degraded*
(failover budget exhausted, or the fleet was lost), or *shed with a
record* carrying a deterministic ``retry_after_ns`` hint.  Nothing is
ever silently dropped; :attr:`ClusterReport.conserved` checks the sum.

**Determinism**: all randomness comes from label-derived
:class:`~repro.sim.rng.SimRng` substreams drawn sequentially in event
order, all fault geometry is a pure function of the fault plan, and
event ordering is the stable ``(time, insertion sequence)`` contract —
so a sweep is a pure function of ``(profiles, traffic, seed, plan)``
and serial vs parallel trial execution stays bit-identical.

**What the gateway knows**: placement and failover act only on probed
health state, never on fault-schedule ground truth.  A request routed
to a host that crashed a millisecond ago simply hangs until the probe
machine declares the host dead — detection latency is part of the
tail, as it is in production.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.attest.tiers import CollateralDoc, ZonedCollateral
from repro.core.cluster.health import HealthMonitor
from repro.core.cluster.node import ClusterNode, NodeState
from repro.core.cluster.overload import BrownoutLevel, OverloadController
from repro.core.cluster.placement import PlacementScheduler
from repro.core.cluster.profiles import HostProfile
from repro.core.cluster.traffic import TenantMix, TrafficGenerator, TrafficSpec
from repro.core.results import percentile
from repro.errors import GatewayError
from repro.sim.events import LeanEventQueue
from repro.sim.faults import FaultContext, FaultKind
from repro.sim.rng import SimRng

#: cold-boot costs (ns): provisioning a fresh (C)VM vs resuming a
#: pooled one; secure boots additionally pay attestation + collateral
SECURE_COLD_BOOT_NS = 160_000_000.0
NORMAL_COLD_BOOT_NS = 60_000_000.0
WARM_START_NS = 1_500_000.0
ATTEST_VERIFY_NS = 3_000_000.0

#: a request in flight on a suspect host is hedged this long after the
#: suspicion; a queued request older than the deadline is shed; the
#: autoscaler resizes warm pools once per interval
HEDGE_DELAY_NS = 100_000_000.0
QUEUE_DEADLINE_NS = 10_000_000_000.0
AUTOSCALE_INTERVAL_NS = 5_000_000_000.0

#: per-request service-time jitter (lognormal sigma)
SERVICE_JITTER_SIGMA = 0.08

#: event kinds on the lean queue (ints; never compared by the heap)
_ARRIVAL = 0
_COMPLETE = 1
_PROBE = 2
_PROBE_EVAL = 3
_CRASH = 4
_HEDGE = 5
_AUTOSCALE = 6
_DELIVER = 7


class _Request:
    """One open-loop request's mutable lifecycle state."""

    __slots__ = ("rid", "arrival_ns", "fn", "secure", "platform",
                 "memory_mib", "done", "hedged", "failed_over",
                 "enqueued_ns")

    def __init__(self, rid: int, arrival_ns: float, fn: int,
                 secure: bool, platform: str, memory_mib: int) -> None:
        self.rid = rid
        self.arrival_ns = arrival_ns
        self.fn = fn
        self.secure = secure
        self.platform = platform
        self.memory_mib = memory_mib
        self.done = False
        self.hedged = False
        self.failed_over = False
        self.enqueued_ns = 0.0


class _Attempt:
    """One placement of a request on one node."""

    __slots__ = ("req", "node", "start_ns", "dead", "finished")

    def __init__(self, req: _Request, node: ClusterNode,
                 start_ns: float) -> None:
        self.req = req
        self.node = node
        self.start_ns = start_ns
        self.dead = False       # the host crashed under it
        self.finished = False


@dataclass
class ClusterReport:
    """Everything one sweep produced, in canonical JSON-able form."""

    requests: int = 0
    served: int = 0
    degraded: int = 0
    shed: int = 0
    #: bounded sample of shed records: (request id, retry_after_ns)
    shed_records: list = field(default_factory=list)
    telemetry_dropped: int = 0
    failovers: int = 0
    hedges: int = 0
    retries_spent: int = 0
    affinity_misses: int = 0
    cold_boots: int = 0
    warm_starts: int = 0
    partition_delayed: int = 0
    queue_peak: int = 0
    queue_timeouts: int = 0
    makespan_ns: float = 0.0
    latency_p50_ns: float = 0.0
    latency_p99_ns: float = 0.0
    latency_p999_ns: float = 0.0
    #: probe-machine counters: sent/missed/suspected/died/recovered
    health: dict = field(default_factory=dict)
    #: brownout ladder: transitions into + virtual ns spent at each level
    brownout: dict = field(default_factory=dict)
    #: collateral tier hits (host/cdn/origin/stale/outage_failures/local)
    collateral: dict = field(default_factory=dict)
    #: zone -> busy_ns / (cores * makespan) utilisation in [0, 1]
    zone_utilization: dict = field(default_factory=dict)
    #: injected cluster faults, "kind@point" in schedule order
    faults_injected: list = field(default_factory=list)
    #: supply-chain boot counters (eager_pulls / lazy_boots /
    #: chunk_faults / key_releases) — only populated when the gateway
    #: runs with an :class:`~repro.supply.ImagePolicy`
    supply: dict = field(default_factory=dict)
    events_processed: int = 0

    @property
    def conserved(self) -> bool:
        """Zero silently dropped: every request is in exactly one bucket."""
        return self.requests == self.served + self.degraded + self.shed

    def to_dict(self) -> dict:
        """Canonical (sorted-key) form — what trial bodies return."""
        payload = {
            "requests": self.requests,
            "served": self.served,
            "degraded": self.degraded,
            "shed": self.shed,
            "shed_records": [list(entry) for entry in self.shed_records],
            "telemetry_dropped": self.telemetry_dropped,
            "failovers": self.failovers,
            "hedges": self.hedges,
            "retries_spent": self.retries_spent,
            "affinity_misses": self.affinity_misses,
            "cold_boots": self.cold_boots,
            "warm_starts": self.warm_starts,
            "partition_delayed": self.partition_delayed,
            "queue_peak": self.queue_peak,
            "queue_timeouts": self.queue_timeouts,
            "makespan_ns": self.makespan_ns,
            "latency_p50_ns": self.latency_p50_ns,
            "latency_p99_ns": self.latency_p99_ns,
            "latency_p999_ns": self.latency_p999_ns,
            "health": dict(sorted(self.health.items())),
            "brownout": dict(sorted(self.brownout.items())),
            "collateral": dict(sorted(self.collateral.items())),
            "zone_utilization": dict(sorted(self.zone_utilization.items())),
            "faults_injected": list(self.faults_injected),
            "events_processed": self.events_processed,
            "conserved": self.conserved,
        }
        if self.supply:
            # only sweeps run under an ImagePolicy carry the key, so
            # legacy reports (and their goldens) stay byte-identical
            payload["supply"] = dict(sorted(self.supply.items()))
        return dict(sorted(payload.items()))


class ClusterGateway:
    """One-shot engine: build, :meth:`run` once, read the report."""

    def __init__(self, profiles: tuple[HostProfile, ...], *,
                 seed: int = 0,
                 faults: FaultContext | None = None,
                 queue_cap: int | None = None,
                 retry_floor: int = 20, retry_ratio: float = 0.1,
                 image_policy=None) -> None:
        if not profiles:
            raise GatewayError("cluster needs at least one host profile")
        self.profiles = tuple(profiles)
        self.seed = seed
        self._faults = faults
        self.nodes = [ClusterNode(profile) for profile in self.profiles]
        self.zones = tuple(dict.fromkeys(p.zone for p in self.profiles))
        self.scheduler = PlacementScheduler(self.nodes)
        self.collateral = ZonedCollateral()
        #: optional :class:`~repro.supply.ImagePolicy`: every cold boot
        #: additionally pays the fixed supply-chain tax (pull strategy
        #: + key release on secure boots); ``None`` keeps the legacy
        #: boot model byte-identical
        self.image_policy = image_policy
        self._supply: dict[str, int] = {}
        self.monitor = HealthMonitor(
            self.nodes,
            on_suspect=self._on_suspect,
            on_dead=self._on_dead,
        )
        total_cores = sum(p.cores for p in self.profiles)
        self.controller = OverloadController(
            queue_cap if queue_cap is not None else 4 * total_cores)
        self.retry_floor = retry_floor
        self.retry_ratio = retry_ratio
        self._events = LeanEventQueue()
        self._queue: deque[_Request] = deque()
        #: node name -> {attempt object id: attempt} still on that host
        self._live: dict[str, dict[int, _Attempt]] = {
            node.profile.name: {} for node in self.nodes}
        self._service_rng = SimRng(seed, "cluster/service")
        self._faults_injected: list[str] = []
        self._finalized = 0
        self._autoscale_changes = 0
        self.report = ClusterReport()
        self._samples: list[float] = []
        self._ran = False

    # -- fault schedule ------------------------------------------------

    def _log_fault(self, kind: FaultKind, point: str) -> None:
        self._faults_injected.append(f"{kind.value}@{point}")
        self._faults.injected.append(f"{kind.value}@{point}")

    def _install_faults(self, horizon_ns: float) -> None:
        """Draw the cluster fault geometry for this sweep's horizon."""
        if self._faults is None or not self._faults.plan.active:
            return
        plan, scope = self._faults.plan, self._faults.scope
        for node in self.nodes:
            name = node.profile.name
            at = plan.event_at_ns(FaultKind.HOST_CRASH,
                                  f"{scope}/{name}", horizon_ns)
            if at is not None:
                node.crashed_at_ns = at
                self._events.push(at, _CRASH, node)
                self._log_fault(FaultKind.HOST_CRASH, name)
            window = plan.window_ns(FaultKind.DEGRADED_HOST,
                                    f"{scope}/{name}", horizon_ns)
            if window is not None:
                node.degraded_window = window
                self._log_fault(FaultKind.DEGRADED_HOST, name)
        for zone in self.zones:
            window = plan.window_ns(FaultKind.ZONE_PARTITION,
                                    f"{scope}/{zone}", horizon_ns)
            if window is not None:
                self.monitor.partitions[zone] = window
                self._log_fault(FaultKind.ZONE_PARTITION, zone)
            window = plan.window_ns(FaultKind.COLLATERAL_OUTAGE,
                                    f"{scope}/{zone}", horizon_ns)
            if window is not None:
                self.collateral.outages[zone] = window
                self._log_fault(FaultKind.COLLATERAL_OUTAGE, zone)

    # -- the sweep -----------------------------------------------------

    def run(self, traffic: TrafficSpec) -> ClusterReport:
        """Push the whole open-loop trace through the fleet."""
        if self._ran:
            raise GatewayError("ClusterGateway.run is one-shot; build a "
                               "fresh gateway per sweep")
        self._ran = True
        mix = TenantMix(tuple(dict.fromkeys(
            p.platform for p in self.profiles)))
        generator = TrafficGenerator(traffic, mix, self.seed)
        self._mix = mix
        self._generator = generator
        self._total_requests = traffic.requests
        self._slow_factor = (self._faults.plan.slow_factor
                             if self._faults is not None else 1.0)
        self._install_faults(traffic.horizon_ns)
        self._prewarm(mix)

        events = self._events
        first_gap = generator.next_gap_ns(0.0)
        events.push(first_gap, _ARRIVAL, self._make_request(0, first_gap))
        events.push(self.monitor.probe_interval_ns, _PROBE, None)
        events.push(AUTOSCALE_INTERVAL_NS, _AUTOSCALE, None)

        processed = 0
        makespan = 0.0
        handlers = {
            _ARRIVAL: self._on_arrival,
            _COMPLETE: self._on_complete,
            _PROBE: self._on_probe,
            _PROBE_EVAL: self._on_probe_eval,
            _CRASH: self._on_crash,
            _HEDGE: self._on_hedge,
            _AUTOSCALE: self._on_autoscale,
            _DELIVER: self._on_deliver,
        }
        while events:
            time_ns, _, kind, payload = events.pop()
            handlers[kind](time_ns, payload)
            processed += 1
            if time_ns > makespan:
                makespan = time_ns
        self.controller.finish(makespan)
        return self._build_report(processed, makespan)

    def _prewarm(self, mix: TenantMix) -> None:
        """Seeded start-of-day warm pools (the autoscaler's bootstrap)."""
        for node in self.nodes:
            rng = SimRng(self.seed, f"autoscale/prewarm/{node.profile.name}")
            for _ in range(node.profile.cores // 2):
                node.prewarm(mix.names[mix.draw(rng.random())])

    def _make_request(self, rid: int, arrival_ns: float) -> _Request:
        fn, secure = self._generator.next_tenant()
        return _Request(rid, arrival_ns, fn, secure,
                        self._mix.platforms[fn], self._mix.memory_mib[fn])

    # -- event handlers ------------------------------------------------

    def _on_arrival(self, now_ns: float, req: _Request) -> None:
        level = self.controller.observe(len(self._queue), now_ns)
        if level is BrownoutLevel.SHED:
            self._finalize_shed(req, now_ns)
        elif level is BrownoutLevel.QUEUE:
            self._enqueue(req, now_ns)
        elif not self._dispatch(req, now_ns):
            self._enqueue(req, now_ns)
        next_rid = req.rid + 1
        if next_rid < self._total_requests:
            gap = self._generator.next_gap_ns(now_ns)
            self._events.push(now_ns + gap, _ARRIVAL,
                              self._make_request(next_rid, now_ns + gap))

    def _enqueue(self, req: _Request, now_ns: float) -> None:
        req.enqueued_ns = now_ns
        self._queue.append(req)
        if len(self._queue) > self.report.queue_peak:
            self.report.queue_peak = len(self._queue)

    def _dispatch(self, req: _Request, now_ns: float) -> bool:
        """Place and start one attempt; False when nothing fits."""
        excluded: tuple[str, ...] = ()
        while True:
            node = self._place(req, excluded)
            if node is None:
                return False
            cold = self.scheduler.acquire(node, self._mix.names[req.fn],
                                          req.memory_mib, req.secure)
            boot_ns = 0.0
            if cold:
                if req.secure:
                    hit = self.collateral.fetch(
                        CollateralDoc(platform=node.profile.platform,
                                      host=node.profile.name,
                                      zone=node.profile.zone),
                        now_ns)
                    if hit is None:
                        # collateral blackout: this zone cannot boot a
                        # CVM right now — undo and try another zone
                        self.scheduler.release(
                            node, self._mix.names[req.fn],
                            req.memory_mib, req.secure, stash=False)
                        excluded = excluded + (node.profile.zone,)
                        continue
                    boot_ns = (SECURE_COLD_BOOT_NS + ATTEST_VERIFY_NS
                               + hit.cost_ns)
                else:
                    boot_ns = NORMAL_COLD_BOOT_NS
                if self.image_policy is not None:
                    boot_ns += self._supply_boot(req.secure)
            else:
                boot_ns = WARM_START_NS
            service_ns = (self._mix.costs_ns[req.fn]
                          / node.profile.speed
                          * node.slowdown_at(now_ns, self._slow_factor)
                          * self._service_rng.lognormal_factor(
                              SERVICE_JITTER_SIGMA))
            attempt = _Attempt(req, node, now_ns)
            self._live[node.profile.name][id(attempt)] = attempt
            if node.alive_at(now_ns):
                self._events.push(now_ns + boot_ns + service_ns,
                                  _COMPLETE, attempt)
            # else: routed to a host that is already gone — the attempt
            # hangs until the probe machine declares the node dead and
            # _on_dead fails it over (detection latency is real latency)
            return True

    def _supply_boot(self, secure: bool) -> float:
        """One cold boot's supply-chain tax under the image policy."""
        policy = self.image_policy
        counters = self._supply
        if policy.strategy == "lazy":
            counters["lazy_boots"] = counters.get("lazy_boots", 0) + 1
            counters["chunk_faults"] = (counters.get("chunk_faults", 0)
                                        + policy.faults_per_boot)
        else:
            counters["eager_pulls"] = counters.get("eager_pulls", 0) + 1
        if secure and policy.signed:
            counters["key_releases"] = (counters.get("key_releases", 0)
                                        + 1)
        return policy.boot_cost_ns(secure)

    def _place(self, req: _Request,
               excluded: tuple[str, ...]) -> ClusterNode | None:
        """Place ``req`` outside the ``excluded`` zones (the zones whose
        collateral blackout already failed this request's boot)."""
        return self.scheduler.place(req.platform, req.secure,
                                    req.memory_mib, excluded)

    def _on_complete(self, now_ns: float, attempt: _Attempt) -> None:
        if attempt.dead:
            return          # the host died under it; crash handler ran
        attempt.finished = True
        node = attempt.node
        self._live[node.profile.name].pop(id(attempt), None)
        req = attempt.req
        self.scheduler.release(node, self._mix.names[req.fn],
                               req.memory_mib, req.secure)
        node.busy_ns += now_ns - attempt.start_ns
        window = self.monitor.partitions.get(node.profile.zone)
        if window is not None and window[0] <= now_ns < window[1]:
            # computed, but the response cannot cross the partition:
            # deliver when the window heals (if a failover wins the
            # race first, this delivery quietly loses)
            self._events.push(window[1], _DELIVER, attempt)
        elif not req.done:
            node.served += 1
            self._finalize_served(req, now_ns)
        self._drain_queue(now_ns)

    def _on_deliver(self, now_ns: float, attempt: _Attempt) -> None:
        req = attempt.req
        if req.done:
            return
        attempt.node.served += 1
        self.report.partition_delayed += 1
        self._finalize_served(req, now_ns)
        self._drain_queue(now_ns)

    def _on_probe(self, now_ns: float, _payload) -> None:
        self._events.push(now_ns + self.monitor.probe_timeout_ns,
                          _PROBE_EVAL, now_ns)
        if self._finalized < self._total_requests:
            self._events.push(now_ns + self.monitor.probe_interval_ns,
                              _PROBE, None)

    def _on_probe_eval(self, now_ns: float, sent_ns: float) -> None:
        self.monitor.evaluate_round(sent_ns)
        self._drain_queue(now_ns)
        if self._queue and all(not node.alive_at(now_ns)
                               for node in self.nodes):
            # the whole fleet is gone: flush the queue as degraded
            # records rather than waiting for probes forever
            while self._queue:
                self._finalize_degraded(self._queue.popleft(), now_ns)

    def _on_crash(self, now_ns: float, node: ClusterNode) -> None:
        """Ground truth: the host just died.  Its in-flight attempts
        will never complete; the *gateway* only reacts at detection."""
        for attempt in self._live[node.profile.name].values():
            attempt.dead = True
            node.busy_ns += now_ns - attempt.start_ns

    def _on_suspect(self, node: ClusterNode, now_ns: float) -> None:
        """Monitor callback: hedge what is still in flight there."""
        for attempt in self._live[node.profile.name].values():
            req = attempt.req
            if not req.done and not req.hedged:
                req.hedged = True
                self._events.push(now_ns + HEDGE_DELAY_NS,
                                  _HEDGE, attempt)

    def _on_hedge(self, now_ns: float, attempt: _Attempt) -> None:
        req = attempt.req
        if req.done or attempt.finished:
            return
        if not self._retry_allowed():
            return          # budget gone: let the original race on
        if self._dispatch(req, now_ns):
            self.report.retries_spent += 1
            self.report.hedges += 1

    def _on_dead(self, node: ClusterNode, now_ns: float) -> None:
        """Monitor callback: fail over everything still on the node."""
        live = self._live[node.profile.name]
        attempts = list(live.values())
        live.clear()
        for attempt in attempts:
            req = attempt.req
            if not attempt.dead and attempt.node.alive_at(now_ns):
                # partitioned-but-alive host: its local work may still
                # deliver after the heal; release is handled there
                self._live[node.profile.name][id(attempt)] = attempt
            if req.done:
                continue
            # no once-only guard here: a failover target can itself
            # die, and the request must keep moving until the retry
            # budget degrades it — never left unfinalized
            req.failed_over = True
            self._failover(req, now_ns)

    def _failover(self, req: _Request, now_ns: float) -> None:
        if not self._retry_allowed():
            self._finalize_degraded(req, now_ns)
            return
        if self._dispatch(req, now_ns):
            self.report.retries_spent += 1
            self.report.failovers += 1
        elif len(self._queue) < self.controller.queue_cap:
            self._enqueue(req, now_ns)
        else:
            self._finalize_shed(req, now_ns)

    def _on_autoscale(self, now_ns: float, _payload) -> None:
        for node in self.nodes:
            if node.state is not NodeState.HEALTHY:
                node.completions_since_tick = 0
                continue
            demand = node.completions_since_tick
            node.completions_since_tick = 0
            cores = node.profile.cores
            target = min(3 * cores,
                         max(cores // 2,
                             cores // 2 + (demand + cores - 1) // cores))
            if target != node.warm_cap:
                node.warm_cap = target
                self._autoscale_changes += 1
        self._drain_queue(now_ns)
        if self._finalized < self._total_requests:
            self._events.push(now_ns + AUTOSCALE_INTERVAL_NS,
                              _AUTOSCALE, None)

    # -- queue + finalisation ------------------------------------------

    def _drain_queue(self, now_ns: float) -> None:
        queue = self._queue
        while queue:
            req = queue[0]
            if req.done:                 # hedged/delivered while queued
                queue.popleft()
                continue
            if now_ns - req.enqueued_ns > QUEUE_DEADLINE_NS:
                queue.popleft()
                self.report.queue_timeouts += 1
                self._finalize_shed(req, now_ns)
                continue
            if not self._dispatch(req, now_ns):
                return
            queue.popleft()
        self.controller.observe(len(queue), now_ns)

    def _retry_allowed(self) -> bool:
        allowed = self.retry_floor + int(self.retry_ratio
                                         * self._finalized)
        return self.report.retries_spent < allowed

    def _finalize_served(self, req: _Request, now_ns: float) -> None:
        req.done = True
        self._finalized += 1
        self.report.served += 1
        if self.controller.level >= BrownoutLevel.DROP_TELEMETRY:
            self.report.telemetry_dropped += 1
        else:
            self._samples.append(now_ns - req.arrival_ns)

    def _finalize_degraded(self, req: _Request, now_ns: float) -> None:
        req.done = True
        self._finalized += 1
        self.report.degraded += 1

    def _finalize_shed(self, req: _Request, now_ns: float) -> None:
        req.done = True
        self._finalized += 1
        self.report.shed += 1
        hint = self.controller.retry_after_ns(len(self._queue))
        if len(self.report.shed_records) < 5:
            self.report.shed_records.append((req.rid, hint))

    # -- report --------------------------------------------------------

    def _build_report(self, processed: int, makespan: float
                      ) -> ClusterReport:
        report = self.report
        report.requests = self._total_requests
        report.makespan_ns = makespan
        report.events_processed = processed
        report.affinity_misses = self.scheduler.affinity_misses
        report.cold_boots = sum(node.cold_boots for node in self.nodes)
        report.warm_starts = sum(node.warm_starts for node in self.nodes)
        if self._samples:
            report.latency_p50_ns = percentile(self._samples, 50)
            report.latency_p99_ns = percentile(self._samples, 99)
            report.latency_p999_ns = percentile(self._samples, 99.9)
        report.health = {
            "probes_sent": self.monitor.probes_sent,
            "probes_missed": self.monitor.probes_missed,
            "suspected": self.monitor.suspected,
            "died": self.monitor.died,
            "recovered": self.monitor.recovered,
        }
        report.brownout = {
            f"transitions_{level.name.lower()}": count
            for level, count in self.controller.transitions.items()
        }
        for level, spent in self.controller.time_at_level_ns.items():
            report.brownout[f"time_ns_{level.name.lower()}"] = spent
        report.collateral = dict(self.collateral.hits)
        zone_busy: dict[str, float] = {}
        zone_capacity: dict[str, float] = {}
        for node in self.nodes:
            zone = node.profile.zone
            zone_busy[zone] = zone_busy.get(zone, 0.0) + node.busy_ns
            zone_capacity[zone] = (zone_capacity.get(zone, 0.0)
                                   + node.profile.cores * makespan)
        report.zone_utilization = {
            zone: (zone_busy[zone] / zone_capacity[zone]
                   if zone_capacity[zone] else 0.0)
            for zone in zone_busy
        }
        report.faults_injected = list(self._faults_injected)
        report.supply = dict(self._supply)
        return report
