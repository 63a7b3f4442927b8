"""Netfault campaigns: link/switch fault sweeps with recovery outcomes.

One run: build a fresh ≥4-node multi-switch FTGM cluster, start a
cross-switch message workload, arm the fault plane and the per-node path
detectors, inject one scenario's fault mid-stream, and observe until the
workload resolves (or a horizon passes).  Outcomes are bucketed into
four categories — recovered-by-reroute, recovered-by-retransmit, lost,
deadlocked — and the reroute-recovered runs contribute a recovery-latency
breakdown analogous to the paper's Table 3 (detection, daemon wakeup,
mapper discovery, table distribution, traffic resumption).

Every run builds its own simulator from its own seed and shares nothing
with its siblings, so the campaign — the registered ``netfaults``
experiment (``repro run netfaults``) — fans out through the experiment
engine exactly like the SWIFI campaigns, and same-seed campaigns render
byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..ckpt.pause import drive_run
from ..exp.spec import ClusterSpec
from ..obs.harvest import harvest_cluster
from ..payload import Payload
from ..sim import SeededRng
from .detector import arm_detectors
from .plane import NetworkFaultPlane

__all__ = [
    "NET_SCENARIOS",
    "NET_CLUSTER",
    "NET_CATEGORY_ORDER",
    "NetCategory",
    "NetFaultConfig",
    "NetFaultOutcome",
    "NetFaultCampaignResult",
    "inject_scenario",
    "resume_netfault",
]

NET_SCENARIOS = ["link-cut", "link-flap", "switch-port-kill", "corrupt"]

#: The sweep's fabric: four FTGM nodes on a two-switch ring, whose two
#: independent uplinks leave an alternate path around a severed one.
NET_CLUSTER = ClusterSpec(n_nodes=4, flavor="ftgm", topology="ring",
                          n_switches=2)


class NetCategory:
    REROUTE = "Recovered by reroute"
    RETRANSMIT = "Recovered by retransmit"
    LOST = "Messages Lost"
    DEADLOCKED = "Deadlocked"


NET_CATEGORY_ORDER = [
    NetCategory.REROUTE,
    NetCategory.RETRANSMIT,
    NetCategory.LOST,
    NetCategory.DEADLOCKED,
]


@dataclass
class NetFaultConfig:
    """Parameters of one netfault injection run."""

    run_id: int
    seed: int
    scenario: str                     # one of NET_SCENARIOS
    cluster: ClusterSpec = NET_CLUSTER
    # Directed workload endpoints.  None keeps the historic sweep shape
    # (every node i paired with i + n/2, both directions); large-fabric
    # campaigns name a handful of explicit cross-rack (src, dst) pairs
    # instead of flooding hundreds of nodes with traffic.
    pairs: Optional[Tuple[Tuple[int, int], ...]] = None
    messages: int = 12                # per directed pair
    message_bytes: int = 512
    message_gap_us: float = 2_000.0   # pacing, so the fault lands mid-stream
    fault_at_us: Optional[float] = None   # None: random in the window below
    fault_window_us: Tuple[float, float] = (2_000.0, 14_000.0)
    flap_down_us: float = 12_000.0
    corrupt_rate: float = 0.25
    observe_horizon_us: float = 20_000_000.0


@dataclass
class NetFaultOutcome:
    """Everything observed during one netfault run."""

    run_id: int
    scenario: str
    fault_at: float
    # Workload accounting.
    messages_expected: int = 0
    delivered_once: int = 0
    duplicates: int = 0
    missing: int = 0
    sends_ok: int = 0
    sends_errored: int = 0
    workload_completed: bool = False
    resolved: bool = False
    # Recovery machinery observations.
    nic_resets: int = 0
    card_recoveries: int = 0
    reroutes: int = 0
    reroutes_failed: int = 0
    verdicts: List[Tuple[float, int, str]] = field(default_factory=list)
    # Reroute latency timeline (first successful reroute), all absolute.
    verdict_at: float = -1.0
    reroute_woken_at: float = -1.0
    reroute_mapped_at: float = -1.0
    reroute_installed_at: float = -1.0
    first_delivery_after_install: float = -1.0
    category: str = field(default="", init=False)

    def finalize(self) -> "NetFaultOutcome":
        self.category = _classify(self)
        return self

    def latency_segments(self) -> Optional[List[Tuple[str, float]]]:
        """(label, µs) rows of the reroute recovery timeline, or None."""
        if self.category != NetCategory.REROUTE or self.verdict_at < 0:
            return None
        rows = [
            ("fault -> path-dead verdict", self.verdict_at - self.fault_at),
            ("verdict -> FTD wakeup",
             self.reroute_woken_at - self.verdict_at),
            ("mapper discovery",
             self.reroute_mapped_at - self.reroute_woken_at),
            ("table distribution",
             self.reroute_installed_at - self.reroute_mapped_at),
        ]
        if self.first_delivery_after_install >= 0:
            rows.append(("resume (first delivery)",
                         self.first_delivery_after_install
                         - self.reroute_installed_at))
        return rows


def _classify(outcome: NetFaultOutcome) -> str:
    completed = (outcome.workload_completed
                 and outcome.duplicates == 0
                 and outcome.missing == 0)
    if completed:
        if outcome.reroutes - outcome.reroutes_failed > 0:
            return NetCategory.REROUTE
        return NetCategory.RETRANSMIT
    if outcome.resolved:
        # Every send resolved (some errored) and the receivers are done
        # waiting: data went missing or was duplicated, but nothing is
        # stuck.
        return NetCategory.LOST
    return NetCategory.DEADLOCKED


# -- one run -------------------------------------------------------------------


def _pick_fault_time(config: NetFaultConfig, rng: SeededRng) -> float:
    if config.fault_at_us is not None:
        return config.fault_at_us
    lo, hi = config.fault_window_us
    return rng.uniform(lo, hi)


def inject_scenario(plane: NetworkFaultPlane, cluster, rng: SeededRng,
                    fault_at: float, scenario: str, *,
                    flap_down_us: float = 12_000.0,
                    corrupt_rate: float = 0.25,
                    pair: Optional[Tuple[int, int]] = None) -> None:
    """Arm ``scenario`` on the uplink carrying cross-switch traffic.

    The victim is the inter-switch link on the installed route of the
    watched cross-switch pair — by default node 0 -> node n/2, the
    first pair of the historic sweep; campaigns on larger fabrics pass
    the (src, dst) pair their workload actually drives.  Cutting an
    idle uplink would test nothing.  Shared by the netfaults campaign
    and the ``slo-chaos`` load-plane overlay (:mod:`repro.load.chaos`).
    """
    uplinks = plane.fabric.inter_switch_links()
    if not uplinks:
        raise ValueError("fabric has no inter-switch links to fault")
    src, dst = pair if pair is not None else (0, len(cluster) // 2)
    route = cluster[src].mcp.routing_table.get(dst)
    on_path = [link for link in plane.links_on_route(src, route or [])
               if link in uplinks]
    victims = on_path or uplinks
    link = victims[rng.randrange(len(victims))]
    if scenario == "link-cut":
        plane.cut_link(link, at=fault_at)
    elif scenario == "link-flap":
        plane.flap_link(link, at=fault_at, down_for=flap_down_us)
    elif scenario == "switch-port-kill":
        # Kill the switch port at one (deterministically chosen) end of
        # the uplink.
        end = link.end_a if rng.random() < 0.5 else link.end_b
        plane.kill_switch_port(end.switch, end.index, at=fault_at)
    elif scenario == "corrupt":
        plane.corrupt_on_link(link, rate=corrupt_rate, at=fault_at)
    else:
        raise ValueError("unknown scenario %r" % (scenario,))


def _inject(config: NetFaultConfig, plane: NetworkFaultPlane,
            cluster, rng: SeededRng, fault_at: float) -> None:
    inject_scenario(plane, cluster, rng, fault_at, config.scenario,
                    flap_down_us=config.flap_down_us,
                    corrupt_rate=config.corrupt_rate,
                    pair=config.pairs[0] if config.pairs else None)


def resume_netfault(cluster, config: NetFaultConfig,
                    inject_fn: Optional[Callable] = None,
                    detector_nodes: Optional[List[int]] = None,
                    detector_kwargs: Optional[Dict] = None,
                    pause_at: Optional[float] = None):
    """Arm, inject, observe and classify on the cluster ``boot_run`` booted.

    ``inject_fn(config, plane, cluster, rng, fault_at)`` overrides the
    default :func:`inject_scenario` dispatch — the Clos campaign's
    compound scenarios (rack loss, cascades) plug in here while reusing
    the whole workload/observe/classify machinery.  ``detector_nodes``
    and ``detector_kwargs`` pass through to :func:`arm_detectors`: on a
    hundreds-of-nodes fabric only the workload-active nodes are armed,
    so idle nodes can stay parked.

    ``pause_at`` parks the run at a simulated instant and returns a
    :class:`repro.ckpt.PausedRun` instead.
    """
    rng = SeededRng(config.seed, "netfault/%d" % config.run_id)
    sim = cluster.sim
    plane = NetworkFaultPlane(sim, cluster.fabric,
                              rng.spawn("plane"), tracer=cluster.tracer)
    detectors = arm_detectors(cluster, nodes=detector_nodes,
                              **(detector_kwargs or {}))
    inject = inject_fn if inject_fn is not None else _inject
    fault_at = sim.now + _pick_fault_time(config, rng)
    inject(config, plane, cluster, rng.spawn("target"), fault_at)

    # Cross-switch directed pairs, both ways.  Historic shape: node i
    # <-> node i + n/2; explicit ``pairs`` on large fabrics.
    if config.pairs is not None:
        pairs = [tuple(p) for p in config.pairs]
    else:
        half = len(cluster) // 2
        pairs = [(i, i + half) for i in range(half)]
    directed = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
    expected = {
        (src, dst, i): Payload.pattern(config.message_bytes,
                                       seed=src * 100_000 + dst * 1_000 + i)
        for src, dst in directed for i in range(config.messages)
    }
    state = {
        "send_done": 0, "send_err": 0,
        "deliveries": {},          # (src, dst, i) -> count
        "delivery_times": [],      # (time, src, dst, i)
        "receivers_done": 0,
    }
    total_sends = len(directed) * config.messages

    def sender(node, dest_node):
        port = yield from node.driver.open_port(1)

        def cb(outcome):
            if outcome.ok:
                state["send_done"] += 1
            else:
                state["send_err"] += 1

        for i in range(config.messages):
            payload = expected[(node.node_id, dest_node, i)]
            yield from port.send(payload, dest_node, 2, callback=cb,
                                 context=i)
            # Pace the stream so the fault lands mid-conversation,
            # pumping events (callbacks, ROUTE_CHANGED, FAULT_DETECTED)
            # for the whole gap — receive() returns on *every* event, so
            # a single call would collapse the gap to the first SENT.
            until = sim.now + config.message_gap_us
            while sim.now < until:
                yield from port.receive(timeout=until - sim.now)
        while (state["send_done"] + state["send_err"] < total_sends
               and sim.now < config.observe_horizon_us):
            yield from port.receive(timeout=10_000.0)

    def receiver(node, src_node):
        port = yield from node.driver.open_port(2)
        for _ in range(min(config.messages, 8)):
            yield from port.provide_receive_buffer(config.message_bytes)
        provided = min(config.messages, 8)
        got = 0
        lookup = {expected[(src_node, node.node_id, i)].fingerprint: i
                  for i in range(config.messages)}
        while got < config.messages and sim.now < config.observe_horizon_us:
            event = yield from port.receive_message(timeout=500_000.0)
            if event is None:
                continue
            index = lookup.get(event.payload.fingerprint
                               if event.payload is not None else None, -1)
            key = (src_node, node.node_id, index)
            state["deliveries"][key] = state["deliveries"].get(key, 0) + 1
            state["delivery_times"].append(
                (sim.now, src_node, node.node_id, index))
            got += 1
            if provided < config.messages:
                yield from port.provide_receive_buffer(config.message_bytes)
                provided += 1
        state["receivers_done"] += 1

    for a, b in directed:
        cluster[a].host.spawn(sender(cluster[a], b),
                              "netfault-snd%d>%d" % (a, b))
        cluster[b].host.spawn(receiver(cluster[b], a),
                              "netfault-rcv%d<%d" % (b, a))

    def _done() -> bool:
        resolved = state["send_done"] + state["send_err"] >= total_sends
        return resolved and state["receivers_done"] >= len(directed)

    horizon = config.observe_horizon_us

    def finish() -> NetFaultOutcome:
        sim.run(until=min(sim.now + 10_000.0, horizon))

        # -- observe and classify ----------------------------------------------

        outcome = NetFaultOutcome(run_id=config.run_id,
                                  scenario=config.scenario,
                                  fault_at=fault_at)
        outcome.messages_expected = len(expected)
        counts = state["deliveries"]
        outcome.delivered_once = sum(1 for key in expected
                                     if counts.get(key, 0) == 1)
        outcome.duplicates = sum(count - 1 for key, count in counts.items()
                                 if key in expected and count > 1)
        outcome.missing = sum(1 for key in expected
                              if counts.get(key, 0) == 0)
        outcome.sends_ok = state["send_done"]
        outcome.sends_errored = state["send_err"]
        outcome.workload_completed = (state["send_done"] == total_sends
                                      and outcome.delivered_once
                                      == len(expected))
        outcome.resolved = _done()
        outcome.nic_resets = sum(node.nic.resets for node in cluster.nodes)
        outcome.card_recoveries = sum(len(ftd.recoveries)
                                      for ftd in cluster.ftds())
        reroutes = [record for ftd in cluster.ftds()
                    for record in ftd.reroutes]
        outcome.reroutes = len(reroutes)
        outcome.reroutes_failed = sum(1 for r in reroutes if r.failed)
        for detector in detectors:
            outcome.verdicts.extend(detector.verdicts)
        outcome.verdicts.sort()

        good = sorted((r for r in reroutes if not r.failed),
                      key=lambda r: r.woken_at)
        if good:
            first = good[0]
            outcome.verdict_at = first.verdict_at
            outcome.reroute_woken_at = first.woken_at
            outcome.reroute_mapped_at = first.mapped_at
            outcome.reroute_installed_at = first.installed_at
            after = [t for t, _s, _d, _i in state["delivery_times"]
                     if t >= first.installed_at]
            if after:
                outcome.first_delivery_after_install = min(after)
        harvest_cluster(cluster, fault_at=fault_at)
        return outcome.finalize()

    return drive_run(cluster, finish, horizon=horizon,
                     slice_us=1_000.0, done=_done, pause_at=pause_at,
                     extras={"plane": plane})


# -- the campaign --------------------------------------------------------------


@dataclass
class NetFaultCampaignResult:
    """Aggregate of one netfault or closfault campaign.

    ``order`` lists the row names (scenarios, or closfault's
    ``kind/flavor`` cells) in table order; rows it does not name follow,
    sorted.
    """

    seed: int
    outcomes: List[NetFaultOutcome]
    title: str = "Netfault campaign"
    order: Tuple[str, ...] = tuple(NET_SCENARIOS)
    counts: Dict[str, Dict[str, int]] = field(init=False)

    def __post_init__(self):
        self.counts = {}
        for outcome in self.outcomes:
            row = self.counts.setdefault(
                outcome.scenario,
                {category: 0 for category in NET_CATEGORY_ORDER})
            row[outcome.category] += 1

    def scenarios(self) -> List[str]:
        return [s for s in self.order if s in self.counts] + \
            sorted(s for s in self.counts if s not in self.order)

    def latency_breakdown(self) -> List[Tuple[str, float, int]]:
        """(segment, mean µs, samples) over reroute-recovered runs."""
        sums: Dict[str, List[float]] = {}
        order: List[str] = []
        for outcome in self.outcomes:
            segments = outcome.latency_segments()
            if not segments:
                continue
            for label, value in segments:
                if label not in sums:
                    sums[label] = []
                    order.append(label)
                sums[label].append(value)
        return [(label, sum(sums[label]) / len(sums[label]), len(sums[label]))
                for label in order]

    def render(self) -> str:
        lines = [
            "%s (seed=%d, %d runs)"
            % (self.title, self.seed, len(self.outcomes)),
            "%-18s %9s %11s %6s %11s" % ("Scenario", "reroute",
                                         "retransmit", "lost",
                                         "deadlocked"),
        ]
        for scenario in self.scenarios():
            row = self.counts[scenario]
            lines.append("%-18s %9d %11d %6d %11d" % (
                scenario,
                row[NetCategory.REROUTE],
                row[NetCategory.RETRANSMIT],
                row[NetCategory.LOST],
                row[NetCategory.DEADLOCKED]))
        breakdown = self.latency_breakdown()
        if breakdown:
            lines.append("")
            lines.append("Reroute recovery latency breakdown "
                         "(mean over %d recovered runs):"
                         % max(n for _l, _m, n in breakdown))
            for label, mean, samples in breakdown:
                lines.append("  %-28s %12.1f us  (n=%d)"
                             % (label, mean, samples))
        return "\n".join(lines)
