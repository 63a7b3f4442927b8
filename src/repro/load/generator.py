"""Deterministic open-loop load generation over GM ports.

The generator has two halves, split so determinism is easy to audit:

1. :func:`build_schedule` is **pure**: it expands a :class:`LoadConfig`
   into a fully materialized per-run schedule — every send's arrival
   time, source client, destination node, size and payload fingerprint,
   plus every connection-churn event — using one :class:`SeededRng`
   stream *per client* (and per churn lane), so adding clients or
   reordering generation can never perturb an existing client's
   arrivals.  Equal configs produce equal schedules in every process.

2. :func:`run_load` **drives** a schedule against a booted cluster:
   one sender process per node multiplexes that node's clients onto a
   GM port open-loop (arrivals never wait for completions; a dry send
   token is a *rejected* send, not a stall), receivers match deliveries
   back to schedule entries by payload fingerprint, and churn events
   close/reopen the node's send port mid-traffic.

Delivery latency is measured from the **scheduled** arrival time, not
the moment the send finally got posted — the open-loop convention that
makes queueing delay and recovery stalls visible instead of silently
self-throttling around them (no coordinated omission).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ckpt.pause import drive_run
from ..errors import GmError, GmNoTokens
from ..payload import Payload
from ..sim import SeededRng
from ..workloads.pair import check_nodes
from .profiles import LoadProfile, make_profile

__all__ = [
    "SEND_PORT",
    "SEND_PORTS",
    "RECV_PORT",
    "LoadConfig",
    "SendOp",
    "ChurnOp",
    "Schedule",
    "LoadRunResult",
    "build_schedule",
    "start_load",
    "run_load",
]

#: Send ports, cycled through by connection churn.  Under FTGM a
#: sequence-number stream is keyed by (remote node, local port) and the
#: numbers are host-generated per port — reopening the *same* port id
#: would restart its stream at 0 and the receiver's Go-Back-N state
#: would discard the restarted stream as stale.  A churned connection
#: therefore reopens on a fresh port id (a reconnecting client gets a
#: new port), which also bounds churn events per node to
#: ``len(SEND_PORTS) - 1``.
SEND_PORTS = (3, 5, 6, 7)
SEND_PORT = SEND_PORTS[0]
RECV_PORT = 4

#: Default mixed message-size distribution: mostly small control-sized
#: messages, some mid-sized, a tail of full-chunk payloads.
DEFAULT_SIZE_MIX: Tuple[Tuple[int, float], ...] = (
    (64, 0.55), (512, 0.30), (4096, 0.15),
)


@dataclass(frozen=True)
class LoadConfig:
    """Everything that determines one load run's schedule."""

    seed: int
    n_nodes: int
    clients: int
    profile: str = "staged-ramp"
    peak_rate: float = 2_000.0          # offered msgs/s, whole population
    duration_us: float = 1_000_000.0    # profile envelope length
    size_mix: Tuple[Tuple[int, float], ...] = DEFAULT_SIZE_MIX
    hotspot_node: int = 0               # fan-in target
    hotspot_weight: float = 0.25        # fraction of traffic aimed at it
    churn_per_node: int = 1             # port close/reopen events per node
    churn_down_us: float = 4_000.0      # reconnect downtime
    drain_us: float = 250_000.0         # post-profile settle window

    def make_profile(self) -> LoadProfile:
        return make_profile(self.profile, self.peak_rate, self.duration_us)


@dataclass(frozen=True)
class SendOp:
    """One scheduled open-loop send (times relative to run start)."""

    index: int          # global, unique: doubles as the payload tag
    at_us: float
    client: int
    src: int
    dst: int
    size: int
    stage: int


@dataclass(frozen=True)
class ChurnOp:
    """One scheduled connection churn: close the node's send port,
    stay down for ``down_us``, reopen."""

    at_us: float
    node: int
    down_us: float


@dataclass
class Schedule:
    """A materialized load schedule, ready to drive (or to analyze)."""

    config: LoadConfig
    profile: LoadProfile
    ops: List[SendOp]                       # sorted by (at_us, index)
    churn: List[ChurnOp]
    by_src: Dict[int, List[SendOp]] = field(init=False)
    by_dst: Dict[int, Dict[int, SendOp]] = field(init=False)

    def __post_init__(self) -> None:
        self.by_src = {}
        self.by_dst = {}
        for op in self.ops:
            self.by_src.setdefault(op.src, []).append(op)
            self.by_dst.setdefault(op.dst, {})[
                Payload.phantom(op.size, tag=_payload_tag(op.index))
                .fingerprint] = op

    def max_size(self) -> int:
        return max((op.size for op in self.ops), default=1)


def _payload_tag(index: int) -> int:
    """Payload tag for schedule entry ``index``.

    Offset past the small tag space other workloads use (ping 0xA,
    pong 0xB, pattern seeds...) so load fingerprints cannot collide
    with concurrent non-load traffic.
    """
    return 0x10AD_0000 + index


def op_payload(op: SendOp) -> Payload:
    """The (phantom) payload of a schedule entry."""
    return Payload.phantom(op.size, tag=_payload_tag(op.index))


def _pick_size(rng: SeededRng,
               mix: Tuple[Tuple[int, float], ...]) -> int:
    total = sum(weight for _size, weight in mix)
    draw = rng.random() * total
    acc = 0.0
    for size, weight in mix:
        acc += weight
        if draw < acc:
            return size
    return mix[-1][0]


def _pick_dst(rng: SeededRng, src: int, config: LoadConfig) -> int:
    """Fan-in hotspot targeting: ``hotspot_weight`` of traffic converges
    on ``hotspot_node``; the rest spreads uniformly over other nodes."""
    hotspot = config.hotspot_node
    if src != hotspot and rng.random() < config.hotspot_weight:
        return hotspot
    dst = rng.randrange(config.n_nodes - 1)
    if dst >= src:
        dst += 1
    return dst


def _client_arrivals(rng: SeededRng, profile: LoadProfile,
                     share: float) -> List[float]:
    """Open-loop Poisson arrival times for one client.

    ``share`` is the client's fraction of the population rate.  The
    inter-arrival draw uses the instantaneous profile rate, so ramps
    thin/thicken the stream stage by stage.
    """
    times: List[float] = []
    now = 0.0
    end = profile.total_duration_us
    while now < end:
        rate = profile.rate_at(now) * share       # msgs per second
        if rate <= 0.0:
            now += 1_000.0                         # idle hop past a gap
            continue
        now += rng.expovariate(rate) * 1_000_000.0
        if now < end:
            times.append(now)
    return times


def build_schedule(config: LoadConfig) -> Schedule:
    """Expand a config into the full deterministic schedule (pure)."""
    if config.n_nodes < 2:
        raise ValueError("load plane needs >= 2 nodes, got %d"
                         % config.n_nodes)
    check_nodes(range(config.n_nodes), [config.hotspot_node])
    if config.clients < 1:
        raise ValueError("need at least one client, got %d"
                         % config.clients)
    if config.churn_per_node > len(SEND_PORTS) - 1:
        raise ValueError(
            "churn_per_node %d exceeds the %d reconnect port ids"
            % (config.churn_per_node, len(SEND_PORTS) - 1))
    if not config.size_mix:
        raise ValueError("size_mix must not be empty")
    profile = config.make_profile()
    share = 1.0 / config.clients

    # Per-client streams: arrival times first, then per-arrival draws
    # (destination, size) from the same stream — one client's schedule
    # never depends on another client's.
    entries: List[Tuple[float, int, int, int, int]] = []
    for client in range(config.clients):
        rng = SeededRng(config.seed, "load/client/%d" % client)
        src = client % config.n_nodes
        for at in _client_arrivals(rng, profile, share):
            dst = _pick_dst(rng, src, config)
            size = _pick_size(rng, config.size_mix)
            entries.append((at, client, src, dst, size))
    entries.sort(key=lambda e: (e[0], e[1]))
    ops = [SendOp(index=index, at_us=at, client=client, src=src, dst=dst,
                  size=size, stage=profile.stage_index_at(at))
           for index, (at, client, src, dst, size) in enumerate(entries)]

    churn: List[ChurnOp] = []
    if config.churn_per_node > 0:
        for node in range(config.n_nodes):
            rng = SeededRng(config.seed, "load/churn/%d" % node)
            window = profile.total_duration_us
            for _ in range(config.churn_per_node):
                at = rng.uniform(0.2 * window, 0.85 * window)
                churn.append(ChurnOp(at_us=at, node=node,
                                     down_us=config.churn_down_us))
        churn.sort(key=lambda c: (c.at_us, c.node))

    return Schedule(config=config, profile=profile, ops=ops, churn=churn)


@dataclass
class LoadRunResult:
    """Everything observed while driving one schedule."""

    schedule: Schedule
    started_at: float                    # absolute sim time of t=0
    horizon: float                       # absolute end of observation
    accepted: Dict[int, bool] = field(default_factory=dict)
    deliveries: Dict[int, int] = field(default_factory=dict)
    first_delivery: Dict[int, float] = field(default_factory=dict)
    sends_ok: int = 0
    sends_errored: int = 0
    rejected: int = 0
    unknown_deliveries: int = 0
    churn_executed: int = 0

    def latency_of(self, op: SendOp) -> Optional[float]:
        """First-delivery latency from the *scheduled* send time."""
        at = self.first_delivery.get(op.index)
        if at is None:
            return None
        return at - (self.started_at + op.at_us)


def start_load(cluster, config: LoadConfig,
               schedule: Optional[Schedule] = None) -> LoadRunResult:
    """Spawn one load schedule's senders and receivers on a booted cluster.

    The caller may pass a prebuilt ``schedule`` (the chaos runner does,
    so it can aim faults at scheduled hotspots); otherwise one is built
    from the config.  Nothing runs yet: the returned accounting fills in
    as the caller drives the simulator to ``result.horizon`` (profile
    end + drain) in 10 ms slices, as :func:`run_load` does — grading
    lives in :mod:`repro.load.verdict`.
    """
    if len(cluster) != config.n_nodes:
        raise ValueError("config says %d nodes but cluster has %d"
                         % (config.n_nodes, len(cluster)))
    if schedule is None:
        schedule = build_schedule(config)
    sim = cluster.sim
    start = sim.now
    horizon = start + schedule.profile.total_duration_us + config.drain_us
    result = LoadRunResult(schedule=schedule, started_at=start,
                           horizon=horizon)
    sampler = getattr(cluster, "sampler", None)
    if sampler is not None:
        from ..obs.timeseries import register_load_tracks
        register_load_tracks(sampler, result)
    max_size = schedule.max_size()

    def _sent_cb(outcome) -> None:
        if outcome.ok:
            result.sends_ok += 1
        else:
            result.sends_errored += 1

    def sender(node):
        # This node's merged op stream: scheduled sends plus churn
        # events, in time order (churn ties sort before the send they
        # would have raced — the send then goes out on the fresh port).
        ops: List[Tuple[float, int, object]] = \
            [(op.at_us, 1, op) for op in schedule.by_src.get(node.node_id, [])]
        ops += [(c.at_us, 0, c) for c in schedule.churn
                if c.node == node.node_id]
        ops.sort(key=lambda item: (item[0], item[1]))
        port_index = 0
        port = yield from node.driver.open_port(SEND_PORTS[port_index])
        for at, _kind, op in ops:
            due = start + at
            # Pace open-loop: pump port events (completions, recovery
            # notifications) while waiting — receive() returns on every
            # event, so loop until the arrival is actually due.
            while sim.now < due:
                if port is not None and port.open:
                    yield from port.receive(timeout=due - sim.now)
                else:
                    yield sim.timeout(due - sim.now)
            if isinstance(op, ChurnOp):
                if port is not None and port.open:
                    yield from port.close()
                down_until = sim.now + op.down_us
                while sim.now < down_until:
                    yield sim.timeout(down_until - sim.now)
                port_index += 1
                port = yield from node.driver.open_port(
                    SEND_PORTS[port_index])
                result.churn_executed += 1
                continue
            try:
                yield from port.send(op_payload(op), op.dst, RECV_PORT,
                                     callback=_sent_cb, context=op.index)
                result.accepted[op.index] = True
            except (GmNoTokens, GmError):
                # Open-loop overload shedding: the arrival happened, the
                # client got turned away.  Counts against availability.
                result.rejected += 1
                result.accepted[op.index] = False
        # Schedule exhausted: keep pumping completions until the horizon
        # so callbacks and recovery events are processed.
        while sim.now < horizon:
            if port is not None and port.open:
                yield from port.receive(timeout=horizon - sim.now)
            else:
                yield sim.timeout(horizon - sim.now)

    def receiver(node):
        expected = schedule.by_dst.get(node.node_id, {})
        port = yield from node.driver.open_port(RECV_PORT)
        outstanding = min(8, max(len(expected), 1))
        for _ in range(outstanding):
            yield from port.provide_receive_buffer(max_size)
        while sim.now < horizon:
            event = yield from port.receive_message(
                timeout=horizon - sim.now)
            if event is None:
                continue
            fingerprint = event.payload.fingerprint \
                if event.payload is not None else None
            op = expected.get(fingerprint)
            if op is None:
                result.unknown_deliveries += 1
            else:
                count = result.deliveries.get(op.index, 0)
                result.deliveries[op.index] = count + 1
                if count == 0:
                    result.first_delivery[op.index] = sim.now
            yield from port.provide_receive_buffer(max_size)

    for node in cluster.nodes:
        node.host.spawn(receiver(node), "load-rcv%d" % node.node_id)
    for node in cluster.nodes:
        node.host.spawn(sender(node), "load-snd%d" % node.node_id)
    return result


def run_load(cluster, config: LoadConfig,
             schedule: Optional[Schedule] = None) -> LoadRunResult:
    """Drive one load schedule against a booted cluster to its horizon
    and return the raw observations (see :func:`start_load`)."""
    result = start_load(cluster, config, schedule)
    return drive_run(cluster, lambda: result,
                     horizon=result.horizon, slice_us=10_000.0)
