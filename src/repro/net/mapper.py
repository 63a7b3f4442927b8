"""The GM mapper: network self-configuration.

GM configures a Myrinet by running a *mapper* program on one node: it
probes the fabric with scout packets, builds a map, computes a source
route between every pair of interfaces, and distributes per-interface
route tables.  The routing table it installs in each LANai is part of
the state the paper's FTD must restore after a NIC failure.

Protocol (one mapping round):

1. the mapper floods ``MAPPER_SCOUT`` packets (TTL-bounded; switches
   replicate them, stamping ingress and egress ports);
2. every interface that sees a scout answers ``MAPPER_REPLY`` carrying
   the scout's accumulated forward path (egress stamps) — the reply is
   source-routed back over the reversed ingress stamps;
3. the mapper derives a route for every ordered pair from the
   mapper-relative forward/reverse paths (:func:`derive_route`);
4. it unicasts each interface its table in ``MAPPER_CONFIG`` (retrying
   on timeout) and waits for ``MAPPER_DONE``.

The mapper can be re-run at any time (e.g. after links appear or
disappear); interfaces simply install the newest table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..hw.nic import RECV_RING_SLOTS
from ..sim import Simulator, Store, Tracer
from .packet import Packet, PacketType

__all__ = ["derive_route", "NodeRoutes", "MapperAgent", "Mapper",
           "HierarchicalMapper", "make_mapper", "MappingFailed"]


class MappingFailed(RuntimeError):
    """A mapping round could not complete (unreachable interfaces)."""


def derive_route(forward_x: List[int], reverse_x: List[int],
                 forward_y: List[int]) -> List[int]:
    """Source route from interface X to interface Y.

    ``forward_x``/``forward_y`` are the mapper's routes to X and Y
    (egress-port bytes); ``reverse_x`` is the route from X back to the
    mapper (reversed ingress stamps).  The route climbs from X to the
    switch where the two mapper paths diverge, then follows the mapper's
    path down to Y.
    """
    if forward_x == forward_y:
        raise ValueError("X and Y are the same interface")
    if len(reverse_x) != len(forward_x):
        raise ValueError("forward/reverse length mismatch for X")
    common = 0
    for a, b in zip(forward_x, forward_y):
        if a != b:
            break
        common += 1
    k = len(forward_x)
    # Distinct interfaces cannot have one path be a prefix of the other
    # (paths terminate at NICs), so common < min(len(fx), len(fy)).
    if common >= k or common >= len(forward_y):
        raise ValueError("inconsistent mapper paths (prefix overlap)")
    return list(reverse_x[:k - common - 1]) + list(forward_y[common:])


@dataclass
class NodeRoutes:
    """What the mapper learned about one interface."""

    node_id: int
    forward: List[int]          # mapper -> node (egress stamps)
    reverse: List[int]          # node -> mapper (reversed ingress stamps)
    hops: int = field(init=False)

    def __post_init__(self):
        self.hops = len(self.forward)


# Mapper messages whose ``control`` mapping the receiver reads.
_CONTROL_TYPES = (PacketType.MAPPER_REPLY, PacketType.MAPPER_CONFIG,
                  PacketType.MAPPER_DONE, PacketType.MAPPER_PORTINFO)


class MapperAgent:
    """Per-node mapper protocol endpoint, driven by that node's MCP.

    ``send_raw(packet)`` must inject a packet onto the node's link
    (the MCP provides this).  ``install_routes`` is called with the
    node's new ``{dest_node: route_bytes}`` table when a CONFIG arrives.
    """

    def __init__(self, sim: Simulator, node_id: int,
                 send_raw: Callable[[Packet], None],
                 install_routes: Callable[[Dict[int, List[int]]], None],
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.node_id = node_id
        self.send_raw = send_raw
        self.install_routes = install_routes
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        # Inboxes read by a co-located Mapper, when one runs on this node.
        self.replies: Store = Store(sim)
        self.dones: Store = Store(sim)
        self.portinfos: Store = Store(sim)   # switch port-census answers
        self.scouts_seen = 0
        self.configs_installed = 0
        self.malformed_drops = 0

    def handle(self, packet: Packet) -> bool:
        """Dispatch a MAPPER_* packet; returns False for other types.

        A corrupted header can dress any packet as a mapper message, so
        one whose ``control`` is not the mapping its type carries is
        counted and dropped here rather than trusted downstream.
        """
        control = packet.control
        if packet.ptype in _CONTROL_TYPES and (
                not isinstance(control, dict)
                or (packet.ptype == PacketType.MAPPER_CONFIG
                    and not isinstance(control.get("routes"), dict))):
            self.malformed_drops += 1
            self.tracer.emit(self.sim.now, "mapper%d" % self.node_id,
                             "mapper_malformed_drop",
                             packet=packet.describe())
            return True
        if packet.ptype == PacketType.MAPPER_SCOUT:
            self.scouts_seen += 1
            reply = Packet(
                ptype=PacketType.MAPPER_REPLY,
                src_node=self.node_id,
                dest_node=packet.src_node,
                route=list(reversed(packet.ingress_ports)),
                control={
                    "node_id": self.node_id,
                    "forward": list(packet.egress_ports),
                    "reverse": list(reversed(packet.ingress_ports)),
                },
            )
            self.send_raw(reply)
            return True
        if packet.ptype == PacketType.MAPPER_REPLY:
            self.replies.put(packet.control)
            return True
        if packet.ptype == PacketType.MAPPER_CONFIG:
            table = {int(dest): list(route)
                     for dest, route in packet.control["routes"].items()}
            self.install_routes(table)
            self.configs_installed += 1
            done = Packet(
                ptype=PacketType.MAPPER_DONE,
                src_node=self.node_id,
                dest_node=packet.src_node,
                route=list(reversed(packet.ingress_ports)),
                control={"node_id": self.node_id},
            )
            self.send_raw(done)
            return True
        if packet.ptype == PacketType.MAPPER_DONE:
            self.dones.put(packet.control)
            return True
        if packet.ptype == PacketType.MAPPER_PORTINFO:
            self.portinfos.put(packet.control)
            return True
        return False


class Mapper:
    """The mapping program; runs on one node's agent."""

    SCOUT_TTL = 8
    SETTLE_US = 300.0        # silence window ending scout collection
    CONFIG_TIMEOUT_US = 500.0
    CONFIG_RETRIES = 3

    def __init__(self, agent: MapperAgent,
                 expected_nodes: Optional[int] = None,
                 strict: bool = True,
                 abort_on_empty: bool = False):
        self.agent = agent
        self.sim = agent.sim
        self.expected_nodes = expected_nodes
        # strict=False: a best-effort re-mapping round (the reroute
        # recovery path) — interfaces that never acknowledge their
        # CONFIG are recorded in ``unreached`` and skipped instead of
        # failing the whole round.
        self.strict = strict
        # abort_on_empty: fail instead of installing an *empty* table
        # when the scout flood finds nobody (e.g. our own cable is the
        # fault) — destroying a live table would only make things worse.
        self.abort_on_empty = abort_on_empty
        self.discovered: Dict[int, NodeRoutes] = {}
        self.tables: Dict[int, Dict[int, List[int]]] = {}
        self.unreached: List[int] = []
        self.config_retries = 0       # CONFIG resends after a lost round-trip
        self.phase_times: Dict[str, float] = {}

    # -- discovery ------------------------------------------------------------

    def run(self):
        """Process: one full mapping round.  Returns the node-id list."""
        yield from self._discover()
        self.phase_times["discovered"] = self.sim.now
        if self.abort_on_empty and not self.discovered:
            raise MappingFailed("scout flood found no interfaces")
        self._compute_tables()
        yield from self._distribute()
        self.phase_times["distributed"] = self.sim.now
        # Install the mapper's own table locally, no wire round-trip.
        self.agent.install_routes(self.tables[self.agent.node_id])
        reached = [x for x in sorted(self.discovered)
                   if x not in self.unreached]
        return reached + [self.agent.node_id]

    def _discover(self):
        scout = Packet(
            ptype=PacketType.MAPPER_SCOUT,
            src_node=self.agent.node_id,
            dest_node=-1,
            flood=True,
            ttl=self.SCOUT_TTL,
        )
        self.agent.send_raw(scout)
        deadline = self.sim.now + self.SETTLE_US
        while True:
            get = self.agent.replies.get()
            timeout = self.sim.timeout(max(deadline - self.sim.now, 0.0))
            fired = yield self.sim.any_of([get, timeout])
            if get in fired:
                info = fired[get]
                node_id = info["node_id"]
                if node_id == self.agent.node_id:
                    # On cyclic fabrics (ring) the flood loops back and
                    # we hear our own scout; a route to ourselves is not
                    # a discovery.
                    continue
                routes = NodeRoutes(node_id, info["forward"], info["reverse"])
                known = self.discovered.get(node_id)
                if known is None or routes.hops < known.hops:
                    self.discovered[node_id] = routes
                deadline = self.sim.now + self.SETTLE_US
                if (self.expected_nodes is not None
                        and len(self.discovered) >= self.expected_nodes - 1):
                    return
            else:
                self.agent.replies.cancel(get)
                if (self.expected_nodes is not None
                        and len(self.discovered) < self.expected_nodes - 1):
                    raise MappingFailed(
                        "found %d of %d expected interfaces"
                        % (len(self.discovered) + 1, self.expected_nodes))
                return

    # -- route computation --------------------------------------------------------

    def _compute_tables(self) -> None:
        me = self.agent.node_id
        nodes = self.discovered
        self.tables = {me: {x: list(r.forward) for x, r in nodes.items()}}
        for x, rx in nodes.items():
            table: Dict[int, List[int]] = {me: list(rx.reverse)}
            for y, ry in nodes.items():
                if y == x:
                    continue
                table[y] = derive_route(rx.forward, rx.reverse, ry.forward)
            self.tables[x] = table

    # -- distribution ---------------------------------------------------------------

    def _distribute(self):
        for x, rx in self.discovered.items():
            delivered = False
            for _attempt in range(self.CONFIG_RETRIES):
                config = Packet(
                    ptype=PacketType.MAPPER_CONFIG,
                    src_node=self.agent.node_id,
                    dest_node=x,
                    route=list(rx.forward),
                    control={"routes": self.tables[x]},
                )
                if _attempt > 0:
                    self.config_retries += 1
                self.agent.send_raw(config)
                get = self.agent.dones.get()
                timeout = self.sim.timeout(self.CONFIG_TIMEOUT_US)
                fired = yield self.sim.any_of([get, timeout])
                if get in fired:
                    if fired[get]["node_id"] == x:
                        delivered = True
                        break
                else:
                    self.agent.dones.cancel(get)
            if not delivered:
                if self.strict:
                    raise MappingFailed(
                        "node %d never acknowledged its routes" % x)
                self.unreached.append(x)


def _pair_hash(x: int, y: int) -> int:
    """Stable 32-bit mix of an ordered node pair (ECMP tie-breaking).

    Python's ``hash`` would do, but being explicit keeps route choice
    identical across interpreter versions and PYTHONHASHSEED settings.
    """
    h = (x * 0x9E3779B1 + y * 0x85EBCA77 + 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0x27D4EB2F) & 0xFFFFFFFF
    h ^= h >> 16
    return h


class HierarchicalMapper(Mapper):
    """Two-phase mapper for multi-tier (Clos / fat-tree) fabrics.

    The flat mapper's TTL-bounded flood visits every path between every
    switch pair — O(paths) scout copies, which on a fat-tree explodes
    combinatorially.  This variant maps hierarchically instead:

    1. **Switch survey** — breadth-first over the switch graph with
       unicast ``MAPPER_QUERY`` packets; each switch answers one
       ``MAPPER_PORTINFO`` census naming its neighbors.  O(switches)
       round-trips.  A query lost to a dead port or cut cable times out
       and the switch is retried over the next equal-cost path the BFS
       frontier discovers.
    2. **Per-leaf discovery** — one *directed* scout per host-bearing
       switch: the scout source-routes to that leaf and floods with
       TTL=1 only there, so each interface still proves liveness with a
       real scout/reply round-trip (a host that answers a census but
       whose NIC is wedged must not enter the tables).

    Route computation is equal-cost-aware: each ordered pair walks a
    shortest path over the surveyed graph, tie-breaking among
    equal-cost next hops with a stable hash of the pair so traffic
    spreads deterministically across the spine/core stage.

    The CONFIG distribution phase, strictness semantics and
    ``phase_times`` bookkeeping are inherited unchanged.
    """

    QUERY_TIMEOUT_US = 150.0
    QUERY_RETRIES = 2            # resends of one query over one path
    QUERY_PATHS = 2              # distinct paths tried per switch

    def __init__(self, agent: MapperAgent,
                 expected_nodes: Optional[int] = None,
                 strict: bool = True,
                 abort_on_empty: bool = False):
        super().__init__(agent, expected_nodes=expected_nodes,
                         strict=strict, abort_on_empty=abort_on_empty)
        self.switch_infos: Dict[int, dict] = {}    # id -> port census
        self.switch_routes: Dict[int, List[int]] = {}  # id -> route to it
        self.host_attach: Dict[int, Tuple[int, int]] = {}  # node -> (sw, port)
        self.unreached_switches: List[int] = []
        self.queries_sent = 0
        self.query_retries = 0

    # -- phase 1: switch survey ----------------------------------------------

    def _query_switch(self, route: List[int], expect: Optional[int]):
        """One port census over one path; ``None`` after all retries.

        ``expect`` filters stale answers (a reply from an earlier, timed
        out query of a *different* switch may still be sitting in the
        inbox); the very first query — our own leaf, id unknown —
        accepts any answer.
        """
        for attempt in range(self.QUERY_RETRIES):
            if attempt:
                self.query_retries += 1
            self.queries_sent += 1
            query = Packet(
                ptype=PacketType.MAPPER_QUERY,
                src_node=self.agent.node_id,
                dest_node=-1,
                route=list(route),
            )
            self.agent.send_raw(query)
            deadline = self.sim.now + self.QUERY_TIMEOUT_US
            while True:
                get = self.agent.portinfos.get()
                timeout = self.sim.timeout(max(deadline - self.sim.now, 0.0))
                fired = yield self.sim.any_of([get, timeout])
                if get in fired:
                    info = fired[get]
                    if expect is None or info["switch"] == expect:
                        return info
                    continue        # stale answer from another switch
                self.agent.portinfos.cancel(get)
                break
        return None

    @staticmethod
    def _switch_neighbors(info: dict) -> List[Tuple[int, int]]:
        """Live (local_port, far_switch_id) edges of one port census."""
        edges = []
        for port in sorted(info["ports"]):
            entry = info["ports"][port]
            if entry["kind"] == "switch" and entry["up"] \
                    and not entry["dead"]:
                edges.append((port, entry["switch"]))
        return edges

    def _survey_switches(self):
        first = yield from self._query_switch([], expect=None)
        if first is None:
            raise MappingFailed("own switch never answered its port census")
        root = first["switch"]
        self.switch_infos = {root: first}
        self.switch_routes = {root: []}
        failures: Dict[int, int] = {}   # switch id -> paths that timed out
        pending = deque([root])
        while pending:
            sid = pending.popleft()
            base = self.switch_routes[sid]
            for port, far in self._switch_neighbors(self.switch_infos[sid]):
                if far in self.switch_infos \
                        or failures.get(far, 0) >= self.QUERY_PATHS:
                    continue
                info = yield from self._query_switch(base + [port],
                                                     expect=far)
                if info is None:
                    # This path is broken; an equal-cost path through a
                    # different already-surveyed switch may still reach
                    # ``far`` when the BFS gets there.
                    failures[far] = failures.get(far, 0) + 1
                    continue
                self.switch_infos[far] = info
                self.switch_routes[far] = base + [port]
                pending.append(far)
        self.unreached_switches = sorted(
            far for far, count in failures.items()
            if far not in self.switch_infos)

    # -- phase 2: per-leaf host discovery -------------------------------------

    def _scout_leaf(self, sid: int) -> None:
        # Routed hops stamp ingress but not egress, so the forward path
        # carried by flood clones must be pre-seeded with the route.
        route = self.switch_routes[sid]
        scout = Packet(
            ptype=PacketType.MAPPER_SCOUT,
            src_node=self.agent.node_id,
            dest_node=-1,
            flood=True,
            ttl=1,
            route=list(route),
            egress_ports=list(route),
        )
        self.agent.send_raw(scout)

    def _leaf_waves(self, leaves: List[int]) -> List[List[int]]:
        """Split leaf scouts into waves the NIC receive ring can absorb.

        Every host of a scouted leaf replies within a handful of
        microseconds; a wave of more replies than ``RECV_RING_SLOTS``
        would overflow our own ring and silently drop interfaces.  Half
        the ring is a safe wave budget (the MCP drains concurrently, and
        stragglers from the previous wave may still be in flight).
        """
        budget = max(1, RECV_RING_SLOTS // 2)
        hosts_on = {sid: 0 for sid in leaves}
        for node, (sid, _port) in self.host_attach.items():
            if sid in hosts_on:
                hosts_on[sid] += 1
        waves: List[List[int]] = []
        batch: List[int] = []
        load = 0
        for sid in leaves:
            if batch and load + hosts_on[sid] > budget:
                waves.append(batch)
                batch, load = [], 0
            batch.append(sid)
            load += hosts_on[sid]
        if batch:
            waves.append(batch)
        return waves

    def _discover(self):
        yield from self._survey_switches()
        self.phase_times["surveyed"] = self.sim.now
        me = self.agent.node_id
        expected: Dict[int, int] = {}   # node id -> its switch
        for sid, info in self.switch_infos.items():
            for port in sorted(info["ports"]):
                entry = info["ports"][port]
                if entry["kind"] == "host" and entry["up"] \
                        and not entry["dead"]:
                    self.host_attach[entry["node"]] = (sid, port)
                    if entry["node"] != me:
                        expected[entry["node"]] = sid
        for _round in range(2):
            missing = sorted(n for n in expected
                             if n not in self.discovered)
            if not missing:
                break
            leaves = sorted({expected[n] for n in missing})
            for wave in self._leaf_waves(leaves):
                wanted = {n for n in expected if expected[n] in set(wave)}
                for sid in wave:
                    self._scout_leaf(sid)
                deadline = self.sim.now + self.SETTLE_US
                while any(n not in self.discovered for n in wanted):
                    get = self.agent.replies.get()
                    timeout = self.sim.timeout(
                        max(deadline - self.sim.now, 0.0))
                    fired = yield self.sim.any_of([get, timeout])
                    if get in fired:
                        info = fired[get]
                        node_id = info["node_id"]
                        if node_id == me:
                            continue
                        routes = NodeRoutes(node_id, info["forward"],
                                            info["reverse"])
                        known = self.discovered.get(node_id)
                        if known is None or routes.hops < known.hops:
                            self.discovered[node_id] = routes
                    else:
                        self.agent.replies.cancel(get)
                        break
        if (self.expected_nodes is not None
                and len(self.discovered) < self.expected_nodes - 1):
            raise MappingFailed(
                "found %d of %d expected interfaces"
                % (len(self.discovered) + 1, self.expected_nodes))

    # -- equal-cost route computation -----------------------------------------

    def _compute_tables(self) -> None:
        me = self.agent.node_id
        adjacency = {
            sid: [(port, far)
                  for port, far in self._switch_neighbors(info)
                  if far in self.switch_infos]
            for sid, info in self.switch_infos.items()
        }
        # Hop counts toward each destination leaf, computed once per
        # leaf and shared by every pair that lands there.
        dist_cache: Dict[int, Dict[int, int]] = {}
        # Equal-cost next hops per (here, destination leaf): every pair
        # landing on the same leaf walks the same candidate lists, so an
        # all-pairs table build does O(switches^2) list constructions
        # instead of O(pairs * hops).
        hop_cache: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

        def dist_toward(target: int) -> Dict[int, int]:
            dist = dist_cache.get(target)
            if dist is None:
                dist = {target: 0}
                frontier = deque([target])
                while frontier:
                    sid = frontier.popleft()
                    for _port, far in adjacency[sid]:
                        if far not in dist:
                            dist[far] = dist[sid] + 1
                            frontier.append(far)
                dist_cache[target] = dist
            return dist

        hop_get = hop_cache.get
        attach = self.host_attach

        def route_between(x: int, y: int) -> Optional[List[int]]:
            sx, _px = attach[x]
            sy, py = attach[y]
            if sx == sy:
                return [py]
            dist = dist_toward(sy)
            if sx not in dist:
                return None         # partitioned switch graph
            choice = _pair_hash(x, y)
            route = []
            sid = sx
            while sid != sy:
                key = (sid, sy)
                nearer = hop_get(key)
                if nearer is None:
                    want = dist[sid] - 1
                    absent = len(dist) + 1
                    nearer = [(port, far) for port, far in adjacency[sid]
                              if dist.get(far, absent) == want]
                    hop_cache[key] = nearer
                port, sid = nearer[choice % len(nearer)]
                route.append(port)
            return route + [py]

        self.tables = {}
        hosts = sorted(set(self.discovered) | {me})
        for x in hosts:
            table: Dict[int, List[int]] = {}
            if x in self.host_attach:
                for y in hosts:
                    if y == x or y not in self.host_attach:
                        continue
                    found = route_between(x, y)
                    if found is not None:
                        table[y] = found
            self.tables[x] = table


def make_mapper(agent: MapperAgent, hierarchical: bool = False,
                **kwargs) -> Mapper:
    """The mapping program suited to a fabric: flat flood or two-phase."""
    cls = HierarchicalMapper if hierarchical else Mapper
    return cls(agent, **kwargs)
