"""The Myrinet Control Program (native model).

GM's MCP is an event-driven program: a dispatch loop runs handler
routines when their conditions hold (a send is posted and the DMA
interface is free; a packet arrived; an interval timer expired...).  We
model the dispatch loop and every protocol behaviour natively — Go-Back-N
reliability, 4 KB fragmentation/reassembly, token matching, event
posting, the ``L_timer()`` housekeeping routine — and charge calibrated
LANai occupancy per action.  Event handling is **serialized**, exactly as
on the real LANai; that serialization is what stretches the gap between
``L_timer()`` invocations to the ~800 µs the paper measured, and what the
watchdog interval is derived from.

When built with ``interpreted=True`` the per-fragment ``send_chunk`` work
runs on the :class:`~repro.lanai.cpu.LanaiCpu` interpreter executing the
assembled firmware — the fault-injection target.  A hang there stops the
dispatch loop forever (until card reset + reload), which is precisely the
failure the paper's watchdog catches.

The FTGM variant subclasses this and overrides the small set of hooks
marked "FTGM hook" below.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Optional, Tuple

from ..errors import GmError
from ..hw.nic import Nic
from ..hw.registers import IsrBits
from ..lanai import firmware as fw
from ..lanai.bus import MemoryBus
from ..lanai.cpu import LanaiCpu
from ..net.mapper import MapperAgent
from ..net.packet import Packet, PacketType
from ..payload import Payload
from ..sim import Simulator, Store, Tracer
from . import constants as C
from .events import EventType, GmEvent
from .interp import SendChunkGlue
from .streams import RxStream, StreamKey, TxStream
from .tokens import RecvToken, SendToken

__all__ = ["Mcp", "McpPort"]


#: A walk with fewer windows than this left steps them one at a time:
#: the binade jump costs about as much as stepping that many.
_STEP_WINDOWS = 8

#: The binade [2^e, 2^(e+1)) of a tick T, in units of ulp(T) = 2^(e-52),
#: is [2^52, 2^53).
_BINADE_UNITS = 1 << 53


def _walk_ticks(tick: float, bound: float, last: float,
                max_gap: float) -> Tuple[int, float, float, float]:
    """Walk the L_timer chain over every window ending at or before ``bound``.

    The one definition of the tick chain: a tick at T runs a 1.5 us
    housekeeping window [T, T + 1.5], and the tail re-arms IT0 at the
    window end, so the next tick starts at ``(T + 1.5) + interval`` —
    the exact float the live path produces.  Starting from the tick at
    ``tick``, returns (windows crossed, next tick start, last tick
    start, max gap), the gaps measured from ``last`` and folded into
    ``max_gap``.  The idle fold, the parked replay and the sampler's
    projection all walk the chain here.

    The walk is exact and costs O(binades), not O(windows).  While a
    tick T stays in one binade [2^e, 2^(e+1)) and both 1.5 and the
    interval are multiples of ulp(T), every sum along the chain is a
    multiple of ulp(T) below 2^(e+1), hence representable: ``(T + 1.5)
    + interval`` is exactly T + period, the k-th tick is exactly
    T + k * period, each window end compares against ``bound`` without
    rounding, and each gap is exactly ``period``.  So all the windows
    one binade holds are counted in one step, in integer units of
    ulp(T).  Windows are stepped one at a time only where that argument
    does not reach: the first (its gap is measured from an arbitrary
    ``last``), those that cross a binade edge (their sums round), all
    of them once a constant is not a multiple of ulp(T) (it never
    becomes one: ulp only grows along the chain), and walks shorter
    than ``_STEP_WINDOWS`` windows, which never pay for the ulp.
    Ticks are simulated instants, so never negative.
    """
    interval = C.L_TIMER_INTERVAL_US
    count = 0
    exact = True
    while tick + 1.5 <= bound:
        gap = tick - last
        if gap > max_gap:
            max_gap = gap
        last = tick
        count += 1
        tick = (tick + 1.5) + interval
        if not exact or bound - tick <= _STEP_WINDOWS * interval:
            continue
        ulp = math.ulp(tick)
        if math.fmod(1.5, ulp) or math.fmod(interval, ulp):
            exact = False
            continue
        start = int(tick / ulp)
        half = int(1.5 / ulp)
        period = half + int(interval / ulp)
        # Windows whose next tick stays inside the binade, and windows
        # that end at or before the bound.
        jump = min((_BINADE_UNITS - 1 - start) // period,
                   (math.floor(bound / ulp) - half - start) // period + 1)
        if jump > 0:
            gap = tick - last
            if gap > max_gap:
                max_gap = gap
            if jump > 1 and period * ulp > max_gap:
                max_gap = period * ulp
            last = (start + (jump - 1) * period) * ulp
            tick = (start + jump * period) * ulp
            count += jump
    return count, tick, last, max_gap


class McpPort:
    """LANai-side state for one port.

    Token queues exist independently of the port's open flag: during
    FTGM recovery the host re-posts its token copies *before* the
    "reopen" request is serviced by L_timer, and those tokens must not
    be lost (the LANai only refuses to *deliver* to a closed port).
    """

    def __init__(self, port_id: int, open_: bool = True):
        self.port_id = port_id
        self.recv_tokens: List[RecvToken] = []
        self.open = open_


class Mcp:
    """One NIC's control program (plain GM semantics)."""

    name_prefix = "gm-mcp"
    # Extra per-packet LANai occupancy; FTGM's sequence bookkeeping and
    # per-(connection, port) ACK table raise these (Table 2: 6.0 -> 6.8us).
    lanai_send_extra_us = 0.0
    lanai_recv_extra_us = 0.0
    # Plain-GM idle ticks are pure bookkeeping, so runs of them can be
    # folded into arithmetic (see _idle_skip_deadline).  Subclasses whose
    # L_timer does observable work every tick turn this off.
    _idle_skip = True
    # Tickless idle: an IT0 expiry that finds the dispatch loop parked
    # with nothing else to do is serviced by two small callbacks instead
    # of resuming the generator twice per tick (see _fused_l_timer).
    # Tests turn it off to compare against the live generator path.
    _tickless = True

    def __init__(self, sim: Simulator, nic: Nic, node_id: int,
                 tracer: Optional[Tracer] = None,
                 interpreted: bool = False):
        self.sim = sim
        self.nic = nic
        self.node_id = node_id
        self.name = "%s%d" % (self.name_prefix, node_id)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.interpreted = interpreted

        self.routing_table: Dict[int, List[int]] = {}
        self.ports: Dict[int, McpPort] = {}
        self.tx_streams: Dict[StreamKey, TxStream] = {}
        self.rx_streams: Dict[StreamKey, RxStream] = {}
        self.rx_frags: Dict[StreamKey, List[Payload]] = {}

        self.doorbells: Store = Store(sim)
        self.host_requests: List[Tuple] = []
        self.alarms: List[Tuple[float, int, object]] = []
        self.event_sinks: Dict[int, callable] = {}
        self.on_routes_installed = None  # driver hook (host route copy)
        self.heartbeat_listener = None   # peer-watchdog hook (extension)

        self.running = False
        self.paused = False   # checkpoint support: freeze all but L_timer
        self.dead_reason: Optional[str] = None
        self._wake = None
        self._proc = None
        self._fuse_end = -1.0
        self._fused_cb = self._fused_l_timer
        self._fused_tail_cb = self._fused_tail
        # Lazy node parking: a fully quiescent MCP (no streams, no
        # alarms, no pending work of any kind) leaves the event wheel
        # entirely — IT0 disarmed, nothing scheduled — and is woken by
        # the first doorbell/packet/host request, replaying the missed
        # L_timer windows arithmetically on the exact tick chain.  Off
        # by default; the cluster builder enables it at scale (see
        # repro.cluster.LAZY_AUTO_THRESHOLD) via set_lazy().
        self._lazy = False
        self._parked = False
        self._park_next_tick = 0.0   # when the next tick would start
        self._park_prev_end = 0.0    # last completed housekeeping window
        self._projected = None       # the sampler's cursor, see _park

        # Interpreted-mode machinery.
        self.cpu: Optional[LanaiCpu] = None
        self.glue: Optional[SendChunkGlue] = None
        self.firmware = None

        # The mapper protocol endpoint for this interface.
        self.mapper_agent = MapperAgent(
            sim, node_id, self._transmit, self._install_routes, tracer)

        # Statistics / calibration probes.
        self.stats = {
            "packets_sent": 0, "packets_received": 0, "crc_drops": 0,
            "csum_drops": 0, "malformed_drops": 0, "no_token_drops": 0,
            "stale_packets": 0, "nacks_sent": 0, "retransmit_rounds": 0,
            "sends_failed": 0, "messages_delivered": 0, "acks_sent": 0,
            "mcp_restarts": 0,
        }
        self.busy_time = 0.0
        self.send_busy_time = 0.0
        self.recv_busy_time = 0.0
        self.l_timer_invocations = 0
        self.l_timer_last: Optional[float] = None
        self.l_timer_max_gap = 0.0
        self.ticks_absorbed = 0   # idle ticks folded by the tickless path
        self.ticks_parked = 0     # ticks replayed across parked spans

        # Test hooks for adversarially timed crashes (Figures 4 and 5).
        self.hang_after_ack_before_dma = False   # receiver-side, Fig. 5
        self.hang_before_ack_processing = False  # sender-side, Fig. 4
        self.hang_after_dma_before_ack = False   # FTGM window counterpart

    # -- lifecycle ------------------------------------------------------------------

    def set_lazy(self, enabled: bool) -> None:
        """Opt this MCP in (or out) of idle parking.

        Parking happens in the fused tail, so without ``_tickless`` it
        never does.  It replays whole windows arithmetically, so it is
        unavailable when the firmware path is interpreted (an
        interpreter tick is not pure bookkeeping).
        """
        self._lazy = bool(enabled) and not self.interpreted

    def start(self) -> None:
        """Begin dispatch; arm IT0 (the L_timer driver)."""
        if self.running:
            raise GmError("MCP already running")
        self.running = True
        self.dead_reason = None
        if self.interpreted:
            self.firmware = fw.build_firmware()
            self.firmware.load_into(self.nic.sram)
            bus = MemoryBus(self.nic.sram)
            self.cpu = LanaiCpu(self.sim, bus, self.tracer,
                                name="lanai%d" % self.node_id)
            self.glue = SendChunkGlue(self, bus)
        self.nic.mcp = self
        self.nic.status.add_listener(self._isr_listener)
        self.nic.timers[0].set_us(C.L_TIMER_INTERVAL_US)
        self.l_timer_last = self.sim.now
        self._proc = self.sim.spawn(self._dispatch(), name=self.name)
        self.tracer.emit(self.sim.now, self.name, "mcp_started",
                         interpreted=self.interpreted)

    def stop(self, reason: str = "stopped") -> None:
        """Stop dispatch (card reset path, or a modelled native hang)."""
        self.running = False
        self.dead_reason = reason
        try:
            self.nic.status.remove_listener(self._isr_listener)
        except ValueError:
            pass
        self._kick()

    def die(self, reason: str) -> None:
        """The LANai hung: dispatch stops, timers are NOT re-armed.

        IT0/IT1 hardware keeps counting — that asymmetry is the watchdog.
        """
        self.tracer.emit(self.sim.now, self.name, "mcp_died", reason=reason)
        self.stop(reason)

    @property
    def hung(self) -> bool:
        return not self.running and self.dead_reason not in (None, "stopped")

    def ckpt_state(self) -> dict:
        """Snapshot contract: the full control-program protocol state.

        Covers lifecycle (incl. the lazy-parking latches — a parked MCP
        must restore parked, with its arithmetic tick chain intact),
        routing, per-port token queues, both stream directions, pending
        host work, and the calibration counters.  Firmware bytes are not
        repeated here: interpreted-mode firmware lives in SRAM, which the
        NIC contract already digests.
        """
        return {
            "name": self.name,
            "running": self.running,
            "paused": self.paused,
            "dead_reason": self.dead_reason,
            "interpreted": self.interpreted,
            "lazy": self._lazy,
            "parked": self._parked,
            "park_next_tick": self._park_next_tick,
            "park_prev_end": self._park_prev_end,
            "fuse_end": self._fuse_end,
            "routing_table": {str(dest): list(route) for dest, route
                              in sorted(self.routing_table.items())},
            "ports": {
                str(port_id): {
                    "open": port.open,
                    "recv_tokens": [token.token_id
                                    for token in port.recv_tokens],
                }
                for port_id, port in sorted(self.ports.items())
            },
            "tx_streams": [self.tx_streams[key].ckpt_state()
                           for key in sorted(self.tx_streams)],
            "rx_streams": [self.rx_streams[key].ckpt_state()
                           for key in sorted(self.rx_streams)],
            "rx_frags": {str(list(key)): len(frags) for key, frags
                         in sorted(self.rx_frags.items())},
            "doorbells": self.doorbells.ckpt_state(),
            "host_requests": len(self.host_requests),
            "alarms": [[alarm[0], alarm[1]] for alarm in self.alarms],
            "stats": dict(sorted(self.stats.items())),
            "busy_time": self.busy_time,
            "send_busy_time": self.send_busy_time,
            "recv_busy_time": self.recv_busy_time,
            "l_timer_invocations": self.l_timer_invocations,
            "l_timer_last": self.l_timer_last,
            "l_timer_max_gap": self.l_timer_max_gap,
            "ticks_absorbed": self.ticks_absorbed,
            "ticks_parked": self.ticks_parked,
            "cpu": self.cpu.ckpt_state() if self.cpu is not None else None,
        }

    # -- host-facing entry points (called via driver/library) ------------------------

    def doorbell_send(self, token: SendToken) -> None:
        self.doorbells.put(("send", token))
        self.nic.status.set_bits(IsrBits.SEND_POSTED)

    def doorbell_recv(self, token: RecvToken) -> None:
        self.doorbells.put(("recv", token))
        self.nic.status.set_bits(IsrBits.RECV_POSTED)

    def host_request(self, request: Tuple) -> None:
        """Queue a request serviced by L_timer (open/close/alarm/...)."""
        self.host_requests.append(request)
        self.nic.status.set_bits(IsrBits.HOST_REQUEST)

    # -- stream keying (FTGM hook) ---------------------------------------------------

    def tx_stream_key(self, token: SendToken) -> StreamKey:
        """Plain GM: one stream per remote node (Figure 6a)."""
        return (token.dest_node,)

    def rx_stream_key(self, pkt: Packet) -> StreamKey:
        return (pkt.src_node,)

    def ack_stream_key(self, pkt: Packet) -> StreamKey:
        """Key of OUR tx stream identified by an incoming ACK/NACK."""
        return (pkt.src_node,)

    def assign_seq_base(self, stream: TxStream, token: SendToken) -> None:
        """Plain GM: the MCP owns sequence numbers (token.seq_base None)."""
        token.seq_base = None

    def ack_after_dma(self, is_final: bool) -> bool:
        """Plain GM ACKs on acceptance, before the DMA (the Fig. 5 bug)."""
        return False

    def event_seq_field(self, stream: RxStream) -> Optional[int]:
        """Plain GM does not report sequence numbers to the host."""
        return None

    def _l_timer_extra(self) -> None:
        """FTGM hook: reset the watchdog timer, clear the magic word."""

    # -- dispatch loop -----------------------------------------------------------

    def _isr_listener(self, mask: int) -> None:
        if (mask & IsrBits.IT0_EXPIRED and self._tickless
                and self._idle_tick(self.sim._now)):
            # Idle tick: service L_timer via callbacks, leaving the
            # dispatch generator parked.  The zero-delay timeout lands at
            # the exact heap position (same sequence draw) the wake
            # resume would have taken, so event ordering is unchanged.
            t = self.sim.timeout(0.0)
            t.callbacks.append(self._fused_cb)
            return
        self._kick()

    def _idle_tick(self, now: float) -> bool:
        """IT0 at ``now`` may take the fused path: dispatch is parked and
        L_timer would be empty (no host request, no due alarm)."""
        wake = self._wake
        return (self.running and wake is not None
                and wake.callbacks is not None and not wake._scheduled
                and not self.host_requests
                and not any(a[0] <= now for a in self.alarms))

    def _kick(self) -> None:
        if self._parked:
            # First touch after a parked span: replay the missed ticks
            # and restore the timer chain before waking dispatch.
            self._unpark()
        wake = self._wake
        if wake is not None and wake.callbacks is not None \
                and not wake._scheduled:  # i.e. not wake.triggered
            if self.sim._now < self._fuse_end:
                # Inside a fused L_timer charge window the real path
                # has _wake = None, so kicks must not wake dispatch
                # early; the tail's work scan picks anything up at the
                # window end, exactly as the real post-charge scan does.
                return
            wake.succeed()

    def _dispatch(self) -> Generator:
        while self.running:
            progressed = yield from self._step()
            if not self.running:
                break
            if progressed:
                continue
            # A False return from _step() proves there is no work *now*:
            # it checked IT0, pause, the rings, deadlines and sendables
            # without yielding, so no sim time has passed and a separate
            # has-work re-check would test the same state again.  Nothing
            # can kick us before the yield either, so the wake event is
            # allocated only when the loop actually goes to sleep.
            self._wake = self.sim.event()
            yield self._wake
            self._wake = None

    def _step(self) -> Generator:
        """One dispatch cycle; returns True if any work was done."""
        status = self.nic.status
        # 1. Timer routine (housekeeping).
        if status.isr & IsrBits.IT0_EXPIRED:
            status.isr &= ~IsrBits.IT0_EXPIRED  # clear_bits, inlined
            yield from self._l_timer()
            return True
        if self.paused:
            # Paused for a checkpoint: L_timer (above) still runs — it
            # is how the resume request arrives — but nothing else does.
            return False
        # 2. Arrived packets.
        ring_items = self.nic.recv_ring.items
        if ring_items:
            pkt = ring_items.popleft()
            if not ring_items:
                status.isr &= ~IsrBits.PACKET_ARRIVED
            yield from self._handle_packet(pkt)
            return True
        # 3. Host doorbells.
        ok, bell = self.doorbells.try_get()
        if ok:
            yield from self._handle_doorbell(bell)
            return True
        # 4. Retransmit deadlines, then 5. one sendable fragment.
        work = self._stream_work(self.sim.now)
        if work is None:
            return False
        handler, stream = work
        yield from handler(stream)
        return True

    def _stream_work(self, now: float) -> Optional[Tuple]:
        """(handler, stream) for the tx-stream work dispatch does next.

        A passed retransmit deadline goes first, then a sendable
        fragment; None when neither exists.  (The dict is scanned
        directly and the winner handled only after iteration ends —
        handlers may mutate tx_streams, so acting mid-iteration would
        be unsafe, but a per-poll list() copy is not needed just to
        *find* the stream.)
        """
        for stream in self.tx_streams.values():
            if stream.deadline is not None and stream.deadline <= now:
                return self._handle_timeout, stream
        for stream in self.tx_streams.values():
            if stream.has_sendable():
                return self._send_fragment, stream
        return None

    # -- L_timer ------------------------------------------------------------------

    def _l_timer(self) -> Generator:
        """GM's housekeeping routine, invoked via IT0.

        "The host uses this routine to notify the LANai of various user
        actions, such as opening and closing a port, ... as well as
        setting alarms.  At the end of the L_timer() routine, IT0 is
        reset."
        """
        now = self.sim.now
        self._tick_front(now)

        if self.host_requests:
            requests, self.host_requests = self.host_requests, []
            for request in requests:
                yield from self._handle_host_request(request)

        if self.alarms:
            due = [a for a in self.alarms if a[0] <= now]
            self.alarms = [a for a in self.alarms if a[0] > now]
            for _when, port_id, context in due:
                yield from self._post_event(GmEvent(
                    EventType.ALARM, port_id, context=context))

        yield from self._charge(1.5, "housekeeping")
        self._l_timer_extra()
        self.nic.timers[0].set_us(C.L_TIMER_INTERVAL_US)

    def _tick_front(self, tick: float) -> None:
        """The bookkeeping every L_timer entry does at its tick start."""
        last = self.l_timer_last
        if last is not None:
            gap = tick - last
            if gap > self.l_timer_max_gap:
                self.l_timer_max_gap = gap
        self.l_timer_last = tick
        self.l_timer_invocations += 1
        self.nic.status.clear_bits(IsrBits.HOST_REQUEST)

    def _open_window(self, tick: float) -> None:
        """Open a fused housekeeping window at ``tick``: front half now,
        the tail at its end — the heap entry the real path's 1.5 us
        charge makes.  Kicks are suppressed until then (see _kick)."""
        self._tick_front(tick)
        self.busy_time += 1.5
        self._fuse_end = tick + 1.5
        tail = self.sim.timeout_at(self._fuse_end)
        tail.callbacks.append(self._fused_tail_cb)

    def _fused_l_timer(self, _event) -> None:
        """Front half of an idle-tick L_timer, run without the generator.

        Runs at the exact heap position the parked dispatch loop would
        have resumed at; replicates _step's IT0 branch plus an empty
        L_timer.
        """
        status = self.nic.status
        now = self.sim._now
        if not (status.isr & IsrBits.IT0_EXPIRED and self._idle_tick(now)):
            # A same-instant arrival broke eligibility between the timer
            # notification and this callback: take the real path.
            self._kick()
            return
        status.isr &= ~IsrBits.IT0_EXPIRED
        self._open_window(now)

    def _fused_tail(self, _event) -> None:
        """Back half of an idle-tick L_timer: the post-charge work.

        Mirrors what the real generator does when the housekeeping
        charge completes — _l_timer_extra and the IT0 re-arm run even if
        the MCP was stopped mid-window (the suspended generator does the
        same) — then re-creates the post-L_timer dispatch scan: work
        that arrived during the charge window is handled now, not when
        it arrived.
        """
        self._l_timer_extra()
        it0 = self.nic.timers[0]
        if self.running and self.paused:
            it0.set_us(C.L_TIMER_INTERVAL_US)
            return
        now = self.sim._now
        # A stopped MCP kicks too: the real loop breaks and the process
        # ends, so the parked generator must wake to observe it.
        if (not self.running or self.nic.recv_ring.items
                or self.doorbells.items or self._stream_work(now)):
            it0.set_us(C.L_TIMER_INTERVAL_US)
            self._kick()
            return
        # Fully quiescent and lazy: leave the wheel entirely.  Unlike
        # the fold below this needs no horizon scan — any event that
        # could affect this MCP necessarily touches it (packet, bell,
        # request), and the touch itself triggers the replay.
        if self._lazy and not self.alarms and not self.host_requests \
                and self._quiescent():
            self._park(now)
            return
        # Nothing to do and the dispatch loop stays parked.  Fold any
        # run of provably idle upcoming ticks into arithmetic
        # bookkeeping and arm IT0 directly at the first tick whose
        # housekeeping window could interact with another event; tag the
        # expiry so peer MCPs' fast-forward scans can ignore it too.
        # Pending alarms or host requests make the next tick do real,
        # externally visible work, so it must neither be skipped over
        # nor advertised as inert.
        if self.alarms or self.host_requests or not self._idle_skip:
            it0.set_us(C.L_TIMER_INTERVAL_US)
            return
        it0.set_deadline(self._idle_skip_deadline(now))
        self.sim.inert.add(it0.pending_event)

    # -- the tick chain ------------------------------------------------------------

    def _run_windows(self, tick: float, bound: float) -> Tuple[int, float]:
        """Walk the chain from ``tick`` to ``bound`` and bill the crossed
        windows as if they ran live; returns (windows, next tick start)."""
        count, tick, last, max_gap = _walk_ticks(
            tick, bound, self.l_timer_last, self.l_timer_max_gap)
        self.l_timer_invocations += count
        self.busy_time += 1.5 * count
        self.l_timer_last = last
        self.l_timer_max_gap = max_gap
        return count, tick

    def _idle_skip_deadline(self, now: float) -> float:
        """Fast-forward over idle L_timer ticks; return the IT0 deadline.

        Called from the fused tail once the work scan proved the MCP
        idle.  Scans the event heap for the earliest event that could
        change anything — skipping events marked inert (replaced timer
        expiries, peers' committed idle ticks) — and bills every upcoming
        tick whose whole 1.5 us housekeeping window strictly precedes it
        through the chain walk, so the MCP state at the next live event
        is bitwise identical.  Returns the absolute expiry time for the
        first tick that must run for real: ``now + interval`` — what
        the periodic re-arm would set — when no tick can be skipped.

        Correctness leans on one invariant: between now and the chosen
        deadline the heap holds only inert events, and an inert event
        never creates work for anyone — so no doorbell, packet, alarm or
        host request can appear inside the skipped span.  (It holds only
        while idle ticks are pure bookkeeping; see ``_idle_skip``.)
        """
        # The external-work horizon spans the whole schedule, not just
        # this MCP's own events.
        t_ext = self.sim.earliest_live()
        if t_ext == float("inf"):
            # Only inert events left: without a live horizon the skip is
            # unbounded, so keep ticking periodically.
            return now + C.L_TIMER_INTERVAL_US
        # The chain walk's bound is inclusive; a window must end strictly
        # before the live event, so bound it one float below.
        skipped, tick = self._run_windows(
            now + C.L_TIMER_INTERVAL_US, math.nextafter(t_ext, -math.inf))
        self.ticks_absorbed += skipped
        return tick

    # -- lazy node parking ---------------------------------------------------------

    def _quiescent(self) -> bool:
        """No stream holds state a timer tick could ever act on.

        The fused tail already proved nothing is runnable *now*; this
        asks the stronger question — could anything become runnable
        without an external touch?  An armed retransmit deadline or
        unacked window needs future ticks to fire it; partial
        reassemblies are kept conservative (their ACK/NACK bookkeeping
        rides the tick cadence).  All external touches (packet arrival,
        doorbell, host request) go through set_bits/_kick and wake a
        parked MCP themselves.
        """
        for stream in self.tx_streams.values():
            if stream.deadline is not None or stream.has_unacked() \
                    or stream.has_sendable():
                return False
        if self.rx_frags:
            return False
        return True

    def _park(self, now: float) -> None:
        """Quiesce off the wheel: no IT0, nothing scheduled at all.

        Called from the fused tail's idle branch, so IT0 has expired
        and was not re-armed.  IT1 stops too: it is FTGM's watchdog
        (plain GM never arms it), and a parked FTGM node must not trip
        its own watchdog — the FTD only probes after an IT1 FATAL, so a
        stopped IT1 also parks the daemon.  ``now`` is the housekeeping
        window end; the next tick would have started one interval
        later, which anchors the replay chain.
        """
        self.nic.timers[1].stop()
        self._parked = True
        self._park_prev_end = now
        self._park_next_tick = now + C.L_TIMER_INTERVAL_US
        # (instant, next tick, whole windows) of the last projection.
        self._projected = (now, self._park_next_tick, 0)
        self.tracer.emit(now, self.name, "mcp_parked")

    def _unpark(self) -> None:
        """Replay the parked span and restore the timer chain.

        Runs inside the first ``_kick`` after parking, before dispatch
        wakes.  Missed whole windows, up to and including one ending on
        the waking touch, are billed through the chain walk; the
        straddled window, if the wake lands inside one, is opened as
        the live fused path opens it (``_open_window``).  A wake
        landing exactly on a tick start raw-sets IT0_EXPIRED so dispatch
        takes the real L_timer path (the live ordering: the expiry event
        predates the waking event's kick).
        """
        self._parked = False
        now = self.sim._now
        replayed, tick = self._run_windows(self._park_next_tick, now)
        self.ticks_parked += replayed
        # The last completed window's end, which re-armed the watchdog.
        end = self.l_timer_last + 1.5
        if tick > now:
            # Between windows: arm IT0 on the exact chain float.  The
            # plain-GM fold marks its committed expiries inert (pure
            # bookkeeping ticks); FTGM ticks stay live.
            it0 = self.nic.timers[0]
            it0.set_deadline(tick)
            if self._idle_skip:
                self.sim.inert.add(it0.pending_event)
        elif tick == now:
            # IT0 is not in the IMR, so expiry only sets the ISR bit —
            # raw-set it and let dispatch run the real _l_timer.
            self.nic.status.isr |= IsrBits.IT0_EXPIRED
        else:
            # Mid-window wake (tick < now < tick + 1.5): the live fused
            # front already ran at ``tick``.
            self.ticks_parked += 1
            self._open_window(tick)
        self._replay_windows(replayed, end)
        self.tracer.emit(now, self.name, "mcp_unparked",
                         replayed=replayed)

    def _replay_windows(self, count: int, end: float) -> None:
        """FTGM hook: ``count`` windows replayed, the last ended at ``end``."""

    def _parked_windows(self, now: float) -> Tuple[int, int]:
        """(whole windows, straddled window) of the parked span at ``now``.

        The read-only side of ``_unpark``: the same chain walk to the
        same inclusive bound, without billing anything.  Samples arrive
        in time order, so the walk resumes from the last projected
        instant (``_park`` resets it) and a run's sampling costs linear
        work in its parked ticks; an earlier instant walks from the
        park anchor again.
        """
        if not self._parked:
            return 0, 0
        at, tick, whole = self._projected
        if now < at:
            tick, whole = self._park_next_tick, 0
        count, tick, _, _ = _walk_ticks(tick, now, tick, 0.0)
        whole += count
        self._projected = (now, tick, whole)
        return whole, 1 if tick < now else 0

    def settle_idle(self) -> None:
        """Replay a parked MCP up to the current instant (observation).

        Harvest and outcome extraction read counters directly instead
        of touching the MCP through its host interface; calling this
        first brings a parked node's statistics to what the always-
        ticking execution would show now.  A no-op when not parked.
        """
        if self._parked:
            self._kick()

    def sample_stats(self, now: float) -> dict:
        """Read-only counter projection at ``now`` (never wakes a node).

        The continuous sampler reads counters mid-run, where
        ``settle_idle`` would be wrong: replaying the parked span into
        the live counters changes every later fold, so a sampled run
        would diverge from an unsampled one.  Instead, project what the
        always-ticking execution would show at ``now`` through
        ``_parked_windows``.
        """
        whole, mid = self._parked_windows(now)
        return {"l_timer_invocations": self.l_timer_invocations + whole + mid,
                "ticks_parked": self.ticks_parked + whole + mid}

    def _handle_host_request(self, request: Tuple) -> Generator:
        kind = request[0]
        if kind == "open":
            _, port_id, done = request
            self.ports[port_id] = McpPort(port_id)
            yield from self._charge(2.0, "port-open")
            done.succeed(port_id)
        elif kind == "reopen":
            _, port_id, done = request
            port = self.ports.get(port_id)
            if port is None:
                port = self.ports[port_id] = McpPort(port_id, open_=False)
            port.open = True
            yield from self._charge(2.0, "port-reopen")
            done.succeed(port_id)
        elif kind == "close":
            _, port_id, done = request
            self.ports.pop(port_id, None)
            self.event_sinks.pop(port_id, None)
            yield from self._charge(2.0, "port-close")
            done.succeed(port_id)
        elif kind == "alarm":
            _, when, port_id, context = request
            self.alarms.append((when, port_id, context))
        elif kind == "pause":
            # "request for pausing the LANai" — L_timer is exactly where
            # GM services it (§4.2 lists it among L_timer's duties).
            _, done = request
            self.paused = True
            yield from self._charge(1.0, "pause")
            done.succeed(True)
        elif kind == "resume":
            _, done = request
            self.paused = False
            yield from self._charge(1.0, "resume")
            done.succeed(True)
        elif kind == "restore_rx":
            # FTGM recovery: host reports the last seq it saw per stream.
            _, key, last_seq = request
            stream = self._rx_stream(tuple(key))
            stream.restore(last_seq)
            yield from self._charge(1.0, "restore-rx")
        else:
            self.tracer.emit(self.sim.now, self.name, "bad_host_request",
                             request_kind=kind)

    # -- doorbells -------------------------------------------------------------------

    def _handle_doorbell(self, bell: Tuple) -> Generator:
        kind, token = bell
        if kind == "send":
            stream = self._tx_stream(self.tx_stream_key(token))
            self.assign_seq_base(stream, token)
            stream.admit(token)
            if not stream.has_unacked():
                # A fresh conversation starts its stall clock now.
                stream.note_progress(self.sim.now)
            yield from self._charge(0.4, "token-admit")
        elif kind == "recv":
            port = self.ports.get(token.port)
            if port is None:
                # Recovery re-posts tokens before the reopen request is
                # serviced; queue them on a closed port placeholder.
                port = self.ports[token.port] = McpPort(token.port,
                                                        open_=False)
            port.recv_tokens.append(token)
            yield from self._charge(0.3, "recv-token")

    def _tx_stream(self, key: StreamKey) -> TxStream:
        stream = self.tx_streams.get(key)
        if stream is None:
            stream = self.tx_streams[key] = TxStream(key)
        return stream

    def _rx_stream(self, key: StreamKey) -> RxStream:
        stream = self.rx_streams.get(key)
        if stream is None:
            stream = self.rx_streams[key] = RxStream(key)
        return stream

    # -- send path ---------------------------------------------------------------

    def _send_fragment(self, stream: TxStream) -> Generator:
        job = stream.next_to_send()
        if job is None:
            return
        record = stream.msgs.get(job.msg_id)
        if record is None:
            return
        token = record.token
        if self.interpreted:
            ok = yield from self._send_chunk_interpreted(token, job)
        else:
            ok = yield from self._send_chunk_native(token, job)
        if not ok:
            return
        self.stats["packets_sent"] += 1
        if stream.deadline is None:
            self._arm_stream_timer(stream)

    def _send_chunk_native(self, token: SendToken, job) -> Generator:
        yield from self._charge(
            C.LANAI_SEND_PER_PACKET_US + self.lanai_send_extra_us,
            "send", bucket="send")
        result = yield from self.nic.dma.read_from_host(
            token.host_addr + job.offset, job.length)
        if not result.ok:
            yield from self._fail_send(token, "dma:%s" % result.error)
            return False
        pkt = self._build_data_packet(token, job, result.payload)
        if pkt is None:
            yield from self._fail_send(token, "no-route")
            return False
        self._transmit(pkt.seal())
        return True

    def _build_data_packet(self, token: SendToken, job,
                           payload: Payload) -> Optional[Packet]:
        route = self.routing_table.get(token.dest_node)
        if route is None and token.dest_node != self.node_id:
            return None
        pkt = Packet(
            ptype=PacketType.DATA,
            src_node=self.node_id,
            dest_node=token.dest_node,
            route=list(route or []),
            src_port=token.src_port,
            dst_port=token.dest_port,
            seq=job.seq,
            msg_id=token.msg_id,
            frag_offset=job.offset,
            msg_total=token.size,
            declared_len=job.length,
            priority=token.priority,
            payload=payload,
        )
        pkt.hdr_csum = pkt.header_checksum()
        return pkt

    def _fail_send(self, token: SendToken, reason: str) -> Generator:
        self.stats["sends_failed"] += 1
        self.tracer.emit(self.sim.now, self.name, "send_failed",
                         msg_id=token.msg_id, reason=reason)
        stream = self.tx_streams.get(self.tx_stream_key(token))
        if stream is not None:
            stream.msgs.pop(token.msg_id, None)
            if not stream.msgs:
                stream.deadline = None
                stream.send_cursor = stream.acked_upto + 1
        yield from self._post_event(GmEvent(
            EventType.SEND_ERROR, token.src_port,
            msg_id=token.msg_id, error=reason, context=token.context))

    def _transmit(self, pkt: Packet) -> None:
        """Queue a packet on the packet interface's wire (non-blocking).

        A packet addressed to this very interface loops back through the
        receive ring without touching the wire — GM supports self-sends.
        """
        if pkt.dest_node == self.node_id:
            self.nic.deliver_packet(pkt)
            return
        self.nic.link.transmit(pkt)

    # -- receive path ----------------------------------------------------------

    def _handle_packet(self, pkt: Packet) -> Generator:
        if self.mapper_agent.handle(pkt):
            yield from self._charge(1.0, "mapper")
            return
        if pkt.ptype == PacketType.DATA:
            yield from self._handle_data(pkt)
        elif pkt.ptype == PacketType.ACK:
            yield from self._handle_ack(pkt)
        elif pkt.ptype == PacketType.NACK:
            yield from self._handle_nack(pkt)
        elif pkt.ptype == PacketType.HEARTBEAT:
            # Peer-watchdog probe: answer if (and only if) we are alive
            # enough to dispatch — which is the definition being tested.
            yield from self._charge(0.4, "heartbeat")
            route = self.routing_table.get(pkt.src_node)
            if route is not None:
                reply = Packet(ptype=PacketType.HEARTBEAT_REPLY,
                               src_node=self.node_id,
                               dest_node=pkt.src_node,
                               route=list(route), seq=pkt.seq)
                self._transmit(reply.seal())
        elif pkt.ptype == PacketType.HEARTBEAT_REPLY:
            if self.heartbeat_listener is not None:
                self.heartbeat_listener(pkt)
        else:
            self.stats["malformed_drops"] += 1
            yield from self._charge(0.3, "drop")

    def _handle_data(self, pkt: Packet) -> Generator:
        yield from self._charge(
            C.LANAI_RECV_PER_PACKET_US + self.lanai_recv_extra_us,
            "recv", bucket="recv")
        self.stats["packets_received"] += 1
        if not pkt.crc_ok():
            # Wire corruption: the link-level CRC catches it.  Note that
            # the CRC is computed by the *sending* hardware after the
            # firmware built the packet, so firmware corruption produces
            # a consistent CRC and sails through this check — exactly the
            # real failure mode (GM's CRC protects the wire, not the
            # sender's brain).
            self.stats["crc_drops"] += 1
            self.tracer.emit(self.sim.now, self.name, "crc_drop",
                             packet=pkt.describe())
            return
        if pkt.dest_node != self.node_id or pkt.effective_len() \
                != pkt.payload.size:
            self.stats["malformed_drops"] += 1
            return
        port = self.ports.get(pkt.dst_port)
        if port is None or not port.open:
            self.stats["malformed_drops"] += 1
            return

        key = self.rx_stream_key(pkt)
        stream = self._rx_stream(key)
        verdict = stream.classify(pkt.seq)
        if verdict != "expected":
            # Any out-of-sequence packet is answered with a NACK carrying
            # the expected sequence number ("the receiver would reply by
            # sending a NACK with the expected sequence number").  For a
            # live sender this doubles as a cumulative ACK of everything
            # below `expected`; for a naively restarted sender it is the
            # very reply that triggers the Figure 4 duplicate.  NACKs are
            # rate-limited per stream so a misbehaving sender cannot
            # provoke a NACK storm at wire rate.
            if verdict == "stale":
                self.stats["stale_packets"] += 1
            now = self.sim.now
            if now - stream.last_nack_at >= C.NACK_MIN_INTERVAL_US:
                stream.last_nack_at = now
                self._send_control(PacketType.NACK, pkt,
                                   stream.expected_seq)
            return

        # In-sequence data.
        if pkt.frag_offset == 0:
            token = self._match_recv_token(port, pkt.msg_total, pkt.priority)
            if token is None:
                self.stats["no_token_drops"] += 1
                return  # no buffer: silent drop, sender will retransmit
            stream.open_msg_id = pkt.msg_id
            stream.open_token = token
            stream.received_bytes = 0
            self.rx_frags[key] = []
        else:
            if stream.open_msg_id != pkt.msg_id or stream.open_token is None:
                # Mid-message fragment without its head (we likely dropped
                # the head for lack of a buffer): do not advance.
                self.stats["no_token_drops"] += 1
                return

        stream.accept(pkt.seq)
        token = stream.open_token
        self.rx_frags[key].append(pkt.payload)
        is_final = pkt.frag_offset + pkt.payload.size >= pkt.msg_total

        if not self.ack_after_dma(is_final):
            # Plain-GM commit point: ACK as soon as the packet is valid —
            # *before* the DMA into the user buffer (the Fig. 5 window).
            # FTGM also takes this branch for non-final fragments, "not
            # waiting for the DMA to be complete, thus allowing several
            # packets of the same message to be in-flight".
            self._send_control(PacketType.ACK, pkt, stream.last_acked)
            if self.hang_after_ack_before_dma:
                # Fig. 5 test hook: crash after ACK, before the DMA.
                self.die("injected: after-ack-before-dma")
                return

        result = yield from self.nic.dma.write_to_host(
            token.host_addr + pkt.frag_offset, pkt.payload)
        if not result.ok:
            self.tracer.emit(self.sim.now, self.name, "recv_dma_failed",
                             error=result.error)
            return
        stream.received_bytes += pkt.payload.size

        if is_final:
            # Post the event *before* the (delayed) final ACK: the event
            # DMA is what updates the host's ACK-table copy, so ordering
            # it first guarantees the host copy covers everything the
            # sender may believe completed — the invariant per-stream
            # recovery rests on (PROTOCOL.md, R1).
            yield from self._deliver_message(key, stream, port, pkt)

        if self.ack_after_dma(is_final):
            # FTGM commit point: the final fragment of a message ACKs
            # only after its DMA completed.
            if self.hang_after_dma_before_ack:
                # FTGM counterpart of the Fig. 5 window: with the moved
                # commit point a crash here loses only the (unACKed)
                # message, which the sender retransmits after recovery.
                self.die("injected: after-dma-before-ack")
                return
            self._send_control(PacketType.ACK, pkt, stream.last_acked)

    def _deliver_message(self, key: StreamKey, stream: RxStream,
                         port: McpPort, pkt: Packet) -> Generator:
        token = stream.open_token
        frags = self.rx_frags.pop(key, [])
        full = Payload.concat(frags) if frags else Payload.from_bytes(b"")
        region = self.nic.host.region_by_id(token.region_id)
        if region is not None:
            region.payload = full
        stream.open_msg_id = None
        stream.open_token = None
        stream.received_bytes = 0
        self.stats["messages_delivered"] += 1
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "flow",
                             _ph="n", _cat="msg", _id=pkt.msg_id,
                             name="message", node=self.node_id)
        yield from self._post_event(GmEvent(
            EventType.RECEIVED, port.port_id,
            sender_node=pkt.src_node, sender_port=pkt.src_port,
            payload=full, size=pkt.msg_total, region_id=token.region_id,
            recv_token_id=token.token_id,
            seq=self.event_seq_field(stream)))

    def _match_recv_token(self, port: McpPort, size: int,
                          priority: int) -> Optional[RecvToken]:
        for i, token in enumerate(port.recv_tokens):
            if token.matches(size, priority):
                return port.recv_tokens.pop(i)
        return None

    def _send_control(self, ptype: int, data_pkt: Packet,
                      seq_value: int) -> None:
        """ACK/NACK back to the sender of ``data_pkt``."""
        route = self.routing_table.get(data_pkt.src_node)
        if route is None:
            return
        ctrl = Packet(
            ptype=ptype,
            src_node=self.node_id,
            dest_node=data_pkt.src_node,
            route=list(route),
            src_port=data_pkt.src_port,   # identifies the sender's stream
            dst_port=data_pkt.dst_port,
            ack_seq=seq_value,
        )
        ctrl.hdr_csum = ctrl.header_checksum()
        self.stats["acks_sent" if ptype == PacketType.ACK
                   else "nacks_sent"] += 1
        self._transmit(ctrl.seal())

    # -- ACK / NACK / timeout at the sender --------------------------------------

    def _handle_ack(self, pkt: Packet) -> Generator:
        if self.hang_before_ack_processing:
            # Fig. 4 test hook: "a sending node crashes when an ACK is in
            # transit" — the ACK arrived but is never processed.
            self.die("injected: ack-in-transit")
            return
        yield from self._charge(C.LANAI_ACK_PROCESS_US, "ack", bucket="send")
        stream = self.tx_streams.get(self.ack_stream_key(pkt))
        if stream is None:
            return
        before = stream.acked_upto
        completed = stream.on_ack(pkt.ack_seq)
        if stream.acked_upto > before:
            stream.note_progress(self.sim.now)
        yield from self._complete_records(stream, completed)

    def _handle_nack(self, pkt: Packet) -> Generator:
        yield from self._charge(C.LANAI_ACK_PROCESS_US, "nack", bucket="send")
        stream = self.tx_streams.get(self.ack_stream_key(pkt))
        if stream is None:
            return
        completed = stream.on_nack(pkt.ack_seq)
        if completed or stream.progressed_via_nack:
            stream.note_progress(self.sim.now)
        yield from self._complete_records(stream, completed)
        if stream.stalled(self.sim.now):
            yield from self._fail_stream(stream)
        self._kick()

    def _complete_records(self, stream: TxStream, completed) -> Generator:
        for record in completed:
            yield from self._post_event(GmEvent(
                EventType.SENT, record.token.src_port,
                msg_id=record.token.msg_id, context=record.token.context,
                seq=record.seq_last))
        if stream.has_unacked():
            self._arm_stream_timer(stream)
        else:
            stream.deadline = None

    def _handle_timeout(self, stream: TxStream) -> Generator:
        stream.deadline = None
        if not stream.has_unacked():
            return
        self.stats["retransmit_rounds"] += 1
        if stream.stalled(self.sim.now):
            yield from self._fail_stream(stream)
        else:
            stream.on_timeout()
            yield from self._charge(0.5, "retransmit")
            self._arm_stream_timer(stream)

    def _fail_stream(self, stream: TxStream) -> Generator:
        """No receiver progress within the resend window: error out
        every queued send (GM's time-based send failure)."""
        failed = stream.fail_all()
        for record in failed:
            yield from self._post_event(GmEvent(
                EventType.SEND_ERROR, record.token.src_port,
                msg_id=record.token.msg_id, error="send-timeout",
                context=record.token.context))
            self.stats["sends_failed"] += 1
        stream.note_progress(self.sim.now)  # fresh window for new sends

    def _arm_stream_timer(self, stream: TxStream) -> None:
        stream.deadline = self.sim.now + stream.rto
        timer = self.sim.timeout(stream.rto)
        timer.callbacks.append(lambda _ev: self._kick())

    # -- event posting -----------------------------------------------------------

    def _post_event(self, event: GmEvent) -> Generator:
        sink = self.event_sinks.get(event.port)
        if sink is None:
            return
        yield from self._charge(C.LANAI_EVENT_POST_US, "event")
        yield from self.nic.pci.transfer(C.EVENT_RECORD_BYTES)
        event.posted_at = self.sim.now
        sink(event)

    # -- interpreted send_chunk -----------------------------------------------------

    def _send_chunk_interpreted(self, token: SendToken, job) -> Generator:
        """Run the real firmware for this fragment on the interpreter."""
        # Dispatch-side token parse / bookkeeping cost (outside the
        # routine itself).
        yield from self._charge(1.0, "send-dispatch", bucket="send")
        base = fw.TOKEN_BASE
        sram = self.nic.sram
        fields = fw.TOKEN_FIELDS
        sram.write_word(base + fields["host_addr"],
                        token.host_addr + job.offset)
        sram.write_word(base + fields["sram_addr"], 0x10000)
        sram.write_word(base + fields["length"], job.length)
        sram.write_word(base + fields["dest_node"], token.dest_node)
        sram.write_word(base + fields["seq"], job.seq)
        sram.write_word(base + fields["ports"],
                        (token.src_port << 8) | token.dest_port)
        sram.write_word(base + fields["type"], PacketType.DATA)
        sram.write_word(base + fields["msg_id"], token.msg_id)
        sram.write_word(base + fields["offset"], job.offset)
        sram.write_word(base + fields["total"], token.size)
        sram.write_word(base + fields["priority"], token.priority)
        sram.write_word(base + fields["result"], 0xFFFFFFFF)

        self.glue.begin_invocation()
        # Fuel bounds runaway loops; the budget corresponds to ~2.3ms of
        # LANai time — anything longer is indistinguishable from a hang.
        outcome = yield from self.cpu.run_routine(
            self.firmware.entry_send_chunk, fuel=300_000)
        if outcome.status == "hung":
            self.die("lanai-hang:%s" % outcome.reason)
            return False
        if outcome.status == "restart":
            self._mcp_restart()
            return False
        result = sram.read_word(base + fields["result"])
        if result != 1:
            yield from self._fail_send(token, "send-chunk-error")
            return False
        return True

    def _mcp_restart(self) -> None:
        """Control reached the reset vector: the MCP re-initializes.

        All LANai-side protocol state is lost but the processor lives;
        Table 1 calls this outcome "MCP Restart".
        """
        self.stats["mcp_restarts"] += 1
        self.tracer.emit(self.sim.now, self.name, "mcp_restart")
        self.tx_streams.clear()
        self.rx_streams.clear()
        self.rx_frags.clear()
        self.ports.clear()
        self.doorbells.drain()
        self.host_requests = []
        self.nic.timers[0].set_us(C.L_TIMER_INTERVAL_US)

    # -- accounting helpers -----------------------------------------------------------

    def _charge(self, cost_us: float, label: str,
                bucket: Optional[str] = None) -> Generator:
        self.busy_time += cost_us
        if bucket == "send":
            self.send_busy_time += cost_us
        elif bucket == "recv":
            self.recv_busy_time += cost_us
        yield self.sim.timeout(cost_us)

    def _install_routes(self, table: Dict[int, List[int]]) -> None:
        reinstall = bool(self.routing_table) and self.running
        self.routing_table = dict(table)
        if self.on_routes_installed is not None:
            self.on_routes_installed(dict(table))
        self.tracer.emit(self.sim.now, self.name, "routes_installed",
                         count=len(table))
        if reinstall:
            # A mapper re-run replaced a live table (netfault reroute):
            # tell every open port so the library can replay in-flight
            # state over the new routes.  The boot-time first install
            # (empty previous table) announces nothing.
            self.tracer.emit(self.sim.now, self.name,
                             "route_change_announced", count=len(table))
            self.sim.spawn(self._announce_route_change(),
                           name="%s.routechg" % self.name)

    def _announce_route_change(self) -> Generator:
        for port_id in sorted(self.ports):
            port = self.ports.get(port_id)
            if port is None or not port.open:
                continue
            yield from self._post_event(GmEvent(
                EventType.ROUTE_CHANGED, port_id))

    def install_routes_from_host(self, table: Dict[int, List[int]]) -> None:
        """FTD recovery path: restore the routing table from host copy.

        Deliberately does *not* announce ROUTE_CHANGED — the card-reset
        flow posts FAULT_DETECTED instead, and the two recovery paths
        must stay distinguishable to the library.
        """
        self.routing_table = dict(table)
