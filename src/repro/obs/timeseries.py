"""Simulated-time series sampling: counter tracks at a fixed cadence.

The aggregate telemetry plane (harvest + registry) answers "how much,
in total"; this module answers "when".  A :class:`TimeSeriesSampler`
rides the cluster's own event wheel — a self-re-arming timer chain at
``every_us`` of *simulated* time, never wall clock — and snapshots the
registered hot-loop counters into equal-length per-metric tracks.  The
result is fully deterministic: same seed, same cadence, same tracks,
regardless of executor (in-process or fork-server).

Two deliberate disciplines keep sampling honest:

* **Nothing mutates.**  Reading a lazily-parked MCP must not wake it
  (``settle_idle`` replays the parked span *into* the counters, changing
  later folds), so parked nodes are sampled through
  ``Mcp.sample_stats`` — a read-only projection that calls the same
  tick-chain walk as ``_unpark``'s replay.
* **Off costs nothing.**  The sampler only exists when the engine's
  ``--sample-every`` intent is set (see ``repro.obs.runtime``); with it
  unset ``build_cluster`` installs nothing — no timer events, no
  sequence draws — and runs are byte-identical to pre-sampling goldens.

Tracks export two ways: the ``"timeseries"`` key of the result document
(``repro.exp.result/1``) and Chrome-trace ``'C'`` counter events
(:meth:`TimeSeriesSampler.counter_records`) that Perfetto renders as
counter plots alongside the existing spans.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..sim.trace import TraceRecord

__all__ = ["TIMESERIES_SCHEMA", "TimeSeriesSampler", "register_load_tracks"]

#: Schema tag of the result document's ``"timeseries"`` value.
TIMESERIES_SCHEMA = "repro.obs.timeseries/1"


class TimeSeriesSampler:
    """Samples registered counter readers at a simulated-time cadence.

    Sample instants are ``t0 + k * every_us`` (absolute-float timer
    arithmetic via ``timeout_at``, so cadence floats never drift), with
    ``t0`` the install time — 0.0 when installed by ``build_cluster``.
    The timer chain is live (never inert), which also pins the tickless
    idle fold: a parked fabric still stops at every sample instant, so
    sampled values are exact at-instant reads, not estimates.

    ``register`` adds a named track; readers are ``fn(now) -> number``
    and must be read-only.  Tracks registered mid-run (the load plane
    attaches when its run starts) are zero-backfilled so every track
    always spans all of ``times``.
    """

    def __init__(self, cluster, every_us: float, flight=None):
        if every_us <= 0:
            raise ValueError("sample cadence must be positive, got %r"
                             % (every_us,))
        self.cluster = cluster
        self.every_us = float(every_us)
        self.times: List[float] = []
        self.tracks: Dict[str, List[float]] = {}
        self._readers: List[tuple] = []      # (name, fn, track)
        self.flight = flight
        self._prev: Dict[str, float] = {}
        self._register_defaults(cluster)
        self._t0 = cluster.sim.now
        self._k = 0
        self._arm()

    def register(self, name: str, reader: Callable[[float], float]) -> None:
        """Add a track; past sample instants are backfilled with 0."""
        if name in self.tracks:
            raise ValueError("track %r already registered" % (name,))
        track: List[float] = [0] * len(self.times)
        self.tracks[name] = track
        self._readers.append((name, reader, track))

    # -- the timer chain -------------------------------------------------------

    def _arm(self) -> None:
        self._k += 1
        timer = self.cluster.sim.timeout_at(
            self._t0 + self._k * self.every_us)
        timer.callbacks.append(self._fire)

    def _fire(self, _event) -> None:
        # The scheduled instant is exact by construction; don't read a
        # clock.
        self._sample(self._t0 + self._k * self.every_us)
        self._arm()

    def _sample(self, now: float) -> None:
        self.times.append(now)
        flight = self.flight
        deltas: Optional[Dict[str, float]] = \
            {} if flight is not None else None
        for name, reader, track in self._readers:
            value = reader(now)
            track.append(value)
            if deltas is not None:
                prev = self._prev.get(name, 0)
                if value != prev:
                    deltas[name] = value - prev
                    self._prev[name] = value
        if deltas:
            flight.note_counters(now, deltas)

    # -- default tracks --------------------------------------------------------

    def _register_defaults(self, cluster) -> None:
        for node in cluster.nodes:
            label = "node%d" % node.node_id
            self.register("mcp.%s.l_timer_invocations" % label,
                          _mcp_reader(node, "l_timer_invocations"))
            self.register("mcp.%s.ticks_parked" % label,
                          _mcp_reader(node, "ticks_parked"))
            if getattr(node.driver.mcp, "watchdog_arms", None) is not None:
                self.register("mcp.%s.watchdog_arms" % label,
                              _mcp_reader(node, "watchdog_arms"))
        for key in ("link.packets_carried", "link.packets_corrupted",
                    "switch.forwarded"):
            self.register(key, _fabric_reader(cluster.fabric, key))

    # -- export ----------------------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        """One run's tracks as the JSON the result document embeds."""
        return {"every_us": self.every_us,
                "t": list(self.times),
                "tracks": {name: list(track)
                           for name, track in sorted(self.tracks.items())}}

    def counter_records(self) -> List[TraceRecord]:
        """The tracks as Chrome-trace ``'C'`` counter events.

        One event per (track, sample); Perfetto groups them into one
        counter track per metric name under the ``timeseries`` process.
        """
        records: List[TraceRecord] = []
        for name, track in sorted(self.tracks.items()):
            for t, value in zip(self.times, track):
                records.append(TraceRecord(t, "timeseries", name,
                                           {"_ph": "C", "value": value}))
        return records


def _mcp_reader(node, key: str) -> Callable[[float], float]:
    """Late-binding MCP counter reader (survives post-recovery reloads).

    Goes through ``sample_stats`` so a lazily-parked MCP reports what
    the always-ticking execution would show at ``now`` without waking.
    """
    def read(now: float) -> float:
        return node.driver.mcp.sample_stats(now).get(key, 0)
    return read


def _fabric_reader(fabric, key: str) -> Callable[[float], float]:
    def read(now: float) -> float:
        return fabric.sample_counters()[key]
    return read


def register_load_tracks(sampler: TimeSeriesSampler, result) -> None:
    """Attach live load-plane tracks to a run's sampler.

    ``result`` is the (still mutating) ``LoadRunResult`` of the run in
    flight; the readers fold its accounting at each sample instant, so
    the tracks show acceptance, delivery and availability *during* the
    fault window — the curve the end-of-run verdict can't.
    """
    def accepted(now: float) -> int:
        return sum(1 for ok in result.accepted.values() if ok)

    def availability(now: float) -> float:
        took = accepted(now)
        if took == 0:
            return 1.0
        return len(result.first_delivery) / took

    sampler.register("load.accepted", accepted)
    sampler.register("load.rejected", lambda now: result.rejected)
    sampler.register("load.delivered",
                     lambda now: len(result.first_delivery))
    sampler.register("load.availability", availability)
