"""The flight recorder: bounded per-run evidence, dumped on anomaly.

A 200-run campaign with one SLO breach should be post-mortem-debuggable
without rerunning anything.  The :class:`FlightRecorder` keeps a bounded
ring of the run's most recent trace records (plus counter deltas from
the sampler, when one is armed); when the engine classifies a run's
outcome as anomalous — SLO breach, deadlock/timeout outcome, or an
unexpected exception — the ring is dumped to disk together with a
``ckpt`` snapshot of the simulator at the anomaly instant, so the
failed run is both *readable* (the ring) and *time-travelable*
(``restore_flight_dump`` rebuilds the live instant with a verified
state hash).

Cost discipline matches ``Tracer``/``MetricsRegistry``: a disabled
recorder swaps ``record`` for a module-level no-op, and — stronger —
with the ``--flight-recorder`` intent unset nothing is ever
constructed or attached at all, so un-armed runs stay byte-identical
to pre-PR goldens.

Division of labour (determinism): the run's own process only collects
the ring and classifies the trigger; the *parent* engine process takes
the anomaly-instant snapshot afterwards via the standard
``ckpt.take_snapshot`` pause-replay (telemetry, sampling and the
recorder itself all off).  Dump creation and
:func:`restore_flight_dump` verification therefore run the identical
plain replay, which is exactly PR 9's already-proven hash round-trip.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..sim.trace import TraceRecord

__all__ = [
    "FLIGHT_VERSION",
    "RING_CAPACITY",
    "FlightRecorder",
    "classify_anomaly",
    "write_flight_dumps",
    "dump_exception",
    "load_flight_dump",
    "restore_flight_dump",
]

FLIGHT_VERSION = 1

#: Default ring depth; deep enough to span a recovery timeline, small
#: enough that an armed-but-healthy campaign stays cheap.
RING_CAPACITY = 512

_JSON_SCALARS = (int, float, str, bool, type(None))


def _noop_record(record) -> None:
    """Placeholder ``record`` installed while a recorder is disabled."""


def _safe_records(records) -> List[List[Any]]:
    """Ring records as JSON rows ``[time, source, kind, details]``."""
    out = []
    for r in records:
        details = {k: v if isinstance(v, _JSON_SCALARS) else repr(v)
                   for k, v in r.details.items()}
        out.append([r.time, r.source, r.kind, details])
    return out


class FlightRecorder:
    """A bounded ring of recent trace records for one run.

    ``attach`` wires it behind the cluster's tracer: with ``--trace``
    also on it rides the tracer's ``sink`` (the full record list stays
    intact for Chrome export); without it the tracer is enabled with
    the forced span kinds and the ring *is* its record store — same
    records, no duplication, bounded memory.
    """

    def __init__(self, capacity: int = RING_CAPACITY,
                 enabled: bool = True):
        self.ring: deque = deque(maxlen=capacity)
        self.end_at: Optional[float] = None
        self.enabled = enabled  # property: installs the right record

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        if self._enabled:
            # Restore the recording method (remove the instance shadow).
            self.__dict__.pop("record", None)
        else:
            self.__dict__["record"] = _noop_record

    def record(self, record: TraceRecord) -> None:
        self.ring.append(record)

    def note_counters(self, now: float, deltas: Dict[str, float]) -> None:
        """Fold one sampler tick's counter deltas into the ring."""
        self.record(TraceRecord(now, "flightrec", "counter_deltas",
                                dict(deltas)))

    def note_end(self, now: float) -> None:
        """Pin the run's final simulated instant (set by the harvest)."""
        self.end_at = now

    def attach(self, tracer) -> None:
        if tracer.enabled:
            prior = tracer.sink
            if prior is None:
                tracer.sink = self.record
            else:
                def chained(record, _prior=prior):
                    _prior(record)
                    self.record(record)
                tracer.sink = chained
            return
        from .spans import forced_trace_kinds
        tracer.kinds = forced_trace_kinds()
        tracer.records = self.ring
        tracer.enabled = True

    def report(self, reason: str) -> Dict[str, Any]:
        """The ring as a picklable/JSON-able trigger payload."""
        records = _safe_records(self.ring)
        at = self.end_at
        if at is None and records:
            at = records[-1][0]
        return {"reason": reason, "at_us": at, "records": records}


def classify_anomaly(outcome: Any,
                     exc: Optional[BaseException] = None) -> Optional[str]:
    """The trigger taxonomy: a reason string, or None for a clean run.

    * ``exception: ...`` — the run raised instead of returning.
    * ``slo-breach: <stages>`` — the outcome carries a failed
      ``SloVerdict`` (slo-chaos cells).
    * ``deadlock: <category>`` — the outcome reports
      ``workload_completed=False`` (netfault hangs/partitions, injected
      MCP wedges); the classifier's category names the shape.
    """
    if exc is not None:
        return "exception: %s: %s" % (type(exc).__name__, exc)
    verdict = getattr(outcome, "verdict", None)
    if verdict is not None and getattr(verdict, "passed", True) is False:
        try:
            stages = sorted({s.stage for s in verdict.failed_stages()})
        except AttributeError:   # a verdict without per-stage results
            stages = []
        return "slo-breach: %s" % (",".join(stages) or "unknown-stage")
    if getattr(outcome, "workload_completed", True) is False:
        category = getattr(outcome, "category", "") \
            or "workload never completed"
        return "deadlock: %s" % category
    return None


def write_flight_dumps(flight_dir: str, spec,
                       reports: List[Tuple[int, Dict[str, Any]]]
                       ) -> List[str]:
    """Parent-side dump writer: one ``.flight.json`` per triggered run.

    Each dump embeds a ``ckpt`` snapshot of the run at its anomaly
    instant, captured by the standard pause-replay — a snapshot that
    fails (or an anomaly before t=0) degrades to a ring-only dump with
    a ``snapshot_error`` note rather than losing the ring.
    """
    os.makedirs(flight_dir, exist_ok=True)
    from ..ckpt.snapshot import take_snapshot

    paths = []
    for index, payload in reports:
        doc: Dict[str, Any] = {
            "flight": FLIGHT_VERSION,
            "experiment": spec.experiment,
            "spec": spec.to_dict(),
            "run_index": index,
            "reason": payload.get("reason"),
            "at_us": payload.get("at_us"),
            "records": payload.get("records", []),
            "snapshot": None,
        }
        at = payload.get("at_us")
        if isinstance(at, (int, float)) and at > 0:
            try:
                doc["snapshot"] = take_snapshot(
                    spec, at, run_index=index).to_dict()
            except Exception as exc:  # ring still lands; note why
                doc["snapshot_error"] = "%s: %s" \
                    % (type(exc).__name__, exc)
        else:
            doc["snapshot_error"] = "no anomaly instant recorded"
        path = os.path.join(flight_dir, "%s-run%d.flight.json"
                            % (spec.experiment, index))
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def dump_exception(flight_dir: str, config: Any,
                   recorder: FlightRecorder,
                   exc: BaseException) -> str:
    """Child-side, best-effort ring dump when a run dies on an exception.

    The campaign is about to abort (the engine relays run exceptions),
    so there is no parent aggregation pass to hand the ring to — write
    it directly.  Ring-only: a run that raised has no classified end
    instant to snapshot.
    """
    os.makedirs(flight_dir, exist_ok=True)
    run_id = getattr(config, "run_id", None)
    path = os.path.join(flight_dir, "exception-run%s.flight.json"
                        % ("x" if run_id is None else run_id))
    doc = {
        "flight": FLIGHT_VERSION,
        "run_id": run_id,
        "reason": classify_anomaly(None, exc),
        "at_us": recorder.end_at,
        "records": _safe_records(recorder.ring),
        "snapshot": None,
        "snapshot_error": "run raised before completing",
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_flight_dump(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("flight") != FLIGHT_VERSION:
        raise ValueError("%s is not a flight dump (flight=%r, want %d)"
                         % (path, doc.get("flight"), FLIGHT_VERSION))
    return doc


def restore_flight_dump(dump: Any, verify: bool = True):
    """Time-travel into a dump: rebuild its anomaly instant, verified.

    ``dump`` is a path or a loaded dump document.  Returns the live
    :class:`repro.ckpt.PausedRun` at the anomaly instant; ``verify``
    (default) re-captures and compares the state hash exactly like
    ``restore_snapshot``.
    """
    doc = load_flight_dump(dump) if isinstance(dump, str) else dump
    snap_doc = doc.get("snapshot")
    if not snap_doc:
        raise ValueError(
            "flight dump for %s run %s carries no snapshot (%s)"
            % (doc.get("experiment"), doc.get("run_index"),
               doc.get("snapshot_error", "ring-only dump")))
    from ..ckpt.snapshot import Snapshot, restore_snapshot

    snapshot = Snapshot.from_dict(
        snap_doc, dump if isinstance(dump, str) else "flight dump")
    return restore_snapshot(snapshot, verify=verify)
