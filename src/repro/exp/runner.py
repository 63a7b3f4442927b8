"""The one deterministic fan-out every campaign, study and sweep uses.

:func:`run_many` owns the fan-out every campaign used to carry
privately: every config runs hermetically (its own ``Simulator``, its
own seed), outcomes come back ordered by config index, and progress is
reported as **monotonic completed-count ticks** — ``1, 2, ..., N``
exactly once each — under ``workers=1`` and ``workers>1`` alike.
There is one multi-process mechanism, the **fork-server**: a server
process boots once per scenario family and each run is an ``os.fork()``
copy-on-write child.  An experiment handed a :class:`ForkBoot` (a
seed-independent shared boot prefix plus a per-run resume) amortizes
identical cluster bring-up across hundreds of runs that way; a plain
runner rides the same server through a null boot.  Either is
byte-identical to running every config in-process.

:func:`run_experiment` drives a whole declarative experiment: expand the
spec through its registry entry, fan the configs out, journal each
outcome as it completes (when given a journal path), aggregate, render,
and stamp a :class:`~repro.exp.results.RunManifest`.  A campaign killed
mid-flight resumes from its journal: re-invoking the same spec with the
same journal path skips the already-completed runs and finishes with
results byte-identical to an uninterrupted run.

Journal format (JSON lines)::

    {"journal": 1, "experiment": ..., "spec_hash": ..., "total": N}
    {"run": 0, "outcome": {...}}
    {"run": 3, "outcome": {...}}        # completion order, not run order

A torn final line (the process died mid-write) is ignored on load; a
header whose ``spec_hash`` does not match the spec being resumed raises
:class:`JournalMismatch` rather than silently mixing configurations.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import selectors
import signal
import struct
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from .results import ExperimentResult, RunManifest, encode_outcome
from .spec import ExperimentSpec

__all__ = [
    "derive_run_seed",
    "run_many",
    "run_experiment",
    "ForkBoot",
    "forkserver_available",
    "Journal",
    "JournalMismatch",
]

JOURNAL_VERSION = 1


def derive_run_seed(base_seed: int, run_id: int) -> int:
    """Per-run seed derivation: stable, collision-free, and identical to
    what the historic campaigns used, so same-seed results stay
    byte-identical across the refactor."""
    return base_seed + run_id


class JournalMismatch(ValueError):
    """The journal on disk belongs to a different spec."""


class Journal:
    """Append-only outcome journal backing resumable campaigns."""

    def __init__(self, path: str, spec: ExperimentSpec, total: int):
        self.path = path
        self.spec = spec
        self.total = total

    def load(self) -> Dict[int, Any]:
        """Encoded outcomes by run index; ``{}`` if no journal yet."""
        if not os.path.exists(self.path):
            return {}
        completed: Dict[int, Any] = {}
        with open(self.path) as fh:
            lines = fh.read().splitlines()
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except ValueError:
            raise JournalMismatch("journal %s has an unreadable header"
                                  % self.path)
        if header.get("journal") != JOURNAL_VERSION:
            raise JournalMismatch("journal %s has version %r, want %d"
                                  % (self.path, header.get("journal"),
                                     JOURNAL_VERSION))
        if header.get("spec_hash") != self.spec.spec_hash:
            raise JournalMismatch(
                "journal %s was written by spec %s; resuming spec %s "
                "would mix configurations — delete the journal or rerun "
                "the original spec"
                % (self.path, header.get("spec_hash"), self.spec.spec_hash))
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except ValueError:
                continue        # torn tail from a mid-write kill
            index = entry.get("run")
            if isinstance(index, int) and 0 <= index < self.total \
                    and "outcome" in entry:
                completed[index] = entry["outcome"]
        return completed

    def append(self, index: int, encoded_outcome: Any) -> None:
        new = not os.path.exists(self.path) \
            or os.path.getsize(self.path) == 0
        with open(self.path, "a") as fh:
            if new:
                fh.write(json.dumps({
                    "journal": JOURNAL_VERSION,
                    "experiment": self.spec.experiment,
                    "spec_hash": self.spec.spec_hash,
                    "total": self.total,
                }, sort_keys=True) + "\n")
            fh.write(json.dumps({"run": index,
                                 "outcome": encoded_outcome},
                                sort_keys=True) + "\n")
            fh.flush()


# -- telemetry wrapping --------------------------------------------------------
#
# When the CLI asks for metrics (`repro metrics`) or per-run traces
# (`--trace`), run_experiment swaps the registered run_one/resume for
# :func:`_telemetry_scope` via functools.partial — run_many itself is
# untouched, and with telemetry off no wrapper exists at all, so the hot
# path is byte-for-byte the pre-telemetry code.


class _TelemetryEnvelope:
    """A run's outcome plus its telemetry sidecar.

    Picklable (it crosses the fork-server pipes) and unambiguous: no
    experiment outcome is an instance of this class, so unwrapping is a
    plain isinstance check.  Journal-resumed outcomes
    are *not* enveloped — their runs were computed in an earlier
    process, so their telemetry is absent by construction.
    """

    __slots__ = ("outcome", "snapshot", "trace", "timeseries", "flight")

    def __init__(self, outcome: Any, snapshot: Any, trace: Any,
                 timeseries: Any, flight: Any):
        self.outcome = outcome
        self.snapshot = snapshot
        self.trace = trace
        self.timeseries = timeseries
        self.flight = flight


def _unwrap_outcome(outcome: Any) -> Any:
    if isinstance(outcome, _TelemetryEnvelope):
        return outcome.outcome
    return outcome


def _flight_payload(flight_dir: Optional[str],
                    outcome: Any) -> Optional[Dict[str, Any]]:
    """Classify the finished run; a triggered ring report or None.

    Runs in the run's own process (in-process or forked child), where
    the ring and the outcome both live; the parent takes the
    anomaly-instant snapshot later, from the report's ``at_us``.
    """
    if flight_dir is None:
        return None
    from ..obs import runtime as obs_runtime
    from ..obs.flightrec import classify_anomaly

    recorder = obs_runtime.active_flight()
    if recorder is None:
        return None
    reason = classify_anomaly(outcome)
    if reason is None:
        return None
    return recorder.report(reason)


def _flight_exception(flight_dir: Optional[str], config: Any,
                      exc: BaseException) -> None:
    """Best-effort ring dump for a run that raised (child side)."""
    if flight_dir is None:
        return
    from ..obs import runtime as obs_runtime
    from ..obs.flightrec import dump_exception

    recorder = obs_runtime.active_flight()
    if recorder is None:
        return
    try:
        dump_exception(flight_dir, config, recorder, exc)
    except OSError:
        pass


def _telemetry_scope(fn: Callable[..., Any], metrics: bool, tracing: bool,
                     sample_every: Optional[float],
                     flight_dir: Optional[str],
                     *args: Any) -> "_TelemetryEnvelope":
    """``fn(*args)`` bracketed by a per-run telemetry scope.

    ``args`` is ``(config,)`` for a ``run_one`` and ``(state, config)``
    for a fork-server ``resume``.
    """
    from ..obs import runtime as obs_runtime

    obs_runtime.configure(metrics=metrics, tracing=tracing,
                          sample_every=sample_every, flight_dir=flight_dir)
    obs_runtime.begin_run()
    try:
        outcome = fn(*args)
    except BaseException as exc:
        _flight_exception(flight_dir, args[-1], exc)
        raise
    return _TelemetryEnvelope(outcome, obs_runtime.collect(),
                              obs_runtime.take_trace(),
                              obs_runtime.take_timeseries(),
                              _flight_payload(flight_dir, outcome))


# -- fork-server execution -----------------------------------------------------


@dataclass
class ForkBoot:
    """The forkable shared prefix of an experiment's runs.

    Every run of a scenario family performs an identical, seed-independent
    boot (cluster build, MCP load, port bring-up) before anything
    seed-dependent happens.  A fork-server boots that prefix **once** per
    family and ``os.fork()``\\ s a copy-on-write child per run; the child
    seeds its per-run RNG from its own config and finishes the run.  For
    this to be byte-identical to a boot per run, ``boot`` must depend only
    on the family key — never on the per-run seed — and must not consume
    any per-run randomness or simulation ids.

    ``family(config)`` maps a config to the hashable key naming its boot.
    ``boot(config)`` builds the shared state (run in the server process).
    ``resume(state, config)`` completes one run (run in a forked child).
    """

    family: Callable[[Any], Any]
    boot: Callable[[Any], Any]
    resume: Callable[[Any, Any], Any]


def forkserver_available() -> bool:
    """True where the fork-server can run: any platform with ``os.fork``."""
    return hasattr(os, "fork")


def _null_boot(runner: Callable[[Any], Any]) -> ForkBoot:
    """The fork-server contract for a runner with no shared prefix.

    ``run_one ≡ resume(boot(c), c)`` holds trivially with an empty boot,
    so a plain runner fans out over the same fork-server as a split one.
    """
    return ForkBoot(family=lambda config: 0,
                    boot=lambda config: None,
                    resume=lambda _state, config: runner(config))


def _write_frame(fd: int, obj: Any) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    os.write(fd, struct.pack("!I", len(payload)) + payload)


def _read_exact(fd: int, n: int) -> bytes:
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            raise EOFError("fork-server pipe closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_frame(fd: int) -> Optional[Any]:
    """Next frame from ``fd``, or None on a clean EOF.

    EOF is clean only between frames; a pipe that closes after 1-3
    header bytes, or inside the payload, raises :class:`EOFError`.
    """
    header = os.read(fd, 4)
    if not header:
        return None
    if len(header) < 4:
        header += _read_exact(fd, 4 - len(header))
    (length,) = struct.unpack("!I", header)
    return pickle.loads(_read_exact(fd, length))


def _is_whole_frame(data: bytes) -> bool:
    return len(data) >= 4 \
        and len(data) == 4 + struct.unpack("!I", data[:4])[0]


def _describe_exit(status: int) -> str:
    """A ``waitpid`` status as ``signal N`` or ``exit status N``."""
    if os.WIFSIGNALED(status):
        return "signal %d" % os.WTERMSIG(status)
    return "exit status %d" % os.WEXITSTATUS(status)


def _child_run(fork_boot: ForkBoot, state: Any, index: int, config: Any,
               out_fd: int) -> None:
    """Forked child: finish one run, ship the outcome, exit hard.

    ``os._exit`` skips atexit/GC teardown that belongs to the server —
    the child's only side effect must be the frame it writes.
    """
    try:
        outcome = fork_boot.resume(state, config)
        frame = (index, "ok", outcome)
    except BaseException as exc:  # noqa: BLE001 — relayed to the parent
        frame = (index, "err", "%s: %s" % (type(exc).__name__, exc))
    try:
        _write_frame(out_fd, frame)
    finally:
        os.close(out_fd)
        os._exit(0)


def _serve_family(items: List, fork_boot: ForkBoot, workers: int,
                  result_fd: int) -> None:
    """Fork-server body: boot once, fork one child per pending run.

    Children write to per-run pipes; the server relays completed frames
    to the parent in completion order.  Up to ``workers`` children run
    concurrently.  A child that exits without a whole frame (killed,
    crashed in the interpreter) is reported under its run index with its
    ``waitpid`` status, so the campaign error says which run was lost.
    """
    state = fork_boot.boot(items[0][1])
    sel = selectors.DefaultSelector()
    buffers: Dict[int, List[bytes]] = {}
    runs: Dict[int, tuple] = {}         # read fd -> (pid, run index)
    queue = list(items)

    def launch(index: int, config: Any) -> None:
        r_fd, w_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            sel.close()
            os.close(r_fd)
            os.close(result_fd)
            _child_run(fork_boot, state, index, config, w_fd)
        os.close(w_fd)
        buffers[r_fd] = []
        runs[r_fd] = (pid, index)
        sel.register(r_fd, selectors.EVENT_READ)

    def reap(r_fd: int) -> None:
        sel.unregister(r_fd)
        os.close(r_fd)
        pid, index = runs.pop(r_fd)
        _, status = os.waitpid(pid, 0)
        data = b"".join(buffers.pop(r_fd))
        if _is_whole_frame(data):
            os.write(result_fd, data)
        else:
            _write_frame(result_fd, (
                index, "err", "run %d died (%s) without reporting an "
                "outcome" % (index, _describe_exit(status))))

    try:
        while queue or runs:
            while queue and len(runs) < max(1, workers):
                launch(*queue.pop(0))
            for key, _events in sel.select():
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    buffers[key.fd].append(chunk)
                else:
                    reap(key.fd)
    finally:
        # Only non-empty when the relay itself failed (the parent gave
        # up on an error frame and closed the pipe): leave no orphans.
        for pid, _index in runs.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        sel.close()


def _run_forkserver(pending: List, fork_boot: ForkBoot, workers: int,
                    record: Callable[[int, Any], None]) -> None:
    """Group pending runs by boot family; one fork-server per family."""
    families: Dict[Any, List] = {}
    for index, config in pending:
        families.setdefault(fork_boot.family(config),
                            []).append((index, config))
    for items in families.values():
        r_fd, w_fd = os.pipe()
        server_pid = os.fork()
        if server_pid == 0:
            status = 1
            try:
                os.close(r_fd)
                _serve_family(items, fork_boot, workers, w_fd)
                status = 0
            finally:
                os.close(w_fd)
                os._exit(status)
        os.close(w_fd)
        got = 0
        try:
            while True:
                frame = _read_frame(r_fd)
                if frame is None:
                    break
                index, tag, payload = frame
                if tag != "ok":
                    raise RuntimeError("fork-server run %d failed: %s"
                                       % (index, payload))
                record(index, payload)
                got += 1
        finally:
            os.close(r_fd)
            _, server_status = os.waitpid(server_pid, 0)
        if got != len(items):
            raise RuntimeError(
                "fork-server family returned %d of %d outcomes (server %s)"
                % (got, len(items), _describe_exit(server_status)))


def run_many(configs: Sequence[Any], runner: Callable[[Any], Any], *,
             workers: int = 1,
             progress: Optional[Callable[[int], None]] = None,
             completed: Optional[Dict[int, Any]] = None,
             on_outcome: Optional[Callable[[int, Any], None]] = None,
             fork_boot: Optional[ForkBoot] = None
             ) -> List[Any]:
    """Run every config through ``runner``; outcomes in config order.

    Forked children inherit ``runner``, so it need not pickle; its
    outcomes cross a pipe and must.  ``completed`` maps config indices
    to already-known outcomes (a resumed journal); those configs are
    skipped.  ``on_outcome(index, outcome)`` fires in completion order
    for each *newly computed* outcome, before the progress tick for that
    run — so a journal line always lands before the tick that announces
    it.  ``progress(done)`` receives monotonic counts
    ``len(completed)+1 .. len(configs)`` on either executor.

    ``fork_boot`` describes the experiment's shared boot prefix, if it
    registered one and the caller wants it used.  The executor is chosen
    from ``workers`` and ``fork_boot`` alone; outcomes are byte-identical
    either way:

    ===========  ==============  =========================================
    ``workers``  ``fork_boot``   executor
    ===========  ==============  =========================================
    1            None            in-process serial loop
    1            given           fork-server, 1 child at a time
    N > 1        None            fork-server through a null boot, N children
    N > 1        given           fork-server, N children
    ===========  ==============  =========================================

    A fork-server run that raises, or whose child dies, surfaces as a
    :class:`RuntimeError` naming the run index.  On a platform without
    ``os.fork`` every row runs in-process, with one note on stderr.
    """
    completed = dict(completed or {})
    outcomes: List[Any] = [None] * len(configs)
    for index, outcome in completed.items():
        outcomes[index] = outcome
    pending = [(index, config) for index, config in enumerate(configs)
               if index not in completed]
    done = len(configs) - len(pending)

    def record(index: int, outcome: Any) -> None:
        nonlocal done
        outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(index, outcome)
        done += 1
        if progress is not None:
            progress(done)

    if not pending:
        return outcomes
    if fork_boot is not None or workers > 1:
        if forkserver_available():
            _run_forkserver(pending, fork_boot or _null_boot(runner),
                            workers, record)
            return outcomes
        print("repro: no os.fork on this platform; running %d runs "
              "in-process serially" % len(pending), file=sys.stderr)
    # A finished run's cluster is one big reference cycle.  Reap it
    # before the next run builds its own, or dead clusters set the
    # peak RSS; freezing what already lives keeps each collection
    # proportional to the run just finished.
    gc.freeze()
    try:
        for index, config in pending:
            record(index, runner(config))
            gc.collect()
    finally:
        gc.unfreeze()
    return outcomes


def run_experiment(spec: ExperimentSpec, *, workers: int = 1,
                   progress: Optional[Callable[[int], None]] = None,
                   journal_path: Optional[str] = None,
                   forkserver: bool = True,
                   telemetry: bool = False,
                   trace: bool = False,
                   sample_every: Optional[float] = None,
                   flight_dir: Optional[str] = None,
                   from_snapshot: Optional[str] = None) -> ExperimentResult:
    """Expand, fan out, (optionally) journal, aggregate and render.

    With ``journal_path``, every completed run is appended to the
    journal as it finishes and an existing journal for the same spec is
    resumed — the combined result is byte-identical to a single
    uninterrupted run.  The journal file is left in place on completion
    so a finished campaign re-invokes as a pure cache hit.

    Cluster size picks the executor, once per spec: with ``workers > 1``
    or any config's ``cluster.n_nodes`` at or above
    :data:`~repro.cluster.LAZY_AUTO_THRESHOLD`, the experiment's boot and
    ``resume`` go to :func:`run_many` as the ``fork_boot`` (one shared
    boot per family on the fork-server); otherwise every run boots its
    own cluster in-process, which is faster and lighter for the small
    clusters.  ``forkserver=False`` withholds the ``fork_boot`` always
    (see the table there).

    ``telemetry`` collects a per-run :class:`MetricsSnapshot` and merges
    them (deterministically — the merge is commutative and runs fold in
    config order) onto the result; ``trace`` captures each run's trace
    records for Chrome-trace export.  Both leave the experiment outcomes
    byte-identical to a plain run; journal-resumed runs carry no
    telemetry (they were computed in an earlier process).

    ``sample_every`` (µs of simulated time) arms the continuous
    sampler: every run's clusters carry a :class:`TimeSeriesSampler`
    and the result grows a ``"timeseries"`` key with one track document
    per run, assembled in config order so in-process and fork-server
    execution produce identical documents.  ``flight_dir`` arms
    the flight recorder: anomalous runs (SLO breach, deadlock outcome,
    exception) dump their trace ring plus an anomaly-instant ``ckpt``
    snapshot into that directory; the written paths land on
    ``result.flight_dumps`` (never in the serialized doc).  Both follow
    the telemetry discipline — outcomes stay byte-identical.

    ``from_snapshot`` restores a snapshot file (``repro snapshot``)
    whose spec must match, finishes the checkpointed run from its
    restored instant, and computes the remaining runs normally — the
    combined result is byte-identical to a cold-boot campaign.
    """
    from ..cluster import LAZY_AUTO_THRESHOLD
    from .registry import get_experiment

    experiment = get_experiment(spec.experiment)
    configs = experiment.expand(spec)
    telemetry_on = telemetry or trace \
        or sample_every is not None or flight_dir is not None
    runner = experiment.run_one
    resume = experiment.resume
    if telemetry_on:
        runner = partial(_telemetry_scope, experiment.run_one,
                         telemetry, trace, sample_every, flight_dir)
        resume = partial(_telemetry_scope, experiment.resume,
                         telemetry, trace, sample_every, flight_dir)
    fork_boot = None
    if forkserver and (workers > 1 or any(
            config.cluster.n_nodes >= LAZY_AUTO_THRESHOLD
            for config in configs)):
        fork_boot = ForkBoot(family=experiment.boot_family,
                             boot=experiment.boot, resume=resume)
    completed: Dict[int, Any] = {}
    journal: Optional[Journal] = None
    if journal_path is not None:
        journal = Journal(journal_path, spec, total=len(configs))
        decode = experiment.decode or (lambda value: value)
        completed = {index: decode(encoded)
                     for index, encoded in journal.load().items()}
    if from_snapshot is not None:
        from ..ckpt import SnapshotMismatch, load_snapshot, restore_snapshot

        snap = load_snapshot(from_snapshot)
        if ExperimentSpec.from_dict(snap.spec).spec_hash != spec.spec_hash:
            raise SnapshotMismatch(
                "snapshot %s pins spec %s; running spec %s from it would "
                "mix configurations" % (from_snapshot,
                                        ExperimentSpec.from_dict(
                                            snap.spec).spec_hash,
                                        spec.spec_hash))
        if snap.run_index not in completed:
            completed[snap.run_index] = restore_snapshot(snap).finish()
    on_outcome = None
    if journal is not None:
        def on_outcome(index: int, outcome: Any) -> None:
            journal.append(index, encode_outcome(_unwrap_outcome(outcome)))
    started = time.perf_counter()
    if telemetry_on:
        # Fork-server servers boot clusters *before* the per-run resume
        # wrapper runs, and build_cluster consults the runtime flags to
        # install the forced tracer — so the parent sets the flags now
        # and the servers inherit them through fork.
        from ..obs import runtime as obs_runtime
        obs_runtime.configure(metrics=telemetry, tracing=trace,
                              sample_every=sample_every,
                              flight_dir=flight_dir)
    try:
        outcomes = run_many(configs, runner, workers=workers,
                            progress=progress, completed=completed,
                            on_outcome=on_outcome, fork_boot=fork_boot)
    finally:
        if telemetry_on:
            obs_runtime.reset()
    wall = time.perf_counter() - started
    snapshot = None
    traces: Optional[List] = None
    timeseries = None
    flight_dumps: List[str] = []
    if telemetry_on:
        snapshots = []
        traces = []
        unwrapped = []
        series_runs = []
        flight_reports = []
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, _TelemetryEnvelope):
                if outcome.snapshot is not None:
                    snapshots.append(outcome.snapshot)
                if outcome.trace is not None:
                    traces.append((index, outcome.trace))
                if outcome.timeseries is not None:
                    series_runs.append([index, outcome.timeseries])
                if outcome.flight is not None:
                    flight_reports.append((index, outcome.flight))
                unwrapped.append(outcome.outcome)
            else:       # resumed from a journal: plain outcome
                unwrapped.append(outcome)
        outcomes = unwrapped
        if telemetry:
            from ..obs.metrics import MetricsSnapshot
            snapshot = MetricsSnapshot.merged(snapshots)
        if series_runs:
            # Enumeration above walks config order, so the document is
            # identical whichever executor (or completion order)
            # produced the envelopes.
            from ..obs.timeseries import TIMESERIES_SCHEMA
            timeseries = {"schema": TIMESERIES_SCHEMA,
                          "sample_every_us": float(sample_every),
                          "runs": series_runs}
        if flight_reports:
            # The runtime was reset in the finally above, so these
            # replays run exactly like restore_flight_dump's — plain
            # telemetry-off executions to the anomaly instant.
            from ..obs.flightrec import write_flight_dumps
            flight_dumps = write_flight_dumps(flight_dir, spec,
                                              flight_reports)
    aggregate = experiment.aggregate(spec, outcomes)
    rendered = experiment.render(aggregate)
    summary = experiment.summarize(aggregate) \
        if experiment.summarize is not None else None
    manifest = RunManifest.collect(spec.spec_hash, spec.seed, wall)
    return ExperimentResult(spec=spec, manifest=manifest,
                            outcomes=outcomes, rendered=rendered,
                            summary=summary, telemetry=snapshot,
                            traces=traces, timeseries=timeseries,
                            flight_dumps=flight_dumps)
