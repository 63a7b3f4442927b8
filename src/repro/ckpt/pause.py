"""Paused runs: the live handle behind snapshots and time-travel debug.

A resume function invoked with ``pause_at=<t_us>`` drives its workload
up to simulated time ``t`` and hands back a :class:`PausedRun` instead
of an outcome: the cluster is live, every process is parked exactly
where the event wheel left it, and the caller can inspect state, step
the clock forward, capture a snapshot, or finish the run.  This is the
"re-enter a failed run just before the fault" workflow from
docs/CHECKPOINT.md — no re-run from zero.  :func:`drive_run` is the one
drive loop every experiment's resume ends in, paused or not.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .capture import capture_state

__all__ = ["PausedRun", "drive_run", "map_outcome"]


class PausedRun:
    """A run paused mid-flight at a simulated instant.

    ``extras`` carries the run-scoped stateful objects that live outside
    the cluster (the netfaults plane, armed detectors) so captures see
    them; ``finish()`` resumes the run's own drive loop and returns the
    classified outcome.
    """

    def __init__(self, cluster, extras: Optional[Dict[str, Any]],
                 finish: Callable[[], Any]):
        self.cluster = cluster
        self.extras = extras or {}
        self._finish = finish
        self.finished = False

    @property
    def now(self) -> float:
        return self.cluster.sim.now

    def step(self, dt_us: float) -> float:
        """Advance the simulation by ``dt_us``; returns the new clock."""
        return self.run_until(self.cluster.sim.now + dt_us)

    def run_until(self, at_us: float) -> float:
        """Advance the simulation to absolute time ``at_us``."""
        if self.finished:
            raise RuntimeError("run already finished")
        self.cluster.sim.run(until=at_us)
        return self.cluster.sim.now

    def capture(self) -> Dict[str, Any]:
        """Canonical state capture of this instant (see ckpt.capture)."""
        return capture_state(self.cluster, self.extras)

    def finish(self) -> Any:
        """Drive the run to completion and classify; returns the outcome."""
        if self.finished:
            raise RuntimeError("run already finished")
        self.finished = True
        return self._finish()


def drive_run(cluster, finish: Callable[[], Any], *,
              horizon: float, slice_us: float,
              done: Optional[Callable[[], bool]] = None,
              pause_at: Optional[float] = None,
              extras: Optional[Dict[str, Any]] = None) -> Any:
    """Drive a started run to ``horizon``, then return ``finish()``.

    The simulator advances in slices through ``run()``'s inlined event
    loop, each from the next pending event to ``slice_us`` past it, and
    stops early once ``done()`` is true.  ``done`` is polled once per
    slice, not once per event: every outcome field is frozen by the time
    it turns true, so observing up to a slice past that instant
    classifies identically.  The slice fixes every ``run(until=...)``
    boundary, so a caller keeps its slice to keep its outcomes.

    With ``pause_at`` the run stops at that instant instead (never past
    ``horizon``) and a :class:`PausedRun` comes back whose ``finish()``
    drives the rest of the way and returns ``finish()``.
    """
    sim = cluster.sim

    def advance(limit: float) -> None:
        while done is None or not done():
            next_at = sim.peek()
            if next_at > limit:
                break
            sim.run(until=min(next_at + slice_us, limit))

    def complete() -> Any:
        advance(horizon)
        return finish()

    if pause_at is None:
        return complete()
    limit = min(pause_at, horizon)
    advance(limit)
    sim.run(until=limit)
    return PausedRun(cluster, extras, complete)


def map_outcome(run: Any, fn: Callable[[Any], Any]) -> Any:
    """``fn`` of a driven run's outcome; a :class:`PausedRun` comes back
    paused, and its ``finish()`` returns ``fn`` of the outcome."""
    if not isinstance(run, PausedRun):
        return fn(run)
    finish = run._finish
    run._finish = lambda: fn(finish())
    return run
