"""Snapshot files: versioned logical checkpoints of a paused run.

A snapshot file (format v2) is canonical JSON holding the boot recipe
(experiment name + full spec), the run index within the expanded spec,
the pause instant, and the complete per-layer state capture sealed with
its ``state_hash``::

    {"snapshot": 2, "experiment": ..., "spec": {...}, "run_index": N,
     "at_us": t, "capture": {"state": ..., "state_hash": ...}}

Nothing in the file depends on wall-clock time or the writing process,
so snapshot -> restore -> snapshot reproduces the file byte for byte.
Restore rebuilds the cluster from the recipe, replays the deterministic
prefix to ``at_us``, re-captures, and refuses (:class:`SnapshotMismatch`)
if the hashes differ — which is exactly what makes a snapshot safe to
ship to another machine: the receiving side proves it reconstructed the
same simulated instant before trusting it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Union

from .capture import canonical_json
from .pause import PausedRun

__all__ = [
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotMismatch",
    "take_snapshot",
    "write_snapshot",
    "load_snapshot",
    "restore_snapshot",
    "restore_and_step",
]

SNAPSHOT_VERSION = 2


class SnapshotMismatch(ValueError):
    """A snapshot does not match what this tree reconstructs."""


@dataclass
class Snapshot:
    """One logical checkpoint; see module docstring for the file form."""

    experiment: str
    spec: Dict[str, Any]
    run_index: int
    at_us: float
    capture: Dict[str, Any]

    @property
    def state_hash(self) -> str:
        return self.capture["state_hash"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot": SNAPSHOT_VERSION,
            "experiment": self.experiment,
            "spec": self.spec,
            "run_index": self.run_index,
            "at_us": self.at_us,
            "capture": self.capture,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], source: str) -> "Snapshot":
        """Inverse of :meth:`to_dict`; refuses any other format version."""
        if data.get("snapshot") != SNAPSHOT_VERSION:
            raise SnapshotMismatch(
                "%s has snapshot version %r, want %d"
                % (source, data.get("snapshot"), SNAPSHOT_VERSION))
        return cls(experiment=data["experiment"], spec=data["spec"],
                   run_index=data["run_index"], at_us=data["at_us"],
                   capture=data["capture"])


def _pause_run(spec, run_index: int, at_us: float) -> PausedRun:
    """Boot the run's family and replay its prefix to ``at_us``."""
    from ..exp.registry import get_experiment

    experiment = get_experiment(spec.experiment)
    configs = experiment.expand(spec)
    if not 0 <= run_index < len(configs):
        raise SnapshotMismatch(
            "run index %d outside the spec's %d runs"
            % (run_index, len(configs)))
    config = configs[run_index]
    return experiment.resume(experiment.boot(config), config,
                             pause_at=at_us)


def take_snapshot(spec, at_us: float, run_index: int = 0) -> Snapshot:
    """Capture run ``run_index`` of ``spec`` at simulated time ``at_us``."""
    paused = _pause_run(spec, run_index, at_us)
    return Snapshot(experiment=spec.experiment, spec=spec.to_dict(),
                    run_index=run_index, at_us=paused.now,
                    capture=paused.capture())


def write_snapshot(snapshot: Snapshot, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(snapshot.to_dict()) + "\n")


def load_snapshot(path: str) -> Snapshot:
    with open(path) as fh:
        return Snapshot.from_dict(json.load(fh), path)


def _spec_of(snapshot: Snapshot):
    from ..exp.spec import ExperimentSpec

    return ExperimentSpec.from_dict(snapshot.spec)


def restore_snapshot(snapshot: Union[Snapshot, str],
                     verify: bool = True) -> PausedRun:
    """Rebuild the snapshot's simulated instant; verify the state hash.

    Returns the live :class:`PausedRun`.  With ``verify`` (the default)
    the restored instant is re-captured and its ``state_hash`` compared
    against the snapshot's — a mismatch means the tree, spec, or replay
    no longer reproduces the checkpointed state, and restoring would
    silently diverge.
    """
    if isinstance(snapshot, str):
        snapshot = load_snapshot(snapshot)
    spec = _spec_of(snapshot)
    paused = _pause_run(spec, snapshot.run_index, snapshot.at_us)
    if verify:
        capture = paused.capture()
        if capture["state_hash"] != snapshot.state_hash:
            raise SnapshotMismatch(
                "restored state hash %s != snapshot %s — the replay no "
                "longer reproduces the checkpointed instant"
                % (capture["state_hash"], snapshot.state_hash))
    return paused


def restore_and_step(snapshot: Union[Snapshot, str],
                     step_us: float = 0.0,
                     verify: bool = True) -> PausedRun:
    """Time-travel entry point: restore, then advance ``step_us``.

    The returned :class:`PausedRun` is live — inspect the cluster, step
    again, or ``finish()`` it to get the run's classified outcome
    without ever re-running the prefix from zero.
    """
    paused = restore_snapshot(snapshot, verify=verify)
    if step_us > 0:
        paused.step(step_us)
    return paused
