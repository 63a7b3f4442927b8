"""Versioned, deterministic serialization of complete simulator state.

The ROADMAP's checkpoint/restart item, following Transparent
Checkpoint-Restart over InfiniBand (arXiv:1312.3938), calls for snapshot
-> disk -> resume of a whole simulated cluster.  CPython cannot
pickle live generator frames, so a snapshot here is a **logical
checkpoint**: the boot recipe (experiment + spec), the pause point, and
a canonical capture of every stateful layer's declared snapshot state,
sealed with a ``state_hash``.  Restore rebuilds the cluster from the
recipe, replays the deterministic prefix to the pause point, and proves
equivalence by re-capturing and comparing hashes — snapshot -> restore
-> snapshot is byte-identical by construction.  docs/CHECKPOINT.md
documents the format and every layer's contract.
"""

from .capture import capture_state, state_hash
from .snapshot import (
    Snapshot,
    SnapshotMismatch,
    load_snapshot,
    restore_and_step,
    restore_snapshot,
    take_snapshot,
    write_snapshot,
)

__all__ = [
    "capture_state",
    "state_hash",
    "Snapshot",
    "SnapshotMismatch",
    "take_snapshot",
    "write_snapshot",
    "load_snapshot",
    "restore_snapshot",
    "restore_and_step",
]
