"""Measurement workloads: ping-pong, allsize streaming, utilization."""

from .allsize import BandwidthResult, run_allsize
from .pair import PairConfig, resume_pair, resume_point
from .pingpong import PingPongResult, run_pingpong
from .recovery import (
    RecoveryConfig,
    RecoveryExperiment,
    run_recovery_experiment,
)
from .utilization import UtilizationResult, measure_utilization

__all__ = [
    "BandwidthResult",
    "PairConfig",
    "PingPongResult",
    "RecoveryConfig",
    "RecoveryExperiment",
    "UtilizationResult",
    "measure_utilization",
    "resume_pair",
    "resume_point",
    "run_allsize",
    "run_pingpong",
    "run_recovery_experiment",
]
