"""Fault injection: bit flips in the MCP code segment, campaigns,
outcome classification, and the naive-recovery baseline."""

from .campaign import (
    CampaignResult,
    EffectivenessResult,
    aggregate_effectiveness,
)
from .checkpoint import DEFAULT_STATE_BYTES, CheckpointDaemon
from .injector import InjectionConfig
from .naive import naive_reload
from .outcomes import CATEGORY_ORDER, Category, InjectionOutcome, classify
from .reference import (
    IYER_TABLE1,
    PAPER_HANGS,
    PAPER_TABLE1,
    PAPER_UNRECOVERED_HANGS,
)

__all__ = [
    "CATEGORY_ORDER",
    "CampaignResult",
    "Category",
    "CheckpointDaemon",
    "DEFAULT_STATE_BYTES",
    "EffectivenessResult",
    "IYER_TABLE1",
    "InjectionConfig",
    "InjectionOutcome",
    "PAPER_HANGS",
    "PAPER_TABLE1",
    "PAPER_UNRECOVERED_HANGS",
    "aggregate_effectiveness",
    "classify",
    "naive_reload",
]
