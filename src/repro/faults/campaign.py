"""Fault-injection campaign aggregates: Table 1 and the §5.2 study.

The campaigns themselves are the registered ``table1``,
``effectiveness`` and ``surface`` experiments (``repro run table1``):
every run builds its own simulator from its own seed, so the engine
fans them out over :func:`repro.exp.runner.run_experiment` and a
parallel campaign is byte-identical to a serial one.  This module
folds their outcome lists into the tables the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .outcomes import CATEGORY_ORDER, InjectionOutcome, tabulate
from .reference import IYER_TABLE1, PAPER_TABLE1

__all__ = ["CampaignResult", "EffectivenessResult",
           "aggregate_effectiveness"]


@dataclass
class CampaignResult:
    """Aggregate of one Table 1 style campaign."""

    runs: int
    outcomes: List[InjectionOutcome]
    counts: Dict[str, int] = field(init=False)

    def __post_init__(self):
        self.counts = tabulate(self.outcomes)

    def percentage(self, category: str) -> float:
        return 100.0 * self.counts[category] / self.runs if self.runs else 0.0

    def rows(self) -> List[tuple]:
        """(category, ours %, paper %, Iyer %) rows in Table 1 order."""
        return [(category, self.percentage(category),
                 PAPER_TABLE1[category], IYER_TABLE1[category])
                for category in CATEGORY_ORDER]

    def render(self) -> str:
        lines = [
            "Table 1. Results of fault injection on a Myrinet system "
            "(%d runs)" % self.runs,
            "%-24s %10s %10s %12s" % ("Failure Category", "measured",
                                      "paper", "Iyer et al."),
        ]
        for category, measured, paper, iyer in self.rows():
            lines.append("%-24s %9.1f%% %9.1f%% %11.1f%%"
                         % (category, measured, paper, iyer))
        return "\n".join(lines)


@dataclass
class EffectivenessResult:
    """§5.2: detection and recovery coverage over the hang population."""

    runs: int
    hangs: int
    detected: int
    recovered: int

    @property
    def detection_rate(self) -> float:
        return self.detected / self.hangs if self.hangs else 1.0

    @property
    def recovery_rate(self) -> float:
        return self.recovered / self.hangs if self.hangs else 1.0

    def render(self) -> str:
        return ("Recovery effectiveness over %d injections: "
                "%d hangs, %d detected (%.1f%%), %d fully recovered "
                "(%.1f%%); paper: 286 hangs, all detected, 281 recovered "
                "(98.3%%)"
                % (self.runs, self.hangs, self.detected,
                   100 * self.detection_rate, self.recovered,
                   100 * self.recovery_rate))


def aggregate_effectiveness(runs: int,
                            outcomes: List[InjectionOutcome]
                            ) -> EffectivenessResult:
    """Fold a §5.2 campaign's outcomes into the coverage counts."""
    hangs = detected = recovered = 0
    for outcome in outcomes:
        if outcome.local_hung:
            hangs += 1
            if outcome.watchdog_fired:
                detected += 1
            if outcome.recovered_fully:
                recovered += 1
    return EffectivenessResult(runs, hangs, detected, recovered)
