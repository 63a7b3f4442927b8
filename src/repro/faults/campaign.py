"""Fault-injection campaigns: Table 1 and the §5.2 effectiveness study.

Every injection run builds its own :class:`~repro.sim.Simulator` from its
own seed and shares nothing with its siblings, so campaigns are
embarrassingly parallel: pass ``workers=N`` to fan runs out over forked
worker processes.  ``workers=1`` (the default) keeps the in-process
serial path.  Either way the outcome list is ordered by ``run_id`` and
every run's result depends only on its config — a parallel campaign is
byte-identical to a serial one.

The fan-out itself lives in :func:`repro.exp.runner.run_many`, the
experiment engine's shared runner; these campaign entry points are
also registered as the ``table1`` and ``effectiveness`` experiments
(``repro run table1``), which adds journaling/resume and result
manifests on top of the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..exp.runner import derive_run_seed, run_many
from .injector import InjectionConfig, run_injection
from .outcomes import CATEGORY_ORDER, InjectionOutcome, tabulate
from .reference import IYER_TABLE1, PAPER_TABLE1

__all__ = ["CampaignResult", "run_campaign", "EffectivenessResult",
           "run_effectiveness_study", "aggregate_effectiveness"]


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


def run_campaign(runs: int = 200, seed: int = 2003, flavor: str = "gm",
                 messages: int = 16,
                 progress: Optional[Callable[[int], None]] = None,
                 workers: int = 1) -> CampaignResult:
    """Flip one random ``send_chunk`` bit per run; classify each run.

    ``workers > 1`` fans the runs out over forked worker processes; the
    result is identical to the serial campaign (same outcomes, same
    order).
    """
    configs = [InjectionConfig(run_id=run_id,
                               seed=derive_run_seed(seed, run_id),
                               flavor=flavor, messages=messages)
               for run_id in range(runs)]
    return CampaignResult(runs, run_many(configs, run_injection,
                                         workers=workers,
                                         progress=progress))


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


def run_effectiveness_study(runs: int = 120, seed: int = 42,
                            messages: int = 16,
                            progress: Optional[Callable[[int], None]] = None,
                            workers: int = 1) -> EffectivenessResult:
    """Repeat the injection campaign under FTGM (§5.2).

    Counts, over the runs whose fault hung the interface, how many hangs
    the watchdog detected and how many recovered to exactly-once
    completion of the workload.  ``workers > 1`` parallelizes the runs;
    the aggregate is identical to the serial study.
    """
    configs = [InjectionConfig(run_id=run_id,
                               seed=derive_run_seed(seed, run_id),
                               flavor="ftgm", messages=messages)
               for run_id in range(runs)]
    return aggregate_effectiveness(runs, run_many(configs, run_injection,
                                                  workers=workers,
                                                  progress=progress))


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
