"""The five workloads of the benchmark suite, and the checks on their outputs.

A workload is a list of *parts*, each ``(experiment name, build_spec
params)``; the seed argument, folded onto a vetted pool (``SEED_POOL``), is
merged into every part's params and is the only thing that varies between
runs.  Everything here reaches the program
through its public engine (``repro.exp.registry.get_experiment`` and the
``Experiment`` protocol), never through ``repro.exp.perfbench``: the
benchmark must not move with the code it measures.

Why these five (the one-line reasons live in ``BENCHMARK.json``):

* ``table1`` is the only workload with an interpreted LANai node and long
  idle stretches (hang runs sit out a 12 s simulated horizon), so ``lanai``,
  the ``gm`` tickless fold and the ``exp`` fork/pipe path do the work.
* ``slo-chaos`` is the busy small-message path under link faults with an
  open-loop schedule in *simulated* time: protocol logic, DMA/PCI, links
  and switches, no interpreter and little idle time.  A fold/parking gain
  must not show here.
* ``closfault-64`` is the known wall: two deadlocked GM cells retransmit
  into a dead spine until the horizon, so ``sim`` and ``net`` dominate.
* ``fabric-256`` is one big run: construct 256 nodes, map hierarchically,
  park, inject one fault.  It is the memory workload (~600 MB peak RSS).
* ``paper-tables`` drives the same message path as ``slo-chaos`` the other
  way: healthy, closed-loop, 2 nodes, sizes from 1 B to 1 MiB, in-process
  (these experiments register no boot/resume split, so nothing forks).  It
  carries the simulated accuracy figures against the paper.  Its specs take
  no seed: the paper's tables are fixed points, so every seed runs the same
  inputs here.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SRC = os.path.join(ROOT, "src")

#: Execution-mode switches of the program.  The benchmark measures the
#: default path (`repro run <name>` with nothing set), so any of these in
#: the environment would silently measure something else.
FORBIDDEN_ENV = ("REPRO_SHARDS", "REPRO_SHARD_SCHEDULE", "REPRO_TICKLESS",
                 "REPRO_LAZY", "REPRO_FORKSERVER", "REPRO_MP_START_METHOD")

#: The ``--seed`` whose outcomes and counts are pinned in ``goldens.json``;
#: also the seed of every warm-up, so ``setup_s`` measures the same work
#: whatever ``--seed`` says.
PINNED_SEED = 2003

#: The run length the per-workload pass counts are sized for
#: (``run_seconds`` in ``BENCHMARK.json``): about 11-23 s of timed passes
#: per workload on the 2-core reference box.
REFERENCE_SECONDS = 12

#: Campaign seeds that ``--seed`` is folded onto (``SEED_POOL[seed % 8]``).
#: Raw seeds cannot be used, for two reasons found while sizing the suite.
#: About one ``table1`` campaign in twenty hits a run whose corrupted packet
#: the mapper agent cannot parse (``TypeError`` in ``net/mapper.py``); that
#: aborts the whole campaign and the engine reports 200 failed runs.  And
#: six campaigns in ten draw a *runaway* run: a flipped branch sends the
#: LANai into a nop sled, block translation decodes 300 k instructions, and
#: the run costs 1 s and 115 MB where the median run costs 15 ms and 33 MB.
#: One such run is a seventh of the campaign's wall and all of its peak
#: RSS, so mixing campaigns with none, one and two would make ``runs_per_s``
#: and ``peak_rss_mb`` multimodal across seeds.  The pool holds seeds vetted
#: (of 72 tried) at the commit that added the suite: on every seeded
#: workload no run raises and every FTGM run passes its verdict, and the
#: ``table1`` campaign is the typical one, with exactly one runaway and a
#: wall within 4% of the pool's median.
SEED_POOL: Tuple[int, ...] = (19, 25, 29, 43, 55, 46, 12, 34)

Part = Tuple[str, Dict[str, Any]]


def spec_seed(seed: int) -> int:
    return SEED_POOL[seed % len(SEED_POOL)]


class BenchmarkEnvironmentError(RuntimeError):
    """The process environment would make the measurement meaningless."""


def check_environment() -> None:
    present = [name for name in FORBIDDEN_ENV if name in os.environ]
    if present:
        raise BenchmarkEnvironmentError(
            "unset %s: the benchmark measures the program's default "
            "execution mode" % ", ".join(present))


def bind_program() -> None:
    """Put this checkout's ``src`` first on ``sys.path`` and prove that
    ``repro`` resolves there (an installed copy must not be measured)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkEnvironmentError(
            "no program to measure: %s is missing" % os.path.join(
                SRC, "repro"))
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchmarkEnvironmentError(
            "repro resolved to %s, outside this checkout" % repro.__file__)


@dataclass(frozen=True)
class Workload:
    name: str
    parts: Tuple[Part, ...]
    #: Untimed warm-up, part of ``setup_s``: small specs that touch the
    #: same modules and executor as the timed passes.
    warmup: Tuple[Part, ...]
    #: Passes over ``parts`` in a run of ``REFERENCE_SECONDS``; scaled with
    #: ``--seconds``, never with the program's speed, so run length is the
    #: same on both sides of an A/B.
    passes: int
    #: What the traced pass runs when the full parts would not fit.
    traced: Optional[Tuple[Part, ...]] = None
    traced_note: str = ""
    #: ``--quick`` sizes (smoke test only; never compared with full runs).
    quick: Tuple[Part, ...] = ()

    def passes_for(self, seconds: float) -> int:
        return max(1, round(self.passes * seconds / REFERENCE_SECONDS))


_PAPER_PARTS: Tuple[Part, ...] = (("fig7", {}), ("fig8", {}),
                                  ("table2", {}), ("table3", {}))

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="table1",
        parts=(("table1", {"runs": 200}),),
        warmup=(("table1", {"runs": 20}),),
        passes=2,
        quick=(("table1", {"runs": 12}),)),
    Workload(
        name="slo-chaos",
        parts=(("slo-chaos", {}),),
        warmup=(("slo-chaos", {"scenarios": ["baseline"]}),),
        passes=5,
        quick=(("slo-chaos", {"scale": "small"}),)),
    Workload(
        name="closfault-64",
        parts=(("closfault", {"nodes": 64, "radix": 8}),),
        warmup=(("closfault", {"nodes": 64, "radix": 8,
                               "scale": "small"}),),
        passes=1,
        traced=(("closfault", {"nodes": 64, "radix": 8,
                               "scenarios": ["spine-loss"]}),),
        traced_note="traced pass runs the spine-loss pair only "
                    "(2 of 8 cells)",
        quick=(("closfault", {"nodes": 16, "radix": 4,
                              "scenarios": ["spine-loss"]}),)),
    Workload(
        name="fabric-256",
        parts=(("closfault", {"nodes": 256, "radix": 8,
                              "scale": "small"}),),
        # Not a 256-node run: set-up is measured several times per run and
        # a 4 s, 600 MB warm-up would cost more than the timed passes.
        warmup=(("closfault", {"nodes": 16, "radix": 4,
                               "scale": "small"}),),
        passes=5,
        quick=(("closfault", {"nodes": 64, "radix": 8,
                              "scale": "small"}),)),
    Workload(
        name="paper-tables",
        parts=_PAPER_PARTS,
        warmup=(("fig8", {"iterations": 2}), ("table3", {})),
        passes=3,
        quick=(("fig8", {"iterations": 2}), ("table2", {"iterations": 5}),
               ("table3", {}))),
)}


def build_specs(workload: Workload, seed: int, parts: Tuple[Part, ...]):
    """``[(experiment, spec)]`` for ``parts`` at ``--seed seed``."""
    from repro.exp.registry import get_experiment

    specs = []
    for name, params in parts:
        experiment = get_experiment(name)
        specs.append((experiment, experiment.build_spec(
            dict(params, seed=spec_seed(seed)))))
    return specs


def set_up(workload: Workload, seed: int, quick: bool = False):
    """Everything between process start and the first timed run: import
    the program, load the registry, build and expand the specs, and run
    the warm-up.  Returns the timed specs."""
    bind_program()
    from repro.exp.runner import run_experiment

    specs = build_specs(workload, seed,
                        workload.quick if quick else workload.parts)
    for experiment, spec in specs:
        experiment.expand(spec)
    for _experiment, spec in build_specs(workload, PINNED_SEED,
                                         workload.warmup):
        run_experiment(spec)
    return specs


# -- output checks -------------------------------------------------------------


def digest(outcomes: List[Any], rendered: str) -> Dict[str, Any]:
    """Per-run and rendered-text digests of one part's output: what the
    determinism checks compare and ``goldens.json`` pins."""
    from repro.exp.results import encode_outcome

    runs = [hashlib.sha256(json.dumps(encode_outcome(outcome),
                                      sort_keys=True).encode())
            .hexdigest()[:16] for outcome in outcomes]
    return {"runs": runs,
            "rendered": hashlib.sha256(rendered.encode()).hexdigest()[:16]}


def cell_label(config: Any, default: str) -> str:
    """``scenario/flavor`` of a grid config; ``default`` for the rest."""
    scenario = getattr(config, "scenario", None)
    if scenario is None:
        return default
    if "/" not in scenario and hasattr(config, "flavor"):
        return "%s/%s" % (scenario, config.flavor)
    return scenario


def is_failed(outcome: Any) -> bool:
    return outcome is None or isinstance(outcome, BaseException)


def ft_verdict(experiment_name: str, outcome: Any) -> Optional[bool]:
    """Did fault tolerance do its job on this run?  None where the run
    has no fault-tolerance verdict (GM cells, the healthy paper tables)."""
    if experiment_name == "slo-chaos" and outcome.flavor == "ftgm":
        return bool(outcome.verdict.passed)
    if experiment_name == "closfault" and outcome.scenario.endswith("/ftgm"):
        from repro.netfaults.campaign import NetCategory

        return outcome.category in (NetCategory.REROUTE,
                                    NetCategory.RETRANSMIT)
    return None


def simulated_metrics(summaries: Dict[str, Any]) -> Dict[str, float]:
    """Simulated-time figures of whichever parts ran, from their result
    summaries (``{experiment name: summary}``)."""
    out: Dict[str, float] = {}
    table1 = summaries.get("table1")
    if table1 is not None:
        from repro.faults.reference import PAPER_TABLE1

        counts = table1["counts"]
        runs = table1["runs"]
        out["outcome_dist_err"] = sum(
            abs(counts.get(category, 0) / runs - share / 100.0)
            for category, share in PAPER_TABLE1.items()) / 2.0
    table2 = summaries.get("table2")
    if table2 is not None:
        rows = {row[0]: row for row in table2["rows"]}
        _, gm_lat, ftgm_lat, _, _ = rows["Latency (us)"]
        _, gm_bw, ftgm_bw, _, _ = rows["Bandwidth (MB/s)"]
        out["ftgm_latency_overhead_us"] = ftgm_lat - gm_lat
        out["ftgm_bandwidth_ratio"] = ftgm_bw / gm_bw
    table3 = summaries.get("table3")
    if table3 is not None:
        rows = {row[0]: row for row in table3["rows"]}
        out["detect_us"] = rows["Fault Detection Time"][1]
        out["recovery_total_ms"] = table3["total_us"] / 1000.0
    return out


#: What the paper reports for each simulated figure (PAPER.md, Tables 1-3).
PAPER_REFERENCE = {
    "ftgm_latency_overhead_us": 1.5,
    "ftgm_bandwidth_ratio": 92.0 / 92.4,
    "detect_us": 800.0,
    "recovery_total_ms": 2000.0,
    "outcome_dist_err": 0.0,
}
