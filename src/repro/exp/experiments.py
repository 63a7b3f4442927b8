"""Every experiment of the evaluation, registered declaratively.

Each ``register(Experiment(...))`` below declares one study: the SWIFI
campaigns (Table 1, §5.2 effectiveness, fault surface), the netfault
and closfault sweeps, the slo-chaos matrix, and the GM-vs-FTGM metric
and figure benchmarks (Tables 2/3, Figs. 4/5/7/8/9).  The shared machinery — spec expansion, multi-process
fan-out, journaling/resume, manifests — lives in
:mod:`repro.exp.runner`; this module only declares *what* each
experiment runs and how its outcomes aggregate and render.

Every experiment registers a ``resume`` and configs that carry their
``cluster``; the registry derives its boot, boot family and ``run_one``
(see :class:`repro.exp.registry.Experiment`).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

from ..faults.campaign import (
    CampaignResult,
    aggregate_effectiveness,
)
from ..faults.injector import InjectionConfig, resume_injection
from ..faults.outcomes import InjectionOutcome
from ..faults.scenarios import FigureConfig, resume_figure
from ..faults.surface import analyze_surface
from ..load.chaos import (
    SLO_SCENARIOS,
    SloChaosCampaignResult,
    SloChaosConfig,
    SloChaosOutcome,
    resume_slo_chaos,
)
from ..load.profiles import PROFILE_NAMES
from ..load.slo import SloSpec
from ..netfaults.campaign import (
    NET_SCENARIOS,
    NetFaultCampaignResult,
    NetFaultConfig,
    NetFaultOutcome,
    resume_netfault,
)
from ..netfaults.clos import (
    CLOS_CELLS,
    CLOS_SCENARIOS,
    ClosFaultConfig,
    cross_fabric_pairs,
    resume_closfault,
)
from ..workloads.allsize import BandwidthResult
from ..workloads.pair import PairConfig, resume_pair, resume_point
from ..workloads.pingpong import PingPongResult
from ..workloads.recovery import (
    RECOVERY_CLUSTER,
    RecoveryConfig,
    RecoveryExperiment,
    run_recovery_experiment,
)
from ..workloads.utilization import UtilizationResult
from .registry import Experiment, Option, register
from .results import typed_decoder
from .runner import derive_run_seed
from .spec import (
    ClusterSpec,
    ExperimentSpec,
    FaultSpec,
    ScenarioSpec,
    WorkloadSpec,
    freeze_params,
    thaw_params,
)

__all__: List[str] = []      # everything is reached through the registry


def _get(params: Dict[str, Any], key: str, default: Any) -> Any:
    value = params.get(key)
    return default if value is None else value


def _identity(rendered: str) -> str:
    return rendered


def _scenario_runs(spec: ExperimentSpec
                   ) -> Iterator[Tuple[int, int, ScenarioSpec]]:
    """``(run_id, seed, scenario)`` of every run of a scenario matrix."""
    run_id = 0
    for scenario in spec.scenarios:
        for _ in range(scenario.runs):
            yield run_id, derive_run_seed(spec.seed, run_id), scenario
            run_id += 1


# -- SWIFI campaigns: table1 / effectiveness / surface -------------------------


def _swifi_spec(name: str, params: Dict[str, Any], *, flavor: str,
                default_runs: int, small_runs: int,
                default_seed: int) -> ExperimentSpec:
    # --scale small shrinks the default campaign for smoke tests and CI;
    # an explicit --runs always wins, and the default "full" scale keeps
    # the spec byte-identical to the pre---scale era.
    scale = _get(params, "scale", "full")
    runs = _get(params, "runs",
                small_runs if scale == "small" else default_runs)
    seed = _get(params, "seed", default_seed)
    messages = _get(params, "messages", 16)
    return ExperimentSpec(
        experiment=name, seed=seed, runs=runs,
        scenarios=(ScenarioSpec(
            name="send_chunk-bitflip", runs=runs,
            cluster=ClusterSpec(n_nodes=2, flavor=flavor,
                                interpreted_nodes=(0,)),
            workload=WorkloadSpec(kind="stream", messages=messages,
                                  message_bytes=256),
            fault=FaultSpec(kind="bitflip",
                            params=freeze_params(
                                {"section": "send_chunk"}))),),
        params=freeze_params({"flavor": flavor, "messages": messages}))


def _swifi_expand(spec: ExperimentSpec) -> List[InjectionConfig]:
    cluster = spec.scenarios[0].cluster
    messages = spec.param("messages", 16)
    return [InjectionConfig(run_id=run_id,
                            seed=derive_run_seed(spec.seed, run_id),
                            cluster=cluster, messages=messages)
            for run_id in range(spec.runs)]


def _register_swifi(name: str, help: str, *, flavor: str,
                    default_runs: int, small_runs: int, default_seed: int,
                    **hooks: Any) -> None:
    """One SWIFI campaign: ``aggregate``/``render``/``summarize`` (and
    ``progress_every``) come in ``hooks``; the rest is shared."""
    register(Experiment(
        name=name,
        help=help,
        build_spec=lambda params: _swifi_spec(
            name, params, flavor=flavor, default_runs=default_runs,
            small_runs=small_runs, default_seed=default_seed),
        expand=_swifi_expand,
        resume=resume_injection,
        decode=typed_decoder(InjectionOutcome),
        options=(Option("runs", "--runs", int, None,
                        "injection runs (default %d; %d at --scale small)"
                        % (default_runs, small_runs)),
                 Option("seed", "--seed", int, default_seed,
                        "campaign base seed"),
                 Option("scale", "--scale", str, "full",
                        "campaign size; 'small' trims the default runs "
                        "for smoke tests (explicit --runs wins)",
                        ("small", "full"))),
        **hooks))


def _campaign_aggregate(spec: ExperimentSpec,
                        outcomes: List[InjectionOutcome]) -> CampaignResult:
    return CampaignResult(spec.runs, outcomes)


def _campaign_summary(result: CampaignResult) -> Dict[str, Any]:
    return {"runs": result.runs, "counts": dict(result.counts)}


_register_swifi(
    "table1", "fault-injection campaign", flavor="gm",
    default_runs=150, small_runs=12, default_seed=2003,
    aggregate=_campaign_aggregate, render=CampaignResult.render,
    summarize=_campaign_summary, progress_every=25)


def _effectiveness_aggregate(spec, outcomes):
    return aggregate_effectiveness(spec.runs, outcomes)


_register_swifi(
    "effectiveness", "FTGM recovery coverage (section 5.2)", flavor="ftgm",
    default_runs=80, small_runs=10, default_seed=7001,
    aggregate=_effectiveness_aggregate,
    render=lambda result: result.render(), summarize=asdict)


def _surface_aggregate(spec, outcomes):
    return CampaignResult(spec.runs, outcomes), analyze_surface(outcomes)


def _surface_render(aggregate) -> str:
    campaign, report = aggregate
    return campaign.render() + "\n\n" + report.render()


def _surface_summary(aggregate) -> Dict[str, Any]:
    campaign, report = aggregate
    return {"runs": campaign.runs, "counts": dict(campaign.counts),
            "fields": {name: dict(row)
                       for name, row in report.table.items()}}


_register_swifi(
    "surface", "fault outcomes by corrupted instruction field",
    flavor="gm", default_runs=150, small_runs=12, default_seed=6007,
    aggregate=_surface_aggregate, render=_surface_render,
    summarize=_surface_summary)


# -- netfaults: link/switch fault sweep ----------------------------------------


def _netfaults_spec(params: Dict[str, Any]) -> ExperimentSpec:
    scenarios = tuple(_get(params, "scenarios", NET_SCENARIOS))
    runs_per_scenario = _get(params, "runs_per_scenario", 5)
    n_nodes = _get(params, "nodes", 4)
    topology = _get(params, "topology", "ring")
    messages = _get(params, "messages", 12)
    return ExperimentSpec(
        experiment="netfaults",
        seed=_get(params, "seed", 2003),
        runs=runs_per_scenario * len(scenarios),
        scenarios=tuple(ScenarioSpec(
            name=scenario, runs=runs_per_scenario,
            cluster=ClusterSpec(n_nodes=n_nodes, flavor="ftgm",
                                topology=topology, n_switches=2),
            workload=WorkloadSpec(kind="cross-pairs", messages=messages,
                                  message_bytes=512),
            fault=FaultSpec(kind=scenario))
            for scenario in scenarios))


def _netfaults_summary(result: NetFaultCampaignResult) -> Dict[str, Any]:
    return {"counts": {scenario: dict(row)
                       for scenario, row in result.counts.items()}}


def _netfaults_expand(spec: ExperimentSpec) -> List[NetFaultConfig]:
    return [NetFaultConfig(run_id=run_id, seed=seed,
                           scenario=scenario.fault.kind,
                           cluster=scenario.cluster,
                           messages=scenario.workload.messages)
            for run_id, seed, scenario in _scenario_runs(spec)]


register(Experiment(
    name="netfaults",
    help="link/switch fault campaign with reroute recovery",
    build_spec=_netfaults_spec,
    expand=_netfaults_expand,
    resume=resume_netfault,
    aggregate=lambda spec, outcomes: NetFaultCampaignResult(spec.seed,
                                                            outcomes),
    render=NetFaultCampaignResult.render,
    decode=typed_decoder(NetFaultOutcome),
    summarize=_netfaults_summary,
    options=(Option("runs_per_scenario", "--runs-per-scenario", int, 5,
                    "runs per scenario (default 5)"),
             Option("seed", "--seed", int, 2003, "campaign base seed"),
             Option("nodes", "--nodes", int, 4, "cluster size"),
             Option("topology", "--topology", str, "ring",
                    "fabric shape", choices=("ring", "tree"))),
    progress_every=4,
))


# -- closfault: correlated faults on Clos/fat-tree fabrics ---------------------


def _closfault_spec(params: Dict[str, Any]) -> ExperimentSpec:
    # --scale small trims the grid to the CI smoke cell: one scenario,
    # FTGM only (explicit options win, as everywhere).
    scale = _get(params, "scale", "full")
    small = scale == "small"
    scenarios = tuple(_get(params, "scenarios",
                           ["rack-loss"] if small else CLOS_SCENARIOS))
    flavors: tuple = ("ftgm",) if small else ("ftgm", "gm")
    runs_per_cell = _get(params, "runs_per_cell", 1)
    n_nodes = _get(params, "nodes", 16)
    topology = _get(params, "topology", "fat-tree")
    radix = _get(params, "radix", 4)
    messages = _get(params, "messages", 6)
    n_pairs = _get(params, "pairs", 2)
    return ExperimentSpec(
        experiment="closfault",
        seed=_get(params, "seed", 2003),
        runs=runs_per_cell * len(scenarios) * len(flavors),
        scenarios=tuple(ScenarioSpec(
            name="%s/%s" % (scenario, flavor), runs=runs_per_cell,
            cluster=ClusterSpec(n_nodes=n_nodes, flavor=flavor,
                                topology=topology, n_switches=2,
                                radix=radix),
            workload=WorkloadSpec(kind="cross-fabric-pairs",
                                  messages=messages, message_bytes=512,
                                  params=freeze_params(
                                      {"pairs": n_pairs})),
            fault=FaultSpec(kind=scenario))
            for scenario in scenarios for flavor in flavors))


def _closfault_expand(spec: ExperimentSpec) -> List[ClosFaultConfig]:
    configs: List[ClosFaultConfig] = []
    for run_id, seed, scenario in _scenario_runs(spec):
        cluster = scenario.cluster
        pairs = cross_fabric_pairs(
            cluster.n_nodes, topology=cluster.topology,
            radix=cluster.radix or 8, n_spines=cluster.n_switches or 2,
            n_pairs=thaw_params(scenario.workload.params).get("pairs", 2))
        configs.append(ClosFaultConfig(
            run_id=run_id, seed=seed, scenario=scenario.name,
            cluster=cluster, pairs=tuple(pairs),
            messages=scenario.workload.messages))
    return configs


def _closfault_aggregate(spec, outcomes) -> NetFaultCampaignResult:
    return NetFaultCampaignResult(spec.seed, outcomes,
                                  title="Closfault campaign",
                                  order=CLOS_CELLS)


register(Experiment(
    name="closfault",
    help="correlated fault campaign on a Clos/fat-tree fabric, "
         "FT on vs off",
    build_spec=_closfault_spec,
    expand=_closfault_expand,
    resume=resume_closfault,
    aggregate=_closfault_aggregate,
    render=NetFaultCampaignResult.render,
    decode=typed_decoder(NetFaultOutcome),
    summarize=_netfaults_summary,
    options=(Option("runs_per_cell", "--runs-per-cell", int, 1,
                    "runs per scenario x flavor cell (default 1)"),
             Option("seed", "--seed", int, 2003, "campaign base seed"),
             Option("nodes", "--nodes", int, 16, "cluster size"),
             Option("radix", "--radix", int, 4,
                    "switch port count of the generated fabric"),
             Option("topology", "--topology", str, "fat-tree",
                    "fabric shape", choices=("fat-tree", "clos")),
             Option("pairs", "--pairs", int, 2,
                    "cross-fabric workload pairs"),
             Option("messages", "--messages", int, 6,
                    "messages per directed pair"),
             Option("scale", "--scale", str, "full",
                    "grid size; 'small' keeps rack-loss/ftgm only "
                    "(explicit options win)", ("small", "full"))),
    progress_every=2,
))


# -- slo-chaos: SLO-graded load plane with netfault overlay --------------------


def _slo_chaos_spec(params: Dict[str, Any]) -> ExperimentSpec:
    # --scale small shrinks the sweep to the control cell plus one fault
    # scenario over a shorter profile (CI smoke); explicit options win.
    scale = _get(params, "scale", "full")
    small = scale == "small"
    scenarios = tuple(_get(params, "scenarios",
                           ["baseline", "link-cut"] if small
                           else SLO_SCENARIOS))
    runs_per_cell = _get(params, "runs_per_cell", 1)
    n_nodes = _get(params, "nodes", 4)
    topology = _get(params, "topology", "ring")
    clients = _get(params, "clients", 4 if small else 8)
    profile = _get(params, "profile", "staged-ramp")
    peak_rate = _get(params, "peak_rate", 800.0 if small else 1_500.0)
    duration_us = _get(params, "duration_us",
                       120_000.0 if small else 400_000.0)
    return ExperimentSpec(
        experiment="slo-chaos",
        seed=_get(params, "seed", 2003),
        runs=runs_per_cell * len(scenarios) * 2,
        scenarios=tuple(ScenarioSpec(
            name="%s/%s" % (scenario, flavor), runs=runs_per_cell,
            cluster=ClusterSpec(n_nodes=n_nodes, flavor=flavor,
                                topology=topology, n_switches=2),
            workload=WorkloadSpec(
                kind="open-loop", messages=0, message_bytes=0,
                params=freeze_params({
                    "clients": clients, "profile": profile,
                    "peak_rate": peak_rate,
                    "duration_us": duration_us})),
            fault=FaultSpec(kind=scenario))
            for scenario in scenarios for flavor in ("ftgm", "gm")),
        params=freeze_params({"slo": SloSpec().to_dict()}))


def _slo_chaos_expand(spec: ExperimentSpec) -> List[SloChaosConfig]:
    slo = SloSpec.from_dict(spec.param("slo", {}))
    configs: List[SloChaosConfig] = []
    for run_id, seed, scenario in _scenario_runs(spec):
        load = thaw_params(scenario.workload.params)
        configs.append(SloChaosConfig(
            run_id=run_id, seed=seed, scenario=scenario.fault.kind,
            cluster=scenario.cluster,
            clients=load.get("clients", 8),
            profile=load.get("profile", "staged-ramp"),
            peak_rate=load.get("peak_rate", 1_500.0),
            duration_us=load.get("duration_us", 400_000.0),
            slo=slo))
    return configs


def _slo_chaos_aggregate(spec, outcomes) -> SloChaosCampaignResult:
    return SloChaosCampaignResult(spec.seed, outcomes)


def _slo_chaos_summary(result: SloChaosCampaignResult) -> Dict[str, Any]:
    return {"verdicts": {cell: "pass" if all(r.verdict.passed
                                             for r in runs) else "fail"
                         for cell, runs in sorted(result.by_cell.items())}}


register(Experiment(
    name="slo-chaos",
    help="SLO-graded chaos: netfaults over open-loop load, FT on vs off",
    build_spec=_slo_chaos_spec,
    expand=_slo_chaos_expand,
    resume=resume_slo_chaos,
    aggregate=_slo_chaos_aggregate,
    render=SloChaosCampaignResult.render,
    decode=typed_decoder(SloChaosOutcome),
    summarize=_slo_chaos_summary,
    options=(Option("runs_per_cell", "--runs-per-cell", int, 1,
                    "runs per scenario x flavor cell (default 1)"),
             Option("seed", "--seed", int, 2003, "campaign base seed"),
             Option("nodes", "--nodes", int, 4, "cluster size"),
             Option("topology", "--topology", str, "ring",
                    "fabric shape", choices=("ring", "tree")),
             Option("clients", "--clients", int, None,
                    "load clients (default 8; 4 at --scale small)"),
             Option("peak_rate", "--peak-rate", float, None,
                    "plateau offered rate, msgs/s "
                    "(default 1500; 800 at --scale small)"),
             Option("profile", "--profile", str, "staged-ramp",
                    "load profile shape", choices=PROFILE_NAMES),
             Option("duration_us", "--duration-us", float, None,
                    "profile length in simulated us "
                    "(default 400000; 120000 at --scale small)"),
             Option("scale", "--scale", str, "full",
                    "sweep size; 'small' trims scenarios and profile "
                    "for smoke tests (explicit options win)",
                    ("small", "full"))),
    progress_every=2,
))


# -- table2: GM vs FTGM metric matrix ------------------------------------------

_TABLE2_TASKS = ("bandwidth/gm", "bandwidth/ftgm", "latency/gm",
                 "latency/ftgm", "util/gm", "util/ftgm")


def _table2_spec(params: Dict[str, Any]) -> ExperimentSpec:
    iterations = _get(params, "iterations", 25)
    return ExperimentSpec(
        experiment="table2", seed=0, runs=len(_TABLE2_TASKS),
        scenarios=tuple(ScenarioSpec(
            name=task, runs=1,
            cluster=ClusterSpec(n_nodes=2, flavor=task.split("/")[1]),
            workload=WorkloadSpec(kind=task.split("/")[0]))
            for task in _TABLE2_TASKS),
        params=freeze_params({"iterations": iterations}))


def _table2_expand(spec: ExperimentSpec) -> List[PairConfig]:
    # (message bytes, count) of each row: a 1 MiB stream of 5 messages,
    # 64 B ping-pongs, and a 60-message 64 B stream for the meters.
    shape = {"bandwidth": (1 << 20, 5),
             "latency": (64, spec.param("iterations", 25)),
             "util": (64, 60)}
    return [PairConfig(run_id, scenario.cluster, scenario.workload.kind,
                       *shape[scenario.workload.kind])
            for run_id, scenario in enumerate(spec.scenarios)]


def _table2_aggregate(spec, outcomes):
    from ..analysis import Table2

    return Table2.from_outcomes(outcomes)


def _table2_summary(table) -> Dict[str, Any]:
    return {"rows": [list(row) for row in table.rows()]}


register(Experiment(
    name="table2",
    help="GM vs FTGM metrics",
    build_spec=_table2_spec,
    expand=_table2_expand,
    resume=resume_pair,
    aggregate=_table2_aggregate,
    render=lambda table: table.render(),
    decode=typed_decoder(BandwidthResult, PingPongResult,
                         UtilizationResult),
    summarize=_table2_summary,
    options=(Option("iterations", "--iterations", int, 25,
                    "ping-pong iterations"),),
))


# -- table3 / fig9: controlled recovery experiments ----------------------------

_TABLE3_OFFSETS = (520.0, 610.0, 700.0, 790.0)


def _recovery_spec(name: str, offsets) -> ExperimentSpec:
    return ExperimentSpec(
        experiment=name, seed=0, runs=len(offsets),
        scenarios=tuple(ScenarioSpec(
            name="hang@%gus" % offset, runs=1,
            cluster=RECOVERY_CLUSTER,
            workload=WorkloadSpec(kind="stream", messages=30),
            fault=FaultSpec(kind="mcp-hang", params=freeze_params(
                {"hang_offset_us": offset})))
            for offset in offsets))


def _recovery_expand(spec: ExperimentSpec) -> List[RecoveryConfig]:
    return [RecoveryConfig(
        run_id=run_id, cluster=scenario.cluster,
        hang_offset_us=thaw_params(scenario.fault.params)["hang_offset_us"],
        messages=scenario.workload.messages)
        for run_id, scenario in enumerate(spec.scenarios)]


def _table3_aggregate(spec, outcomes):
    from ..analysis import Table3

    return Table3.from_experiments(outcomes)


def _table3_summary(table) -> Dict[str, Any]:
    return {"rows": [list(row) for row in table.rows()],
            "total_us": table.total_us}


register(Experiment(
    name="table3",
    help="recovery-time components",
    build_spec=lambda params: _recovery_spec("table3", _TABLE3_OFFSETS),
    expand=_recovery_expand,
    resume=run_recovery_experiment,
    aggregate=_table3_aggregate,
    render=lambda table: table.render(),
    decode=typed_decoder(RecoveryExperiment),
    summarize=_table3_summary,
))


def _fig9_aggregate(spec, outcomes) -> str:
    from ..analysis import recovery_timeline, render_timeline

    experiment = outcomes[0]
    port_done = experiment.record.events_posted_at + experiment.per_port_us
    return render_timeline(recovery_timeline(experiment.fault_at,
                                             experiment.record, port_done))


register(Experiment(
    name="fig9",
    help="recovery timeline",
    build_spec=lambda params: _recovery_spec("fig9", (620.0,)),
    expand=_recovery_expand,
    resume=run_recovery_experiment,
    aggregate=_fig9_aggregate,
    render=_identity,
    decode=typed_decoder(RecoveryExperiment),
))


# -- fig7 / fig8: GM-vs-FTGM sweeps --------------------------------------------

_FIG7_SIZES = (256, 1024, 4096, 4097, 8192, 16384, 65536, 262144, 1048576)
_FIG8_SIZES = (1, 16, 64, 100, 256, 1024, 4096, 16384, 65536)


def _sweep_spec(name: str, sizes, knob: str, value: int) -> ExperimentSpec:
    return ExperimentSpec(
        experiment=name, seed=0, runs=2 * len(sizes),
        scenarios=tuple(ScenarioSpec(
            name=flavor, runs=len(sizes),
            cluster=ClusterSpec(n_nodes=2, flavor=flavor),
            workload=WorkloadSpec(
                kind="allsize" if name == "fig7" else "pingpong",
                params=freeze_params({"sizes": list(sizes), knob: value})))
            for flavor in ("gm", "ftgm")),
        params=freeze_params({knob: value}))


def _sweep_configs(spec: ExperimentSpec, kind: str,
                   count: Callable[[int], int]) -> List[PairConfig]:
    """One ``kind`` config per (flavor, size) point; ``count(size)``."""
    configs: List[PairConfig] = []
    for scenario in spec.scenarios:
        for size in thaw_params(scenario.workload.params)["sizes"]:
            configs.append(PairConfig(len(configs), scenario.cluster, kind,
                                      size, count(size)))
    return configs


def _fig7_expand(spec: ExperimentSpec) -> List[PairConfig]:
    messages = spec.param("messages", 20)
    return _sweep_configs(spec, "bandwidth", lambda size: max(
        3, min(messages, (1 << 22) // max(size, 1))))


def _fig8_expand(spec: ExperimentSpec) -> List[PairConfig]:
    iterations = spec.param("iterations", 25)
    return _sweep_configs(spec, "latency", lambda size: iterations)


def _sweep_aggregate(title: str, unit: str):
    def aggregate(spec, outcomes) -> str:
        from ..analysis import render_ascii, series_from_points, to_csv

        curves = series_from_points(outcomes)
        return render_ascii(curves, title, "message length (bytes)", unit) \
            + "\n\n" + to_csv(curves, "bytes")
    return aggregate


register(Experiment(
    name="fig7",
    help="bandwidth curves",
    build_spec=lambda params: _sweep_spec(
        "fig7", _FIG7_SIZES, "messages", _get(params, "messages", 20)),
    expand=_fig7_expand,
    resume=resume_point,
    aggregate=_sweep_aggregate("Figure 7. Bandwidth GM vs FTGM", "MB/s"),
    render=_identity,
    options=(Option("messages", "--messages", int, 20,
                    "messages per size"),),
))


register(Experiment(
    name="fig8",
    help="latency curves",
    build_spec=lambda params: _sweep_spec(
        "fig8", _FIG8_SIZES, "iterations", _get(params, "iterations", 25)),
    expand=_fig8_expand,
    resume=resume_point,
    aggregate=_sweep_aggregate("Figure 8. Latency GM vs FTGM",
                               "half-RTT (us)"),
    render=_identity,
    options=(Option("iterations", "--iterations", int, 25,
                    "ping-pong iterations"),),
))


# -- fig45: duplicate / lost message scenarios ---------------------------------

_FIG45_CASES = (
    ("Fig 4 duplicate, naive GM", 4, "gm"),
    ("Fig 4 duplicate, FTGM", 4, "ftgm"),
    ("Fig 5 lost message, naive GM", 5, "gm"),
    ("Fig 5 lost message, FTGM", 5, "ftgm"),
)


def _fig45_spec(params: Dict[str, Any]) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="fig45", seed=0, runs=len(_FIG45_CASES),
        scenarios=tuple(ScenarioSpec(
            name=name, runs=1,
            cluster=ClusterSpec(n_nodes=2, flavor=flavor),
            fault=FaultSpec(kind="figure%d-crash" % figure))
            for name, figure, flavor in _FIG45_CASES))


def _fig45_expand(spec: ExperimentSpec) -> List[FigureConfig]:
    return [FigureConfig(run_id, name, figure,
                         ClusterSpec(n_nodes=2, flavor=flavor))
            for run_id, (name, figure, flavor) in enumerate(_FIG45_CASES)]


def _fig45_aggregate(spec, outcomes) -> str:
    return "\n".join("%-32s %s" % (o["name"], "YES" if o["bad"] else "no")
                     for o in outcomes)


register(Experiment(
    name="fig45",
    help="duplicate/lost scenarios",
    build_spec=_fig45_spec,
    expand=_fig45_expand,
    resume=resume_figure,
    aggregate=_fig45_aggregate,
    render=_identity,
))
