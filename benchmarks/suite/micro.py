"""Layer micro-drivers: fixed-size loops over one layer's public API.

Each driver is written here, from outside the package it times, and
reports a median of a few repeats.  They are untraced, take no workload
seed (every size and seed is fixed, so a number means the same thing
whichever workload's traced run printed it) and exist to say *which layer
moved* when an end-to-end metric does: a faster event wheel must show in
``sim.timeouts_per_s`` as well as in ``runs_per_s``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List

SEED = 2003


def _median_wall(repeats: int, body: Callable[[], Any]) -> float:
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        body()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


# -- sim -----------------------------------------------------------------------


def sim_timeouts_per_s(total: int) -> float:
    """``procs`` processes each yielding ``Simulator.timeout``."""
    from repro.sim import Simulator

    procs = 100

    def body():
        sim = Simulator()

        def worker():
            timeout = sim.timeout
            for _ in range(total // procs):
                yield timeout(1.0)

        for _ in range(procs):
            sim.spawn(worker())
        sim.run()

    return total / _median_wall(5, body)


def sim_wakeups_per_s(total: int) -> float:
    """A producer waking a consumer through ``event().succeed``."""
    from repro.sim import Simulator

    def body():
        sim = Simulator()
        waiting = []

        def producer():
            for _ in range(total):
                yield sim.timeout(1.0)
                if waiting:
                    waiting.pop().succeed("item")

        def consumer():
            while True:
                event = sim.event()
                waiting.append(event)
                yield event

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run(until=total + 1.0)

    return 2 * total / _median_wall(5, body)


# -- lanai ---------------------------------------------------------------------

_ENTRY = 0x100


def _encode(rows) -> List[int]:
    from repro.lanai import isa

    return [isa.encode(isa.Instruction(isa.BY_MNEMONIC[name], **fields))
            for name, fields in rows]


def _run_routine(sim, cpu, fuel: int):
    done = []

    def run():
        done.append((yield from cpu.run_routine(_ENTRY, fuel=fuel)))

    sim.spawn(run())
    sim.run()
    if not done or done[0].status != "done":
        raise RuntimeError("LANai micro-driver routine ended %r" % (done,))
    return done[0]


def _cpu(words: List[int]):
    from repro.hw.sram import Sram
    from repro.lanai.bus import MemoryBus
    from repro.lanai.cpu import LanaiCpu
    from repro.sim import Simulator

    sim = Simulator()
    sram = Sram(64 * 1024)
    sram.write_words(_ENTRY, words)
    return sim, sram, LanaiCpu(sim, MemoryBus(sram))


def lanai_instr_per_s(iterations: int) -> float:
    """A hot 7-instruction ALU/branch loop through ``run_routine``."""
    sim, _sram, cpu = _cpu(_encode([
        ("addi", dict(rd=1, ra=0, imm=iterations)),
        ("addi", dict(rd=2, ra=2, imm=1)),          # loop:
        ("xor", dict(rd=3, ra=2, rb=1)),
        ("add", dict(rd=4, ra=3, rb=2)),
        ("sub", dict(rd=5, ra=4, rb=3)),
        ("slt", dict(rd=6, ra=5, rb=1)),
        ("addi", dict(rd=1, ra=1, imm=-1)),
        ("bne", dict(ra=1, rb=0, imm=-7)),          # -> loop
        ("jr", dict(ra=15)),
    ]))
    executed = []

    def body():
        executed.append(
            _run_routine(sim, cpu, fuel=10 * iterations).instructions)

    wall = _median_wall(5, body)
    return executed[0] / wall


def lanai_retranslate_us(flips: int) -> float:
    """Cost of one ``Sram.flip_bit`` inside translated code, paid on the
    next execution: a 200-instruction straight-line routine run warm,
    then run after flipping one bit there and back (same code, caches
    dropped).  The difference per flip is decode + block translation."""
    body_len = 200
    sim, sram, cpu = _cpu(_encode(
        [("addi", dict(rd=1 + i % 8, ra=1 + i % 8, imm=1))
         for i in range(body_len)] + [("jr", dict(ra=15))]))
    bit = (_ENTRY + 4 * (body_len // 2)) * 8

    def warm():
        for _ in range(flips):
            _run_routine(sim, cpu, fuel=4 * body_len)

    def flipped():
        for _ in range(flips):
            sram.flip_bit(bit)
            sram.flip_bit(bit)
            _run_routine(sim, cpu, fuel=4 * body_len)

    warm()
    return (_median_wall(3, flipped) - _median_wall(3, warm)) / flips * 1e6


# -- hw ------------------------------------------------------------------------


def hw_sram_alloc_ms() -> float:
    """One NIC-sized (default 2 MiB) ``Sram``."""
    from repro.hw.sram import Sram

    return _median_wall(9, Sram) * 1e3


# -- gm / ftgm -----------------------------------------------------------------


def pingpong_msgs_per_s(flavor: str, iterations: int) -> float:
    """64-byte ``run_pingpong`` on a booted pair, in host time."""
    from repro.cluster import build_cluster
    from repro.workloads import run_pingpong

    warmup = 3

    def body():
        run_pingpong(build_cluster(2, flavor=flavor, seed=SEED), 64,
                     iterations=iterations, warmup=warmup)

    def boot_only():
        build_cluster(2, flavor=flavor, seed=SEED)

    wall = _median_wall(3, body) - _median_wall(3, boot_only)
    return 2 * (iterations + warmup) / wall


def idle_sim_ms_per_s(flavor: str, idle_us: float) -> float:
    """Simulated milliseconds per host second on a booted, idle 8-node
    star: GM folds its housekeeping ticks, FTGM keeps the watchdog live."""
    from repro.cluster import build_cluster

    walls = []
    for _ in range(3):
        cluster = build_cluster(8, flavor=flavor, seed=SEED)
        started = time.perf_counter()
        cluster.sim.run(until=cluster.sim.now + idle_us)
        walls.append(time.perf_counter() - started)
    return idle_us / 1e3 / statistics.median(walls)


# -- cluster construction and the mapper ---------------------------------------


def construct_and_map(nodes: int, radix: int, repeats: int) -> Dict[str, float]:
    """``build_cluster(boot=False)`` then ``cluster.boot()`` (the mapper)
    on an FTGM fat-tree."""
    from repro.cluster import build_cluster

    construct, mapped = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        cluster = build_cluster(nodes, flavor="ftgm", seed=SEED,
                                topology="fat-tree", radix=radix, boot=False)
        built = time.perf_counter()
        cluster.boot()
        mapped.append(time.perf_counter() - built)
        construct.append(built - started)
        del cluster
    return {"construct_s": statistics.median(construct),
            "map_s": statistics.median(mapped)}


# -- campaigns through the engine ----------------------------------------------


def _engine_wall(name: str, params: Dict[str, Any], **kwargs) -> float:
    from repro.exp.registry import get_experiment
    from repro.exp.runner import run_experiment

    spec = get_experiment(name).build_spec(dict(params, seed=SEED))
    started = time.perf_counter()
    run_experiment(spec, **kwargs)
    return time.perf_counter() - started


def netfaults_runs_per_s(runs_per_scenario: int) -> float:
    """The ``netfaults`` campaign at its defaults (4 scenarios)."""
    wall = _engine_wall("netfaults", {"runs_per_scenario": runs_per_scenario})
    return 4 * runs_per_scenario / wall


def faults_boot_resume_ms(runs: int) -> Dict[str, float]:
    """``boot_injection`` and ``resume_injection`` of the first ``runs``
    Table 1 configs, each on its own boot."""
    from repro.exp.registry import get_experiment
    from repro.faults.injector import boot_injection, resume_injection

    experiment = get_experiment("table1")
    configs = experiment.expand(
        experiment.build_spec({"seed": SEED, "runs": runs}))
    boots, resumes = [], []
    for config in configs:
        started = time.perf_counter()
        cluster = boot_injection(config)
        booted = time.perf_counter()
        resume_injection(cluster, config)
        resumes.append(time.perf_counter() - booted)
        boots.append(booted - started)
    return {"boot_ms": statistics.median(boots) * 1e3,
            "resume_p50_ms": statistics.median(resumes) * 1e3}


def load_rates(duration_us: float) -> Dict[str, float]:
    """``build_schedule`` expansion, then ``run_load`` of that schedule on
    a booted 4-node FTGM cluster."""
    from repro.cluster import build_cluster
    from repro.load.generator import LoadConfig, build_schedule, run_load

    config = LoadConfig(seed=SEED, n_nodes=4, clients=8, peak_rate=4_000.0,
                        duration_us=duration_us, drain_us=200_000.0)
    schedules = []
    schedule_wall = _median_wall(
        5, lambda: schedules.append(build_schedule(config)))
    schedule = schedules[0]
    drive = []
    for _ in range(3):
        cluster = build_cluster(4, flavor="ftgm", seed=SEED)
        started = time.perf_counter()
        run_load(cluster, config, schedule=schedule)
        drive.append(time.perf_counter() - started)
    offered = len(schedule.ops)
    return {"schedule_ops_per_s": offered / schedule_wall,
            "driven_msgs_per_s": offered / statistics.median(drive)}


def exp_plumbing(runs: int) -> Dict[str, float]:
    """Fork-server against in-process on the same Table 1 campaign, and
    ``encode_outcome`` over its outcomes."""
    from repro.exp.registry import get_experiment
    from repro.exp.results import encode_outcome
    from repro.exp.runner import run_experiment

    spec = get_experiment("table1").build_spec({"seed": SEED, "runs": runs})
    forked, inproc = [], []
    outcomes: List[Any] = []
    for _ in range(3):      # interleaved: the box drifts
        started = time.perf_counter()
        run_experiment(spec, forkserver=True)
        middle = time.perf_counter()
        outcomes = run_experiment(spec, forkserver=False).outcomes
        inproc.append(time.perf_counter() - middle)
        forked.append(middle - started)
    repeats = 50
    encode_wall = _median_wall(3, lambda: [
        encode_outcome(o) for _ in range(repeats) for o in outcomes])
    return {"fork_overhead_ms_per_run":
            (statistics.median(forked) - statistics.median(inproc))
            / runs * 1e3,
            "encode_us_per_outcome": encode_wall / (repeats * runs) * 1e6}


def ckpt_costs(nodes: int, radix: int) -> Dict[str, float]:
    """``take_snapshot`` / ``restore_snapshot`` of a one-cell closfault
    run paused at 4 ms."""
    from repro.ckpt.capture import canonical_json
    from repro.ckpt.snapshot import restore_snapshot, take_snapshot
    from repro.exp.registry import get_experiment

    spec = get_experiment("closfault").build_spec(
        {"seed": SEED, "scale": "small", "nodes": nodes, "radix": radix})
    started = time.perf_counter()
    snapshot = take_snapshot(spec, 4_000.0, run_index=0)
    taken = time.perf_counter()
    restore_snapshot(snapshot)
    restored = time.perf_counter()
    return {"snapshot_s": taken - started, "restore_s": restored - taken,
            "state_bytes": len(canonical_json(snapshot.capture["state"]))}


def obs_overheads() -> Dict[str, float]:
    """``slo-chaos --scale small`` with telemetry on, and with the
    sampler at 500 us, against the same campaign with both off."""
    params = {"scale": "small"}
    off, telemetry, sampler = [], [], []
    for _ in range(3):      # interleaved: the box drifts
        off.append(_engine_wall("slo-chaos", params))
        telemetry.append(_engine_wall("slo-chaos", params, telemetry=True))
        sampler.append(_engine_wall("slo-chaos", params,
                                    sample_every=500.0))
    base = statistics.median(off)
    return {"telemetry_overhead_ratio": statistics.median(telemetry) / base,
            "sampler_overhead_ratio": statistics.median(sampler) / base}


def run_all(quick: bool) -> Dict[str, float]:
    """Every block-D metric.  ``quick`` shrinks sizes (and the fabrics
    behind the ``.64``/``.256`` names) for the smoke test only."""
    scale = 10 if quick else 1
    big, mid = (32, 16) if quick else (256, 64)
    fabric_big = construct_and_map(big, 8 if big > 16 else 4, repeats=1)
    fabric_mid = construct_and_map(mid, 8 if mid > 16 else 4, repeats=3)
    faults = faults_boot_resume_ms(4 if quick else 12)
    load = load_rates(100_000.0 if quick else 400_000.0)
    plumbing = exp_plumbing(8 if quick else 40)
    ckpt = ckpt_costs(mid, 8 if mid > 16 else 4)
    obs = obs_overheads()
    return {
        "sim.timeouts_per_s": sim_timeouts_per_s(200_000 // scale),
        "sim.wakeups_per_s": sim_wakeups_per_s(100_000 // scale),
        "lanai.instr_per_s": lanai_instr_per_s(100_000 // scale),
        "lanai.retranslate_us": lanai_retranslate_us(200 // scale),
        "hw.sram_alloc_ms": hw_sram_alloc_ms(),
        "gm.pingpong_msgs_per_s": pingpong_msgs_per_s("gm", 400 // scale),
        "ftgm.pingpong_msgs_per_s": pingpong_msgs_per_s("ftgm",
                                                        400 // scale),
        "gm.idle_sim_ms_per_s": idle_sim_ms_per_s("gm", 2e6 / scale),
        "ftgm.idle_sim_ms_per_s": idle_sim_ms_per_s("ftgm", 2e6 / scale),
        "cluster.construct_s.256": fabric_big["construct_s"],
        "net.map_s.256": fabric_big["map_s"],
        "net.map_s.64": fabric_mid["map_s"],
        "netfaults.runs_per_s": netfaults_runs_per_s(1 if quick else 5),
        "faults.boot_ms": faults["boot_ms"],
        "faults.resume_p50_ms": faults["resume_p50_ms"],
        "load.schedule_ops_per_s": load["schedule_ops_per_s"],
        "load.driven_msgs_per_s": load["driven_msgs_per_s"],
        "exp.fork_overhead_ms_per_run": plumbing["fork_overhead_ms_per_run"],
        "exp.encode_us_per_outcome": plumbing["encode_us_per_outcome"],
        "ckpt.snapshot_s.64": ckpt["snapshot_s"],
        "ckpt.restore_s.64": ckpt["restore_s"],
        "ckpt.state_bytes.64": ckpt["state_bytes"],
        "obs.telemetry_overhead_ratio": obs["telemetry_overhead_ratio"],
        "obs.sampler_overhead_ratio": obs["sampler_overhead_ratio"],
    }
