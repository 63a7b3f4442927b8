"""A runaway into unwritten SRAM is retired arithmetically, bit for bit.

SRAM above the written extent reads as zero and word 0 is a 1-cycle
``nop``, so ``run_routine`` advances ``pc``/``executed``/``cycles`` to
the next time flush without decoding, fusing or caching anything.  Every
test here runs the same routine twice: on a *sparse* machine, where the
runaway lands above the extent, and on a *written* machine, where the
same region was explicitly written with zero words (so it is below the
extent and takes the per-instruction/fused-block path that was the only
one before).  Outcome, simulated clock, busy time and the exact sequence
of scheduled timeouts must be identical.
"""

import pytest

from repro.exp.registry import get_experiment
from repro.exp.results import encode_outcome
from repro.hw.sram import Sram
from repro.lanai import isa
from repro.lanai.bus import MemoryBus
from repro.lanai.cpu import _TIME_CHUNK, CYCLE_US, LanaiCpu
from repro.sim import Simulator

ENTRY = 0x100
SIZE = 64 * 1024
TARGET = 0x1000          # where the runaway lands: r1, taken by ``jr r1``

_OPS = isa.BY_MNEMONIC
HALT = isa.encode(isa.Instruction(_OPS["halt"]))
RETURN = isa.encode(isa.Instruction(_OPS["jr"], ra=15))
INVALID = 0xFC00_0000    # opcode 0x3F is a gap in the table


def _program(prefix, target):
    """``prefix`` fused ``addi``s, then ``jr r1`` into the wild (or, with
    no target, nothing: execution falls off the end of the firmware)."""
    addi = isa.Instruction(_OPS["addi"], rd=2, ra=2, imm=1)
    jump = isa.Instruction(_OPS["jr"], ra=1)
    return [isa.encode(addi)] * prefix + [isa.encode(jump)] * (
        target is not None)


class _Machine:
    def __init__(self, prefix, written, target=TARGET):
        self.sim = Simulator()
        self.sram = Sram(SIZE)
        program = _program(prefix, target)
        self.sram.write_words(ENTRY, program)
        self.program_end = ENTRY + 4 * len(program)
        if written:     # zero words to the end: all of it below the extent
            self.sram.write_bytes(self.program_end,
                                  bytes(SIZE - self.program_end))
        self.cpu = LanaiCpu(self.sim, MemoryBus(self.sram))
        self.target = target
        self.delays = []
        schedule = self.sim.timeout

        def counting_timeout(delay, value=None):
            self.delays.append(delay)
            return schedule(delay, value)
        self.sim.timeout = counting_timeout

    def at(self, when, action):
        """Run ``action(machine)`` at simulated time ``when``."""
        def proc():
            yield self.sim.timeout_at(when)
            action(self)
        self.sim.spawn(proc())

    def run(self, fuel):
        outcomes = []

        def proc():
            outcomes.append((yield from self.cpu.run_routine(
                ENTRY, args={1: self.target or 0}, fuel=fuel)))
        self.sim.spawn(proc())
        self.sim.run()
        outcome = outcomes[0]
        return {
            "outcome": (outcome.status, outcome.reason, outcome.pc,
                        outcome.instructions, outcome.faulting_word),
            "hang": (self.cpu.hung, self.cpu.hang_reason, self.cpu.pc),
            "retired": self.cpu.instructions_retired,
            "now": self.sim.now,
            "busy_time": self.cpu.busy_time,
            "delays": self.delays,
        }


def _run_both(prefix, fuel, target=TARGET, setup=None):
    """Run both machines; (sparse, written, the result they agree on)."""
    machines = [_Machine(prefix, written, target) for written in (False, True)]
    for machine in machines:
        if setup is not None:
            setup(machine)
    result = machines[0].run(fuel)
    assert result == machines[1].run(fuel)
    return machines[0], machines[1], result


def _cached(machine):
    return set(machine.sram.decode_cache) | set(machine.sram.block_cache)


# The sled starts after prefix+1 instructions, so these put its first step
# at the start, the middle, one short of and exactly on a flush boundary.
PREFIXES = [0, 1, 200, _TIME_CHUNK - 2, _TIME_CHUNK - 1, _TIME_CHUNK]


@pytest.mark.parametrize("prefix", PREFIXES)
@pytest.mark.parametrize("fuel", [
    5000, 10 * _TIME_CHUNK, 10 * _TIME_CHUNK + 1, 10 * _TIME_CHUNK - 1])
def test_runaway_burns_the_fuel_budget(prefix, fuel):
    machine, written, result = _run_both(prefix, fuel)
    assert result["outcome"] == (
        "hung", "infinite-loop", TARGET + 4 * (fuel - prefix - 1), fuel, None)
    assert result["now"] == pytest.approx(fuel * CYCLE_US)
    assert len(result["delays"]) == fuel // _TIME_CHUNK + 1
    # Nothing above the firmware was decoded, fused or cached ...
    assert max(_cached(machine)) < machine.program_end
    assert machine.cpu.blocks_translated <= prefix // 64 + 1   # the prefix
    assert machine.sram.resident == machine.program_end
    # ... where the written machine translated the whole sled.
    assert max(_cached(written)) >= TARGET + 4 * (fuel - prefix - 1) - 4 * 64


@pytest.mark.parametrize("prefix", [1, 2, 63, 64, 65, 200])
def test_falling_off_the_end_of_the_firmware(prefix):
    """The last block is translated across the extent, so a few cached
    ``nop`` decodes sit above it; the sled starts where they stop."""
    fuel = 3000
    machine, _written, result = _run_both(prefix, fuel, target=None)
    assert result["outcome"] == (
        "hung", "infinite-loop", ENTRY + 4 * fuel, fuel, None)
    assert max(_cached(machine)) < machine.program_end + 4 * 2 * 64
    assert machine.sram.resident == machine.program_end


@pytest.mark.parametrize("fuel", [1, 2, 3])
def test_fuel_running_out_at_the_first_sled_steps(fuel):
    _run_both(0, fuel)
    _run_both(1, fuel)


@pytest.mark.parametrize("prefix", PREFIXES)
@pytest.mark.parametrize("room", [1, 2, 63, 64, 65, _TIME_CHUNK, 1000])
def test_sled_reaching_the_end_of_sram_is_out_of_bounds(prefix, room):
    machine, _written, result = _run_both(prefix, 20000, SIZE - 4 * room)
    assert result["outcome"] == (
        "hung", "pc-out-of-bounds", SIZE, prefix + 1 + room, None)
    assert max(_cached(machine)) < machine.program_end
    assert machine.sram.resident == machine.program_end


def test_fuel_and_sram_end_together_report_the_loop():
    room = 300
    _machine, _written, result = _run_both(0, room + 1, SIZE - 4 * room)
    assert result["outcome"][:3] == ("hung", "infinite-loop", SIZE)


@pytest.mark.parametrize("word, expected", [
    (HALT, ("hung", "halt-instruction")),
    (INVALID, ("hung", "invalid-instruction")),
    (RETURN, ("done", None)),
])
@pytest.mark.parametrize("gap", [0, 1, 63, 64, 700])
def test_nops_below_a_written_word_run_into_it(word, expected, gap):
    """The gap under a write is backed with zeros: the ordinary path."""
    machine, written, result = _run_both(
        3, 20000, setup=lambda m: m.sram.write_word(TARGET + 4 * gap, word))
    assert result["outcome"][:2] == expected
    assert result["outcome"][2] == (
        0xFFFF_FFFC if word == RETURN else TARGET + 4 * gap)
    assert _cached(machine) == _cached(written)
    assert machine.cpu.blocks_translated == written.cpu.blocks_translated


# 2.5 flushes in: the routine has retired three chunks and is parked.
PARKED_AT = 2.5 * _TIME_CHUNK * CYCLE_US
PARKED_PC = TARGET + 4 * (3 * _TIME_CHUNK - 4)     # prefix 3 + the jr


@pytest.mark.parametrize("word, expected", [
    (HALT, ("hung", "halt-instruction")),
    (INVALID, ("hung", "invalid-instruction")),
    (RETURN, ("done", None)),
])
@pytest.mark.parametrize("ahead", [0, 1, 40, 64, 2000])
def test_write_above_pc_while_parked_at_a_flush_is_executed(
        word, expected, ahead):
    address = PARKED_PC + 4 * ahead

    def setup(machine):
        def write(m):
            assert m.cpu.pc == PARKED_PC
            m.sram.write_word(address, word)
        machine.at(PARKED_AT, write)

    machine, _written, result = _run_both(3, 20000, setup=setup)
    assert result["outcome"][:2] == expected
    assert result["outcome"][3] == 3 * _TIME_CHUNK + ahead + (
        word != INVALID)
    # The stretch the sled crossed before the write left nothing behind.
    assert not [a for a in _cached(machine)
                if machine.program_end <= a < PARKED_PC]


def test_write_below_pc_while_parked_does_not_stop_the_sled():
    def setup(machine):
        machine.at(PARKED_AT,
                   lambda m: m.sram.write_word(PARKED_PC - 8, HALT))

    machine, _written, result = _run_both(3, 5000, setup=setup)
    assert result["outcome"][:2] == ("hung", "infinite-loop")
    assert machine.sram.resident == PARKED_PC - 4


def test_card_clear_while_parked_keeps_the_interpreter_on_the_live_extent():
    """The extent is asked for again after every flush: a reset-and-rewrite
    while parked is seen, never an extent remembered from before it."""
    def setup(machine):
        def reset(m):
            m.sram.clear()
            m.sram.write_word(PARKED_PC + 400, HALT)
        machine.at(PARKED_AT, reset)

    machine, _written, result = _run_both(3, 20000, setup=setup)
    assert result["outcome"][:3] == ("hung", "halt-instruction",
                                     PARKED_PC + 400)
    assert machine.sram.resident == PARKED_PC + 404


def test_table1_runaway_run_keeps_its_outcome_and_translates_nothing():
    """Campaign seed 19, run 144: a flipped ``beq`` in ``send_chunk`` jumps
    into unwritten SRAM.  It used to decode 300 055 words into 4 783
    identical 64-``nop`` blocks (1.2 s, 115 MB) to reach this outcome."""
    exp = get_experiment("table1")
    config = exp.expand(exp.build_spec({"seed": 19, "runs": 200}))[144]
    cluster = exp.boot(config)
    outcome = encode_outcome(exp.resume(cluster, config))
    assert outcome == {
        "__type__": "InjectionOutcome", "run_id": 144, "bit_offset": 1007,
        "injected_at": 418.20000000000005,
        "faulting_source_line": "beq  r8, r0, sc_lowpri",
        "category": "Local Interface Hung",
        "local_hung": True, "hang_reason": "lanai-hang:infinite-loop",
        "remote_hung": False, "mcp_restarts": 0, "host_crashed": False,
        "messages_expected": 16, "messages_delivered_ok": 3,
        "messages_corrupted": 0, "sends_errored": 0,
        "workload_completed": False, "watchdog_fired": False,
        "recovery_attempted": False, "recovered_fully": False}
    cpus = [node.driver.mcp.cpu for node in cluster.nodes
            if node.driver.mcp.cpu is not None]
    assert sum(cpu.blocks_translated for cpu in cpus) <= 64
    assert sum(len(node.nic.sram.decode_cache)
               for node in cluster.nodes) <= 1024
    assert max(node.nic.sram.resident for node in cluster.nodes) < 64 * 1024
