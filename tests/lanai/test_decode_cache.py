"""The decoded-instruction cache must never mask a memory write.

The interpreter caches compiled instructions keyed by PC; the cache is
owned by the SRAM so that *every* write path — ``write_word``,
``write_bytes``, ``write_words``, and crucially the fault injector's
``flip_bit`` — drops the stale decode.  These tests prove the paper's
persistent-flip semantics survive the cache: a flipped bit corrupts
every subsequent execution until the MCP is reloaded.
"""

import pytest

from repro.errors import InvalidInstruction
from repro.exp.registry import get_experiment
from repro.faults.injector import InjectionConfig
from repro.hw.sram import Sram
from repro.lanai import isa
from repro.lanai.bus import MemoryBus
from repro.lanai.cpu import LanaiCpu
from repro.sim import Simulator

ENTRY = 0x100


def _assemble(words):
    Ins = isa.Instruction
    ops = isa.BY_MNEMONIC
    return [isa.encode(w) for w in words(Ins, ops)]


def _program():
    """addi r1,r0,5 ; addi r2,r1,7 ; jr r15  — leaves r2 = 12."""
    return _assemble(lambda Ins, ops: [
        Ins(ops["addi"], rd=1, ra=0, imm=5),
        Ins(ops["addi"], rd=2, ra=1, imm=7),
        Ins(ops["jr"], ra=15),
    ])


def _machine():
    sim = Simulator()
    sram = Sram(64 * 1024)
    sram.write_words(ENTRY, _program())
    cpu = LanaiCpu(sim, MemoryBus(sram))
    return sim, sram, cpu


def _run(sim, cpu, entry=ENTRY):
    outcomes = []

    def proc():
        outcome = yield from cpu.run_routine(entry, fuel=1000)
        outcomes.append(outcome)

    sim.spawn(proc())
    sim.run()
    return outcomes[0]


def _invalidating_bit(word, word_addr):
    """A ``flip_bit`` offset that turns ``word`` into an invalid opcode."""
    for j in range(32):
        flipped = word ^ (1 << (31 - j))
        try:
            isa.decode(flipped, word_addr)
        except InvalidInstruction:
            return word_addr * 8 + j
    pytest.skip("no single-bit flip of this word is invalid")


def test_execution_populates_cache_and_flip_evicts():
    sim, sram, cpu = _machine()
    assert _run(sim, cpu).ok
    assert cpu.regs[2] == 12
    assert set(sram.decode_cache) == {ENTRY, ENTRY + 4, ENTRY + 8}

    # Flip a bit in the *second* instruction only: its entry must go,
    # its neighbours must stay.
    sram.flip_bit((ENTRY + 4) * 8 + 31)
    assert (ENTRY + 4) not in sram.decode_cache
    assert ENTRY in sram.decode_cache
    assert (ENTRY + 8) in sram.decode_cache


def test_flip_corrupts_every_subsequent_execution():
    """Persistent-flip semantics: the corruption outlives CPU resets."""
    sim, sram, cpu = _machine()
    assert _run(sim, cpu).ok  # warm the cache with the healthy decode
    bit = _invalidating_bit(sram.read_word(ENTRY + 4), ENTRY + 4)
    sram.flip_bit(bit)

    outcome = _run(sim, cpu)
    assert outcome.status == "hung"
    assert outcome.reason == "invalid-instruction"
    assert outcome.pc == ENTRY + 4

    # A CPU reset clears the hang latch but not the SRAM: the fault is
    # in memory, so it must strike again (no healthy cached decode may
    # resurrect the original instruction).
    cpu.reset()
    again = _run(sim, cpu)
    assert again.status == "hung"
    assert again.reason == "invalid-instruction"

    # Only rewriting the word (the MCP reload path) heals it.
    cpu.reset()
    sram.write_words(ENTRY, _program())
    healed = _run(sim, cpu)
    assert healed.ok
    assert cpu.regs[2] == 12


def test_every_write_path_invalidates():
    sim, sram, cpu = _machine()
    assert _run(sim, cpu).ok
    cache = sram.decode_cache
    nop = isa.encode(isa.Instruction(isa.BY_MNEMONIC["nop"]))

    sram.write_word(ENTRY, nop)
    assert ENTRY not in cache

    sram.write_words(ENTRY + 4, [nop])
    assert (ENTRY + 4) not in cache

    # An unaligned byte write must evict the word it lands in.
    assert (ENTRY + 8) in cache
    sram.write_bytes(ENTRY + 9, b"\x00")
    assert (ENTRY + 8) not in cache

    sram.write_words(ENTRY, _program())
    assert _run(sim, cpu).ok
    assert cache
    sram.clear()
    assert not cache


def test_injector_flip_reaches_interpreted_firmware():
    """End to end: a fixed-offset flip through a ``table1`` run must
    corrupt the cached ``send_chunk`` decode mid-campaign."""
    from repro.cluster import build_cluster

    cluster = build_cluster(2, flavor="gm", interpreted_nodes=[0], seed=99)
    firmware = cluster[0].mcp.firmware
    start, end = firmware.send_chunk_extent
    # Find a send_chunk word whose single-bit flip is an invalid opcode.
    target = None
    for addr in range(start, end, 4):
        word = cluster[0].nic.sram.read_word(addr)
        for j in range(32):
            try:
                isa.decode(word ^ (1 << (31 - j)), addr)
            except InvalidInstruction:
                target = (addr - start) * 8 + j
                break
        if target is not None:
            break
    assert target is not None, "send_chunk has no invalidating flip?"

    config = InjectionConfig(run_id=0, seed=1234,
                             messages=6, inject_after_messages=3,
                             bit_offset=target)
    run_one = get_experiment("table1").run_one
    outcome = run_one(config)
    # send_chunk ran (and was cached) three times before the flip; the
    # fourth execution must see the corrupted word and hang the LANai.
    assert outcome.local_hung
    assert "invalid-instruction" in (outcome.hang_reason or "")
    # Hermetic runs are reproducible.
    assert run_one(config) == outcome
