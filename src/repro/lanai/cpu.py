"""The LANai RISC core interpreter.

The CPU executes firmware routines on demand: GM's MCP is event-driven,
so the dispatch loop (modelled natively for speed) invokes routines such
as ``send_chunk`` at an entry point and the routine returns via ``jr r15``
to a sentinel link address.  The interpreter:

* charges simulated time per instruction (132 MHz core clock, matching
  LANai9);
* turns decode failures and bus errors into a **hung** processor — once
  hung, the core never executes again until the card is reset and the
  MCP reloaded, exactly the failure mode the paper's watchdog detects;
* detects runaway loops with an instruction-budget guard ("fuel") and
  classifies them as hangs too (an infinitely looping LANai and a
  stopped LANai are indistinguishable from the host);
* reports a **restart** when control reaches the reset vector (address
  0) — Table 1's rare "MCP Restart" outcome.

Blocking device reads (a read handler returning an Event) park the CPU on
the event, modelling a spin-wait without simulating each poll.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..errors import BusError, InvalidInstruction
from ..sim import Event, Simulator, Tracer
from . import isa
from .bus import MemoryBus

__all__ = ["LanaiCpu", "RoutineOutcome", "CYCLE_US", "RETURN_SENTINEL"]

CYCLE_US = 1.0 / 132.0       # LANai9 runs at 132 MHz
RETURN_SENTINEL = 0xFFFF_FFFC  # link value meaning "routine complete"
_TIME_CHUNK = 512            # instructions per simulated-time flush
_BLOCK_CAP = 64              # longest straight-line run fused into a block


@dataclass
class RoutineOutcome:
    """Result of one ``run_routine`` invocation."""

    status: str                  # "done" | "hung" | "restart"
    reason: Optional[str] = None
    pc: int = 0
    instructions: int = 0
    faulting_word: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "done"


class LanaiCpu:
    """Interpreter state: 16 registers, a PC, and a hang latch."""

    def __init__(self, sim: Simulator, bus: MemoryBus,
                 tracer: Optional[Tracer] = None, name: str = "lanai"):
        self.sim = sim
        self.bus = bus
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.name = name
        self.regs = [0] * isa.NUM_REGS
        self.pc = 0
        self.hung = False
        self.hang_reason: Optional[str] = None
        self.instructions_retired = 0
        self.busy_time = 0.0
        self.block_hits = 0          # fused-block fast-path executions
        self.blocks_translated = 0   # straight-line runs compiled

    def reset(self) -> None:
        """Power-on state (cleared by card reset + MCP reload)."""
        self.regs = [0] * isa.NUM_REGS
        self.pc = 0
        self.hung = False
        self.hang_reason = None

    def ckpt_state(self) -> dict:
        """Snapshot contract: architectural state plus retire accounting.

        The fused-block counters (``block_hits``/``blocks_translated``)
        are cache effectiveness metrics, not architectural state — a
        restore drops the caches, so they are excluded for the same
        reason the SRAM excludes its decode caches.
        """
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "hung": self.hung,
            "hang_reason": self.hang_reason,
            "instructions_retired": self.instructions_retired,
            "busy_time": self.busy_time,
        }

    def _hang(self, reason: str, pc: int) -> None:
        self.hung = True
        self.hang_reason = reason
        self.tracer.emit(self.sim.now, self.name, "lanai_hang",
                         reason=reason, pc=pc)

    @staticmethod
    def _translate_block(sram, cache, pc: int):
        """Translate the straight-line fusable run starting at ``pc``.

        Decodes forward until the first non-fusable instruction, invalid
        word, SRAM end or :data:`_BLOCK_CAP`; a terminating branch/jump
        (TERMINATOR_KINDS) is folded into the block so a whole loop body
        becomes one generated superinstruction.  The fused block — or a
        ``None`` "nothing to fuse" marker for trivial runs — is
        registered in the SRAM-owned block cache, and every covered word
        (terminator included) is entered into the SRAM's block index so
        *any* write path (stores, DMA, firmware reload, ``flip_bit``)
        invalidates the whole block.

        Blocks execute atomically inside one generator step of
        :meth:`run_routine` (fused runs contain no yield points), so a
        write can only land between executions — where the cache lookup
        re-checks — never mid-block.
        """
        fusable = isa.FUSABLE_KINDS
        terminators = isa.TERMINATOR_KINDS
        sram_size = sram.size
        run = []
        tail = None
        scan = pc
        while len(run) < _BLOCK_CAP and scan < sram_size:
            word = sram.read_word(scan)
            try:
                instr = isa.decode(word, scan)
            except InvalidInstruction:
                break
            entry = cache.get(scan)
            if entry is None:
                entry = isa.compile_instruction(instr)
                cache[scan] = entry
            kind = entry[0]
            if kind not in fusable:
                if kind in terminators:
                    tail = (instr, entry)
                break
            run.append((instr, entry))
            scan += 4
        index = sram.block_index
        if not run or (len(run) < 2 and tail is None):
            block = None            # marker: translated, nothing to fuse
            covered = range(pc, pc + 4)
        else:
            block = isa.compile_run(run, tail, scan, scan)
            covered = range(pc, scan + (4 if tail is not None else 0), 4)
        sram.block_cache[pc] = block
        for word_addr in covered:
            starts = index.get(word_addr)
            if starts is None:
                index[word_addr] = [pc]
            elif pc not in starts:
                starts.append(pc)
        return block

    def run_routine(self, entry: int, args: Optional[Dict[int, int]] = None,
                    fuel: int = 20000) -> Generator:
        """Process: execute from ``entry`` until ``jr r15`` (sentinel).

        ``args`` preloads registers (e.g. a pointer to the token block).
        Returns a :class:`RoutineOutcome`; on a hang the CPU latch is set
        and subsequent invocations return immediately.
        """
        if self.hung:
            return RoutineOutcome("hung", self.hang_reason, self.pc)
        self.regs = [0] * isa.NUM_REGS
        if args:
            for reg, value in args.items():
                self.regs[reg] = value & 0xFFFFFFFF
        self.regs[15] = RETURN_SENTINEL
        self.pc = entry
        executed = 0
        cycles = 0
        regs = self.regs
        bus = self.bus
        sram = bus.sram
        sram_size = sram.size
        # The decode cache is owned by the SRAM: any write through the
        # SRAM API (including injected bit flips and DMA landing mid
        # spin-wait) drops the stale entry, so the next fetch re-decodes
        # the corrupted word — persistent-flip semantics preserved.  The
        # block cache rides the same ownership: a write anywhere inside
        # a fused run drops the whole block via the SRAM's block index.
        cache = sram.decode_cache
        cache_get = cache.get
        bcache = sram.block_cache
        bcache_get = bcache.get
        translate = self._translate_block
        timeout = self.sim.timeout
        K_EXEC = isa.KIND_EXEC
        K_BRANCH = isa.KIND_BRANCH
        K_LOAD = isa.KIND_LOAD
        K_STORE = isa.KIND_STORE
        K_JUMP = isa.KIND_JUMP
        K_JAL = isa.KIND_JAL
        K_JR = isa.KIND_JR
        K_NOP = isa.KIND_NOP
        hits = 0
        try:
            while True:
                if executed >= fuel:
                    yield timeout(cycles * CYCLE_US)
                    self.busy_time += cycles * CYCLE_US
                    self._hang("infinite-loop", self.pc)
                    return RoutineOutcome("hung", "infinite-loop", self.pc,
                                          executed)
                pc = self.pc
                if pc == 0:
                    yield timeout(cycles * CYCLE_US)
                    self.busy_time += cycles * CYCLE_US
                    self.tracer.emit(self.sim.now, self.name, "mcp_restart", pc=pc)
                    return RoutineOutcome("restart", "jumped-to-reset-vector",
                                          pc, executed)
                if pc == RETURN_SENTINEL:
                    yield timeout(cycles * CYCLE_US)
                    self.busy_time += cycles * CYCLE_US
                    self.instructions_retired += executed
                    return RoutineOutcome("done", pc=pc, instructions=executed)
                if pc % 4 or not 0 <= pc < sram_size:
                    yield timeout(cycles * CYCLE_US)
                    self.busy_time += cycles * CYCLE_US
                    self._hang("pc-out-of-bounds", pc)
                    return RoutineOutcome("hung", "pc-out-of-bounds", pc, executed)
                # Fused-block fast path: execute a whole straight-line run in
                # one dispatch when it fits inside the current fuel budget
                # and time chunk (otherwise the per-instruction path below
                # reproduces the exact hang/flush semantics).
                blk = bcache_get(pc)
                if blk is not None:
                    n, blk_cycles, fn = blk
                    if (n <= _TIME_CHUNK - executed % _TIME_CHUNK
                            and executed + n <= fuel):
                        self.pc = fn(regs)
                        executed += n
                        cycles += blk_cycles
                        hits += 1
                        if executed % _TIME_CHUNK == 0:
                            yield timeout(cycles * CYCLE_US)
                            self.busy_time += cycles * CYCLE_US
                            cycles = 0
                        continue
                entry_ = cache_get(pc)
                if entry_ is None:
                    if pc >= sram.resident:
                        # Nop sled: SRAM above the written extent reads as
                        # zero and word 0 is a 1-cycle nop, so instead of
                        # decoding it retire the run to the next flush, fuel
                        # exhaustion or SRAM end arithmetically (the loop
                        # head then hangs it exactly as it would have),
                        # fusing and caching nothing.
                        n = min(_TIME_CHUNK - executed % _TIME_CHUNK,
                                fuel - executed, (sram_size - pc) >> 2)
                        self.pc = pc + 4 * n
                        executed += n
                        cycles += n
                        if executed % _TIME_CHUNK == 0:
                            yield timeout(cycles * CYCLE_US)
                            self.busy_time += cycles * CYCLE_US
                            cycles = 0
                        continue
                    word = sram.read_word(pc)
                    try:
                        entry_ = isa.compile_instruction(isa.decode(word, pc))
                    except InvalidInstruction:
                        yield timeout(cycles * CYCLE_US)
                        self.busy_time += cycles * CYCLE_US
                        self._hang("invalid-instruction", pc)
                        return RoutineOutcome("hung", "invalid-instruction", pc,
                                              executed, faulting_word=word)
                    cache[pc] = entry_
                kind, op_cycles, arg = entry_
                if (kind == K_EXEC or kind == K_NOP) and blk is None \
                        and pc not in bcache:
                    # Fusable instruction with no block translated here yet —
                    # includes jumps into the middle of an already-decoded
                    # region.  Translate, then retry via the fast path.
                    if translate(sram, cache, pc) is not None:
                        self.blocks_translated += 1
                        continue
                executed += 1
                cycles += op_cycles
                next_pc = pc + 4
                if kind == K_EXEC:
                    arg(regs)
                elif kind == K_BRANCH:
                    next_pc = arg(regs, pc)
                elif kind == K_LOAD:
                    rd, ra, imm = arg
                    addr = (regs[ra] + imm) & 0xFFFFFFFF
                    try:
                        result = bus.read_word(addr)
                    except BusError as exc:
                        yield timeout(cycles * CYCLE_US)
                        self.busy_time += cycles * CYCLE_US
                        self._hang("bus-error:0x%x" % exc.address, pc)
                        return RoutineOutcome("hung", "bus-error", pc, executed)
                    if isinstance(result, Event):
                        yield timeout(cycles * CYCLE_US)
                        self.busy_time += cycles * CYCLE_US
                        cycles = 0
                        result = yield result
                    regs[rd] = int(result) & 0xFFFFFFFF
                elif kind == K_STORE:
                    rd, ra, imm = arg
                    addr = (regs[ra] + imm) & 0xFFFFFFFF
                    try:
                        block = bus.write_word(addr, regs[rd])
                    except BusError as exc:
                        yield timeout(cycles * CYCLE_US)
                        self.busy_time += cycles * CYCLE_US
                        self._hang("bus-error:0x%x" % exc.address, pc)
                        return RoutineOutcome("hung", "bus-error", pc, executed)
                    if isinstance(block, Event):
                        yield timeout(cycles * CYCLE_US)
                        self.busy_time += cycles * CYCLE_US
                        cycles = 0
                        yield block
                elif kind == K_JUMP:
                    next_pc = arg
                elif kind == K_JAL:
                    regs[15] = pc + 4
                    next_pc = arg
                elif kind == K_JR:
                    next_pc = regs[arg]
                elif kind == K_NOP:
                    pass
                else:  # KIND_HALT
                    yield timeout(cycles * CYCLE_US)
                    self.busy_time += cycles * CYCLE_US
                    self._hang("halt-instruction", pc)
                    return RoutineOutcome("hung", "halt-instruction", pc,
                                          executed)
                regs[0] = 0  # r0 is hardwired to zero
                self.pc = next_pc & 0xFFFFFFFF
                if executed % _TIME_CHUNK == 0:
                    yield timeout(cycles * CYCLE_US)
                    self.busy_time += cycles * CYCLE_US
                    cycles = 0
        finally:
            # Flushed once per routine (incl. kill mid-yield on
            # card reset), keeping the fast path free of
            # attribute traffic.
            self.block_hits += hits
