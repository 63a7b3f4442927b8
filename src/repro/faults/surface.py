"""Fault-surface analysis: which bits break what.

The Table 1 campaign flips random bits; this module explains the
distribution by attributing every injected bit to the instruction
*field* it lives in (opcode / register selector / immediate / don't-care
pad) and the firmware *region* (hot path, checksum loop, diagnostics,
cold path), then cross-tabulating field × outcome.  Stott et al. (the
FTCS'97 study the paper compares against) did this kind of breakdown for
the original Myrinet; it is also the evidence for our EXPERIMENTS.md
claim that the category split tracks the ISA's encoding density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import InvalidInstruction
from ..lanai import isa
from ..lanai.firmware import Firmware, build_firmware
from .outcomes import CATEGORY_ORDER, InjectionOutcome

__all__ = ["FieldKind", "classify_bit", "SurfaceReport", "analyze_surface"]


class FieldKind:
    OPCODE = "opcode"
    REGISTER = "register"
    IMMEDIATE = "immediate"
    PAD = "pad (don't care)"

    ORDER = [OPCODE, REGISTER, IMMEDIATE, PAD]


def classify_bit(firmware: Firmware, bit_offset: int) -> Tuple[str, str]:
    """(field kind, source line) for a bit offset into send_chunk.

    Bit numbering matches :meth:`Sram.flip_bit`: bit 0 is the MSB of the
    section's first byte, i.e. bit 31 of the first instruction word.
    """
    start, end = firmware.send_chunk_extent
    byte_addr = start + bit_offset // 8
    word_addr = byte_addr - byte_addr % 4
    word = int.from_bytes(
        firmware.program.code[word_addr - firmware.program.base:
                              word_addr - firmware.program.base + 4],
        "big")
    # Position within the 32-bit word, MSB-first: bit 31 is the MSB.
    bit_in_word = 31 - (bit_offset % 8 + (byte_addr - word_addr) * 8)
    line = firmware.source_line(word_addr)
    try:
        instr = isa.decode(word)
    except InvalidInstruction:
        return FieldKind.IMMEDIATE, line  # data word (none in practice)
    fmt = instr.op.fmt
    if bit_in_word >= 26:
        return FieldKind.OPCODE, line
    if fmt == isa.Format.R:
        if bit_in_word >= 14:
            return FieldKind.REGISTER, line
        return FieldKind.PAD, line
    if fmt == isa.Format.I:
        if bit_in_word >= 18:
            return FieldKind.REGISTER, line
        return FieldKind.IMMEDIATE, line
    if fmt == isa.Format.B:
        if bit_in_word >= 18:
            return FieldKind.REGISTER, line
        return FieldKind.IMMEDIATE, line
    return FieldKind.IMMEDIATE, line  # J-format: all target bits


@dataclass
class SurfaceReport:
    """field-kind x outcome-category contingency table."""

    table: Dict[str, Dict[str, int]]
    total: int

    def field_total(self, field: str) -> int:
        return sum(self.table.get(field, {}).values())

    def rate(self, field: str, category: str) -> float:
        total = self.field_total(field)
        if not total:
            return 0.0
        return self.table[field].get(category, 0) / total

    def render(self) -> str:
        short = {c: c.split()[0] for c in CATEGORY_ORDER}
        lines = ["Fault surface: outcome distribution by corrupted "
                 "instruction field (%d runs)" % self.total,
                 "%-18s %6s | %s" % ("field", "flips", " ".join(
                     "%9s" % short[c] for c in CATEGORY_ORDER))]
        for field in FieldKind.ORDER:
            total = self.field_total(field)
            if not total:
                continue
            cells = " ".join("%8.0f%%" % (100 * self.rate(field, c))
                             for c in CATEGORY_ORDER)
            lines.append("%-18s %6d | %s" % (field, total, cells))
        return "\n".join(lines)


def analyze_surface(outcomes: List[InjectionOutcome],
                    firmware: Firmware = None) -> SurfaceReport:
    """Cross-tabulate a campaign's outcomes by corrupted field."""
    firmware = firmware or build_firmware()
    table: Dict[str, Dict[str, int]] = {}
    for outcome in outcomes:
        field, _line = classify_bit(firmware, outcome.bit_offset)
        table.setdefault(field, {})
        table[field][outcome.category] = \
            table[field].get(outcome.category, 0) + 1
    return SurfaceReport(table, len(outcomes))
