"""Unit tests for the fault-surface analyzer."""

import pytest

from repro.errors import InvalidInstruction
from repro.faults.outcomes import Category, InjectionOutcome
from repro.faults.surface import (
    FieldKind,
    analyze_surface,
    classify_bit,
)
from repro.lanai import build_firmware, decode, isa


@pytest.fixture(scope="module")
def firmware():
    return build_firmware()


class TestClassifyBit:
    def test_bit_zero_is_opcode_of_first_instruction(self, firmware):
        field, line = classify_bit(firmware, 0)
        assert field == FieldKind.OPCODE
        assert "lui" in line

    def test_opcode_field_spans_six_bits(self, firmware):
        for bit in range(6):
            field, _ = classify_bit(firmware, bit)
            assert field == FieldKind.OPCODE
        field, _ = classify_bit(firmware, 6)
        assert field != FieldKind.OPCODE

    def test_i_format_low_bits_are_immediate(self, firmware):
        # First instruction is `lui r14, MMIO_HI` (I-format): bits
        # 14..31 of the word (offsets 14..31 from MSB) are immediate.
        field, _ = classify_bit(firmware, 31)
        assert field == FieldKind.IMMEDIATE

    def test_every_bit_in_section_classifiable(self, firmware):
        start, end = firmware.send_chunk_extent
        kinds = set()
        for bit in range(0, (end - start) * 8, 7):
            field, line = classify_bit(firmware, bit)
            assert field in FieldKind.ORDER
            kinds.add(field)
        # The section exercises at least opcode/register/immediate.
        assert {FieldKind.OPCODE, FieldKind.REGISTER,
                FieldKind.IMMEDIATE} <= kinds

    def test_nop_pad_bits_classified_as_pad(self, firmware):
        start, end = firmware.send_chunk_extent
        base = firmware.program.base
        code = firmware.program.code
        for off in range(start - base, end - base, 4):
            word = int.from_bytes(code[off:off + 4], "big")
            if decode(word).op.mnemonic == "nop":
                # Bit 18 from MSB lies in the R-format pad.
                bit = (off - (start - base)) * 8 + 20
                field, _ = classify_bit(firmware, bit)
                assert field == FieldKind.PAD
                return
        pytest.fail("no nop found in send_chunk")

    def test_data_word_classifies_as_immediate(self, firmware, monkeypatch):
        def invalid(word, pc=0):
            raise InvalidInstruction(word, pc)
        monkeypatch.setattr(isa, "decode", invalid)
        field, _ = classify_bit(firmware, 20)
        assert field == FieldKind.IMMEDIATE

    def test_decoder_bug_propagates(self, firmware, monkeypatch):
        def broken(word, pc=0):
            raise RuntimeError("decoder bug")
        monkeypatch.setattr(isa, "decode", broken)
        with pytest.raises(RuntimeError, match="decoder bug"):
            classify_bit(firmware, 20)


class TestSurfaceReport:
    def _outcome(self, bit, category):
        out = InjectionOutcome(run_id=0, bit_offset=bit, injected_at=0.0)
        out.category = category
        return out

    def test_analyze_counts_by_field(self, firmware):
        outcomes = [self._outcome(0, Category.LOCAL_HANG),
                    self._outcome(1, Category.NO_IMPACT),
                    self._outcome(31, Category.CORRUPTED)]
        report = analyze_surface(outcomes, firmware)
        assert report.total == 3
        assert report.field_total(FieldKind.OPCODE) == 2
        assert report.field_total(FieldKind.IMMEDIATE) == 1
        assert report.rate(FieldKind.OPCODE, Category.LOCAL_HANG) \
            == pytest.approx(0.5)

    def test_rate_of_empty_field_is_zero(self, firmware):
        report = analyze_surface([], firmware)
        assert report.rate(FieldKind.PAD, Category.NO_IMPACT) == 0.0

    def test_render_mentions_fields(self, firmware):
        outcomes = [self._outcome(0, Category.LOCAL_HANG)]
        text = analyze_surface(outcomes, firmware).render()
        assert "opcode" in text
        assert "field" in text
