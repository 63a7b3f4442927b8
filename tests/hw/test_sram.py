"""Unit tests for the LANai SRAM model."""

import hashlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import BusError
from repro.hw import Sram


def test_word_roundtrip_big_endian():
    sram = Sram(1024)
    sram.write_word(0, 0x01020304)
    assert sram.read_bytes(0, 4) == b"\x01\x02\x03\x04"
    assert sram.read_word(0) == 0x01020304


def test_word_truncates_to_32_bits():
    sram = Sram(1024)
    sram.write_word(4, 0x1_FFFF_FFFF)
    assert sram.read_word(4) == 0xFFFFFFFF


def test_bytes_roundtrip():
    sram = Sram(1024)
    sram.write_bytes(100, b"hello")
    assert sram.read_bytes(100, 5) == b"hello"


def test_words_roundtrip():
    sram = Sram(1024)
    sram.write_words(0, [1, 2, 3])
    assert sram.read_words(0, 3) == [1, 2, 3]


def test_out_of_bounds_read_raises_bus_error():
    sram = Sram(64)
    with pytest.raises(BusError):
        sram.read_word(64)
    with pytest.raises(BusError):
        sram.read_bytes(60, 8)


def test_negative_address_raises_bus_error():
    sram = Sram(64)
    with pytest.raises(BusError):
        sram.read_word(-4)


def test_out_of_bounds_write_raises_bus_error():
    sram = Sram(64)
    with pytest.raises(BusError):
        sram.write_bytes(62, b"abcd")


def test_clear_zeroes_everything():
    sram = Sram(128)
    sram.write_bytes(0, b"\xff" * 128)
    sram.clear()
    assert sram.read_bytes(0, 128) == b"\x00" * 128


def test_flip_bit_is_involutive():
    sram = Sram(64)
    sram.write_word(0, 0xAAAAAAAA)
    sram.flip_bit(5)
    assert sram.read_word(0) != 0xAAAAAAAA
    sram.flip_bit(5)
    assert sram.read_word(0) == 0xAAAAAAAA


def test_flip_bit_msb_first_convention():
    sram = Sram(64)
    sram.flip_bit(0)  # bit 0 == MSB of byte 0 == MSB of word 0
    assert sram.read_word(0) == 0x80000000


def test_flip_bit_out_of_range():
    sram = Sram(64)
    with pytest.raises(BusError):
        sram.flip_bit(64 * 8)


def test_snapshot_defaults_to_whole_memory():
    sram = Sram(64)
    sram.write_bytes(10, b"xyz")
    snap = sram.snapshot()
    assert len(snap) == 64
    assert snap[10:13] == b"xyz"


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        Sram(0)
    with pytest.raises(ValueError):
        Sram(1023)  # not a word multiple


# -- sparse storage ------------------------------------------------------------

def test_fresh_sram_backs_nothing_and_reads_zero():
    sram = Sram()
    assert sram.size == 2 * 1024 * 1024 and sram.resident == 0
    assert sram.read_word(sram.size - 4) == 0
    assert sram.read_bytes(sram.size - 3, 3) == b"\x00\x00\x00"
    assert sram.resident == 0           # reads never back anything


def test_resident_tracks_highest_byte_written_and_clear_resets_it():
    sram = Sram(1024)
    sram.write_word(8, 0xDEADBEEF)
    assert sram.resident == 12
    sram.flip_bit(100 * 8)
    assert sram.resident == 101
    sram.write_bytes(500, b"")          # an empty write touches no byte
    assert sram.resident == 101
    sram.clear()
    assert sram.resident == 0
    assert sram.read_word(8) == 0


def test_reads_straddling_the_extent_are_zero_padded():
    sram = Sram(64)
    sram.write_bytes(0, b"\x11\x22\x33\x44\x55\x66")
    assert sram.read_word(4) == 0x55660000
    assert sram.read_word(3) == 0x44556600
    assert sram.read_bytes(4, 6) == b"\x55\x66\x00\x00\x00\x00"


@pytest.mark.parametrize("size", [64, 200 * 1024 + 4, 2 * 1024 * 1024])
def test_digest_is_of_the_full_logical_image(size):
    sram, flat = Sram(size), bytearray(size)
    assert sram.ckpt_state()["mem_sha256"] == hashlib.sha256(flat).hexdigest()
    for address, data in ((16, b"firmware"), (size - 1, b"\xff")):
        sram.write_bytes(address, data)
        flat[address:address + len(data)] = data
        assert (sram.ckpt_state()["mem_sha256"]
                == hashlib.sha256(flat).hexdigest())


class _FlatModel:
    """The eager model the sparse one replaced: every byte allocated."""

    def __init__(self, size):
        self.size = size
        self.mem = bytearray(size)
        self.decodes = set()        # cached word addresses
        self.blocks = {}            # block start -> covered word addresses
        self.invalidations = 0
        self.high = 0               # one past the highest byte written

    def check(self, address, length):
        if address < 0 or length < 0 or address + length > self.size:
            raise BusError(address, length)

    def read(self, address, length):
        self.check(address, length)
        return bytes(self.mem[address:address + length])

    def write(self, address, data):
        self.check(address, len(data))
        words = set(range(address & ~3, address + len(data), 4))
        dead = [s for s, covered in self.blocks.items() if words & covered]
        self.invalidations += len(self.decodes & words) + len(dead)
        self.decodes -= words
        for start in dead:
            del self.blocks[start]
        self.mem[address:address + len(data)] = data
        if data:
            self.high = max(self.high, address + len(data))

    def clear(self):
        self.mem = bytearray(self.size)
        self.decodes.clear()
        self.blocks.clear()
        self.high = 0


def _same(real, model):
    """Run both; they must return the same value or the same BusError."""
    try:
        expected = model()
    except BusError as exc:
        with pytest.raises(BusError) as caught:
            real()
        assert (caught.value.address, caught.value.size) == (exc.address,
                                                             exc.size)
    else:
        assert real() == expected


_SIZE = 96
_addresses = st.one_of(st.integers(-8, _SIZE + 8),
                       st.sampled_from([0, _SIZE - 4, _SIZE - 1, _SIZE]))
_words = st.integers(0, 0x1_FFFF_FFFF)


class SparseSramMachine(RuleBasedStateMachine):
    """The sparse SRAM is indistinguishable from a flat ``bytearray(size)``."""

    def __init__(self):
        super().__init__()
        self.sram = Sram(_SIZE)
        self.model = _FlatModel(_SIZE)

    @rule(address=_addresses, data=st.binary(max_size=12))
    def write_bytes(self, address, data):
        _same(lambda: self.sram.write_bytes(address, data),
              lambda: self.model.write(address, data))

    @rule(address=_addresses, value=_words)
    def write_word(self, address, value):
        data = (value & 0xFFFFFFFF).to_bytes(4, "big")
        _same(lambda: self.sram.write_word(address, value),
              lambda: self.model.write(address, data))

    @rule(address=_addresses, values=st.lists(_words, max_size=4))
    def write_words(self, address, values):
        def model():    # word by word: a late BusError keeps the early words
            for i, value in enumerate(values):
                self.model.write(address + 4 * i,
                                 (value & 0xFFFFFFFF).to_bytes(4, "big"))
        _same(lambda: self.sram.write_words(address, values), model)

    @rule(bit=st.integers(-8, _SIZE * 8 + 8))
    def flip_bit(self, bit):
        def model():
            byte, shift = divmod(bit, 8)
            self.model.check(byte, 1)
            self.model.write(byte, bytes([self.model.mem[byte]
                                          ^ (1 << (7 - shift))]))
            return byte
        _same(lambda: self.sram.flip_bit(bit), model)

    @rule()
    def clear(self):
        self.sram.clear()
        self.model.clear()

    @rule(word=st.integers(0, _SIZE // 4 - 1))
    def cache_like_the_interpreter(self, word):
        """A decode at ``word`` and a fused block over the words after it."""
        start = 4 * word
        covered = set(range(start, min(start + 4 * (1 + word % 5), _SIZE), 4))
        self.sram.decode_cache[start] = self.sram.block_cache[start] = "entry"
        for address in covered:
            starts = self.sram.block_index.setdefault(address, [])
            if start not in starts:
                starts.append(start)
        self.model.decodes.add(start)
        self.model.blocks[start] = covered

    @rule(address=_addresses, length=st.integers(-1, 12))
    def read_bytes(self, address, length):
        _same(lambda: self.sram.read_bytes(address, length),
              lambda: self.model.read(address, length))

    @rule(address=_addresses)
    def read_word(self, address):
        _same(lambda: self.sram.read_word(address),
              lambda: int.from_bytes(self.model.read(address, 4), "big"))

    @rule(address=_addresses, count=st.integers(0, 4))
    def read_words(self, address, count):
        _same(lambda: self.sram.read_words(address, count),
              lambda: [int.from_bytes(self.model.read(address + 4 * i, 4),
                                      "big") for i in range(count)])

    @invariant()
    def indistinguishable(self):
        assert self.sram.resident <= self.model.high
        assert self.sram.snapshot() == bytes(self.model.mem)
        assert self.sram.ckpt_state() == {
            "size": _SIZE,
            "mem_sha256": hashlib.sha256(self.model.mem).hexdigest(),
            "invalidations": self.model.invalidations}
        assert set(self.sram.decode_cache) == self.model.decodes
        assert set(self.sram.block_cache) == set(self.model.blocks)


TestSparseSram = SparseSramMachine.TestCase
TestSparseSram.settings = settings(max_examples=150, stateful_step_count=40)
