"""LANai local SRAM.

The Myrinet host interface stores the Myrinet Control Program (MCP) and
its packet buffers in fast local SRAM (512 KB - 8 MB on real cards; the
LANai9 PCI64B boards in the paper carry 2 MB).  We model it as a flat
byte-addressable array with 32-bit big-endian word access — the LANai is
a big-endian processor — plus bounds checking that raises
:class:`~repro.errors.BusError`, which is how a corrupted firmware address
turns into a processor hang.

Storage is sparse: the backing ``bytearray`` grows to the highest byte
ever written (:attr:`Sram.resident`) and every byte above it reads as
zero, so a card costs what its firmware wrote, not 2 MB.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from ..errors import BusError

__all__ = ["Sram", "WORD_SIZE"]

WORD_SIZE = 4
_ZEROS = bytes(64 * 1024)    # digest feed for the unwritten tail


class Sram:
    """Byte-addressable memory with word (32-bit, big-endian) accessors."""

    def __init__(self, size: int = 2 * 1024 * 1024):
        if size <= 0 or size % WORD_SIZE:
            raise ValueError("SRAM size must be a positive multiple of 4")
        self.size = size
        # Bytes [0, len) are backed; [len, size) were never written and
        # read as zero.
        self._mem = bytearray()
        # Decoded-instruction cache, owned by the memory so that *every*
        # write path invalidates the stale decode — a bit flip injected
        # through any of these APIs must corrupt all subsequent
        # executions until the MCP is reloaded (persistent-flip
        # semantics of the paper's SWIFI experiments).  Keys are word
        # addresses; values are opaque to the SRAM (the LANai
        # interpreter stores compiled entries).
        self.decode_cache: dict = {}
        # Fused basic-block cache (same ownership rationale): start
        # address -> translated straight-line run, with a word-address ->
        # [block starts] reverse index so a write landing *anywhere*
        # inside a translated block (stores, DMA, firmware reload,
        # flip_bit) drops the whole block, not just the word's decode.
        # Values are opaque to the SRAM; the LANai interpreter stores
        # ``(n_instr, cycles, fns, end_pc)`` tuples or a None marker
        # meaning "translated, nothing to fuse here".
        self.block_cache: dict = {}
        self.block_index: dict = {}
        self.invalidations = 0   # decode/block cache entries dropped

    @property
    def resident(self) -> int:
        """Bytes currently backed: one past the highest byte ever written."""
        return len(self._mem)

    def _check(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.size:
            raise BusError(address, length, what="SRAM")

    def _grow(self, address: int, length: int) -> None:
        """Back (zero-filled) the bytes a non-empty write is about to touch."""
        short = address + length - len(self._mem)
        if length and short > 0:
            self._mem.extend(bytes(short))

    def _invalidate(self, address: int, length: int) -> None:
        """Drop cached decodes and fused blocks overlapping the write."""
        cache = self.decode_cache
        index = self.block_index
        if not cache and not index:
            return
        blocks = self.block_cache
        before = len(cache) + len(blocks)
        start = address & ~3
        end = address + length
        if end - start <= 4 * (len(cache) + len(index)):
            for word in range(start, end, WORD_SIZE):
                cache.pop(word, None)
                starts = index.pop(word, None)
                if starts:
                    for block_start in starts:
                        blocks.pop(block_start, None)
        else:  # bulk write (e.g. firmware image): scan the caches instead
            for word in [w for w in cache if start <= w < end]:
                del cache[word]
            for word in [w for w in index if start <= w < end]:
                for block_start in index.pop(word):
                    blocks.pop(block_start, None)
        self.invalidations += before - (len(cache) + len(blocks))

    # -- byte access ---------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        self._check(address, length)
        return bytes(self._mem[address:address + length]).ljust(length, b"\0")

    def write_bytes(self, address: int, data: bytes) -> None:
        self._check(address, len(data))
        self._invalidate(address, len(data))
        self._grow(address, len(data))
        self._mem[address:address + len(data)] = data

    # -- word access -----------------------------------------------------------

    def read_word(self, address: int) -> int:
        """Read an unsigned 32-bit big-endian word."""
        self._check(address, WORD_SIZE)
        word = self._mem[address:address + WORD_SIZE]
        if len(word) < WORD_SIZE:       # at or straddling the extent
            word = word.ljust(WORD_SIZE, b"\0")
        return int.from_bytes(word, "big")

    def write_word(self, address: int, value: int) -> None:
        self._check(address, WORD_SIZE)
        self._invalidate(address, WORD_SIZE)
        self._grow(address, WORD_SIZE)
        self._mem[address:address + WORD_SIZE] = (
            value & 0xFFFFFFFF).to_bytes(WORD_SIZE, "big")

    def read_words(self, address: int, count: int) -> list:
        return [self.read_word(address + i * WORD_SIZE) for i in range(count)]

    def write_words(self, address: int, values: Iterable[int]) -> None:
        for i, value in enumerate(values):
            self.write_word(address + i * WORD_SIZE, value)

    # -- bulk operations -------------------------------------------------------

    def clear(self) -> None:
        """Zero the whole SRAM (the FTD does this before reloading the MCP)."""
        self._mem.clear()
        self.decode_cache.clear()
        self.block_cache.clear()
        self.block_index.clear()

    def flip_bit(self, bit_offset: int) -> int:
        """Flip a single bit; returns the byte address touched.

        This is the fault-injection primitive: the paper flips random bits
        in the ``send_chunk`` section of the MCP code segment.  The flip
        goes through the same invalidation as a write: a cached decode of
        the corrupted word must not survive it.
        """
        byte_addr, bit = divmod(bit_offset, 8)
        self._check(byte_addr, 1)
        self._invalidate(byte_addr, 1)
        self._grow(byte_addr, 1)
        self._mem[byte_addr] ^= 1 << (7 - bit)  # bit 0 = MSB, matching BE words
        return byte_addr

    def snapshot(self, address: int = 0, length: Optional[int] = None) -> bytes:
        """Copy of a region (defaults to the whole SRAM)."""
        if length is None:
            length = self.size - address
        return self.read_bytes(address, length)

    def ckpt_state(self) -> dict:
        """Snapshot contract: the bytes (as a digest) and write accounting.

        The digest is of the full logical image (resident bytes, then
        zeros up to ``size``), so it does not depend on where the extent
        is.  The decode/block caches are deliberately absent: they are pure
        functions of the memory content, dropped by a checkpoint and
        rebuilt lazily as the restored interpreter re-executes — caching
        state must never make two captures of identical memory unequal.
        """
        digest = hashlib.sha256(self._mem)
        for tail in range(self.size - len(self._mem), 0, -len(_ZEROS)):
            digest.update(_ZEROS[:tail])
        return {
            "size": self.size,
            "mem_sha256": digest.hexdigest(),
            "invalidations": self.invalidations,
        }
