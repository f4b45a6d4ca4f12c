"""Physical-address to SDRAM-coordinate mapping.

Implements the XOR bank mapping of Lin et al. [HPCA'01] used by the
paper: the bank index is XORed with the low-order row bits so that
strided streams that would otherwise camp on one bank spread across
all banks, while row locality within a bank is preserved.

Address layout (most-significant to least-significant):

    | row | rank | bank | column | channel | line offset |

Channel bits sit just above the line offset, so consecutive cache
lines interleave across channels (maximum bandwidth spreading) while
each channel still sees sequential columns within a row.  The paper's
evaluation is single-channel (channel bits absent); multi-channel
support is this reproduction's future-work extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple


def _log2_exact(value: int, name: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class AddressMap:
    """Maps line-aligned physical addresses to (rank, bank, row, column).

    Attributes:
        line_bytes: Cache-line size in bytes (offset bits).
        num_ranks / num_banks: Memory topology (powers of two).
        columns_per_row: Cache lines per SDRAM row (row-buffer size /
            line size).  A 2KB page of 64-byte lines has 32 columns.
        num_channels: Independent memory channels (line-interleaved).
        xor_bank: Enable the XOR bank-index permutation.
    """

    line_bytes: int = 64
    num_ranks: int = 1
    num_banks: int = 8
    columns_per_row: int = 32
    num_channels: int = 1
    xor_bank: bool = True

    def __post_init__(self) -> None:
        _log2_exact(self.line_bytes, "line_bytes")
        _log2_exact(self.num_ranks, "num_ranks")
        _log2_exact(self.num_banks, "num_banks")
        _log2_exact(self.columns_per_row, "columns_per_row")
        _log2_exact(self.num_channels, "num_channels")

    # Field widths are computed on first use and then read as plain
    # instance attributes: channel_of and decode run on every request.

    @cached_property
    def offset_bits(self) -> int:
        return _log2_exact(self.line_bytes, "line_bytes")

    @cached_property
    def channel_bits(self) -> int:
        return _log2_exact(self.num_channels, "num_channels")

    @cached_property
    def column_bits(self) -> int:
        return _log2_exact(self.columns_per_row, "columns_per_row")

    @cached_property
    def bank_bits(self) -> int:
        return _log2_exact(self.num_banks, "num_banks")

    @cached_property
    def rank_bits(self) -> int:
        return _log2_exact(self.num_ranks, "num_ranks")

    @cached_property
    def channel_mask(self) -> int:
        return self.num_channels - 1

    def channel_of(self, address: int) -> int:
        """The memory channel serving ``address``."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        return (address >> self.offset_bits) & self.channel_mask

    def decode(self, address: int) -> Tuple[int, int, int, int]:
        """Decode a physical byte address to (rank, bank, row, column).

        Channel bits are stripped: the coordinates are within the
        channel identified by :meth:`channel_of`.
        """
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        line = address >> (self.offset_bits + self.channel_bits)
        column = line & (self.columns_per_row - 1)
        line >>= self.column_bits
        bank = line & (self.num_banks - 1)
        line >>= self.bank_bits
        rank = line & (self.num_ranks - 1)
        line >>= self.rank_bits
        row = line
        if self.xor_bank:
            bank ^= row & (self.num_banks - 1)
        return rank, bank, row, column

    def encode(
        self, rank: int, bank: int, row: int, column: int, channel: int = 0
    ) -> int:
        """Inverse of :meth:`decode`; returns the line's byte address."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range")
        if not 0 <= bank < self.num_banks:
            raise ValueError(f"bank {bank} out of range")
        if not 0 <= column < self.columns_per_row:
            raise ValueError(f"column {column} out of range")
        if not 0 <= channel < self.num_channels:
            raise ValueError(f"channel {channel} out of range")
        if row < 0:
            raise ValueError(f"row {row} out of range")
        if self.xor_bank:
            bank ^= row & (self.num_banks - 1)
        line = row
        line = (line << self.rank_bits) | rank
        line = (line << self.bank_bits) | bank
        line = (line << self.column_bits) | column
        line = (line << self.channel_bits) | channel
        return line << self.offset_bits
