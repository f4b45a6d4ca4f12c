"""DDR2 SDRAM device model: timing, banks, legality kernel, refresh."""

from .bank import Bank
from .commands import Command, CommandType
from .dram_system import DramSystem
from .timing import DDR2Timing

__all__ = [
    "Bank",
    "Command",
    "CommandType",
    "DramSystem",
    "DDR2Timing",
]
