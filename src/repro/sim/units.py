"""Time unit helpers.

All simulation timestamps and durations in this project are **integer
microseconds**.  Integers keep the event heap exactly ordered and make runs
bit-reproducible across platforms (no floating-point drift when thousands of
30 ms epochs accumulate).

The helpers here convert human-friendly quantities into that base unit.
``ms(1.5)`` and friends accept floats and round to the nearest microsecond.
"""

from __future__ import annotations

#: One microsecond (the base unit).
MICROSECOND: int = 1
#: Microseconds in one millisecond.
MILLISECOND: int = 1_000
#: Microseconds in one second.
SECOND: int = 1_000_000


def us(value: float) -> int:
    """Convert *value* microseconds to integer base units."""
    return int(round(value))


def ms(value: float) -> int:
    """Convert *value* milliseconds to integer microseconds."""
    return int(round(value * MILLISECOND))


def sec(value: float) -> int:
    """Convert *value* seconds to integer microseconds."""
    return int(round(value * SECOND))
