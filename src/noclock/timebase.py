"""Exact time arithmetic: rational reference time, integer local-time grids.

Reference (real) time is exact: scenario times and trace records carry it as
`fractions.Fraction`, and the kernel counts it in int ticks of one per-run
grid (`kernel.tick_grid`), so clock-rate integration and threshold inversion
are exact.  Everything a node's protocol logic touches is an integer count of
a per-scenario grid unit, which keeps the hot paths in plain int arithmetic.
Clock readings outside threshold events are floored to the coarser read
quantum before the protocol sees them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional


def frac(x) -> Fraction:
    """Exact Fraction from int/str/Fraction/float-free decimal strings.

    Decimal strings parse exactly ("1.1" -> 11/10); floats are rejected to
    keep scenario round-trips exact, and a zero denominator is a ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if type(x) is int:           # not a bool, which is an int to Python
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"expected int/str/Fraction, got {type(x).__name__}: {x!r}")


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


class LocalGrid:
    """Integer grid for local-time values.

    `unit` divides both the read quantum and every schedulable protocol
    constant, so thresholds, timeouts and quantized readings are all exact
    integers.  Comparison bounds that need no exact representation are turned
    into integer bounds by `floor_units`, which serves both `x <= b` and
    `x > b` comparisons.
    """

    def __init__(self, unit: Fraction, quantum: Fraction):
        if quantum % unit != 0:
            raise ValueError("read quantum must be a multiple of the grid unit")
        self.unit = unit
        self.quantum = quantum
        self.q_units = int(quantum / unit)

    def to_units(self, value: Fraction) -> int:
        """Exact conversion; raises if the value is off-grid."""
        r = frac(value) / self.unit
        if r.denominator != 1:
            raise ValueError(f"{value} is not a multiple of grid unit {self.unit}")
        return r.numerator

    def from_units(self, units: int) -> Fraction:
        return units * self.unit

    def ceil_units(self, value: Fraction) -> int:
        r = frac(value) / self.unit
        return -((-r.numerator) // r.denominator)

    def floor_units(self, value: Fraction) -> int:
        """Integer b' with: units <= b' iff units*unit <= value (so also
        units > b' iff units*unit > value)."""
        r = frac(value) / self.unit
        return r.numerator // r.denominator


def expired(deadline: Optional[int], now: int) -> bool:
    """Whether a local-time deadline register is unset or has passed."""
    return deadline is None or now >= deadline


def mod_signed(delta: int, modulus: int) -> int:
    """Signed nearest representative of `delta` mod `modulus`, in (-M/2, M/2]."""
    half = modulus // 2
    return (delta + half - 1) % modulus - half + 1


def mod_near(a: int, b: int, band: int, modulus: int) -> bool:
    """Whether a and b are within `band` of each other on the clock circle."""
    return abs(mod_signed(a - b, modulus)) <= band
