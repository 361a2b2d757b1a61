"""Argument-validation helpers.

Raising early with a precise message is cheaper than debugging a fluid
simulation that silently produced NaNs three layers up.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

T = TypeVar("T")


def require(cond: bool, message: str) -> None:
    """Raise ``ValueError`` with *message* unless *cond* holds."""
    if not cond:
        raise ValueError(message)


def check_positive(name: str, value: float) -> float:
    """Validate that *value* is a finite number > 0 and return it."""
    if not (value > 0):  # also rejects NaN
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if value != value or value in (float("inf"),):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate that *value* is a finite number >= 0 and return it."""
    if not (value >= 0):
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    if value != value or value == float("inf"):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Validate that *value* lies in [0, 1] and return it."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_index(name: str, value: int, length: int) -> int:
    """Validate that *value* is a valid index into a sequence of *length*."""
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not (0 <= value < length):
        raise IndexError(f"{name}={value} out of range [0, {length})")
    return value


def check_choice(name: str, value: T, choices: Iterable[T]) -> T:
    """Validate that *value* is one of *choices* and return it."""
    allowed = tuple(choices)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value


def check_power_of_two(name: str, value: int) -> int:
    """Validate that *value* is a positive power of two and return it."""
    if not isinstance(value, int) or value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")
    return value
