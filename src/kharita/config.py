"""Configs that check themselves.

A config is a frozen dataclass deriving from Checked. Each numeric
field declares the interval of its values beside its default, as in
``alpha: float = within("[1, inf)", 1.5)``, and construction checks
every such field, so any config that exists is valid. Only an interval
closed at inf admits +inf; NaN lies in no interval. The default sets
the kind: an int default makes an integer field, a None default also
admits None, and a tuple default makes a non-empty tuple of numbers.
"""
from __future__ import annotations

import numbers
from dataclasses import field, fields


def within(interval: str, default):
    """A dataclass field whose values must lie in interval."""
    return field(default=default, metadata={"interval": interval})


def check(name: str, value, interval: str, integral: bool = False) -> None:
    """Raise a ValueError naming name unless value is a number (an
    integer when integral) inside interval, written like "(0, 180]"."""
    lo, hi = (float(b) for b in interval[1:-1].split(","))
    if not (isinstance(value, numbers.Integral if integral else numbers.Real)
            and not isinstance(value, bool)
            and (lo < value or interval[0] == "[" and value == lo)
            and (value < hi or interval[-1] == "]" and value == hi)):
        kind = "an integer" if integral else "a number"
        raise ValueError(f"{name} must be {kind} in {interval}, got {value!r}")


class Checked:
    """Base of the config dataclasses: checks each field declared with
    within once the generated __init__ has set it."""

    def __post_init__(self) -> None:
        for f in fields(self):
            interval = f.metadata.get("interval")
            value = getattr(self, f.name)
            if interval is None or (value is None and f.default is None):
                continue
            values = value if isinstance(f.default, tuple) else (value,)
            if not isinstance(values, tuple) or not values:
                raise ValueError(f"{f.name} must be a non-empty tuple")
            for v in values:
                check(f.name, v, interval, type(f.default) is int)
