"""Declared numeric ranges for configuration fields, checked in one place.

A numeric field of an option dataclass declares its range once, as
``window_seconds: float = POSITIVE.field(30.0)``, and the class's
``__post_init__`` calls :func:`check_fields`.  A value outside the range
raises ``ValueError("window_seconds must be positive and finite, got nan")``.
Rules that relate two fields (``queue_low < queue_high``) stay hand-written
next to that call.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

__all__ = [
    "Range",
    "check_fields",
    "POSITIVE",
    "NON_NEGATIVE",
    "FINITE",
    "UNIT",
    "AT_LEAST_0",
    "AT_LEAST_1",
]

_METADATA_KEY = "range"


@dataclasses.dataclass(frozen=True)
class Range:
    """The numbers between ``lo`` and ``hi``; each bound is closed unless open.

    Membership is one chained comparison over the bounds made closed, so NaN
    always fails it and ±inf passes only through a closed infinite bound.
    ``integer`` marks a count: it words a closed zero bound "at least 0"
    rather than "non-negative" and makes :meth:`parse` read an ``int``;
    integrality itself is not checked.
    """

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False
    integer: bool = False

    def __post_init__(self) -> None:
        # No float or int lies strictly between an open bound and the nearest
        # float inside it, so that float closes the bound exactly.
        least = math.nextafter(self.lo, math.inf) if self.lo_open else self.lo
        most = math.nextafter(self.hi, -math.inf) if self.hi_open else self.hi
        if not least <= most:
            raise ValueError(f"empty range {self!r}")
        object.__setattr__(self, "_least", least)
        object.__setattr__(self, "_most", most)

    def __contains__(self, value: Any) -> bool:
        return self._least <= value <= self._most

    def __str__(self) -> str:
        if self.lo == -math.inf and self.hi == math.inf and self.lo_open and self.hi_open:
            return "finite"
        if self.hi < math.inf or self.lo == -math.inf:
            left, right = "(" if self.lo_open else "[", ")" if self.hi_open else "]"
            return f"in {left}{self.lo:g}, {self.hi:g}{right}"
        if self.lo == 0 and not self.integer:
            text = "positive" if self.lo_open else "non-negative"
        else:
            text = f"{'greater than' if self.lo_open else 'at least'} {self.lo:g}"
        return f"{text} and finite" if self.hi_open else text

    def check(self, value: Any, name: str) -> Any:
        """Return ``value``, or raise ``ValueError`` naming ``name`` if it is outside."""
        if not self._least <= value <= self._most:
            raise ValueError(f"{name} must be {self}, got {value!r}")
        return value

    def field(self, default: Any = dataclasses.MISSING) -> Any:
        """A dataclass field with this range; a ``None`` default makes ``None`` valid."""
        return dataclasses.field(default=default, metadata={_METADATA_KEY: self})

    def parse(self, text: str) -> Any:
        """An ``argparse`` ``type``: the number ``text`` holds, checked against this range."""
        import argparse

        kind = int if self.integer else float
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if value not in self:
            raise argparse.ArgumentTypeError(f"must be {self}")
        return value


def check_fields(obj: Any) -> None:
    """Check each field of dataclass ``obj`` that declares a :class:`Range`."""
    for f in dataclasses.fields(obj):
        declared = f.metadata.get(_METADATA_KEY)
        if declared is not None:
            value = getattr(obj, f.name)
            if value is not None or f.default is not None:
                declared.check(value, f.name)


#: Durations, rates, sizes and prices that must be above zero.
POSITIVE = Range(0.0, math.inf, lo_open=True, hi_open=True)
#: Delays, costs and rates that may be zero.
NON_NEGATIVE = Range(0.0, math.inf, hi_open=True)
#: Any number but NaN and ±inf, such as a seed or an exponent.
FINITE = Range(-math.inf, math.inf, lo_open=True, hi_open=True)
#: Probabilities and fractions.
UNIT = Range(0.0, 1.0)
#: Counts and sizes where 0 means none.
AT_LEAST_0 = Range(0, math.inf, hi_open=True, integer=True)
#: Counts, budgets and factors of at least one.
AT_LEAST_1 = Range(1, math.inf, hi_open=True, integer=True)
