"""One validation vocabulary: the checkers every input constructor uses.

Each checker tests that a value lies *inside* its range, so NaN — which
compares false both ways — fails every one of them by construction.
A failure is a ``ValueError`` that names the field
(``"rate must be positive, got nan"``); success returns the value.
Each takes a NumPy array too, and then every element must pass: the
error names the first that does not, by index or, given ``labels``
(one ``(axis name, names)`` pair per axis), by name.  ``inf`` passes
wherever the range holds it; a field that refuses it says
``finite=True`` (or calls :func:`finite`).

Like :mod:`repro.contract`, this module imports nothing from
:mod:`repro`, so every layer may import it.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "finite",
    "integer",
    "non_negative",
    "ordered",
    "percentile",
    "positive",
    "probability",
    "unit_open",
]


def _shown(value):
    """A NumPy scalar as the Python number it holds, for a message."""
    return value.item() if isinstance(value, np.generic) else value


def _require(ok, name, what, value, labels=None):
    """Return ``value`` if ``ok`` holds (everywhere, for an array)."""
    if not isinstance(ok, np.ndarray):
        if not ok:
            raise ValueError(f"{name} must be {what}, got {_shown(value)!r}")
        return value
    if ok.all():
        return value
    at = tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), ok.shape))
    bad = _shown(np.broadcast_to(value, ok.shape)[at])
    if labels is None:
        where = f"index {at[0] if len(at) == 1 else at}"
    else:
        where = ", ".join(
            f"{axis} {names[i]!r}" for (axis, names), i in zip(labels, at)
        )
    raise ValueError(f"{name} must be {what}, got {bad!r} at {where}")


def _in_range(ok, name, what, value, finite, labels):
    if finite:
        ok, what = ok & np.isfinite(value), f"finite and {what}"
    return _require(ok, name, what, value, labels)


def finite(name: str, value, *, labels=None):
    """Neither NaN nor infinite."""
    return _require(np.isfinite(value), name, "finite", value, labels)


def integer(name: str, value, *, minimum=None):
    """An integer (a NumPy one too, or an array of an integer dtype), at
    least ``minimum`` when one is given."""
    ok = isinstance(value, numbers.Integral) or (
        isinstance(value, np.ndarray) and np.issubdtype(value.dtype, np.integer)
    )
    if ok and minimum is not None:
        ok = value >= minimum
    what = "an integer" if minimum is None else f"an integer >= {minimum}"
    return _require(ok, name, what, value)


def positive(name: str, value, *, finite: bool = False, labels=None):
    """Greater than zero."""
    return _in_range(value > 0, name, "positive", value, finite, labels)


def non_negative(name: str, value, *, finite: bool = False, labels=None):
    """Zero or greater."""
    return _in_range(value >= 0, name, "non-negative", value, finite, labels)


def probability(name: str, value, *, labels=None):
    """In the closed unit interval ``[0, 1]``."""
    return _require((value >= 0) & (value <= 1), name, "in [0, 1]", value, labels)


def percentile(name: str, value):
    """A percentile: in ``[0, 100]``."""
    return _require((value >= 0) & (value <= 100), name, "in [0, 100]", value)


def unit_open(name: str, value):
    """In the open unit interval ``(0, 1)``."""
    return _require((value > 0) & (value < 1), name, "in (0, 1)", value)


def ordered(low_name: str, low, high_name: str, high, *, strict: bool = True):
    """``high`` above ``low`` (or equal to it, unless ``strict``).

    ``low`` is a field checked already, a named bound, or a constant
    whose name is its value (``ordered("1", 1.0, ...)``).
    """
    ok = high > low if strict else high >= low
    what = f"{'greater than' if strict else 'at least'} {low_name}"
    if low_name != f"{low:g}":
        what += f" ({_shown(low)!r})"
    return _require(ok, high_name, what, high)
