"""JSON text byte-identical to ``json.dumps(doc, indent=2)``, written faster.

``indent`` makes the standard library fall back to its pure-Python
encoder, which visits every leaf separately.  sumrep's reports are mostly
flat columns of numbers or strings and lists of int pairs, so ``dumps``
writes a list whose items all have one leaf type with a single ``join``,
and a list of equal-width int lists, or an ``IntRows`` holding them flat,
with a single ``%`` format.  Anything else is written item by item,
spelled as ``json`` spells it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

_INDENT = "  "


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# leaf writers for a list whose items all have exactly this type
_UNIFORM = {int: int.__repr__, str: _string, float: float.__repr__}


@dataclass(frozen=True)
class IntRows:
    """One or more rows of ``width`` exact ints held as one flat tuple, with
    no list per row: ``IntRows((1, 2, 3, 4), 2)`` is written as
    ``[[1, 2], [3, 4]]``."""

    flat: tuple[int, ...]
    width: int


def _int_rows(rows, inner: str) -> str | None:
    """Equal-width rows of exact ints (no bools), with one ``%d`` format;
    None for any other list of lists."""
    widths = set(map(len, rows))
    flat = tuple(chain.from_iterable(rows))
    if len(widths) != 1 or not flat or set(map(type, flat)) != {int}:
        return None
    return _flat_rows(flat, widths.pop(), inner)


def _flat_rows(flat: tuple[int, ...], width: int, inner: str) -> str:
    deeper = inner + _INDENT
    row = "[" + deeper + ("," + deeper).join(["%d"] * width) + inner + "]"
    return ("," + inner).join([row] * (len(flat) // width)) % flat


def _array(items, newline: str) -> str:
    if not items:
        return "[]"
    inner = newline + _INDENT
    kinds = set(map(type, items))
    kind = kinds.pop() if len(kinds) == 1 else None
    body = None
    if kind in _UNIFORM and (kind is not float or all(map(math.isfinite, items))):
        body = ("," + inner).join(map(_UNIFORM[kind], items))
    elif kind in (list, tuple):
        body = _int_rows(items, inner)
    if body is None:
        body = ("," + inner).join([_value(item, inner) for item in items])
    return "[" + inner + body + newline + "]"


def _value(value, newline: str) -> str:
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, (list, tuple)):
        return _array(value, newline)
    if isinstance(value, IntRows):
        if not value.flat or set(map(type, value.flat)) != {int}:
            raise TypeError("IntRows holds one or more rows of exact ints")
        inner = newline + _INDENT
        return "[" + inner + _flat_rows(value.flat, value.width, inner) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + _INDENT
        body = ("," + inner).join([_key(k) + ": " + _value(v, inner) for k, v in value.items()])
        return "{" + inner + body + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _string(key)


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2)``: the same text, from dicts with str
    keys, lists, tuples, str, int, float, bool and None (an ``IntRows`` is
    written as its list of rows)."""
    return _value(doc, "\n")
