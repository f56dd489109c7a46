"""JSON text byte-identical to ``json.dumps(doc, indent=2)``, written faster.

``indent`` makes the standard library fall back to its pure-Python
encoder, which visits every leaf separately.  sumrep's reports are mostly
flat columns of numbers or strings and lists of int pairs, so ``dumps``
writes a list whose items all have one leaf type with a single ``join``,
and a list of equal-width int lists with a single ``%`` format.  Anything
else is written item by item, spelled as ``json`` spells it.
"""

from __future__ import annotations

import math
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


def _int_rows(rows, inner: str) -> str | None:
    """Equal-width rows of exact ints (no bools), with one ``%d`` format;
    None for any other list of lists."""
    widths = set(map(len, rows))
    flat = list(chain.from_iterable(rows))
    if len(widths) != 1 or not flat or set(map(type, flat)) != {int}:
        return None
    deeper = inner + _INDENT
    row = "[" + deeper + ("," + deeper).join(["%d"] * widths.pop()) + inner + "]"
    return ("," + inner).join([row] * len(rows)) % tuple(flat)


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
    keys, lists, tuples, str, int, float, bool and None."""
    return _value(doc, "\n")
