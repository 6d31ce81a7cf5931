"""Shared exception types, the JSON decoding and object shape check the file
readers share, and the one writer every JSON text the package prints or
serializes goes through.  A reader checks the shape of what it decodes; the
constructor it hands the values to checks the values."""

import json
import reprlib
from json.encoder import encode_basestring_ascii as _quote


class InputError(ValueError):
    """Malformed or out-of-contract input: files, literals, identifiers."""


class NonConvergenceError(RuntimeError):
    """A fixpoint computation hit its iteration cap before stabilizing."""


def decode_json(text: str, what: str):
    """json.loads, with bad syntax, repeated keys, nesting past the recursion
    limit and integers past the int/str digit limit raised as InputError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed {what} JSON: {exc}") from exc


def encode_json(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, for dicts with string keys,
    lists, strings, bools, None and ints; TypeError on anything else.  The
    standard library's C encoder never runs with an indent, so this one quotes
    strings with it and joins each container once."""
    return _encode(obj, "\n")


def _encode(obj, newline: str) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, int):
        return json.dumps(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{_quote(key)}: {_encode(value, inner)}" for key, value in obj.items()]
    elif isinstance(obj, list):
        brackets = "[]"
        items = [_encode(value, inner) for value in obj]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{newline}{brackets[1]}"


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        key = next(key for key, _value in pairs if key in seen or seen.add(key))
        raise InputError(f"repeated key {key!r}")
    return obj


def check_object(obj, fields, what: str) -> None:
    """Raise InputError unless obj is a dict whose keys are exactly fields (a set)."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be an object, got {reprlib.repr(obj)}")
    if obj.keys() != fields:
        unknown = obj.keys() - fields
        if unknown:
            raise InputError(f"{what} has unknown fields {sorted(unknown)}")
        raise InputError(f"{what} is missing fields {sorted(fields - obj.keys())}")
