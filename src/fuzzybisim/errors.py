"""Shared exception types, and the JSON decoding both file parsers share."""

import json


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


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        key = next(key for key, _value in pairs if key in seen or seen.add(key))
        raise InputError(f"repeated key {key!r}")
    return obj
