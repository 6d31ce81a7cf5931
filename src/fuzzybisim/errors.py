"""Shared exception types, and the JSON decoding both file parsers share."""

import json


class InputError(ValueError):
    """Malformed or out-of-contract input: files, literals, identifiers."""


class NonConvergenceError(RuntimeError):
    """A fixpoint computation hit its iteration cap before stabilizing."""


def decode_json(text: str, what: str):
    """json.loads, with bad syntax, nesting past the recursion limit and
    integers past the int/str digit limit raised as InputError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed {what} JSON: {exc}") from exc
