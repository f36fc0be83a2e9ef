"""Shared exception hierarchy and the checks of outside input.

The command line maps these onto exit codes: malformed input is exit 2,
domain violations on otherwise well-formed input are exit 3. Numerical
warnings never raise; they travel as flags on result objects instead.
"""

import json


class DelayexpError(Exception):
    """Base class for every error raised by this package."""


class BadInputError(DelayexpError):
    """Malformed input: bad matrices, files, or config payloads."""


class DomainError(DelayexpError):
    """Structurally valid input outside an operation's domain."""


def _read_json(path, what: str):
    """The JSON value in file ``path``; ``what`` names the file in a refusal."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadInputError(f"cannot read {what}: {exc}") from exc


def _json_object(payload, what: str, keys, required) -> dict:
    """``payload`` if an object with each key of ``required`` and none outside ``keys``."""
    if not isinstance(payload, dict):
        raise BadInputError(f"{what} must be a JSON object")
    for problem, names in (("has unknown", set(payload) - set(keys)),
                           ("is missing", set(required) - set(payload))):
        if names:
            raise BadInputError(f"{what} {problem} keys: {sorted(map(str, names))}")
    return payload


def _is_number(value, kinds=(int, float)) -> bool:
    """Whether ``value`` is of ``kinds`` but no bool, as JSON true and false load."""
    return isinstance(value, kinds) and not isinstance(value, bool)
