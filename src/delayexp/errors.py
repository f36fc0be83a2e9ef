"""Shared exception hierarchy and the checks of outside input.

The command line maps these onto exit codes: malformed input is exit 2,
domain violations on otherwise well-formed input are exit 3. Numerical
warnings never raise; they travel as flags on result objects instead.
"""

import json
import math
import os
from numbers import Integral, Real

# The largest int64, the largest count numpy sizes an array with.
_SIZE_MAX = (1 << 63) - 1


class DelayexpError(Exception):
    """Base class for every error raised by this package."""


class BadInputError(DelayexpError):
    """Malformed input: bad matrices, files, or config payloads."""


class DomainError(DelayexpError):
    """Structurally valid input outside an operation's domain."""


def _read_json(path, what: str):
    """The JSON value in file ``path``; ``what`` names the file in a refusal."""
    if not isinstance(path, (str, bytes, os.PathLike)):  # open() reads, then closes, an int fd
        raise BadInputError(f"cannot read {what}: {type(path).__name__} is not a path")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad text or JSON
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


def _number(value, what: str, lo=-math.inf, hi=math.inf, ends="[)", *, integer=False,
            error=DomainError, kind=BadInputError):
    """``value`` as a float, or an int under ``integer``, if between ``lo`` and ``hi``,
    each end closed or open as the brackets ``ends`` write it. NaN or a number out of
    range raises ``error``; a value not a Python or numpy number, a bool, or a non-integer
    where an integer is due raises ``kind``, unless out of range (a Python bool counts as 0
    or 1, an int past the float range as an infinity where a float is due)."""
    if type(value) is (int if integer else float) and lo < value < hi:  # inside, any ends
        return value
    real = isinstance(value, Real)
    try:
        x = float(value) if real and not integer else value
    except OverflowError:  # an int past the float range
        x = math.inf if value > 0 else -math.inf
    inside = real and (lo < x if ends[0] == "(" else lo <= x) and (
        x < hi if ends[1] == ")" else x <= hi)
    if inside and not isinstance(value, bool) and (not integer or isinstance(value, Integral)):
        return int(value) if integer else x
    span = "" if lo == -math.inf and hi == math.inf else f" in {ends[0]}{lo}, {hi}{ends[1]}"
    # Python refuses to print an int of more than 4,300 digits.
    shown = repr(value) if not isinstance(value, int) or value.bit_length() < 14_000 else (
        f"an int of {value.bit_length()} bits")
    raise (kind if inside or not real else error)(
        f"{what} must be {'an integer' if integer else 'a number'}{span}, got {shown}")


def _seed(value, what: str = "seed") -> int:
    """``value`` as a random seed: an int >= 0, refused as malformed input otherwise."""
    return _number(value, what, 0, integer=True, error=BadInputError)
