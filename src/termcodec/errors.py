"""Exception types and the argument checks shared across the codecs."""

from __future__ import annotations

__all__ = ["CodecError", "ParseError", "SignatureError"]


class CodecError(ValueError):
    """An input outside the domain of a codec operation."""


class ParseError(CodecError):
    """Malformed term or signature text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


class SignatureError(CodecError):
    """A signature violating one of its invariants."""


def check_min(op: str, what: str, value: int, least: int) -> None:
    """Raise CodecError unless value is an int (bool counts) >= least."""
    if not isinstance(value, int):
        raise CodecError(f"{op}: {what} must be an integer (got {value!r})")
    if value < least:
        raise CodecError(f"{op}: {what} must be >= {least} (got {value})")


def check_iterable(op: str, what: str, value) -> list | tuple:
    """value if a list or tuple, else its items listed once; CodecError unless iterable."""
    if isinstance(value, (list, tuple)):
        return value
    try:
        items = iter(value)
    except TypeError:
        raise CodecError(f"{op}: {what} must be iterable (got {value!r})") from None
    return list(items)
