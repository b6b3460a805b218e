"""Exception types shared across the package."""

from __future__ import annotations


class GhaError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatch(GhaError):
    """Operands live in different coefficient fields."""


class NoEmbedding(GhaError):
    """The requested field embedding does not exist."""


class DegreeCapExceeded(GhaError):
    """An operation would produce a polynomial above the degree cap."""


class UnsupportedCase(GhaError):
    """Input violates a precondition of the requested operation."""


class ParseError(GhaError):
    """Syntax error carrying the offset and the expected tokens.

    pos counts code points of the text, not bytes of its UTF-8 encoding:
    in "é²" the "²" is at offset 1, though its bytes start at 2.
    """

    def __init__(self, pos: int, expected: "Iterable[str]", found: str = ""):
        self.pos = pos
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(self.expected))
        got = f", found {found!r}" if found else ", found end of input"
        super().__init__(f"syntax error at offset {pos}: expected {exp}{got}")
