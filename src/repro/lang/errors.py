"""Source locations and compiler diagnostics for the Green-Marl frontend.

Every token and AST node carries a :class:`Span` so that later phases
(type checking, canonicality analysis, transformation failures) can point
at the offending source text, exactly like the paper's compiler reports an
error when a program cannot be made Pregel-canonical.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Span:
    """A half-open region of source text: [start, end) with 1-based line/col."""

    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0

    @staticmethod
    def point(line: int, col: int) -> "Span":
        return Span(line, col, line, col + 1)

    def merge(self, other: "Span") -> "Span":
        """Smallest span covering both ``self`` and ``other``."""
        if other.is_unknown():
            return self
        if self.is_unknown():
            return other
        lo = min((self.line, self.col), (other.line, other.col))
        hi = max((self.end_line, self.end_col), (other.end_line, other.end_col))
        return Span(lo[0], lo[1], hi[0], hi[1])

    def is_unknown(self) -> bool:
        return self.line == 0

    def __str__(self) -> str:
        if self.is_unknown():
            return "<unknown>"
        return f"{self.line}:{self.col}"


UNKNOWN_SPAN = Span()


class MissingArgument(ValueError):
    """A scalar procedure parameter the caller passed no value for."""

    def __init__(self, name: str):
        super().__init__(f"missing scalar argument '{name}'")
        self.name = name


class BadArgument(ValueError):
    """A scalar procedure argument its parameter's declared type cannot take."""

    def __init__(self, name: str, expected: str, value):
        super().__init__(f"scalar argument '{name}' must be {expected}, got {value!r}")
        self.name = name


class GreenMarlError(Exception):
    """Base class for every diagnostic the compiler raises."""

    def __init__(self, message: str, span: Span = UNKNOWN_SPAN, *, hint: str | None = None):
        self.message = message
        self.span = span
        self.hint = hint
        super().__init__(self.render())

    def render(self, source: str | None = None, filename: str = "<input>") -> str:
        """Human-readable diagnostic, with a source excerpt when available."""
        head = f"{filename}:{self.span}: {self.kind()}: {self.message}"
        parts = [head]
        if source is not None and not self.span.is_unknown():
            lines = source.splitlines()
            if 1 <= self.span.line <= len(lines):
                text = lines[self.span.line - 1]
                parts.append("  " + text)
                width = max(1, self.span.end_col - self.span.col) if self.span.end_line == self.span.line else 1
                parts.append("  " + " " * (self.span.col - 1) + "^" * width)
        if self.hint:
            parts.append(f"  hint: {self.hint}")
        return "\n".join(parts)

    def kind(self) -> str:
        return "error"


class LexError(GreenMarlError):
    def kind(self) -> str:
        return "lex error"


class ParseError(GreenMarlError):
    def kind(self) -> str:
        return "parse error"


class TypeCheckError(GreenMarlError):
    def kind(self) -> str:
        return "type error"


class TransformError(GreenMarlError):
    """A Green-Marl→Green-Marl rewrite could not be applied soundly."""

    def kind(self) -> str:
        return "transform error"


class NotPregelCanonicalError(GreenMarlError):
    """Raised when a program violates the Pregel-canonical conditions of §3.2
    and no transformation rule is known to repair it (paper §4.1: "Otherwise,
    the compiler reports an error")."""

    def kind(self) -> str:
        return "not pregel-canonical"


class TranslationError(GreenMarlError):
    """Internal inconsistency while translating canonical Green-Marl to Pregel IR."""

    def kind(self) -> str:
        return "translation error"
