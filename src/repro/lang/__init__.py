"""Green-Marl language frontend: lexer, parser, AST, types, type checker."""

from .errors import (
    GreenMarlError,
    LexError,
    NotPregelCanonicalError,
    ParseError,
    Span,
    TransformError,
    TranslationError,
    TypeCheckError,
)
from .lexer import tokenize
from .parser import parse_procedure, parse_program
from .pretty import pretty

__all__ = [
    "GreenMarlError",
    "LexError",
    "NotPregelCanonicalError",
    "ParseError",
    "Span",
    "TransformError",
    "TranslationError",
    "TypeCheckError",
    "tokenize",
    "parse_procedure",
    "parse_program",
    "pretty",
]
