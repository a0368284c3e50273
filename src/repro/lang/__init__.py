"""Front end for the W2-like Warp source language.

Public surface:

- :func:`parse_text` / :func:`parse_source` — lex + parse into an AST module
- :func:`check_module` — semantic analysis (phase 1's second half)
- :class:`DiagnosticSink` / :class:`CompileError` — error reporting
- AST node classes in :mod:`repro.lang.ast_nodes`
- the type system in :mod:`repro.lang.types`
"""

from .ast_nodes import Function, Module, Section
from .diagnostics import CompileError, Diagnostic, DiagnosticSink, Severity
from .lexer import tokenize
from .parser import Parser, parse_source, parse_text
from .sema import SemaResult, check_module
from .source import SourceFile
from .types import ArrayType, FLOAT, INT, VOID, FloatType, IntType, Type, VoidType

__all__ = [
    "ArrayType",
    "CompileError",
    "Diagnostic",
    "DiagnosticSink",
    "FLOAT",
    "FloatType",
    "Function",
    "INT",
    "IntType",
    "Module",
    "Parser",
    "Section",
    "SemaResult",
    "Severity",
    "SourceFile",
    "Type",
    "VOID",
    "VoidType",
    "check_module",
    "parse_source",
    "parse_text",
    "tokenize",
]
