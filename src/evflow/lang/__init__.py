"""EVL mini-language: AST and parser.  The interpreter, which only the
oracle runs, is `evflow.lang.interp`, imported on its own."""

from .ast import (
    Access,
    Assign,
    Binary,
    BoolLit,
    Call,
    Expr,
    FunctionDecl,
    If,
    IntLit,
    Print,
    Program,
    Return,
    Stmt,
    StrLit,
    Unary,
    VarDecl,
    Var,
    While,
    Scopes,
    TOP_LEVEL,
)
from .parser import (
    DuplicateFunctionError,
    DuplicateVariableError,
    EvlError,
    ParseError,
    UndeclaredVariableError,
    UnknownHandlerError,
    UnresolvedCalleeError,
    parse,
    parse_files,
    read_source,
)

__all__ = [name for name in dir() if not name.startswith("_")]
