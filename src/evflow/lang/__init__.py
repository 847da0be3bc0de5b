"""EVL mini-language: AST, parser, pretty printer and interpreter."""

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
    to_source,
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
from .interp import (
    Choices,
    EvlRuntimeError,
    ExecutionTrace,
    HandlerInvoked,
    Output,
    StmtExec,
    UninitRead,
    check_trace_ordering,
    explore_schedules,
    interpret,
)

__all__ = [name for name in dir() if not name.startswith("_")]
