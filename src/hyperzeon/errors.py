"""Shared exception types."""


class ContextError(ValueError):
    """Operands belong to different algebra signatures."""


class ParseError(ValueError):
    """Malformed hypergraph input; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class BudgetError(RuntimeError):
    """A size or term budget was exceeded before the computation finished."""


class InvariantError(RuntimeError):
    """An algebraic invariant of a computed result failed; a bug, not bad input."""
