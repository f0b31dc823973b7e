"""Exception types shared by all modules."""


class StanleyError(Exception):
    """Base class for all library errors."""


class MalformedInputError(StanleyError, ValueError):
    """Input violates a structural invariant (bad exponent vector etc.)."""


class ContextMismatchError(StanleyError, ValueError):
    """Operands live in different ambient rings."""


class ContainmentError(StanleyError, ValueError):
    """A required ideal containment (J inside I) fails."""


class ZeroModuleError(StanleyError, ValueError):
    """The quotient I/J is the zero module; the operation is undefined."""


class VerificationError(StanleyError, ValueError):
    """A decomposition that was required to be valid is not."""


class BoxTooLargeError(StanleyError, ValueError):
    """The box of exponents a search would walk has too many cells."""


class AnswerTooLargeError(StanleyError, ValueError):
    """The answer would be too large to build or to print."""


class BudgetExceededError(StanleyError, RuntimeError):
    """The search node budget ran out before an exact answer was certified;
    nodes_by_target maps each target tried to the nodes spent on it."""

    def __init__(self, message, nodes=None, nodes_by_target=None):
        super().__init__(message)
        self.nodes = nodes
        self.nodes_by_target = nodes_by_target


class ParseError(StanleyError, ValueError):
    """Text input could not be parsed; carries the column where parsing failed."""

    def __init__(self, message, column=None):
        if column is not None:
            message = "%s (column %d)" % (message, column)
        super().__init__(message)
        self.column = column
