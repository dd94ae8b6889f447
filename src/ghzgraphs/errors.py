"""Exceptions shared across the package."""


class CapExceededError(RuntimeError):
    """A brute-force search or dense construction would exceed its cap."""


class NotGhzGraphError(ValueError):
    """The operation needs a GHZ graph and the input fails the test."""


class GraphFormatError(ValueError):
    """A graph file or dictionary violates the interchange schema."""


class InvariantError(RuntimeError):
    """An internal self-check failed: two derivations of one result disagree."""
