"""Exceptions shared across the package, and ``gate``: an oracle over its cap refuses with
CapExceededError (its size rule, ``_search.search_size``, is its own), and ``gate`` skips it."""


class CapExceededError(RuntimeError):
    """A brute-force search or dense construction would exceed its cap."""


class NotGhzGraphError(ValueError):
    """The operation needs a GHZ graph and the input fails the test."""


class GraphFormatError(ValueError):
    """A graph file or dictionary violates the interchange schema."""


class InvariantError(RuntimeError):
    """An internal self-check failed: two derivations of one result disagree."""


def gate(oracle, *args):
    """``oracle(*args)``, or None when it raises CapExceededError; so ``gate(search_size, ...)`` is the size or None."""
    try:
        return oracle(*args)
    except CapExceededError:
        return None
