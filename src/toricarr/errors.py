"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: input problems exit 1, window
insufficiency exit 2, internal invariant violations exit 3.
"""


class SpecError(ValueError):
    """The arrangement description is malformed or violates an invariant."""


class WindowError(RuntimeError):
    """The truncation window is too small for the requested computation."""


class InternalError(RuntimeError):
    """A should-be-impossible state; indicates a bug, not bad input."""
