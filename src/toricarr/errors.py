"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: input problems exit 1, internal
invariant violations exit 3.
"""


class SpecError(ValueError):
    """The arrangement description is malformed or violates an invariant."""


class InternalError(RuntimeError):
    """A should-be-impossible state; indicates a bug, not bad input."""
