"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid input data: bad instance fields, malformed files, bad arguments."""


class InfeasibleError(RuntimeError):
    """A requested dispatch (or reference solve) has no feasible solution."""


class SolveLimitError(RuntimeError):
    """A time or node limit stopped a search before it found any feasible
    dispatch, so nothing is known about feasibility."""


class EnumerationCapError(ValueError):
    """An exhaustive oracle would exceed its configured enumeration cap."""
