"""Shared exception types."""


class ValidationError(ValueError):
    """Malformed user input: MDP/policy/dataset/config contents or arguments."""


class UnvisitedPairError(ValidationError):
    """A state-action pair carries zero data mass where positive mass is required.

    Raised by sensitivity calculations when kappa=0 and the probed pair is
    unvisited; the closed-form derivative does not exist there.
    """


class SolverError(RuntimeError):
    """A linear solve violated its residual contract."""
