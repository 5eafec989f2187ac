"""Exception types shared across the package."""


class PhysicsConfigError(ValueError):
    """A physical precondition on the requested configuration is violated."""


class NumericalError(RuntimeError):
    """Integration failed a numerical contract (norm drift, bad step size)."""


class TruncationWarning(UserWarning):
    """Phonon population is leaking into the top retained Fock level."""


class ReducedModelWarning(UserWarning):
    """The reduced chain runs outside the regime where it matches the full model."""
