"""Exception types shared across the toolkit."""


class BracketingError(ValueError):
    """The smeared depths at the core-radius bracket ends do not change sign around the closed-form radius."""


class NonHermitianError(ValueError):
    """A matrix tagged or required to be Hermitian failed the Hermiticity check."""


class OverflowGuardError(ValueError):
    """A weight or measure factor would overflow; reduce the grid cutoff."""


class RefinementError(RuntimeError):
    """A quantity failed to stabilise under grid or rule refinement."""


class ContractError(ValueError):
    """Inputs violate a documented precondition (wrong pairing, unnormalised state, ...)."""
