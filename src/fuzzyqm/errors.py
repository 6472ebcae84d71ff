"""Exception types shared across the toolkit."""


class BracketingError(ValueError):
    """No sign change of the function across the root bracket."""


class NonHermitianError(ValueError):
    """A matrix tagged or required to be Hermitian failed the Hermiticity check."""


class OverflowGuardError(ValueError):
    """A weight or measure factor would overflow; reduce the grid cutoff."""


class RefinementError(RuntimeError):
    """A quantity failed to stabilise under grid or rule refinement."""


class ContractError(ValueError):
    """Inputs violate a documented precondition (wrong pairing, unnormalised state, ...)."""
