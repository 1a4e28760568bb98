"""Exception types shared across the package."""


class UnphysicalStateError(ValueError):
    """A covariance matrix or symplectic eigenvalue violates the uncertainty bound."""


class SymplecticPairingError(ValueError):
    """The +/- pairing of the symplectic spectrum could not be resolved numerically."""


class DegenerateMeasurementError(ValueError):
    """Homodyne conditioning on a quadrature with non-positive variance."""


class InsufficientDataError(ValueError):
    """Too few samples to form a covariance estimate."""
