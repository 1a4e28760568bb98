"""Security analysis for a single-quadrature squeezed-state CV-QKD protocol.

Encoding a Gaussian alphabet of variance 1 - v_r on the squeezed quadrature
of a v_r-squeezed state makes the eavesdropper of a purely lossy channel
statistically independent of the receiver's homodyne data, eliminating both
her Shannon and Holevo information.  This package provides the Gaussian
covariance-matrix kernel, the analytic protocol model, finite-size
corrections, a Monte-Carlo emulator of the measured-data pipeline, and a CLI
for parameter sweeps.

The emulator's exports load on first use (PEP 562): ``import sqzkd`` runs no
``sqzkd.emulator`` until one of its names is read, and numpy loads when a
module first reads a name from ``sqzkd._numpy``.
"""

from .errors import (
    DegenerateMeasurementError,
    InsufficientDataError,
    SymplecticPairingError,
    UnphysicalStateError,
)
from .finite_size import (
    FiniteSizeParams,
    RegionPoint,
    beta_threshold,
    delta_correction,
    key_rate_finite,
    security_region,
)
from .gaussian import (
    CovarianceMatrix,
    condition_on_label,
    db_to_snu,
    entropy_g,
    snu_to_db,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from .protocol import (
    ProtocolParams,
    SecurityReport,
    build_joint_state,
    classical_leakage,
    decoupling_modulation,
    holevo_eb,
    holevo_eb_series,
    key_rate_asymptotic,
    key_rate_series,
    mutual_information_ab,
    mutual_information_ab_series,
    optimal_modulation,
    quantum_mutual_information_eb,
    security_report,
)

__version__ = "0.1.0"

_EMULATOR_EXPORTS = frozenset((
    "EmulationConfig", "ReconstructedCM", "SampleBatch", "expected_record_covariance",
    "generate_calibrated_samples", "generate_samples", "reconstruct_covariance",
    "security_from_data"))


def __getattr__(name: str):
    """An emulator export, read from ``sqzkd.emulator`` on each use (PEP 562)."""
    if name not in _EMULATOR_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import emulator
    return getattr(emulator, name)
