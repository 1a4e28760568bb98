"""Gaussian-state kernel: covariance matrices, symplectic spectra, entropies.

Conventions used throughout the package:

* shot-noise units (SNU): the vacuum quadrature variance is 1,
* quadrature ordering (X1, P1, X2, P2, ...),
* all entropies and information quantities are in bits (log base 2).

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import _numpy as np
from .errors import (
    DegenerateMeasurementError,
    SymplecticPairingError,
    UnphysicalStateError,
)

# Absolute asymmetry allowed when accepting a matrix as a covariance matrix.
SYMMETRY_TOL = 1e-12

# Symplectic eigenvalues may undershoot 1 by this much before a state is
# rejected as unphysical; anything in [1 - tol, 1] is treated as exactly 1.
PHYSICALITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric 2n x 2n second-moment matrix of a zero-mean Gaussian state (SNU)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"covariance matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim == 0 or dim % 2 != 0:
            raise ValueError(f"covariance matrix dimension must be a positive even number, got {dim}")
        _finite(m)
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise ValueError(f"covariance matrix is not symmetric within {SYMMETRY_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


def symplectic_eigenvalues(cm: CovarianceMatrix) -> list[float]:
    """Symplectic spectrum of a covariance matrix, sorted descending.

    Computed through the Hermitian matrix i * sqrt(cm) @ Omega @ sqrt(cm),
    whose spectrum is the symmetric pair set {+nu_k, -nu_k}.  For a single
    mode this reduces to sqrt(det cm).
    """
    return _symplectic_spectra(cm.entries[np.newaxis])[0].tolist()


def _symplectic_spectra(gammas: np.ndarray) -> np.ndarray:
    """symplectic_eigenvalues of each matrix of a (k, 2n, 2n) stack, as a (k, n) array.

    One eigh and one eigvalsh serve the whole stack, and each matrix goes
    through the same float operations as alone, so every row is bit-identical
    to its own single-matrix spectrum.  An error names the first bad matrix.
    """
    n = gammas.shape[-1] // 2
    evals, vecs = np.linalg.eigh(gammas)
    indefinite = evals[:, 0] <= 0.0
    if np.count_nonzero(indefinite):  # cheaper than .any() on a stack of one
        i = int(np.argmax(indefinite))
        raise SymplecticPairingError(
            "covariance matrix is not positive definite "
            f"(min eigenvalue {evals[i, 0]:.6g}, condition number {_condition(gammas[i]):.6g})"
        )
    root = (vecs * np.sqrt(evals)[:, np.newaxis, :]) @ vecs.transpose(0, 2, 1)
    herm = 1j * (root @ _omega(n) @ root)
    spectrum = np.linalg.eigvalsh(herm)  # ascending, symmetric about 0
    positive = spectrum[:, n:][:, ::-1]
    mirrored = -spectrum[:, :n]
    unpaired = np.abs(positive - mirrored) > 1e-8 * np.maximum(1.0, mirrored[:, :1])
    if np.count_nonzero(unpaired):
        i = int(np.argmax(unpaired.any(axis=1)))
        raise SymplecticPairingError(
            "symplectic spectrum is not +/- symmetric within tolerance "
            f"(condition number {_condition(gammas[i]):.6g})"
        )
    return 0.5 * (positive + mirrored)


@functools.cache
def _omega(n_modes: int) -> np.ndarray:
    """Read-only symplectic form, a direct sum of [[0, 1], [-1, 0]] blocks, built once per n."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    omega.setflags(write=False)
    return omega


def _condition(matrix: np.ndarray) -> float:
    try:
        return float(np.linalg.cond(matrix))
    except np.linalg.LinAlgError:
        return math.inf


def _finite(entries: np.ndarray) -> np.ndarray:
    """``entries`` unchanged; raises ValueError if any of them is not finite."""
    if not np.isfinite(entries).all():
        raise ValueError("covariance matrix entries must be finite")
    return entries


# Above this symplectic eigenvalue entropy_g uses a form free of cancellation.
# It lies above every nu that ProtocolParams' property domain reaches (at most
# sqrt(10.1 * 20) = 14.2, the source at v_r = 0.1, v_a = delta_v = 10) and
# the default figure grids reach (at most sqrt(10.5 * 2) = 4.6), so those
# values keep their bits.
LARGE_NU = 100.0


def entropy_g(nu: float) -> float:
    """Entropy in bits of a thermal mode with symplectic eigenvalue ``nu``.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with
    g(1) = 0.  Values in [1 - 1e-9, 1] are clamped to 1; smaller values are
    rejected as unphysical.  Above LARGE_NU the two terms nearly cancel, so
    the equal form log2(a) + b log1p(1/b) / ln 2, with a = (nu+1)/2 and
    b = (nu-1)/2, is used instead.
    """
    return _entropy_gs([nu])[0]


def _entropy_gs(nus: list[float], tol: float = PHYSICALITY_TOL) -> list[float]:
    """entropy_g of each value of ``nus``, clamping [1 - tol, 1] to 1; (1, LARGE_NU] is inline."""
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), got {tol}")
    return [(a := (nu + 1.0) / 2.0) * math.log2(a) - (b := (nu - 1.0) / 2.0) * math.log2(b)
            if 1.0 < nu <= LARGE_NU else _entropy_g_edge(nu, tol) for nu in nus]


def _entropy_g_edge(nu: float, tol: float) -> float:
    """_entropy_gs of a ``nu`` outside (1, LARGE_NU]: the clamp band, the large form, or nan."""
    if nu > LARGE_NU:
        b = (nu - 1.0) / 2.0
        return math.log2((nu + 1.0) / 2.0) + b * math.log1p(1.0 / b) / math.log(2.0)
    if nu < 1.0 - tol:  # the package's one check of the uncertainty bound
        # 12 significant digits, or more where needed to show the gap to the bound
        shown = next(text for digits in range(12, 18)
                     if float(text := f"{nu:.{digits}g}") < 1.0 - tol)
        raise UnphysicalStateError(f"symplectic eigenvalue {shown} is below 1 beyond "
                                   f"the tolerance {tol}")
    return 0.0 if nu <= 1.0 else math.nan


def von_neumann_entropy(cm: CovarianceMatrix, tol: float = PHYSICALITY_TOL) -> float:
    """Von Neumann entropy of a Gaussian state in bits: sum of g over the spectrum.

    Symplectic eigenvalues in [1 - tol, 1] count as 1; smaller ones, or tol outside [0, 1), raise.
    """
    return _entropies(cm.entries[np.newaxis], tol)[0]


def _entropies(gammas: np.ndarray, tol: float) -> list[float]:
    """von_neumann_entropy of each matrix of a (k, 2n, 2n) stack, bit for bit."""
    spectra = _symplectic_spectra(gammas)
    g = _entropy_gs(spectra.ravel().tolist(), tol)
    # each matrix's entropies added by sum, not +=: from Python 3.12 sum compensates
    return list(map(sum, zip(*[iter(g)] * spectra.shape[1])))


def condition_on_label(moments) -> CovarianceMatrix:
    """State of the modes given a classical label, such as the sender's alphabet value.

    ``moments`` is a symmetric (2n+1) x (2n+1) zero-mean second-moment matrix:
    row 0 is the label, the other rows are n modes ordered (X1, P1, ...).
    Returns m[1:, 1:] - m[1:, 0] m[1:, 0]^T / m[0, 0], symmetrised: the same
    matrix as an ideal X homodyne on a mode whose X is the label, whatever
    that mode's unrecorded P.
    """
    m = np.asarray(moments, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 1 or m.shape[0] < 3:
        raise ValueError("labelled moments must be square of odd dimension at least 3, "
                         f"got shape {m.shape}")
    if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
        raise ValueError(f"labelled moments are not symmetric within {SYMMETRY_TOL}")
    return CovarianceMatrix(_condition_on_labels(m[np.newaxis])[0])


def _condition_on_labels(moments: np.ndarray) -> np.ndarray:
    """condition_on_label on each symmetric matrix of a (k, 2n+1, 2n+1) stack, bit for bit."""
    variance = moments[:, 0, 0]
    degenerate = variance <= 0.0
    if np.count_nonzero(degenerate):
        bad = variance[np.argmax(degenerate)]
        raise DegenerateMeasurementError(f"label variance {bad:.6g} is not positive")
    cross = moments[:, 1:, 0]
    reduced = moments[:, 1:, 1:] \
        - cross[:, :, np.newaxis] * cross[:, np.newaxis, :] / variance[:, np.newaxis, np.newaxis]
    return _finite(0.5 * (reduced + reduced.transpose(0, 2, 1)))


def db_to_snu(db: float) -> float:
    """Convert a decibel value (relative to shot noise) to a linear SNU variance."""
    return 10.0 ** (db / 10.0)


def snu_to_db(value: float) -> float:
    """Convert a linear SNU variance to decibels relative to shot noise."""
    if not value > 0.0:
        raise ValueError(f"cannot express non-positive variance {value} in dB")
    return 10.0 * math.log10(value)
