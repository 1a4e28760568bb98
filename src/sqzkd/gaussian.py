"""Gaussian-state kernel: covariance matrices, symplectic spectra, entropies.

Conventions used throughout the package:

* shot-noise units (SNU): the vacuum quadrature variance is 1,
* quadrature ordering (X1, P1, X2, P2, ...),
* all entropies and information quantities are in bits (log base 2).

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form, a direct sum of [[0, 1], [-1, 0]] blocks."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


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
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance matrix entries must be finite")
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise ValueError(f"covariance matrix is not symmetric within {SYMMETRY_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2

    @classmethod
    def vacuum(cls, n_modes: int = 1) -> "CovarianceMatrix":
        return cls(np.eye(2 * n_modes))

    @classmethod
    def from_diagonal(cls, diagonal) -> "CovarianceMatrix":
        return cls(np.diag(np.asarray(diagonal, dtype=float)))

    def submatrix(self, modes) -> "CovarianceMatrix":
        """Covariance matrix restricted to the listed modes, in the given order."""
        idx = []
        for m in modes:
            idx.extend((2 * m, 2 * m + 1))
        return CovarianceMatrix(self.entries[np.ix_(idx, idx)])

    def tensor(self, other: "CovarianceMatrix") -> "CovarianceMatrix":
        """Direct sum with another state's covariance matrix (appended modes)."""
        a, b = self.entries, other.entries
        out = np.zeros((a.shape[0] + b.shape[0],) * 2)
        out[:a.shape[0], :a.shape[0]] = a
        out[a.shape[0]:, a.shape[0]:] = b
        return CovarianceMatrix(out)


def symplectic_eigenvalues(cm: CovarianceMatrix) -> list[float]:
    """Symplectic spectrum of a covariance matrix, sorted descending.

    Computed through the Hermitian matrix i * sqrt(cm) @ Omega @ sqrt(cm),
    whose spectrum is the symmetric pair set {+nu_k, -nu_k}.  For a single
    mode this reduces to sqrt(det cm).
    """
    gamma = cm.entries
    evals, vecs = np.linalg.eigh(gamma)
    if evals[0] <= 0.0:
        raise SymplecticPairingError(
            "covariance matrix is not positive definite "
            f"(min eigenvalue {evals[0]:.6g}, condition number {_condition(gamma):.6g})"
        )
    root = (vecs * np.sqrt(evals)) @ vecs.T
    herm = 1j * (root @ symplectic_form(cm.n_modes) @ root)
    spectrum = np.linalg.eigvalsh(herm)  # ascending, symmetric about 0
    n = cm.n_modes
    positive = spectrum[n:][::-1]
    mirrored = -spectrum[:n]
    scale = max(1.0, float(mirrored[0]))
    if np.max(np.abs(positive - mirrored)) > 1e-8 * scale:
        raise SymplecticPairingError(
            "symplectic spectrum is not +/- symmetric within tolerance "
            f"(condition number {_condition(gamma):.6g})"
        )
    return [float(v) for v in 0.5 * (positive + mirrored)]


def _condition(matrix: np.ndarray) -> float:
    try:
        return float(np.linalg.cond(matrix))
    except np.linalg.LinAlgError:
        return math.inf


def entropy_g(nu: float) -> float:
    """Entropy in bits of a thermal mode with symplectic eigenvalue ``nu``.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with
    g(1) = 0.  Values in [1 - 1e-9, 1] are clamped to 1; smaller values are
    rejected as unphysical.
    """
    if nu < 1.0 - PHYSICALITY_TOL:
        raise UnphysicalStateError(
            f"symplectic eigenvalue {nu!r} is below 1 and outside the clamping band"
        )
    if nu <= 1.0:
        return 0.0
    a = (nu + 1.0) / 2.0
    b = (nu - 1.0) / 2.0
    return a * math.log2(a) - b * math.log2(b)


def von_neumann_entropy(cm: CovarianceMatrix, tol: float = PHYSICALITY_TOL) -> float:
    """Von Neumann entropy of a Gaussian state in bits: sum of g over the spectrum.

    Symplectic eigenvalues in [1 - tol, 1] count as 1; smaller ones raise.
    """
    spectrum = symplectic_eigenvalues(cm)
    if spectrum[-1] < 1.0 - tol:
        # 12 significant digits, or more where needed to show the gap to the bound
        shown = next(text for digits in range(12, 18)
                     if float(text := f"{spectrum[-1]:.{digits}g}") < 1.0 - tol)
        raise UnphysicalStateError(
            f"symplectic eigenvalue {shown} is below 1 beyond the tolerance {tol}"
        )
    return sum(entropy_g(max(nu, 1.0)) for nu in spectrum)


def condition_on_label(moments) -> CovarianceMatrix:
    """State of the modes given a classical label, such as the sender's alphabet value.

    ``moments`` is a symmetric (2n+1) x (2n+1) zero-mean second-moment matrix:
    row 0 is the label, the other rows are n modes ordered (X1, P1, ...).
    Returns m[1:, 1:] - m[1:, 0] m[1:, 0]^T / m[0, 0], symmetrised: the same
    matrix as an ideal X homodyne on a mode whose X is the label, whatever
    that mode's unrecorded P.
    """
    m = np.asarray(moments, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 1:
        raise ValueError(f"labelled moments must be square of odd dimension, got shape {m.shape}")
    if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
        raise ValueError(f"labelled moments are not symmetric within {SYMMETRY_TOL}")
    variance = m[0, 0]
    if variance <= 0.0:
        raise DegenerateMeasurementError(f"label variance {variance:.6g} is not positive")
    cross = m[1:, 0]
    reduced = m[1:, 1:] - np.outer(cross, cross) / variance
    return CovarianceMatrix(0.5 * (reduced + reduced.T))


def apply_beamsplitter(cm: CovarianceMatrix, mode_i: int, mode_j: int,
                       transmittance: float) -> CovarianceMatrix:
    """Mix two modes on a beamsplitter of the given transmittance.

    Applies S @ cm @ S.T with the two-mode symplectic
    S = [[sqrt(t) I, sqrt(1-t) I], [-sqrt(1-t) I, sqrt(t) I]] acting on the
    (mode_i, mode_j) blocks, so mode_i keeps a sqrt(t) share of itself plus a
    sqrt(1-t) share of mode_j.
    """
    if mode_i == mode_j:
        raise ValueError("beamsplitter needs two distinct modes")
    for m in (mode_i, mode_j):
        if m < 0 or m >= cm.n_modes:
            raise ValueError(f"mode index {m} out of range for {cm.n_modes} modes")
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    s = np.eye(2 * cm.n_modes)
    ii, jj = 2 * mode_i, 2 * mode_j
    for off in (0, 1):
        s[ii + off, ii + off] = t
        s[jj + off, jj + off] = t
        s[ii + off, jj + off] = r
        s[jj + off, ii + off] = -r
    mixed = s @ cm.entries @ s.T
    return CovarianceMatrix(0.5 * (mixed + mixed.T))


def db_to_snu(db: float) -> float:
    """Convert a decibel value (relative to shot noise) to a linear SNU variance."""
    return 10.0 ** (db / 10.0)


def snu_to_db(value: float) -> float:
    """Convert a linear SNU variance to decibels relative to shot noise."""
    if value <= 0.0:
        raise ValueError(f"cannot express non-positive variance {value} in dB")
    return 10.0 * math.log10(value)
