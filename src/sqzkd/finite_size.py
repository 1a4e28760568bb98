"""Finite-size key-rate corrections and security-region thresholds.

With a finite number of exchanged signals the asymptotic rate is reduced by a
penalty Delta(n) covering the privacy-amplification failure probability and
the convergence of the smooth min-entropy, and only the n_key signals kept
for the key contribute:

    rate = (n_key / n_total) * (beta * I_AB - chi_E - Delta(n_key)).

The efficiency threshold beta* is the smallest reconciliation efficiency with
a positive rate; plotting it against the modulation gives the secure region
(everything above the curve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ThresholdUndefinedError
from .protocol import (
    ProtocolParams,
    holevo_eb,
    holevo_eb_series,
    key_rate_asymptotic,
    mutual_information_ab,
    mutual_information_ab_series,
)


@dataclass(frozen=True)
class FiniteSizeParams:
    """Sample accounting for the finite-size penalty.

    n_key       signals kept for the key
    n_total     signals exchanged in total (the rest calibrate the channel)
    eps_smooth  smoothing parameter of the min-entropy bound
    eps_pa      failure probability of privacy amplification
    """

    n_key: float
    n_total: float
    eps_smooth: float = 1e-10
    eps_pa: float = 1e-10

    def __post_init__(self):
        if not 0 < self.n_key <= self.n_total:
            raise ValueError(
                f"need 0 < n_key <= n_total, got n_key={self.n_key}, n_total={self.n_total}"
            )
        for name in ("eps_smooth", "eps_pa"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")

    @classmethod
    def from_total(cls, n_total: float, **kwargs) -> "FiniteSizeParams":
        """Default split: half the exchanged signals go into the key."""
        return cls(n_key=n_total / 2.0, n_total=n_total, **kwargs)


def delta_correction(fp: FiniteSizeParams) -> float:
    """Finite-size penalty Delta(n) in bits per symbol.

    7 sqrt(log2(2/eps_smooth) / n_key) + (2 / n_key) log2(1 / eps_pa);
    strictly decreasing in n_key and vanishing in the asymptotic limit.
    """
    return 7.0 * math.sqrt(math.log2(2.0 / fp.eps_smooth) / fp.n_key) \
        + (2.0 / fp.n_key) * math.log2(1.0 / fp.eps_pa)


def key_rate_finite(p: ProtocolParams, fp: FiniteSizeParams) -> float:
    """Finite-size lower bound on the key rate in bits per exchanged signal."""
    return (fp.n_key / fp.n_total) * (key_rate_asymptotic(p) - delta_correction(fp))


def _threshold(chi_e: float, i_ab: float, fp: FiniteSizeParams | None) -> float:
    """(chi_E + Delta) / I_AB of a solved point, Delta 0 if ``fp`` is None; inf where I_AB is 0."""
    if i_ab <= 0.0:
        return math.inf
    penalty = delta_correction(fp) if fp is not None else 0.0
    return (chi_e + penalty) / i_ab


def beta_threshold(p: ProtocolParams, fp: FiniteSizeParams | None = None) -> float:
    """Smallest reconciliation efficiency giving a positive key rate.

    chi_E / I_AB asymptotically, (chi_E + Delta) / I_AB at finite size.  A
    value above 1 means the protocol is insecure at any efficiency; when
    I_AB is zero the threshold is undefined and an error is raised.
    """
    chi_e, i_ab = holevo_eb(p), mutual_information_ab(p)
    if i_ab <= 0.0:
        raise ThresholdUndefinedError(
            "efficiency threshold undefined: Shannon information I_AB is zero"
        )
    return _threshold(chi_e, i_ab, fp)


@dataclass(frozen=True)
class RegionPoint:
    """One point of a security-region curve, with the chi_E and I_AB behind it."""

    v_a: float
    beta_star: float
    secure: bool
    chi_e: float
    i_ab: float

    def beta_star_at(self, fp: FiniteSizeParams | None) -> float:
        """Threshold at this point for another sample accounting; inf where undefined."""
        return _threshold(self.chi_e, self.i_ab, fp)


def security_region(p_base: ProtocolParams, v_a_grid,
                    fp: FiniteSizeParams | None = None) -> list[RegionPoint]:
    """Efficiency threshold along a modulation grid.

    Points where the threshold is undefined (no modulation, hence no Shannon
    information) are reported with beta_star = inf and marked insecure at any
    efficiency.  A point is secure when some beta in (0, 1] beats the
    threshold, i.e. beta_star < 1.

    The grid is solved as holevo_eb_series and mutual_information_ab_series,
    bit-identical to each point alone and raising as its first failing point.
    """
    grid = list(v_a_grid)
    if not grid:
        raise ValueError("modulation grid must be non-empty")
    points = []
    for v_a, chi_e, i_ab in zip(grid, holevo_eb_series(p_base, grid),
                                mutual_information_ab_series(p_base, grid)):
        star = _threshold(chi_e, i_ab, fp)
        points.append(RegionPoint(v_a=v_a, beta_star=star, secure=star < 1.0,
                                  chi_e=chi_e, i_ab=i_ab))
    return points
