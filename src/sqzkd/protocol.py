"""Analytic security quantities for the single-quadrature squeezed-state protocol.

The sender prepares a squeezed state (squeezed quadrature variance ``v_r``,
anti-squeezed variance ``1/v_r + delta_v``), encodes a Gaussian alphabet of
variance ``v_a`` on the squeezed quadrature, and transmits through a channel
of transmittance ``eta``.  The receiver homodynes X with trusted electronic
noise ``v_n``.  The eavesdropper holds the channel environment: for a purely
lossy channel the tapped beamsplitter port, and for a channel with excess
noise ``epsilon`` both arms of the entangled two-mode state she injects to
realize that noise.

The central fact implemented here: with ``v_r + v_a = 1`` and ``epsilon = 0``
the eavesdropper's state is statistically independent of the receiver's
measurement outcome, so both her Shannon and Holevo information about it
vanish identically, for any loss, any detector noise and any impurity of the
squeezing, as long as that impurity is trusted: were she to hold its
purification, she would learn 0.149 bits at v_r = v_a = 0.5, delta_v = 1, eta = 0.5.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

from . import _numpy as np
from .gaussian import (
    PHYSICALITY_TOL,
    CovarianceMatrix,
    _condition_on_labels,
    _entropies,
    _entropy_gs,
    _finite,
)

# |chi_E| below this is treated as floating-point noise and clamped to zero;
# anything more negative indicates a modelling bug and raises.
CHI_NOISE_FLOOR = 1e-9

# Default homodyne efficiencies of the receiver's and the eavesdropper's
# detectors, which the emulator models (EmulationConfig, emulate's flags).
DEFAULT_ETA_BOB_DET = 0.85
DEFAULT_ETA_EVE_DET = 0.95


@dataclass(frozen=True)
class ProtocolParams:
    """One protocol instance, all variances in shot-noise units.

    v_r      squeezed-quadrature variance, in (0, 1] (1 = coherent states)
    v_a      modulation variance of the Gaussian alphabet, >= 0
    eta      channel transmittance, in (0, 1]
    delta_v  excess variance of the anti-squeezed quadrature, >= 0
    epsilon  untrusted channel excess noise referred to the channel input, >= 0
    v_n      trusted electronic noise of the receiver's homodyne, >= 0
    beta     reconciliation efficiency, in (0, 1]

    Property tests (tests/test_properties.py) cover v_r in [0.1, 1], v_a in
    [0, 10], eta in [0.01, 0.99], delta_v in [0, 10], v_n in [0, 1] and
    epsilon in [0, 0.1]; every point of that domain gives a finite,
    consistent answer.  Beyond it precision can fail: at v_r = 0.5, v_a = 1,
    eta = 0.999999, epsilon = 0.035 (W ~ 3.5e4) holevo_eb raises
    UnphysicalStateError on a symplectic eigenvalue of 0.9999996.
    """

    v_r: float
    v_a: float
    eta: float
    delta_v: float = 0.0
    epsilon: float = 0.0
    v_n: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("v_r", "eta", "beta"):
            _in_unit_interval(name, getattr(self, name))
        for name in ("v_a", "delta_v", "epsilon", "v_n"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @property
    def anti_squeezed_variance(self) -> float:
        return 1.0 / self.v_r + self.delta_v

    def with_modulation(self, v_a: float) -> "ProtocolParams":
        return replace(self, v_a=v_a)


def _in_unit_interval(name: str, value: float) -> float:
    """``value``, or ValueError naming ``name`` where it lies outside (0, 1] or is NaN."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")
    return value


def _series(p: ProtocolParams, v_a, solve):
    """``solve(p, values)`` of ``v_a`` as a list of floats, raising as its first failing point.

    A failing grid is solved again one point at a time, as ``solve(replace(p,
    v_a=value), [value])``: that raises ProtocolParams' error, then the scalar's.
    Checked in Python; numpy loads only to tell the shape of an input float rejects.
    """
    try:  # tolist gives an array of more than one dimension as lists, which float rejects
        if isinstance(v_a, (str, bytes)):  # one value to numpy, not a sequence of characters
            raise TypeError
        values = list(map(float, v_a.tolist() if hasattr(v_a, "tolist") else v_a))
    except TypeError:
        if np.ndim(v_a) == 1:  # an element that is no real number, such as None
            raise
        raise ValueError(f"modulations must be a 1-D sequence, got shape {np.shape(v_a)}") from None
    try:
        if not (min(values, default=0.0) >= 0.0 and all(map(math.isfinite, values))):
            raise ValueError("a modulation is negative or not finite")
        return solve(p, values)
    except (ValueError, RuntimeError):
        for value in values:  # raise what the first failing point raises alone
            solve(replace(p, v_a=value), [value])
        raise


@dataclass(frozen=True)
class SecurityReport:
    """Derived security quantities for one protocol instance (bits per symbol).

    i_ab            mutual information of the sender's and receiver's X data
    chi_e           Holevo bound on the eavesdropper's information about the
                    receiver's X data (holevo_eb)
    key_rate        beta * i_ab - chi_e, reverse reconciliation
    c_eb, c_ea      squared correlation of her X with the receiver's, the sender's X
    i_eb_classical, i_ea_classical
                    Shannon information of one X homodyne on her mode about
                    the receiver's, the sender's X (classical_leakage)
    qmi_eb          quantum mutual information of the channel outputs

    The two classical leakages are what one attack reaches, not upper bounds.
    chi_e bounds only her information about the receiver's X data; nothing
    in this package bounds her information about the sender's symbols.
    """

    i_ab: float
    chi_e: float
    key_rate: float
    c_eb: float
    c_ea: float
    i_eb_classical: float
    i_ea_classical: float
    qmi_eb: float

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        import json
        return json.dumps(self.as_dict(), indent=2)


def environment_variance(p: ProtocolParams) -> float:
    """Variance of the mode the eavesdropper injects at the channel beamsplitter.

    1 for a purely lossy channel; for excess noise epsilon referred to the
    channel input, one arm of her entangled pair with variance
    W = 1 + eta * epsilon / (1 - eta), so the receiver sees eta * epsilon of
    extra noise.
    """
    if p.epsilon == 0.0:
        return 1.0
    if p.eta >= 1.0:
        raise ValueError("excess noise with a lossless channel leaves no port to inject it; "
                         "eta must be < 1 when epsilon > 0")
    return 1.0 + p.eta * p.epsilon / (1.0 - p.eta)


def build_joint_state(p: ProtocolParams) -> CovarianceMatrix:
    """Global Gaussian state of the channel outputs.

    Covers the receiver's mode B followed by the eavesdropper's mode(s):
    (B, E1) for a lossy channel and (B, E1, E2) when she injects one arm of
    an entangled pair to realize the excess noise.  The receiver's trusted
    electronic noise is *not* folded into the matrix; callers add it to the
    X_B entry when conditioning.
    """
    return CovarianceMatrix(_joint_states(p, np.array([p.v_a]))[0])


def _joint_states(p: ProtocolParams, v_a: np.ndarray) -> np.ndarray:
    """build_joint_state's matrix at each modulation of ``v_a``, stacked (k, 2m, 2m), bit for bit."""
    w = environment_variance(p)
    if p.epsilon == 0.0:
        environment = np.eye(2)
    else:
        c = math.sqrt(w * w - 1.0)
        # entangled pair (injected arm, kept arm): X-correlated, P-anticorrelated
        environment = np.array([
            [w, 0.0, c, 0.0],
            [0.0, w, 0.0, -c],
            [c, 0.0, w, 0.0],
            [0.0, -c, 0.0, w],
        ])
    dim = 2 + environment.shape[0]
    before = np.zeros((v_a.size, dim, dim))
    # the source diag[v_r + v_a, 1/v_r + delta_v], then the environment
    before[:, 0, 0] = p.v_r + v_a
    before[:, 1, 1] = p.anti_squeezed_variance
    before[:, 2:, 2:] = environment
    # the channel beamsplitter sends sqrt(eta) S - sqrt(1-eta) E to the receiver's
    # slot 0 and sqrt(1-eta) S + sqrt(eta) E to the eavesdropper's slot 1; both
    # matrices are checked, so that no overflow reaches the matrix product
    t, r = math.sqrt(p.eta), math.sqrt(1.0 - p.eta)
    s = np.eye(dim)
    for k in (0, 1):
        s[k, k] = s[2 + k, 2 + k] = t
        s[k, 2 + k], s[2 + k, k] = -r, r
    mixed = s @ _finite(before) @ s.T
    return _finite(0.5 * (mixed + np.swapaxes(mixed, -1, -2)))


def mutual_information_ab(p: ProtocolParams) -> float:
    """Shannon mutual information between the sender's alphabet and the receiver's X.

    0.5 log2((eta v_a + eta v_r + v_n + 1 - eta + eta epsilon)
             / (eta v_r + v_n + 1 - eta + eta epsilon)).
    """
    return 0.5 * math.log2(_snr_ratio(p, [p.v_a])[0])


def mutual_information_ab_series(p: ProtocolParams, v_a) -> list[float]:
    """mutual_information_ab at each modulation of ``v_a``, the other parameters from ``p``.

    Bit-identical to mutual_information_ab point by point.
    """
    return [0.5 * math.log2(ratio) for ratio in _series(p, v_a, _snr_ratio)]


def _snr_ratio(p: ProtocolParams, v_a: list[float]) -> list[float]:
    """The argument of I_AB's log2 at each modulation of ``v_a``."""
    eta = p.eta
    if eta == 1.0:  # no 1 - eta term, whose cancellation would swamp a small v_r
        base = p.v_r + p.v_n + p.epsilon
    else:
        base = eta * p.v_r + p.v_n + 1.0 - eta + eta * p.epsilon
    return [(eta * v + base) / base for v in v_a]


def _clamp_chis(chis: list[float]) -> list[float]:
    """Each chi of ``chis`` at least 0; the first not finite or below -CHI_NOISE_FLOOR raises."""
    for chi in chis:
        if not -CHI_NOISE_FLOOR <= chi < math.inf:
            if not math.isfinite(chi):
                raise ValueError(f"Holevo information computed as {chi!r} is not finite: "
                                 "a variance overflows double precision")
            raise RuntimeError(f"Holevo information computed as {chi:.6g} < 0 beyond the noise "
                               "floor; this indicates a modelling inconsistency")
    return [0.0 if chi < 0.0 else chi for chi in chis]


def holevo_from_cm(cm: CovarianceMatrix, v_n: float = 0.0,
                   tol: float = PHYSICALITY_TOL) -> float:
    """Holevo bound S(E) - S(E | x_B) of a matrix over modes (B, E...); x_B adds trusted noise v_n.

    The receiver's noisy X is a classical label on the other modes, so
    conditioning on it is condition_on_label on the rows (x_B, E...), with
    v_n added to the x_B variance.  ``tol`` is the entropies' clamping band:
    the model default, or statistical for data.
    """
    if cm.n_modes < 2:
        raise ValueError(f"need the receiver's mode and at least one more, got {cm.n_modes} mode")
    if not (v_n >= 0.0 and math.isfinite(v_n)):
        raise ValueError(f"v_n must be finite and >= 0, got {v_n}")
    return _holevo_stack(cm.entries[np.newaxis], v_n, tol)[0][0]


def _holevo_stack(joint: np.ndarray, v_n: float,
                  tol: float) -> tuple[list[float], list[float]]:
    """holevo_from_cm of each matrix of a (k, 2m, 2m) stack, bit for bit, and each S(E).

    E's blocks and the states given x_B have the same shape, so one stacked
    solve gives S(E) and S(E | x_B).  On an error S(E) is solved alone, so
    that its own error, if it has one, comes first.
    """
    eve = joint[:, 2:, 2:]
    rows = [0, *range(2, joint.shape[-1])]
    labelled = joint[:, rows][:, :, rows]
    labelled[:, 0, 0] += v_n
    try:
        entropies = _entropies(np.concatenate((eve, _condition_on_labels(labelled))), tol)
    except ValueError:
        _entropies(eve, tol)
        raise
    k = joint.shape[0]
    return _clamp_chis([a - b for a, b in zip(entropies[:k], entropies[k:])]), entropies[:k]


def holevo_eb(p: ProtocolParams) -> float:
    """Holevo bound on the eavesdropper's information about the receiver's X data.

    chi = S(E) - S(E | x_B).  For a lossy channel her state is one diagonal
    mode, diag[V_E^X, V_E^P] with V_E^X = eta + (1-eta) V, V = v_r + v_a, and
    V_E^P = eta + (1-eta)(1/v_r + delta_v); the receiver's noisy X changes only
    its X entry, to V_{E|B}^X = (V + v_n (1-eta) V + eta v_n) / (v_n + 1 - eta
    + eta V).  So chi = g(sqrt(V_E^X V_E^P)) - g(sqrt(V_{E|B}^X V_E^P)), which
    is 0 at v_a = 1 - v_r.  With excess noise her state has two modes and
    holevo_from_cm evaluates the bound on build_joint_state, a solve kept for
    the 16 points last asked for.  Raises ValueError where a variance
    overflows double precision.
    """
    if p.epsilon == 0.0:
        return _holevo_stacked(p, [p.v_a])[0]
    return _noisy_holevo(p)[0]


# a link design reads its point three times: search, report, finite-size rate
@functools.lru_cache(maxsize=16)
def _noisy_holevo(p: ProtocolParams) -> tuple[float, np.ndarray, float]:
    """holevo_eb with excess noise, the (B, E1, E2) state it solved (read-only) and its S(E)."""
    with np.errstate(over="ignore", invalid="ignore"):  # it raises on every overflow
        joint = _joint_states(p, np.array([p.v_a]))
        (chi,), (s_e,) = _holevo_stack(joint, p.v_n, PHYSICALITY_TOL)
    joint.setflags(write=False)
    return chi, joint[0], s_e


def holevo_eb_series(p: ProtocolParams, v_a) -> list[float]:
    """holevo_eb at each modulation of ``v_a``, the other parameters from ``p``.

    Bit-identical to holevo_eb point by point: the lossy closed form runs on
    Python floats, and with excess noise one stacked eigen-solve per entropy
    serves every joint state.
    """
    return _series(p, v_a, _holevo_stacked)


def _holevo_stacked(p: ProtocolParams, v_a: list[float]) -> list[float]:
    """holevo_eb at each modulation of ``v_a``; with excess noise, in one stacked solve."""
    if p.epsilon == 0.0:
        return _lossy_holevo(*_lossy_determinants(p, v_a))
    with np.errstate(over="ignore", invalid="ignore"):  # it raises on every overflow
        return _holevo_stack(_joint_states(p, np.array(v_a)), p.v_n, PHYSICALITY_TOL)[0]


def _lossy_holevo(det_e: list[float], det_e_given_b: list[float]) -> list[float]:
    """g(sqrt(V_E^X V_E^P)) - g(sqrt(V_{E|B}^X V_E^P)) of each pair of determinants, clamped."""
    g = _entropy_gs(list(map(math.sqrt, det_e + det_e_given_b)))
    return _clamp_chis([a - b for a, b in zip(g, g[len(det_e):])])


def _lossy_determinants(p: ProtocolParams, v_a: list[float]) -> tuple[list[float], list[float]]:
    """V_E^X V_E^P and V_{E|B}^X V_E^P of holevo_eb's lossy closed form at each modulation."""
    eta, v_n, loss = p.eta, p.v_n, 1.0 - p.eta
    big_vs = [p.v_r + v for v in v_a]
    v_e_p = eta + loss * p.anti_squeezed_variance
    # V_E^X and V_{E|B}^X, each times V_E^P; the terms free of V round as in the formula
    gain, shift, floor = v_n * loss, eta * v_n, v_n + 1.0 - eta
    return ([(eta + loss * big_v) * v_e_p for big_v in big_vs],
            [(big_v + gain * big_v + shift) / (floor + eta * big_v) * v_e_p for big_v in big_vs])


def shannon_leakage(correlation: float) -> float:
    """Shannon information 0.5 log2(1 / (1 - C)) of a squared correlation C, inf at C >= 1.

    Raises ValueError on a C that is not finite, as overflowing moments give.
    """
    if not math.isfinite(correlation):
        raise ValueError(f"squared correlation computed as {correlation!r} is not finite: "
                         "a moment overflows double precision")
    if correlation >= 1.0:
        return math.inf
    return 0.5 * math.log2(1.0 / (1.0 - correlation))


def classical_leakage(p: ProtocolParams, party: str) -> tuple[float, float]:
    """Squared correlation coefficient with the eavesdropper's X, and its Shannon bound.

    Returns (C, I) with C = <X_E X_i>^2 / (<X_E^2> <X_i^2>) and
    I = 0.5 log2(1 / (1 - C)), for i the sender ("A") or the receiver ("B").
    The receiver cross moment is sqrt(eta (1-eta)) (v_r + v_a - W); the sender
    one is sqrt(1-eta) v_a.  C >= 1 cannot occur for physical parameters and
    is reported as infinite information defensively.
    """
    w = environment_variance(p)
    big_v = p.v_r + p.v_a
    v_e = (1.0 - p.eta) * big_v + p.eta * w
    which = party.upper()
    if which == "B":
        cov = math.sqrt(p.eta * (1.0 - p.eta)) * (big_v - w)
        v_other = p.eta * big_v + (1.0 - p.eta) * w + p.v_n
    elif which == "A":
        cov = math.sqrt(1.0 - p.eta) * p.v_a
        v_other = p.v_a
    else:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return _correlation_leakage(cov, v_e, v_other)


def _correlation_leakage(cross: float, var_e: float, var_other: float) -> tuple[float, float]:
    """(C, shannon_leakage(C)) of C = cross^2 / (var_e var_other), the model's or the data's."""
    square = cross * cross
    # a subnormal v_a or moment underflows both the square and the denominator to 0
    correlation = square / (var_e * var_other) if square else 0.0
    return correlation, shannon_leakage(correlation)


def quantum_mutual_information_eb(p: ProtocolParams) -> float:
    """Quantum mutual information S(B) + S(E) - S(BE) of the channel outputs.

    A property of the quantum state alone: the receiver's electronic noise
    does not enter.  Vanishes only with no squeezing and no modulation, or
    for a lossless channel.  qmi_from_cm(build_joint_state(p)) bit for bit;
    with excess noise it reads holevo_eb's kept solve of the point, state and
    S(E), and so raises what holevo_eb raises.
    """
    if p.epsilon == 0.0:
        return qmi_from_cm(build_joint_state(p))
    _, joint, s_e = _noisy_holevo(p)
    return _qmi(joint, PHYSICALITY_TOL, s_e)


def qmi_from_cm(cm: CovarianceMatrix, tol: float = PHYSICALITY_TOL) -> float:
    """S(B) + S(E) - S(BE) of a covariance matrix with mode 0 as B, modes 1.. as E.

    Where E is one mode, as B is, one stacked solve gives S(B) and S(E); on
    an error S(B) is solved alone, so that its own error, if it has one,
    comes first.
    """
    if cm.n_modes < 2:
        raise ValueError(f"need the receiver's mode and at least one more, got {cm.n_modes} mode")
    return _qmi(cm.entries, tol)


def _qmi(entries: np.ndarray, tol: float, s_e: float | None = None) -> float:
    """qmi_from_cm of a (2m, 2m) matrix, bit for bit; S(E) is solved only if not given."""
    joint = entries[np.newaxis]
    b, e = joint[:, :2, :2], joint[:, 2:, 2:]
    if s_e is not None:
        s_b = _entropies(b, tol)[0]
    elif entries.shape[0] > 4:
        s_b, s_e = _entropies(b, tol)[0], _entropies(e, tol)[0]
    else:
        try:
            s_b, s_e = _entropies(np.concatenate((b, e)), tol)
        except ValueError:
            _entropies(b, tol)
            raise
    return max(s_b + s_e - _entropies(joint, tol)[0], 0.0)


def key_rate_asymptotic(p: ProtocolParams) -> float:
    """Asymptotic lower bound on the secret key rate: beta * I_AB - chi_E.

    May be negative; the protocol is secure when the value is positive.
    """
    return p.beta * mutual_information_ab(p) - holevo_eb(p)


def key_rate_series(p: ProtocolParams, v_a) -> list[float]:
    """key_rate_asymptotic at each modulation of ``v_a``, the other parameters from ``p``.

    Bit-identical to key_rate_asymptotic point by point.  chi_E is solved
    first, so a failing grid raises what holevo_eb_series raises.
    """
    chi = holevo_eb_series(p, v_a)
    return [p.beta * i_ab - c for i_ab, c in zip(mutual_information_ab_series(p, v_a), chi)]


def decoupling_modulation(v_r: float) -> float:
    """Modulation variance that decouples the eavesdropper in a lossy channel: 1 - v_r."""
    return 1.0 - _in_unit_interval("v_r", v_r)


# Grid points per round of optimal_modulation.  With excess noise a round
# costs about 130 us plus 12 us per point, so 7 to 17 points take about the
# same time.  A round over a whole bracket narrows it 6-fold, from 10 to 1e-6
# in 9 rounds.  Windows zoomed onto the rate's vertex, with the stop on flat
# rates and the tol / 2 window at an end the rate still rises to, took 3.44
# rounds on average over 400 link-design searches with excess noise on
# (0, 10): 2.01 at the 220 end optima, 5.19 at the 180 interior ones.
_SEARCH_POINTS = 13
# A zoomed window's radius is at least the grid step it comes from over this.
_ZOOM = 20.0
# Rates within this many bits of each other are equal to float noise.
_FLAT_RATE = 1e-12


def optimal_modulation(p: ProtocolParams, v_a_range: tuple[float, float],
                       tol: float = 1e-6) -> tuple[float, float]:
    """Modulation maximizing the asymptotic key rate over a closed interval.

    Searches in rounds to absolute tolerance ``tol`` in v_a.  It keeps a
    bracket, which holds the maximum if the rate has a single peak, and a
    window inside it.  Each round rates an evenly spaced grid of the window
    with one series call per term; the first window is the whole interval.
    The bracket becomes the best point's two neighbours, or the bracket's
    end where the best point is a window end.  The next window:

    * best point inside the window: centred on the vertex of the parabola
      through the best point and its neighbours where that parabola is
      concave, else on the best point, with radius max(h / 20,
      2 |vertex - best|) for the grid step h, clipped to the bracket;
    * best point at a bracket end: the part of the bracket within h / 20
      of that end where the parabola through the end and its two inward
      neighbours is concave with its vertex inward of the end, else within
      tol / 2 of it, which ends the search if that end is best again;
    * best point at a window end inside the bracket: the whole bracket, as
      the maximum may lie beyond the window.

    The search stops once the bracket is at most ``tol`` wide, or when a
    round no longer narrows it, as happens once ``tol`` is below the float
    spacing there.  It also stops when the best point is not a window end
    inside the bracket and its rated neighbours lie within 1e-12 bits of it:
    the peak then lies between rated points that agree to float noise, and
    no further round can rate higher by more than that.  Returns the last
    round's best point, which is the range end itself at an end optimum,
    and key_rate_asymptotic there; where no round runs, the range's
    midpoint.  The searched rate must be finite everywhere on the interval.

    ``tol`` bounds the width of a bracket that ends the search, not the
    distance to the true optimum: where the rate is flat to float precision,
    the grid's best point is decided by rounding noise.  With excess noise
    the rate changes by about 1e-12 within +-1e-5 of the optimum, so the
    returned v_a can lie up to about 1e-5 from it whatever ``tol`` is; the
    returned rate is still within float noise of the maximum.
    """
    lo, hi = float(v_a_range[0]), float(v_a_range[1])
    if not 0.0 <= lo <= hi < math.inf:  # nan fails every comparison
        raise ValueError(f"invalid modulation range ({lo}, {hi})")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")

    def check(v_a: float, value: float) -> float:
        if not math.isfinite(value):
            raise ValueError(f"key rate is not finite at v_a = {v_a}")
        return value

    last = _SEARCH_POINTS - 1
    a, b = lo, hi  # the bracket
    w_a, w_b = a, b  # the window, rated next
    best = 0.5 * (a + b)  # returned as it is where no round runs
    while b - a > tol:
        points = np.linspace(w_a, w_b, _SEARCH_POINTS).tolist()
        rates = list(map(check, points, key_rate_series(p, points)))
        k = rates.index(max(rates))
        best, h = points[k], (w_b - w_a) / last
        if 0 < k < last:
            left, mid, right = rates[k - 1:k + 2]
            curvature = left - 2.0 * mid + right
            centre = best + 0.5 * h * (left - right) / curvature if curvature < 0.0 else best
            radius = max(h / _ZOOM, 2.0 * abs(centre - best))
        elif best in (a, b):
            # The parabola through the end f0 and its inward neighbours f1, f2
            # peaks (3 f0 - 4 f1 + f2) / (2 (f0 - 2 f1 + f2)) steps inward: as
            # f0 >= f1, only where the numerator is negative.  Else the end is
            # the optimum, and a round within tol / 2 of it confirms that.
            f0, f1, f2 = rates[:3] if k == 0 else rates[:-4:-1]
            inward = 3.0 * f0 - 4.0 * f1 + f2 < 0.0
            centre, radius = best, h / _ZOOM if inward else 0.5 * tol
        else:
            centre, radius = best, math.inf
        a_next = points[k - 1] if k > 0 else a
        b_next = points[k + 1] if k < last else b
        if not b_next - a_next < b - a:
            break  # the bracket spans adjacent floats
        a, b = a_next, b_next
        if radius < math.inf and rates[k] - min(rates[max(k - 1, 0):k + 2]) <= _FLAT_RATE:
            break  # the peak lies between rated points that agree to float noise
        w_a, w_b = max(centre - radius, a), min(centre + radius, b)
    return best, check(best, key_rate_asymptotic(p.with_modulation(best)))


def security_report(p: ProtocolParams) -> SecurityReport:
    """All derived security quantities for one protocol instance.

    Each field is its standalone function's value, and an error is the one
    those functions raise first in field order.  With excess noise chi_E
    and the QMI share one cached solve of the point (see holevo_eb).
    """
    return _report(p.beta, mutual_information_ab(p), holevo_eb(p), classical_leakage(p, "B"),
                   classical_leakage(p, "A"), quantum_mutual_information_eb(p))


def _report(beta, i_ab, chi_e, leak_eb, leak_ea, qmi_eb) -> SecurityReport:
    """The report of these values: key_rate = beta * i_ab - chi_e, each leak_* a (C, I) pair."""
    (c_eb, i_eb), (c_ea, i_ea) = leak_eb, leak_ea
    return SecurityReport(i_ab, chi_e, beta * i_ab - chi_e, c_eb, c_ea, i_eb, i_ea, qmi_eb)
