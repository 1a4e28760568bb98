"""Property-based tests over the realistic parameter domain.

The domain is v_r in [0.1, 1], eta in [0.01, 0.99], delta_v in [0, 10],
v_n in [0, 1], epsilon in [0, 0.1] and v_a in [0, 10], with detector
efficiencies in (0, 1]: every point of it must give a finite, consistent
answer.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzkd.cli import _db_grid
from sqzkd.emulator import (
    XA, XB,
    EmulationConfig,
    ReconstructedCM,
    expected_record_covariance,
    security_from_data,
)
from sqzkd.finite_size import FiniteSizeParams, beta_threshold, security_region
from sqzkd.gaussian import (
    CovarianceMatrix,
    condition_on_label,
    db_to_snu,
    snu_to_db,
    von_neumann_entropy,
)
from sqzkd.protocol import (
    ProtocolParams,
    build_joint_state,
    classical_leakage,
    holevo_eb,
    holevo_eb_series,
    holevo_from_cm,
    key_rate_asymptotic,
    key_rate_series,
    mutual_information_ab,
    mutual_information_ab_series,
    optimal_modulation,
    qmi_from_cm,
    quantum_mutual_information_eb,
    security_report,
)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)

v_r_values = st.floats(0.1, 1.0)
eta_values = st.floats(0.01, 0.99)
delta_v_values = st.floats(0.0, 10.0)
v_n_values = st.floats(0.0, 1.0)
epsilon_values = st.one_of(st.just(0.0), st.floats(0.0, 0.1))
efficiency_values = st.floats(0.0, 1.0, exclude_min=True)
v_a_series = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12)


@PROPERTY_SETTINGS
@given(v_r=v_r_values, v_a=st.floats(0.0, 10.0), eta=eta_values, delta_v=delta_v_values,
       v_n=v_n_values, epsilon=epsilon_values)
def test_holevo_bounds_classical_leakage(v_r, v_a, eta, delta_v, v_n, epsilon):
    p = ProtocolParams(v_r=v_r, v_a=v_a, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon)
    _, i_eb = classical_leakage(p, "B")
    assert holevo_eb(p) >= i_eb - 1e-9


@PROPERTY_SETTINGS
@given(v_r=v_r_values, eta=eta_values, delta_v=delta_v_values, v_n=v_n_values)
def test_holevo_vanishes_at_decoupling(v_r, eta, delta_v, v_n):
    p = ProtocolParams(v_r=v_r, v_a=1.0 - v_r, eta=eta, delta_v=delta_v, v_n=v_n)
    assert holevo_eb(p) <= 1e-9


def lossy_oracle(p):
    """(chi_E, I_AB) of a lossy channel in bits: holevo_eb's closed form to 60 digits."""
    def g(nu):
        a, b = (nu + 1) / 2, (nu - 1) / 2
        return a * mpmath.log(a, 2) - (b * mpmath.log(b, 2) if b else 0)

    with mpmath.workdps(60):
        v_r, v_a, eta, delta_v, v_n = map(mpmath.mpf, (p.v_r, p.v_a, p.eta, p.delta_v, p.v_n))
        big_v = v_r + v_a
        v_e_x = eta + (1 - eta) * big_v
        v_e_p = eta + (1 - eta) * (1 / v_r + delta_v)
        v_eb_x = (big_v + v_n * (1 - eta) * big_v + eta * v_n) / (v_n + 1 - eta + eta * big_v)
        chi = g(mpmath.sqrt(v_e_x * v_e_p)) - g(mpmath.sqrt(v_eb_x * v_e_p))
        noise = eta * v_r + v_n + 1 - eta
        return chi, mpmath.log((eta * v_a + noise) / noise, 2) / 2


@PROPERTY_SETTINGS
@given(v_r=v_r_values, v_a=st.floats(0.0, 10.0), eta=eta_values, delta_v=delta_v_values,
       v_n=v_n_values)
def test_lossy_model_matches_the_oracle(v_r, v_a, eta, delta_v, v_n):
    p = ProtocolParams(v_r=v_r, v_a=v_a, eta=eta, delta_v=delta_v, v_n=v_n)
    chi, i_ab = lossy_oracle(p)
    assert abs(holevo_eb(p) - chi) <= 1e-13
    assert abs(mutual_information_ab(p) - i_ab) <= 1e-13


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the lossy chi_E rounds below "
                                       "the 60-digit oracle on 57 of fig4's 106 points")
def test_lossy_holevo_not_below_the_oracle_on_fig4():
    # fig4's default lossy series: eta = 0.001, the squeezed and coherent
    # source, on the dB grid from the decoupling modulation 0.5 to 10 dB.
    start = snu_to_db(0.5)
    grid = [db_to_snu(db) for db in _db_grid(start, 10.0, 0.25, insert=start)]
    below = []
    for v_r in (0.5, 1.0):
        base = ProtocolParams(v_r=v_r, v_a=1.0, eta=0.001)
        below += [(v_r, v_a) for v_a, chi in zip(grid, holevo_eb_series(base, grid))
                  if chi < lossy_oracle(replace(base, v_a=v_a))[0]]
    assert below == []


def noisy_oracle(p):
    """chi_E in bits of a channel with excess noise, to 60 digits, built from p's fields alone.

    Over (S, E1, E2) the source and the eavesdropper's entangled pair of
    variance W are block-diagonal in X and P, and the channel beamsplitter
    mixes S with the injected arm E1 in each block.  For her two modes nu^2
    are the eigenvalues of Gamma_X Gamma_P, and the receiver's noisy X
    changes Gamma_X alone.
    """
    def g(nu):  # nu <= 1 is the vacuum; at eta = 0.001 nu rounds below 1 by ~1e-55
        a, b = (nu + 1) / 2, (nu - 1) / 2
        return a * mpmath.log(a, 2) - b * mpmath.log(b, 2) if nu > 1 else 0

    def entropy(gamma_x, gamma_p):
        product = gamma_x * gamma_p
        trace, det = product[0, 0] + product[1, 1], mpmath.det(product)
        root = mpmath.sqrt(max(trace * trace - 4 * det, 0))
        return g(mpmath.sqrt((trace + root) / 2)) + g(mpmath.sqrt((trace - root) / 2))

    with mpmath.workdps(60):
        v_r, v_a, eta, delta_v, epsilon, v_n = map(
            mpmath.mpf, (p.v_r, p.v_a, p.eta, p.delta_v, p.epsilon, p.v_n))
        w = 1 + eta * epsilon / (1 - eta)
        c = mpmath.sqrt(w * w - 1)
        t, r = mpmath.sqrt(eta), mpmath.sqrt(1 - eta)
        mix = mpmath.matrix([[t, -r, 0], [r, t, 0], [0, 0, 1]])
        gamma_x = mix * mpmath.matrix([[v_r + v_a, 0, 0], [0, w, c], [0, c, w]]) * mix.T
        gamma_p = mix * mpmath.matrix([[1 / v_r + delta_v, 0, 0], [0, w, -c], [0, -c, w]]) * mix.T
        eve_x, eve_p, cross = gamma_x[1:, 1:], gamma_p[1:, 1:], gamma_x[1:, 0]
        eve_x_given_b = eve_x - cross * cross.T / (gamma_x[0, 0] + v_n)
        return entropy(eve_x, eve_p) - entropy(eve_x_given_b, eve_p)


@PROPERTY_SETTINGS
@given(v_r=v_r_values, v_a=st.floats(0.0, 10.0), eta=eta_values, delta_v=delta_v_values,
       v_n=v_n_values, epsilon=st.floats(0.0, 0.1, exclude_min=True))
def test_noisy_model_matches_the_oracle(v_r, v_a, eta, delta_v, v_n, epsilon):
    p = ProtocolParams(v_r=v_r, v_a=v_a, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon)
    chi = noisy_oracle(p)
    assert abs(holevo_eb(p) - chi) <= 1e-10 * chi + 1e-13


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the noisy chi_E rounds below "
                                       "the 60-digit oracle on 63 of fig4's 106 points")
def test_noisy_holevo_not_below_the_oracle_on_fig4():
    # fig4's default noisy series: eta = 0.001, epsilon = 0.035, the squeezed
    # and coherent source, on the lossy test's dB grid.
    start = snu_to_db(0.5)
    grid = [db_to_snu(db) for db in _db_grid(start, 10.0, 0.25, insert=start)]
    below = []
    for v_r in (0.5, 1.0):
        base = ProtocolParams(v_r=v_r, v_a=1.0, eta=0.001, epsilon=0.035)
        below += [(v_r, v_a) for v_a, chi in zip(grid, holevo_eb_series(base, grid))
                  if chi < noisy_oracle(replace(base, v_a=v_a))]
    assert below == []


@PROPERTY_SETTINGS
@given(v_r=v_r_values, eta=eta_values, delta_v=delta_v_values, v_n=v_n_values,
       grid=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=60))
def test_holevo_monotone_either_side_of_decoupling(v_r, eta, delta_v, v_n, grid):
    # Only without excess noise: for epsilon > 0 the minimum of chi_E moves
    # off 1 - v_r, and the order breaks on either side of it.  Points an ulp
    # apart may swap by rounding (7.6e-16 bits seen), hence the tolerance.
    p = ProtocolParams(v_r=v_r, v_a=1.0, eta=eta, delta_v=delta_v, v_n=v_n)
    grid = sorted(grid)
    chi = [point.chi_e for point in security_region(p, grid)]
    below = [c for v_a, c in zip(grid, chi) if v_a <= 1.0 - v_r]
    above = [c for v_a, c in zip(grid, chi) if v_a >= 1.0 - v_r]
    assert all(a >= b - 1e-12 for a, b in zip(below, below[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(above, above[1:]))


@PROPERTY_SETTINGS
@given(v_r=v_r_values, v_a=st.floats(0.0, 10.0), eta=eta_values, delta_v=delta_v_values,
       v_n=v_n_values)
def test_holevo_monotone_in_the_source_at_zero_excess_noise(v_r, v_a, eta, delta_v, v_n):
    # The worst chi_E over a box of trusted source parameters is at a corner:
    # chi_E is monotone in v_r on either side of v_r = 1 - v_a, and never
    # rises with delta_v.  Tolerance as in the v_a test above.
    p = ProtocolParams(v_r=v_r, v_a=v_a, eta=eta, delta_v=delta_v, v_n=v_n)
    v_rs = np.linspace(0.1, 1.0, 301).tolist()
    chi = [holevo_eb(replace(p, v_r=x)) for x in v_rs]
    below = [c for x, c in zip(v_rs, chi) if x <= 1.0 - v_a]
    above = [c for x, c in zip(v_rs, chi) if x >= 1.0 - v_a]
    assert all(a >= b - 1e-12 for a, b in zip(below, below[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(above, above[1:]))
    chi = [holevo_eb(replace(p, delta_v=dv)) for dv in np.linspace(0.0, 10.0, 201).tolist()]
    assert all(a >= b - 1e-12 for a, b in zip(chi, chi[1:]))


@PROPERTY_SETTINGS
@given(v_r=v_r_values, eta=eta_values, delta_v=delta_v_values, v_n=v_n_values,
       epsilon=st.floats(0.0, 0.1, exclude_min=True, exclude_max=True),
       grid=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=60))
def test_holevo_unimodal_with_excess_noise(v_r, eta, delta_v, v_n, epsilon, grid):
    # With excess noise the minimum of chi_E moves off 1 - v_r, but chi_E
    # still falls to it and rises after it: it is monotone on either side of
    # the grid's minimum, up to the same rounding between close points.
    p = ProtocolParams(v_r=v_r, v_a=1.0, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon)
    grid = sorted(grid)
    chi = [point.chi_e for point in security_region(p, grid)]
    k = chi.index(min(chi))
    assert all(a >= b - 1e-12 for a, b in zip(chi[:k], chi[1:k + 1]))
    assert all(a <= b + 1e-12 for a, b in zip(chi[k:], chi[k + 1:]))


@PROPERTY_SETTINGS
@given(v_r=v_r_values, eta=eta_values, delta_v=st.floats(0.0, 10.0, exclude_min=True),
       v_n=st.floats(0.0, 1.0, exclude_min=True), epsilon=epsilon_values, grid=v_a_series)
def test_region_series_equals_points_bit_for_bit(v_r, eta, delta_v, v_n, epsilon, grid):
    p = ProtocolParams(v_r=v_r, v_a=1.0, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon)
    for v_a, point in zip(grid, security_region(p, grid), strict=True):
        alone = replace(p, v_a=v_a)
        assert point.chi_e.hex() == holevo_eb(alone).hex()
        assert point.i_ab.hex() == mutual_information_ab(alone).hex()


@PROPERTY_SETTINGS
@given(v_r=v_r_values, eta=eta_values, delta_v=delta_v_values, v_n=v_n_values,
       epsilon=epsilon_values, grid=v_a_series,
       fp=st.sampled_from([None, FiniteSizeParams.from_total(1e10)]))
@example(v_r=0.5, eta=0.5, delta_v=0.0, v_n=0.0, epsilon=0.0, grid=[0.0, 0.5, 10.0],
         fp=FiniteSizeParams.from_total(1e10))
def test_region_thresholds_equal_beta_threshold_bit_for_bit(v_r, eta, delta_v, v_n, epsilon,
                                                            grid, fp):
    # security_region computes Delta once per grid, not once per point
    p = ProtocolParams(v_r=v_r, v_a=1.0, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon)
    for v_a, point in zip(grid, security_region(p, grid, fp), strict=True):
        assert point.beta_star.hex() == beta_threshold(replace(p, v_a=v_a), fp).hex()
        assert point.secure == (point.beta_star < 1.0)


@PROPERTY_SETTINGS
@given(v_r=v_r_values, eta=eta_values, delta_v=delta_v_values, v_n=v_n_values,
       epsilon=epsilon_values, beta=st.floats(0.0, 1.0, exclude_min=True), grid=v_a_series)
@example(v_r=0.5, eta=0.5, delta_v=0.3, v_n=0.1, epsilon=0.0, beta=0.95, grid=[0.0, 0.5, 2.0])
@example(v_r=0.5, eta=0.5, delta_v=0.3, v_n=0.1, epsilon=0.05, beta=0.95, grid=[0.0, 0.5, 2.0])
def test_key_rate_series_equals_the_scalar_bit_for_bit(v_r, eta, delta_v, v_n, epsilon, beta,
                                                      grid):
    p = ProtocolParams(v_r=v_r, v_a=1.0, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon,
                       beta=beta)
    rates = key_rate_series(p, grid)
    assert [rate.hex() for rate in rates] == \
        [key_rate_asymptotic(replace(p, v_a=v_a)).hex() for v_a in grid]


@PROPERTY_SETTINGS
@given(v_r=v_r_values, eta=eta_values, delta_v=delta_v_values, v_n=v_n_values,
       epsilon=epsilon_values, beta=st.floats(0.0, 1.0, exclude_min=True), grid=v_a_series)
def test_key_rate_below_plob_bound(v_r, eta, delta_v, v_n, epsilon, beta, grid):
    # No protocol beats the repeaterless capacity -log2(1 - eta) of a lossy
    # channel (Pirandola et al., Nat. Commun. 8, 15043, 2017); a rate above
    # it would underestimate the eavesdropper.
    p = ProtocolParams(v_r=v_r, v_a=1.0, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon)
    capacity = -math.log2(1.0 - eta)
    for point in security_region(p, grid):
        assert beta * point.i_ab - point.chi_e <= capacity


@PROPERTY_SETTINGS
@given(v_r=v_r_values, v_a=st.floats(0.0, 10.0), eta=eta_values, delta_v=delta_v_values,
       v_n=v_n_values, epsilon=st.one_of(st.just(0.0), st.floats(0.0, 0.1, exclude_min=True)))
def test_report_equals_the_standalone_functions(v_r, v_a, eta, delta_v, v_n, epsilon):
    # with excess noise chi_E and the QMI read one cached solve of the point;
    # the next property compares that solve with the joint state solved alone
    p = ProtocolParams(v_r=v_r, v_a=v_a, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon)
    report = security_report(p)
    assert report.chi_e.hex() == holevo_eb(p).hex()
    assert report.qmi_eb.hex() == quantum_mutual_information_eb(p).hex()


@PROPERTY_SETTINGS
@given(v_r=v_r_values, v_a=st.floats(0.0, 10.0), eta=eta_values, delta_v=delta_v_values,
       v_n=v_n_values, epsilon=st.floats(0.0, 0.1, exclude_min=True))
def test_noisy_point_equals_its_joint_state_solved_alone(v_r, v_a, eta, delta_v, v_n, epsilon):
    # holevo_eb and the QMI share one stacked solve, which also gives S(E)
    p = ProtocolParams(v_r=v_r, v_a=v_a, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon)
    joint = build_joint_state(p)
    assert quantum_mutual_information_eb(p).hex() == qmi_from_cm(joint).hex()
    assert holevo_eb(p).hex() == holevo_from_cm(joint, p.v_n).hex()


def one_mode_symplectic(theta, r, phi):
    """R(theta) diag(e^r, e^-r) R(phi), a single-mode symplectic, with numpy alone."""
    def rotation(angle):
        return np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])
    return rotation(theta) @ np.diag([np.exp(r), np.exp(-r)]) @ rotation(phi)


def transformed(gamma, s):
    """The covariance matrix S gamma S^T, symmetrised against rounding."""
    out = s @ gamma @ s.T
    return CovarianceMatrix(0.5 * (out + out.T))


one_mode_maps = st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(-1.0, 1.0),
                          st.floats(0.0, 2.0 * math.pi))


@PROPERTY_SETTINGS
@given(v_r=v_r_values, v_a=st.floats(0.0, 10.0), eta=eta_values, delta_v=delta_v_values,
       v_n=v_n_values, epsilon=epsilon_values, on_b=one_mode_maps, on_e1=one_mode_maps,
       on_e2=one_mode_maps, mixing=st.floats(0.0, 2.0 * math.pi))
def test_local_symplectics_leave_holevo_and_qmi_unchanged(v_r, v_a, eta, delta_v, v_n, epsilon,
                                                          on_b, on_e1, on_e2, mixing):
    # Eve's operations on her own modes cannot change what she learns about
    # x_B, and no local operation changes the B-E correlations.  Her modes are
    # E1 on a lossy channel, and E1, E2 mixed by a rotation at epsilon > 0.
    p = ProtocolParams(v_r=v_r, v_a=v_a, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon)
    joint = build_joint_state(p)
    dim = joint.entries.shape[0]
    eve = np.eye(dim)
    eve[2:4, 2:4] = one_mode_symplectic(*on_e1)
    if dim == 6:
        eve[4:, 4:] = one_mode_symplectic(*on_e2)
        c, s = np.cos(mixing), np.sin(mixing)
        rotation = np.eye(dim)
        rotation[2:, 2:] = np.kron([[c, s], [-s, c]], np.eye(2))
        eve = eve @ rotation
    bob = np.eye(dim)
    bob[:2, :2] = one_mode_symplectic(*on_b)
    for noise in (0.0, v_n):
        assert abs(holevo_from_cm(transformed(joint.entries, eve), noise)
                   - holevo_from_cm(joint, noise)) <= 1e-10
    for local in (eve, bob):
        assert abs(qmi_from_cm(transformed(joint.entries, local)) - qmi_from_cm(joint)) <= 1e-10


@settings(max_examples=40, deadline=None)  # each example rates 10001 grid points
@given(v_r=v_r_values, eta=eta_values, delta_v=delta_v_values, v_n=v_n_values,
       epsilon=epsilon_values, beta=st.floats(0.0, 1.0, exclude_min=True))
def test_optimal_modulation_not_below_a_dense_grid(v_r, eta, delta_v, v_n, epsilon, beta):
    # A peak the search misses shows here.  The grid includes the range's
    # ends: the search returns its best rated point, which is the end itself
    # where the rate peaks there.
    p = ProtocolParams(v_r=v_r, v_a=1.0, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon,
                       beta=beta)
    v_star, rate = optimal_modulation(p, (0.0, 10.0))
    grid = np.arange(0, 10_001) * 1e-3
    rates = [beta * i_ab - chi for i_ab, chi in zip(
        mutual_information_ab_series(p, grid), holevo_eb_series(p, grid))]
    assert 0.0 <= v_star <= 10.0
    assert rate >= max(rates) - 1e-9


@PROPERTY_SETTINGS
@given(v_r=v_r_values, eta=eta_values, delta_v=delta_v_values, v_n=v_n_values,
       epsilon=epsilon_values, beta=st.floats(0.0, 1.0, exclude_min=True))
def test_key_rate_has_one_peak(v_r, eta, delta_v, v_n, epsilon, beta):
    # optimal_modulation's bracket relies on it: on [0, 10] the rate's slope
    # changes sign at most once.  Steps within 1e-12 bits are rounding.
    p = ProtocolParams(v_r=v_r, v_a=1.0, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon,
                       beta=beta)
    grid = np.concatenate(([0.0], np.logspace(-4, 1, 801)))
    rates = [beta * i_ab - chi for i_ab, chi in zip(
        mutual_information_ab_series(p, grid), holevo_eb_series(p, grid))]
    slopes = [b > a for a, b in zip(rates, rates[1:]) if abs(b - a) > 1e-12]
    assert sum(s != t for s, t in zip(slopes, slopes[1:])) <= 1


@PROPERTY_SETTINGS
@given(v_r=v_r_values, v_a=st.floats(1e-3, 10.0), eta=eta_values, delta_v=delta_v_values,
       v_n=v_n_values)
# exact moments that a physicality check on the whole 6x6 matrix, the
# sender's placeholder phase row included, rejects (nu_min 0.947)
@example(v_r=0.1015625, v_a=0.0625, eta=0.5, delta_v=0.0, v_n=0.0)
def test_data_path_reproduces_model_on_exact_moments(v_r, v_a, eta, delta_v, v_n):
    p = ProtocolParams(v_r=v_r, v_a=v_a, eta=eta, delta_v=delta_v, v_n=v_n)
    cfg = EmulationConfig(n_samples=10 ** 9, seed=0, ideal_detectors=True)
    matrix = expected_record_covariance(replace(p, v_n=0.0), cfg)
    recon = ReconstructedCM(moments=matrix, n_samples=cfg.n_samples,
                            standard_errors=np.zeros_like(matrix))
    got = security_from_data(recon, p.beta, v_n_trusted=v_n)
    # at v_a = 1 - v_r the model's leakage terms are exactly 0 and the data
    # path's are float noise (~1e-33), hence the absolute floor
    for key, want in security_report(p).as_dict().items():
        assert math.isclose(getattr(got, key), want, rel_tol=1e-9, abs_tol=1e-12), key


def beamsplitter(gamma, i, j, t):
    """S gamma S^T, S a beamsplitter of transmittance t on modes (i, j), with numpy alone.

    Mode i keeps a sqrt(t) share of itself plus a sqrt(1 - t) share of mode j.
    """
    s = np.eye(len(gamma))
    for off in (0, 1):
        a, b = 2 * i + off, 2 * j + off
        s[a, a] = s[b, b] = np.sqrt(t)
        s[a, b], s[b, a] = np.sqrt(1.0 - t), -np.sqrt(1.0 - t)
    return s @ gamma @ s.T


def gg02_holevo(v_a, eta):
    """chi_E of GG02 over pure loss, entanglement-based, independently of the model's state.

    A two-mode squeezed vacuum of variance V = 1 + v_a over (A, S), S through
    the loss to Eve's vacuum mode.  A, B and E are then pure, so S(E) = S(AB)
    and S(E | x_B) = S(A | x_B).
    """
    v = 1.0 + v_a
    c = math.sqrt(v * v - 1.0)
    gamma = np.zeros((6, 6))
    gamma[:4, :4] = [[v, 0, c, 0], [0, v, 0, -c], [c, 0, v, 0], [0, -c, 0, v]]
    gamma[4:, 4:] = np.eye(2)
    gamma = beamsplitter(gamma, 1, 2, eta)  # B keeps a sqrt(eta) share of S
    labelled = gamma[np.ix_([2, 0, 1], [2, 0, 1])]  # x_B, then A's quadratures
    return (von_neumann_entropy(CovarianceMatrix(gamma[:4, :4]))
            - von_neumann_entropy(condition_on_label(labelled)))


@PROPERTY_SETTINGS
@given(v_a=st.floats(0.0, 10.0), eta=eta_values)
@example(v_a=1.0, eta=0.5)
@example(v_a=10.0, eta=0.1)
@example(v_a=3.0, eta=0.9)
@example(v_a=0.2, eta=0.3)
def test_gg02_holevo_equals_the_entanglement_based_computation(v_a, eta):
    # GG02 in this model: a coherent source whose P modulation adds to its P variance
    p = ProtocolParams(v_r=1.0, v_a=v_a, eta=eta, delta_v=v_a)
    assert abs(holevo_eb(p) - gg02_holevo(v_a, eta)) <= 1e-12


def quantum_model_record_covariance(p, cfg):
    """Record moments built on the quantum state, independently of the sampler's optics.

    The channel outputs of build_joint_state, each detected mode mixed with
    its own vacuum at the homodyne efficiency, the sender's cross moments
    sqrt(eta eta_b) v_a with x_b and sqrt((1-eta) eta_e) v_a with x_e, and
    the electronic noise v_n on x_b.
    """
    joint = build_joint_state(p)
    eta_b, eta_e = cfg.detector_efficiencies()
    dim = joint.entries.shape[0]
    state = np.block([[joint.entries, np.zeros((dim, 4))], [np.zeros((4, dim)), np.eye(4)]])
    state = beamsplitter(state, 0, joint.n_modes, eta_b)
    state = beamsplitter(state, 1, joint.n_modes + 1, eta_e)
    cross = [math.sqrt(p.eta * eta_b) * p.v_a, 0.0,
             math.sqrt((1.0 - p.eta) * eta_e) * p.v_a, 0.0]
    moments = np.zeros((5, 5))
    moments[XA, XA] = p.v_a
    moments[XB:, XB:] = state[:4, :4]
    moments[XA, XB:] = cross
    moments[XB:, XA] = cross
    moments[XB, XB] += p.v_n
    return moments


@PROPERTY_SETTINGS
@given(v_r=v_r_values, v_a=st.floats(0.0, 10.0), eta=eta_values, delta_v=delta_v_values,
       v_n=v_n_values, epsilon=epsilon_values, eta_bob_det=efficiency_values,
       eta_eve_det=efficiency_values, ideal_detectors=st.booleans())
def test_record_moments_match_quantum_model(v_r, v_a, eta, delta_v, v_n, epsilon,
                                            eta_bob_det, eta_eve_det, ideal_detectors):
    p = ProtocolParams(v_r=v_r, v_a=v_a, eta=eta, delta_v=delta_v, v_n=v_n, epsilon=epsilon)
    cfg = EmulationConfig(n_samples=2, seed=0, eta_bob_det=eta_bob_det,
                          eta_eve_det=eta_eve_det, ideal_detectors=ideal_detectors)
    want = quantum_model_record_covariance(p, cfg)
    got = expected_record_covariance(p, cfg)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
