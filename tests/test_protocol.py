"""Tests for the analytic protocol model.

The closed forms are cross-checked against the generic pipeline (joint state
plus homodyne Schur complement), against frozen high-precision evaluations,
and against sampled moments from the emulator.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from sqzkd.emulator import EmulationConfig, generate_samples
from sqzkd.gaussian import (
    CovarianceMatrix,
    condition_on_homodyne,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from sqzkd.protocol import (
    ProtocolParams,
    build_joint_state,
    classical_leakage,
    decoupling_modulation,
    eve_conditional_covariance,
    eve_covariance,
    holevo_eb,
    key_rate_asymptotic,
    mutual_information_ab,
    optimal_modulation,
    quantum_mutual_information_eb,
    security_report,
    source_covariance,
)

# mpmath oracles, 40 significant digits, frozen
CHI_COHERENT_058 = 0.12575666580699362994
IAB_HALF = 0.20751874963942190927  # 0.5 * log2(4/3)
EVE_COND_X_058 = 1.2658227848101265823  # 2 / 1.58


def pipeline_chi(p):
    """Independent route: joint state, noisy X homodyne, entropy difference."""
    joint = build_joint_state(p)
    eve = joint.submatrix(range(1, joint.n_modes))
    noisy = np.array(joint.entries)
    noisy[0, 0] += p.v_n
    conditioned = condition_on_homodyne(CovarianceMatrix(noisy), 0, "X")
    return von_neumann_entropy(eve) - von_neumann_entropy(conditioned)


def random_params(rng, decoupled=False, epsilon=0.0):
    v_r = rng.uniform(0.05, 0.99)
    return ProtocolParams(
        v_r=v_r,
        v_a=(1.0 - v_r) if decoupled else rng.uniform(0.0, 3.0),
        eta=rng.uniform(0.001, 0.99),
        delta_v=rng.uniform(0.0, 10.0),
        epsilon=epsilon,
        v_n=rng.uniform(0.0, 1.0),
    )


class TestProtocolParams:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(v_r=0.0, v_a=0.5, eta=0.5)
        with pytest.raises(ValueError):
            ProtocolParams(v_r=1.2, v_a=0.5, eta=0.5)
        with pytest.raises(ValueError):
            ProtocolParams(v_r=0.5, v_a=-0.1, eta=0.5)
        with pytest.raises(ValueError):
            ProtocolParams(v_r=0.5, v_a=0.5, eta=0.0)
        with pytest.raises(ValueError):
            ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, beta=0.0)
        with pytest.raises(ValueError):
            ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, v_n=-1.0)

    def test_source_always_physical(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_params(rng)
            cm = source_covariance(p)
            assert cm.entries[0, 0] * cm.entries[1, 1] >= 1.0 - 1e-12


class TestEveCovariance:
    def test_decoupled_x_entry(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        assert np.allclose(eve_covariance(p).entries, np.diag([1.0, 1.5]), atol=1e-15)

    def test_coherent_reference_point(self):
        p = ProtocolParams(v_r=1.0, v_a=1.0, eta=0.58)
        assert np.allclose(eve_covariance(p).entries, np.diag([1.42, 1.0]), atol=1e-12)

    def test_lossless_channel_leaks_vacuum(self):
        p = ProtocolParams(v_r=0.3, v_a=2.0, eta=1.0, delta_v=4.0)
        assert np.allclose(eve_covariance(p).entries, np.eye(2), atol=1e-15)

    def test_rejects_excess_noise(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=0.01)
        with pytest.raises(ValueError, match="build_joint_state"):
            eve_covariance(p)
        with pytest.raises(ValueError, match="build_joint_state"):
            eve_conditional_covariance(p)


class TestEveConditionalCovariance:
    def test_decoupling_point_is_unity(self):
        for eta in (0.1, 0.5, 0.9):
            for v_n in (0.0, 0.3, 5.0):
                p = ProtocolParams(v_r=0.5, v_a=0.5, eta=eta, v_n=v_n)
                assert eve_conditional_covariance(p).entries[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_coherent_closed_form(self):
        p = ProtocolParams(v_r=1.0, v_a=1.0, eta=0.58)
        assert eve_conditional_covariance(p).entries[0, 0] == pytest.approx(
            EVE_COND_X_058, abs=1e-14)

    def test_large_detector_noise_approaches_unconditional(self):
        p = ProtocolParams(v_r=0.7, v_a=1.3, eta=0.6, v_n=1e9)
        cond = eve_conditional_covariance(p).entries[0, 0]
        uncond = (p.v_r + p.v_a) * (1 - p.eta) + p.eta
        assert cond == pytest.approx(uncond, abs=1e-6)


class TestHolevo:
    def test_decoupling_eliminates_holevo(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = random_params(rng, decoupled=True)
            assert holevo_eb(p) <= 1e-9

    def test_coherent_reference_value(self):
        p = ProtocolParams(v_r=1.0, v_a=1.0, eta=0.58)
        chi = holevo_eb(p)
        assert chi == pytest.approx(CHI_COHERENT_058, abs=1e-12)
        # the closed-form route must agree with the generic pipeline
        assert chi == pytest.approx(pipeline_chi(p), abs=1e-10)

    def test_no_modulation_coherent_leaks_nothing(self):
        p = ProtocolParams(v_r=1.0, v_a=0.0, eta=0.4, v_n=0.2)
        assert holevo_eb(p) == 0.0

    def test_purity_independence_at_decoupling(self):
        values = [
            holevo_eb(ProtocolParams(v_r=0.5, v_a=0.5, eta=0.3, delta_v=dv, v_n=0.1))
            for dv in (0.0, 1.0, 10.0)
        ]
        for v in values:
            assert abs(v) <= 1e-9
        assert max(values) - min(values) <= 1e-9

    def test_loss_independence_at_decoupling(self):
        for eta in (0.001, 0.098, 0.5, 0.9):
            p = ProtocolParams(v_r=0.5, v_a=0.5, eta=eta)
            assert holevo_eb(p) <= 1e-9

    def test_monotone_away_from_decoupling(self):
        p0 = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.3, v_n=0.1)
        up = [holevo_eb(replace(p0, v_a=0.5 + k * 0.07)) for k in range(6)]
        down = [holevo_eb(replace(p0, v_a=0.5 - k * 0.07)) for k in range(6)]
        assert all(b > a for a, b in zip(up, up[1:]))
        assert all(b > a for a, b in zip(down, down[1:]))

    def test_large_detector_noise_route(self):
        p = ProtocolParams(v_r=0.7, v_a=0.9, eta=0.6, v_n=1e9)
        assert holevo_eb(p) < 1e-6
        assert mutual_information_ab(p) < 1e-6

    def test_noisy_channel_pipeline(self):
        p = ProtocolParams(v_r=0.5, v_a=1.3, eta=0.4, epsilon=0.035, v_n=0.1)
        chi = holevo_eb(p)
        assert chi > 0.0
        assert chi == pytest.approx(pipeline_chi(p), abs=1e-12)

    def test_noisy_channel_minimized_near_decoupling(self):
        base = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=0.02)
        at_dec = holevo_eb(base)
        assert at_dec > 0.0  # leakage cannot be fully eliminated with excess noise
        assert at_dec < holevo_eb(replace(base, v_a=1.5))
        assert at_dec < holevo_eb(replace(base, v_a=0.05))


class TestMutualInformation:
    def test_no_modulation_no_information(self):
        p = ProtocolParams(v_r=0.5, v_a=0.0, eta=0.5)
        assert mutual_information_ab(p) == 0.0

    def test_reference_value(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        assert mutual_information_ab(p) == pytest.approx(IAB_HALF, abs=1e-14)

    def test_strong_squeezing_limit(self):
        for eta in (0.25, 0.5, 0.75):
            p = ProtocolParams(v_r=1e-9, v_a=1.0 - 1e-9, eta=eta)
            assert mutual_information_ab(p) == pytest.approx(
                -0.5 * math.log2(1.0 - eta), abs=1e-6)

    def test_increasing_in_modulation(self):
        p = ProtocolParams(v_r=0.5, v_a=0.1, eta=0.4, v_n=0.2, epsilon=0.01)
        values = [mutual_information_ab(replace(p, v_a=v)) for v in (0.1, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestClassicalLeakage:
    def test_decoupling_uncorrelates_receiver(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = random_params(rng, decoupled=True)
            corr, info = classical_leakage(p, "B")
            assert abs(corr) <= 1e-12
            assert abs(info) <= 1e-12

    def test_lossless_channel_hides_sender(self):
        p = ProtocolParams(v_r=0.5, v_a=0.7, eta=1.0)
        assert classical_leakage(p, "A") == (0.0, 0.0)

    def test_sender_leakage_positive_with_loss(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        corr, info = classical_leakage(p, "A")
        assert corr > 0.0 and info > 0.0

    def test_no_modulation_sender(self):
        p = ProtocolParams(v_r=0.5, v_a=0.0, eta=0.5)
        assert classical_leakage(p, "A") == (0.0, 0.0)

    def test_party_validated(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        with pytest.raises(ValueError, match="party"):
            classical_leakage(p, "E")

    def test_against_sampled_moments(self):
        # coherent protocol, eta = 0.5: compare against a 1e7-sample estimate
        p = ProtocolParams(v_r=1.0, v_a=1.0, eta=0.5)
        corr, info = classical_leakage(p, "B")
        cfg = EmulationConfig(n_samples=10_000_000, seed=11, ideal_detectors=True)
        batch = generate_samples(p, cfg)
        chunks = np.array_split(np.arange(cfg.n_samples), 10)
        estimates = []
        for idx in chunks:
            xe, xb = batch.x_e[idx], batch.x_b[idx]
            estimates.append(np.mean(xe * xb) ** 2 / (np.mean(xe ** 2) * np.mean(xb ** 2)))
        mean = float(np.mean(estimates))
        sigma = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean - corr) <= 3.0 * sigma
        assert info == pytest.approx(0.5 * math.log2(1.0 / (1.0 - corr)))


class TestBuildJointState:
    def test_consistent_with_analytic_eve_block(self):
        p = ProtocolParams(v_r=0.5, v_a=0.8, eta=0.37, delta_v=1.5, v_n=0.2)
        joint = build_joint_state(p)
        assert np.allclose(joint.submatrix([1]).entries, eve_covariance(p).entries,
                           atol=1e-14)

    def test_pipeline_matches_closed_forms(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = random_params(rng)
            joint = build_joint_state(p)
            assert np.allclose(joint.submatrix([1]).entries,
                               eve_covariance(p).entries, atol=1e-10)
            noisy = np.array(joint.entries)
            noisy[0, 0] += p.v_n
            cond = condition_on_homodyne(CovarianceMatrix(noisy), 0, "X")
            assert np.allclose(cond.entries, eve_conditional_covariance(p).entries,
                               atol=1e-10)

    def test_receiver_variance_with_excess_noise(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=0.035)
        joint = build_joint_state(p)
        expected = p.eta * (p.v_r + p.v_a) + 1 - p.eta + p.eta * 0.035
        assert joint.entries[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_joint_state_physical(self):
        rng = np.random.default_rng(10)
        for eps in (0.0, 0.05):
            for _ in range(25):
                p = random_params(rng, epsilon=eps)
                joint = build_joint_state(p)
                assert symplectic_eigenvalues(joint)[-1] >= 1 - 1e-8

    def test_degenerate_cloner_rejected(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=1.0, epsilon=0.035)
        with pytest.raises(ValueError, match="eta"):
            build_joint_state(p)


class TestQuantumMutualInformation:
    def test_vacuum_source_uncorrelated(self):
        for eta in (0.2, 0.7):
            p = ProtocolParams(v_r=1.0, v_a=0.0, eta=eta)
            assert quantum_mutual_information_eb(p) == pytest.approx(0.0, abs=1e-9)

    def test_quantum_correlations_survive_decoupling(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        assert holevo_eb(p) <= 1e-9
        assert quantum_mutual_information_eb(p) > 0.01

    def test_lossless_channel(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=1.0)
        assert quantum_mutual_information_eb(p) == pytest.approx(0.0, abs=1e-9)

    def test_upper_bounds_holevo(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = random_params(rng)
            assert quantum_mutual_information_eb(p) >= holevo_eb(p) - 1e-9


class TestKeyRate:
    def test_positive_at_decoupling_for_any_efficiency(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, beta=0.01)
        rate = key_rate_asymptotic(p)
        assert rate == pytest.approx(0.01 * IAB_HALF, abs=1e-12)
        assert rate > 0.0

    def test_strong_squeezing_limit(self):
        p = ProtocolParams(v_r=1e-9, v_a=1.0 - 1e-9, eta=0.75, beta=1.0)
        assert key_rate_asymptotic(p) == pytest.approx(1.0, abs=1e-4)

    def test_no_modulation_no_key(self):
        p = ProtocolParams(v_r=0.5, v_a=0.0, eta=0.5, v_n=0.1)
        assert key_rate_asymptotic(p) <= 0.0


class TestDecouplingModulation:
    def test_values(self):
        assert decoupling_modulation(0.5) == 0.5
        assert decoupling_modulation(1.0) == 0.0
        assert decoupling_modulation(0.25) == 0.75

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decoupling_modulation(1.5)
        with pytest.raises(ValueError):
            decoupling_modulation(0.0)


class TestOptimalModulation:
    def test_vanishing_efficiency_pins_optimum_to_decoupling(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, beta=1e-6)
        v_star, rate = optimal_modulation(p, (0.0, 3.0))
        assert v_star == pytest.approx(0.5, abs=1e-3)
        assert rate > 0.0

    def test_full_efficiency_pushes_above_decoupling(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, beta=1.0)
        v_star, _ = optimal_modulation(p, (0.0, 10.0))
        assert v_star > 0.5

    def test_matches_dense_grid_scan(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, beta=0.75)
        v_star, rate_star = optimal_modulation(p, (0.0, 10.0))
        grid = np.arange(0.0, 10.0 + 1e-12, 1e-4)
        rates = [key_rate_asymptotic(replace(p, v_a=v)) for v in grid]
        k = int(np.argmax(rates))
        assert v_star == pytest.approx(grid[k], abs=2e-4)
        assert rate_star == pytest.approx(rates[k], abs=1e-10)

    def test_degenerate_range(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        v_star, rate = optimal_modulation(p, (0.5, 0.5))
        assert v_star == 0.5
        assert rate == key_rate_asymptotic(p)

    def test_invalid_range(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        with pytest.raises(ValueError):
            optimal_modulation(p, (1.0, 0.5))
        with pytest.raises(ValueError):
            optimal_modulation(p, (-0.5, 1.0))

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_invalid_tolerance(self, tol):
        # zero or negative never ends the search; nan skips it
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        with pytest.raises(ValueError, match="tol"):
            optimal_modulation(p, (0.0, 1.0), tol=tol)


class TestSecurityReport:
    def test_invariants_on_random_draws(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = random_params(rng)
            rep = security_report(p)
            assert rep.key_rate == p.beta * rep.i_ab - rep.chi_e
            assert rep.i_ab >= 0.0
            assert rep.chi_e >= 0.0
            assert 0.0 <= rep.c_eb < 1.0
            assert 0.0 <= rep.c_ea < 1.0
            assert rep.qmi_eb >= rep.chi_e - 1e-9
            assert rep.chi_e >= rep.i_eb_classical - 1e-9
            assert p.beta * rep.i_ab <= rep.i_ab

    def test_serialization_keys(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        data = security_report(p).as_dict()
        assert list(data) == ["i_ab", "chi_e", "key_rate", "c_eb", "c_ea",
                              "i_eb_classical", "i_ea_classical", "qmi_eb"]
