"""Tests for the analytic protocol model.

The closed forms are cross-checked against the generic pipeline (joint state
plus the Schur complement on the receiver's X), against frozen high-precision
evaluations, and against sampled moments from the emulator.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from sqzkd import protocol
from sqzkd.emulator import XB, XE, EmulationConfig, generate_samples
from sqzkd.errors import (
    DegenerateMeasurementError,
    SymplecticPairingError,
    UnphysicalStateError,
)
from sqzkd.finite_size import (
    FiniteSizeParams,
    beta_threshold,
    delta_correction,
    key_rate_finite,
)
from sqzkd.gaussian import (
    PHYSICALITY_TOL,
    CovarianceMatrix,
    condition_on_label,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from sqzkd.protocol import (
    ProtocolParams,
    build_joint_state,
    classical_leakage,
    decoupling_modulation,
    holevo_eb,
    holevo_eb_series,
    holevo_from_cm,
    key_rate_asymptotic,
    mutual_information_ab,
    mutual_information_ab_series,
    optimal_modulation,
    qmi_from_cm,
    quantum_mutual_information_eb,
    security_report,
)

# mpmath oracles, 40 significant digits, frozen
CHI_COHERENT_058 = 0.12575666580699362994
IAB_HALF = 0.20751874963942190927  # 0.5 * log2(4/3)
EVE_COND_X_058 = 1.2658227848101265823  # 2 / 1.58


def mpmath_entropy_g(nu):
    """g(nu) of an mpmath value, at the working precision."""
    a, b = (nu + 1) / 2, (nu - 1) / 2
    return a * mpmath.log(a, 2) - b * mpmath.log(b, 2)


def eve_given_xb(p):
    """Eavesdropper's state given the receiver's noisy X: rows (x_B, E...) of the joint state."""
    joint = build_joint_state(p)
    labelled = np.delete(np.delete(joint.entries, 1, axis=0), 1, axis=1)
    labelled[0, 0] += p.v_n
    return condition_on_label(labelled)


def pipeline_chi(p):
    """Independent route: joint state, noisy X homodyne, entropy difference."""
    eve = CovarianceMatrix(build_joint_state(p).entries[2:, 2:])
    return von_neumann_entropy(eve) - von_neumann_entropy(eve_given_xb(p))


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
            cm = CovarianceMatrix(np.diag([p.v_r + p.v_a, p.anti_squeezed_variance]))
            assert cm.entries[0, 0] * cm.entries[1, 1] >= 1.0 - 1e-12


class TestEveCovariance:
    """The eavesdropper's block of the lossy joint state, against the paper's entries."""

    def test_decoupled_x_entry(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        eve = build_joint_state(p).entries[2:4, 2:4]
        assert np.allclose(eve, np.diag([1.0, 1.5]), atol=1e-15)

    def test_coherent_reference_point(self):
        p = ProtocolParams(v_r=1.0, v_a=1.0, eta=0.58)
        eve = build_joint_state(p).entries[2:4, 2:4]
        assert np.allclose(eve, np.diag([1.42, 1.0]), atol=1e-12)

    def test_lossless_channel_leaks_vacuum(self):
        p = ProtocolParams(v_r=0.3, v_a=2.0, eta=1.0, delta_v=4.0)
        eve = build_joint_state(p).entries[2:4, 2:4]
        assert np.allclose(eve, np.eye(2), atol=1e-15)


class TestChannelBeamsplitter:
    """The channel beamsplitter that build_joint_state applies to (source, injected arm)."""

    def test_unit_transmittance_is_identity(self):
        p = ProtocolParams(v_r=0.3, v_a=2.0, eta=1.0, delta_v=4.0)
        expected = np.diag([p.v_r + p.v_a, 1 / p.v_r + p.delta_v, 1.0, 1.0])
        assert np.allclose(build_joint_state(p).entries, expected, atol=1e-15)

    def test_vacuum_invariant(self):
        for eta in (0.3, 0.77, 1.0):
            p = ProtocolParams(v_r=1.0, v_a=0.0, eta=eta)
            assert np.allclose(build_joint_state(p).entries, np.eye(4), atol=1e-15)

    def test_tapped_port_variance(self):
        # modulated squeezed source against vacuum: the tapped port carries
        # eta + (1 - eta)(v_r + v_a) in X, the receiver eta (v_r + v_a) + 1 - eta
        v_r, v_a, eta = 0.5, 0.8, 0.37
        out = build_joint_state(ProtocolParams(v_r=v_r, v_a=v_a, eta=eta)).entries
        assert out[2, 2] == pytest.approx(eta + (1 - eta) * (v_r + v_a), abs=1e-12)
        assert out[0, 0] == pytest.approx(eta * (v_r + v_a) + 1 - eta, abs=1e-12)

    def test_physicality_closure(self):
        rng = np.random.default_rng(23)
        for eps in (0.0, 0.05):
            for _ in range(25):
                joint = build_joint_state(random_params(rng, epsilon=eps))
                assert min(symplectic_eigenvalues(joint)) >= 1.0 - 1e-9

    def test_symplectic_invariance_of_spectrum(self):
        # the source has nu = sqrt((v_r + v_a)(1/v_r + delta_v)); the vacuum
        # or the entangled pair the eavesdropper injects is pure
        rng = np.random.default_rng(29)
        for eps in (0.0, 0.05):
            for _ in range(25):
                p = random_params(rng, epsilon=eps)
                source = math.sqrt((p.v_r + p.v_a) * (1 / p.v_r + p.delta_v))
                unmixed = [source] + [1.0] * (1 if eps == 0.0 else 2)
                assert symplectic_eigenvalues(build_joint_state(p)) == pytest.approx(
                    unmixed, abs=1e-10)


class TestEveConditionalCovariance:
    """The eavesdropper's lossy-channel state given the receiver's noisy X."""

    def test_decoupling_point_is_unity(self):
        for eta in (0.1, 0.5, 0.9):
            for v_n in (0.0, 0.3, 5.0):
                p = ProtocolParams(v_r=0.5, v_a=0.5, eta=eta, v_n=v_n)
                assert eve_given_xb(p).entries[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_coherent_closed_form(self):
        p = ProtocolParams(v_r=1.0, v_a=1.0, eta=0.58)
        assert eve_given_xb(p).entries[0, 0] == pytest.approx(EVE_COND_X_058, abs=1e-14)

    def test_large_detector_noise_approaches_unconditional(self):
        p = ProtocolParams(v_r=0.7, v_a=1.3, eta=0.6, v_n=1e9)
        cond = eve_given_xb(p).entries[0, 0]
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


    @pytest.mark.parametrize("kwargs", [
        dict(v_r=0.5, v_a=1e300, eta=0.5, delta_v=1e300),
        dict(v_r=1e-320, v_a=0.5, eta=0.5),
        dict(v_r=0.5, v_a=1e200, eta=0.5, v_n=1e200),
    ], ids=["product", "anti-squeezing", "conditional"])
    def test_overflow_raises(self, kwargs):
        # an infinite variance makes g(inf) nan; max(nan, 0.0) would pass it on
        p = ProtocolParams(**kwargs)
        with pytest.raises(ValueError, match="not finite"):
            holevo_eb(p)
        with pytest.raises(ValueError, match="not finite"):
            security_report(p)


    def test_huge_variances_match_mpmath(self):
        # S(E) alone loses precision here unless g avoids cancellation; the
        # cancelling form gave 36.98 bits, an overestimate
        p = ProtocolParams(v_r=0.5, v_a=1e16, eta=0.5, delta_v=1e16)
        with mpmath.workdps(50):
            v_r, v_a, eta, delta_v = (mpmath.mpf(x) for x in (p.v_r, p.v_a, p.eta, p.delta_v))
            big_v = v_r + v_a
            v_e_p = eta + (1 - eta) * (1 / v_r + delta_v)
            nu_e = mpmath.sqrt((eta + (1 - eta) * big_v) * v_e_p)
            nu_e_given_b = mpmath.sqrt(big_v / (1 - eta + eta * big_v) * v_e_p)
            want = mpmath_entropy_g(nu_e) - mpmath_entropy_g(nu_e_given_b)
        assert holevo_eb(p) == pytest.approx(float(want), rel=0, abs=1e-12)


class TestBitPins:
    """float.hex of every output, recorded before the lossy bound became scalar.

    The figure references run at v_n = delta_v = 0 only; these points pin the
    v_n and delta_v terms of the lossy bound and two excess-noise points.  The
    second and third lossy points change if v_n (1-eta) V is reassociated.
    """

    CASES = [
        (dict(v_r=0.5, v_a=0.8, eta=0.37, delta_v=1.5, v_n=0.2),
         ["0x1.7a0c68794fc4ep-3", "0x1.6c84295e92c80p-7", "0x1.634425e366986p-3",
          "0x1.b90302c6fdefap-7", "0x1.b20f124d14744p-2", "0x1.40486b6b67f5dp-7",
          "0x1.9755522746518p-2", "0x1.15182135197f2p-1"]),
        (dict(v_r=0.5, v_a=2.5, eta=0.05, delta_v=0.5, v_n=0.2, beta=0.95),
         ["0x1.2ab3dbec6e2fap-4", "0x1.41e701b605e80p-5", "0x1.eb43d9e3307e8p-6",
          "0x1.9cdc02b75798cp-5", "0x1.a34f72c234f73p-1", "0x1.3194f204254b1p-5",
          "0x1.3b9add2b169d6p+0", "0x1.b460028627a80p-3"]),
        (dict(v_r=0.8, v_a=0.8, eta=0.6, delta_v=4.0, v_n=0.6),
         ["0x1.9efb8de65cc84p-3", "0x1.e1594a0c5af80p-6", "0x1.62d064a4d1694p-3",
          "0x1.233921dffa9b7p-5", "0x1.0842108421084p-2", "0x1.abcbce0eb3382p-6",
          "0x1.b8f8365185f98p-3", "0x1.9fb8ff76d1c7ep-1"]),
        (dict(v_r=0.1, v_a=6.0, eta=0.6, delta_v=9.0, v_n=0.05, beta=0.9),
         ["0x1.815a5539be901p+0", "0x1.04d56ad1092dcp-1", "0x1.b0cd2e96e76f2p-1",
          "0x1.ff9b4aa56be35p-2", "0x1.9435e50d79434p-1", "0x1.ff6ec3a688542p-2",
          "0x1.1fbc16b90267ep+0", "0x1.0e679b3b1f1f4p+1"]),
        (dict(v_r=0.5, v_a=1.3, eta=0.4, delta_v=0.5, epsilon=0.035, v_n=0.1),
         ["0x1.4cafd3b70f09dp-2", "0x1.eccf9e52cc310p-4", "0x1.a2f7d844b7fb2p-3",
          "0x1.15a6b11f4958cp-4", "0x1.0c25961dcb49ap-1", "0x1.9ec9ee973bc34p-5",
          "0x1.11f41b85aecffp-1", "0x1.1cb174aec9b72p-1"]),
        (dict(v_r=0.3, v_a=0.7, eta=0.2, delta_v=2.0, epsilon=0.08, v_n=0.3, beta=0.95),
         ["0x1.4c54f68191227p-4", "0x1.88c0a421cddc0p-5", "0x1.dd5b2d4258978p-6",
          "0x1.9654cfbdc85eap-15", "0x1.1d93e371360e3p-1", "0x1.251cf8c793af2p-15",
          "0x1.2d583d797601bp-1", "0x1.611199b322b56p-1"]),
    ]

    @pytest.mark.parametrize("kwargs,pinned", CASES)
    def test_report_bits(self, kwargs, pinned):
        p = ProtocolParams(**kwargs)
        fields = security_report(p).as_dict()
        assert [float(v).hex() for v in fields.values()] == pinned
        assert float(holevo_eb(p)).hex() == pinned[list(fields).index("chi_e")]


class TestHolevoFromCmErrors:
    """Error type and message for a bad (B, E) matrix, recorded while S(E) was solved first.

    S(E)'s error comes before any error of the conditioning on x_B or of
    S(E | x_B), whatever order the stages run in.
    """

    CASES = [
        # E block indefinite; conditioning on x_B would report -1.125
        ([[2.0, 0.0, 0.5, 0.0], [0.0, 2.0, 0.0, 0.0],
          [0.5, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], 0.0,
         SymplecticPairingError,
         "covariance matrix is not positive definite (min eigenvalue -1, condition number 1)"),
        # x_B variance -0.5 + v_n is not positive; E is the vacuum
        ([[-0.5, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0],
          [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], 0.2,
         DegenerateMeasurementError, "label variance -0.3 is not positive"),
        # both at once: S(E)'s error wins
        ([[-0.5, 0.0, 0.5, 0.0], [0.0, 2.0, 0.0, 0.0],
          [0.5, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], 0.2,
         SymplecticPairingError,
         "covariance matrix is not positive definite (min eigenvalue -1, condition number 1)"),
        # E below the uncertainty bound, E given x_B not even positive definite
        ([[1.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 0.0],
          [1.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.5]], 0.0,
         UnphysicalStateError, "symplectic eigenvalue 0.5 is below 1 beyond the tolerance 1e-09"),
    ]

    @pytest.mark.parametrize("entries,v_n,error,message", CASES,
                             ids=["e-indefinite", "xb-degenerate", "both", "e-unphysical"])
    def test_error_precedence(self, entries, v_n, error, message):
        with pytest.raises(error) as caught:
            holevo_from_cm(CovarianceMatrix(np.array(entries)), v_n)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("v_n", [math.inf, math.nan, -0.3])
    def test_trusted_noise_must_be_finite_and_non_negative(self, v_n):
        # -0.3 gave 0.2154 bits where the model gives 0.1760
        joint = build_joint_state(ProtocolParams(v_r=0.5, v_a=2.0, eta=0.58))
        with pytest.raises(ValueError, match="v_n must be finite and >= 0"):
            holevo_from_cm(joint, v_n)


class TestQmiFromCmErrors:
    """S(B)'s error comes first, as when S(B), S(E) and S(BE) were solved in turn."""

    CASES = [
        # B below the uncertainty bound, E not positive definite
        ([[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0],
          [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
         UnphysicalStateError, "symplectic eigenvalue 0.5 is below 1 beyond the tolerance 1e-09"),
        ([[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0],
          [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
         SymplecticPairingError,
         "covariance matrix is not positive definite (min eigenvalue -1, condition number 1)"),
    ]

    @pytest.mark.parametrize("entries,error,message", CASES, ids=["b-first", "e-alone"])
    def test_error_precedence(self, entries, error, message):
        with pytest.raises(error) as caught:
            qmi_from_cm(CovarianceMatrix(np.array(entries)))
        assert type(caught.value) is error
        assert str(caught.value) == message


class TestEntropyTolerance:
    """The clamping band's tol is checked once, in the g kernel, for every entry point."""

    # positive definite; E alone has nu = 0.5, far below the uncertainty bound
    E_UNPHYSICAL = CovarianceMatrix(np.array([[2.0, 0.0, 0.3, 0.0], [0.0, 2.0, 0.0, 0.0],
                                              [0.3, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.5]]))
    # every symplectic eigenvalue of B, E, E given x_B and BE well above 1
    MIXED = CovarianceMatrix(np.array([[2.0, 0.0, 0.5, 0.0], [0.0, 2.0, 0.0, 0.0],
                                       [0.5, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 3.0]]))
    ENTRY_POINTS = {
        "von_neumann_entropy": von_neumann_entropy,
        "holevo_from_cm": lambda cm, tol: holevo_from_cm(cm, 0.0, tol),
        "qmi_from_cm": qmi_from_cm,
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("cm", [E_UNPHYSICAL, MIXED], ids=["e-unphysical", "mixed"])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -0.1, 1.0, 2.0])
    def test_tol_outside_unit_interval_raises(self, entry, cm, tol):
        # a tol of nan or 2.0 would count E_UNPHYSICAL's nu = 0.5 as 1 and report chi_E = 0
        with pytest.raises(ValueError, match=r"tol must lie in \[0, 1\)"):
            self.ENTRY_POINTS[entry](cm, tol)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("tol", [PHYSICALITY_TOL, 0.05])
    def test_unphysical_e_raises(self, entry, tol):
        with pytest.raises(UnphysicalStateError, match=f"is below 1 beyond the tolerance {tol}$"):
            self.ENTRY_POINTS[entry](self.E_UNPHYSICAL, tol)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("tol", [0.0, 0.999])
    def test_band_edges_accepted(self, entry, tol):
        want = self.ENTRY_POINTS[entry](self.MIXED, PHYSICALITY_TOL)
        assert want > 0.0
        assert self.ENTRY_POINTS[entry](self.MIXED, tol) == want


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

    def test_overflowing_series_equals_scalar_without_a_warning(self):
        # The SNR ratio overflows; the scalar's Python floats give inf
        # silently, and numpy's overflow warning must not escape the series.
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.9, v_n=1.7e308)
        alone = mutual_information_ab(replace(p, v_a=1.7e308))
        assert alone == math.inf
        series = mutual_information_ab_series(p, [1.7e308])
        assert np.array(series).tobytes() == np.array([alone]).tobytes()

    def test_lossless_channel_keeps_a_small_squeezed_variance(self):
        # At eta = 1 the 1 - eta term must not swamp v_r in the denominator.
        p = ProtocolParams(v_r=1e-15, v_a=1.0, eta=1.0)
        assert mutual_information_ab(p) == pytest.approx(24.914460711655, rel=1e-12)

    def test_lossless_channel_without_modulation_carries_nothing(self):
        p = ProtocolParams(v_r=1e-300, v_a=0.0, eta=1.0)
        assert mutual_information_ab(p) == 0.0
        # the series solves in numpy, which would warn on a zero denominator
        assert mutual_information_ab_series(p, [0.0, 1.0]) == [
            mutual_information_ab(replace(p, v_a=v)) for v in (0.0, 1.0)]


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

    def test_subnormal_modulation_is_no_modulation(self):
        # the sender's cross moment squared and the variances' product both underflow
        p = ProtocolParams(v_r=0.25, v_a=5e-324, eta=0.25)
        for party in ("A", "B"):
            assert classical_leakage(p, party) == classical_leakage(replace(p, v_a=0.0), party)

    def test_party_validated(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        with pytest.raises(ValueError, match="party"):
            classical_leakage(p, "E")

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_overflowing_moment_raises(self, party):
        # the squared cross moment and the variance product both overflow: inf / inf
        p = ProtocolParams(v_r=0.5, v_a=1e200, eta=0.5)
        with pytest.raises(ValueError, match="correlation computed as nan is not finite"):
            classical_leakage(p, party)

    def test_against_sampled_moments(self):
        # coherent protocol, eta = 0.5: compare against a 1e7-sample estimate
        p = ProtocolParams(v_r=1.0, v_a=1.0, eta=0.5)
        corr, info = classical_leakage(p, "B")
        cfg = EmulationConfig(n_samples=10_000_000, seed=11, ideal_detectors=True)
        batch = generate_samples(p, cfg)
        chunks = np.array_split(np.arange(cfg.n_samples), 10)
        estimates = []
        for idx in chunks:
            xe, xb = batch.records[XE, idx], batch.records[XB, idx]
            estimates.append(np.mean(xe * xb) ** 2 / (np.mean(xe ** 2) * np.mean(xb ** 2)))
        mean = float(np.mean(estimates))
        sigma = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean - corr) <= 3.0 * sigma
        assert info == pytest.approx(0.5 * math.log2(1.0 / (1.0 - corr)))


class TestBuildJointState:
    def test_consistent_with_analytic_eve_block(self):
        # eta + (1-eta)(v_r + v_a) and eta + (1-eta)(1/v_r + delta_v)
        p = ProtocolParams(v_r=0.5, v_a=0.8, eta=0.37, delta_v=1.5, v_n=0.2)
        joint = build_joint_state(p)
        assert np.allclose(joint.entries[2:4, 2:4], np.diag([1.189, 2.575]),
                           atol=1e-14)

    def test_pipeline_matches_closed_forms(self):
        # A lossy channel leaves her one diagonal mode, and the receiver's X
        # moves only its X entry: holevo_eb's scalar closed form.
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = random_params(rng)
            eve = build_joint_state(p).entries[2:4, 2:4]
            cond = eve_given_xb(p).entries
            assert abs(eve[0, 1]) <= 1e-10 and abs(cond[0, 1]) <= 1e-10
            assert cond[1, 1] == pytest.approx(eve[1, 1], abs=1e-10)
            assert holevo_eb(p) == pytest.approx(pipeline_chi(p), abs=1e-10)

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
        with pytest.raises(ValueError, match="v_r"):
            decoupling_modulation(math.nan)


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

    def test_matches_dense_grid_scan_with_excess_noise(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=0.05, beta=0.75)
        v_star, rate_star = optimal_modulation(p, (0.0, 10.0))
        grid = np.arange(0.0, 10.0 + 1e-12, 1e-4)
        # the series equal key_rate_asymptotic point by point (test_properties.py)
        rates = []
        for chunk in np.array_split(grid, 20):
            rates += [p.beta * i_ab - chi for i_ab, chi in zip(
                mutual_information_ab_series(p, chunk), holevo_eb_series(p, chunk))]
        k = int(np.argmax(rates))
        assert 0 < k < grid.size - 1
        assert v_star == pytest.approx(grid[k], abs=2e-4)
        assert rate_star == pytest.approx(rates[k], abs=1e-10)

    @staticmethod
    def search_grids(monkeypatch, p):
        """optimal_modulation(p, (0, 10)) and the grids it rated, in order."""
        grids = []

        def recorded(q, v_a):
            grids.append(np.array(v_a))
            return holevo_eb_series(q, v_a)

        monkeypatch.setattr(protocol, "holevo_eb_series", recorded)
        return optimal_modulation(p, (0.0, 10.0)), grids

    @classmethod
    def search_rounds(cls, monkeypatch, p):
        """optimal_modulation(p, (0, 10)) and the number of grids it rated."""
        result, grids = cls.search_grids(monkeypatch, p)
        return result, len(grids)

    @pytest.mark.parametrize("epsilon", [0.0, 0.05], ids=["lossy", "excess-noise"])
    def test_zoomed_search_takes_at_most_six_rounds(self, monkeypatch, epsilon):
        # the two dense-grid scans' links; rounds over whole brackets take 9
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=epsilon, beta=0.75)
        _, rounds = self.search_rounds(monkeypatch, p)
        assert 1 <= rounds <= 6

    def test_rate_rising_to_the_range_end(self, monkeypatch):
        p = ProtocolParams(v_r=0.1, v_a=1.0, eta=0.99, beta=1.0)
        rates = [key_rate_asymptotic(replace(p, v_a=v)) for v in np.linspace(9.0, 10.0, 11)]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        (v_star, rate), rounds = self.search_rounds(monkeypatch, p)
        assert 10.0 - 1e-6 <= v_star <= 10.0
        assert rate > rates[-2]
        # zoomed onto the end; rounds over whole brackets narrow 12-fold there, in 7
        assert rounds <= 5

    def test_end_optimum_returns_the_range_end(self):
        # the end was rated in the first round; a point inside it rates lower
        p = ProtocolParams(v_r=0.1, v_a=1.0, eta=0.99, beta=1.0)
        v_star, rate = optimal_modulation(p, (0.0, 10.0))
        assert v_star == 10.0
        assert rate.hex() == key_rate_asymptotic(replace(p, v_a=10.0)).hex()

    def test_end_optimum_settles_in_two_rounds(self, monkeypatch):
        # The parabola through the end and its two inward neighbours peaks
        # beyond the end, so the second round rates the last tol / 2 and
        # finds the end best again.
        p = ProtocolParams(v_r=0.1, v_a=1.0, eta=0.99, beta=1.0)
        (v_star, rate), grids = self.search_grids(monkeypatch, p)
        assert len(grids) == 2
        assert grids[1][0] == 10.0 - 0.5e-6
        assert v_star == 10.0
        assert rate.hex() == key_rate_asymptotic(replace(p, v_a=10.0)).hex()

    @staticmethod
    def stand_in_search(monkeypatch, rate):
        """optimal_modulation over (0, 10) of the stand-in key rate(v_a), and its grids."""
        grids = []

        def information(p, v_a):
            grids.append(np.array(v_a))
            return rate(np.asarray(v_a, dtype=float)).tolist()

        monkeypatch.setattr(protocol, "mutual_information_ab_series", information)
        monkeypatch.setattr(protocol, "holevo_eb_series", lambda p, v_a: [0.0] * len(v_a))
        monkeypatch.setattr(protocol, "key_rate_asymptotic", lambda p: float(rate(p.v_a)))
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        return optimal_modulation(p, (0.0, 10.0)), grids

    @pytest.mark.parametrize("rate", [
        lambda v_a: np.exp(-v_a),
        lambda v_a: 1.0 - (v_a + 0.5) ** 2,
    ], ids=["convex", "concave-peak-beyond-the-end"])
    def test_rate_falling_from_the_end_settles_in_two_rounds(self, monkeypatch, rate):
        # the parabola through the end and its inward neighbours peaks
        # nowhere inward of the end: it is convex, or concave with its vertex
        # half a unit beyond the end
        (v_star, r), grids = self.stand_in_search(monkeypatch, rate)
        assert len(grids) == 2
        assert v_star == 0.0
        assert r == rate(0.0)

    def test_peak_just_inside_the_end_is_found(self, monkeypatch):
        # The first round rates the end 10 best; the parabola through it and
        # its neighbours peaks 0.012 steps inward, so the next window is the
        # last h / 20 of the bracket, which holds the peak at 9.99.  A round
        # within tol / 2 of the end would miss it and need 8 rounds in all.
        (v_star, rate), grids = self.stand_in_search(monkeypatch,
                                                     lambda v_a: -(v_a - 9.99) ** 2)
        assert v_star == pytest.approx(9.99, abs=1e-3)
        assert rate >= -1e-6
        assert len(grids) <= 5

    @pytest.mark.parametrize("epsilon", [0.0, 0.05], ids=["lossy", "excess-noise"])
    def test_rate_not_below_any_rated_point(self, monkeypatch, epsilon):
        rng = np.random.default_rng(18)
        for _ in range(12):
            v_r = rng.uniform(0.1, 1.0)
            p = ProtocolParams(v_r=v_r, v_a=1.0 - v_r, eta=rng.uniform(0.05, 0.95),
                               delta_v=rng.uniform(0.0, 1.0), v_n=rng.uniform(0.0, 0.2),
                               beta=rng.uniform(0.85, 1.0),
                               epsilon=epsilon * rng.uniform(0.1, 2.0))
            (_, rate), grids = self.search_grids(monkeypatch, p)
            rated = [p.beta * i_ab - chi for grid in grids for i_ab, chi in zip(
                mutual_information_ab_series(p, grid), holevo_eb_series(p, grid))]
            assert rate >= max(rated) - 1e-12

    def test_flat_rates_end_the_search_early(self, monkeypatch):
        # the dense-grid scan's noisy link: its rates agree to 1e-12 bits
        # while the bracket is still wider than tol, one round short of it
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=0.05, beta=0.75)
        (v_star, _), grids = self.search_grids(monkeypatch, p)
        last = grids[-1]
        assert 0.0 < v_star < 10.0
        assert 2.0 * (last[1] - last[0]) > 1e-6  # the final bracket
        assert len(grids) <= 5
        monkeypatch.setattr(protocol, "_FLAT_RATE", -1.0)
        _, grids = self.search_grids(monkeypatch, p)
        assert len(grids) == 6

    def test_flat_rates_at_a_window_end_do_not_end_the_search(self, monkeypatch):
        # A concave stand-in rate, 1e-10 |v_a - 0.3|^1.5 below 0.  The first
        # round's best point is the range end 0, so the second rates
        # [0, 1/24]; its best point, 1/24, is a window end inside the bracket
        # [0, 5/6], 2.7e-13 above its neighbour, while the peak lies beyond.
        def rate(v_a):
            return -1e-10 * np.abs(np.asarray(v_a, dtype=float) - 0.3) ** 1.5

        monkeypatch.setattr(protocol, "mutual_information_ab_series",
                            lambda p, v_a: rate(v_a).tolist())
        monkeypatch.setattr(protocol, "holevo_eb_series", lambda p, v_a: [0.0] * len(v_a))
        monkeypatch.setattr(protocol, "key_rate_asymptotic", lambda p: float(rate(p.v_a)))
        v_star, r = optimal_modulation(ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5), (0.0, 10.0))
        assert v_star == pytest.approx(0.3, abs=1e-3)
        assert r >= -1e-12

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_rate_is_key_rate_at_the_optimum(self, epsilon):
        p = ProtocolParams(v_r=0.3, v_a=0.7, eta=0.4, delta_v=0.5, epsilon=epsilon,
                           v_n=0.1, beta=0.92)
        v_star, rate = optimal_modulation(p, (0.0, 10.0))
        assert rate.hex() == key_rate_asymptotic(replace(p, v_a=v_star)).hex()

    @pytest.mark.parametrize("v_a_range,tol", [
        ((0.0, 10.0), 1e-16),
        ((1e10, 1e10 + 1.0), 1e-9),
    ], ids=["tol-below-spacing", "wide-spacing"])
    def test_tolerance_below_float_spacing_ends(self, v_a_range, tol):
        # no round can narrow a bracket of adjacent floats
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, beta=0.9)
        v_star, rate = optimal_modulation(p, v_a_range, tol=tol)
        assert v_a_range[0] <= v_star <= v_a_range[1]
        assert math.isfinite(v_star) and math.isfinite(rate)

    def test_overflowing_range_raises(self):
        # the joint state's entries overflow near v_a = 1e300 with excess noise
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=0.05)
        with pytest.raises(ValueError, match="finite"):
            optimal_modulation(p, (0.0, 1e300))

    def test_overflowing_information_raises_without_a_warning(self):
        # Lossless, so chi_E is 0 while I_AB's SNR ratio overflows above
        # v_a ~ 2e293: the rate is inf, not a numpy warning.
        p = ProtocolParams(v_r=1e-15, v_a=1.0, eta=1.0)
        with pytest.raises(ValueError, match="key rate is not finite"):
            optimal_modulation(p, (0.0, 1e300))

    def test_overflowing_noise_raises_without_a_warning(self):
        # I_AB overflows at the range's top, chi_E's variances from its
        # second point: the Holevo bound's error comes first.
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.9, v_n=1.7e308)
        with pytest.raises(ValueError, match="not finite"):
            optimal_modulation(p, (0.0, 1.7e308))

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

    @pytest.mark.parametrize("v_a_range", [(0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)],
                             ids=["inf", "nan-lo", "nan-hi"])
    def test_non_finite_range_raises(self, v_a_range):
        # rejected before any grid is built from it
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        with pytest.raises(ValueError, match=r"invalid modulation range \("):
            optimal_modulation(p, v_a_range)

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

    @pytest.mark.parametrize("kwargs,error", [
        (dict(v_r=0.5, v_a=1e300, eta=0.5, epsilon=0.05), ValueError),
        (dict(v_r=0.5, v_a=1.0, eta=0.999999, epsilon=0.035), UnphysicalStateError),
    ], ids=["overflow", "unphysical"])
    def test_noisy_errors_are_holevo_ebs(self, kwargs, error):
        p = ProtocolParams(**kwargs)
        with pytest.raises(error) as alone:
            holevo_eb(p)
        with pytest.raises(error) as reported:
            security_report(p)
        assert type(reported.value) is type(alone.value)
        assert str(reported.value) == str(alone.value)

    def test_serialization_keys(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5)
        data = security_report(p).as_dict()
        assert list(data) == ["i_ab", "chi_e", "key_rate", "c_eb", "c_ea",
                              "i_eb_classical", "i_ea_classical", "qmi_eb"]


class TestPointCache:
    """With excess noise each operating point is solved once and kept, a failing one never."""

    NOISY = ProtocolParams(v_r=0.3, v_a=0.7, eta=0.2, delta_v=2.0, epsilon=0.08, v_n=0.3,
                           beta=0.95)
    FINITE = FiniteSizeParams.from_total(1e10)
    OUTPUTS = {
        "holevo_eb": holevo_eb,
        "key_rate_asymptotic": key_rate_asymptotic,
        "quantum_mutual_information_eb": quantum_mutual_information_eb,
        "security_report": lambda p: list(security_report(p).as_dict().values()),
        "key_rate_finite": lambda p: key_rate_finite(p, TestPointCache.FINITE),
        "beta_threshold": beta_threshold,
    }

    @pytest.mark.parametrize("name", list(OUTPUTS))
    def test_warm_equals_cold(self, name):
        output = self.OUTPUTS[name]
        protocol._noisy_holevo.cache_clear()
        cold = output(self.NOISY)
        warm = output(self.NOISY)
        assert protocol._noisy_holevo.cache_info().hits > 0
        assert [float(v).hex() for v in np.atleast_1d(warm)] \
            == [float(v).hex() for v in np.atleast_1d(cold)]

    def test_cached_state_is_read_only(self):
        _, joint, _ = protocol._noisy_holevo(self.NOISY)
        assert not joint.flags.writeable
        with pytest.raises(ValueError):
            joint[0, 0] = 1.0

    def test_failing_point_raises_on_every_call(self):
        # ProtocolParams' documented point beyond the domain
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.999999, epsilon=0.035)
        protocol._noisy_holevo.cache_clear()
        for output in (holevo_eb, security_report, quantum_mutual_information_eb, holevo_eb):
            with pytest.raises(UnphysicalStateError):
                output(p)
        assert protocol._noisy_holevo.cache_info().currsize == 0

    def test_a_design_solves_its_point_once(self, monkeypatch):
        # search, then report, then the finite-size rate at the optimum
        solved = []
        stack = protocol._holevo_stack

        def counted(joint, v_n, tol):
            solved.append(joint.shape[0])
            return stack(joint, v_n, tol)

        monkeypatch.setattr(protocol, "_holevo_stack", counted)
        protocol._noisy_holevo.cache_clear()
        v_a, rate = optimal_modulation(self.NOISY, (0.0, 10.0))
        best = self.NOISY.with_modulation(v_a)
        report = security_report(best)
        finite = key_rate_finite(best, self.FINITE)
        assert solved.count(1) == 1
        assert protocol._noisy_holevo.cache_info().misses == 1
        assert report.key_rate == rate
        assert finite == (self.FINITE.n_key / self.FINITE.n_total) * (
            rate - delta_correction(self.FINITE))


class TestSeriesInputs:
    """The series accept any 1-D sequence of numbers and reject the rest as before.

    The messages are those the series gave when they checked their input
    with numpy; valid input gives each point's own bits.
    """

    PARAMS = {
        "lossy": ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5, delta_v=0.3, v_n=0.1),
        "lossless": ProtocolParams(v_r=0.5, v_a=1.0, eta=1.0),
        "excess-noise": ProtocolParams(v_r=0.5, v_a=1.0, eta=0.5, delta_v=0.3, epsilon=0.05,
                                       v_n=0.1),
    }
    SERIES = {"chi_e": (holevo_eb_series, holevo_eb),
              "i_ab": (mutual_information_ab_series, mutual_information_ab)}

    @pytest.mark.parametrize("series", SERIES)
    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("v_a", [
        [0.0, 0.5, 1.0, 2.5],
        (0.0, 0.5, 1.0, 2.5),
        np.array([0.0, 0.5, 1.0, 2.5]),
        [0, 1, 3],
        [-0.0, 1e-310, 1e3],
        [],
    ], ids=["list", "tuple", "ndarray", "ints", "edges", "empty"])
    def test_valid_input_gives_each_points_bits(self, v_a, params, series):
        solve, alone = self.SERIES[series]
        p = self.PARAMS[params]
        values = solve(p, v_a)
        assert all(type(value) is float for value in values)
        assert [value.hex() for value in values] == \
            [alone(replace(p, v_a=float(v))).hex() for v in v_a]

    @pytest.mark.parametrize("series", SERIES)
    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("v_a, message", [
        ([[0.5, 1.0], [2.0, 3.0]], "modulations must be a 1-D sequence, got shape (2, 2)"),
        ([[0.5], [1.0]], "modulations must be a 1-D sequence, got shape (2, 1)"),
        (np.array([[0.5, 1.0], [2.0, 3.0]]), "modulations must be a 1-D sequence, got shape (2, 2)"),
        (np.array([[0.5], [1.0]]), "modulations must be a 1-D sequence, got shape (2, 1)"),
        (0.5, "modulations must be a 1-D sequence, got shape ()"),
        (np.float64(0.5), "modulations must be a 1-D sequence, got shape ()"),
        (np.array(0.5), "modulations must be a 1-D sequence, got shape ()"),
        ("123", "modulations must be a 1-D sequence, got shape ()"),
        (b"12", "modulations must be a 1-D sequence, got shape ()"),
        ([0.5, -0.5, 1.0], "v_a must be finite and >= 0, got -0.5"),
        ([0.5, math.nan], "v_a must be finite and >= 0, got nan"),
        ([0.5, math.inf, 1.0], "v_a must be finite and >= 0, got inf"),
        (np.array([0.5, -math.inf]), "v_a must be finite and >= 0, got -inf"),
    ], ids=["list-2d", "list-column", "ndarray-2d", "ndarray-column", "scalar", "numpy-scalar",
            "ndarray-0d", "text", "bytes", "negative", "nan", "inf", "ndarray-minus-inf"])
    def test_invalid_input_raises_as_before(self, v_a, message, params, series):
        solve, _ = self.SERIES[series]
        with pytest.raises(ValueError) as raised:
            solve(self.PARAMS[params], v_a)
        assert type(raised.value) is ValueError
        assert str(raised.value) == message

    @pytest.mark.parametrize("series", SERIES)
    @pytest.mark.parametrize("v_a", [[[0.5, 1.0], [2.0]], [0.5, [1.0]]], ids=["ragged", "mixed"])
    def test_ragged_input_raises_numpys_error(self, v_a, series):
        solve, _ = self.SERIES[series]
        with pytest.raises(ValueError, match="^setting an array element with a sequence"):
            solve(self.PARAMS["lossy"], v_a)

    @pytest.mark.parametrize("series", SERIES)
    @pytest.mark.parametrize("element", [None, 1j, "x"], ids=["none", "complex", "text"])
    def test_element_that_is_no_number_raises_as_float_does(self, element, series):
        # numpy read None as nan, which the point alone rejected; float rejects it
        solve, _ = self.SERIES[series]
        with pytest.raises((TypeError, ValueError)) as expected:
            float(element)
        with pytest.raises(expected.type) as raised:
            solve(self.PARAMS["lossy"], [0.5, element])
        assert str(raised.value) == str(expected.value)
