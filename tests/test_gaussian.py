"""Tests for the Gaussian covariance-matrix kernel.

Derived expectations are checked against independent oracles: a dense complex
eigensolver on i*Omega*cm for the symplectic spectrum, the literal
pseudo-inverse Schur complement for homodyne conditioning, and frozen
high-precision (mpmath, 40 digits) evaluations of the closed forms.
"""

import math
import re

import mpmath
import numpy as np
import pytest

from sqzkd import protocol
from sqzkd.errors import (
    DegenerateMeasurementError,
    SymplecticPairingError,
    UnphysicalStateError,
)
from sqzkd.gaussian import (
    LARGE_NU,
    PHYSICALITY_TOL,
    CovarianceMatrix,
    _entropies,
    _entropy_gs,
    condition_on_label,
    db_to_snu,
    entropy_g,
    snu_to_db,
    symplectic_eigenvalues,
    von_neumann_entropy,
)

# mpmath oracles, 40 significant digits, frozen
G_AT_1_19164 = 0.46886990338720044134
G_AT_2 = 1.3774437510817342722
THREE_DB_SNU = 1.9952623149688796014


def mpmath_entropy_g(nu):
    """g(nu) at 50 significant digits."""
    with mpmath.workdps(50):
        a = (mpmath.mpf(nu) + 1) / 2
        b = (mpmath.mpf(nu) - 1) / 2
        return a * mpmath.log(a, 2) - b * mpmath.log(b, 2)


def scalar_entropy_g(nu):
    """g(nu) as one scalar function computed it before the list kernel: the bit reference."""
    if nu <= 1.0:
        if nu < 1.0 - PHYSICALITY_TOL:
            raise UnphysicalStateError(f"symplectic eigenvalue {nu!r} is below 1")
        return 0.0
    a = (nu + 1.0) / 2.0
    b = (nu - 1.0) / 2.0
    if nu > LARGE_NU:
        return math.log2(a) + b * math.log1p(1.0 / b) / math.log(2.0)
    return a * math.log2(a) - b * math.log2(b)


def dense_symplectic_oracle(matrix):
    """|eigenvalues of i Omega cm|, deduplicated by taking every other value.

    Omega is [[0, 1], [-1, 0]] on each mode's (X, P) block, built here with
    numpy alone rather than taken from the code under test.
    """
    omega = np.kron(np.eye(matrix.shape[0] // 2), [[0.0, 1.0], [-1.0, 0.0]])
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * omega @ matrix)))[::-1]
    return moduli[::2]


def random_symplectic(rng, n_modes, rounds=3):
    """Random symplectic built from local squeezers and two-mode rotations."""
    dim = 2 * n_modes
    s = np.eye(dim)
    for _ in range(rounds):
        for m in range(n_modes):
            r = rng.uniform(-0.7, 0.7)
            local = np.eye(dim)
            local[2 * m, 2 * m] = math.exp(r)
            local[2 * m + 1, 2 * m + 1] = math.exp(-r)
            s = local @ s
        for i in range(n_modes):
            for j in range(i + 1, n_modes):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                ct, st = math.cos(theta), math.sin(theta)
                rot = np.eye(dim)
                for off in (0, 1):
                    rot[2 * i + off, 2 * i + off] = ct
                    rot[2 * j + off, 2 * j + off] = ct
                    rot[2 * i + off, 2 * j + off] = st
                    rot[2 * j + off, 2 * i + off] = -st
                s = rot @ s
    return s


def random_physical_cm(rng, n_modes):
    """S D S^T with D a thermal diagonal >= identity; spectrum equals D."""
    thermal = rng.uniform(1.0, 3.0, size=n_modes)
    s = random_symplectic(rng, n_modes)
    m = s @ np.diag(np.repeat(thermal, 2)) @ s.T
    return CovarianceMatrix(0.5 * (m + m.T)), np.sort(thermal)[::-1]


class TestCovarianceMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CovarianceMatrix(np.ones((2, 4)))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            CovarianceMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        m = np.eye(2)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(m)

    def test_rejects_non_finite(self):
        m = np.eye(2)
        m[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            CovarianceMatrix(m)

    def test_entries_read_only(self):
        cm = CovarianceMatrix(np.eye(2))
        with pytest.raises(ValueError):
            cm.entries[0, 0] = 2.0


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert symplectic_eigenvalues(CovarianceMatrix(np.eye(2))) == pytest.approx([1.0])

    def test_pure_squeezed(self):
        cm = CovarianceMatrix(np.diag([4.0, 0.25]))
        assert symplectic_eigenvalues(cm) == pytest.approx([1.0], abs=1e-12)

    def test_thermal(self):
        cm = CovarianceMatrix(np.diag([2.0, 2.0]))
        assert symplectic_eigenvalues(cm) == pytest.approx([2.0], abs=1e-12)

    def test_matches_dense_oracle_two_modes(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            cm, _ = random_physical_cm(rng, 2)
            got = symplectic_eigenvalues(cm)
            want = dense_symplectic_oracle(cm.entries)
            assert got == pytest.approx(want, abs=1e-10)

    def test_matches_construction_spectrum_three_modes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            cm, thermal = random_physical_cm(rng, 3)
            assert symplectic_eigenvalues(cm) == pytest.approx(thermal, abs=1e-9)

    def test_single_mode_sqrt_det_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cm, _ = random_physical_cm(rng, 1)
            nu = symplectic_eigenvalues(cm)[0]
            assert nu == pytest.approx(math.sqrt(np.linalg.det(cm.entries)), abs=1e-12)

    def test_sorted_descending(self):
        rng = np.random.default_rng(5)
        cm, _ = random_physical_cm(rng, 3)
        nus = symplectic_eigenvalues(cm)
        assert nus == sorted(nus, reverse=True)

    def test_indefinite_matrix_reports_condition(self):
        cm = CovarianceMatrix(np.diag([1.0, -0.5]))
        with pytest.raises(SymplecticPairingError, match="condition number"):
            symplectic_eigenvalues(cm)


class TestEntropyG:
    def test_pure(self):
        assert entropy_g(1.0) == 0.0

    def test_nu_three_is_two_bits(self):
        assert entropy_g(3.0) == pytest.approx(2.0, abs=1e-15)

    def test_high_precision_oracle(self):
        assert entropy_g(1.19164) == pytest.approx(G_AT_1_19164, abs=1e-14)

    def test_clamps_just_below_one(self):
        assert entropy_g(1.0 - 5e-10) == 0.0

    def test_rejects_unphysical(self):
        with pytest.raises(UnphysicalStateError):
            entropy_g(0.9)

    @pytest.mark.parametrize("nu", [1e6, 1e13, 1e16])
    def test_large_nu_without_cancellation(self, nu):
        # a log2 a - b log2 b loses 5e-10 bits at 1e6 and all of them at 1e16
        assert entropy_g(nu) == pytest.approx(float(mpmath_entropy_g(nu)), rel=0, abs=1e-13)

    def test_strictly_increasing(self):
        grid = [1.0 + 0.05 * k for k in range(60)]
        values = [entropy_g(nu) for nu in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestEntropyKernel:
    """_entropy_gs, the list kernel behind entropy_g, at the edges of its branches."""

    EDGES = [1.0, 1.0 - PHYSICALITY_TOL, 1.0 - 5e-10, math.nextafter(1.0, 0.0),
             math.nextafter(1.0, 2.0), LARGE_NU, math.nextafter(LARGE_NU, math.inf), 1e8]

    def test_edges_bit_for_bit(self):
        # the common branch interleaved with every edge, so that order is checked too
        nus = [nu for edge in self.EDGES for nu in (edge, 1.5 + edge % 7.0)]
        got = [g.hex() for g in _entropy_gs(nus)]
        assert got == [entropy_g(nu).hex() for nu in nus]
        assert got == [scalar_entropy_g(nu).hex() for nu in nus]

    def test_below_the_band_raises(self):
        below = math.nextafter(1.0 - PHYSICALITY_TOL, 0.0)
        with pytest.raises(UnphysicalStateError, match="is below 1 beyond the tolerance 1e-09"):
            _entropy_gs([2.0, below, 3.0])

    def test_nan_stays_nan(self):
        assert math.isnan(entropy_g(math.nan))
        assert [math.isnan(g) for g in _entropy_gs([2.0, math.nan])] == [False, True]

    @pytest.mark.parametrize("tol", [PHYSICALITY_TOL, 0.05])
    def test_stack_of_joint_states_sums_each_spectrum(self, tol):
        # (B, E1, E2) states with excess noise: two symplectic eigenvalues of
        # each sit at 1 up to rounding, on both sides, so the clamp is exercised
        p = protocol.ProtocolParams(v_r=0.3, v_a=1.0, eta=0.2, delta_v=0.4, epsilon=0.07)
        joint = protocol._joint_states(p, np.array([0.0, 1e-3, 0.7, 2.0, 9.5, 40.0]))
        spectra = [symplectic_eigenvalues(CovarianceMatrix(m)) for m in joint]
        assert min(map(min, spectra)) < 1.0 < max(spectrum[1] for spectrum in spectra)
        want = [sum(entropy_g(max(nu, 1.0)) for nu in spectrum) for spectrum in spectra]
        assert [s.hex() for s in _entropies(joint, tol)] == [w.hex() for w in want]


class TestVonNeumannEntropy:
    def test_vacuum_any_size(self):
        for n in (1, 2, 4):
            assert von_neumann_entropy(CovarianceMatrix(np.eye(2 * n))) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_two(self):
        cm = CovarianceMatrix(np.diag([2.0, 2.0]))
        assert von_neumann_entropy(cm) == pytest.approx(G_AT_2, abs=1e-13)

    def test_additive_over_uncorrelated_modes(self):
        cm = CovarianceMatrix(np.diag([2.0, 2.0, 1.5, 1.5]))
        assert von_neumann_entropy(cm) == pytest.approx(
            entropy_g(2.0) + entropy_g(1.5), abs=1e-12)

    def test_tolerance_band(self):
        # nu = sqrt(0.97) ~ 0.985: clamped inside a 0.05 band, rejected by the default
        cm = CovarianceMatrix(np.diag([2.0, 2.0, 0.97, 1.0]))
        assert von_neumann_entropy(cm, tol=0.05) == pytest.approx(G_AT_2, abs=1e-13)
        with pytest.raises(UnphysicalStateError):
            von_neumann_entropy(cm)
        with pytest.raises(UnphysicalStateError, match="0.8"):
            von_neumann_entropy(CovarianceMatrix(np.diag([0.8, 0.8])), tol=0.05)

    @pytest.mark.parametrize("nu", [0.999999928593077, 0.99999999899999, 0.9999999989999999])
    def test_message_shows_the_gap(self, nu):
        # 12 significant digits would round the last two up to the bound 1 - 1e-9
        with pytest.raises(UnphysicalStateError) as info:
            von_neumann_entropy(CovarianceMatrix(np.diag([nu, nu])))
        shown = re.search(r"eigenvalue (\S+) is below", str(info.value)).group(1)
        assert float(shown) < 1.0 - 1e-9

    def test_never_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cm, _ = random_physical_cm(rng, 2)
            assert von_neumann_entropy(cm) >= 0.0


def pinv_schur_oracle(matrix):
    """Literal gamma_A - gamma_C (Pi gamma_B Pi)^+ gamma_C^T, X homodyne on mode 0, numpy pinv."""
    pi = np.diag([1.0, 0.0])
    block = pi @ matrix[:2, :2] @ pi
    pinv = np.linalg.pinv(block, rcond=1e-12)
    cross = matrix[2:, :2]
    return matrix[2:, 2:] - cross @ pinv @ cross.T


def homodyne_x0(cm):
    """Ideal X homodyne on mode 0: its X row is the label, its P row is dropped."""
    return condition_on_label(np.delete(np.delete(cm.entries, 1, axis=0), 1, axis=1))


class TestConditionOnHomodyne:
    def test_uncorrelated_vacua_unchanged(self):
        vacua = CovarianceMatrix(np.eye(4))
        out = homodyne_x0(vacua)
        assert (vacua.n_modes, out.n_modes) == (2, 1)
        assert np.allclose(out.entries, np.eye(2), atol=1e-15)

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            cm, _ = random_physical_cm(rng, 2)
            assert np.allclose(homodyne_x0(cm).entries, pinv_schur_oracle(cm.entries),
                               atol=1e-12)

    def test_never_increases_remaining_variances(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            cm, _ = random_physical_cm(rng, 3)
            out = homodyne_x0(cm)
            before = np.diag(cm.entries)[2:]
            after = np.diag(out.entries)
            assert np.all(after <= before + 1e-12)

    def test_output_physical(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            cm, _ = random_physical_cm(rng, 2)
            assert min(symplectic_eigenvalues(homodyne_x0(cm))) >= 1.0 - 1e-9

    def test_degenerate_variance_errors(self):
        cm = CovarianceMatrix(np.diag([0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(DegenerateMeasurementError):
            homodyne_x0(cm)


class TestConditionOnLabel:
    def test_equals_homodyne_on_the_label_mode(self):
        # Row 0 is the X of a mode whose P is dropped.  Conditioning a
        # Gaussian vector on its first entry leaves the rest with the inverse
        # of the rest-rest block of the inverse moment matrix.
        rng = np.random.default_rng(23)
        for _ in range(25):
            cm, _ = random_physical_cm(rng, 3)
            labelled = np.delete(np.delete(cm.entries, 1, axis=0), 1, axis=1)
            want = np.linalg.inv(np.linalg.inv(labelled)[1:, 1:])
            assert np.allclose(condition_on_label(labelled).entries, want, atol=1e-12)

    def test_degenerate_label_errors(self):
        with pytest.raises(DegenerateMeasurementError, match="label"):
            condition_on_label(np.diag([0.0, 1.0, 1.0]))

    @pytest.mark.parametrize("matrix", [np.eye(4), np.ones((3, 5)), np.ones(3)])
    def test_needs_square_odd_dimension(self, matrix):
        with pytest.raises(ValueError, match="odd dimension"):
            condition_on_label(matrix)

    def test_label_without_modes_names_its_shape(self):
        with pytest.raises(ValueError, match=r"at least 3, got shape \(1, 1\)"):
            condition_on_label([[2.0]])

    def test_asymmetric_label_row_rejected(self):
        matrix = np.eye(3)
        matrix[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            condition_on_label(matrix)

    def test_overflowing_conditioning_raises_without_a_warning(self):
        # m[1:, 0] m[1:, 0]^T / m[0, 0] overflows before the division; a
        # RuntimeWarning is an error under the test configuration
        moments = [[1e160, 1e160, 0.0], [1e160, 1e160 + 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match="^covariance matrix entries must be finite$"):
            condition_on_label(moments)


class TestDecibels:
    def test_zero_db(self):
        assert db_to_snu(0.0) == 1.0

    def test_minus_3_0103(self):
        assert db_to_snu(-3.0103) == pytest.approx(0.5, abs=1e-4)

    def test_three_db_oracle(self):
        assert db_to_snu(3.0) == pytest.approx(THREE_DB_SNU, abs=1e-12)

    def test_round_trip(self):
        for db in np.linspace(-60.0, 60.0, 241):
            assert snu_to_db(db_to_snu(db)) == pytest.approx(db, abs=1e-12)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            snu_to_db(0.0)
        with pytest.raises(ValueError):
            snu_to_db(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="cannot express non-positive variance nan"):
            snu_to_db(math.nan)
