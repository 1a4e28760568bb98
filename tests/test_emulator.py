"""Tests for the Monte-Carlo emulation of the measured-data pipeline."""

import errno
import hashlib
import json
import math
import os
import re
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sqzkd import emulator
from sqzkd.cli import main
from sqzkd.emulator import (
    PB, PE, XB, XE,
    _CSV_BLOCK_ROWS,
    EmulationConfig,
    ReconstructedCM,
    SampleBatch,
    expected_record_covariance,
    generate_calibrated_samples,
    generate_samples,
    reconstruct_covariance,
    security_from_data,
)
from sqzkd.errors import InsufficientDataError, UnphysicalStateError
from sqzkd.protocol import ProtocolParams, holevo_eb, security_report

DECOUPLED = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.58)


def ideal_config(n, seed):
    return EmulationConfig(n_samples=n, seed=seed, ideal_detectors=True)


def normalize_to_shot_noise(batch, calibration):
    """``batch`` with each quadrature divided by ``calibration``'s root mean square.

    The reference for generate_calibrated_samples, written without sqzkd:
    x_a, row 0, is divided by 1.0, and x_b, p_b, x_e and p_e each by
    sqrt(mean(row * row)) of the same row of the vacuum calibration.
    """
    scales = np.array([1.0] + [math.sqrt(np.mean(row * row)) for row in calibration.records[1:]])
    return replace(batch, records=batch.records / scales[:, np.newaxis])


class TestEmulationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmulationConfig(n_samples=1, seed=0)
        with pytest.raises(ValueError):
            EmulationConfig(n_samples=10, seed=-1)
        with pytest.raises(ValueError):
            EmulationConfig(n_samples=10, seed=0, eta_bob_det=0.0)
        with pytest.raises(ValueError):
            EmulationConfig(n_samples=10, seed=0, eta_eve_det=1.2)

    def test_ideal_flag_overrides_efficiencies(self):
        cfg = EmulationConfig(n_samples=10, seed=0, eta_bob_det=0.5, ideal_detectors=True)
        assert cfg.detector_efficiencies() == (1.0, 1.0)


class TestGenerateSamples:
    def test_same_seed_bit_identical(self):
        cfg = EmulationConfig(n_samples=5000, seed=123)
        a = generate_samples(DECOUPLED, cfg)
        b = generate_samples(DECOUPLED, cfg)
        assert np.array_equal(a.records, b.records)

    def test_different_seeds_differ(self):
        a = generate_samples(DECOUPLED, EmulationConfig(n_samples=1000, seed=1))
        b = generate_samples(DECOUPLED, EmulationConfig(n_samples=1000, seed=2))
        assert not np.array_equal(a.records[XB], b.records[XB])

    def test_vacuum_transmits_as_shot_noise(self):
        p = ProtocolParams(v_r=1.0, v_a=0.0, eta=1.0)
        n = 200_000
        batch = generate_samples(p, ideal_config(n, seed=3))
        se = math.sqrt(2.0 / n)  # standard error of a unit variance estimate
        assert abs(np.mean(batch.records[XB] ** 2) - 1.0) <= 5 * se
        assert abs(np.mean(batch.records[PB] ** 2) - 1.0) <= 5 * se

    def test_decoupling_uncorrelates_records(self):
        n = 1_000_000
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=n, seed=4))
        cross = np.mean(batch.records[XE] * batch.records[XB])
        se = math.sqrt(np.mean((batch.records[XE] * batch.records[XB]) ** 2) / n)
        assert abs(cross) <= 5 * se

    def test_cloner_arm_raises_receiver_noise(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=0.2)
        n = 400_000
        batch = generate_samples(p, ideal_config(n, seed=5))
        var = np.mean(batch.records[XB] ** 2)
        expected = p.eta * 1.0 + 1 - p.eta + p.eta * p.epsilon
        se = expected * math.sqrt(2.0 / n)
        assert abs(var - expected) <= 5 * se


class TestReconstructCovariance:
    def test_matches_expected_covariance(self):
        n = 400_000
        cfg = EmulationConfig(n_samples=n, seed=6)
        p = replace(DECOUPLED, v_n=0.05)
        recon = reconstruct_covariance(generate_samples(p, cfg))
        expected = expected_record_covariance(p, cfg)
        for i in range(5):
            for j in range(i, 5):
                err = recon.standard_errors[i, j]
                diff = abs(recon.moments[i, j] - expected[i, j])
                assert diff <= 5 * err + 1e-12, (i, j, diff, err)

    def test_two_samples_legal(self):
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=2, seed=7))
        recon = reconstruct_covariance(batch)
        assert recon.n_samples == 2
        assert np.all(recon.standard_errors[np.ix_([0, 1], [0, 1])] > 0.1)

    def test_moments_in_csv_column_order(self):
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=1000, seed=8))
        recon = reconstruct_covariance(batch)
        data = batch.records.T
        moments = data.T @ data / (batch.n_samples - 1)
        assert np.array_equal(recon.moments, 0.5 * (moments + moments.T))
        assert recon.standard_errors.shape == (5, 5)
        assert np.all(recon.standard_errors > 0.0)
        assert recon.to_json_dict()["matrix"] == recon.moments.tolist()

    def test_no_copy_of_the_records(self):
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=200_000, seed=8))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            reconstruct_covariance(batch)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 0.5 * 8 * batch.n_samples  # half of one record array

    def test_constant_zero_batch_rejected(self):
        batch = SampleBatch(np.zeros((5, 100)), DECOUPLED,
                            EmulationConfig(n_samples=100, seed=9))
        with pytest.raises(UnphysicalStateError, match="diagonal"):
            reconstruct_covariance(batch)

    def test_insufficient_data(self):
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=100, seed=10))
        short = replace(batch, records=batch.records[:, :1])
        with pytest.raises(InsufficientDataError):
            reconstruct_covariance(short)

    @pytest.mark.parametrize("factor", [1e-150, 1e150])
    def test_error_bars_keep_the_moments_range(self, factor):
        # (M_00^2 + M_00^2) / n underflowed to 0 at 1e-150 and overflowed at 1e150
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=1000, seed=12))
        scaled = batch.records.copy()
        scaled[emulator.XA] *= factor
        base = reconstruct_covariance(batch).standard_errors[0, 0]
        got = reconstruct_covariance(replace(batch, records=scaled)).standard_errors[0, 0]
        assert abs(got / (base * factor ** 2) - 1.0) <= 1e-12

    def test_error_bands_shrink_as_sqrt_n(self):
        spreads = {}
        for n in (10_000, 1_000_000):
            estimates = []
            for s in range(10):
                records = generate_samples(DECOUPLED, EmulationConfig(n_samples=n, seed=s)).records
                estimates.append(float(np.mean(records[XE] * records[XB])))
            spreads[n] = np.std(estimates, ddof=1)
        ratio = spreads[10_000] / spreads[1_000_000]
        assert 5.0 <= ratio <= 20.0  # expect ~10 for a 100x sample increase


class TestNormalizeToShotNoise:
    def test_vacuum_self_normalization(self):
        p = ProtocolParams(v_r=1.0, v_a=0.0, eta=0.6)
        cfg = EmulationConfig(n_samples=50_000, seed=11)
        batch = generate_samples(p, cfg)
        out = normalize_to_shot_noise(batch, batch)
        for row in (XB, PB, XE, PE):
            assert np.mean(out.records[row] ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        cfg = EmulationConfig(n_samples=20_000, seed=12)
        batch = generate_samples(DECOUPLED, cfg)
        cal = generate_samples(replace(DECOUPLED, v_a=0.0, v_r=1.0, delta_v=0.0),
                               EmulationConfig(n_samples=20_000, seed=13))
        plain = normalize_to_shot_noise(batch, cal)
        triple_b = np.array([[1.0], [3.0], [3.0], [1.0], [1.0]])
        scaled = normalize_to_shot_noise(replace(batch, records=triple_b * batch.records),
                                         replace(cal, records=triple_b * cal.records))
        assert np.allclose(scaled.records[XB], plain.records[XB], rtol=1e-12, atol=0)
        assert np.allclose(scaled.records[PB], plain.records[PB], rtol=1e-12, atol=0)
        assert np.array_equal(scaled.records[XE], plain.records[XE])

    def test_decoupling_correlation_survives_normalization(self):
        n = 500_000
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=n, seed=14))
        cal = generate_samples(replace(DECOUPLED, v_a=0.0, v_r=1.0, delta_v=0.0),
                               EmulationConfig(n_samples=n, seed=15))
        out = normalize_to_shot_noise(batch, cal)
        recon = reconstruct_covariance(out)
        assert abs(recon.moments[XE, XB]) <= 5 * recon.standard_errors[XE, XB]


class TestCalibratedSamples:
    def test_equals_normalizing_by_a_separate_calibration(self):
        # The calibration takes seed + 1 modulo 2**64, here 0.
        cfg = EmulationConfig(n_samples=5_000, seed=2 ** 64 - 1)
        calibration = generate_samples(replace(DECOUPLED, v_a=0.0, v_r=1.0, delta_v=0.0),
                                       replace(cfg, seed=0))
        expected = normalize_to_shot_noise(generate_samples(DECOUPLED, cfg), calibration)
        out = generate_calibrated_samples(DECOUPLED, cfg)
        assert (out.params, out.config) == (DECOUPLED, cfg)
        assert out.records.tobytes() == expected.records.tobytes()

    @pytest.mark.parametrize("flags, params", [
        pytest.param(["--vr", "0.5", "--va", "2", "--eta", "0.58"],
                     ProtocolParams(v_r=0.5, v_a=2.0, eta=0.58, beta=0.95), id="lossy"),
        pytest.param(["--vr", "0.3", "--va", "1.2", "--eta", "0.4", "--eps", "0.05",
                      "--vn", "0.1", "--dv", "0.2"],
                     ProtocolParams(v_r=0.3, v_a=1.2, eta=0.4, epsilon=0.05, v_n=0.1,
                                    delta_v=0.2, beta=0.95), id="noisy"),
    ])
    def test_emulate_json_equals_the_public_api(self, tmp_path, capsys, flags, params):
        # The flags of test_pinned_bytes_of_emulate_samples; the signal batch
        # is drawn before its calibration here, and the bytes must not care.
        cfg = EmulationConfig(n_samples=40_000, seed=11)
        batch = generate_samples(params, cfg)
        calibration = generate_samples(replace(params, v_a=0.0, v_r=1.0, delta_v=0.0),
                                       replace(cfg, seed=12))
        recon = reconstruct_covariance(normalize_to_shot_noise(batch, calibration))
        report = security_from_data(recon, params.beta)
        code = main(["emulate", *flags, "--n-samples", "40000", "--seed", "11",
                     "--out", str(tmp_path / "pin")])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "pin_reconstruction.json").read_text() \
            == json.dumps(recon.to_json_dict(), indent=2)
        assert (tmp_path / "pin_report.json").read_text() == report.to_json() + "\n"

    def test_emulate_peak_memory(self, tmp_path, capsys):
        # The calibration is reduced to its four scales before the signal
        # batch is drawn, so the two are never held together: the traced peak
        # is about 11 record arrays of 8 n bytes, against 16 with both held.
        n = 200_000
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            code = main(["emulate", "--vr", "0.5", "--va", "2", "--eta", "0.58",
                         "--ideal-detectors", "--n-samples", str(n), "--seed", "11",
                         "--out", str(tmp_path / "mem")])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 13 * 8 * n


def exact_reconstruction(p, cfg, n=10 ** 9):
    """Reconstruction carrying the exact analytic moments (zero statistical noise)."""
    matrix = expected_record_covariance(p, cfg)
    return ReconstructedCM(moments=matrix, n_samples=n,
                           standard_errors=np.zeros((5, 5)))


class TestSecurityFromData:
    def test_pipeline_identity_noise_free(self):
        p = ProtocolParams(v_r=0.5, v_a=0.9, eta=0.58, beta=0.9)
        cfg = ideal_config(1000, seed=0)
        got = security_from_data(exact_reconstruction(p, cfg), p.beta)
        want = security_report(p)
        for key, value in want.as_dict().items():
            assert getattr(got, key) == pytest.approx(value, abs=1e-10), key

    def test_pipeline_identity_with_trusted_noise(self):
        p = ProtocolParams(v_r=0.5, v_a=0.9, eta=0.58, v_n=0.3, beta=0.9)
        cfg = ideal_config(1000, seed=0)
        # matrix built without the electronic noise; declared via v_n_trusted
        recon = exact_reconstruction(replace(p, v_n=0.0), cfg)
        got = security_from_data(recon, p.beta, v_n_trusted=p.v_n)
        want = security_report(p)
        for key, value in want.as_dict().items():
            assert getattr(got, key) == pytest.approx(value, abs=1e-10), key

    def test_decoupled_data_shows_no_leakage(self):
        for seed in (21, 22):
            batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=200_000, seed=seed))
            report = security_from_data(reconstruct_covariance(batch), beta=0.95)
            assert report.chi_e < 0.01
            assert report.key_rate > 0.0

    def test_coherent_data_matches_model(self):
        p = ProtocolParams(v_r=1.0, v_a=1.0, eta=0.58)
        analytic = security_report(p).chi_e
        estimates = []
        for seed in range(6):
            batch = generate_samples(p, ideal_config(200_000, seed=seed))
            estimates.append(security_from_data(reconstruct_covariance(batch), beta=1.0).chi_e)
        mean = float(np.mean(estimates))
        sem = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean - analytic) <= 3 * sem

    # bench/test_smoke.py's NoisyPipeline configuration, from exact moments
    # with no sampling: the data chi_E reads 0.000589 bits against the model's
    # 0.0968, and the data key rate +0.191 against +0.095.  Strict: once the
    # emulator records both of the eavesdropper's modes and calibrates at
    # epsilon = 0, this passes and fails the suite.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="known emulator defect: data chi_E far below the model "
                              "with excess noise")
    def test_exact_noisy_moments_keep_the_model_holevo_bound(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=0.05, beta=0.95)
        report = security_from_data(exact_reconstruction(p, ideal_config(1000, seed=0)), p.beta)
        assert report.chi_e >= holevo_eb(p) - 1e-9

    def test_detector_losses_embedded_not_corrected(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.7)
        lossy = EmulationConfig(n_samples=1000, seed=1)
        ideal = ideal_config(1000, seed=1)
        i_lossy = security_from_data(exact_reconstruction(p, lossy), beta=1.0).i_ab
        i_ideal = security_from_data(exact_reconstruction(p, ideal), beta=1.0).i_ab
        assert i_lossy < i_ideal

    def test_lower_receiver_efficiency_lowers_information(self):
        p = ProtocolParams(v_r=0.5, v_a=1.0, eta=0.7)
        means = {}
        for eff in (0.85, 0.4):
            values = []
            for seed in range(6):
                cfg = EmulationConfig(n_samples=50_000, seed=seed, eta_bob_det=eff)
                recon = reconstruct_covariance(generate_samples(p, cfg))
                values.append(security_from_data(recon, beta=1.0).i_ab)
            means[eff] = np.mean(values)
        assert means[0.4] < means[0.85]

    def test_statistically_unphysical_matrix_rejected(self):
        matrix = np.diag([1.0, 1.0, 1.0, 0.8, 0.8])
        recon = ReconstructedCM(moments=matrix, n_samples=100,
                                standard_errors=np.zeros((5, 5)))
        with pytest.raises(UnphysicalStateError, match="0.8"):
            security_from_data(recon, beta=1.0)

    def test_indefinite_matrix_rejected_as_unphysical(self):
        # an x_b-x_e block [[2, 3], [3, 2]] has eigenvalue -1: a rank-deficient
        # reconstruction from a few records is rejected the same way
        matrix = np.eye(5)
        matrix[XB, XB] = matrix[XE, XE] = 2.0
        matrix[XB, XE] = matrix[XE, XB] = 3.0
        recon = ReconstructedCM(moments=matrix, n_samples=100,
                                standard_errors=np.zeros((5, 5)))
        with pytest.raises(UnphysicalStateError,
                           match="^reconstructed matrix is statistically unphysical: "
                                 "covariance matrix is not positive definite"):
            security_from_data(recon, beta=1.0)

    def test_noise_divided_out_by_calibration_rejected(self):
        # A calibration batch that keeps the channel's excess noise, as the
        # emulate command builds it, shrinks B and E below the uncertainty
        # bound given x_a (nu ~ 0.91): the check must still catch that.
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=0.2, beta=0.95)
        cfg = ideal_config(50_000, seed=3)
        calibration = generate_samples(replace(p, v_a=0.0, v_r=1.0, delta_v=0.0),
                                       replace(cfg, seed=4))
        recon = reconstruct_covariance(
            normalize_to_shot_noise(generate_samples(p, cfg), calibration))
        with pytest.raises(UnphysicalStateError, match="statistically unphysical"):
            security_from_data(recon, p.beta)

    def test_beta_validated(self):
        cfg = ideal_config(1000, seed=0)
        recon = exact_reconstruction(DECOUPLED, cfg)
        with pytest.raises(ValueError, match="beta"):
            security_from_data(recon, beta=0.0)
        with pytest.raises(ValueError, match="v_n_trusted"):
            security_from_data(recon, beta=0.5, v_n_trusted=-1.0)

    @pytest.mark.parametrize("v_n", [math.inf, math.nan, -0.3])
    def test_trusted_noise_must_be_finite_and_non_negative(self, v_n):
        # inf gave i_ab = nan and key_rate = nan with a RuntimeWarning
        recon = exact_reconstruction(DECOUPLED, ideal_config(1000, seed=0))
        with pytest.raises(ValueError, match="v_n_trusted must be finite and >= 0"):
            security_from_data(recon, 0.95, v_n_trusted=v_n)


class TestDataBitPins:
    """float.hex of security_from_data's eight fields, recorded before the report had one builder.

    Two exact-moment reconstructions, one with trusted electronic noise and
    one with the default detectors and excess noise, and one sampled as
    ``sqzkd emulate --va 1 --eta 0.58 --n-samples 20000 --seed 7`` samples it.
    """

    CASES = [
        pytest.param(lambda: exact_reconstruction(
            ProtocolParams(v_r=0.5, v_a=0.9, eta=0.58), ideal_config(1000, seed=0)), 0.9, 0.3,
            ["0x1.33be44989dea0p-2", "0x1.5d263db3e4380p-6", "0x1.fe4b4d5c39516p-3",
             "0x1.64dfe39436635p-6", "0x1.4b65b2d96cb65p-2", "0x1.04469016c6a99p-6",
             "0x1.20d3c66d2cc30p-2", "0x1.3d4efdba08770p-2"], id="trusted-noise"),
        pytest.param(lambda: exact_reconstruction(
            ProtocolParams(v_r=0.5, v_a=1.3, eta=0.4, delta_v=0.5, epsilon=0.035),
            EmulationConfig(n_samples=1000, seed=0)), 0.95, 0.0,
            ["0x1.37b636987e6c2p-2", "0x1.ba15a72d18840p-5", "0x1.e1bb312343ac6p-3",
             "0x1.fd31ce8c7e4a4p-5", "0x1.02fe8536b329fp-1", "0x1.7b37c8777fa36p-5",
             "0x1.04585f862398dp-1", "0x1.779e0837d742cp-2"], id="excess-noise"),
        pytest.param(lambda: reconstruct_covariance(generate_calibrated_samples(
            ProtocolParams(v_r=0.5, v_a=1.0, eta=0.58, beta=0.95),
            EmulationConfig(n_samples=20_000, seed=7))), 0.95, 0.0,
            ["0x1.721ab5f6384ccp-2", "0x1.180d65bc14a00p-5", "0x1.3c97b358cc81bp-2",
             "0x1.19786b2863f63p-5", "0x1.5940ea7391245p-2", "0x1.9d37577dcbbe7p-6",
             "0x1.2fc13b7edd09cp-2", "0x1.055d10961c6b8p-2"], id="sampled"),
    ]

    @pytest.mark.parametrize("reconstruction, beta, v_n, pinned", CASES)
    def test_report_bits(self, reconstruction, beta, v_n, pinned):
        report = security_from_data(reconstruction(), beta, v_n_trusted=v_n)
        assert [float(v).hex() for v in report.as_dict().values()] == pinned


class TestCsvExport:
    def test_header_and_shape(self, tmp_path):
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=50, seed=19))
        path = tmp_path / "batch.csv"
        batch.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x_a,x_b,p_b,x_e,p_e"
        assert len(lines) == 51
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(loaded, batch.records.T, rtol=1e-11)

    @staticmethod
    def _savetxt_bytes(batch, path):
        np.savetxt(path, batch.records.T, fmt="%.12g", delimiter=",",
                   header=",".join(SampleBatch.CSV_COLUMNS), comments="")
        return path.read_bytes()

    @pytest.mark.parametrize("n", [2, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                   _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 3])
    def test_bytes_equal_savetxt_across_block_edges(self, tmp_path, n):
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=n, seed=23))
        path = tmp_path / "batch.csv"
        batch.write_csv(path)
        assert path.read_bytes() == self._savetxt_bytes(batch, tmp_path / "ref.csv")

    def test_special_values_equal_savetxt(self, tmp_path):
        values = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                           1.7e308, 1e-5, 123456789012.5, 0.1, -1.0])
        batch = SampleBatch(np.array([values, values[::-1], np.roll(values, 3), -values,
                                      np.roll(values, 7)]),
                            DECOUPLED, EmulationConfig(n_samples=values.size, seed=0))
        path = tmp_path / "batch.csv"
        batch.write_csv(path)
        written = path.read_bytes()
        assert written == self._savetxt_bytes(batch, tmp_path / "ref.csv")
        assert written.split(b"\n")[1] == b"nan,-1,123456789012,nan,-0"

    @pytest.mark.parametrize("flags, size, digest", [
        pytest.param(["--vr", "0.5", "--va", "2", "--eta", "0.58"], 3_005_080,
                     "6ebdf04af51603ab19d46673832fb145de94d92d2658e1eb129b7d8611c963fc",
                     id="lossy"),
        pytest.param(["--vr", "0.3", "--va", "1.2", "--eta", "0.4", "--eps", "0.05",
                      "--vn", "0.1", "--dv", "0.2"], 3_009_732,
                     "73ac62a423209269b119cab49e3d86e79c2d52d1768619054a6ca77b7ade2d76",
                     id="noisy"),
    ])
    def test_pinned_bytes_of_emulate_samples(self, tmp_path, capsys, flags, size, digest):
        # Fixes the Philox stream, the draw order and the 12-significant-digit
        # format across versions; the noisy case also fixes the W, delta_v and
        # v_n draws.
        prefix = tmp_path / "pin"
        code = main(["emulate", *flags, "--n-samples", "40000", "--seed", "11",
                     "--out", str(prefix)])
        capsys.readouterr()
        assert code == 0
        written = (tmp_path / "pin_samples.csv").read_bytes()
        assert len(written) == size
        assert hashlib.sha256(written).hexdigest() == digest


@pytest.fixture
def three_writers(monkeypatch):
    """Split every samples CSV over three writers, whatever cores the host has.

    Warnings are errors, so a fork warning (Python 3.12+) fails the test.
    Yields the list of pids ``os.fork`` returned to the parent.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(emulator, "_CSV_ROWS_PER_WRITER", 1)
    forked, real_fork = [], os.fork

    def counted_fork():
        pid = real_fork()
        if pid != 0:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield forked


def assert_all_children_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split path needs os.fork")
class TestForkedCsvWriters:
    @pytest.mark.parametrize("n, writers", [(2, 2), (_CSV_BLOCK_ROWS - 1, 3),
                                            (_CSV_BLOCK_ROWS, 3), (_CSV_BLOCK_ROWS + 1, 3),
                                            (2 * _CSV_BLOCK_ROWS + 3, 3)])
    def test_bytes_equal_savetxt(self, three_writers, tmp_path, n, writers):
        bounds = emulator._writer_bounds(n)
        assert len(bounds) == writers + 1
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(b % _CSV_BLOCK_ROWS == 0 or b == n for b in bounds)
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=n, seed=23))
        path = tmp_path / "batch.csv"
        batch.write_csv(path)
        assert len(three_writers) == writers - 1
        assert path.read_bytes() == TestCsvExport._savetxt_bytes(batch, tmp_path / "ref.csv")
        assert sorted(os.listdir(tmp_path)) == ["batch.csv", "ref.csv"]
        assert_all_children_reaped()

    def test_emulate_default_size_is_split(self, monkeypatch):
        # emulate's default --n-samples of 1e5 gets one writer per core; a
        # batch too small for two writers' fork to pay off gets one.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert len(emulator._writer_bounds(100_000)) == 3
        assert len(emulator._writer_bounds(2 * emulator._CSV_ROWS_PER_WRITER - 1)) == 2

    def test_ranges_include_empty_ones(self, three_writers):
        # n = 4095 fills one block: the second and third writers get no rows.
        assert emulator._writer_bounds(_CSV_BLOCK_ROWS - 1) == [0, 4095, 4095, 4095]

    @pytest.mark.parametrize(
        *next(mark.args for mark in TestCsvExport.test_pinned_bytes_of_emulate_samples.pytestmark
              if mark.name == "parametrize"))
    def test_pinned_bytes_of_emulate_samples(self, three_writers, tmp_path, capsys,
                                             flags, size, digest):
        TestCsvExport().test_pinned_bytes_of_emulate_samples(tmp_path, capsys, flags,
                                                             size, digest)
        assert len(three_writers) == 2
        assert sorted(os.listdir(tmp_path)) == ["pin_reconstruction.json",
                                                "pin_report.json", "pin_samples.csv"]
        assert_all_children_reaped()

    @staticmethod
    def _fail_writers(monkeypatch, failing, error):
        # A child inherits the patched module, so either side can be made to fail.
        real_write_rows = emulator._write_rows

        def write_rows(fh, columns, start, stop):
            if (start > 0) == (failing == "child"):
                raise error
            real_write_rows(fh, columns, start, stop)

        monkeypatch.setattr(emulator, "_write_rows", write_rows)
        return generate_samples(DECOUPLED, EmulationConfig(n_samples=3 * _CSV_BLOCK_ROWS,
                                                           seed=23))

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_failed_writer_raises_and_cleans_up(self, three_writers, tmp_path, monkeypatch,
                                                capfd, failing):
        batch = self._fail_writers(monkeypatch, failing, RuntimeError("formatting failed"))
        path = tmp_path / "batch.csv"
        if failing == "child":
            expected = pytest.raises(OSError, match=re.escape(str(path)))
        else:
            expected = pytest.raises(RuntimeError, match="formatting failed")
        with expected as excinfo:
            batch.write_csv(path)
        assert len(three_writers) == 2
        assert os.listdir(tmp_path) == []
        assert_all_children_reaped()
        if failing == "child":
            # Each failing child's traceback reaches the caller's standard error.
            assert capfd.readouterr().err.count("RuntimeError: formatting failed") == 2
            assert excinfo.value.errno is None

    def test_child_errno_reaches_caller(self, three_writers, tmp_path, monkeypatch, capfd):
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        batch = self._fail_writers(monkeypatch, "child", full)
        path = tmp_path / "batch.csv"
        with pytest.raises(OSError) as excinfo:
            batch.write_csv(path)
        assert excinfo.value.errno == errno.ENOSPC
        assert excinfo.value.filename == str(path)
        assert "2 of 2 CSV writer processes failed" in str(excinfo.value)
        assert "No space left on device" in capfd.readouterr().err
        assert os.listdir(tmp_path) == []
        assert_all_children_reaped()

    def test_file_it_could_not_open_is_kept(self, three_writers, tmp_path, monkeypatch):
        # The fork fails before write_csv opens path, so the old file stays.
        def no_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=3 * _CSV_BLOCK_ROWS,
                                                            seed=23))
        path = tmp_path / "batch.csv"
        path.write_text("kept\n")
        with pytest.raises(OSError) as excinfo:
            batch.write_csv(path)
        assert excinfo.value.errno == errno.EAGAIN
        assert path.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["batch.csv"]

    def test_missing_directory_is_named_as_the_file_asked_for(self, three_writers, tmp_path):
        # the first part file cannot be made; the error names path, not the part
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=3 * _CSV_BLOCK_ROWS,
                                                            seed=23))
        path = tmp_path / "missing" / "batch.csv"
        with pytest.raises(OSError) as excinfo:
            batch.write_csv(path)
        assert excinfo.value.errno == errno.ENOENT
        assert excinfo.value.filename == str(path)
        assert three_writers == []
        assert os.listdir(tmp_path) == []

    def test_no_fork_while_a_thread_runs(self, three_writers, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked while another Python thread was running")

        monkeypatch.setattr(os, "fork", no_fork)
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=3 * _CSV_BLOCK_ROWS,
                                                            seed=23))
        path = tmp_path / "batch.csv"
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            batch.write_csv(path)
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert path.read_bytes() == TestCsvExport._savetxt_bytes(batch, tmp_path / "ref.csv")
        assert sorted(os.listdir(tmp_path)) == ["batch.csv", "ref.csv"]
