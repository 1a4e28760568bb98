"""Tests for the Monte-Carlo emulation of the measured-data pipeline."""

import errno
import hashlib
import math
import os
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sqzkd import emulator
from sqzkd.cli import main
from sqzkd.emulator import (
    XB, XE,
    _CSV_BLOCK_ROWS,
    EmulationConfig,
    ReconstructedCM,
    SampleBatch,
    expected_record_covariance,
    generate_samples,
    normalize_to_shot_noise,
    reconstruct_covariance,
    security_from_data,
)
from sqzkd.errors import InsufficientDataError, UnphysicalStateError
from sqzkd.protocol import ProtocolParams, security_report

DECOUPLED = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.58)


def ideal_config(n, seed):
    return EmulationConfig(n_samples=n, seed=seed, ideal_detectors=True)


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
        for name in SampleBatch.CSV_COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        a = generate_samples(DECOUPLED, EmulationConfig(n_samples=1000, seed=1))
        b = generate_samples(DECOUPLED, EmulationConfig(n_samples=1000, seed=2))
        assert not np.array_equal(a.x_b, b.x_b)

    def test_vacuum_transmits_as_shot_noise(self):
        p = ProtocolParams(v_r=1.0, v_a=0.0, eta=1.0)
        n = 200_000
        batch = generate_samples(p, ideal_config(n, seed=3))
        se = math.sqrt(2.0 / n)  # standard error of a unit variance estimate
        assert abs(np.mean(batch.x_b ** 2) - 1.0) <= 5 * se
        assert abs(np.mean(batch.p_b ** 2) - 1.0) <= 5 * se

    def test_decoupling_uncorrelates_records(self):
        n = 1_000_000
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=n, seed=4))
        cross = np.mean(batch.x_e * batch.x_b)
        se = math.sqrt(np.mean((batch.x_e * batch.x_b) ** 2) / n)
        assert abs(cross) <= 5 * se

    def test_cloner_arm_raises_receiver_noise(self):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, epsilon=0.2)
        n = 400_000
        batch = generate_samples(p, ideal_config(n, seed=5))
        var = np.mean(batch.x_b ** 2)
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
        data = batch.columns()
        moments = data.T @ data / (batch.n_samples - 1)
        assert np.array_equal(recon.moments, 0.5 * (moments + moments.T))
        assert recon.standard_errors.shape == (5, 5)
        assert np.all(recon.standard_errors > 0.0)
        assert recon.to_json_dict()["matrix"] == recon.moments.tolist()

    def test_constant_zero_batch_rejected(self):
        zeros = np.zeros(100)
        batch = SampleBatch(x_a=zeros, x_b=zeros, p_b=zeros, x_e=zeros, p_e=zeros,
                            params=DECOUPLED, config=EmulationConfig(n_samples=100, seed=9))
        with pytest.raises(UnphysicalStateError, match="diagonal"):
            reconstruct_covariance(batch)

    def test_insufficient_data(self):
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=100, seed=10))
        short = replace(batch, x_a=batch.x_a[:1], x_b=batch.x_b[:1], p_b=batch.p_b[:1],
                        x_e=batch.x_e[:1], p_e=batch.p_e[:1])
        with pytest.raises(InsufficientDataError):
            reconstruct_covariance(short)

    def test_error_bands_shrink_as_sqrt_n(self):
        spreads = {}
        for n in (10_000, 1_000_000):
            estimates = [
                float(np.mean(
                    generate_samples(DECOUPLED, EmulationConfig(n_samples=n, seed=s)).x_e
                    * generate_samples(DECOUPLED, EmulationConfig(n_samples=n, seed=s)).x_b))
                for s in range(10)
            ]
            spreads[n] = np.std(estimates, ddof=1)
        ratio = spreads[10_000] / spreads[1_000_000]
        assert 5.0 <= ratio <= 20.0  # expect ~10 for a 100x sample increase


class TestNormalizeToShotNoise:
    def test_vacuum_self_normalization(self):
        p = ProtocolParams(v_r=1.0, v_a=0.0, eta=0.6)
        cfg = EmulationConfig(n_samples=50_000, seed=11)
        batch = generate_samples(p, cfg)
        out = normalize_to_shot_noise(batch, batch)
        for name in ("x_b", "p_b", "x_e", "p_e"):
            assert np.mean(getattr(out, name) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        cfg = EmulationConfig(n_samples=20_000, seed=12)
        batch = generate_samples(DECOUPLED, cfg)
        cal = generate_samples(replace(DECOUPLED, v_a=0.0, v_r=1.0, delta_v=0.0),
                               EmulationConfig(n_samples=20_000, seed=13))
        plain = normalize_to_shot_noise(batch, cal)
        scaled = normalize_to_shot_noise(
            replace(batch, x_b=3.0 * batch.x_b, p_b=3.0 * batch.p_b),
            replace(cal, x_b=3.0 * cal.x_b, p_b=3.0 * cal.p_b))
        assert np.allclose(scaled.x_b, plain.x_b, rtol=1e-12, atol=0)
        assert np.allclose(scaled.p_b, plain.p_b, rtol=1e-12, atol=0)
        assert np.array_equal(scaled.x_e, plain.x_e)

    def test_decoupling_correlation_survives_normalization(self):
        n = 500_000
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=n, seed=14))
        cal = generate_samples(replace(DECOUPLED, v_a=0.0, v_r=1.0, delta_v=0.0),
                               EmulationConfig(n_samples=n, seed=15))
        out = normalize_to_shot_noise(batch, cal)
        recon = reconstruct_covariance(out)
        assert abs(recon.moments[XE, XB]) <= 5 * recon.standard_errors[XE, XB]

    def test_rejects_non_vacuum_calibration(self):
        cfg = EmulationConfig(n_samples=100, seed=16)
        batch = generate_samples(DECOUPLED, cfg)
        with pytest.raises(ValueError, match="vacuum"):
            normalize_to_shot_noise(batch, batch)

    def test_rejects_mismatched_detectors(self):
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=100, seed=17))
        cal = generate_samples(replace(DECOUPLED, v_a=0.0, v_r=1.0, delta_v=0.0),
                               EmulationConfig(n_samples=100, seed=18, eta_bob_det=0.5))
        with pytest.raises(ValueError, match="detector"):
            normalize_to_shot_noise(batch, cal)


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


class TestCsvExport:
    def test_header_and_shape(self, tmp_path):
        batch = generate_samples(DECOUPLED, EmulationConfig(n_samples=50, seed=19))
        path = tmp_path / "batch.csv"
        batch.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x_a,x_b,p_b,x_e,p_e"
        assert len(lines) == 51
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(loaded, batch.columns(), rtol=1e-11)

    @staticmethod
    def _savetxt_bytes(batch, path):
        np.savetxt(path, batch.columns(), fmt="%.12g", delimiter=",",
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
        batch = SampleBatch(x_a=values, x_b=values[::-1].copy(), p_b=np.roll(values, 3),
                            x_e=-values, p_e=np.roll(values, 7), params=DECOUPLED,
                            config=EmulationConfig(n_samples=values.size, seed=0))
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
