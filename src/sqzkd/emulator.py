"""Monte-Carlo emulation of the experiment's data path.

Draws quadrature samples through the channel model, normalizes them to shot
noise, reconstructs the 5x5 second moments of the recorded variables and
recomputes the security quantities from data, mirroring how the measured
covariance matrices are produced in the laboratory.

Recorded variables per sample, in the order of the samples CSV and of the
reconstructed moments: the sender's alphabet value x_a and the detected
quadratures (x_b, p_b) and (x_e, p_e).  Detector imperfection is a
beamsplitter with vacuum in front of an ideal homodyne; the receiver's
electronic noise is added after (trusted).  x_a is a classical label, not a
mode: physicality is checked on the (B, E) state conditioned on it.

Sampling uses numpy's counter-based Philox bit generator, so a seed fully
determines the output across platforms and numpy versions.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, replace

from . import _numpy as np
from .errors import InsufficientDataError, SymplecticPairingError, UnphysicalStateError
from .gaussian import (STATISTICAL_PHYSICALITY_TOL, CovarianceMatrix, condition_on_label,
                       von_neumann_entropy)
from .protocol import (
    DEFAULT_ETA_BOB_DET,
    DEFAULT_ETA_EVE_DET,
    ProtocolParams,
    SecurityReport,
    _correlation_leakage,
    _report,
    environment_variance,
    holevo_from_cm,
    qmi_from_cm,
)

# Indices of the recorded variables, the samples CSV's column order.
XA, XB, PB, XE, PE = range(5)

# Records formatted by one ``%`` operation when writing the samples CSV.
_CSV_BLOCK_ROWS = 4096
# Records that justify one more writer process for the samples CSV.  On a
# 2-vCPU Xeon, two writers formatted 16 384 records as fast as one (17 of 31
# alternating runs faster), and 20 480 or more faster in 30 of 31 runs and
# by 27-44 %; three blocks per writer keeps a margin above that crossover.
_CSV_ROWS_PER_WRITER = 3 * _CSV_BLOCK_ROWS
# Exit status of a CSV writer process that failed without an errno.
_WRITER_FAILED = 255


@dataclass(frozen=True)
class EmulationConfig:
    """Sampling configuration.

    n_samples        records to draw
    seed             64-bit seed of the Philox counter-based generator
    eta_bob_det      receiver homodyne efficiency, in (0, 1]
    eta_eve_det      eavesdropper homodyne efficiency, in (0, 1]
    ideal_detectors  when True both efficiencies are treated as exactly 1
    """

    n_samples: int
    seed: int
    eta_bob_det: float = DEFAULT_ETA_BOB_DET
    eta_eve_det: float = DEFAULT_ETA_EVE_DET
    ideal_detectors: bool = False

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        for name in ("eta_bob_det", "eta_eve_det"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")

    def detector_efficiencies(self) -> tuple[float, float]:
        if self.ideal_detectors:
            return 1.0, 1.0
        return self.eta_bob_det, self.eta_eve_det


@dataclass(frozen=True)
class SampleBatch:
    """Recorded quadrature samples plus the settings that generated them.

    ``records`` is a C-contiguous (5, n_samples) array whose rows are the
    recorded variables in the samples CSV's column order XA..PE.
    """

    records: np.ndarray
    params: ProtocolParams
    config: EmulationConfig

    CSV_COLUMNS = ("x_a", "x_b", "p_b", "x_e", "p_e")

    @property
    def n_samples(self) -> int:
        return self.records.shape[1]

    def write_csv(self, path) -> None:
        """Write a header line, then one row of five ``%.12g`` values per record.

        The bytes are those of ``np.savetxt(path, self.records.T, fmt="%.12g",
        delimiter=",", header=..., comments="")`` with ``\\n`` line ends.  Rows
        are formatted a block at a time, with one ``%`` per block.

        Formatting holds the interpreter lock, so large batches are split
        into contiguous block-aligned row ranges, one per usable core.  This
        process writes the first range into ``path``; a forked child writes
        each other range into a temporary part file beside it, and the parts
        are appended in order.  Every range runs the same block loop, so the
        bytes do not depend on the number of writers.  A child that fails
        prints its traceback on standard error and makes this raise
        ``OSError`` naming ``path``, with the child's errno where its error
        had one (e.g. ENOSPC for a full disk); whichever writer fails,
        every child is reaped and every part file, and ``path`` once this
        call has opened it, removed before the error propagates.
        """
        bounds = _writer_bounds(self.n_samples)
        directory = os.path.dirname(os.path.abspath(path))
        parts, pids, partial = [], [], False
        try:
            try:
                for start, stop in zip(bounds[1:-1], bounds[2:]):
                    try:
                        fd, part = tempfile.mkstemp(prefix=".samples-", suffix=".part",
                                                    dir=directory)
                    except OSError as exc:  # name the file asked for, not a part file
                        raise OSError(exc.errno, exc.strerror, str(path)) from None
                    parts.append(part)
                    pids.append(_fork_writer(fd, self.records, start, stop))
                with open(path, "w", encoding="ascii", newline="") as fh:
                    partial = True  # until the parts are appended, path is incomplete
                    fh.write(",".join(self.CSV_COLUMNS) + "\n")
                    _write_rows(fh, self.records, bounds[0], bounds[1])
            finally:
                codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
            failed = [code for code in codes if code != 0]
            if failed:
                raise _writer_error(path, len(codes), failed)
            with open(path, "ab") as out:
                for part in parts:
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, out)
            partial = False
        finally:
            for part in parts:
                os.remove(part)
            if partial:
                os.remove(path)


def _writer_bounds(n_rows: int) -> list[int]:
    """Row bounds of the samples-CSV writers; writer k formats rows [b[k], b[k + 1]).

    One writer per usable core and per ``_CSV_ROWS_PER_WRITER`` rows, and
    one writer where fork is missing or unsafe because Python threads run.
    Every range starts on a block edge; trailing ranges may be empty.
    """
    writers = 1
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        writers = max(1, min(len(os.sched_getaffinity(0)), n_rows // _CSV_ROWS_PER_WRITER))
    blocks = -(-n_rows // _CSV_BLOCK_ROWS)
    rows_per_writer = -(-blocks // writers) * _CSV_BLOCK_ROWS
    return [min(k * rows_per_writer, n_rows) for k in range(writers + 1)]


def _write_rows(fh, records, start: int, stop: int) -> None:
    """Format records [start, stop) of the (5, n) ``records`` into ``fh``, one ``%`` per block."""
    row_fmt = ",".join(["%.12g"] * len(records)) + "\n"
    for lo in range(start, stop, _CSV_BLOCK_ROWS):
        block = records[:, lo:min(lo + _CSV_BLOCK_ROWS, stop)].T
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _fork_writer(fd: int, records, start: int, stop: int) -> int:
    """Fork a child that writes rows [start, stop) to the file ``fd``; return its pid.

    The child only runs ``_write_rows`` and leaves through ``os._exit``: it
    never returns into the caller's stack, runs no ``atexit`` handler and
    flushes none of the parent's stdio buffers.  Its exit status is 0 once
    the rows are written and flushed.  On failure it prints the traceback on
    file descriptor 2 and exits with the errno of an ``OSError`` such as
    ENOSPC, or with ``_WRITER_FAILED`` for any other error.
    """
    # fork rather than a spawn pool: spawn re-imports the caller's main
    # module, so every script calling write_csv would need a __main__ guard,
    # and it also wrote 1e6 rows more slowly on a 2-vCPU Xeon (1.20-1.54 s
    # against 0.96-1.17 s forked, 1.94-2.33 s serial).  fork is unsafe while
    # other threads run; _writer_bounds falls back to one writer when Python
    # threads exist, and numpy's OpenBLAS stops its own pool in a
    # pthread_atfork handler, so the child starts with the forking thread
    # alone and Python 3.12+ has no threads to warn about.
    try:
        pid = os.fork()
    except OSError:
        os.close(fd)
        raise
    if pid == 0:
        status = _WRITER_FAILED
        try:
            with open(fd, "w", encoding="ascii", newline="") as fh:
                _write_rows(fh, records, start, stop)
            status = 0
        except BaseException as exc:
            if isinstance(exc, OSError) and exc.errno in range(1, _WRITER_FAILED):
                status = exc.errno
            # Imported only by a failing child; written straight to the
            # descriptor because sys.stderr may buffer the parent's text.
            import traceback
            os.write(2, traceback.format_exc().encode(errors="replace"))
        finally:
            os._exit(status)
    os.close(fd)
    return pid


def _writer_error(path, writers: int, failed: list[int]) -> OSError:
    """The error for CSV writer processes that exited with the codes ``failed``.

    It carries the errno of the first writer that exited with one, so that
    e.g. a full disk reads as ENOSPC, as it does with one writer.
    """
    detail = (f"{len(failed)} of {writers} CSV writer processes failed "
              f"(exit codes {failed}; see standard error)")
    errnos = [code for code in failed if 0 < code < _WRITER_FAILED]
    if errnos:
        return OSError(errnos[0], f"{os.strerror(errnos[0])}: {detail}", str(path))
    return OSError(f"{path}: {detail}")


@dataclass(frozen=True)
class ReconstructedCM:
    """Sample second moments of the recorded variables with entry-wise errors.

    Both arrays are 5x5, indexed in the samples CSV's column order XA..PE.
    """

    moments: np.ndarray
    n_samples: int
    standard_errors: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "matrix": self.moments.tolist(),
            "n_samples": self.n_samples,
            "standard_errors": self.standard_errors.tolist(),
        }


def _records(p: ProtocolParams, cfg: EmulationConfig, draw):
    """The five recorded variables as linear maps of independent Gaussian draws.

    The single description of the channel and detector optics.  ``draw(sd)``
    returns one latent variable of standard deviation ``sd``; the records are
    built from at most ten of them, drawn in this order: the alphabet value
    x_a ~ N(0, v_a), the source quadratures x_r ~ N(0, v_r) and
    p_r ~ N(0, 1/v_r + delta_v), the environment mode's two quadratures
    (vacuum, or the eavesdropper's injected arm of variance W for excess
    noise), one vacuum mode per imperfect detector and, when v_n > 0, the
    electronic noise x_n ~ N(0, v_n).  The channel mixes signal and
    environment as

        x_b = sqrt(eta) (x_a + x_r) - sqrt(1-eta) e_x
        x_e = sqrt(1-eta) (x_a + x_r) + sqrt(eta) e_x

    (identically for P with the modulation absent), after which each detected
    quadrature is attenuated by its homodyne efficiency with vacuum making up
    the balance, and x_n is added to the receiver's X record.

    Returns (x_a, x_b, p_b, x_e, p_e) in the samples CSV's column order.
    """
    x_a = draw(math.sqrt(p.v_a))
    x_r = draw(math.sqrt(p.v_r))
    p_r = draw(math.sqrt(p.anti_squeezed_variance))
    w = environment_variance(p)
    e_x = draw(math.sqrt(w))
    e_p = draw(math.sqrt(w))

    se, sr = math.sqrt(p.eta), math.sqrt(1.0 - p.eta)
    sig_x = x_a + x_r
    x_b = se * sig_x - sr * e_x
    p_b = se * p_r - sr * e_p
    x_e = sr * sig_x + se * e_x
    p_e = sr * p_r + se * e_p

    eta_b, eta_e = cfg.detector_efficiencies()
    if eta_b < 1.0:
        tb, rb = math.sqrt(eta_b), math.sqrt(1.0 - eta_b)
        x_b = tb * x_b + rb * draw(1.0)
        p_b = tb * p_b + rb * draw(1.0)
    if eta_e < 1.0:
        te, re = math.sqrt(eta_e), math.sqrt(1.0 - eta_e)
        x_e = te * x_e + re * draw(1.0)
        p_e = te * p_e + re * draw(1.0)

    if p.v_n > 0.0:
        x_b = x_b + draw(math.sqrt(p.v_n))
    return x_a, x_b, p_b, x_e, p_e


def generate_samples(p: ProtocolParams, cfg: EmulationConfig) -> SampleBatch:
    """Draw one batch of records through the channel and detector model of _records."""
    return SampleBatch(np.array(_draw_records(p, cfg)), p, cfg)


def _draw_records(p: ProtocolParams, cfg: EmulationConfig):
    """The five rows of _records, drawn from the Philox stream keyed by cfg.seed."""
    rng = np.random.Generator(np.random.Philox(key=int(cfg.seed)))
    return _records(p, cfg, lambda sd: rng.standard_normal(cfg.n_samples) * sd)


def reconstruct_covariance(batch: SampleBatch) -> ReconstructedCM:
    """Unbiased zero-mean second moments of the five recorded variables.

    The model is zero-mean by construction, so moments are sums of products
    divided by n - 1 without mean subtraction.  Entry-wise standard errors
    are the asymptotic Gaussian values sqrt((M_ii M_jj + M_ij^2) / n), written
    as sqrt(M_ii) sqrt(M_jj) sqrt((1 + rho_ij^2) / n) to keep the moments' range.
    """
    n = batch.n_samples
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {n}")
    moments = batch.records @ batch.records.T / (n - 1)
    moments = 0.5 * (moments + moments.T)

    diag = np.diag(moments)
    if np.any(diag <= 0.0):
        bad = int(np.argmax(diag <= 0.0))
        raise UnphysicalStateError(
            f"reconstructed variance of {batch.CSV_COLUMNS[bad]} is {diag[bad]:.6g}; "
            "a covariance matrix needs positive diagonal entries"
        )

    scale = np.outer(np.sqrt(diag), np.sqrt(diag))
    errors = scale * np.sqrt((1.0 + (moments / scale) ** 2) / n)
    return ReconstructedCM(moments=moments, n_samples=n, standard_errors=errors)


def generate_calibrated_samples(p: ProtocolParams, cfg: EmulationConfig) -> SampleBatch:
    """generate_samples normalized to shot noise by a vacuum calibration run.

    The calibration (v_a = 0, v_r = 1, delta_v = 0, seed + 1 mod 2**64) is
    drawn first, row by row, and reduced to its four scales before the
    signal batch is drawn and divided in place, so the two are never held
    together.  Each has its own Philox key, so the records do not depend on
    which is drawn first.
    """
    scales = _shot_noise_scales(_draw_records(replace(p, v_a=0.0, v_r=1.0, delta_v=0.0),
                                              replace(cfg, seed=(cfg.seed + 1) % 2 ** 64)))
    batch = generate_samples(p, cfg)
    np.divide(batch.records, scales[:, np.newaxis], out=batch.records)
    return batch


def _shot_noise_scales(vacuum_records) -> np.ndarray:
    """Divisor of each row of records: 1 for x_a, a vacuum run's root mean square for the rest."""
    scales = np.array([1.0] + [math.sqrt(float(np.mean(row * row)))
                               for row in vacuum_records[XB:]])
    if np.any(scales <= 0.0):
        bad = SampleBatch.CSV_COLUMNS[int(np.argmax(scales <= 0.0))]
        raise ValueError(f"calibration variance for {bad} is not positive")
    return scales


def expected_record_covariance(p: ProtocolParams, cfg: EmulationConfig) -> np.ndarray:
    """Analytic 5x5 second moments of the recorded variables for given settings.

    Runs _records on unit vectors, one per latent draw, to get the 5x10
    transfer map T from the independent draws to the records; their second
    moments are then T T^T.  Serves as the oracle the sampled reconstruction
    converges to.
    """
    latents = iter(np.eye(10))
    transfer = np.array(_records(p, cfg, lambda sd: next(latents) * sd))
    return transfer @ transfer.T


def security_from_data(recon: ReconstructedCM, beta: float,
                       v_n_trusted: float = 0.0) -> SecurityReport:
    """Security quantities computed from the reconstructed moments.

    Follows the same extraction used on measured data: the Shannon
    information from the sender/receiver X block, the Holevo bound from the
    eavesdropper's block conditioned on the receiver's X via the homodyne
    Schur complement, and the classical correlation coefficients from the
    cross moments.

    ``v_n_trusted`` is electronic noise *not* embedded in the matrix; it is
    added to the receiver's measured X variance for the Shannon information
    and the conditioning.  Batches produced by generate_samples already carry
    the electronic noise in their records, so data paths pass 0 here.

    The uncertainty bound is checked on the (B, E) state conditioned on the
    sender's classical label x_a, with symplectic eigenvalues in the band
    [1 - STATISTICAL_PHYSICALITY_TOL, 1] clamped to 1 for statistical noise.
    UnphysicalStateError also covers a state whose spectrum cannot be solved:
    not positive definite, as from fewer records than moments, or unpaired.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if not (v_n_trusted >= 0.0 and math.isfinite(v_n_trusted)):
        raise ValueError(f"v_n_trusted must be finite and >= 0, got {v_n_trusted}")
    m = recon.moments
    tol = STATISTICAL_PHYSICALITY_TOL
    try:
        von_neumann_entropy(condition_on_label(m), tol)
    except (UnphysicalStateError, SymplecticPairingError) as exc:
        raise UnphysicalStateError(
            f"reconstructed matrix is statistically unphysical: {exc}") from None

    v_b = m[XB, XB] + v_n_trusted
    be = CovarianceMatrix(m[XB:, XB:])  # receiver mode, eavesdropper mode
    return _report(beta, 0.5 * math.log2(v_b / (v_b - m[XA, XB] ** 2 / m[XA, XA])),
                   holevo_from_cm(be, v_n_trusted, tol),
                   _correlation_leakage(m[XE, XB], m[XE, XE], v_b),
                   _correlation_leakage(m[XA, XE], m[XE, XE], m[XA, XA]), qmi_from_cm(be, tol))
