"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each criterion prints a single PASS/FAIL line including its runtime; run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they complete.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from sqzkd.cli import _db_grid
from sqzkd.emulator import EmulationConfig, expected_record_covariance, \
    generate_samples, reconstruct_covariance, security_from_data
from sqzkd.finite_size import FiniteSizeParams, security_region
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
    key_rate_asymptotic,
)

DECOUPLING_DB = snu_to_db(0.5)


@contextmanager
def criterion(number, description, limit_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {number}: {description} [{elapsed:.2f}s, limit {limit_s:g}s]"
    assert elapsed < limit_s, f"runtime exceeded for {line}"
    print(f"PASS {line}")


def random_draw(rng, v_a=None):
    v_r = rng.uniform(0.05, 0.99)
    return ProtocolParams(
        v_r=v_r,
        v_a=(1.0 - v_r) if v_a is None else v_a,
        eta=rng.uniform(0.001, 0.99),
        delta_v=rng.uniform(0.0, 10.0),
        v_n=rng.uniform(0.0, 1.0),
    )


def test_criterion_1_decoupling_zero():
    with criterion(1, "decoupled alphabet eliminates Holevo and receiver correlation", 10.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            p = random_draw(rng)
            assert holevo_eb(p) <= 1e-9
            joint = build_joint_state(p)
            assert abs(joint.entries[0, 2]) <= 1e-12  # <X_B X_E>


def test_criterion_2_limiting_rate():
    with criterion(2, "strong-squeezing key rate approaches -0.5 log2(1 - eta)", 1.0):
        for eta in (0.25, 0.5, 0.75):
            v_r = 1e-8
            p = ProtocolParams(v_r=v_r, v_a=1.0 - v_r, eta=eta, beta=1.0)
            target = -0.5 * math.log2(1.0 - eta)
            assert abs(key_rate_asymptotic(p) - target) <= 1e-5


def test_criterion_3_holevo_versus_modulation_shape():
    with criterion(3, "Holevo-vs-modulation: zero minimum at the decoupled alphabet", 5.0):
        grid_db = _db_grid(-20.0, 10.0, 0.25, insert=DECOUPLING_DB)
        k_dec = grid_db.index(DECOUPLING_DB)
        for eta in (0.098, 0.58, 0.9):
            chi = [holevo_eb(ProtocolParams(v_r=0.5, v_a=db_to_snu(db), eta=eta))
                   for db in grid_db]
            assert chi[k_dec] <= 1e-12
            left, right = chi[:k_dec + 1], chi[k_dec:]
            assert all(b < a for a, b in zip(left, left[1:]))
            assert all(b > a for a, b in zip(right, right[1:]))
        assert holevo_eb(ProtocolParams(v_r=1.0, v_a=0.0, eta=0.58)) == 0.0
        coherent = [holevo_eb(ProtocolParams(v_r=1.0, v_a=db_to_snu(db), eta=0.58))
                    for db in grid_db]
        assert coherent[0] > 0.0
        assert all(b > a for a, b in zip(coherent, coherent[1:]))


def test_criterion_4_optimum_drifts_with_efficiency():
    with criterion(4, "rate optimum moves toward the decoupled alphabet as beta drops", 10.0):
        grid = np.arange(0.01, 16.0, 0.01)
        for eta in (0.098, 0.5):
            argmax = {}
            for beta in (0.75, 0.95):
                base = ProtocolParams(v_r=0.5, v_a=1.0, eta=eta, beta=beta)
                rates = [key_rate_asymptotic(replace(base, v_a=v)) for v in grid]
                argmax[beta] = grid[int(np.argmax(rates))]
            assert 0.5 < argmax[0.75] < argmax[0.95]


def test_criterion_5_secure_region_ordering():
    with criterion(5, "secure regions: squeezed touches zero, beats coherent with "
                      "noise, finite-size regions nest", 30.0):
        eta = 0.001
        grid_db = _db_grid(DECOUPLING_DB, 10.0, 0.25, insert=DECOUPLING_DB)
        v_a_grid = [db_to_snu(db) for db in grid_db]
        k_dec = grid_db.index(DECOUPLING_DB)

        # (a) purely lossy: squeezed threshold exactly zero at the decoupled
        # alphabet, coherent strictly positive everywhere
        squeezed = security_region(ProtocolParams(v_r=0.5, v_a=1.0, eta=eta), v_a_grid)
        coherent = security_region(ProtocolParams(v_r=1.0, v_a=1.0, eta=eta), v_a_grid)
        assert squeezed[k_dec].beta_star == 0.0
        assert squeezed[k_dec].secure
        assert all(pt.beta_star > 0.0 for pt in coherent)

        # (b) excess noise 0.035: squeezed threshold below coherent pointwise
        sq_noisy = security_region(
            ProtocolParams(v_r=0.5, v_a=1.0, eta=eta, epsilon=0.035), v_a_grid)
        co_noisy = security_region(
            ProtocolParams(v_r=1.0, v_a=1.0, eta=eta, epsilon=0.035), v_a_grid)
        assert all(s.beta_star < c.beta_star for s, c in zip(sq_noisy, co_noisy))

        # (c) finite-size nesting: the n = 1e11 region strictly contains n = 1e10
        base = ProtocolParams(v_r=0.5, v_a=1.0, eta=eta)
        at_1e10 = security_region(base, v_a_grid, FiniteSizeParams.from_total(1e10))
        at_1e11 = security_region(base, v_a_grid, FiniteSizeParams.from_total(1e11))
        assert all(l.beta_star < s.beta_star for l, s in zip(at_1e11, at_1e10))
        assert any(l.beta_star < min(1.0, s.beta_star)
                   for l, s in zip(at_1e11, at_1e10))
        assert any(pt.secure for pt in at_1e11)


def test_criterion_6_pipeline_matches_closed_forms():
    with criterion(6, "joint-state pipeline reproduces the closed-form states and bound", 10.0):
        def eve_states(p):
            joint = build_joint_state(p)
            labelled = np.delete(np.delete(joint.entries, 1, axis=0), 1, axis=1)
            labelled[0, 0] += p.v_n
            return joint.entries[2:4, 2:4], condition_on_label(labelled).entries

        # the paper's entries: diag[eta + (1-eta) V, eta + (1-eta)(1/v_r + delta_v)],
        # and (V + v_n (1-eta) V + eta v_n) / (v_n + 1 - eta + eta V) given x_B
        for p, eve_diag, cond_x in [
            (ProtocolParams(v_r=1.0, v_a=1.0, eta=0.58), [1.42, 1.0], 2.0 / 1.58),
            (ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5, delta_v=1.0, v_n=0.3), [1.0, 2.0], 1.0),
            (ProtocolParams(v_r=0.5, v_a=1.5, eta=0.5, v_n=1.0), [1.5, 1.5], 1.4),
        ]:
            eve, cond = eve_states(p)
            assert np.max(np.abs(eve - np.diag(eve_diag))) <= 1e-10
            assert np.max(np.abs(cond - np.diag([cond_x, eve_diag[1]]))) <= 1e-10
        rng = np.random.default_rng(106)
        for _ in range(1000):
            p = random_draw(rng, v_a=rng.uniform(0.0, 3.0))
            eve, cond = eve_states(p)
            # one diagonal mode whose P entry the receiver's X leaves alone
            assert max(abs(eve[0, 1]), abs(cond[0, 1]), abs(cond[1, 1] - eve[1, 1])) <= 1e-10
            chi = von_neumann_entropy(CovarianceMatrix(eve)) \
                - von_neumann_entropy(CovarianceMatrix(cond))
            assert abs(holevo_eb(p) - chi) <= 1e-10


def test_criterion_7_monte_carlo_consistency():
    with criterion(7, "sampled reconstructions converge to the model matrices", 60.0):
        p = ProtocolParams(v_r=0.5, v_a=0.5, eta=0.58)
        checks = failures = 0
        for seed in range(10):
            cfg = EmulationConfig(n_samples=1_000_000, seed=seed)
            recon = reconstruct_covariance(generate_samples(p, cfg))
            expected = expected_record_covariance(p, cfg)
            for i in range(5):
                for j in range(i, 5):
                    checks += 1
                    err = recon.standard_errors[i, j]
                    if abs(recon.moments[i, j] - expected[i, j]) > 5 * err:
                        failures += 1
            report = security_from_data(recon.moments, beta=0.95)
            assert report.chi_e < 0.01
        assert failures <= math.floor(0.01 * checks), (failures, checks)


def test_criterion_8_holevo_bounds_classical():
    with criterion(8, "Holevo bound dominates the classical receiver leakage", 10.0):
        rng = np.random.default_rng(108)
        for _ in range(1000):
            p = random_draw(rng, v_a=rng.uniform(0.0, 3.0))
            _, i_eb = classical_leakage(p, "B")
            assert holevo_eb(p) >= i_eb - 1e-9


def test_criterion_9_purity_independence():
    with criterion(9, "decoupling is independent of the squeezed-state impurity", 1.0):
        values = [
            holevo_eb(ProtocolParams(v_r=0.5, v_a=0.5, eta=0.3, delta_v=dv, v_n=0.2))
            for dv in (0.0, 1.0, 10.0)
        ]
        assert all(v <= 1e-9 for v in values)
        assert max(values) - min(values) <= 1e-9
