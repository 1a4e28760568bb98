"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Each workload turns the run seed into the inputs of its operations
(``inputs``), runs one operation through the public sqzkd API (``run``, the
only timed call) and checks that operation's outputs afterwards (``check``).
Every layer is reached through its module (``protocol.holevo_eb``), never
through a name imported into this file, so the tracer's wrappers apply.
README.md in this directory says why each workload exists.

``SCALE_OP_TIMES`` says whether a workload's op times are scaled to the
reference machine speed of speed.py.  The kernel is timed only at an op's two
edges, so it gauges the speed during ops that are short against the
machine's slow spells, not during ops of several seconds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sqzkd import cli, emulator, finite_size, protocol

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Verdict:
    """Outcome of checking one operation."""

    errors: list[str]
    items: int      # work the op completed: CSV rows, links or signal records
    cli_bytes: int  # bytes the cli layer wrote, not counting the samples CSV


class AnalyticSweep:
    """One op runs ``sqzkd fig2``, ``fig3`` and ``fig4`` at their default grids.

    The figure commands have no seeded input: their default grids are the
    paper's figures, so every op does the same work.
    """

    name = "analytic-sweep"
    items_name = "rows_per_s"
    SCALE_OP_TIMES = True  # ops of about 0.15 s
    COMMANDS = ("fig2", "fig3", "fig4")
    # The figure commands default to v_r = 0.5, so the decoupling modulation
    # 1 - v_r is 0.5 and is inserted into the fig2 grid exactly.
    DECOUPLING_V_A = 0.5

    def __init__(self, seed: int, work_dir: str):
        self.paths = {c: os.path.join(work_dir, f"{c}.csv") for c in self.COMMANDS}
        self.reference = {c: (REFERENCE_DIR / f"{c}.csv").read_bytes() for c in self.COMMANDS}

    def inputs(self, index: int) -> list[list[str]]:
        return [[c, "--out", self.paths[c]] for c in self.COMMANDS]

    def run(self, argvs: list[list[str]]) -> list[int]:
        return [cli.main(argv) for argv in argvs]

    def check(self, argvs, codes) -> Verdict:
        errors, tables, size = [], {}, 0
        for command, code in zip(self.COMMANDS, codes):
            if code != 0:
                errors.append(f"{command} exited {code}")
                continue
            data = Path(self.paths[command]).read_bytes()
            size += len(data)
            if data != self.reference[command]:
                errors.append(f"{command} CSV differs from reference/{command}.csv")
            tables[command] = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if "fig2" in tables:
            errors += self._decoupling_rows_are_zero(tables["fig2"])
        if "fig4" in tables:
            errors += self._squeezed_below_coherent(tables["fig4"])
        return Verdict(errors, sum(len(rows) for rows in tables.values()), size)

    def cleanup(self, argvs) -> None:
        for path in self.paths.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def _decoupling_rows_are_zero(self, rows: list[dict]) -> list[str]:
        series: dict[str, list[dict]] = {}
        for row in rows:
            if row["protocol"] == "squeezed":
                series.setdefault(row["eta"], []).append(row)
        if not series:
            return ["fig2 has no squeezed series"]
        errors = []
        for eta, points in series.items():
            hits = [r for r in points
                    if abs(float(r["v_a_snu"]) - self.DECOUPLING_V_A) < 1e-9]
            if len(hits) != 1:
                errors.append(f"fig2 eta={eta}: {len(hits)} decoupling rows, expected 1")
            elif float(hits[0]["chi_e_bits"]) != 0.0:
                errors.append(f"fig2 eta={eta}: chi_E = {hits[0]['chi_e_bits']} "
                              "at the decoupling modulation, expected exactly 0")
        return errors

    @staticmethod
    def _squeezed_below_coherent(rows: list[dict]) -> list[str]:
        columns = [c for c in rows[0] if c.startswith("beta_star")] if rows else []
        by_point = {(r["protocol"], r["epsilon"], r["v_a_db"]): r for r in rows}
        squeezed = [key for key in by_point if key[0] == "squeezed"]
        if not squeezed or not columns:
            return ["fig4 has no squeezed rows or no beta_star columns"]
        errors = []
        for key in squeezed:
            coherent = by_point.get(("coherent",) + key[1:])
            if coherent is None:
                errors.append(f"fig4 eps={key[1]} v_a_db={key[2]}: no coherent row")
                continue
            for column in columns:
                if float(by_point[key][column]) > float(coherent[column]):
                    errors.append(f"fig4 eps={key[1]} v_a_db={key[2]} {column}: squeezed "
                                  f"{by_point[key][column]} > coherent {coherent[column]}")
        return errors


class LinkDesign:
    """One op designs one seeded link, lossy and at its own excess noise.

    For each of the two channels: ``optimal_modulation`` over v_a in [0, 10],
    then ``security_report`` and ``key_rate_finite`` at the optimum.
    """

    name = "link-design"
    items_name = "links_per_s"
    # ops of about 15 ms; unscaled, op_s.p50 spread 29 % over ten runs
    SCALE_OP_TIMES = True
    V_A_RANGE = (0.0, 10.0)
    FINITE_N_TOTAL = 1e10
    PROBE_V_A = (0.0, 0.5, 2.0, 5.0, 10.0)  # plus the decoupling point 1 - v_r
    RATE_MARGIN = 1e-5
    # chi_E at v_a = 1 - v_r is a difference of two entropies that agree
    # analytically; for general v_r float64 leaves up to ~1e-15 bits.
    DECOUPLED_CHI_TOL = 1e-12

    def __init__(self, seed: int, work_dir: str):
        self.rng = random.Random(seed)
        self.finite = finite_size.FiniteSizeParams.from_total(self.FINITE_N_TOTAL)

    def inputs(self, index: int) -> tuple:
        draw = self.rng.uniform
        v_r, eta, delta_v = draw(0.1, 1.0), draw(0.05, 0.95), draw(0.0, 1.0)
        v_n, beta, epsilon = draw(0.0, 0.2), draw(0.85, 1.0), draw(0.005, 0.1)
        lossy = protocol.ProtocolParams(v_r=v_r, v_a=1.0 - v_r, eta=eta, delta_v=delta_v,
                                        v_n=v_n, beta=beta)
        return lossy, replace(lossy, epsilon=epsilon)

    def run(self, links: tuple) -> list[tuple]:
        designs = []
        for p in links:
            v_a, rate = protocol.optimal_modulation(p, self.V_A_RANGE)
            best = p.with_modulation(v_a)
            designs.append((v_a, rate, protocol.security_report(best),
                            finite_size.key_rate_finite(best, self.finite)))
        return designs

    def check(self, links, designs) -> Verdict:
        errors = []
        for p, (v_a, rate, report, finite_rate) in zip(links, designs):
            where = f"link {p}"
            values = [v_a, rate, finite_rate, *report.as_dict().values()]
            if not all(math.isfinite(v) for v in values):
                errors.append(f"{where}: non-finite result {values}")
                continue
            if report.chi_e < report.i_eb_classical:
                errors.append(f"{where}: chi_E {report.chi_e:.6g} < classical "
                              f"I_EB {report.i_eb_classical:.6g}")
            decoupling = 1.0 - p.v_r
            if p.epsilon == 0.0:
                chi = protocol.holevo_eb(p.with_modulation(decoupling))
                if abs(chi) > self.DECOUPLED_CHI_TOL:
                    errors.append(f"{where}: chi_E = {chi:.3g} at v_a = 1 - v_r")
            for probe in (decoupling,) + self.PROBE_V_A:
                probed = protocol.key_rate_asymptotic(p.with_modulation(probe))
                if rate < probed - self.RATE_MARGIN:
                    errors.append(f"{where}: optimum rate {rate:.6g} at v_a={v_a:.6g} "
                                  f"below {probed:.6g} at v_a={probe:.6g}")
        return Verdict(errors, 1, 0)

    def cleanup(self, links) -> None:
        pass


class EmulatePipeline:
    """One op is one ``sqzkd emulate`` run of the ``lossy`` configuration.

    Every op draws the same variates, so the cost per op is the same.
    Configurations with excess noise (``NOISY``) are not run here: the
    emulator records only one of the eavesdropper's two modes and calibrates
    on a batch that keeps the channel's excess noise, so every such op fails
    its checks, and a benchmark op must not fail.  test_smoke.py keeps that
    defect checked as an expected failure.
    """

    name = "emulate-pipeline"
    items_name = "records_per_s"
    # ops of 3-5 s; scaled, op_s.p90 spread 21 % over ten runs, unscaled 4 %
    SCALE_OP_TIMES = False
    N_SAMPLES = 1_000_000
    CONFIG = ("lossy", {"v_r": 0.5, "v_a": 2.0, "eta": 0.58, "beta": 0.95})
    NOISY = ("noisy", {"v_r": 0.5, "v_a": 0.5, "eta": 0.5, "epsilon": 0.05, "beta": 0.95})
    FLAGS = {"v_r": "--vr", "v_a": "--va", "eta": "--eta", "epsilon": "--eps", "beta": "--beta"}
    SIGMA_LIMIT = 5.0
    # Five standard deviations of the data-derived chi_E of ``lossy`` at
    # n = 1e6 (0.001 bits, from 20 seeds).
    HOLEVO_MARGIN_BITS = 0.005

    def __init__(self, seed: int, work_dir: str, n_samples: int = N_SAMPLES):
        self.seed = seed % 2 ** 64
        self.n_samples = n_samples
        self.work_dir = work_dir
        self.first_outputs: tuple[bytes, bytes] | None = None
        self.config = emulator.EmulationConfig(n_samples=n_samples, seed=self.seed,
                                               ideal_detectors=True)

    def _paths(self, name: str) -> dict[str, str]:
        prefix = os.path.join(self.work_dir, name)
        return {kind: f"{prefix}_{kind}"
                for kind in ("samples.csv", "reconstruction.json", "report.json")}

    def inputs(self, index: int) -> tuple[str, dict, list[str]]:
        name, values = self.CONFIG
        argv = ["emulate", "--n-samples", str(self.n_samples), "--ideal-detectors",
                "--seed", str(self.seed), "--out", os.path.join(self.work_dir, name)]
        for key, value in values.items():
            argv += [self.FLAGS[key], repr(value)]
        return name, values, argv

    def run(self, job) -> tuple[int, str]:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(job[2])
        return code, printed.getvalue()

    def check(self, job, result) -> Verdict:
        name, values, _ = job
        code, printed = result
        cli_bytes = len(printed.encode("utf-8"))
        if code not in (0, 2):
            return Verdict([f"{name}: emulate exited {code}"], 0, cli_bytes)
        paths = self._paths(name)
        errors = []
        if os.path.getsize(paths["samples.csv"]) == 0:
            errors.append(f"{name}: empty samples CSV")
        recon_bytes = Path(paths["reconstruction.json"]).read_bytes()
        report_bytes = Path(paths["report.json"]).read_bytes()
        cli_bytes += len(recon_bytes) + len(report_bytes)

        if self.first_outputs is None:
            self.first_outputs = (recon_bytes, report_bytes)
        if self.first_outputs != (recon_bytes, report_bytes):
            errors.append(f"{name}: reconstruction or report JSON differs from the "
                          "first op of this run")

        params = protocol.ProtocolParams(**values)
        recon = json.loads(recon_bytes)
        errors += self._within_sigma(name, recon, params)
        report = json.loads(report_bytes)
        if "error" in report:
            errors.append(f"{name}: security_from_data failed: {report['error']}")
        else:
            model = protocol.holevo_eb(params)
            if report["chi_e"] < model - self.HOLEVO_MARGIN_BITS:
                errors.append(f"{name}: data chi_E {report['chi_e']:.6g} < model chi_E "
                              f"{model:.6g} - {self.HOLEVO_MARGIN_BITS}")
        return Verdict(errors, self.n_samples, cli_bytes)

    def _within_sigma(self, name: str, recon: dict, params) -> list[str]:
        data = np.asarray(recon["matrix"], dtype=float)
        errs = np.asarray(recon["standard_errors"], dtype=float)
        expected = emulator.expected_record_covariance(params, self.config)
        errors = []
        for i, j in zip(*np.triu_indices(data.shape[0])):
            gap = abs(data[i, j] - expected[i, j])
            if errs[i, j] > 0.0 and gap / errs[i, j] <= self.SIGMA_LIMIT:
                continue
            if errs[i, j] == 0.0 and gap == 0.0:
                continue
            errors.append(f"{name}: entry ({i},{j}) data {data[i, j]:.6g} vs expected "
                          f"{expected[i, j]:.6g}, standard error {errs[i, j]:.3g}")
        return errors

    def cleanup(self, job) -> None:
        for path in self._paths(job[0]).values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


WORKLOADS = {w.name: w for w in (AnalyticSweep, LinkDesign, EmulatePipeline)}
