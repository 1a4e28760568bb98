"""Command-line front end: single-point reports, figure-style sweeps, emulation.

Subcommands
-----------
report    security quantities for one parameter point (JSON)
fig2      Holevo information versus modulation for several transmissions (CSV)
fig3      key rate versus modulation for several transmissions (CSV)
fig4      efficiency thresholds / secure regions versus modulation (CSV)
emulate   run the sampling pipeline and compare data against the model
validate  check a covariance-matrix JSON file against the uncertainty bound

Exit codes: 0 success (secure / pass), 2 success but insecure / fail,
1 any error.  All commands honor ``--config`` (JSON file supplying any flag;
explicit flags win) and ``--seed``, and are bit-reproducible given the seed.

Modulation axes are emitted in dB relative to shot noise alongside the
linear value.  The default squeezing for the figure commands is exactly
0.5 SNU (-3.0103 dB) so that the decoupling zero is exact; the exact
decoupling modulation is inserted into default sweep grids.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .emulator import (
    EmulationConfig,
    ReconstructedCM,
    expected_record_covariance,
    generate_samples,
    normalize_to_shot_noise,
    reconstruct_covariance,
    security_from_data,
)
from .errors import UnphysicalStateError
from .finite_size import FiniteSizeParams, security_region
from .gaussian import (
    PHYSICALITY_TOL,
    CovarianceMatrix,
    db_to_snu,
    snu_to_db,
    symplectic_eigenvalues,
)
from .protocol import (
    ProtocolParams,
    decoupling_modulation,
    holevo_eb,
    key_rate_asymptotic,
    security_report,
)

COHERENT_REFERENCE_ETA = 0.58
DEFAULT_SQUEEZING_SNU = 0.5
# Largest modulation grid a sweep may ask for.
MAX_GRID_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# option plumbing

def _load_config(argv: list[str]) -> dict:
    """Pre-scan argv for --config and load the JSON flag defaults."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return config


def _get(args, config: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _resolve_variance(args, config, lin_name: str, db_name: str, default_lin: float) -> float:
    """Resolve a --x / --x-db flag pair; explicit flags beat the config file."""
    lin = getattr(args, lin_name, None)
    db = getattr(args, db_name, None)
    if lin is not None:
        return float(lin)
    if db is not None:
        return db_to_snu(float(db))
    if lin_name in config:
        return float(config[lin_name])
    if db_name in config:
        return db_to_snu(float(config[db_name]))
    return default_lin


def _protocol_from(args, config) -> ProtocolParams:
    v_r = _resolve_variance(args, config, "vr", "vr_db", DEFAULT_SQUEEZING_SNU)
    v_a = _resolve_variance(args, config, "va", "va_db", decoupling_modulation(min(v_r, 1.0)))
    return ProtocolParams(
        v_r=v_r,
        v_a=v_a,
        eta=float(_get(args, config, "eta", 1.0)),
        delta_v=float(_get(args, config, "dv", 0.0)),
        epsilon=float(_get(args, config, "eps", 0.0)),
        v_n=float(_get(args, config, "vn", 0.0)),
        beta=float(_get(args, config, "beta", 0.95)),
    )


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit_rows(rows: list[dict], columns: list[str], fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        safe = [
            {k: (r[k] if not (isinstance(r[k], float) and not math.isfinite(r[k])) else str(r[k]))
             for k in columns}
            for r in rows
        ]
        text = json.dumps(safe, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[k]) for k in columns])
        text = buffer.getvalue()
    _write_text(out_path, text)


def _write_text(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _db_grid(min_db: float, max_db: float, step_db: float, insert: float | None = None) -> list[float]:
    for flag, value in (("--va-min-db", min_db), ("--va-max-db", max_db),
                        ("--va-step-db", step_db)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if step_db <= 0 or max_db < min_db:
        raise ValueError(f"invalid dB grid [{min_db}, {max_db}] step {step_db}")
    # The end is kept when the span is a whole number of steps up to rounding.
    steps = (max_db - min_db) / step_db + 1e-9
    if not steps < MAX_GRID_POINTS:  # also true when the quotient overflows
        raise ValueError(f"dB grid [{min_db}, {max_db}] step {step_db} has more than "
                         f"{MAX_GRID_POINTS} points")
    count = math.floor(steps)
    values = [min_db + k * step_db for k in range(count + 1)]
    if insert is not None and min_db <= insert <= max_db and insert not in values:
        values.append(insert)
    return sorted(values)


def _grid_from_args(args, config, v_r: float, from_decoupling: bool = False) -> list[float]:
    """Modulation grid in dB holding the exact decoupling point of ``v_r``.

    A coherent source has decoupling modulation 0: nothing is inserted, and a
    grid asked to start at the decoupling point starts at -20 dB instead.
    """
    decoupling_v_a = decoupling_modulation(v_r)
    insert = snu_to_db(decoupling_v_a) if decoupling_v_a > 0.0 else None
    default_min = insert if from_decoupling and insert is not None else -20.0
    lo = float(_get(args, config, "va_min_db", default_min))
    hi = float(_get(args, config, "va_max_db", 10.0))
    step = float(_get(args, config, "va_step_db", 0.25))
    return _db_grid(lo, hi, step, insert)


# ---------------------------------------------------------------------------
# commands

def cmd_report(args, config) -> int:
    params = _protocol_from(args, config)
    report = security_report(params)
    _write_text(_get(args, config, "out", None), report.to_json() + "\n")
    return 0 if report.key_rate > 0.0 else 2


def _modulation_sweep(args, config, default_transmissions: list[float], column: str,
                      quantity, beta: float | None = None) -> int:
    """fig2/fig3 rows: the coherent reference plus one squeezed series per transmission."""
    v_r = _resolve_variance(args, config, "squeezing", "squeezing_db", DEFAULT_SQUEEZING_SNU)
    transmissions = _get(args, config, "transmissions", default_transmissions)
    grid = _grid_from_args(args, config, v_r)
    v_n = float(_get(args, config, "vn", 0.0))
    dv = float(_get(args, config, "dv", 0.0))
    fixed = {} if beta is None else {"beta": beta}

    rows = []
    series = [("coherent", 1.0, COHERENT_REFERENCE_ETA, 0.0)]
    series += [("squeezed", v_r, float(eta), dv) for eta in transmissions]
    for name, vr, eta, delta_v in series:
        base = ProtocolParams(v_r=vr, v_a=1.0, eta=eta, delta_v=delta_v, v_n=v_n, **fixed)
        for v_a_db in grid:
            point = replace(base, v_a=db_to_snu(v_a_db))
            rows.append({"protocol": name, "eta": eta, **fixed,
                         "v_a_db": v_a_db, "v_a_snu": point.v_a, column: quantity(point)})
    _emit_rows(rows, ["protocol", "eta", *fixed, "v_a_db", "v_a_snu", column],
               _get(args, config, "format", "csv"), _get(args, config, "out", None))
    return 0


def cmd_fig2(args, config) -> int:
    return _modulation_sweep(args, config, [0.098, 0.58, 0.9], "chi_e_bits", holevo_eb)


def cmd_fig3(args, config) -> int:
    beta = float(_get(args, config, "beta", 0.95))
    return _modulation_sweep(args, config, [0.098, 0.25, 0.5, 0.75], "key_rate_bits",
                             key_rate_asymptotic, beta)


def _finite_column(n_total: float) -> str:
    """Column name with the fewest significant digits that identify ``n_total``."""
    for digits in range(17):
        text = f"{n_total:.{digits}e}"
        if float(text) == n_total:
            break
    return "beta_star_n" + text.replace("e+", "e").replace("e0", "e")


def cmd_fig4(args, config) -> int:
    v_r = _resolve_variance(args, config, "squeezing", "squeezing_db", DEFAULT_SQUEEZING_SNU)
    eta = float(_get(args, config, "eta", 0.001))
    epsilons = [float(e) for e in _get(args, config, "eps", [0.0, 0.035])]
    finite_ns = [float(n) for n in _get(args, config, "finite_n", [1e10, 1e11])]
    eps_smooth = float(_get(args, config, "eps_smooth", 1e-10))
    eps_pa = float(_get(args, config, "eps_pa", 1e-10))
    v_n = float(_get(args, config, "vn", 0.0))
    # Sweeps start at the decoupling modulation: smaller alphabets are
    # strictly dominated for the squeezed protocol (see README).
    grid = _grid_from_args(args, config, v_r, from_decoupling=True)
    v_a_grid = [db_to_snu(db) for db in grid]

    finite_columns = {}
    n_key = _get(args, config, "n_key", None)
    for n_total in finite_ns:
        fp = FiniteSizeParams.from_total(n_total, eps_smooth=eps_smooth, eps_pa=eps_pa)
        if n_key is not None:
            fp = replace(fp, n_key=float(n_key))
        column = _finite_column(n_total)
        if column in finite_columns:
            raise ValueError(f"finite-size total {n_total:g} is given more than once")
        finite_columns[column] = fp

    rows = []
    for name, vr in (("squeezed", v_r), ("coherent", 1.0)):
        for epsilon in epsilons:
            base = ProtocolParams(v_r=vr, v_a=1.0, eta=eta, epsilon=epsilon, v_n=v_n)
            for db, point in zip(grid, security_region(base, v_a_grid)):
                rows.append({"protocol": name, "epsilon": epsilon, "v_a_db": db,
                             "v_a_snu": point.v_a, "beta_star_asymptotic": point.beta_star,
                             **{c: point.beta_star_at(fp) for c, fp in finite_columns.items()},
                             "secure_flag": point.secure})
    columns = ["protocol", "epsilon", "v_a_db", "v_a_snu", "beta_star_asymptotic",
               *finite_columns, "secure_flag"]
    _emit_rows(rows, columns, _get(args, config, "format", "csv"),
               _get(args, config, "out", None))
    return 0


def cmd_emulate(args, config) -> int:
    params = _protocol_from(args, config)
    cfg = EmulationConfig(
        n_samples=int(_get(args, config, "n_samples", 100000)),
        seed=int(_get(args, config, "seed", 0)),
        eta_bob_det=float(_get(args, config, "eta_bob_det", 0.85)),
        eta_eve_det=float(_get(args, config, "eta_eve_det", 0.95)),
        alice_p_placeholder=float(_get(args, config, "alice_p_placeholder", 100.0)),
        ideal_detectors=bool(_get(args, config, "ideal_detectors", False)),
    )
    prefix = _get(args, config, "out", "emulation")

    batch = generate_samples(params, cfg)
    calibration = generate_samples(
        replace(params, v_a=0.0, v_r=1.0, delta_v=0.0),
        replace(cfg, seed=(cfg.seed + 1) % 2 ** 64),
    )
    normalized = normalize_to_shot_noise(batch, calibration)
    del batch, calibration  # dead from here; freed before reconstruction allocates its copy
    recon = reconstruct_covariance(normalized)

    batch_path = f"{prefix}_samples.csv"
    recon_path = f"{prefix}_reconstruction.json"
    report_path = f"{prefix}_report.json"
    normalized.write_csv(batch_path)
    with open(recon_path, "w", encoding="utf-8") as fh:
        json.dump(recon.to_json_dict(), fh, indent=2)

    expected = expected_record_covariance(params, cfg)
    lines = ["entry        data          expected      std_err       sigma"]
    for i in range(6):
        for j in range(i, 6):
            data_v = recon.cm.entries[i, j]
            exp_v = expected[i, j]
            err = recon.standard_errors[i, j]
            sigma = abs(data_v - exp_v) / err if err > 0 else 0.0
            lines.append(f"({i},{j})    {data_v:13.6g} {exp_v:13.6g} {err:13.6g} {sigma:9.3f}")

    try:
        report = security_from_data(recon, params.beta, v_n_trusted=0.0)
    except UnphysicalStateError as exc:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"error": str(exc)}, fh, indent=2)
        lines.append(f"security evaluation skipped: {exc}")
        _write_text(None, "\n".join(lines) + "\n")
        return 0
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")

    exact = ReconstructedCM(cm=CovarianceMatrix(expected), n_samples=cfg.n_samples,
                            standard_errors=np.zeros_like(expected))
    analytic = security_from_data(exact, params.beta, v_n_trusted=0.0)
    lines.append("")
    lines.append("quantity        data          model")
    for key, value in report.as_dict().items():
        lines.append(f"{key:15s} {value:13.6g} {getattr(analytic, key):13.6g}")
    _write_text(None, "\n".join(lines) + "\n")
    return 0


def cmd_validate(args, config) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        raw = payload.get("matrix", payload.get("entries"))
        if raw is None:
            raise ValueError(f"{args.matrix}: no 'matrix' or 'entries' key in JSON object")
    else:
        raw = payload
    cm = CovarianceMatrix(np.asarray(raw, dtype=float))
    tol = float(_get(args, config, "tol", PHYSICALITY_TOL))
    nus = symplectic_eigenvalues(cm)
    lines = [f"nu_{k + 1} = {nu:.12g}" for k, nu in enumerate(nus)]
    ok = min(nus) >= 1.0 - tol
    lines.append(f"{'PASS' if ok else 'FAIL'}: minimal symplectic eigenvalue "
                 f"{min(nus):.12g} vs bound {1.0 - tol:.12g}")
    _write_text(_get(args, config, "out", None), "\n".join(lines) + "\n")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file supplying any flag; explicit flags win")
    parser.add_argument("--out", help="output path (default: standard output)")
    parser.add_argument("--seed", type=int, help="random seed; output is bit-reproducible given it")


def _add_protocol(parser: argparse.ArgumentParser) -> None:
    group_r = parser.add_mutually_exclusive_group()
    group_r.add_argument("--vr", type=float, help="squeezed-quadrature variance in SNU")
    group_r.add_argument("--vr-db", type=float, dest="vr_db",
                         help="squeezed-quadrature variance in dB relative to shot noise")
    group_a = parser.add_mutually_exclusive_group()
    group_a.add_argument("--va", type=float, help="modulation variance in SNU")
    group_a.add_argument("--va-db", type=float, dest="va_db", help="modulation variance in dB")
    parser.add_argument("--dv", type=float, help="anti-squeezed excess variance in SNU")
    parser.add_argument("--eta", type=float, help="channel transmittance in (0, 1]")
    parser.add_argument("--eps", type=float, help="channel excess noise in SNU (input-referred)")
    parser.add_argument("--vn", type=float, help="trusted electronic noise of the receiver in SNU")
    parser.add_argument("--beta", type=float, help="reconciliation efficiency in (0, 1]")


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--format", choices=("csv", "json"), dest="format",
                        help="tabular output format (default csv)")
    parser.add_argument("--va-min-db", type=float, dest="va_min_db", help="modulation grid start, dB")
    parser.add_argument("--va-max-db", type=float, dest="va_max_db", help="modulation grid end, dB")
    parser.add_argument("--va-step-db", type=float, dest="va_step_db",
                        help="modulation grid step, dB (default 0.25)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--squeezing", type=float, help="squeezed variance for the sweep, SNU (default 0.5)")
    group.add_argument("--squeezing-db", type=float, dest="squeezing_db",
                       help="squeezed variance for the sweep, dB")
    parser.add_argument("--vn", type=float, help="trusted electronic noise, SNU")


def _add_series(parser: argparse.ArgumentParser, default_transmissions: str) -> None:
    _add_sweep(parser)
    parser.add_argument("--transmissions", type=float, nargs="*",
                        help="channel transmittances for the squeezed series "
                             f"(default {default_transmissions})")
    parser.add_argument("--dv", type=float, help="anti-squeezed excess variance, SNU")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzkd",
        description="Security analysis for the single-quadrature squeezed-state protocol.",
    )
    sub = parser.add_subparsers(dest="command")

    rep = sub.add_parser("report", help="security report for one parameter point (JSON)")
    _add_common(rep)
    _add_protocol(rep)
    rep.set_defaults(func=cmd_report)

    f2 = sub.add_parser(
        "fig2", help="Holevo information versus modulation",
        description="CSV columns: protocol, eta, v_a_db, v_a_snu, chi_e_bits. "
                    "Emits a coherent reference series at 58%% transmission plus one "
                    "squeezed series per requested transmission.")
    _add_series(f2, "0.098 0.58 0.9")
    f2.set_defaults(func=cmd_fig2)

    f3 = sub.add_parser(
        "fig3", help="key rate versus modulation",
        description="CSV columns: protocol, eta, beta, v_a_db, v_a_snu, key_rate_bits.")
    _add_series(f3, "0.098 0.25 0.5 0.75")
    f3.add_argument("--beta", type=float, help="reconciliation efficiency (default 0.95)")
    f3.set_defaults(func=cmd_fig3)

    f4 = sub.add_parser(
        "fig4", help="efficiency thresholds / secure regions versus modulation",
        description="CSV columns: protocol, epsilon, v_a_db, v_a_snu, "
                    "beta_star_asymptotic, one beta_star_n<N> column per finite "
                    "sample count, secure_flag (asymptotic).  The default grid "
                    "starts at the decoupling modulation.")
    _add_sweep(f4)
    f4.add_argument("--eta", type=float, help="channel transmittance (default 0.001)")
    f4.add_argument("--eps", type=float, nargs="*",
                    help="channel excess noise values, SNU (default 0 0.035)")
    f4.add_argument("--finite-n", type=float, nargs="*", dest="finite_n",
                    help="total exchanged-signal counts for finite-size thresholds "
                         "(default 1e10 1e11)")
    f4.add_argument("--n-key", type=float, dest="n_key",
                    help="signals kept for the key (default: half of each total)")
    f4.add_argument("--eps-smooth", type=float, dest="eps_smooth",
                    help="smoothing parameter (default 1e-10)")
    f4.add_argument("--eps-pa", type=float, dest="eps_pa",
                    help="privacy-amplification failure probability (default 1e-10)")
    f4.set_defaults(func=cmd_fig4)

    emu = sub.add_parser(
        "emulate", help="run the sampling pipeline and compare data against the model",
        description="Writes <out>_samples.csv, <out>_reconstruction.json and "
                    "<out>_report.json, and prints an entry-wise sigma-distance table.")
    _add_common(emu)
    _add_protocol(emu)
    emu.add_argument("--n-samples", type=int, dest="n_samples",
                     help="number of records to draw (default 100000)")
    emu.add_argument("--eta-bob-det", type=float, dest="eta_bob_det",
                     help="receiver homodyne efficiency (default 0.85)")
    emu.add_argument("--eta-eve-det", type=float, dest="eta_eve_det",
                     help="eavesdropper homodyne efficiency (default 0.95)")
    emu.add_argument("--alice-p-placeholder", type=float, dest="alice_p_placeholder",
                     help="placeholder variance for the sender's phase row (default 100)")
    emu.add_argument("--ideal-detectors", action="store_const", const=True,
                     dest="ideal_detectors", help="disable detector imperfections")
    emu.set_defaults(func=cmd_emulate)

    val = sub.add_parser(
        "validate", help="check a covariance-matrix JSON file",
        description="Accepts a bare row-major matrix or an object with a "
                    "'matrix' key; prints the symplectic eigenvalues and "
                    "pass/fail against the uncertainty bound.")
    _add_common(val)
    val.add_argument("matrix", help="path to the covariance-matrix JSON file")
    val.add_argument("--tol", type=float,
                     help="allowed undershoot of the bound (default 1e-9; "
                          "use 0.05 for statistically reconstructed matrices)")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config = _load_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 1
    try:
        return args.func(args, config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
