"""Command-line front end: single-point reports, figure-style sweeps, emulation.

Subcommands are listed by ``sqzkd --help``; README "Command line" has the
exit codes and output formats.  argparse resolves every input: a flag's
default is stated once, in its ``add_argument``, and ``--config`` turns the
values of a JSON file into the defaults of the chosen command's parse,
without changing its parser, so explicit flags win.  ``vars(args)`` is the
resolved configuration; ``main`` calls ``cmd_<command>`` as bound when it
runs.  The parser, with every subcommand, is built once per process.  The
sweeps write their CSV one series at a time, with one ``%`` over a row format.
numpy loads on first use (``sqzkd._numpy``): ``--help``, ``fig2`` and ``fig3``
never load it; ``fig4``'s ε > 0 series, ``report``, ``emulate`` and ``validate`` do.
``sqzkd.emulator`` loads when ``emulate`` runs and ``json`` when a command reads or
writes JSON, so the parser, ``--help`` and the CSV figures load neither.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import replace

from . import _numpy as np
from .errors import SymplecticPairingError, UnphysicalStateError
from .finite_size import FiniteSizeParams, _threshold, delta_correction, security_region
from .gaussian import (
    PHYSICALITY_TOL,
    STATISTICAL_PHYSICALITY_TOL,
    CovarianceMatrix,
    _entropy_gs,
    condition_on_label,
    db_to_snu,
    snu_to_db,
    symplectic_eigenvalues,
)
from .protocol import (DEFAULT_ETA_BOB_DET, DEFAULT_ETA_EVE_DET, ProtocolParams,
                       decoupling_modulation, holevo_eb_series, key_rate_series, security_report)

COHERENT_REFERENCE_ETA = 0.58
DEFAULT_SQUEEZING_SNU = 0.5
DEFAULT_BETA = 0.95
# Start of the fig2/fig3 modulation grids, and of fig4's for a coherent source.
GRID_START_DB = -20.0
# Largest modulation grid a sweep may ask for.
MAX_GRID_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# option plumbing

def _snu_from_db(text) -> float:
    """Type of the dB flags: the linear variance of a level in dB."""
    try:
        return db_to_snu(float(text))
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid dB value: {text!r}") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_value(key: str, raw, action: argparse.Action):
    """A config file's ``raw`` value converted as its flag converts command-line text."""
    import json
    if action.nargs == 0:
        expected, ok = "true or false", isinstance(raw, bool)
    elif action.type is None:
        expected = "a string" if action.choices is None else " or ".join(map(json.dumps, action.choices))
        ok = isinstance(raw, str) and (action.choices is None or raw in action.choices)
    elif action.nargs == "*":
        expected, ok = "a list of numbers", isinstance(raw, list) and all(map(_is_number, raw))
    elif action.type is int:  # int() would truncate a float that the command line rejects
        expected, ok = "an integer", isinstance(raw, int) and not isinstance(raw, bool)
    else:
        expected, ok = "a number", _is_number(raw)
    if not ok:
        raise ValueError(f"config key {key!r} must be {expected}, got {json.dumps(raw)}")
    try:
        if action.nargs == "*":
            return [action.type(item) for item in raw]
        return raw if action.type is None else action.type(raw)
    except (ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser; ``options`` maps each config key to its flag.

    The key of ``--va-min-db`` is ``va_min_db``.  The dB twin of a linear flag
    keeps its own key (``vr_db``) but writes the linear flag's dest.  A flag
    with a default shows it in its help.
    """

    def __init__(self, *args, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)
        del self.options["help"]  # ArgumentParser adds -h itself; it is no config key
        # -1e1 and -inf are values; argparse 3.11's own pattern knows only -1 and -.5
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def add_argument(self, *args, **kwargs):
        return self._keep(super().add_argument(*args, **kwargs))

    def _keep(self, action: argparse.Action) -> argparse.Action:
        if action.option_strings:
            self.options[action.option_strings[-1][2:].replace("-", "_")] = action
            if action.default not in (None, argparse.SUPPRESS) and action.nargs != 0:
                action.help += " (default %(default)s)"
        return action

    def add_pair(self, name: str, default: float | None, help: str) -> None:
        """Exclusive ``--<name>`` (SNU) and ``--<name>-db`` flags, both writing ``args.<name>``."""
        group = self.add_mutually_exclusive_group()
        self._keep(group.add_argument(f"--{name}", type=float, default=default, help=help))
        self._keep(group.add_argument(f"--{name}-db", type=_snu_from_db, dest=name,
                                      default=argparse.SUPPRESS, metavar=f"{name.upper()}_DB",
                                      help=f"as --{name}, in dB relative to shot noise"))

    def config_namespace(self, path: str, command: str) -> argparse.Namespace:
        """The values of a JSON config file, converted, as a namespace for ``parse_args``.

        argparse fills in a default only where the namespace has no value, so
        explicit flags win and the parser is left unchanged.  Keys that are not
        this command's flags are ignored, and a linear key beats its dB twin.
        A value of the wrong JSON type raises ValueError.
        """
        config = _read_json(path)
        if not isinstance(config, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        values = {}
        for key, raw in config.items():
            action = self.options.get(key)
            if action is None or key == "config":
                continue
            value = _config_value(key, raw, action)
            if key == action.dest or action.dest not in values:
                values[action.dest] = value
        return argparse.Namespace(command=command, **values)


def _read_json(path: str):
    """The JSON value in the file at ``path``; ValueError names the file if it holds none."""
    import json
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
            raise ValueError(f"{path}: {exc}") from None


def _protocol_from(args) -> ProtocolParams:
    v_a = args.va if args.va is not None else decoupling_modulation(args.vr)
    return ProtocolParams(v_r=args.vr, v_a=v_a, eta=args.eta, delta_v=args.dv,
                          epsilon=args.eps, v_n=args.vn, beta=args.beta)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit_rows(columns: list[str], series, grid, fmt: str, out_path: str | None) -> None:
    """Write a sweep's table as CSV or as a JSON list of one object per row.

    ``series`` holds ``(label cells, value columns)`` pairs and ``grid`` the
    grid's columns.  A row is the series' labels, then the point's cell of
    each grid and value column.  JSON holds a non-finite float as its text.
    """
    if fmt == "json":
        import json
        rows = [{key: str(c) if isinstance(c, float) and not math.isfinite(c) else c
                 for key, c in zip(columns, (*labels, *row))}
                for labels, values in series for row in zip(*grid, *values)]
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = ",".join(columns) + "\n" + "".join(_csv_series(labels, [*grid, *values])
                                                   for labels, values in series)
    _write_text(out_path, text)


def _csv_series(labels, columns) -> str:
    """One series' CSV rows, as csv.writer writes them with every cell through _format_cell.

    The rows are one ``%`` over a row format: the formatted labels, then
    ``%.12g`` for a column whose first cell is a float (all its cells must
    be) and ``%s`` for one that _format_cell converts.  No cell holds a
    delimiter, quote or line break, so none is quoted.
    """
    columns = [column if isinstance(column[0], float) else list(map(_format_cell, column))
               for column in columns]
    row_fmt = "".join(_format_cell(c).replace("%", "%%") + "," for c in labels) \
        + ",".join("%.12g" if isinstance(column[0], float) else "%s" for column in columns) + "\n"
    cells = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column
    return (row_fmt * len(columns[0])) % tuple(cells)


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


def _sweep(args, labels: list[str], series, values: list[str], solve) -> int:
    """Emit one row per modulation-grid point of each ``(label cells, base params)`` series.

    The dB grid holds the exact decoupling point of ``--squeezing``, and an
    unset ``--va-min-db`` (fig4) starts it there.  A coherent source has
    decoupling modulation 0: nothing is inserted, and such a grid starts at
    GRID_START_DB instead.  ``solve(base, v_a_grid)`` computes a series' values
    columns, and only what they need, each a sequence over the grid.
    """
    decoupling_v_a = decoupling_modulation(args.squeezing)
    insert = snu_to_db(decoupling_v_a) if decoupling_v_a > 0.0 else None
    lo = args.va_min_db
    if lo is None:
        lo = GRID_START_DB if insert is None else insert
    grid = _db_grid(lo, args.va_max_db, args.va_step_db, insert)
    try:
        v_a_grid = [db_to_snu(db) for db in grid]
    except OverflowError:
        raise ValueError(f"--va-max-db {args.va_max_db} puts a grid point at {grid[-1]} dB, beyond "
                         f"the largest float variance ({snu_to_db(sys.float_info.max):.2f} dB)"
                         ) from None
    solved = [(head, solve(base, v_a_grid)) for head, base in series]
    _emit_rows([*labels, "v_a_db", "v_a_snu", *values], solved, [grid, v_a_grid],
               args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# commands

def cmd_report(args) -> int:
    report = security_report(_protocol_from(args))
    _write_text(args.out, report.to_json() + "\n")
    return 0 if report.key_rate > 0.0 else 2


def _modulation_sweep(args, column: str, solve, fixed: dict) -> int:
    """fig2/fig3 rows: the coherent reference plus one squeezed series per transmission."""
    series = [("coherent", 1.0, COHERENT_REFERENCE_ETA, 0.0)]
    series += [("squeezed", args.squeezing, eta, args.dv) for eta in args.transmissions]
    return _sweep(args, ["protocol", "eta", *fixed],
                  (((name, eta, *fixed.values()),
                    ProtocolParams(v_r=v_r, v_a=1.0, eta=eta, delta_v=dv, v_n=args.vn, **fixed))
                   for name, v_r, eta, dv in series),
                  [column], lambda base, grid: (solve(base, grid),))


def cmd_fig2(args) -> int:
    return _modulation_sweep(args, "chi_e_bits", holevo_eb_series, {})


def cmd_fig3(args) -> int:
    return _modulation_sweep(args, "key_rate_bits", key_rate_series, {"beta": args.beta})


def _finite_column(n_total: float) -> str:
    """Column name with the fewest significant digits that identify ``n_total``."""
    for digits in range(17):
        text = f"{n_total:.{digits}e}"
        if float(text) == n_total:
            break
    return "beta_star_n" + text.replace("e+", "e").replace("e0", "e")


def cmd_fig4(args) -> int:
    finite_columns = {}  # column name: its Delta
    for n_total in args.finite_n:
        fp = FiniteSizeParams.from_total(n_total, eps_smooth=args.eps_smooth, eps_pa=args.eps_pa)
        if args.n_key is not None:
            fp = replace(fp, n_key=args.n_key)
        column = _finite_column(n_total)
        if column in finite_columns:
            raise ValueError(f"finite-size total {n_total:g} is given more than once")
        finite_columns[column] = delta_correction(fp)

    def thresholds(base, grid):
        _, stars, secure, chi, i_ab = zip(*security_region(base, grid))
        return (stars, *([_threshold(c, i, delta) for c, i in zip(chi, i_ab)]
                         for delta in finite_columns.values()), secure)

    return _sweep(args, ["protocol", "epsilon"],
                  (((name, epsilon),
                    ProtocolParams(v_r=v_r, v_a=1.0, eta=args.eta, epsilon=epsilon, v_n=args.vn))
                   for name, v_r in (("squeezed", args.squeezing), ("coherent", 1.0))
                   for epsilon in args.eps),
                  ["beta_star_asymptotic", *finite_columns, "secure_flag"], thresholds)


def cmd_emulate(args) -> int:
    import json
    from .emulator import (EmulationConfig, expected_record_covariance, generate_calibrated_samples,
                           reconstruct_covariance, security_from_data)
    params = _protocol_from(args)
    if params.v_a == 0.0:  # x_a would be constant: its covariance has a zero diagonal entry
        raise ValueError(f"emulate needs a positive --va (default 1 - vr), got {params.v_a:g}")
    cfg = EmulationConfig(n_samples=args.n_samples, seed=args.seed,
                          eta_bob_det=args.eta_bob_det, eta_eve_det=args.eta_eve_det,
                          ideal_detectors=args.ideal_detectors)

    normalized = generate_calibrated_samples(params, cfg)
    recon = reconstruct_covariance(normalized)
    expected = expected_record_covariance(params, cfg)
    try:  # evaluated before any file is written, so that a run that raises writes none
        report = security_from_data(recon.moments, params.beta)
    except UnphysicalStateError as exc:
        report_text = json.dumps({"error": str(exc)}, indent=2)
        comparison = [f"security evaluation skipped: {exc}"]
    else:
        columns = (report, security_from_data(expected, params.beta), security_report(params))
        report_text = report.to_json() + "\n"
        comparison = ["", "quantity        data          exact moments model"]
        comparison += [f"{key:15s}" + "".join(f" {getattr(c, key):13.6g}" for c in columns)
                       for key in report.as_dict()]

    normalized.write_csv(f"{args.out}_samples.csv")
    _write_text(f"{args.out}_reconstruction.json", json.dumps(recon.to_json_dict(), indent=2))
    _write_text(f"{args.out}_report.json", report_text)

    upper = np.triu_indices(5)
    data, model, err = recon.moments[upper], expected[upper], recon.standard_errors[upper]
    gap = np.abs(data - model)  # a cell whose error bar is 0 gets a nan sigma, and no warning
    sigma = np.divide(gap, err, out=np.full_like(gap, np.nan), where=err > 0.0)
    lines = ["entry        data          expected      std_err       sigma"]
    lines += [f"({i},{j})    {d:13.6g} {e:13.6g} {s:13.6g} {g:9.3f}"
              for i, j, d, e, s, g in zip(*upper, data, model, err, sigma)]
    _write_text(None, "\n".join(lines + comparison) + "\n")
    return 0


def cmd_validate(args) -> int:
    import json
    raw = _read_json(args.matrix)
    if isinstance(raw, dict):
        if "matrix" not in raw:
            raise ValueError(f"{args.matrix}: no 'matrix' key in JSON object")
        raw = raw["matrix"]
    if raw is None:
        raise ValueError(f"{args.matrix}: the matrix is null")
    try:
        matrix = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged, or an entry that is no number
        raise ValueError(f"{args.matrix}: {exc}") from None
    # float() also takes "1" and true; a --config number flag takes neither
    for entry in np.asarray(raw, dtype=object).ravel():
        if not _is_number(entry):
            raise ValueError(f"{args.matrix}: matrix entries must be numbers, "
                             f"got {json.dumps(entry)}")
    if matrix.ndim == 2 and len(matrix) % 2 == 1:  # a label row, then modes
        cm = condition_on_label(matrix)
    else:
        cm = CovarianceMatrix(matrix)
    try:
        nus = symplectic_eigenvalues(cm)
        verdict = f"minimal symplectic eigenvalue {min(nus):.12g} vs bound {1.0 - args.tol:.12g}"
    except SymplecticPairingError as exc:  # not positive definite: no spectrum to print
        nus, verdict = [], str(exc)
    ok = bool(nus)
    try:  # the g kernel alone decides the bound on the printed spectrum, and checks tol
        _entropy_gs(nus, args.tol)
    except UnphysicalStateError:
        ok = False
    lines = [f"nu_{k + 1} = {nu:.12g}" for k, nu in enumerate(nus)]
    lines.append(f"{'PASS' if ok else 'FAIL'}: {verdict}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: _CommandParser, out_default: str | None = None,
                out_help: str = "output path (default: standard output)") -> None:
    parser.add_argument("--config", help="JSON file of flag values; explicit flags win")
    parser.add_argument("--out", default=out_default, help=out_help)


def _add_protocol(parser: _CommandParser) -> None:
    parser.add_pair("vr", DEFAULT_SQUEEZING_SNU, "squeezed-quadrature variance in SNU")
    parser.add_pair("va", None, "modulation variance in SNU "
                                "(default: the decoupling modulation 1 - vr)")
    parser.add_argument("--dv", type=float, default=ProtocolParams.delta_v,
                        help="anti-squeezed excess variance in SNU")
    parser.add_argument("--eta", type=float, default=1.0, help="channel transmittance in (0, 1]")
    parser.add_argument("--eps", type=float, default=ProtocolParams.epsilon,
                        help="channel excess noise in SNU, input-referred")
    parser.add_argument("--vn", type=float, default=ProtocolParams.v_n,
                        help="trusted electronic noise of the receiver in SNU")
    parser.add_argument("--beta", type=float, default=DEFAULT_BETA,
                        help="reconciliation efficiency in (0, 1]")


def _add_sweep(parser: _CommandParser, va_min_default: float | None = GRID_START_DB,
               va_min_help: str = "modulation grid start, dB") -> None:
    _add_common(parser)
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format")
    parser.add_argument("--va-min-db", type=float, default=va_min_default, help=va_min_help)
    parser.add_argument("--va-max-db", type=float, default=10.0, help="modulation grid end, dB")
    parser.add_argument("--va-step-db", type=float, default=0.25, help="modulation grid step, dB")
    parser.add_pair("squeezing", DEFAULT_SQUEEZING_SNU, "squeezed variance for the sweep in SNU")
    parser.add_argument("--vn", type=float, default=ProtocolParams.v_n,
                        help="trusted electronic noise, SNU")


def _add_series(parser: _CommandParser, transmissions: list[float]) -> None:
    _add_sweep(parser)
    parser.add_argument("--transmissions", type=float, nargs="*", default=transmissions,
                        help="channel transmittances for the squeezed series")
    parser.add_argument("--dv", type=float, default=ProtocolParams.delta_v,
                        help="anti-squeezed excess variance, SNU")


def _add_report(parser: _CommandParser) -> None:
    _add_common(parser)
    _add_protocol(parser)


def _add_fig3(parser: _CommandParser) -> None:
    _add_series(parser, [0.098, 0.25, 0.5, 0.75])
    parser.add_argument("--beta", type=float, default=DEFAULT_BETA, help="reconciliation efficiency")


def _add_fig4(parser: _CommandParser) -> None:
    # Sweeps start at the decoupling modulation: smaller alphabets are
    # strictly dominated for the squeezed protocol (see README).
    _add_sweep(parser, None, "modulation grid start, dB (default: the decoupling modulation, "
                             f"or {GRID_START_DB:g} for a coherent source)")
    parser.add_argument("--eta", type=float, default=0.001, help="channel transmittance")
    parser.add_argument("--eps", type=float, nargs="*", default=[0.0, 0.035],
                        help="channel excess noise values, SNU")
    parser.add_argument("--finite-n", type=float, nargs="*", default=[1e10, 1e11],
                        help="total exchanged-signal counts for finite-size thresholds")
    parser.add_argument("--n-key", type=float,
                        help="signals kept for the key (default: half of each total)")
    parser.add_argument("--eps-smooth", type=float, default=FiniteSizeParams.eps_smooth,
                        help="smoothing parameter")
    parser.add_argument("--eps-pa", type=float, default=FiniteSizeParams.eps_pa,
                        help="privacy-amplification failure probability")


def _add_emulate(parser: _CommandParser) -> None:
    _add_common(parser, "emulation", "prefix of the output files")
    _add_protocol(parser)
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed; output is bit-reproducible given it")
    parser.add_argument("--n-samples", type=int, default=100000,
                        help="number of records to draw")
    parser.add_argument("--eta-bob-det", type=float, default=DEFAULT_ETA_BOB_DET,
                        help="receiver homodyne efficiency")
    parser.add_argument("--eta-eve-det", type=float, default=DEFAULT_ETA_EVE_DET,
                        help="eavesdropper homodyne efficiency")
    parser.add_argument("--ideal-detectors", action="store_true",
                        help="disable detector imperfections")


def _add_validate(parser: _CommandParser) -> None:
    _add_common(parser)
    parser.add_argument("matrix", help="path to the covariance-matrix JSON file")
    parser.add_argument("--tol", type=float, default=PHYSICALITY_TOL,
                        help=f"allowed undershoot of the bound; use {STATISTICAL_PHYSICALITY_TOL} "
                             "for statistically reconstructed matrices")


# Each subcommand: name, help, description, and the function adding its
# arguments.  Its handler is cmd_<name>.
_COMMANDS = (
    ("report", "security report for one parameter point (JSON)", None, _add_report),
    ("fig2", "Holevo information versus modulation",
     "CSV columns: protocol, eta, v_a_db, v_a_snu, chi_e_bits. "
     "Emits a coherent reference series at 58%% transmission plus one "
     "squeezed series per requested transmission.",
     lambda parser: _add_series(parser, [0.098, 0.58, 0.9])),
    ("fig3", "key rate versus modulation",
     "CSV columns: protocol, eta, beta, v_a_db, v_a_snu, key_rate_bits.", _add_fig3),
    ("fig4", "efficiency thresholds / secure regions versus modulation",
     "CSV columns: protocol, epsilon, v_a_db, v_a_snu, "
     "beta_star_asymptotic, one beta_star_n<N> column per finite "
     "sample count, secure_flag (asymptotic).", _add_fig4),
    ("emulate", "run the sampling pipeline and compare data against the model",
     "Writes <out>_samples.csv, <out>_reconstruction.json and "
     "<out>_report.json, and prints an entry-wise sigma-distance table.", _add_emulate),
    ("validate", "check a covariance-matrix JSON file",
     "Accepts a bare row-major matrix or an object with a "
     "'matrix' key; prints the symplectic eigenvalues and "
     "pass/fail against the uncertainty bound.  A matrix of odd "
     "dimension, such as emulate's reconstruction, is a classical "
     "label (row 0) followed by modes; it is checked on the "
     "modes' state conditioned on the label.", _add_validate),
)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _CommandParser]]:
    """The top-level parser and the subcommands' parsers by name, built once per process.

    Every later call shares them, so nothing may change them.
    """
    parser = argparse.ArgumentParser(
        prog="sqzkd",
        description="Security analysis for the single-quadrature squeezed-state protocol.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_CommandParser)
    for name, summary, description, add_arguments in _COMMANDS:
        add_arguments(sub.add_parser(name, help=summary, description=description))
    return parser, sub.choices


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        if args.config is not None:
            command = commands[args.command]
            args = command.parse_args(argv[1:], command.config_namespace(args.config, args.command))
        # looked up on every call, so that a wrapper installed since the build is called
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
