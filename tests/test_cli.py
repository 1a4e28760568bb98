"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sqzkd import cli, finite_size, gaussian, protocol
from sqzkd.cli import _db_grid, _format_cell, main
from sqzkd.errors import ThresholdUndefinedError
from sqzkd.finite_size import FiniteSizeParams, beta_threshold
from sqzkd.gaussian import (
    LARGE_NU,
    condition_on_label,
    db_to_snu,
    snu_to_db,
    symplectic_eigenvalues,
)
from sqzkd.protocol import ProtocolParams, decoupling_modulation, mutual_information_ab

REPORT_KEYS = ["i_ab", "chi_e", "key_rate", "c_eb", "c_ea",
               "i_eb_classical", "i_ea_classical", "qmi_eb"]

DECOUPLING_DB = -10.0 * math.log10(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestReport:
    def test_decoupling_point_secure(self, capsys):
        code, out, _ = run(capsys, "report", "--vr", "0.5", "--va", "0.5",
                           "--eta", "0.5", "--beta", "0.95")
        assert code == 0
        data = json.loads(out)
        assert list(data) == REPORT_KEYS
        assert data["chi_e"] == 0.0
        assert data["key_rate"] > 0.0

    def test_decoupling_in_db_units(self, capsys):
        code, out, _ = run(capsys, "report", "--vr-db", "-3.0102999566398121",
                           "--va-db", "-3.0102999566398121", "--eta", "0.5",
                           "--beta", "0.95")
        assert code == 0
        assert json.loads(out)["chi_e"] < 1e-9

    def test_no_modulation_insecure(self, capsys):
        code, out, _ = run(capsys, "report", "--vr-db", "0", "--va", "0", "--eta", "0.5")
        assert code == 2
        assert json.loads(out)["key_rate"] <= 0.0

    def test_malformed_number(self, capsys):
        code, _, _ = run(capsys, "report", "--eta", "abc")
        assert code == 1

    def test_invalid_parameter_value(self, capsys):
        code, _, err = run(capsys, "report", "--eta", "1.5")
        assert code == 1
        assert "error" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "report", "--vr", "0.5", "--va", "0.5",
                           "--eta", "0.5", "--out", str(target))
        assert code == 0
        assert out == ""
        assert list(json.loads(target.read_text())) == REPORT_KEYS


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": 0.25, "vr": 0.5, "va": 0.5}))
        code, out, _ = run(capsys, "report", "--config", str(cfg))
        assert code == 0
        expected = mutual_information_ab(ProtocolParams(v_r=0.5, v_a=0.5, eta=0.25))
        assert json.loads(out)["i_ab"] == pytest.approx(expected, abs=1e-12)

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": 0.25, "vr": 0.5, "va": 0.5}))
        code, out, _ = run(capsys, "report", "--config", str(cfg), "--eta", "0.5")
        assert code == 0
        expected = mutual_information_ab(ProtocolParams(v_r=0.5, v_a=0.5, eta=0.5))
        assert json.loads(out)["i_ab"] == pytest.approx(expected, abs=1e-12)

    def test_missing_config_errors(self, capsys):
        code, _, err = run(capsys, "report", "--config", "/nonexistent/cfg.json")
        assert code == 1
        assert "error" in err


class TestFig2:
    def test_default_sweep(self, capsys, tmp_path):
        target = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "fig2", "--out", str(target))
        assert code == 0
        rows = read_csv(target)
        assert list(rows[0]) == ["protocol", "eta", "v_a_db", "v_a_snu", "chi_e_bits"]

        sq58 = [r for r in rows if r["protocol"] == "squeezed" and float(r["eta"]) == 0.58]
        chi = [float(r["chi_e_bits"]) for r in sq58]
        dbs = [float(r["v_a_db"]) for r in sq58]
        k_min = int(np.argmin(chi))
        assert dbs[k_min] == pytest.approx(DECOUPLING_DB, abs=1e-9)
        assert chi[k_min] <= 1e-12

        coherent = [float(r["chi_e_bits"]) for r in rows if r["protocol"] == "coherent"]
        assert all(b > a for a, b in zip(coherent, coherent[1:]))

        etas = {float(r["eta"]) for r in rows if r["protocol"] == "squeezed"}
        assert etas == {0.098, 0.58, 0.9}

    def test_empty_transmissions_only_coherent(self, capsys, tmp_path):
        target = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "fig2", "--transmissions", "--out", str(target))
        assert code == 0
        rows = read_csv(target)
        assert {r["protocol"] for r in rows} == {"coherent"}

    def test_reproducible_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "fig2", "--out", str(a))
        run(capsys, "fig2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_coherent_source_has_no_decoupling_row(self, capsys, tmp_path):
        target = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "fig2", "--squeezing", "1", "--out", str(target))
        assert code == 0
        rows = read_csv(target)
        assert len(rows) == 4 * 121
        assert {float(r["v_a_db"]) for r in rows} == {-20.0 + 0.25 * k for k in range(121)}

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "fig2", "--transmissions", "--format", "json",
                           "--va-min-db", "-4", "--va-max-db", "-2", "--va-step-db", "1")
        assert code == 0
        rows = json.loads(out)
        assert all(r["protocol"] == "coherent" for r in rows)


class TestFig3:
    def test_optimum_moves_with_efficiency(self, capsys, tmp_path):
        argmax_db = {}
        for beta in ("0.75", "0.95"):
            target = tmp_path / f"fig3_{beta}.csv"
            code, _, _ = run(capsys, "fig3", "--transmissions", "0.098",
                             "--beta", beta, "--out", str(target))
            assert code == 0
            rows = [r for r in read_csv(target) if r["protocol"] == "squeezed"]
            rates = [float(r["key_rate_bits"]) for r in rows]
            argmax_db[beta] = float(rows[int(np.argmax(rates))]["v_a_db"])
        assert DECOUPLING_DB < argmax_db["0.75"] < argmax_db["0.95"]

    def test_includes_coherent_reference(self, capsys, tmp_path):
        target = tmp_path / "fig3.csv"
        run(capsys, "fig3", "--transmissions", "0.5", "--out", str(target))
        rows = read_csv(target)
        assert {r["protocol"] for r in rows} == {"coherent", "squeezed"}
        assert {float(r["eta"]) for r in rows if r["protocol"] == "coherent"} == {0.58}

    def test_vanishing_efficiency_no_key(self, capsys, tmp_path):
        target = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, "fig3", "--transmissions", "0.5", "--beta", "1e-9",
                         "--out", str(target))
        assert code == 0
        assert all(float(r["key_rate_bits"]) <= 1e-9 for r in read_csv(target))

    def test_coherent_source_in_db(self, capsys, tmp_path):
        target = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, "fig3", "--squeezing-db", "0", "--out", str(target))
        assert code == 0
        assert len(read_csv(target)) == 5 * 121

    def test_zero_efficiency_rejected(self, capsys):
        code, _, _ = run(capsys, "fig3", "--beta", "0")
        assert code == 1


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    target = tmp_path_factory.mktemp("fig4") / "fig4.csv"
    assert main(["fig4", "--out", str(target)]) == 0
    return read_csv(target)


class TestFig4:
    def test_columns(self, rows):
        assert list(rows[0]) == ["protocol", "epsilon", "v_a_db", "v_a_snu",
                                 "beta_star_asymptotic", "beta_star_n1e10",
                                 "beta_star_n1e11", "secure_flag"]

    def test_squeezed_touches_zero_at_decoupling(self, rows):
        lossless = [r for r in rows
                    if r["protocol"] == "squeezed" and float(r["epsilon"]) == 0.0]
        by_db = {float(r["v_a_db"]): r for r in lossless}
        at_dec = by_db[min(by_db, key=lambda db: abs(db - DECOUPLING_DB))]
        assert float(at_dec["beta_star_asymptotic"]) == 0.0
        assert at_dec["secure_flag"] == "true"

    def test_coherent_never_reaches_zero(self, rows):
        coherent = [r for r in rows
                    if r["protocol"] == "coherent" and float(r["epsilon"]) == 0.0]
        assert all(float(r["beta_star_asymptotic"]) > 0.0 for r in coherent)

    def test_noisy_superiority_rowwise(self, rows):
        sq = [r for r in rows if r["protocol"] == "squeezed" and float(r["epsilon"]) == 0.035]
        co = [r for r in rows if r["protocol"] == "coherent" and float(r["epsilon"]) == 0.035]
        assert len(sq) == len(co) > 0
        for s, c in zip(sq, co):
            assert float(s["beta_star_asymptotic"]) < float(c["beta_star_asymptotic"])

    def test_coherent_insecure_at_1e10(self, rows):
        coherent = [r for r in rows
                    if r["protocol"] == "coherent" and float(r["epsilon"]) == 0.0]
        assert all(float(r["beta_star_n1e10"]) > 1.0 for r in coherent)

    def test_finite_size_nesting(self, rows):
        squeezed = [r for r in rows
                    if r["protocol"] == "squeezed" and float(r["epsilon"]) == 0.0]
        assert all(float(r["beta_star_n1e11"]) < float(r["beta_star_n1e10"])
                   for r in squeezed)
        assert any(float(r["beta_star_n1e10"]) < 1.0 for r in squeezed)

    def test_nan_squeezing_is_an_error(self, capsys):
        code, out, err = run(capsys, "fig4", "--squeezing", "nan")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "v_r" in err
        assert err.count("\n") == 1

    def test_coherent_source_starts_at_minus_20_db(self, capsys, tmp_path):
        target = tmp_path / "fig4.csv"
        code, _, _ = run(capsys, "fig4", "--squeezing", "1", "--out", str(target))
        assert code == 0
        table = read_csv(target)
        assert len(table) == 2 * 2 * 121
        assert min(float(r["v_a_db"]) for r in table) == -20.0


def _record_calls(monkeypatch, names):
    """Record the positional arguments of each call of sqzkd functions, under every bound name."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(protocol, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        for module in (protocol, finite_size, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def _expected_threshold_cell(point, fp):
    try:
        return _format_cell(beta_threshold(point, fp))
    except ThresholdUndefinedError:
        return _format_cell(math.inf)


class TestFig4OneSolvePerPoint:
    FINITE = {"beta_star_asymptotic": None,
              "beta_star_n1e10": FiniteSizeParams.from_total(1e10),
              "beta_star_n1e11": FiniteSizeParams.from_total(1e11)}

    def _check_cells(self, table, grid_db):
        points = [ProtocolParams(v_r=v_r, v_a=db_to_snu(db), eta=0.001, epsilon=eps)
                  for v_r in (0.5, 1.0) for eps in (0.0, 0.035) for db in grid_db]
        assert len(table) == len(points)
        for row, point in zip(table, points):
            assert row["v_a_snu"] == _format_cell(point.v_a)
            for column, fp in self.FINITE.items():
                assert row[column] == _expected_threshold_cell(point, fp)

    def test_default_sweep_solves_each_point_once(self, capsys, tmp_path, monkeypatch):
        calls = _record_calls(monkeypatch, ("holevo_eb", "mutual_information_ab",
                                            "holevo_eb_series", "mutual_information_ab_series"))
        target = tmp_path / "fig4.csv"
        code, _, _ = run(capsys, "fig4", "--out", str(target))
        assert code == 0
        # one stacked call per (protocol, epsilon) series, 212 points in all
        points = {name: [len(args[1]) for args in c] if name.endswith("_series") else len(c)
                  for name, c in calls.items()}
        assert points == {"holevo_eb": 0, "mutual_information_ab": 0,
                          "holevo_eb_series": [53] * 4, "mutual_information_ab_series": [53] * 4}
        monkeypatch.undo()
        decoupling_db = snu_to_db(decoupling_modulation(0.5))
        self._check_cells(read_csv(target), _db_grid(decoupling_db, 10.0, 0.25, decoupling_db))

    def test_undefined_thresholds_are_inf(self, capsys, tmp_path):
        target = tmp_path / "fig4.csv"
        code, _, _ = run(capsys, "fig4", "--va-min-db", "-400", "--va-max-db", "-399",
                         "--va-step-db", "1", "--out", str(target))
        assert code == 0
        table = read_csv(target)
        assert {r[c] for r in table for c in self.FINITE} == {"inf"}
        self._check_cells(table, [-400.0, -399.0])


class TestFig4FiniteColumns:
    GRID = ("--va-min-db", "0", "--va-max-db", "1", "--va-step-db", "1")

    def test_distinct_totals_get_distinct_columns(self, capsys, tmp_path):
        target = tmp_path / "fig4.csv"
        code, _, _ = run(capsys, "fig4", *self.GRID, "--finite-n", "5", "1.5e10", "2e10",
                         "--out", str(target))
        assert code == 0
        table = read_csv(target)
        assert list(table[0]) == ["protocol", "epsilon", "v_a_db", "v_a_snu",
                                  "beta_star_asymptotic", "beta_star_n5e0",
                                  "beta_star_n1.5e10", "beta_star_n2e10", "secure_flag"]
        assert all(float(r["beta_star_n1.5e10"]) > float(r["beta_star_n2e10"]) for r in table)

    def test_repeated_total_rejected(self, capsys, tmp_path):
        target = tmp_path / "fig4.csv"
        code, _, err = run(capsys, "fig4", *self.GRID, "--finite-n", "1e10", "1e10",
                           "--out", str(target))
        assert code == 1
        assert "more than once" in err
        assert not target.exists()

    @pytest.mark.parametrize("argv, field", [
        (("--finite-n", "inf"), "n_total"),
        (("--finite-n", "1e10", "nan"), "n_total"),
        (("--n-key", "inf"), "n_key"),
    ], ids=["inf-total", "nan-total", "inf-key"])
    def test_non_finite_count_is_an_error(self, capsys, tmp_path, argv, field):
        target = tmp_path / "fig4.csv"
        code, out, err = run(capsys, "fig4", *self.GRID, *argv, "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {field} must be finite, got ")
        assert err.count("\n") == 1
        assert not target.exists()


class TestSweepWriter:
    COLUMNS = ["protocol", "eta", "v_a_db", "v_a_snu", "value", "flag"]
    GRID = [(-3.0, 0.5), (0.0, 1.0), (10.0, 10.0)]
    SERIES = [
        (("coherent", 0.58), [(math.inf, True), (-math.inf, False), (math.nan, True)]),
        (("squeezed", 0.098), [(-0.0, False), (5e-324, True), (1e300, False)]),
        (("50%", 1 / 3), [(0.1 + 0.2, True), (-1.5e-7, False), (123456789012345.0, True)]),
    ]
    # _emit_rows takes the same tables column by column
    GRID_COLUMNS = list(zip(*GRID))
    SERIES_COLUMNS = [(labels, list(zip(*values))) for labels, values in SERIES]

    def test_csv_equals_csv_writer(self, tmp_path):
        target = tmp_path / "rows.csv"
        cli._emit_rows(self.COLUMNS, self.SERIES_COLUMNS, self.GRID_COLUMNS, "csv",
                       str(target))
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.COLUMNS)
        for labels, values in self.SERIES:
            for point, cells in zip(self.GRID, values):
                writer.writerow([_format_cell(c) for c in (*labels, *point, *cells)])
        assert target.read_text(encoding="utf-8") == buffer.getvalue()
        assert buffer.getvalue().splitlines()[1:7] == [
            "coherent,0.58,-3,0.5,inf,true", "coherent,0.58,0,1,-inf,false",
            "coherent,0.58,10,10,nan,true", "squeezed,0.098,-3,0.5,-0,false",
            "squeezed,0.098,0,1,4.94065645841e-324,true", "squeezed,0.098,10,10,1e+300,false"]

    def test_json_holds_non_finite_cells_as_text(self, tmp_path):
        target = tmp_path / "rows.json"
        cli._emit_rows(self.COLUMNS, self.SERIES_COLUMNS, self.GRID_COLUMNS, "json",
                       str(target))
        text = target.read_text(encoding="utf-8")
        for line in ['"value": "inf"', '"value": "-inf"', '"value": "nan"', '"flag": true',
                     '"flag": false', '"value": -0.0', '"value": 5e-324', '"value": 1e+300']:
            assert line in [held.strip().rstrip(",") for held in text.splitlines()]
        expected = [
            dict(zip(self.COLUMNS, [*labels, *point, *(c if math.isfinite(c) else str(c)
                                                       for c in cells)]))
            for labels, values in self.SERIES for point, cells in zip(self.GRID, values)]
        assert text == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("command", ["fig2", "fig3", "fig4"])
    def test_json_holds_the_reference_rows(self, capsys, command):
        reference = Path(__file__).parent.parent / "bench" / "reference" / f"{command}.csv"
        code, out, _ = run(capsys, command, "--format", "json")
        assert code == 0
        rows = [{key: _format_cell(value) for key, value in row.items()}
                for row in json.loads(out)]
        assert rows == read_csv(reference)

    @pytest.mark.parametrize("argv", [
        ("fig4", "--finite-n", "5", "1.5e10", "2e10", "--eps", "0", "0.01", "0.035", "0.05"),
        ("fig4", "--finite-n"),
        ("fig4", "--eps"),
        ("fig2", "--transmissions"),
        ("fig3", "--transmissions", "0.1", "0.9", "--beta", "0.9", "--squeezing", "0.3",
         "--dv", "0.5", "--vn", "0.1"),
        ("fig4", "--va-min-db", "-400", "--va-max-db", "-399", "--va-step-db", "1"),
    ], ids=["finite-and-eps", "no-finite", "no-eps", "no-transmissions", "fig3-custom",
            "undefined"])
    def test_csv_rows_are_the_json_rows_formatted(self, capsys, argv):
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        rows = [{key: _format_cell(value) for key, value in row.items()}
                for row in json.loads(out)]
        table = list(csv.DictReader(io.StringIO(text)))
        assert rows == table
        assert len(text.splitlines()) == len(rows) + 1


class TestModulationGrid:
    def test_end_not_on_a_step_is_not_passed(self):
        assert _db_grid(0.0, 1.0, 0.6) == [0.0, 0.6]

    def test_end_on_a_step_is_kept_despite_rounding(self):
        assert len(_db_grid(0.0, 0.3, 0.1)) == 4
        assert _db_grid(-20.0, 10.0, 0.25)[-1] == 10.0

    def test_sweep_stops_at_last_step_within_range(self, capsys, tmp_path):
        target = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "fig2", "--transmissions", "--va-min-db", "0",
                         "--va-max-db", "1", "--va-step-db", "0.6", "--out", str(target))
        assert code == 0
        assert [float(r["v_a_db"]) for r in read_csv(target)] == [0.0, 0.6]


class TestModulationGridBounds:
    @pytest.mark.parametrize("flag", ["--va-min-db", "--va-max-db", "--va-step-db"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_bound_names_its_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "fig2", f"{flag}={value}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and flag in err

    def test_point_limit(self):
        assert len(_db_grid(0.0, cli.MAX_GRID_POINTS - 1.0, 1.0)) == cli.MAX_GRID_POINTS
        with pytest.raises(ValueError, match="points"):
            _db_grid(0.0, float(cli.MAX_GRID_POINTS), 1.0)
        with pytest.raises(ValueError, match="points"):
            _db_grid(-1e308, 1e308, 1.0)  # the span overflows to inf

    def test_grid_beyond_the_largest_float_rejected(self, capsys, tmp_path):
        target = tmp_path / "fig2.csv"
        for out_flags in ([], ["--out", str(target)]):
            code, out, err = run(capsys, "fig2", "--va-max-db", "4000", *out_flags)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and "--va-max-db" in err
            assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_grid_over_the_limit_rejected(self, capsys, monkeypatch):
        # A lowered limit keeps the test small even where the limit is not enforced.
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 10)
        code, out, err = run(capsys, "fig2", "--transmissions", "--va-min-db", "0",
                             "--va-max-db", "10", "--va-step-db", "1")
        assert code == 1
        assert out == ""
        assert "points" in err


class TestNegativeValues:
    """A negative number with an exponent, or -inf, is a flag's value, not an option."""

    GRID = ("--va-max-db", "-9", "--va-step-db", "0.5")

    @pytest.mark.parametrize("value", ["-1e1", "-1E+1", "-100e-1", "-10.", "-.1e2"])
    def test_grid_start(self, capsys, value):
        code, out, err = run(capsys, "fig2", "--va-min-db", value, *self.GRID)
        assert (code, err) == (0, "")
        assert out == run(capsys, "fig2", "--va-min-db", "-10", *self.GRID)[1]
        assert out == run(capsys, "fig2", f"--va-min-db={value}", *self.GRID)[1]

    @pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity"])
    def test_infinite_grid_end_names_its_flag(self, capsys, value):
        code, out, err = run(capsys, "fig2", "--va-max-db", value)
        assert (code, out) == (1, "")
        assert err == "error: --va-max-db must be finite, got -inf\n"

    def test_tolerance(self, capsys, tmp_path):
        path = tmp_path / "vacuum.json"
        path.write_text("[[1, 0], [0, 1]]", encoding="utf-8")
        for argv in (("--tol", "-1e-300"), ("--tol=-1e-300",)):
            code, out, err = run(capsys, "validate", str(path), *argv)
            assert (code, out) == (1, "")
            assert err == "error: tol must lie in [0, 1), got -1e-300\n"

    def test_list_value(self, capsys):
        code, out, err = run(capsys, "fig4", "--eps", "0", "-1e-3")
        assert (code, out) == (1, "")
        assert err == "error: epsilon must be finite and >= 0, got -0.001\n"


class TestFormatFlag:
    @pytest.mark.parametrize("command", ["report", "emulate", "validate"])
    def test_rejected_where_no_rows_are_emitted(self, capsys, tmp_path, command):
        matrix = tmp_path / "vac.json"
        matrix.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        extra = {"report": [], "validate": [str(matrix)],
                 "emulate": ["--n-samples", "10", "--out", str(tmp_path / "run")]}[command]
        code, out, _ = run(capsys, command, *extra, "--format", "csv")
        assert code == 1
        assert out == ""


class TestEmulate:
    def test_pipeline_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        code, out, _ = run(capsys, "emulate", "--vr", "0.5", "--va", "0.5",
                           "--eta", "0.58", "--n-samples", "20000", "--seed", "7",
                           "--out", prefix)
        assert code == 0
        assert "sigma" in out
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert list(report) == REPORT_KEYS
        assert report["chi_e"] < 0.05
        recon = json.loads((tmp_path / "run_reconstruction.json").read_text())
        assert np.asarray(recon["matrix"]).shape == (5, 5)
        assert recon["n_samples"] == 20000
        samples = (tmp_path / "run_samples.csv").read_text().splitlines()
        assert samples[0] == "x_a,x_b,p_b,x_e,p_e"
        assert len(samples) == 20001

    def test_tiny_run_still_succeeds(self, capsys, tmp_path):
        code, out, _ = run(capsys, "emulate", "--vr", "0.5", "--va", "0.5",
                           "--eta", "0.58", "--n-samples", "10", "--seed", "3",
                           "--out", str(tmp_path / "tiny"))
        assert code == 0

    def test_skipped_evaluation_writes_its_error(self, capsys, tmp_path):
        code, out, _ = run(capsys, "emulate", "--vr", "0.5", "--va", "0.5",
                           "--eta", "0.58", "--n-samples", "10", "--seed", "3",
                           "--out", str(tmp_path / "tiny"))
        assert code == 0
        text = (tmp_path / "tiny_report.json").read_text(encoding="utf-8")
        message = json.loads(text)["error"]
        assert message.startswith("reconstructed matrix is statistically unphysical")
        assert text == json.dumps({"error": message}, indent=2)
        assert out.endswith("\n")
        lines = out.splitlines()
        assert lines[0].split() == ["entry", "data", "expected", "std_err", "sigma"]
        assert len(lines) == 17
        assert lines[-1] == f"security evaluation skipped: {message}"

    @pytest.mark.parametrize("n_samples", ["2", "3"])
    def test_rank_deficient_reconstruction_is_a_skipped_evaluation(self, capsys, tmp_path,
                                                                   n_samples):
        # fewer records than moments: the state given x_a is not positive definite
        code, out, _ = run(capsys, "emulate", "--vr", "0.5", "--va", "0.5",
                           "--eta", "0.58", "--n-samples", n_samples, "--seed", "3",
                           "--out", str(tmp_path / "tiny"))
        assert code == 0
        text = (tmp_path / "tiny_report.json").read_text(encoding="utf-8")
        message = json.loads(text)["error"]
        # the eigenvalue printed after the prefix depends on LAPACK
        assert message.startswith("reconstructed matrix is statistically unphysical: "
                                  "covariance matrix is not positive definite")
        assert text == json.dumps({"error": message}, indent=2)
        lines = out.splitlines()
        assert len(lines) == 17
        assert lines[-1] == f"security evaluation skipped: {message}"

    @pytest.mark.parametrize("va", ["1e-300", "1e-320"])
    def test_zero_standard_error_prints_a_nan_sigma(self, capsys, tmp_path, va):
        # x_a's squared samples underflow to 0, and so does the error bar of its variance
        code, out, _ = run(capsys, "emulate", "--va", va, "--n-samples", "100",
                           "--out", str(tmp_path / "tiny"))
        assert code == 0
        row = out.splitlines()[1]
        assert row.startswith("(0,0) ") and row.endswith(" nan")
        assert "error" in json.loads((tmp_path / "tiny_report.json").read_text(encoding="utf-8"))

    def test_deterministic_given_seed(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (a, b):
            run(capsys, "emulate", "--vr", "0.5", "--va", "0.5", "--eta", "0.58",
                "--n-samples", "5000", "--seed", "42", "--out", prefix)
        assert (tmp_path / "a_samples.csv").read_bytes() == (tmp_path / "b_samples.csv").read_bytes()

    @pytest.mark.parametrize("argv", [["--vr", "1"], ["--va", "0"]])
    def test_zero_modulation_rejected_before_drawing(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "generate_calibrated_samples", None)  # a draw would raise
        code, out, err = run(capsys, "emulate", *argv, "--n-samples", "100")
        assert (code, out) == (1, "")
        assert "--va" in err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output(self, capsys):
        code, _, err = run(capsys, "emulate", "--n-samples", "100", "--seed", "1",
                           "--out", "/nonexistent-dir/run")
        assert code == 1
        assert "error" in err


class TestValidate:
    def test_vacuum_passes(self, capsys, tmp_path):
        path = tmp_path / "vac.json"
        path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "PASS" in out
        assert "nu_1 = 1" in out

    def test_uncertainty_violation_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[0.3, 0.0], [0.0, 0.3]]))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 2
        assert "FAIL" in out
        assert "0.3" in out

    def test_reconstruction_output_with_statistical_tolerance(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        run(capsys, "emulate", "--vr", "0.5", "--va", "0.5", "--eta", "0.58",
            "--n-samples", "50000", "--seed", "5", "--out", prefix)
        code, out, _ = run(capsys, "validate", f"{prefix}_reconstruction.json",
                           "--tol", "0.05")
        assert code == 0
        assert "PASS" in out

    def test_labelled_reconstruction_checked_given_the_label(self, capsys, tmp_path):
        # emulate accepts this run; validate checks the same (B, E) state given
        # x_a that security_from_data checks, so it must pass too
        prefix = str(tmp_path / "run")
        code, _, _ = run(capsys, "emulate", "--vr", "0.5", "--va", "0.005", "--eta", "0.5",
                         "--ideal-detectors", "--n-samples", "200000", "--seed", "1",
                         "--out", prefix)
        assert code == 0
        assert "error" not in json.loads(Path(f"{prefix}_report.json").read_text())
        code, out, _ = run(capsys, "validate", f"{prefix}_reconstruction.json",
                           "--tol", "0.05")
        assert code == 0
        assert "PASS" in out
        moments = json.loads(Path(f"{prefix}_reconstruction.json").read_text())["matrix"]
        nu_min = symplectic_eigenvalues(condition_on_label(moments))[-1]
        assert f"minimal symplectic eigenvalue {nu_min:.12g} vs bound 0.95" in out

    def test_entries_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"entries": [[1.0, 0.0], [0.0, 1.0]]}))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert "no 'matrix' key" in err

    def test_label_without_modes_names_its_shape(self, capsys, tmp_path):
        path = tmp_path / "label.json"
        path.write_text(json.dumps([[2.0]]))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert err == ("error: labelled moments must be square of odd dimension at least 3, "
                       "got shape (1, 1)\n")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "1", "2"])
    def test_tolerance_outside_0_to_1_is_an_error(self, capsys, tmp_path, tol):
        path = tmp_path / "vac.json"
        path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        code, out, err = run(capsys, "validate", str(path), f"--tol={tol}")
        assert code == 1
        assert out == ""
        assert err == f"error: tol must lie in [0, 1), got {float(tol)}\n"

    @pytest.mark.parametrize("tol, code", [("0", 0), ("0.999", 2)])
    def test_tolerance_ends(self, capsys, tmp_path, tol, code):
        # the vacuum meets the bound 1 exactly; 0.001 lies below 1 - 0.999
        path = tmp_path / "cm.json"
        variance = 1.0 if code == 0 else 0.0005
        path.write_text(json.dumps([[variance, 0.0], [0.0, variance]]))
        assert run(capsys, "validate", str(path), "--tol", tol)[0] == code

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 1

    @pytest.mark.parametrize("n_samples", ["2", "3"])
    def test_reconstruction_not_positive_definite_fails(self, capsys, tmp_path, n_samples):
        # fewer records than moments: emulate skips the evaluation as statistically
        # unphysical, and validate fails the same state with the kernel's message
        prefix = str(tmp_path / "tiny")
        assert run(capsys, "emulate", "--vr", "0.5", "--va", "0.5", "--eta", "0.58",
                   "--n-samples", n_samples, "--seed", "3", "--out", prefix)[0] == 0
        skipped = json.loads(Path(f"{prefix}_report.json").read_text(encoding="utf-8"))["error"]
        code, out, err = run(capsys, "validate", f"{prefix}_reconstruction.json",
                             "--tol", "0.05")
        assert (code, err) == (2, "")
        # the eigenvalue printed after the message's start depends on LAPACK
        assert out.startswith("FAIL: covariance matrix is not positive definite (")
        assert out.count("\n") == 1
        assert skipped == "reconstructed matrix is statistically unphysical: " + out[6:-1]

    @pytest.mark.parametrize("variance, code", [(1.0, 0), (0.3, 2)])
    def test_spectrum_is_solved_once(self, capsys, monkeypatch, tmp_path, variance, code):
        solved, spectra = [], gaussian._symplectic_spectra

        def counted(gammas):
            solved.append(len(gammas))
            return spectra(gammas)

        monkeypatch.setattr(gaussian, "_symplectic_spectra", counted)
        path = tmp_path / "cm.json"
        path.write_text(json.dumps([[variance, 0.0], [0.0, variance]]))
        assert run(capsys, "validate", str(path))[0] == code
        assert solved == [1]


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ["report", "--seed", "1"],
        ["fig2", "--seed", "1"],
        ["fig3", "--seed", "1"],
        ["fig4", "--seed", "1"],
        ["validate", "vac.json", "--seed", "1"],
        ["emulate", "--alice-p-placeholder", "50"],
    ], ids=["report", "fig2", "fig3", "fig4", "validate", "emulate"])
    def test_rejected(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        Path("vac.json").write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        code, out, _ = run(capsys, *argv, "--out", "run")
        assert code == 1
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["vac.json"]

    def test_config_keys_still_ignored(self, capsys, tmp_path):
        config = write_config(tmp_path / "cfg.json", {"seed": 3, "alice_p_placeholder": 50.0})
        reference = Path(__file__).parent.parent / "bench" / "reference" / "fig2.csv"
        code, out, _ = run(capsys, "fig2", "--config", config)
        assert code == 0
        assert out == reference.read_text(encoding="utf-8")

        runs = []
        for extra in ([], ["--config", write_config(tmp_path / "emu.json",
                                                    {"alice_p_placeholder": 50.0})]):
            prefix = str(tmp_path / f"run{len(extra)}")
            code, out, _ = run(capsys, "emulate", "--n-samples", "200", "--eta", "0.5",
                               "--out", prefix, *extra)
            files = [Path(f"{prefix}_{kind}").read_bytes()
                     for kind in ("samples.csv", "reconstruction.json", "report.json")]
            runs.append((code, out, files))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


COMMANDS = ("report", "fig2", "fig3", "fig4", "emulate", "validate")


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "{" + ",".join(COMMANDS) + "}" in out
        listed = re.findall(r"^ {4}(\w+) ", out, re.MULTILINE)
        assert listed == list(COMMANDS)

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 1
        assert out == ""
        assert "argument command: invalid choice: 'frobnicate'" in err
        assert all(repr(command) in err for command in COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_is_the_full_parsers(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert out == cli.build_parser()[1][command].format_help()

    @staticmethod
    def count_builds(monkeypatch):
        built, init = [], cli._CommandParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs["prog"])
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli._CommandParser, "__init__", counted)
        cli.build_parser.cache_clear()
        return built

    @pytest.mark.parametrize("argv", [["--help"], ["fig2"], ["fig2", "--help"], ["frobnicate"],
                                      []])
    def test_builds_the_invoked_command_alone(self, capsys, monkeypatch, argv):
        ran = []
        for command in COMMANDS:
            monkeypatch.setattr(cli, f"cmd_{command}", lambda args: ran.append(args.command) or 0)
        built = self.count_builds(monkeypatch)
        run(capsys, *argv)
        run(capsys, *argv)  # the parser, with every command, is built once per process
        assert built == [f"sqzkd {command}" for command in COMMANDS]
        assert ran == (["fig2", "fig2"] if argv == ["fig2"] else [])

    def test_unknown_words_share_the_full_parser(self, capsys, monkeypatch):
        built = self.count_builds(monkeypatch)
        run(capsys)
        for word in ("frobnicate", "FIG2", "fig", "report2", "-x", "--help", *COMMANDS):
            run(capsys, word, "--help")
            run(capsys, word + "x")
        assert built == [f"sqzkd {command}" for command in COMMANDS]
        assert cli.build_parser.cache_info().currsize == 1

    @pytest.mark.parametrize("argv", [["a", "b"], ["--bogus"], ["--out"], ["--vn", "x"]])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_parse_errors_are_the_full_parsers(self, capsys, command, argv):
        argv = [command, *argv]
        with pytest.raises(SystemExit):
            cli.build_parser()[0].parse_args(argv)
        expected = capsys.readouterr().err
        assert expected
        assert run(capsys, *argv) == (1, "", expected)

    def test_arguments_default_to_sys_argv(self, capsys, monkeypatch):
        argv = ["fig2", "--transmissions", "0.5", "--va-min-db", "-4", "--va-max-db", "-2",
                "--format", "json"]
        monkeypatch.setattr(sys, "argv", ["sqzkd", *argv])
        code = main()
        assert (code, *capsys.readouterr()) == run(capsys, *argv)
        assert code == 0


# Values a config file may give each flag; every one differs from its default.
COMMON_VALUES = {"out": "result"}
PROTOCOL_VALUES = {"vr": 0.4, "vr_db": -4.0, "va": 0.7, "va_db": -2.0, "dv": 0.1, "eta": 0.6,
                   "eps": 0.01, "vn": 0.05, "beta": 0.9}
SWEEP_VALUES = {"format": "json", "va_min_db": -4.0, "va_max_db": -1.0, "va_step_db": 0.5,
                "squeezing": 0.4, "squeezing_db": -4.0, "vn": 0.05}
SERIES_VALUES = {**SWEEP_VALUES, "transmissions": [0.3, 0.6], "dv": 0.1}
FLAG_VALUES = {
    "report": {**COMMON_VALUES, **PROTOCOL_VALUES},
    "fig2": {**COMMON_VALUES, **SERIES_VALUES},
    "fig3": {**COMMON_VALUES, **SERIES_VALUES, "beta": 0.9},
    "fig4": {**COMMON_VALUES, **SWEEP_VALUES, "eta": 0.01, "eps": [0.0, 0.01],
             "finite_n": [1e9], "n_key": 1e8, "eps_smooth": 1e-9, "eps_pa": 1e-8},
    "emulate": {**COMMON_VALUES, **PROTOCOL_VALUES, "seed": 3, "n_samples": 300,
                "eta_bob_det": 0.9, "eta_eve_det": 0.8, "ideal_detectors": True},
    "validate": {**COMMON_VALUES, "tol": 0.05},
}
# Explicit flags of every run: small grids and samples, and a lossy channel so
# that excess noise is allowed.  A flag under test is left out of them.
BASE_FLAGS = {"report": {"eta": 0.5},
              "fig2": {"va_min_db": -3.0, "va_max_db": -2.0, "va_step_db": 1.0,
                       "transmissions": [0.5]},
              "fig4": {"va_min_db": -3.0, "va_max_db": -2.0, "va_step_db": 1.0,
                       "finite_n": [1e10]},
              "emulate": {"n_samples": 200, "eta": 0.5}}
BASE_FLAGS["fig3"] = BASE_FLAGS["fig2"]


def flag_argv(key, value):
    """Command-line tokens giving ``value`` to the flag whose config key is ``key``."""
    flag = "--" + key.replace("_", "-")
    if value is True:
        return [flag]
    if isinstance(value, list):
        return [flag, *map(repr, value)]
    return [flag, value if isinstance(value, str) else repr(value)]


def write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


class TestConfigParity:
    @pytest.fixture
    def matrix(self, tmp_path):
        path = tmp_path / "vac.json"
        path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        return str(path)

    def outputs(self, capsys, monkeypatch, workdir, argv):
        """Exit code, standard output and the files a run leaves in ``workdir``."""
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code, out, _ = run(capsys, *argv)
        return code, out, {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}

    def test_every_flag_has_a_value(self):
        commands = cli.build_parser()[1]
        assert set(commands) == set(FLAG_VALUES)
        for name, parser in commands.items():
            assert set(parser.options) - {"config"} == set(FLAG_VALUES[name])

    @pytest.mark.parametrize("command", sorted(FLAG_VALUES))
    def test_keys_of_other_commands_are_ignored(self, capsys, monkeypatch, tmp_path, matrix,
                                                command):
        # each command's parser knows its own flags alone; the others' keys stay unknown to it
        others = {key: value for name, values in FLAG_VALUES.items() if name != command
                  for key, value in values.items() if key not in FLAG_VALUES[command]}
        assert others
        argv = [command] + ([matrix] if command == "validate" else [])
        for key, value in BASE_FLAGS.get(command, {}).items():
            argv += flag_argv(key, value)
        config = write_config(tmp_path / "cfg.json", others)
        by_config = self.outputs(capsys, monkeypatch, tmp_path / "config",
                                 argv + ["--config", config])
        assert by_config == self.outputs(capsys, monkeypatch, tmp_path / "plain", argv)
        assert by_config[0] in (0, 2)

    @pytest.mark.parametrize("command", sorted(FLAG_VALUES))
    def test_config_leaks_into_no_later_run(self, capsys, monkeypatch, tmp_path, matrix,
                                            command):
        # every parse shares the command's parser, which no config value may change
        argv = [command] + ([matrix] if command == "validate" else [])
        for key, value in BASE_FLAGS.get(command, {}).items():
            argv += flag_argv(key, value)
        config = write_config(tmp_path / "cfg.json", FLAG_VALUES[command])
        before = self.outputs(capsys, monkeypatch, tmp_path / "before", argv)
        by_config = self.outputs(capsys, monkeypatch, tmp_path / "config",
                                 argv + ["--config", config])
        assert by_config != before
        assert self.outputs(capsys, monkeypatch, tmp_path / "after", argv) == before
        assert before[0] in (0, 2)

    @pytest.mark.parametrize("command,key", [(c, k) for c, values in FLAG_VALUES.items()
                                             for k in values])
    def test_config_value_equals_flag(self, capsys, monkeypatch, tmp_path, matrix, command, key):
        value = FLAG_VALUES[command][key]
        base = [command] + ([matrix] if command == "validate" else [])
        for other, fixed in BASE_FLAGS.get(command, {}).items():
            if other != key:
                base += flag_argv(other, fixed)
        config = write_config(tmp_path / "cfg.json", {key: value})
        by_config = self.outputs(capsys, monkeypatch, tmp_path / "config",
                                 base + ["--config", config])
        by_flag = self.outputs(capsys, monkeypatch, tmp_path / "flag",
                               base + flag_argv(key, value))
        assert by_config == by_flag
        assert by_config[0] in (0, 2)


class TestConfigPrecedence:
    POINT = ["--va", "0.5", "--eta", "0.5"]

    def report(self, capsys, *argv):
        code, out, err = run(capsys, "report", *argv)
        assert code in (0, 2), err
        return out

    def test_explicit_db_flag_beats_config_linear(self, capsys, tmp_path):
        config = write_config(tmp_path / "cfg.json", {"vr": 0.25})
        out = self.report(capsys, "--config", config, "--vr-db", "-3", *self.POINT)
        assert out == self.report(capsys, "--vr-db", "-3", *self.POINT)
        assert out != self.report(capsys, "--vr", "0.25", *self.POINT)

    @pytest.mark.parametrize("config", [{"vr": 0.4, "vr_db": -6.0}, {"vr_db": -6.0, "vr": 0.4}])
    def test_config_linear_beats_config_db(self, capsys, tmp_path, config):
        path = write_config(tmp_path / "cfg.json", config)
        out = self.report(capsys, "--config", path, *self.POINT)
        assert out == self.report(capsys, "--vr", "0.4", *self.POINT)

    def test_keys_of_other_commands_are_ignored(self, capsys, tmp_path):
        config = write_config(tmp_path / "cfg.json", {
            "transmissions": [0.5], "n_samples": 10, "tol": 1.0, "format": "json",
            "finite_n": 3, "matrix": 5, "func": "cmd_fig2", "command": "fig2",
            "config": ["/nonexistent/cfg.json"]})
        assert self.report(capsys, "--config", config) == self.report(capsys)


class TestConfigShape:
    @pytest.mark.parametrize("command,key,value", [
        ("fig4", "eps", 0.035),
        ("fig2", "transmissions", 0.5),
        ("report", "eta", [0.5]),
        ("report", "eta", None),
        ("report", "vr_db", "-3"),
        ("fig2", "format", "xml"),
        ("emulate", "ideal_detectors", "yes"),
        ("report", "va_db", 4000),
    ])
    def test_wrong_value_names_its_key(self, capsys, tmp_path, command, key, value):
        path = write_config(tmp_path / "cfg.json", {key: value})
        code, out, err = run(capsys, command, "--config", path,
                             "--out", str(tmp_path / "run"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and repr(key) in err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_integer_flags_take_only_json_integers(self, capsys, tmp_path):
        # int() would run these as 2000 records and seed 3; the same values on
        # the command line are "invalid int value"
        path = write_config(tmp_path / "cfg.json", {"n_samples": 2000.9, "seed": 3.7})
        code, out, err = run(capsys, "emulate", "--config", path, "--out", str(tmp_path / "run"))
        assert code == 1
        assert out == ""
        assert "must be an integer" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]
        for flag, value in (("--n-samples", "2000.9"), ("--seed", "3.7")):
            code, _, _ = run(capsys, "emulate", flag, value, "--out", str(tmp_path / "run"))
            assert code == 1

    def test_deeply_nested_config_is_an_error(self, capsys, tmp_path):
        # json.load gives up on this with RecursionError
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "report", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_db_flag_out_of_range(self, capsys):
        code, out, err = run(capsys, "report", "--va-db", "4000")
        assert code == 1
        assert out == ""
        assert "--va-db" in err


class TestHelp:
    @pytest.mark.parametrize("command", sorted(FLAG_VALUES))
    def test_defaults_shown(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        text = " ".join(out.split())
        parser = cli.build_parser()[1][command]
        for key, action in parser.options.items():
            if action.default is not None and action.nargs != 0 and key == action.dest:
                assert f"(default {action.default})" in text, key


class TestUnphysicalMessage:
    def test_eigenvalue_printed_below_the_bound(self, capsys):
        code, _, err = run(capsys, "report", "--eta", "0.5", "--eps", "0.1",
                           "--vr", "1e-9", "--va", "1")
        assert code == 1
        found = re.search(r"symplectic eigenvalue (\S+) is below 1 beyond the tolerance (\S+)",
                          err)
        assert found is not None, err
        assert float(found.group(1)) < 1.0 - float(found.group(2))


class TestOverflow:
    @pytest.mark.parametrize("argv", [
        ["--vr", "0.5", "--va", "1e300", "--eta", "0.5", "--dv", "1e300"],
        ["--vr", "1e-320", "--va", "0.5", "--eta", "0.5"],
        ["--vr", "0.5", "--va", "1e200", "--vn", "1e200", "--eta", "0.5"],
    ], ids=["product", "anti-squeezing", "conditional"])
    def test_report_exits_1(self, capsys, argv):
        code, out, err = run(capsys, "report", *argv)
        assert code == 1
        assert out == ""
        assert "not finite" in err

    def test_noisy_report_exits_1_without_a_warning(self, capsys):
        # the stacked solve of one noisy point overflows inside numpy
        code, out, err = run(capsys, "report", "--vr", "0.5", "--va", "1e300", "--eta", "0.5",
                             "--eps", "0.05")
        assert code == 1
        assert out == ""
        assert err == "error: covariance matrix entries must be finite\n"

    def test_lossless_report_without_modulation_exits_1(self, capsys):
        # I_AB is 0 here; the joint state of the quantum mutual information,
        # with a p_r variance of 1e300, is the first thing to fail
        code, out, err = run(capsys, "report", "--vr", "1e-300", "--va", "0", "--eta", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: covariance matrix is not positive definite")
        assert err.count("\n") == 1


class TestFailingSweep:
    def test_first_failing_point_reported_and_nothing_written(self, capsys, tmp_path,
                                                              monkeypatch):
        regions = []

        def recorded(base, grid, *rest):
            regions.append((base, grid))
            return finite_size.security_region(base, grid, *rest)

        monkeypatch.setattr(cli, "security_region", recorded)
        target = tmp_path / "fig4.csv"
        code, out, err = run(capsys, "fig4", "--eta", "0.999999", "--eps", "0.035",
                             "--out", str(target))
        assert code == 1
        assert out == ""
        assert not target.exists()
        with pytest.raises(ValueError) as solved:
            finite_size.security_region(*regions[-1])
        assert err == f"error: {solved.value}\n"
        assert err.startswith("error: symplectic eigenvalue ")


class TestOneGridLoop:
    """fig2 and fig3 cells are the scalar model's floats, computed by the series functions."""

    GRID = ("--va-min-db", "-6", "--va-max-db", "3", "--va-step-db", "0.5")

    def rows(self, capsys, *argv):
        code, out, _ = run(capsys, *argv, *self.GRID, "--format", "json")
        assert code == 0
        return json.loads(out)

    def points(self, rows, **fixed):
        return [ProtocolParams(v_r=0.4 if r["protocol"] == "squeezed" else 1.0,
                               v_a=r["v_a_snu"], eta=r["eta"],
                               delta_v=0.2 if r["protocol"] == "squeezed" else 0.0,
                               v_n=0.05, **fixed) for r in rows]

    def test_fig2_is_holevo_eb(self, capsys):
        rows = self.rows(capsys, "fig2", "--squeezing", "0.4", "--dv", "0.2", "--vn", "0.05")
        assert [r["chi_e_bits"] for r in rows] == \
            [protocol.holevo_eb(p) for p in self.points(rows)]

    def test_fig3_is_key_rate_asymptotic(self, capsys):
        rows = self.rows(capsys, "fig3", "--squeezing", "0.4", "--dv", "0.2", "--vn", "0.05",
                         "--beta", "0.9")
        assert [r["key_rate_bits"] for r in rows] == \
            [protocol.key_rate_asymptotic(p) for p in self.points(rows, beta=0.9)]

    def test_fig2_beyond_large_nu_is_holevo_eb(self, capsys):
        # up to 45 dB Eve's symplectic eigenvalue passes LARGE_NU, where
        # entropy_g changes form
        code, out, _ = run(capsys, "fig2", "--va-max-db", "45", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        points = [ProtocolParams(v_r=0.5 if r["protocol"] == "squeezed" else 1.0,
                                 v_a=r["v_a_snu"], eta=r["eta"]) for r in rows]
        nus = [math.sqrt(protocol._lossy_determinants(p, [p.v_a])[0][0]) for p in points]
        assert min(nus) < LARGE_NU < max(nus)
        assert [r["chi_e_bits"].hex() for r in rows] == \
            [protocol.holevo_eb(p).hex() for p in points]

    @pytest.mark.parametrize("command", ["fig2", "fig3", "fig4"])
    def test_default_figure_matches_reference(self, capsys, command):
        reference = Path(__file__).parent.parent / "bench" / "reference" / f"{command}.csv"
        code, out, _ = run(capsys, command)
        assert code == 0
        assert out == reference.read_text(encoding="utf-8")


class TestRepeatedCalls:
    """main() called again in one process: no call changes a later one."""

    def test_config_leaks_into_no_later_fig2(self, capsys, tmp_path):
        config = write_config(tmp_path / "cfg.json", {"va_step_db": 1.0})
        target = tmp_path / "fig2.csv"
        reference = (Path(__file__).parent.parent / "bench" / "reference"
                     / "fig2.csv").read_bytes()
        assert run(capsys, "fig2", "--config", config, "--out", str(target))[0] == 0
        assert target.read_bytes() != reference
        assert run(capsys, "fig2", "--out", str(target))[0] == 0
        assert target.read_bytes() == reference

    def test_dispatches_to_the_command_bound_at_call_time(self, capsys, monkeypatch, tmp_path):
        # A wrapper installed between two calls, and removed again, must be
        # seen by exactly the calls made while it is in place.
        argv = ("fig2", "--out", str(tmp_path / "fig2.csv"))
        assert run(capsys, *argv)[0] == 0
        calls, command = [], cli.cmd_fig2

        def wrapped(args):
            calls.append(args.command)
            return command(args)

        monkeypatch.setattr(cli, "cmd_fig2", wrapped)
        assert run(capsys, *argv)[0] == 0
        assert calls == ["fig2"]
        monkeypatch.undo()
        assert run(capsys, *argv)[0] == 0
        assert calls == ["fig2"]

    def test_calls_the_command_patched_after_its_parser_was_cached(self, capsys, monkeypatch):
        assert run(capsys, "fig2", "--help")[0] == 0
        hits, seen = cli.build_parser.cache_info().hits, []
        monkeypatch.setattr(cli, "cmd_fig2", lambda args: seen.append(vars(args)) or 0)
        assert run(capsys, "fig2", "--transmissions", "0.5") == (0, "", "")
        assert cli.build_parser.cache_info().hits == hits + 1
        assert [(v["command"], v["transmissions"], "func" in v) for v in seen] == \
            [("fig2", [0.5], False)]


class TestStartsWithoutNumpy:
    """The parser, --help, fig2 and fig3 run in a fresh interpreter that never imports numpy."""

    ROOT = Path(__file__).resolve().parent.parent

    def run_fresh(self, code, cwd):
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c",
             code + "\nimport sys\nassert 'numpy' not in sys.modules, 'numpy was imported'"],
            env={**os.environ, "PYTHONPATH": str(self.ROOT / "src")}, cwd=cwd,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_import_and_parser(self, tmp_path):
        self.run_fresh("import sqzkd.cli\nsqzkd.cli.build_parser()", tmp_path)

    def test_help(self, tmp_path):
        out = self.run_fresh("from sqzkd.cli import main\nassert main(['--help']) == 0", tmp_path)
        assert out.startswith("usage: sqzkd")

    @pytest.mark.parametrize("command", ["fig2", "fig3"])
    def test_figure_matches_reference(self, tmp_path, command):
        self.run_fresh(f"from sqzkd.cli import main\n"
                       f"assert main([{command!r}, '--out', 'out.csv']) == 0", tmp_path)
        reference = self.ROOT / "bench" / "reference" / f"{command}.csv"
        assert (tmp_path / "out.csv").read_bytes() == reference.read_bytes()
