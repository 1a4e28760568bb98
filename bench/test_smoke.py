"""Smoke test of the benchmark's own code at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Catches a broken harness without a full run: BENCHMARK.json is well
formed, each workload completes and checks one op, the tracer wraps and
restores every name, and run.py prints the result line or refuses to run
without sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import sqzkd  # noqa: E402
from sqzkd import finite_size, protocol  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def work_dir():
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_analytic_sweep_op_passes_its_checks(work_dir):
    workload = workloads.AnalyticSweep(seed=0, work_dir=str(work_dir))
    job = workload.inputs(0)
    verdict = workload.check(job, workload.run(job))
    assert verdict.errors == []
    assert verdict.items == 488 + 610 + 212
    workload.cleanup(job)
    assert not any(work_dir.iterdir())


def test_analytic_sweep_detects_leakage_at_decoupling(work_dir):
    workload = workloads.AnalyticSweep(seed=0, work_dir=str(work_dir))
    job = workload.inputs(0)
    codes = workload.run(job)
    path = Path(workload.paths["fig2"])
    row = "squeezed,0.58,-3.01029995664,0.5,0\n"
    path.write_text(path.read_text().replace(row, row.replace(",0\n", ",1e-12\n")))
    errors = workload.check(job, codes).errors
    assert any("fig2 CSV differs" in e for e in errors)
    assert any("fig2 eta=0.58: chi_E = 1e-12" in e for e in errors)


def test_link_design_is_seeded_and_passes(work_dir):
    first = workloads.LinkDesign(seed=7, work_dir=str(work_dir))
    second = workloads.LinkDesign(seed=7, work_dir=str(work_dir))
    links = [first.inputs(i) for i in range(3)]
    assert links == [second.inputs(i) for i in range(3)]
    for job in links:
        lossy, noisy = job
        assert lossy.epsilon == 0.0 and 0.005 <= noisy.epsilon <= 0.1
        assert first.check(job, first.run(job)).errors == []


def test_emulate_pipeline_is_reproducible_at_small_n(work_dir):
    workload = workloads.EmulatePipeline(seed=3, work_dir=str(work_dir), n_samples=2000)
    verdicts = []
    for index in range(3):
        job = workload.inputs(index)
        assert job[0] == "lossy"
        verdicts.append(workload.check(job, workload.run(job)))
        workload.cleanup(job)
    assert all(v.items == 2000 and v.cli_bytes > 0 for v in verdicts)
    assert not any("differs" in e or "exited" in e for v in verdicts for e in v.errors)
    assert not any(work_dir.iterdir())


class NoisyPipeline(workloads.EmulatePipeline):
    CONFIG = workloads.EmulatePipeline.NOISY


# The noisy configuration is left out of the benchmark because its ops fail:
# the emulator never samples the eavesdropper's second mode, and its vacuum
# calibration keeps the channel's excess noise.  Strict: once the emulator is
# fixed this test passes, fails the suite, and the configuration can rejoin
# the workload.
@pytest.mark.parametrize("pipeline", [
    workloads.EmulatePipeline,
    pytest.param(NoisyPipeline, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="known emulator defect: data chi_E far below the model with excess noise")),
])
def test_emulate_pipeline_matches_model_at_full_n(pipeline, work_dir):
    workload = pipeline(seed=1, work_dir=str(work_dir))
    job = workload.inputs(0)
    verdict = workload.check(job, workload.run(job))
    workload.cleanup(job)
    assert verdict.errors == []


def test_tracer_wraps_every_binding_and_restores(work_dir):
    original = protocol.holevo_eb
    trace = tracing.Tracer()
    trace.install()
    try:
        for owner in (protocol, finite_size, sqzkd):
            assert owner.holevo_eb is not original
            assert owner.holevo_eb.__wrapped__ is original
        workload = workloads.LinkDesign(seed=1, work_dir=str(work_dir))
        job = workload.inputs(0)
        protocol.holevo_eb(job[0])  # outside an op: not recorded
        assert trace.counts["protocol.holevo_eb.calls"] == 0
        trace.begin_op(0)
        designs = workload.run(job)
        trace.end_op()
        assert workload.check(job, designs).errors == []
    finally:
        trace.uninstall()
    for owner in (protocol, finite_size, sqzkd):
        assert owner.holevo_eb is original
    metrics = trace.metrics(SPEC["per_layer"], cli_bytes=0, time_scale=1.0)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["protocol.holevo_eb.calls_lossy"] > 0
    assert value["protocol.holevo_eb.calls_noisy"] > 0
    assert value["protocol.optimal_modulation.rate_evals"] > 0
    assert value["gaussian.CovarianceMatrix.constructions"] > 0
    assert 0 < value["protocol.holevo_eb.points_per_call"] <= 1
    assert value["protocol.self_s"] > 0
    assert all(op == 0 for *_, op in trace.spans)
    ids = {span[0] for span in trace.spans}
    assert all(parent is None or parent in ids for *_, parent, _ in trace.spans)


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_result_line(trace, section):
    done = bench("--workload", "link-design", "--seed", "5", "--seconds", "0.5",
                 "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "# unscaled wall time: setup_s " in done.stdout


def test_run_refuses_without_sources(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(BENCH_DIR, work_dir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "link-design", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=work_dir)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
