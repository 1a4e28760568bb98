"""sqzkd benchmark: one workload, timed end to end or traced per layer.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload untraced in a fresh interpreter for S
seconds, measures set-up time around it, and reports the end-to-end metrics.
``--trace 1`` runs it untraced and then traced for S/2 seconds each, in two
fresh interpreters, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, provenance and failure messages.
Spans and the full result go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One thread: the numerical libraries must not spread work over the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Fresh interpreters timed for setup_s, half before and half after the
# workload.  One untimed start first fills the bytecode cache.
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 20
# Time a worker may take beyond its measuring time: the last op, the checks
# and writing spans.
WORKER_GRACE_S = 60


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_times(count: int) -> list[tuple[float, float]]:
    """(set-up, reference kernel) wall times of fresh interpreters, in seconds.

    Set-up is importing sqzkd.cli and building its parser.
    """
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, str(BENCH_DIR / "speed.py")], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"importing sqzkd.cli failed:\n{done.stderr}")
        setup_s, reference = (float(v) for v in done.stdout.split())
        times.append((setup_s, reference))
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path,
               spans: Path | None = None) -> dict:
    result = work_dir / f"result-trace{int(trace)}.json"
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
            "--work-dir", str(work_dir), "--result", str(result)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    try:
        done = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish in {exc.timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload} worker exited {done.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(spec: list[dict], setup: list[tuple[float, float]], run: dict) -> dict:
    """The metrics named in ``spec``, BENCHMARK.json's ``end_to_end`` list."""
    op_s = run["op_s"]
    setup_s = statistics.median(speed.scaled(*pair) for pair in setup)
    values = {"setup_s": setup_s, "op_s.p50": statistics.median(op_s),
              "op_s.p90": p90(op_s), "work_per_s": run["items"] / sum(op_s),
              "peak_rss_mb": run["peak_rss_mb"]}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def git_commit() -> str | None:
    """Commit of the checkout, or None when it is not a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqzkd").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, numpy_version: str) -> dict:
    return {"seed": seed, "git_commit": git_commit(), "src_sha256": source_digest(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version}


def report_lines(args, runs: list[dict], metrics: dict) -> list[str]:
    plain = runs[0]
    lines = [f"# {args.workload} seed={args.seed} trace={args.trace} "
             f"ops={[r['attempted'] for r in runs]}"]
    for name, metric in metrics.items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        items_name = plain["items_name"]
        lines.append(f"{items_name} {metrics['work_per_s']['value']:.6g} "
                     f"{items_name.split('_per_')[0]}/s")
        beyond = sum(v > metrics["op_s.p90"]["value"] for v in plain["op_s"])
        lines.append(f"# op_s over {len(plain['op_s'])} ops; {beyond} beyond op_s.p90")
        wall = {"setup_s": statistics.median(s for s, _ in plain["setup"]),
                "op_s.p50": statistics.median(plain["wall_s"]),
                "op_s.p90": p90(plain["wall_s"])}
        lines.append("# unscaled wall time: " + ", ".join(
            f"{name} {value:.6g} s" for name, value in wall.items()))
        lines.append(f"# machine speed: reference kernel {speed.REFERENCE_S:.3g} s idle, "
                     f"median {statistics.median(plain['reference_s']):.3g} s in this run")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines.append(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    # ops of one configuration fail with the same messages; print each once
    first_op: dict[str, int] = {}
    for r in runs:
        for failure in r["failures"]:
            for error in failure["errors"]:
                first_op.setdefault(error, failure["op"])
    lines += [f"# failed (first at op {op}): {error}" for error, op in first_op.items()]
    return lines


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "sqzkd" / "cli.py").is_file():
        print(f"error: no sqzkd sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            half = args.seconds / 2
            runs = [run_worker(args.workload, args.seed, half, False, work_dir),
                    run_worker(args.workload, args.seed, half, True, work_dir,
                               spans=out_dir / f"spans-{tag}.jsonl")]
            metrics = dict(runs[1]["per_layer"])
            overhead = statistics.median(runs[1]["op_s"]) / statistics.median(runs[0]["op_s"])
            metrics["trace.overhead_frac"] = {"value": overhead - 1.0, "unit": "ratio"}
        else:
            setup = setup_times(SETUP_REPEATS // 2 + 1)[1:]
            runs = [run_worker(args.workload, args.seed, args.seconds, False, work_dir)]
            setup += setup_times(SETUP_REPEATS - len(setup))
            metrics = end_to_end(spec["end_to_end"], setup, runs[0])
            runs[0]["setup"] = setup
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {"provenance": provenance(args.seed, runs[0]["numpy"]),
              "workload": args.workload, "seconds": args.seconds, "runs": runs, **summary}
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in report_lines(args, runs, metrics):
        print(line)
    print("# provenance " + json.dumps(record["provenance"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
