"""Run one workload in this process for a fixed time and write its raw results.

run.py starts this script in a fresh interpreter for every run, so each
workload's memory peak and import state are its own.  A closed loop with
one client: the next op starts when the previous one has been checked.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --work-dir DIR --result FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (imports below need src on the path)

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Failure messages kept in the result; every failure is still counted.
MAX_FAILURES_KEPT = 20


def run(workload, seconds: float, tracer: Tracer | None) -> dict:
    wall_s, op_s, references, failures = [], [], [], []
    failed = items = cli_bytes = 0
    deadline = perf_counter() + seconds
    index = 0
    reference = speed.reference_s()
    while index == 0 or perf_counter() < deadline:
        job = workload.inputs(index)
        if tracer is not None:
            tracer.begin_op(index)
        start = perf_counter()
        try:
            output = workload.run(job)
            raised = None
        except Exception:  # an op that raises is a failed op; keep measuring
            raised = traceback.format_exc(limit=4)
        wall_s.append(perf_counter() - start)
        if tracer is not None:
            tracer.end_op()
        # each op is scaled by the machine speed measured on either side of it
        after = speed.reference_s()
        references.append(0.5 * (reference + after))
        reference = after
        op_s.append(speed.scaled(wall_s[-1], references[-1])
                    if workload.SCALE_OP_TIMES else wall_s[-1])
        if raised is None:
            verdict = workload.check(job, output)
        else:
            verdict = workloads.Verdict([f"raised: {raised}"], 0, 0)
        items += verdict.items
        cli_bytes += verdict.cli_bytes
        if verdict.errors:
            failed += 1
            if len(failures) < MAX_FAILURES_KEPT:
                failures.append({"op": index, "errors": verdict.errors})
        workload.cleanup(job)
        index += 1
    return {"op_s": op_s, "wall_s": wall_s, "reference_s": references, "attempted": index,
            "failed": failed, "failures": failures, "items": items, "cli_bytes": cli_bytes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    result = run(workload, args.seconds, tracer)
    result.update({
        "workload": args.workload,
        "items_name": workload.items_name,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "numpy": np.__version__,
    })
    if tracer is not None:
        tracer.uninstall()
        # span times get the factor the run's op times got
        scale = statistics.median(o / w for o, w in zip(result["op_s"], result["wall_s"]))
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            per_layer = json.load(fh)["per_layer"]
        result["per_layer"] = tracer.metrics(per_layer, result["cli_bytes"], scale)
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
