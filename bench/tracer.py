"""Spans and per-layer counters recorded from outside the sqzkd package.

The tracer wraps every public function of the five layers (``sqzkd.gaussian``,
``sqzkd.protocol``, ``sqzkd.finite_size``, ``sqzkd.emulator`` and
``sqzkd.cli``) plus two methods on their classes.  The modules import each
other's names directly (``from .gaussian import symplectic_eigenvalues``), so
a wrapper replaces the function under every name that is bound to it in any
``sqzkd`` module, not only in the module that defines it.

Spans are recorded only between ``begin_op`` and ``end_op``; outside an
operation every wrapper calls straight through, so the benchmark's own
correctness checks are not counted.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("gaussian", "protocol", "finite_size", "emulator", "cli")

# Spans kept in memory for the span file; the per-layer metrics are
# aggregated online and do not depend on this cap.
MAX_SPANS = 100_000


class Tracer:
    """Span recorder and counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.ops = 0
        self.op: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._op_points: set = set()
        self._distinct_points = 0
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_points = set()

    def end_op(self) -> None:
        self._distinct_points += len(self._op_points)
        self.ops += 1
        self.op = None

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, parent, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, parent, start, child_s = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def _parent_name(self) -> str | None:
        """Name of the span that called the innermost open span."""
        return self._stack[-2][1] if len(self._stack) > 1 else None

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """Return ``fn`` recording a span named ``name`` while an op is open.

        ``on_result(args, kwargs, result)`` and ``on_error(exc)`` run inside
        the span, so their cost lands in the wrapped function, not its caller.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, kwargs, result)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                tracer._exit(frame)
                raise
            tracer._exit(frame)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions under every name bound to them."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        hooks = self._hooks()
        importlib.import_module("sqzkd")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sqzkd" or n.startswith("sqzkd."))]
        for layer in LAYERS:
            module = importlib.import_module(f"sqzkd.{layer}")
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, *hooks.get(name, (None, None)))
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            self._replace(owner, bound, wrapped)

        gaussian = sys.modules["sqzkd.gaussian"]
        emulator = sys.modules["sqzkd.emulator"]
        post_init = gaussian.CovarianceMatrix.__post_init__
        tracer = self

        @functools.wraps(post_init)
        def counted_post_init(cm):
            if tracer.op is not None:
                tracer.counts["gaussian.CovarianceMatrix.constructions"] += 1
            post_init(cm)

        self._replace(gaussian.CovarianceMatrix, "__post_init__", counted_post_init)
        self._replace(emulator.SampleBatch, "write_csv", self.wrap(
            "emulator.SampleBatch.write_csv", emulator.SampleBatch.write_csv,
            *hooks["emulator.SampleBatch.write_csv"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _hooks(self) -> dict:
        """Counters taken at layer boundaries, keyed by span name."""
        counts = self.counts
        unphysical = importlib.import_module("sqzkd.errors").UnphysicalStateError

        def holevo(args, kwargs, result):
            p = args[0] if args else kwargs["p"]
            kind = "lossy" if p.epsilon == 0.0 else "noisy"
            counts["protocol.holevo_eb.calls_" + kind] += 1
            # chi_E does not depend on beta, so beta is not part of the point
            self._op_points.add((p.v_r, p.v_a, p.eta, p.delta_v, p.epsilon, p.v_n))

        def rate(args, kwargs, result):
            if self._parent_name() == "protocol.optimal_modulation":
                counts["protocol.optimal_modulation.rate_evals"] += 1

        def region(args, kwargs, result):
            counts["finite_size.security_region.points"] += len(result)
            counts["finite_size.security_region.undefined_points"] += sum(
                1 for point in result if math.isinf(point.beta_star))

        def samples(args, kwargs, result):
            counts["emulator.generate_samples.records"] += result.n_samples

        def data_error(exc):
            if isinstance(exc, unphysical):
                counts["emulator.security_from_data.errors"] += 1

        def csv_bytes(args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            counts["emulator.SampleBatch.write_csv.bytes"] += os.path.getsize(path)

        return {
            "protocol.holevo_eb": (holevo, None),
            "protocol.key_rate_asymptotic": (rate, None),
            "finite_size.security_region": (region, None),
            "emulator.generate_samples": (samples, None),
            "emulator.security_from_data": (None, data_error),
            "emulator.SampleBatch.write_csv": (csv_bytes, None),
        }

    # -- results -------------------------------------------------------------

    def metrics(self, per_layer: list[dict], cli_bytes: int, time_scale: float) -> dict:
        """Per-layer metrics of the ops recorded so far, without the overhead ratio.

        ``per_layer`` is the ``per_layer`` list of BENCHMARK.json, giving each
        metric's name and unit.  Counts, bytes and self times are per
        operation, so runs holding different numbers of operations compare
        directly.  ``time_scale`` converts span seconds to the reference
        speed of speed.py.
        """
        ops = max(self.ops, 1)
        holevo_calls = self.counts["protocol.holevo_eb.calls_lossy"] \
            + self.counts["protocol.holevo_eb.calls_noisy"]
        layer_self = defaultdict(float)
        for name, seconds in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += seconds
        values = {}
        for metric in per_layer:
            name = metric["name"]
            if name == "trace.overhead_frac":
                continue
            if name == "protocol.holevo_eb.points_per_call":
                value = self._distinct_points / holevo_calls if holevo_calls else 0.0
            elif name == "cli.bytes_written":
                value = cli_bytes / ops
            elif name.count(".") == 1 and name.endswith(".self_s"):
                value = layer_self[name.split(".", 1)[0]] * time_scale / ops
            elif name.endswith(".self_s"):
                value = self.self_s[name[:-len(".self_s")]] * time_scale / ops
            else:
                value = self.counts[name] / ops
            values[name] = {"value": value, "unit": metric["unit"]}
        return values

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
