"""Span tracing from outside the library, for the per-layer metrics.

A traced run wraps public functions and methods of each module under
src/hirzebruch (a layer) in spans: name, start, end, parent span and job
id, kept in memory and written out at the end. Several modules bind
library names with `from .catalog import h_n` and the like, so every
binding of a wrapped object in every hirzebruch module is replaced, not
only the defining one. Q(i) scalar operations are counted, not spanned:
a span per scalar op would swamp the run. Span times are process CPU
time, the clock of the end-to-end metrics (see harness.py).
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import CLOCK

# span name -> "module:attribute" of every object it wraps
SPANS: Dict[str, Tuple[str, ...]] = {
    "series.mul": ("hirzebruch.series:PowerSeries.__mul__",),
    "series.inverse": ("hirzebruch.series:PowerSeries.inverse",),
    "series.reversion": ("hirzebruch.series:PowerSeries.reversion",),
    "series.compose": ("hirzebruch.series:PowerSeries.compose",),
    "series.exp": ("hirzebruch.series:exp_series",),
    "series.log": ("hirzebruch.series:log_series",),
    "series.scale_argument": ("hirzebruch.series:PowerSeries.scale_argument",
                              "hirzebruch.series:LaurentSeries.scale_argument"),
    "series.laurent_mul": ("hirzebruch.series:LaurentSeries.__mul__",),
    "series.laurent_add": ("hirzebruch.series:LaurentSeries.__add__",),
    "catalog.construct": ("hirzebruch.catalog:construct",),
    "catalog.h_n": ("hirzebruch.catalog:h_n",),
    "catalog.novikov_g": ("hirzebruch.catalog:novikov_g",),
    "catalog.verify_novikov": ("hirzebruch.catalog:verify_novikov",),
    "catalog.closed_form_cpn": ("hirzebruch.catalog:closed_form_cpn",),
    "chern.k_polynomials": ("hirzebruch.chern:k_polynomials",),
    "chern.power_sum": ("hirzebruch.chern:power_sum",),
    "chern.evaluate_genus": ("hirzebruch.chern:evaluate_genus",),
    "chern.graded_mul": ("hirzebruch.chern:GradedPoly.__mul__",),
    # split into .real and .complex by the coefficients the call reads
    "localization.equivariant_genus": ("hirzebruch.localization:equivariant_genus",),
    "localization.cpn_fixed_points": ("hirzebruch.localization:cpn_fixed_points",),
    "rigidity.ar_check": ("hirzebruch.rigidity:ar_check",),
    "rigidity.classify": ("hirzebruch.rigidity:classify",),
    "rigidity.reconstruct": ("hirzebruch.rigidity:reconstruct",),
    "cli.main": ("hirzebruch.cli:main",),
}

COUNTED = {
    "gaussian.mul": "hirzebruch.gaussian:GaussianRational.__mul__",
    "gaussian.add": "hirzebruch.gaussian:GaussianRational.__add__",
    "gaussian.div": "hirzebruch.gaussian:GaussianRational.__truediv__",
}

EQUIVARIANT = ("localization.equivariant_genus.real", "localization.equivariant_genus.complex")
TIMED = [n for n in SPANS if n not in ("localization.equivariant_genus",
                                       "localization.cpn_fixed_points")] + list(EQUIVARIANT)
LAYERS = ("series", "catalog", "chern", "localization", "rigidity", "cli", "bench")
AR_DIMENSIONS = (1, 2, 3)
EVENTS = (["rigidity.tuples_checked"]
          + [f"rigidity.tuples_checked.m{m}" for m in AR_DIMENSIONS]
          + [f"cli.exit_{code}" for code in (0, 1, 2)])

# Spans and counters that must be nonzero on the workload built to
# exercise them, so a rename cannot quietly report zero.
REQUIRED = {
    "cpn_tower": ["catalog.construct", "catalog.h_n", "catalog.novikov_g",
                  "catalog.verify_novikov", "catalog.closed_form_cpn", "series.mul",
                  "series.inverse", "series.reversion", "series.compose", "series.exp",
                  "series.log", "chern.k_polynomials", "chern.power_sum",
                  "chern.evaluate_genus", "chern.graded_mul", "gaussian.mul",
                  "gaussian.add", "gaussian.div"],
    "rigidity_real": ["localization.equivariant_genus.real", "localization.cpn_fixed_points",
                      "rigidity.ar_check", "rigidity.classify", "rigidity.reconstruct",
                      "rigidity.tuples_checked.m3"],
    "rigidity_complex": ["localization.equivariant_genus.complex", "series.scale_argument",
                         "series.laurent_mul", "series.laurent_add", "rigidity.ar_check",
                         "rigidity.classify", "gaussian.mul", "gaussian.add", "gaussian.div"],
    "cli_session": ["cli.main", "catalog.construct", "cli.exit_0", "cli.exit_1", "cli.exit_2"],
}


def per_layer_metrics() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{name}.calls", "count") for name in COUNTED]
    out += [("gaussian.max_num_bits", "bits"), ("gaussian.max_den_bits", "bits")]
    for name in TIMED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    for name in EQUIVARIANT:
        out += [(f"{name}.incl_ms", "ms"), (f"{name}.incl_share", "ratio")]
    out.append(("localization.cpn_fixed_points.calls", "count"))
    out += [(name, "count") for name in EVENTS]
    out += [(f"layer.{layer}.self_share", "ratio") for layer in LAYERS]
    out.append(("trace.overhead_frac", "ratio"))
    return out


Span = Tuple[str, float, float, int, int]  # name, start, end, parent index, job id


class Tracer:
    """Owns the span list, the counters and the patches that feed them."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = [-1]
        self.job = -1
        self.cells: Dict[str, List[int]] = {name: [0] for name in COUNTED}
        self.events: Dict[str, int] = {name: 0 for name in EVENTS}
        self.pending: List[Sequence] = []
        self.max_bits = [0, 0]
        self._undo: List[Tuple[object, str, object]] = []

    # -- jobs --------------------------------------------------------------

    def begin_job(self) -> None:
        self.job += 1
        self.stack.append(len(self.spans))
        self.spans.append(("job", CLOCK(), 0.0, -1, self.job))

    def end_job(self) -> None:
        end = CLOCK()
        idx = self.stack.pop()
        name, start, _, parent, job = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, job)
        self._scan_bits()

    def _scan_bits(self) -> None:
        """Coefficient heights of series-layer results, read after the job."""
        num, den = self.max_bits
        for coeffs in self.pending:
            for c in coeffs:
                for part in (c.re, c.im):
                    num = max(num, abs(part.numerator).bit_length())
                    den = max(den, part.denominator.bit_length())
        self.max_bits = [num, den]
        self.pending.clear()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for name, paths in SPANS.items():
            for path in paths:
                original = _resolve(path)
                self._replace(original, self._span(name, original))
        for name, path in COUNTED.items():
            original = _resolve(path)
            self._replace(original, _counter(self.cells[name], original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _replace(self, original, wrapper) -> None:
        found = 0
        for owner in _binding_owners():
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    self._undo.append((owner, key, original))
                    found += 1
        if not found:
            raise LookupError(f"no binding of {original!r} to patch")

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, CLOCK
        label = _equivariant_label if name == "localization.equivariant_genus" else None
        after = {"rigidity.ar_check": self._count_tuples,
                 "cli.main": self._count_exit}.get(name)
        keep = self.pending.append if name.startswith("series.") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = label(args, kwargs) if label else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, self.job)
            if keep is not None:
                keep(result.coeffs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_tuples(self, report) -> None:
        for weights in report.tuples_checked:
            self.events["rigidity.tuples_checked"] += 1
            key = f"rigidity.tuples_checked.m{len(weights) - 1}"
            if key in self.events:
                self.events[key] += 1

    def _count_exit(self, code) -> None:
        key = f"cli.exit_{code}"
        if key in self.events:
            self.events[key] += 1

    # -- results -------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        out = {name: cell[0] for name, cell in self.cells.items()}
        out.update(self.events)
        for name, (calls, _, _) in span_table(self.spans).items():
            out[name] = calls
        return out

    def missing(self, workload: str) -> List[str]:
        """Names REQUIRED on `workload` that recorded nothing."""
        counts = self.counts()
        return [name for name in REQUIRED[workload] if not counts.get(name)]

    def metrics(self, sessions: int, overhead_frac: float) -> Dict[str, float]:
        """Per-layer metrics. Calls, counts and times are means per session,
        so runs that complete different numbers of sessions compare."""
        table = span_table(self.spans)
        values: Dict[str, float] = {f"{n}.calls": c[0] for n, c in self.cells.items()}
        for name in TIMED:
            calls, self_s, _ = table.get(name, (0, 0.0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_ms"] = self_s * 1e3
        job_s = table.get("job", (0, 0.0, 0.0))[2]
        for name in EQUIVARIANT:
            incl_s = table.get(name, (0, 0.0, 0.0))[2]
            values[f"{name}.incl_ms"] = incl_s * 1e3
        values["localization.cpn_fixed_points.calls"] = table.get(
            "localization.cpn_fixed_points", (0,))[0]
        values.update(self.events)
        values = {name: value / sessions for name, value in values.items()}
        for name in EQUIVARIANT:
            incl_s = table.get(name, (0, 0.0, 0.0))[2]
            values[f"{name}.incl_share"] = incl_s / job_s if job_s else 0.0
        values["gaussian.max_num_bits"], values["gaussian.max_den_bits"] = self.max_bits
        for layer, share in layer_shares(table).items():
            values[f"layer.{layer}.self_share"] = share
        values["trace.overhead_frac"] = overhead_frac
        return values

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def span_table(spans: Sequence[Span]) -> Dict[str, Tuple[int, float, float]]:
    """name -> (calls, self seconds, inclusive seconds).

    Self time is a span's duration minus the time its direct children
    cover; spans are strictly nested because the run is single-threaded.
    """
    covered: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: Dict[str, List] = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) - covered[idx]
        row[2] += end - start
    return {name: tuple(row) for name, row in table.items()}


def layer_shares(table: Dict[str, Tuple[int, float, float]]) -> Dict[str, float]:
    """Each layer's self time as a share of all job time; the job spans'
    own self time (work outside any wrapped call) is the "bench" layer."""
    total = table.get("job", (0, 0.0, 0.0))[2]
    shares = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s, _) in table.items():
        layer = "bench" if name == "job" else name.split(".")[0]
        shares[layer] += self_s / total if total else 0.0
    return shares


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[last] if isinstance(owner, type) else getattr(owner, last)


def _binding_owners():
    """Every hirzebruch module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if name != "hirzebruch" and not name.startswith("hirzebruch."):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


def _counter(cell: List[int], fn: Callable) -> Callable:
    def counted(a, b):
        cell[0] += 1
        return fn(a, b)

    return counted


def _equivariant_label(args, kwargs) -> str:
    """The kernel equivariant_genus dispatches to: real when every
    coefficient the sum reads is real."""
    H = args[0] if args else kwargs["H"]
    fps = args[1] if len(args) > 1 else kwargs["fps"]
    order = args[2] if len(args) > 2 else kwargs["order"]
    coeffs = H.series.coeffs[: order + fps.n + 1]
    real = all(c.is_real for c in coeffs)
    return EQUIVARIANT[0] if real else EQUIVARIANT[1]
