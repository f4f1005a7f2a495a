"""Spans around every public function of the chshlab layers, from outside.

:meth:`Tracer.install` wraps each public function of the eight layer
modules and rebinds the wrapper under every name that binds the original,
in all layer modules and the package itself, so calls between layers
(``cli.verify_bound``, ``scan.refine``, ``scan.t0_closed_form``,
``chsh_operator.hermitian_eigen``, ...) are traced as well as calls from
the CLI. The program itself is not changed.

Each call records a span (id, name, start, end, parent, op id) in memory;
:meth:`Tracer.write_spans` saves them once the run is over. A span's self
time is its duration minus the time its child spans cover. The wrapper's
own bookkeeping is timed separately, so

    traced wall = sum of layer self times + bookkeeping + harness time

up to the few statements between the harness's clock reads and the root
wrapper's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "seeding", "lhv", "quantum", "constrained", "chsh_operator", "linalg", "scan")

# Named groups whose time is the outermost member call (no double counting
# when members call each other, as t_distribution calls t0_closed_form).
GROUPS = {
    "chsh_operator.scalar": ("chsh_operator.t0_closed_form", "chsh_operator.t_mean", "chsh_operator.t_distribution"),
    "constrained.build_table": ("constrained.build_constrained", "constrained.build_constrained_from_quad"),
}

# Work counted from call arguments: function -> (counter, argument, work).
WORK = {
    "lhv.chsh_same_lambda": ("lhv.trials", "n", int),
    "lhv.chsh_independent": ("lhv.trials", "n", int),
    "lhv.quantum_chsh_independent": ("lhv.trials", "n", int),
    "quantum.sample_pairs": ("quantum.samples", "n", int),
    "scan.grid_scan": ("scan.lattice_points", "resolution", lambda r: int(r) ** 4),
}

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("seeding.component_stream.calls", "count"), ("seeding.component_stream.s", "s"),
    ("lhv.chsh_same_lambda.s", "s"), ("lhv.chsh_independent.s", "s"),
    ("lhv.quantum_chsh_independent.s", "s"), ("lhv.trials", "count"), ("lhv.ns_per_trial", "ns"),
    ("quantum.sample_pairs.s", "s"), ("quantum.samples", "count"), ("quantum.ns_per_sample", "ns"),
    ("quantum.singlet_correlation.calls", "count"), ("quantum.joint_distribution.calls", "count"),
    ("chsh_operator.sample_t.s", "s"), ("chsh_operator.build_t.s", "s"), ("chsh_operator.t_spectrum.s", "s"),
    ("chsh_operator.scalar.calls", "count"), ("chsh_operator.scalar.s", "s"),
    ("linalg.hermitian_eigen.calls", "count"), ("linalg.hermitian_eigen.us_per_call", "us"),
    ("linalg.hermitian_eigen.failed", "count"), ("linalg.eigen_max_residual", "1"),
    ("constrained.build_table.calls", "count"), ("constrained.build_table.s", "s"),
    ("constrained.closed.calls", "count"), ("constrained.closed.s", "s"),
    ("constrained.bruteforce.calls", "count"), ("constrained.degenerate", "count"),
    ("scan.grid_scan.s", "s"), ("scan.grid_scan.ns_per_point", "ns"), ("scan.lattice_points", "count"),
    ("scan.verify_bound.self_s", "s"), ("scan.refine.calls", "count"), ("scan.refine.self_s", "s"),
    ("scan.objective_evals", "count"), ("scan.refine.ns_per_eval", "ns"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("harness.self_s", "s"), ("trace.bookkeeping_s", "s"), ("trace.unaccounted_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op")


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.op = -1  # id of the CLI invocation in progress, set by the harness
        self.names: list[str] = []
        self.spans = array("d")  # SPAN_FIELDS per span, flat, in order of span end
        self.stats: dict = {}  # function -> [calls, self s, outermost-call s, depth]
        self.groups: dict = {g: [0.0, 0] for g in GROUPS}  # group -> [outermost-call s, depth]
        self.counters: Counter = Counter()
        self.raised: Counter = Counter()  # (function, exception type) at the innermost traced frame
        self.bookkeeping = [0.0]  # wrapper time outside the spans it records
        self.eigen_inputs: list = []  # (matrix, decomposition) pairs, for residuals after the run
        self._stack: list = []  # [span id, time covered by children]
        self._ids = itertools.count()
        self._last_exc = None

    def install(self) -> None:
        """Replace every public layer function, wherever it is bound, by its traced wrapper."""
        package = importlib.import_module("chshlab")
        modules = {layer: importlib.import_module(f"chshlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        # refine evaluates its objective through this private helper; counting
        # its calls gives the number of objective evaluations.
        scan = modules["scan"]
        safe_eval = getattr(scan, "_safe_eval", None)
        if safe_eval is not None:
            counters = self.counters

            def counted(*args, **kwargs):
                counters["scan.objective_evals"] += 1
                return safe_eval(*args, **kwargs)

            scan._safe_eval = counted

    def _wrap(self, qual: str, fn):
        name_id = len(self.names)
        self.names.append(qual)
        stat = self.stats[qual] = [0, 0.0, 0.0, 0]
        groups = [self.groups[g] for g, members in GROUPS.items() if qual in members]
        work = WORK.get(qual)
        keep_eigen = qual == "linalg.hermitian_eigen"
        signature = inspect.signature(fn) if work or keep_eigen else None
        tr, spans, stack, ids, book = self, self.spans, self._stack, self._ids, self.bookkeeping

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = perf_counter()
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            stat[3] += 1
            for g in groups:
                g[1] += 1
            if work:
                counter, arg, amount = work
                tr.counters[counter] += amount(signature.bind(*args, **kwargs).arguments[arg])
            start = end = perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = perf_counter()
                if keep_eigen:
                    tr.eigen_inputs.append((signature.bind(*args, **kwargs).arguments["m"], result))
                return result
            except BaseException as exc:
                end = perf_counter()
                if exc is not tr._last_exc:
                    tr._last_exc = exc
                    tr.raised[(qual, type(exc).__name__)] += 1
                raise
            finally:
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                stat[3] -= 1
                if stat[3] == 0:
                    stat[2] += duration
                for g in groups:
                    g[1] -= 1
                    if g[1] == 0:
                        g[0] += duration
                spans.extend((frame[0], name_id, start, end, parent, tr.op))
                leave = perf_counter()
                book[0] += (leave - entry) - duration
                if stack:
                    stack[-1][1] += leave - entry

        return traced

    def write_spans(self, path) -> None:
        """Save the spans, one array per SPAN_FIELDS column, plus the name table."""
        rows = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, len(SPAN_FIELDS))
        np.savez(path, names=np.array(self.names), **{f: rows[:, i] for i, f in enumerate(SPAN_FIELDS)})

    def metrics(self, wall_s: float, harness_s: float) -> dict:
        """The PER_LAYER metrics as {name: value}, except the two that need the untraced run."""
        calls = Counter({q: st[0] for q, st in self.stats.items()})
        self_s = Counter({q: st[1] for q, st in self.stats.items()})
        total = Counter({q: st[2] for q, st in self.stats.items()})
        total.update({g: st[0] for g, st in self.groups.items()})
        trials, samples = self.counters["lhv.trials"], self.counters["quantum.samples"]
        points, evals = self.counters["scan.lattice_points"], self.counters["scan.objective_evals"]
        lhv_s = sum(total[f"lhv.{f}"] for f in ("chsh_same_lambda", "chsh_independent", "quantum_chsh_independent"))
        eig_calls = calls["linalg.hermitian_eigen"]
        layer_self = {layer: sum(v for q, v in self_s.items() if q.startswith(layer + ".")) for layer in LAYERS}
        residual = max((float(np.max(np.abs(m @ d.eigenvectors - d.eigenvectors * d.eigenvalues)))
                        for m, d in self.eigen_inputs), default=0.0)

        def ratio(num, den, scale):
            return num / den * scale if den else 0.0

        return {
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "seeding.component_stream.calls": calls["seeding.component_stream"],
            "seeding.component_stream.s": total["seeding.component_stream"],
            "lhv.chsh_same_lambda.s": total["lhv.chsh_same_lambda"],
            "lhv.chsh_independent.s": total["lhv.chsh_independent"],
            "lhv.quantum_chsh_independent.s": total["lhv.quantum_chsh_independent"],
            "lhv.trials": trials,
            "lhv.ns_per_trial": ratio(lhv_s, trials, 1e9),
            "quantum.sample_pairs.s": total["quantum.sample_pairs"],
            "quantum.samples": samples,
            "quantum.ns_per_sample": ratio(total["quantum.sample_pairs"], samples, 1e9),
            "quantum.singlet_correlation.calls": calls["quantum.singlet_correlation"],
            "quantum.joint_distribution.calls": calls["quantum.joint_distribution"],
            "chsh_operator.sample_t.s": total["chsh_operator.sample_t"],
            "chsh_operator.build_t.s": total["chsh_operator.build_t"],
            "chsh_operator.t_spectrum.s": total["chsh_operator.t_spectrum"],
            "chsh_operator.scalar.calls": sum(calls[q] for q in GROUPS["chsh_operator.scalar"]),
            "chsh_operator.scalar.s": total["chsh_operator.scalar"],
            "linalg.hermitian_eigen.calls": eig_calls,
            "linalg.hermitian_eigen.us_per_call": ratio(total["linalg.hermitian_eigen"], eig_calls, 1e6),
            "linalg.hermitian_eigen.failed": sum(n for (q, _), n in self.raised.items() if q == "linalg.hermitian_eigen"),
            "linalg.eigen_max_residual": residual,
            "constrained.build_table.calls": sum(calls[q] for q in GROUPS["constrained.build_table"]),
            "constrained.build_table.s": total["constrained.build_table"],
            "constrained.closed.calls": calls["constrained.constrained_expectation_closed"],
            "constrained.closed.s": total["constrained.constrained_expectation_closed"],
            "constrained.bruteforce.calls": calls["constrained.constrained_expectation_bruteforce"],
            "constrained.degenerate": sum(n for (q, exc), n in self.raised.items()
                                          if q.startswith("constrained.") and exc == "DegenerateConditioningError"),
            "scan.grid_scan.s": total["scan.grid_scan"],
            "scan.grid_scan.ns_per_point": ratio(total["scan.grid_scan"], points, 1e9),
            "scan.lattice_points": points,
            "scan.verify_bound.self_s": self_s["scan.verify_bound"],
            "scan.refine.calls": calls["scan.refine"],
            "scan.refine.self_s": self_s["scan.refine"],
            "scan.objective_evals": evals,
            "scan.refine.ns_per_eval": ratio(total["scan.refine"], evals, 1e9),
            **{f"layer.{layer}.self_s": v for layer, v in layer_self.items()},
            "harness.self_s": harness_s,
            "trace.bookkeeping_s": self.bookkeeping[0],
            "trace.unaccounted_s": wall_s - harness_s - self.bookkeeping[0] - sum(layer_self.values()),
            "trace.wall_s": wall_s,
            "trace.spans": len(self.spans) // len(SPAN_FIELDS),
        }

    def self_by_function(self) -> dict:
        """Self time of every traced function that ran, largest first."""
        ran = ((q, st[1]) for q, st in self.stats.items() if st[0])
        return dict(sorted(ran, key=lambda item: -item[1]))
