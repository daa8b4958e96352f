"""Span tracer that times qoctl's layers from outside the package.

Inside a ``with Tracer(run_id):`` block every traced entry point is replaced
by a wrapper, wherever a qoctl module holds a reference to it: the owning
module, and every other loaded ``qoctl`` module that imported the name
(``scenarios`` imports ``propagate_ket`` by name, ``_fallback`` binds
scipy's ``expm`` at import).  Leaving the block puts every original back.

Layer entry points record spans (name, start, end, parent, run id).  The
linear-algebra calls underneath run hundreds of thousands of times per
solve, so they are not kept as spans: each call adds its duration to the
enclosing span's child time and to per-function counters.  A span's self
time is its duration minus the time covered by its child spans and these
linear-algebra calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

WRAPPED_ATTR = "__perfbench_original__"

KERNELS = ("propagate_pwc_ket", "propagate_pwc_dm", "krotov_forward_ket",
           "krotov_forward_dm")
# propagate_pwc_ket is reported per direction; the others as one entry
KERNEL_LABELS = ("propagate_pwc_ket.fwd", "propagate_pwc_ket.bwd",
                 "propagate_pwc_dm", "krotov_forward_ket",
                 "krotov_forward_dm")
LINALG = (("numpy.linalg", "eigh"), ("scipy.linalg", "expm"),
          ("scipy.linalg", "expm_frechet"))
DYNAMICS = ("propagate_ket", "propagate_density", "gkls_generator_parts")
OPTIMIZERS = ("krotov_ensemble", "grape_concurrent", "gradient_free_search",
              "hybrid_optimize")
QOCTL_MODULES = ("qoctl._kernels", "qoctl.dynamics", "qoctl.optimize",
                 "qoctl.scenarios")
GRADIENT_METHODS = ("optimize.krotov_ensemble", "optimize.grape_concurrent")


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    run_id: str
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Installs the layer wrappers on entry and restores them on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.records: list = []  # OptimizationRecords of outermost optimizers
        self.kernel_steps: dict = defaultdict(int)
        self.kernel_exps = 0
        self.leaf: dict = {}  # linalg name -> [calls, matrices, busy_s]
        self._rows: dict = defaultdict(list)  # n_controls -> row arrays
        self._open: list[int] = []
        self._in_leaf = False
        self._patched: list = []  # (module, attribute, original)

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        # Import every owner first: a module imported after patching would
        # bind wrappers that restore() does not know about.
        for module in {m for m, _ in LINALG} | set(QOCTL_MODULES):
            try:
                importlib.import_module(module)
            except ImportError:
                pass  # its entry points are reported absent by _patch
        try:
            for name in KERNELS:
                self._patch("qoctl._kernels", name, self._kernel_wrapper)
            for module, name in LINALG:
                self._patch(module, name, self._leaf_wrapper)
            for name in DYNAMICS:
                self._patch("qoctl.dynamics", name, self._span_wrapper)
            for name in OPTIMIZERS:
                self._patch("qoctl.optimize", name, self._optimizer_wrapper)
            self._patch("qoctl.optimize", "evaluate_cost", self._span_wrapper)
            self._patch("qoctl.scenarios", "run_scenario", self._span_wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, module_name, attr, factory):
        label = f"{module_name.split('.')[-1].lstrip('_')}.{attr}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(label)
            return
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(label)
            return
        wrapper = factory(label, original)
        setattr(wrapper, WRAPPED_ATTR, original)
        for mod in [module] + _qoctl_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, original))

    def restore(self):
        """Put back every patched name, newest first."""
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)

    # -- spans ------------------------------------------------------------

    def _enter_span(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent,
                               self.run_id))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _exit_span(self, idx: int):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _span_wrapper(self, label, func):
        def wrapper(*args, **kwargs):
            idx = self._enter_span(label)
            try:
                return func(*args, **kwargs)
            finally:
                self._exit_span(idx)
        return wrapper

    def _optimizer_wrapper(self, label, func):
        def wrapper(*args, **kwargs):
            idx = self._enter_span(label)
            try:
                record = func(*args, **kwargs)
            finally:
                self._exit_span(idx)
            if not self._has_optimizer_ancestor(idx):
                self.records.append(record)
            return record
        return wrapper

    def _has_optimizer_ancestor(self, idx: int) -> bool:
        parent = self.spans[idx].parent
        while parent is not None:
            if self.spans[parent].name.startswith("optimize."):
                return True
            parent = self.spans[parent].parent
        return False

    def _kernel_wrapper(self, label, func):
        signature = inspect.signature(func)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            name = label
            if "direction" in bound and label.endswith("_ket"):
                name += ".fwd" if bound["direction"] > 0 else ".bwd"
            idx = self._enter_span(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._exit_span(idx)
                # The Krotov kernels update amps in place, so the rows read
                # here are the samples the step exponentials were built from.
                self._count_steps(name, bound)
        return wrapper

    def _count_steps(self, name, bound):
        amps = np.asarray(bound["amps"], dtype=float)
        state = bound.get("psi0", bound.get("rho0_vec"))
        members = 1 if np.ndim(state) == 1 else int(np.shape(state)[0])
        self.kernel_steps[name] += amps.shape[0] * members
        self.kernel_exps += amps.shape[0]
        rows = np.empty((amps.shape[0], amps.shape[1] + 1))
        rows[:, :-1] = amps + 0.0  # folds -0.0 into 0.0
        rows[:, -1] = abs(float(bound["dt"]))
        self._rows[amps.shape[1]].append(rows)

    def _leaf_wrapper(self, label, func):
        stats = self.leaf.setdefault(label, [0, 0, 0.0])

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return func(*args, **kwargs)
            self._in_leaf = True
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_leaf = False
                a = args[0] if args else next(iter(kwargs.values()), None)
                ndim = getattr(a, "ndim", 2)
                stats[0] += 1
                stats[1] += int(np.prod(a.shape[:-2])) if ndim > 2 else 1
                stats[2] += elapsed
                if self._open:
                    self.spans[self._open[-1]].child_s += elapsed
        return wrapper

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "run_id": span.run_id, "self_s": span.self_s}) + "\n")

    def metrics(self, traced_wall_s: float) -> dict:
        """Per-layer metrics as ``name -> (value, unit)``.

        Metrics of entry points that do not exist are left out.
        """
        busy, self_s, calls = (defaultdict(float), defaultdict(float),
                               defaultdict(int))
        for span in self.spans:
            busy[span.name] += span.duration
            self_s[span.name] += span.self_s
            calls[span.name] += 1
        out = {}
        kernel_busy = 0.0
        for label in KERNEL_LABELS:
            if f"kernels.{label.split('.')[0]}" in self.absent:
                continue
            name = f"kernels.{label}"
            steps = self.kernel_steps[name]
            kernel_busy += busy[name]
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.steps"] = (steps, "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.us_per_step"] = (
                busy[name] / steps * 1e6 if steps else 0.0, "us")
        out["kernels.busy_s"] = (kernel_busy, "s")
        distinct = sum(len(np.unique(_as_void(np.concatenate(chunks))))
                       for chunks in self._rows.values())
        out["kernels.exp_redundancy"] = (
            self.kernel_exps / distinct if distinct else 0.0, "ratio")

        linalg_busy = 0.0
        for module, name in LINALG:
            label = f"{module.split('.')[-1]}.{name}"
            if label in self.absent:
                continue
            n_calls, n_mats, seconds = self.leaf.get(label, (0, 0, 0.0))
            linalg_busy += seconds
            if name == "expm_frechet":
                out["linalg.expm_frechet.calls"] = (n_calls, "count")
            else:
                out[f"linalg.{name}.matrices"] = (n_mats, "count")
        out["linalg.busy_s"] = (linalg_busy, "s")

        for name in ("propagate_ket", "propagate_density"):
            key = f"dynamics.{name}"
            if key not in self.absent:
                out[f"{key}.calls"] = (calls[key], "count")
                out[f"{key}.busy_s"] = (busy[key], "s")
                out[f"{key}.self_s"] = (self_s[key], "s")
        if "dynamics.gkls_generator_parts" not in self.absent:
            out["dynamics.gkls_generator_parts.calls"] = (
                calls["dynamics.gkls_generator_parts"], "count")

        for name in OPTIMIZERS:
            key = f"optimize.{name}"
            if key not in self.absent:
                out[f"{key}.busy_s"] = (busy[key], "s")
                out[f"{key}.self_s"] = (self_s[key], "s")
        if "optimize.evaluate_cost" not in self.absent:
            out["optimize.evaluate_cost.calls"] = (
                calls["optimize.evaluate_cost"], "count")
        iterations, rejections, nm_evals, final_j = 0, 0, 0, 0.0
        for record in self.records:
            its, rej, nm = _record_counts(record)
            iterations += its
            rejections += rej
            nm_evals += nm
            final_j = float(record.final_j)
        gradient_busy = sum(busy[name] for name in GRADIENT_METHODS)
        out["optimize.iterations"] = (iterations, "count")
        out["optimize.rejections"] = (rejections, "count")
        out["optimize.nm_evals"] = (nm_evals, "count")
        out["optimize.final_j"] = (final_j, "cost")
        out["optimize.s_per_iteration"] = (
            gradient_busy / iterations if iterations else 0.0, "s")

        if "scenarios.run_scenario" not in self.absent:
            out["scenarios.run_scenario.self_s"] = (
                self_s["scenarios.run_scenario"], "s")
        attributed = sum(span.self_s for span in self.spans) + linalg_busy
        out["trace.self_share"] = (
            attributed / traced_wall_s if traced_wall_s > 0 else 0.0, "ratio")
        return out


def _qoctl_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qoctl"
                                    or name.startswith("qoctl."))]


def wrapped_names() -> list:
    """``module.name`` of every qoctl, numpy.linalg or scipy.linalg global
    that is still a tracer wrapper; empty once a tracer has exited."""
    modules = _qoctl_modules() + [importlib.import_module(m)
                                  for m, _ in LINALG]
    return [f"{mod.__name__}.{name}" for mod in modules
            for name, value in list(vars(mod).items())
            if hasattr(value, WRAPPED_ATTR)]


def _as_void(rows: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))


def _record_counts(record) -> tuple:
    """(gradient iterations, rejected steps, simplex evaluations)."""
    entries = record.iterations
    gradient = [e for e in entries if e.phase in ("krotov", "grape")]
    nm_evals = sum(1 for e in entries if e.phase == "gradient_free")
    # A rejected Krotov step re-logs the unchanged cost with no running
    # cost; the first gradient entry is the guess evaluation.
    rejections = sum(1 for prev, cur in zip(gradient, gradient[1:])
                     if cur.j_tf == prev.j_tf and cur.running_cost == 0.0)
    return max(len(gradient) - 1, 0), rejections, nm_evals
