"""Span tracing of the rosenmu layers, installed from outside the package.

Each wrapped function records one span (name, start, end, parent span,
task id) per call while a task is active.  Wrappers are installed where
the caller looks the function up: every module-level binding inside the
``rosenmu`` modules that points at the original function is replaced,
and ``numpy.linalg`` attributes are replaced for call counts only.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores every
binding.

Pitfalls handled here (see README.md):

* ``rosenmu.backward_error`` is the *function* (the package re-exports
  it), so modules are reached through ``importlib.import_module``.
* ``dumps_report`` calls itself through its module global; only the
  outermost call gets a span.
* ``mu_bracket`` looks ``mu_upper``/``mu_lower`` up as globals of
  ``rosenmu.mu``, so that is where they are patched; patching the package
  attribute alone would not be seen.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module that defines the function, attribute, span name)
SPANNED = [
    ("rosenmu.mu", "mu_bracket", "mu.mu_bracket"),
    ("rosenmu.mu", "mu_upper", "mu.mu_upper"),
    ("rosenmu.mu", "mu_lower", "mu.mu_lower"),
    ("rosenmu.mu", "certificate_to_delta", "mu.certificate_to_delta"),
    ("rosenmu.oracle", "brute_force_mu", "oracle.brute_force_mu"),
    ("rosenmu.reduction", "reduce", "reduction.reduce"),
    ("rosenmu.reduction", "assemble_perturbation", "reduction.assemble_perturbation"),
    ("rosenmu.rosenbrock", "evaluate", "rosenbrock.evaluate"),
    ("rosenmu.rosenbrock", "is_eigenvalue", "rosenbrock.is_eigenvalue"),
    ("rosenmu.rosenbrock", "system_from_json", "rosenbrock.system_from_json"),
    ("rosenmu.backward_error", "backward_error", "backward_error.backward_error"),
    ("rosenmu.backward_error", "scenario_sweep", "backward_error.scenario_sweep"),
    ("rosenmu.cli", "main", "cli.main"),
]

# Names of spans of scipy's ``minimize``, by the span that called it.
MINIMIZE_NAMES = {
    ("mu.mu_upper", "BFGS"): "mu.upper.bfgs",
    ("mu.mu_upper", "Nelder-Mead"): "mu.upper.nm",
    ("mu.mu_lower", "BFGS"): "mu.lower.kernel",
    ("oracle.brute_force_mu", "Nelder-Mead"): "oracle.refine",
}

# Span record fields.
NAME, START, END, PARENT, TASK, CHILD = range(6)


class Tracer:
    """In-memory spans and counters; records only while ``task`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.svd_s = 0.0
        self.task: int | None = None
        self._restore: list[tuple[object, str, object]] = []
        self._bfgs_best: dict[int, float] = {}
        self._pass_start = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.task, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[END] = end
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += end - span[START]

    def _parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def _spanned(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.task is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._count_result(name, out)
            return out

        return wrapper

    def _count_result(self, name: str, out) -> None:
        c = self.counts
        c[name + ".calls"] += 1
        if name == "mu.mu_lower":
            c["mu.lower.refine_rounds"] += out.refine_rounds
        elif name == "oracle.brute_force_mu":
            c["oracle.samples"] += out.samples_used

    def _minimize(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.task is None:
                return fn(*args, **kwargs)
            parent_idx = tracer.stack[-1] if tracer.stack else -1
            method = kwargs.get("method", "")
            name = MINIMIZE_NAMES.get((tracer._parent_name(), method), "minimize")
            idx = tracer._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            c = tracer.counts
            c[name + ".calls"] += 1
            c[name + ".nfev"] += int(res.nfev)
            c[name + ".nit"] += int(getattr(res, "nit", 0))
            if name == "mu.upper.bfgs":
                best = tracer._bfgs_best.get(parent_idx, np.inf)
                tracer._bfgs_best[parent_idx] = min(best, float(res.fun))
            elif name == "mu.upper.nm":
                # the polish is useful only when it beats every BFGS start
                if float(res.fun) < tracer._bfgs_best.get(parent_idx, np.inf):
                    c["mu.upper.nm_improved"] += 1
            return res

        return wrapper

    def _dumps_report(self, fn):
        tracer = self

        def wrapper(obj, *args, **kwargs):
            if tracer.task is None or tracer._parent_name() == "cli.dumps_report":
                return fn(obj, *args, **kwargs)
            idx = tracer._open("cli.dumps_report")
            try:
                text = fn(obj, *args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.counts["cli.dumps_report.calls"] += 1
            tracer.counts["cli.report_bytes"] += len(text.encode("utf-8"))
            return text

        return wrapper

    # -- numpy.linalg counters -------------------------------------------------

    def _counted(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.task is not None:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _svd(self, fn):
        tracer = self

        def wrapper(a, *args, **kwargs):
            if tracer.task is None:
                return fn(a, *args, **kwargs)
            uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            tracer.counts["linalg.svd_uv_calls" if uv else "linalg.svd_values_calls"] += 1
            start = perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.svd_s += perf_counter() - start

        return wrapper

    def _norm(self, fn):
        tracer = self

        def wrapper(x, *args, **kwargs):
            if tracer.task is not None:
                ord_ = kwargs.get("ord", args[0] if args else None)
                if ord_ == 2 and np.ndim(x) == 2:
                    # the matrix 2-norm runs an SVD inside numpy, unseen above
                    tracer.counts["linalg.norm2_calls"] += 1
            return fn(x, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Replace every rosenmu module binding of ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rosenmu" or mod_name.startswith("rosenmu.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _set(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for mod_name, attr, name in SPANNED:
            original = getattr(importlib.import_module(mod_name), attr)
            self._rebind(original, self._spanned(name, original))
        cli = importlib.import_module("rosenmu.cli")
        self._rebind(cli.dumps_report, self._dumps_report(cli.dumps_report))
        mu = importlib.import_module("rosenmu.mu")
        self._rebind(mu.minimize, self._minimize(mu.minimize))
        linalg = np.linalg
        self._set(linalg, "svd", self._svd(linalg.svd))
        self._set(linalg, "eig", self._counted("linalg.eig_calls", linalg.eig))
        self._set(linalg, "eigvals", self._counted("linalg.eigvals_calls", linalg.eigvals))
        self._set(linalg, "norm", self._norm(linalg.norm))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    def reset_pass(self) -> None:
        """Start a new pass: counters and span totals restart, spans are kept."""
        self.counts = Counter()
        self.svd_s = 0.0
        self._bfgs_best.clear()
        self._pass_start = len(self.spans)

    def self_times(self) -> dict[str, float]:
        """Self time per span name over the spans of the current pass."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans[self._pass_start:]:
            out[span[NAME]] += span[END] - span[START] - span[CHILD]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\ttask\n")
            for name, start, end, parent, task, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{task}\n")
