"""Per-layer tracing from outside the package.

The traced run wraps public functions and methods of the `reweight` modules
with timing wrappers, runs a workload pass, and restores the originals.
Nothing inside `src/` is changed. Each wrapper records, per traced name, the
number of calls, the inclusive time, and the time covered by child spans, so
a name's self time is its inclusive time minus its children's.

A traced name that no longer exists in the package is reported as absent;
the metrics built on it read 0 instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# Traced name -> (module, attribute path). Only public names are wrapped.
TARGETS = {
    "cli.main": ("reweight.cli", "main"),
    "cli.run_one": ("reweight.cli", "run_one"),
    "optim.run_training": ("reweight.optim", "run_training"),
    "optim.gd_step": ("reweight.optim", "gd_step"),
    "optim.momentum_step": ("reweight.optim", "momentum_step"),
    "core.compute_batch_weights": ("reweight.core", "compute_batch_weights"),
    "core.capped_optimal_weights": ("reweight.core", "capped_optimal_weights"),
    "problems.gen_regression": ("reweight.problems", "gen_regression"),
    "problems.gen_quadratic_suite": ("reweight.problems", "gen_quadratic_suite"),
    "problems.RegressionProblem.losses": ("reweight.problems", "RegressionProblem.losses"),
    "problems.RegressionProblem.grads": ("reweight.problems", "RegressionProblem.grads"),
    "problems.RegressionProblem.test_loss": ("reweight.problems", "RegressionProblem.test_loss"),
    "problems.QuadraticProblem.losses": ("reweight.problems", "QuadraticProblem.losses"),
    "problems.QuadraticProblem.grads": ("reweight.problems", "QuadraticProblem.grads"),
    "problems.QuadraticProblem.losses_at_opt": ("reweight.problems", "QuadraticProblem.losses_at_opt"),
    "problems.regression_loss_grad": ("reweight.problems", "regression_loss_grad"),
    "problems.nonconvex_loss_grad": ("reweight.problems", "nonconvex_loss_grad"),
    "diagnostics.delta_t": ("reweight.diagnostics", "delta_t"),
    "diagnostics.mu_t": ("reweight.diagnostics", "mu_t"),
    "diagnostics.grad_gap_term": ("reweight.diagnostics", "grad_gap_term"),
    "oracle.brute_force_optimal_weights": ("reweight.oracle", "brute_force_optimal_weights"),
    "oracle.project_capped_simplex": ("reweight.oracle", "project_capped_simplex"),
    "oracle.finite_diff_grad": ("reweight.oracle", "finite_diff_grad"),
    "verify.check_prop1_agreement": ("reweight.verify", "check_prop1_agreement"),
    "verify.check_kkt": ("reweight.verify", "check_kkt"),
    "verify.check_gradients": ("reweight.verify", "check_gradients"),
    "verify.check_delta_sign": ("reweight.verify", "check_delta_sign"),
    "verify.check_cap_enforcement": ("reweight.verify", "check_cap_enforcement"),
    "verify.check_degenerate_limit": ("reweight.verify", "check_degenerate_limit"),
}


class Tracer:
    """Aggregated spans: per name, [calls, inclusive ns, child ns]."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self._stack: list[list[int]] = []

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += children[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def calls(self, name) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def seconds(self, name) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def self_seconds(self, name) -> float:
        calls, total, child = self.stats.get(name, (0, 0, 0))
        return (total - child) / 1e9

    def counts(self) -> dict[str, int]:
        return {name: s[0] for name, s in sorted(self.stats.items())}


def _resolve(module_name, path):
    """Return (owner, attr, function) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


def _package_namespaces():
    """Module dicts of the loaded `reweight` package, the places that hold
    references bound by `from .x import y`."""
    return [
        vars(mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "reweight" or name.startswith("reweight."))
    ]


def _setitem(container, key, value):
    container[key] = value


@contextmanager
def traced(tracer: Tracer, targets=TARGETS):
    """Wrap every resolvable target, yield the sorted list of absent names,
    and restore every original reference on exit.

    A function is rebound in every package namespace that refers to it, and
    in module-level lists that hold it (such as the verify check list), so
    calls made through `from .core import f` bindings are traced too.
    """
    undo = []
    absent = []
    try:
        for name, (module_name, path) in targets.items():
            found = _resolve(module_name, path)
            if found is None:
                absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = tracer.wrap(name, fn)
            if isinstance(owner, type):
                undo.append((setattr, owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for ns in _package_namespaces():
                for key, value in list(ns.items()):
                    if value is fn:
                        undo.append((_setitem, ns, key, fn))
                        ns[key] = wrapper
                    elif type(value) is list:
                        for i, item in enumerate(value):
                            if item is fn:
                                undo.append((_setitem, value, i, fn))
                                value[i] = wrapper
        yield sorted(absent)
    finally:
        for put, holder, key, fn in reversed(undo):
            put(holder, key, fn)
