"""Counting and timing wrappers for the traced run.

Each wrapper replaces a name in the namespace the caller looks it up in
(a module global or a class attribute), so the package itself is not
edited. A wrapper counts calls, adds the call's wall time to its function
and its layer's self time to the layer, and, unless the function is a hot
leaf, keeps a span (id, parent id, layer, name, start, end) in memory. A
layer's self time is its spans' time minus the time of the wrapped calls
made inside them.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import btriple.harness as harness
import btriple.model_disk as model_disk
import btriple.model_fd1d as model_fd1d
import btriple.model_shoot1d as model_shoot1d
import btriple.triple_core as triple_core
from btriple.potentials import Potential1D

LAYERS = ("harness", "triple_core", "numerics", "model_fd1d", "model_shoot1d",
          "model_disk", "bessel", "potentials")

_CONTRACT = ("solve_bvp", "solve_bvp_tilde", "neumann_resolvent",
             "neumann_resolvent_tilde")


class Tracer:
    """Span stack, per-function counts and times, and per-layer self time."""

    def __init__(self):
        self.calls = Counter()           # (layer, name) -> calls
        self.total = defaultdict(float)  # (layer, name) -> inclusive seconds
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.events = Counter()          # untimed callback counts
        self.spans = []
        self.keeps_span = {}
        self._stack = []
        self._next_id = 1
        self._saved = []

    def wrap(self, fn, layer, name, keep_span=True, hook=None):
        key = (layer, name)
        self.keeps_span[key] = keep_span
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                args = hook(args)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, sid]  # time of wrapped calls inside, span id
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[key] += 1
                self.total[key] += dur
                self.self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    self.spans.append((sid, parent, layer, name, t0, t1))

        return traced

    def counter(self, fn, event):
        """Count calls to fn without timing them (hot inner callbacks)."""
        events = self.events

        def counted(*args):
            events[event] += 1
            return fn(*args)

        return counted

    def patch(self, owner, attr, layer, name=None, keep_span=True, hook=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, layer, name or attr,
                                       keep_span, hook))

    def install(self):
        """Wrap every traced name; undo with uninstall()."""
        for fn in ("run_identity_suite", "run_decay_suite",
                   "run_bs_cross_check", "model_from_spec"):
            self.patch(harness, fn, "harness")
        for fn in ("eig_dense", "fit_log_slope", "smallest_singular_value",
                   "solve_linear"):
            self.patch(harness, fn, "numerics")
        for fn in ("weyl", "weyl_symmetry_defect", "difference_identity_defect",
                   "gamma_resolvent_identity_defect", "green_defect",
                   "krein_resolvent", "krein_resolvent_tilde", "bs_kernel_lift",
                   "robin_eigs", "sectorial_factorization", "c1_norm_at",
                   "find_xi2", "relative_bound_decay", "weyl_decay_study"):
            self.patch(triple_core, fn, "triple_core")
        for fn in ("herm_inv_sqrt", "smallest_singular_value", "solve_linear"):
            self.patch(triple_core, fn, "numerics")

        def newton_hook(args):
            return (self.wrap(args[0], "triple_core", "newton_objective",
                              keep_span=False),) + tuple(args[1:])

        self.patch(triple_core, "complex_newton", "numerics", hook=newton_hook)
        self.patch(model_fd1d, "find_xi2", "triple_core")
        for cls, layer in ((model_fd1d.Fd1dModel, "model_fd1d"),
                           (model_shoot1d.Shoot1dModel, "model_shoot1d"),
                           (model_disk.DiskModel, "model_disk")):
            for fn in _CONTRACT:
                self.patch(cls, fn, layer)
        self.patch(model_disk.DiskModel, "mode_weyl_values", "model_disk")

        def rhs_hook(args):
            return (self.counter(args[0], "rhs_evals"),) + tuple(args[1:])

        self.patch(model_shoot1d, "dp45_integrate", "model_shoot1d",
                   hook=rhs_hook)
        self.patch(model_disk, "lu_factor", "model_disk")
        for fn in ("bessel_i", "bessel_j", "bessel_k"):
            self.patch(model_disk, fn, "bessel", keep_span=False)
        self.patch(Potential1D, "__call__", "potentials", "point_eval",
                   keep_span=False)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- report ------------------------------------------------------------

    def _sum(self, layer, names, table=None):
        table = self.calls if table is None else table
        return sum(table[(layer, n)] for n in names)

    def metrics(self):
        """Per-layer counts and seconds, keyed by the BENCHMARK.json names."""
        calls = self.calls
        layer_calls = Counter()
        for (layer, _), n in calls.items():
            layer_calls[layer] += n
        t = self.total
        out = {
            "harness.identity_s": t[("harness", "run_identity_suite")],
            "harness.decay_s": t[("harness", "run_decay_suite")],
            "harness.bs_s": t[("harness", "run_bs_cross_check")],
            "harness.model_builds": calls[("harness", "model_from_spec")],
            "triple_core.robin_eigs_s": t[("triple_core", "robin_eigs")],
            "triple_core.newton_evals": calls[("triple_core", "newton_objective")],
            "triple_core.krein_s": self._sum(
                "triple_core", ("krein_resolvent", "krein_resolvent_tilde"), t),
            "triple_core.sectorial_s": t[("triple_core", "sectorial_factorization")],
            "triple_core.find_xi2_s": t[("triple_core", "find_xi2")],
            "numerics.herm_inv_sqrt_calls": calls[("numerics", "herm_inv_sqrt")],
            "numerics.herm_inv_sqrt_s": t[("numerics", "herm_inv_sqrt")],
            "numerics.svd_calls": calls[("numerics", "smallest_singular_value")],
            "numerics.solve_linear_calls": calls[("numerics", "solve_linear")],
            "model_fd1d.bvp_solves": self._sum(
                "model_fd1d", ("solve_bvp", "solve_bvp_tilde")),
            "model_fd1d.resolvent_solves": self._sum(
                "model_fd1d", ("neumann_resolvent", "neumann_resolvent_tilde")),
            "model_fd1d.solve_s": self._sum("model_fd1d", _CONTRACT, t),
            "model_shoot1d.shots": calls[("model_shoot1d", "dp45_integrate")],
            "model_shoot1d.rhs_evals": self.events["rhs_evals"],
            "model_shoot1d.dp45_s": t[("model_shoot1d", "dp45_integrate")],
            "model_disk.lu_factors": calls[("model_disk", "lu_factor")],
            "model_disk.lu_s": t[("model_disk", "lu_factor")],
            "model_disk.mode_weyl_calls": calls[("model_disk", "mode_weyl_values")],
            "bessel.evals": layer_calls["bessel"],
            "bessel.s": self.self_s["bessel"],
            "potentials.point_evals": layer_calls["potentials"],
        }
        shots = out["model_shoot1d.shots"]
        solves = self._sum("model_shoot1d", _CONTRACT)
        out["model_shoot1d.shot_reuse"] = solves / shots if shots else 0.0
        for layer in LAYERS:
            if layer not in ("bessel", "potentials"):
                out[f"{layer}.calls"] = layer_calls[layer]
            if layer != "bessel":
                out[f"{layer}.self_s"] = self.self_s[layer]
        return out

    def overhead_s(self):
        """Time the wrappers added: the per-call cost of each wrapper kind,
        measured here on a no-op, times the calls the run made through it."""
        cost = _wrapper_costs()
        added = sum(n * cost["span" if self.keeps_span[key] else "plain"]
                    for key, n in self.calls.items())
        return added + sum(self.events.values()) * cost["counter"]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,layer,name,start,end\n")
            for sid, parent, layer, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{layer},{name},{t0!r},{t1!r}\n")


def _wrapper_costs(calls=100_000):
    """Seconds per call that each wrapper kind adds to a no-op function."""
    def noop(x):
        return x

    def per_call(fn):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        return (time.perf_counter() - t0) / calls

    probe = Tracer()
    bare = per_call(noop)
    return {
        "span": per_call(probe.wrap(noop, "probe", "span")) - bare,
        "plain": per_call(probe.wrap(noop, "probe", "plain",
                                     keep_span=False)) - bare,
        "counter": per_call(probe.counter(noop, "probe")) - bare,
    }
