"""Outside-in layer tracing of semiflow.

The tracer wraps semiflow's public functions in every module namespace
that holds them (``flow_props`` holds ``solve``, ``burgers`` holds
``solve_analytic``, ...) and wraps class methods on their classes.  Each
wrapped call is a span; spans nest through a stack, and a layer's self
time is its spans' durations minus the time their child spans cover.  The
benchmark opens one root span per task, so the self times of all layers
plus the root's own add up to the traced task time.

Some counts are read at the boundary instead of inside the program:
windows, Picard iterations and bisections from each returned Trajectory,
select_step candidates from its cap and the length it returned, and
Picard retries from the length select_step chose against the window length
the solve recorded.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

ROOT = "task"

# (module, function, layer); a layer may collect several functions
FUNCTIONS = [
    ("solver", "solve", "solver.solve"),
    ("solver", "solve_analytic", "solver.solve"),
    ("solver", "select_step", "solver.select_step"),
    ("solver", "convolve_poly", "solver.convolve_poly"),
    ("solver", "poly_exp_integral", "solver.poly_exp_integral"),
    ("solver", "global_bound", "solver.global_bound"),
    ("solver", "trajectory_to_csv", "solver.export"),
    ("solver", "trajectory_diagnostics_json", "solver.export"),
    ("admissibility", "convolve", "admissibility.convolve"),
    ("admissibility", "c_constant", "admissibility.c_constant"),
    ("admissibility", "upper_bound_h", "admissibility.upper_bound_h"),
    ("admissibility", "measure_h", "admissibility.measure_h"),
    ("flow_props", "check_axioms", "flow_props.checks"),
    ("flow_props", "cocycle_residual", "flow_props.checks"),
    ("flow_props", "check_deviation", "flow_props.checks"),
    ("flow_props", "deviation_suite", "flow_props.checks"),
    ("flow_props", "check_continuous_dependence", "flow_props.checks"),
    ("flow_props", "check_cep", "flow_props.checks"),
    ("flow_props", "check_brs", "flow_props.checks"),
    ("bcs", "representation_crosscheck", "bcs.crosscheck"),
    ("scenario", "load_scenario", "scenario.load"),
    ("scenario", "run_scenario", "scenario.run"),
]

# (module, class, method, layer)
METHODS = [
    ("semigroup", "DenseGenerator", "propagators", "semigroup.dense_propagators"),
    ("semigroup", "DiagonalSemigroup", "smoothing_constant",
     "semigroup.smoothing_constant"),
    ("core", "Nonlinearity", "batch", "core.f_batch"),
    ("core", "InputSignal", "value", "core.input_value"),
    ("core", "InputSignal", "value_left", "core.input_value"),
    ("burgers", "BurgersSystem", "F_batch", "burgers.F_batch"),
]

# layers reported with their call count next to their self time
CALL_COUNTS = [
    "solver.solve", "solver.select_step", "solver.convolve_poly",
    "solver.poly_exp_integral", "admissibility.convolve",
    "admissibility.c_constant", "admissibility.upper_bound_h",
    "admissibility.measure_h", "semigroup.dense_propagators",
    "semigroup.smoothing_constant", "core.f_batch", "core.input_value",
    "burgers.F_batch",
]
SELF_TIMES = [
    "solver.solve", "solver.select_step", "solver.poly_exp_integral",
    "solver.global_bound", "solver.export", "admissibility.convolve",
    "admissibility.c_constant", "admissibility.upper_bound_h",
    "admissibility.measure_h", "semigroup.dense_propagators",
    "semigroup.smoothing_constant", "core.f_batch", "core.input_value",
    "burgers.F_batch", "flow_props.checks", "bcs.crosscheck", "scenario.load",
    "scenario.run",
]
COUNTERS = ["solver.windows", "solver.picard_iters", "solver.bisections",
            "solver.picard_retries", "solver.select_step.candidates",
            "core.f_rows"]


class _Frame:
    __slots__ = ("layer", "child", "selected")

    def __init__(self, layer):
        self.layer = layer
        self.child = 0.0
        self.selected = None


class Tracer:
    """Span stack, per-layer self time, call counts and boundary counters."""

    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = []
        self._patches = []
        self._hooks = {"solver.solve": self._after_solve,
                       "solver.select_step": self._after_select,
                       "core.f_batch": self._after_batch}

    # -- spans -----------------------------------------------------------

    def run(self, layer, fn, *args, **kwargs):
        """Call fn inside a span of the given layer."""
        frame = _Frame(layer)
        if layer == "solver.solve":
            frame.selected = []
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, time.perf_counter() - start)
            if layer == "solver.select_step":
                # a failed search tried every candidate it is allowed
                cfg = self._select_sig.bind(*args, **kwargs).arguments.get("cfg")
                self.counts["solver.select_step.candidates"] += \
                    (cfg or self._default_cfg).max_window_bisections + 1
            raise
        self._close(frame, time.perf_counter() - start)
        hook = self._hooks.get(layer)
        if hook is not None:
            hook(frame, args, kwargs, result)
        return result

    def _close(self, frame, duration):
        self.stack.pop()
        self.self_s[frame.layer] += duration - frame.child
        self.calls[frame.layer] += 1
        if self.stack:
            self.stack[-1].child += duration

    def _wrap(self, fn, layer):
        run = self.run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return run(layer, fn, *args, **kwargs)

        return traced

    # -- boundary counters ------------------------------------------------

    def _after_solve(self, frame, args, kwargs, traj):
        diags = traj.diagnostics
        self.counts["solver.windows"] += len(diags)
        self.counts["solver.picard_iters"] += sum(d.picard_iters for d in diags)
        self.counts["solver.bisections"] += sum(d.bisections for d in diags)
        for chosen, d in zip(frame.selected, diags):
            self.counts["solver.picard_retries"] += max(
                0, round(math.log2(chosen / d.t1)))

    def _after_select(self, frame, args, kwargs, t1):
        bound = self._select_sig.bind(*args, **kwargs).arguments
        cfg = bound.get("cfg") or self._default_cfg
        cap = bound.get("cap")
        cap = min(cfg.window_cap, cap if cap is not None else cfg.window_cap)
        self.counts["solver.select_step.candidates"] += \
            round(math.log2(cap / t1)) + 1
        for outer in reversed(self.stack):
            if outer.selected is not None:
                outer.selected.append(t1)
                break

    def _after_batch(self, frame, args, kwargs, out):
        self.counts["core.f_rows"] += len(args[1])

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every traced callable; names the program no longer has are
        recorded in self.absent instead of raising."""
        import semiflow
        from semiflow import solver

        select = getattr(solver, "select_step", None)
        self._select_sig = inspect.signature(select) if select else None
        self._default_cfg = solver.SolverConfig()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "semiflow"
                                         or name.startswith("semiflow."))]
        self.absent = []
        for mod_name, fn_name, layer in FUNCTIONS:
            mod = getattr(semiflow, mod_name, None)
            fn = getattr(mod, fn_name, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            traced = self._wrap(fn, layer)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, value))
                        setattr(m, attr, traced)
        for mod_name, cls_name, meth, layer in METHODS:
            cls = getattr(getattr(semiflow, mod_name, None), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, layer))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for layer in CALL_COUNTS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        for layer in SELF_TIMES:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out

    def total_s(self):
        """Sum of every self time, the root's included."""
        return sum(self.self_s.values())
