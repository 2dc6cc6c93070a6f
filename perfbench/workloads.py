"""The four benchmark workloads.

A workload is built once (its set-up), then runs tasks back to back.  The
inputs of task i are made from (seed, i) before the clock starts, the task
itself only calls semiflow, and its outputs are checked afterwards against
computations made apart from semiflow (reference.py) or against properties
the method must have.  Task calls go through the ``semiflow`` package
namespace at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import shutil

import numpy as np

import semiflow as sf

WARMUP_INDEX = 1_000_000


class CheckFailed(Exception):
    """An output disagreed with its reference or broke a required property."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _rng(seed, i):
    return np.random.default_rng([seed, i])


def _direction(rng, n, envelope=None):
    x = rng.normal(size=n)
    if envelope is not None:
        x = x * envelope
    return x / np.linalg.norm(x)


def _pc_signal(rng, grid, m, radius):
    """Piecewise-constant input on grid, each cell's value of norm radius."""
    vals = np.array([radius * _direction(rng, m) for _ in range(len(grid) - 1)])
    return sf.InputSignal(np.asarray(grid, float), vals)


# ---------------------------------------------------------------------------
# flow-property suites: props_diag and props_dense

TAU = 0.4
CHECKPOINTS = [0.1, 0.2, 0.3, 0.4]
SAMPLE_GRID = [0.0, 0.15, 0.3, 0.4]
GAIN, INPUT_GAIN = 0.4, 0.5
# trajectory agreement with the solve_ivp reference, relative to max(1, |x|);
# the window kernel's only discretization error is the O(h^2) reconstruction
# of f at 16 substeps, measured at up to 2.7e-6 over 48 seeded samples
TRAJ_TOL = 2e-5
# the reported escape time lies below the exact one (the run stops where the
# norm crosses the blow-up threshold) and within this share of it
ESCAPE_TOL = 1e-3


class _PropsWorkload:
    """Seeded flow-property suites on one arctan system."""

    # typical task time on the README's machine; sets how many tasks a traced
    # run makes (the count must not depend on the clock)
    nominal_task_s = 0.5

    def __init__(self, seed, workdir):
        self.seed = seed
        self.cfg = sf.SolverConfig(substeps_per_window=16)
        self.system, self.A, self.Bc = self._build()

    def _pairs(self, rng):
        n, m = self.system.n_modes, self.system.input_channels
        pairs = []
        for k in range(2):
            x1 = 0.5 * rng.uniform(0.3, 1.0) * _direction(rng, n)
            u1 = _pc_signal(rng, SAMPLE_GRID, m, 0.5)
            eps = 0.05 * 0.5 ** k
            x2 = x1 + eps * _direction(rng, n)
            u2 = sf.InputSignal(u1.grid, u1.values + eps * _direction(rng, m))
            pairs.append(((sf.SpectralState(x1), u1), (sf.SpectralState(x2), u2)))
        return pairs

    def prepare(self, i):
        rng = _rng(self.seed, i)
        n, m = self.system.n_modes, self.system.input_channels
        return {
            "suite_seed": int(rng.integers(2 ** 31)),
            "pairs": self._pairs(rng),
            "x0": sf.SpectralState(0.5 * _direction(rng, n)),
            "u": _pc_signal(rng, SAMPLE_GRID, m, 0.5),
        }

    # process axioms and cocycle stitching; see PropsDense
    with_axioms = True

    def task(self, inp):
        s, cfg, seed = self.system, self.cfg, inp["suite_seed"]
        reports = [
            sf.check_axioms(s, t_end=TAU, n_samples=2, seed=seed, cfg=cfg),
        ] if self.with_axioms else []
        reports += [
            sf.deviation_suite(s, tau=TAU, n_pairs=3, seed=seed, cfg=cfg),
            sf.check_continuous_dependence(s, inp["pairs"], tau=TAU, cfg=cfg),
            sf.check_cep(s, eps_grid=[0.5], h_grid=[TAU], cfg=cfg, n_samples=2,
                         seed=seed, ladder_steps=6),
            sf.check_brs(s, C=0.8, tau=TAU, n_samples=4, seed=seed, cfg=cfg),
        ]
        traj = sf.solve(s, inp["x0"], inp["u"], TAU, cfg, checkpoint_times=CHECKPOINTS)
        return {"reports": reports, "traj": traj}

    def check(self, inp, out):
        import reference

        for rep in out["reports"]:
            _require(rep.passed, f"{rep.name} report failed: ratio {rep.worst_ratio}")
        traj = out["traj"]
        _require(traj.status.kind == "completed", f"sample run {traj.status}")
        u = inp["u"]
        rhs = reference.arctan_rhs(self.A, self.Bc, GAIN, INPUT_GAIN)
        want = reference.integrate_pc(rhs, inp["x0"].coeffs, u.grid, u.values,
                                      CHECKPOINTS)
        for t, w in zip(CHECKPOINTS, want):
            err = float(np.linalg.norm(traj.state_at(t).coeffs - w))
            _require(err <= TRAJ_TOL * max(1.0, float(np.linalg.norm(w))),
                     f"trajectory off the solve_ivp reference by {err:.3g} at t={t}")

    def close(self):
        pass


class PropsDiag(_PropsWorkload):
    """12 modes, mu_n = -n^2, identity B; each task also brackets the escape
    time of the scalar x' = -x + x^2."""

    def _build(self):
        n = 12
        mu = -np.arange(1.0, n + 1.0) ** 2
        sg = sf.DiagonalSemigroup(mu=mu, omega=1.0, analytic=True)
        f = sf.make_nonlinearity("arctan", n, {"gain": GAIN, "input_gain": INPUT_GAIN})
        system = sf.EvolutionSystem(sg, f, B=sf.InputOperator.identity(n))
        self.scalar = sf.EvolutionSystem(
            sf.DiagonalSemigroup(mu=np.array([-1.0]), omega=0.5),
            sf.make_nonlinearity("scalar_square", 1))
        return system, np.diag(mu), np.eye(n)

    def prepare(self, i):
        inp = super().prepare(i)
        inp["x_escape"] = float(np.random.default_rng([self.seed, i, 1]).uniform(1.5, 3.5))
        return inp

    def task(self, inp):
        out = super().task(inp)
        out["blowup"] = sf.solve(self.scalar, sf.SpectralState([inp["x_escape"]]),
                                 None, 2.0, self.cfg)
        return out

    def check(self, inp, out):
        import reference

        super().check(inp, out)
        status = out["blowup"].status
        exact = reference.escape_time(inp["x_escape"])
        _require(status.kind == "blowup", f"scalar run ended {status.kind}")
        _require(exact * (1.0 - ESCAPE_TOL) <= status.t_blowup <= exact,
                 f"escape time {status.t_blowup} outside bracket below {exact}")


class PropsDense(_PropsWorkload):
    """8-mode non-normal dense generator with a bounded 2-channel B.

    check_axioms is left out: its cocycle certificate (the residual at 16
    substeps within 0.6 of the one at 8) fails on this system for about
    one suite seed in 150, so it cannot be kept as an operation that never
    fails.
    """

    with_axioms = False

    def _build(self):
        n = 8
        rng = np.random.default_rng(2211)
        A = -np.diag(np.arange(1.0, n + 1.0)) + np.triu(rng.uniform(-1.5, 1.5, (n, n)), 1)
        Bc = rng.normal(size=(n, 2))
        Bc /= np.linalg.norm(Bc, 2)
        f = sf.make_nonlinearity("arctan", n, {"gain": GAIN, "input_gain": INPUT_GAIN})
        B = sf.InputOperator(Bc, sf.Bounded())
        return sf.EvolutionSystem(sf.DenseGenerator(A), f, B=B), A, Bc


# ---------------------------------------------------------------------------
# the Burgers case study through scenario files

BURGERS_MODES = 32
BURGERS_T = 0.1
BURGERS_GRID = [0.0, BURGERS_T / 3.0, 2.0 * BURGERS_T / 3.0, BURGERS_T]
BURGERS_AMPLITUDE = 0.3
BURGERS_FILES = 8
# final state against the Radau collocation reference, relative to max(1, |x|)
BURGERS_TOL = 1e-8


class BurgersScenario:
    """Generated burgers scenario files with boundary and distributed
    piecewise-constant disturbances, run through the scenario layer."""

    nominal_task_s = 1.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = os.path.join(workdir, "burgers")
        os.makedirs(self.dir, exist_ok=True)
        self.files = [self._write(k) for k in range(BURGERS_FILES)]
        self._reference = {}
        self._rerun_done = False

    def _write(self, k):
        rng = _rng(self.seed, k)
        n = BURGERS_MODES
        modes = np.arange(1.0, n + 1.0)
        x0 = 0.3 * _direction(rng, n, modes ** -2.0)
        u = np.array([0.3 * _direction(rng, n, 1.0 / modes) for _ in range(3)])
        d = rng.uniform(0.02, 0.05, size=3)
        sc = {
            "task": "burgers",
            "n_modes": n,
            "local_term": {"name": "sine_tanh", "params": {"amplitude": BURGERS_AMPLITUDE}},
            "x0": {"coeffs": x0.tolist()},
            "input": {"grid": BURGERS_GRID, "values": u.tolist()},
            "boundary": {"grid": BURGERS_GRID, "values": d.tolist()},
            "t_end": BURGERS_T,
            "snapshot_times": [BURGERS_T / 2.0, BURGERS_T],
            "expect": {"status": "completed"},
        }
        path = os.path.join(self.dir, f"scenario_{k:02d}.json")
        with open(path, "w") as fh:
            json.dump(sc, fh)
        return path

    def prepare(self, i):
        k = i % BURGERS_FILES
        return {"k": k, "path": self.files[k], "out": os.path.join(self.dir, "out")}

    def task(self, inp):
        sc = sf.load_scenario(inp["path"])
        return sf.run_scenario(sc, inp["out"], quiet=True)

    def check(self, inp, rc):
        import reference

        _require(rc == 0, f"run_scenario exit code {rc}")
        out = inp["out"]
        with open(os.path.join(out, "diagnostics.json")) as fh:
            status = json.load(fh)["status"]["kind"]
        _require(status == "completed", f"burgers run ended {status}")
        with open(os.path.join(out, "trajectory.csv")) as fh:
            header = fh.readline().strip().split(",")
            last = fh.readlines()[-1].strip().split(",")
        first = header.index("coeff_1")
        got = np.array([float(v) for v in last[first:]])
        k = inp["k"]
        if k not in self._reference:
            with open(inp["path"]) as fh:
                sc = json.load(fh)
            ref = reference.BurgersReference(BURGERS_MODES, BURGERS_AMPLITUDE)
            self._reference[k] = ref.final_state(
                sc["x0"]["coeffs"], np.array(BURGERS_GRID),
                sc["input"]["values"], sc["boundary"]["values"])
        want = self._reference[k]
        err = float(np.linalg.norm(got - want))
        _require(err <= BURGERS_TOL * max(1.0, float(np.linalg.norm(want))),
                 f"final state off the collocation reference by {err:.3g}")
        if not self._rerun_done:
            # deterministic outputs: a rerun must give byte-identical files
            self._rerun_done = True
            again = os.path.join(self.dir, "rerun")
            rc2 = sf.run_scenario(sf.load_scenario(inp["path"]), again, quiet=True)
            _require(rc2 == 0, f"rerun exit code {rc2}")
            names = sorted(os.listdir(out))
            _require(names == sorted(os.listdir(again)), "rerun wrote other files")
            _, mismatch, errors = filecmp.cmpfiles(out, again, names, shallow=False)
            _require(not mismatch and not errors, f"rerun differs in {mismatch + errors}")
            shutil.rmtree(again)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# boundary-system analysis with polynomial inputs

BOUNDARY_MODES = 128
BOUNDARY_TAU = 0.1
BOUNDARY_ALPHA = 0.2
# lower bound against the u = 1 closed form (relative), and the linear run
# against the quadrature closed form (relative to max(1, |x|))
LOWER_TOL = 1e-12
CLOSED_FORM_TOL = 1e-9


class BoundaryPoly:
    """Admissibility sweep and representation cross-checks of the heat
    equation on (0, pi) driven at the boundary z = 0."""

    nominal_task_s = 1.3

    def __init__(self, seed, workdir):
        self.seed = seed
        self.bcs = sf.dirichlet_heat_0_pi(BOUNDARY_MODES)
        self.B = sf.make_input_operator(self.bcs, sf.SmoothClass(BOUNDARY_ALPHA))
        self.f = sf.make_nonlinearity("arctan", BOUNDARY_MODES, {"gain": 0.1})
        self.cfg = sf.SolverConfig(substeps_per_window=32, picard_tol=1e-9)

    def prepare(self, i):
        rng = _rng(self.seed, i)
        t_grid = 2.0 ** (np.arange(-12.0, -4.0) + rng.uniform(0.0, 1.0))
        polys = []
        for degree in (2, 3):
            c = np.concatenate(([0.5 * rng.choice([-1.0, 1.0])],
                                rng.uniform(-1.0, 1.0, size=degree)))
            polys.append(c)
        return {"t_grid": t_grid, "polys": polys}

    def task(self, inp):
        est = sf.estimate_admissibility(self.bcs.semigroup, self.B, inp["t_grid"])
        runs = []
        for c in inp["polys"]:
            u = sf.PolySignal(c[:, None])
            x0 = sf.SpectralState(self.bcs.lift(u.value(0.0)))
            for f in (None, self.f):
                runs.append(sf.representation_crosscheck(
                    self.bcs, f, x0, u, BOUNDARY_TAU, cfg=self.cfg, n_checkpoints=4))
        return {"estimate": est, "crosschecks": runs}

    def check(self, inp, out):
        import reference

        sg = self.bcs.semigroup
        n = np.arange(1.0, BOUNDARY_MODES + 1.0)
        b = n * math.sqrt(2.0 / math.pi)  # -A applied to the lifting 1 - z/pi
        mu = -n ** 2
        est = out["estimate"]
        _require(est.fitted_exponent >= 0.2,
                 f"fitted admissibility slope {est.fitted_exponent:.4f} < 0.2")
        for t, low in zip(est.t_grid, est.h_values):
            t = float(t)
            # b > 0, so u = 1 maximises the convolution over unit inputs
            closed = reference.heat_unit_input_response(b, mu, t)
            _require(abs(low - closed) <= LOWER_TOL * closed,
                     f"h_t lower bound {low!r} != closed form {closed!r} at t={t}")
            upper = min(sf.upper_bound_h(sg, self.B, 0.0, t), np.linalg.norm(b) * t)
            _require(low <= upper, f"h_t lower bound {low} above certified {upper}")
        for rep in out["crosschecks"]:
            _require(rep.passed, f"cross-check failed: {rep.pairwise}")
        for c, rep in zip(inp["polys"], out["crosschecks"][::2]):
            # the run without f: the solver state is within solver_vs_closed_form
            # of semiflow's closed form, which must match the quadrature form
            u = sf.PolySignal(c[:, None])
            x0 = self.bcs.lift(u.value(0.0))
            gap = 0.0
            for t in rep.times:
                mine = sg.apply_T(t, x0) + sf.solver.convolve_poly(sg, self.B, u, t)
                quad = reference.heat_boundary_closed_form(x0, b, mu, c, t)
                gap = max(gap, float(np.linalg.norm(mine - quad))
                          / max(1.0, float(np.linalg.norm(quad))))
            total = gap + rep.pairwise["solver_vs_closed_form"]
            _require(total <= CLOSED_FORM_TOL,
                     f"linear boundary run off the quadrature form by {total:.3g}")

    def close(self):
        pass


WORKLOADS = {
    "props_diag": PropsDiag,
    "props_dense": PropsDense,
    "burgers_scenario": BurgersScenario,
    "boundary_poly": BoundaryPoly,
}
