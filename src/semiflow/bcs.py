"""Boundary control systems and the three-form representation cross-check.

A boundary system is described by a lifting R (boundary value to steady
profile), the formal interior operator applied to lifted profiles, and the
semigroup of the homogeneous problem.  The induced input operator

    B = (formal interior of R) - A R

acts mode-wise and generally lands in the extrapolation space only, which
is the whole point: the same trajectory admits three representations
(integrated-by-parts, formal, and the mild solution driven by B), and they
must coincide.  The cross-check computes all three with exact polynomial
kernel integrals so the only noise left is the solver's own tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .admissibility import (
    Bounded,
    InputOperator,
    QAdmissible,
    SmoothClass,
)
from .core import Nonlinearity, SpectralState
from .nonlinearities import zero_nonlinearity
from .semigroup import DiagonalSemigroup, heat_dirichlet_semigroup
from .solver import (
    EvolutionSystem,
    PolySignal,
    SolverConfig,
    solve,
)

__all__ = [
    "BoundaryControlSystem",
    "CrosscheckReport",
    "class_octave_ratio",
    "make_input_operator",
    "representation_crosscheck",
    "dirichlet_heat_0_pi",
    "BCS_FAMILIES",
    "OCTAVE_DECAY_THRESHOLD",
]

# class-weighted mass of the top mode octave over the one below it; a
# summable weighted tail decays geometrically across octaves (2^{1-p} for
# a mass power law n^{-p}), a critical tail holds the ratio near 1
OCTAVE_DECAY_THRESHOLD = 0.95


def _octave_ratio(w: np.ndarray, coeffs: np.ndarray) -> float:
    c = np.asarray(coeffs, float)
    if c.ndim == 1:
        c = c[:, None]
    mass = np.sum((w[:, None] * c) ** 2, axis=1)
    n = mass.shape[0]
    last = float(np.sum(mass[n // 2 :]))
    prev = float(np.sum(mass[n // 4 : n // 2]))
    if prev == 0.0:
        # nothing to extrapolate from; a single populated octave carries
        # no divergence evidence on a finite truncation
        return 0.0
    return last / prev


def class_octave_ratio(sg: DiagonalSemigroup, coeffs: np.ndarray,
                       declared_class) -> float:
    """Octave decay ratio of the class-weighted coefficient mass.

    Weight exponents: 0 for bounded, alpha - 1 for smooth_class(alpha),
    1/q - 1 for q_admissible.  Ratios below OCTAVE_DECAY_THRESHOLD mean
    the weighted tail is summable with a visible margin; needs around 16
    modes before the verdict is worth much.
    """
    if isinstance(declared_class, Bounded):
        beta = 0.0
    elif isinstance(declared_class, SmoothClass):
        beta = declared_class.alpha - 1.0
    elif isinstance(declared_class, QAdmissible):
        beta = 1.0 / declared_class.q - 1.0
    else:
        raise TypeError(f"unknown operator class {declared_class!r}")
    return _octave_ratio(sg.frac_weights(beta), coeffs)


@dataclass(eq=False)
class BoundaryControlSystem:
    """Mode-space description of a boundary-input problem.

    lifting[:, j] are the coefficients of the steady profile R e_j;
    formal_ar[:, j] those of the formal interior operator applied to the
    same profile (zero when lifted profiles are harmonic for it).
    """

    semigroup: DiagonalSemigroup
    lifting: np.ndarray
    formal_ar: np.ndarray
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.semigroup, DiagonalSemigroup):
            raise ValueError("a boundary control system needs a DiagonalSemigroup, "
                             f"not a {type(self.semigroup).__name__}")
        def columns(a):  # a single row of N > 1 coefficients is one column
            a = np.atleast_2d(np.asarray(a, float))
            return a.T if a.shape[0] == 1 and self.semigroup.n_modes > 1 else a
        self.lifting, self.formal_ar = columns(self.lifting), columns(self.formal_ar)
        if self.lifting.shape[0] != self.semigroup.n_modes:
            raise ValueError("lifting rows must match the mode count")
        if self.formal_ar.shape != self.lifting.shape:
            raise ValueError("formal_ar must have the lifting's shape")
        self._trace = np.linalg.pinv(self.lifting)

    @property
    def m(self) -> int:
        return self.lifting.shape[1]

    def lift(self, v: np.ndarray) -> np.ndarray:
        return self.lifting @ np.atleast_1d(np.asarray(v, float))

    def boundary_trace(self, coeffs: np.ndarray) -> np.ndarray:
        """Boundary value recovered from a state in the lifting's range
        (least squares otherwise)."""
        return self._trace @ np.asarray(coeffs, float)

    def validate(self) -> Dict[str, float]:
        """Right-inverse identity trace(R v) = v to 1e-8 on 8 seeded samples,
        plus ladder growth of the lifting and formal interior columns (both
        must be honest X elements).  Raises on violation."""
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(8):
            v = rng.normal(size=self.m)
            worst = max(worst, float(np.linalg.norm(
                self.boundary_trace(self.lift(v)) - v)))
        r_lift = class_octave_ratio(self.semigroup, self.lifting, Bounded())
        r_ar = class_octave_ratio(self.semigroup, self.formal_ar, Bounded())
        out = {
            "trace_roundtrip_error": worst,
            "lifting_octave_ratio": r_lift,
            "formal_ar_octave_ratio": r_ar,
        }
        if worst > 1e-8:
            raise ValueError(f"lifting trace round-trip off by {worst:.3g}")
        if max(r_lift, r_ar) >= OCTAVE_DECAY_THRESHOLD:
            raise ValueError(
                "lifting or formal interior columns are not X elements "
                f"(octave ratios {r_lift:.3f}, {r_ar:.3f})"
            )
        return out


def make_input_operator(bcs: BoundaryControlSystem,
                        declared_class) -> InputOperator:
    """B = formal_ar - mu * lifting, with the declared class checked
    against the coefficient decay.

    Always verifies the columns define extrapolation-space elements
    (weight -1); then the declared class's own weight must also have a
    convergent ladder, else the declaration is refused.
    """
    sg = bcs.semigroup
    coeffs = bcs.formal_ar - sg.mu[:, None] * bcs.lifting
    r_ext = _octave_ratio(sg.frac_weights(-1.0), coeffs)
    if r_ext >= OCTAVE_DECAY_THRESHOLD:
        raise ValueError(
            "coefficients do not define an extrapolation-space operator "
            f"(octave ratio {r_ext:.3f})"
        )
    r = class_octave_ratio(sg, coeffs, declared_class)
    if r >= OCTAVE_DECAY_THRESHOLD:
        raise ValueError(
            f"declared class {declared_class.describe()} is not supported by "
            f"the coefficient decay (octave ratio {r:.3f} >= "
            f"{OCTAVE_DECAY_THRESHOLD})"
        )
    return InputOperator(coeffs, declared_class)


@dataclass
class CrosscheckReport:
    times: List[float]
    max_difference: float
    pairwise: Dict[str, float]
    tolerance: float
    passed: bool
    compatibility_defect: float
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "times": self.times,
            "max_difference": self.max_difference,
            "pairwise": self.pairwise,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "compatibility_defect": self.compatibility_defect,
            "notes": self.notes,
        }


def representation_crosscheck(
    bcs: BoundaryControlSystem,
    f: Optional[Nonlinearity],
    x0: SpectralState,
    u: PolySignal,
    tau: float,
    w: Optional[PolySignal] = None,
    declared_class=None,
    cfg: Optional[SolverConfig] = None,
    n_checkpoints: int = 17,
    tol: float = 1e-6,
) -> CrosscheckReport:
    """Evaluate the three trajectory representations on a checkpoint grid
    and report the largest pairwise X-norm difference.

    (a) T(t)(x0 - R u(0)) + N + W + int T(t-s)[AR u(s) - R u'(s)] ds + R u(t)
    (b) T(t) x0 + N + W + int T(t-s) AR u(s) ds - int T(t-s) A R u(s) ds
    (c) the mild solution driven by B = AR - A R through the solver

    N is the nonlinear convolution, extracted from (c) by subtracting the
    exact linear terms, so (a) and (b) inherit it identically.  Without a
    nonlinearity nothing needs extracting: the closed forms stand on their
    own and the solver trajectory is compared against them as well (the
    extraction norm appears as solver_vs_closed_form).  W is the
    optional distributed polynomial forcing w, entering all forms through
    the identity.  With f present and w given, f receives the stacked
    (u, w) input values.  u must be polynomial: every kernel integral
    above then has a closed form, and the only residual is the solver's
    own discretization, which the tolerance budgets for.

    The initial state must be compatible: x0 - R u(0) has to sit in the
    domain-weight ladder, else the integrated-by-parts form is meaningless
    and a ValueError is raised.
    """
    sg = bcs.semigroup
    cfg = cfg or SolverConfig(substeps_per_window=128)
    if u.m != bcs.m:
        raise ValueError(f"input has {u.m} channels, system has {bcs.m}")
    if w is not None and w.m != sg.n_modes:
        raise ValueError("distributed forcing must have one channel per mode")

    u0 = u.value(0.0)
    d0 = x0.coeffs - bcs.lift(u0)
    defect = float(np.linalg.norm(sg.frac_weights(1.0) * d0))
    if defect > 1e-8:
        r_dom = _octave_ratio(sg.frac_weights(1.0), d0)
        if r_dom >= OCTAVE_DECAY_THRESHOLD:
            raise ValueError(
                "compatibility condition violated: x0 - R u(0) does not "
                f"decay along the domain-weight ladder (octave ratio {r_dom:.3f})"
            )

    if declared_class is None:
        declared_class = SmoothClass(0.2)
    B = make_input_operator(bcs, declared_class)
    f_eff = f if f is not None else zero_nonlinearity(sg.n_modes)

    if w is None:
        B_solve, u_solve = B, u
    else:
        deg = max(u.degree, w.degree)
        cu = np.zeros((deg + 1, u.m + w.m))
        cu[: u.degree + 1, : u.m] = u.coeffs
        cu[: w.degree + 1, u.m :] = w.coeffs
        B_solve = InputOperator(
            np.hstack([B.coeffs, np.eye(sg.n_modes)]), declared_class)
        u_solve = PolySignal(cu)

    sys_c = EvolutionSystem(semigroup=sg, f=f_eff, B=B_solve)
    cps = [tau * (k + 1) / n_checkpoints for k in range(n_checkpoints)]
    traj = solve(sys_c, x0, u_solve, tau, cfg, checkpoint_times=cps)
    if traj.status.kind != "completed":
        raise RuntimeError(f"mild-solution run did not complete: {traj.status}")

    def sup(d):
        return float(np.max(np.linalg.norm(d, axis=1)))

    t = np.array(cps)[:, None]  # one row per checkpoint
    x_c = np.array([traj.state_at(c).coeffs for c in cps])
    free = np.exp(sg.mu * t) * x0.coeffs
    # the convolutions of B u, (formal A R) u, R u', (mu R) u and w
    ops = [(B.coeffs, u), (bcs.formal_ar, u), (bcs.lifting, u.derivative()),
           (sg.mu[:, None] * bcs.lifting, u)]
    if w is not None:
        ops.append((np.eye(sg.n_modes), w))
    I_B, I_AR, I_Rdu, I_MR, *I_w = sg.convolve(
        t, [[op @ pk for pk in p.coeffs] for op, p in ops])
    I_w = I_w[0] if I_w else 0.0
    N = x_c - free - I_B - I_w
    diffs = {}
    if f is None:
        # no nonlinear convolution to extract: the closed forms are the
        # whole trajectory, so the solver run is checked against them too
        diffs["solver_vs_closed_form"], N = sup(N), 0.0
    form_a = (np.exp(sg.mu * t) * d0 + N + I_w + I_AR
              - I_Rdu + u.value(t[:, 0]) @ bcs.lifting.T)
    form_b = free + N + I_w + I_AR - I_MR
    diffs.update(a_vs_b=sup(form_a - form_b), a_vs_c=sup(form_a - x_c),
                 b_vs_c=sup(form_b - x_c))
    worst = max(diffs.values())
    return CrosscheckReport(
        times=[float(t) for t in cps],
        max_difference=worst,
        pairwise=diffs,
        tolerance=tol,
        passed=bool(worst <= tol),
        compatibility_defect=defect,
        notes=f"operator class {declared_class.describe()}",
    )


def dirichlet_heat_0_pi(n_modes: int, omega: float = 1.0) -> BoundaryControlSystem:
    """Heat equation on (0, pi), input the boundary value at z = 0.

    The lifting of the boundary value d is the linear profile d (1 - z/pi),
    whose sine coefficients are d sqrt(2/pi) / n; linear profiles are
    harmonic, so the formal interior operator kills them.
    """
    sg = heat_dirichlet_semigroup(n_modes, omega=omega)
    n = np.arange(1, n_modes + 1, dtype=float)
    lifting = (math.sqrt(2.0 / math.pi) / n)[:, None]
    return BoundaryControlSystem(
        semigroup=sg,
        lifting=lifting,
        formal_ar=np.zeros_like(lifting),
        label="dirichlet_heat_0_pi",
    )


BCS_FAMILIES: Dict[str, Callable[..., BoundaryControlSystem]] = {
    "dirichlet_heat_0_pi": dirichlet_heat_0_pi,
}
