"""Reference computations made apart from semiflow.

Every function here rebuilds its model from the mathematical statement
(generator, nonlinearity, input operator) with numpy and scipy only; none
of them calls into semiflow.  The workloads compare semiflow's outputs
against these, outside every timed figure.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp


def arctan_rhs(A, Bc, gain, input_gain):
    """x' = A x + gain * arctan(x + input_gain * E v) + Bc v, with E the
    embedding of the input channels into the leading state coordinates."""
    A = np.asarray(A, float)
    Bc = np.asarray(Bc, float)

    def rhs(t, x, v):
        z = x.copy()
        k = min(x.shape[0], v.shape[0])
        z[:k] += input_gain * v[:k]
        return A @ x + gain * np.arctan(z) + Bc @ v

    return rhs


def integrate_pc(rhs, x0, grid, values, times, jac=None, rtol=1e-12, atol=1e-14):
    """States at `times` (within (0, grid[-1]]) of an ODE driven by the
    piecewise-constant input with cells grid / values.

    Every leg ends at an input breakpoint or a requested time, so the
    right-hand side is smooth inside each leg and no state is interpolated.
    With a Jacobian the legs use the implicit Radau method (stiff spectra),
    without one the explicit DOP853.
    """
    x = np.asarray(x0, float).copy()
    stops = sorted(set(float(g) for g in grid[1:]) | set(float(t) for t in times))
    out = {}
    a = float(grid[0])
    for b in stops:
        cell = min(int(np.searchsorted(grid, a, side="right")) - 1, len(values) - 1)
        extra = {"method": "DOP853"} if jac is None else {"method": "Radau", "jac": jac}
        sol = solve_ivp(rhs, (a, b), x, rtol=rtol, atol=atol,
                        args=(np.asarray(values[cell], float),), **extra)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        x = sol.y[:, -1].copy()
        out[b] = x
        a = b
    return [out[float(t)] for t in times]


def escape_time(x0: float) -> float:
    """Blow-up time of x' = -x + x^2 from x0 > 1: ln(x0 / (x0 - 1))."""
    return math.log(x0 / (x0 - 1.0))


class BurgersReference:
    """Burgers right-hand side on the sine basis sqrt(2/pi) sin(n z),
    rebuilt with dense sine and cosine matrices on the 2N+1 interior
    collocation points z_i = i pi / (2N + 2).

    x_t = x_zz - x x_z + a sin(z) tanh(x) + u + boundary input d at z = 0;
    in mode space a' = -n^2 a + P(-x x_z + a sin z tanh x) + u + b d with
    b_n = n sqrt(2/pi) and P the trapezoid projection dz * S^T.
    """

    def __init__(self, n_modes: int, amplitude: float):
        n = np.arange(1, n_modes + 1, dtype=float)
        M = 2 * n_modes + 1
        z = np.arange(1, M + 1) * (math.pi / (M + 1))
        s = math.sqrt(2.0 / math.pi)
        self.S = s * np.sin(np.outer(z, n))
        self.C = s * np.cos(np.outer(z, n)) * n
        self.P = (math.pi / (M + 1)) * self.S.T
        self.mu = -(n ** 2)
        self.b = n * s
        self.local = amplitude * np.sin(z)

    def rhs(self, t, a, v):
        x, dx = self.S @ a, self.C @ a
        return self.mu * a + self.P @ (-x * dx + self.local * np.tanh(x)) \
            + v[:-1] + self.b * v[-1]

    def jac(self, t, a, v):
        x, dx = self.S @ a, self.C @ a
        inner = -(dx[:, None] * self.S + x[:, None] * self.C) \
            + (self.local * (1.0 - np.tanh(x) ** 2))[:, None] * self.S
        return np.diag(self.mu) + self.P @ inner

    def final_state(self, x0, grid, u_values, d_values):
        """State at grid[-1]; u_values is (cells, N), d_values (cells,)."""
        v = np.hstack([np.asarray(u_values, float),
                       np.asarray(d_values, float).reshape(-1, 1)])
        return integrate_pc(self.rhs, x0, grid, v, [grid[-1]], jac=self.jac,
                            rtol=1e-11, atol=1e-13)[0]


def heat_boundary_closed_form(x0, b, mu, poly, t):
    """x_n(t) = e^{mu_n t} x0_n + b_n int_0^t e^{mu_n r} p(t - r) dr per mode,
    each integral by adaptive quadrature; p is the coefficient list of the
    scalar boundary polynomial (lowest degree first)."""
    coeffs = [float(c) for c in poly]

    def p(s):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * s + c
        return acc

    out = np.empty(len(mu))
    for k, m in enumerate(mu):
        val, _ = quad(lambda r: math.exp(m * r) * p(t - r), 0.0, t,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        out[k] = math.exp(m * t) * x0[k] + b[k] * val
    return out


def heat_unit_input_response(b, mu, t):
    """|int_0^t T(t-s) b ds| for the constant input u = 1 on a negative
    diagonal spectrum: |b (1 - e^{mu t}) / (-mu)|."""
    b = np.asarray(b, float)
    mu = np.asarray(mu, float)
    return float(np.linalg.norm(b * (-np.expm1(mu * t)) / (-mu)))
