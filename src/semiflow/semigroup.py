"""Diagonal semigroup realizations, fractional powers, and growth certificates.

A diagonal generator A acts mode-wise by real eigenvalues mu_n, so T(t) is
exact per-mode exponential scaling and the scale of fractional spaces
X_beta carries the weight (omega - mu_n)^beta.  The extrapolation space
X_{-1} is the beta = -1 member.  A small dense-matrix generator (bounded
operator, uniformly continuous semigroup) is provided for the finite ODE
mode of the solver; it shares the (M, lambda) growth-certificate interface.
Its exponentials are memoised per instance and per exact time, because the
solver's window lengths repeat (dyadic fractions of the same caps).

Both carry a solver window through one method, window(tau, x0, forcing);
the dense mode takes polynomial inputs as the diagonal one does.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg

__all__ = [
    "DiagonalSemigroup",
    "DenseGenerator",
    "heat_dirichlet_semigroup",
]


def phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with the z -> 0 limit, computed stably via expm1."""
    z = np.asarray(z, dtype=float)
    nz = z != 0.0
    return np.where(nz, np.expm1(np.where(nz, z, 1.0)) / np.where(nz, z, 1.0), 1.0)


def phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2 with the z -> 0 limit 1/2.

    For |z| below the cancellation threshold the quadratic Taylor term is
    used; relative error then stays below 1e-9.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-5
    zs = np.where(small, 1.0, z)
    main = (np.expm1(zs) - zs) / zs ** 2
    taylor = 0.5 + z / 6.0 + z ** 2 / 24.0
    return np.where(small, taylor, main)


def poly_exp_integral(mu: np.ndarray, t, k: int) -> np.ndarray:
    """int_0^t e^{mu (t-s)} s^k ds per mode, exact; an array t broadcasts
    against mu (t[:, None] gives one row per time).

    k = 0 is t phi1(mu t).  For k > 0: series k! t^{k+1} sum_j (mu t)^j /
    (j+k+1)! in the cancellation-prone small |mu t| regime, stable
    recurrence from the k = 0 value otherwise.
    """
    mu = np.asarray(mu, float)
    z = mu * t
    rec = t * phi1(z)  # I_0
    if k == 0:
        return rec
    small = np.abs(z) <= 0.5

    term = np.full(z.shape, t ** (k + 1) / (k + 1))
    acc = term.copy()
    zs = np.where(small, z, 0.0)
    for j in range(1, 30):
        term = term * zs / (k + 1 + j)
        acc += term

    mu_safe = np.where(small, 1.0, mu)
    for i in range(1, k + 1):
        rec = (i * rec - t ** i) / mu_safe
    return np.where(small, acc, rec)


def _act(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M applied to the last axis of x: per-mode factors (diagonal mode)
    or a matrix (dense mode)."""
    return M * x if M.ndim == 1 else x @ M.T


def _scan(c: np.ndarray, powers) -> np.ndarray:
    """Solve c[j+1] = E c[j] + r_j in place, given c = [c0, r_0, ..., r_{S-1}]
    along axis 0 and powers[k] = E^(2^k) for k < ceil(log2(S+1)).

    Hillis-Steele doubling (Blelloch 1990): after the step with offset d
    every row holds its recurrence value restricted to the last 2d inputs,
    so log2 steps of c[d:] += E^d c[:-d] replace S sequential ones.
    """
    for k, P in enumerate(powers):
        d = 1 << k
        c[d:] += _act(P, c[:-d])
    return c


@dataclass(frozen=True, eq=False)
class DiagonalSemigroup:
    """C0-semigroup generated by a diagonal operator with eigenvalues mu_n.

    M and lam certify |T(t)| <= M e^{lam t}; for a diagonal realization
    M = 1 and lam = max(0, max mu_n) is exact.  omega must exceed the
    growth bound omega0 = max mu_n so that omega*I - A is positive and
    the fractional powers (omega*I - A)^alpha are defined.  analytic marks
    generators with mu_n -> -inf fast enough that the smoothing norms
    t^alpha |(omega*I - A)^alpha T(t)| stay bounded; the diagonal heat
    family is the canonical instance.
    """

    mu: np.ndarray
    omega: float
    M: float = 1.0
    lam: Optional[float] = None
    analytic: bool = False

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).copy()
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or mu.shape[0] == 0:
            raise ValueError("eigenvalue list must be a nonempty vector")
        if not np.all(np.isfinite(mu)):
            raise ValueError("non-finite eigenvalues")
        top = self.omega0
        if self.lam is None:
            object.__setattr__(self, "lam", max(0.0, top))
        if self.M < 1.0:
            raise ValueError("growth constant M must be >= 1")
        # |T(t)| = e^{max mu t}, which outgrows M e^{lam t} for any lam < max mu
        if self.lam < top:
            raise ValueError(f"lam={self.lam} lies below the growth bound {top}")
        if self.omega <= top:
            raise ValueError(f"omega={self.omega} must exceed the growth bound {top}")
        # smoothing constants and weights are re-requested per candidate step
        object.__setattr__(self, "_sc_cache", {})
        object.__setattr__(self, "_fw_cache", {})

    @property
    def n_modes(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def omega0(self) -> float:
        """Growth bound max mu_n, computed once (mu is read-only)."""
        return float(np.max(self.mu))

    def apply_T(self, t: float, coeffs: np.ndarray) -> np.ndarray:
        """T(t) x, exact per mode."""
        if t < 0:
            raise ValueError("semigroup time must be nonnegative")
        return np.exp(self.mu * t) * np.asarray(coeffs, float)

    def frac_weights(self, alpha: float) -> np.ndarray:
        """Mode weights (omega - mu_n)^alpha, alpha in [-1, 1]; memoised, read-only."""
        if not -1.0 <= alpha <= 1.0:
            raise ValueError("fractional order limited to [-1, 1]")
        w = self._fw_cache.get(alpha)
        if w is None:
            base = self.omega - self.mu
            if np.any(base <= 0.0):
                raise ValueError("omega below the growth bound of some mode")
            w = base ** alpha
            w.setflags(write=False)
            self._fw_cache[alpha] = w
        return w

    def frac_T_norm(self, alpha: float, t: float) -> float:
        """Operator norm |(omega*I - A)^alpha T(t)| = max_n (omega-mu_n)^alpha e^{mu_n t}.

        Requires an analytic realization for alpha > 0 and errors at t = 0
        where the unbounded fractional power alone has no finite norm.
        """
        if not 0.0 <= alpha < 1.0:
            raise ValueError("smoothing norm defined for alpha in [0, 1)")
        if alpha > 0.0 and not self.analytic:
            raise ValueError("fractional smoothing norms need an analytic semigroup")
        if t < 0.0:
            raise ValueError("negative time")
        if t == 0.0:
            if alpha > 0.0:
                raise ValueError("unbounded at t = 0 for alpha > 0")
            return float(np.max(np.exp(self.mu * 0.0)))
        return float(np.max(self.frac_weights(alpha) * np.exp(self.mu * t)))

    def smoothing_constant(self, beta: float, kappa: Optional[float] = None,
                           t_max: float = 1.0) -> float:
        """Constant C with |(omega*I-A)^beta T(t)| <= C t^-beta e^{kappa t}
        on (0, t_max], exact: the sup over (0, t_max] of
        t^beta frac_T_norm(beta, t) e^{-kappa t}.  kappa defaults to
        omega0 + 1.

        The sup over t of a max over modes is the max over modes of
        sup_t (omega - mu_n)^beta t^beta e^{-(kappa - mu_n) t}.  For
        kappa > mu_n that function rises to its peak at
        t* = beta / (kappa - mu_n) and falls after it, so its sup on
        (0, t_max] sits at min(t*, t_max); for kappa <= mu_n it rises
        throughout and the sup sits at t_max.
        """
        if kappa is None:
            kappa = self.omega0 + 1.0
        if beta == 0.0:
            return self.M
        if not 0.0 < beta < 1.0:
            raise ValueError("smoothing norm defined for beta in [0, 1)")
        if not self.analytic:
            raise ValueError("fractional smoothing norms need an analytic semigroup")
        key = (beta, kappa, t_max)
        cached = self._sc_cache.get(key)
        if cached is not None:
            return cached
        rate = kappa - self.mu
        # min(t*, t_max), and t_max wherever rate <= beta / t_max
        t = np.minimum(beta / np.maximum(rate, beta / t_max), t_max)
        value = float(np.max(self.frac_weights(beta) * t ** beta * np.exp(-rate * t)))
        self._sc_cache[key] = value
        return value

    def sg_distance(self, t: float, coeffs: np.ndarray, alpha: float = 0.0) -> float:
        """|(T(t) - I) x| in the X_alpha norm; the strong-continuity modulus."""
        w = 1.0 if alpha == 0.0 else self.frac_weights(alpha)
        return float(np.linalg.norm(w * (np.exp(self.mu * t) - 1.0) * np.asarray(coeffs, float)))

    def window(self, tau: np.ndarray, x0: np.ndarray, forcing):
        """(powers, A1, A2, free, lin) of one solver window on the substep
        grid tau (S equal steps h from 0): powers[k] = T(h)^(2^k) for _scan;
        A1, A2 weigh the f samples at the two ends of a substep (piecewise-
        linear reconstruction); free = T(tau) x0; lin = free + int_0^tau
        T_{-1}(tau-s) B p(s) ds.  forcing holds one (d+1, N) array per input
        block, row k of block i being B_i p_k.  convolve gives each block's
        part; summed across blocks, then onto free: that order keeps the
        bytes."""
        S = tau.shape[0] - 1
        h = float(tau[-1]) / S
        z = self.mu * h
        powers = np.exp(np.multiply.outer(2.0 ** np.arange(S.bit_length()), z))
        free = np.exp(np.outer(tau, self.mu)) * x0[None, :]
        lin = free + reduce(np.add, self.convolve(tau[:, None], forcing)) if forcing else free
        return powers, h * (phi1(z) - phi2(z)), h * phi2(z), free, lin

    def convolve(self, t, forcing):
        """int_0^t e^{mu (t-s)} sum_k rows[k] s^k ds per mode for each block
        rows of forcing (B p_k for an input B p); t broadcasts against mu as
        in poly_exp_integral.  Each k's integral is computed once for all
        blocks; each block sums its own k in increasing order."""
        ints = [poly_exp_integral(self.mu, t, k)
                for k in range(max(map(len, forcing), default=0))]
        return [sum(r * I for r, I in zip(rows, ints)) for rows in forcing]


class _ArrayMemo:
    """Read-only array tuples by key; the oldest entries go once the held
    arrays exceed budget bytes, and a tuple larger than budget is not kept."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._store: "OrderedDict[tuple, Tuple[np.ndarray, ...]]" = OrderedDict()

    def get(self, key: tuple, compute: Callable[[], Tuple[np.ndarray, ...]]):
        hit = self._store.get(key)
        if hit is not None:
            return hit
        arrays = compute()
        for a in arrays:
            a.setflags(write=False)
        size = sum(a.nbytes for a in arrays)
        if size <= self.budget:
            self._store[key] = arrays
            self.nbytes += size
            while self.nbytes > self.budget:
                _, old = self._store.popitem(last=False)
                self.nbytes -= sum(a.nbytes for a in old)
        return arrays


# bytes of exponentials one DenseGenerator keeps (170 propagator triples
# at 8 modes).  The repeats are short-range: over 40 flow-property suites
# on 8 modes this budget misses 1875 times, no bound 1647 times, while a
# 1 MiB budget already added 2% to the suites' resident memory.
_DENSE_MEMO_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class DenseGenerator:
    """Bounded generator given by a small dense matrix A.

    Generates the uniformly continuous semigroup e^{At}; the growth
    certificate uses the 2-logarithmic norm: |e^{At}| <= e^{mu2(A) t}
    with mu2 = lambda_max((A + A^T)/2), so M = 1 and lam = max(0, mu2).
    Every operator into this finite state space is bounded, so X_{-1} = X.
    """

    A: np.ndarray
    M: float = 1.0
    lam: Optional[float] = None
    analytic: bool = False

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float).copy()
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("generator matrix must be square")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        if self.lam is None:
            mu2 = float(np.max(np.linalg.eigvalsh(0.5 * (A + A.T))))
            object.__setattr__(self, "lam", max(0.0, mu2))
        object.__setattr__(self, "_memo", _ArrayMemo(_DENSE_MEMO_BYTES))

    @property
    def n_modes(self) -> int:
        return self.A.shape[0]

    @cached_property
    def omega0(self) -> float:
        """Spectral bound of A (A is read-only, so computed once)."""
        return float(np.max(np.linalg.eigvals(self.A).real))

    def _expm(self, t: float) -> np.ndarray:
        """e^{At}, read-only and memoised on the exact float t."""
        return self._memo.get(("T", t), lambda: (scipy.linalg.expm(self.A * t),))[0]

    def apply_T(self, t: float, coeffs: np.ndarray) -> np.ndarray:
        if t < 0:
            raise ValueError("semigroup time must be nonnegative")
        return self._expm(t) @ np.asarray(coeffs, float)

    def propagators(self, h: float, degree: int = 0):
        """(E, P1, P2, Q_2, ..., Q_degree): E = e^{Ah}, P1 = int_0^h e^{A(h-s)} ds,
        P2 = int_0^h e^{A(h-s)} (s/h) ds and Q_k = int_0^h e^{A(h-s)} s^k ds,
        from one augmented expm (Van Loan, IEEE TAC 23, 1978) whose chain has
        max(degree, 1) + 1 identity blocks; read-only, memoised per h and chain."""
        m = max(degree, 1) + 1
        return self._memo.get(("P", h, m), lambda: self._van_loan(h, m))

    def _van_loan(self, h: float, m: int):
        n = self.n_modes
        G = np.kron(np.eye(m + 1, k=1), np.eye(n))  # the chain of identities
        G[:n, :n] = self.A
        F = scipy.linalg.expm(G * h)
        # block j of the top row is int e^{A(h-s)} s^(j-1)/(j-1)! ds
        blocks = [F[:n, j * n : (j + 1) * n] for j in range(m + 1)]
        P2 = blocks[2] / h if h > 0 else np.zeros((n, n))
        return (blocks[0].copy(), blocks[1].copy(), P2,
                *[math.factorial(k) * blocks[k + 1] for k in range(2, m)])

    def window(self, tau: np.ndarray, x0: np.ndarray, forcing):
        """DiagonalSemigroup.window for e^{At}, from the propagators of h:
        powers by repeated squaring of E; free and lin as the two columns of
        one _scan, lin_{j+1} = E lin_j + int_0^h e^{A(h-s)} B p(tau_j + s) ds,
        whose input row j expands (tau_j + s)^i binomially: the sum over
        k <= i <= d of C(i, k) tau_j^(i-k) Q_k B p_i, Q_0 = P1, Q_1 = h P2.
        B p_i sums the blocks first, and each Q_k B p_i is a matrix-vector
        product taken before its scalar weights: that order keeps the bytes
        (the gemm (S, N) @ P1.T is 1 ulp off P1 B p_0)."""
        S = tau.shape[0] - 1
        h = float(tau[-1]) / S
        d = forcing[0].shape[0] - 1 if forcing else 0
        E, P1, P2, *Q = self.propagators(h, d)
        powers = [E]
        for _ in range(S.bit_length() - 1):
            powers.append(powers[-1] @ powers[-1])
        c = np.zeros((S + 1, 2, self.n_modes))
        c[0] = x0
        if forcing:
            Bp = reduce(np.add, forcing)
            Q = [P1, h * P2] + Q
            c[1:, 1] = reduce(np.add, [
                np.multiply.outer(math.comb(i, k) * tau[:-1] ** (i - k), Q[k] @ Bp[i])
                for k in range(d + 1) for i in range(k, d + 1)])
        _scan(c, powers)
        return powers, P1 - P2, P2, c[:, 0], c[:, 1]

    def sg_distance(self, t: float, coeffs: np.ndarray, alpha: float = 0.0) -> float:
        if alpha != 0.0:
            raise ValueError("fractional scale not defined for the dense ODE mode")
        x = np.asarray(coeffs, float)
        return float(np.linalg.norm(self.apply_T(t, x) - x))


def heat_dirichlet_semigroup(n_modes: int, omega: float = 1.0) -> DiagonalSemigroup:
    """Dirichlet Laplacian on (0, pi) in the sine eigenbasis: mu_n = -n^2.

    The default omega = 1 gives the fractional weights (1 + n^2)^alpha.
    """
    n = np.arange(1, n_modes + 1, dtype=float)
    return DiagonalSemigroup(mu=-(n ** 2), omega=omega, M=1.0, lam=0.0, analytic=True)


SEMIGROUP_FAMILIES = {
    "dirichlet_laplacian_0_pi": heat_dirichlet_semigroup,
}
