"""Diagonal semigroup realizations, fractional powers, and growth certificates.

A diagonal generator A acts mode-wise by real eigenvalues mu_n, so T(t) is
exact per-mode exponential scaling and the scale of fractional spaces
X_beta carries the weight (omega - mu_n)^beta.  The extrapolation space
X_{-1} is the beta = -1 member.  A small dense-matrix generator (bounded
operator, uniformly continuous semigroup) is provided for the finite ODE
mode of the solver; it shares the (M, lambda) growth-certificate interface.

Both carry a solver window through one method, window(t1, S, x0, forcing);
the dense mode takes polynomial inputs as the diagonal one does.  The part
of a window that does not depend on x0 or the input, its propagation plan
(the substep grid, the scan powers, the weights of the f samples, and on
the diagonal T(tau)), is memoised per instance on the exact (t1, S), in a
byte budget: the solver's window lengths repeat (dyadic fractions of the
same caps).  The diagonal mode's input integrals (one (S+1, N) array per
power of the input polynomial) sit in the same memo, keyed on (t1, S, d),
when they fit its budget; so do the dense mode's exponentials.  _act and
_scan are the one doubling scan both modes share; it writes each product
into a caller-owned scratch block instead of a temporary.

scipy.linalg is imported inside _matrix_exp, on a DenseGenerator's first
memo miss, so importing this module loads numpy only; a memo hit runs no
import statement.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Optional, Tuple

import numpy as np

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


def _act(M: np.ndarray, shape: Tuple[int, ...]):
    """M applied to the last axis of arrays x of the given shape, as (op, K):
    op(x, K, out) writes M x into out, which must not overlap x.  Per-mode
    factors (diagonal mode) act as x * K with K the factors tiled to the
    shape, so the ufunc sees two operands of one shape and takes numpy's
    contiguous loop, which at window sizes (17 x 12, 17 x 1) skips about
    0.5 us of broadcast set-up per call for the same products; a matrix
    (dense mode) acts as x @ M.T."""
    if M.ndim == 1:
        K = np.empty(shape)
        K[...] = M
        return np.multiply, K
    return np.matmul, M.T


def _scan_steps(c: np.ndarray, powers, work: np.ndarray):
    """The doubling steps of a _scan of the n rows of c, for offsets
    d = 2^k, k < (n-1).bit_length() = ceil(log2 n): (op, c[:-d], K,
    work[:n-d], c[d:]) with (op, K) the _act of powers[k] = E^(2^k); later
    powers are not read.  work holds at least n-1 rows shaped like c's, and
    no row of c.  Built once per window, the steps serve every sweep over
    the same c."""
    n = c.shape[0]
    steps = []
    for k in range((n - 1).bit_length()):
        d = 1 << k
        steps.append((*_act(powers[k], c[d:].shape), c[: n - d], work[: n - d], c[d:]))
    return steps


def _scan(steps) -> None:
    """Solve c[j+1] = E c[j] + r_j in place over the rows
    c = [c0, r_0, ..., r_{n-2}] of _scan_steps(c, powers, work).

    Hillis-Steele doubling (Blelloch 1990): after the step with offset d
    every row holds its recurrence value restricted to the last 2d inputs,
    so ceil(log2 n) steps of c[d:] += E^d c[:-d] replace n-1 sequential
    ones.  Each step writes E^d c[:-d] into its work rows, then adds them
    onto c[d:]: the two roundings per element of c[d:] += E^d c[:-d],
    without a temporary array.
    """
    for op, K, src, tmp, dst in steps:
        np.add(dst, op(src, K, tmp), dst)


# bytes of window plans and input integrals one DiagonalSemigroup keeps.
# Over five props_diag suites (12 modes, S = 16, 2.3 kB a plan) 89% of the
# windows repeat an exact (t1, S), and 83% of the plans hit at this budget
# alone, 81% at half of it and 88% at four times it; the larger memo costs
# resident memory and buys little.  With the integrals (1.6 kB a window
# length) in it, 81% of the plan and 69% of the integral requests hit.
_PLAN_MEMO_BYTES = 1 << 16


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
        object.__setattr__(self, "_memo", _ArrayMemo(_PLAN_MEMO_BYTES))

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

    def smoothing_constant(self, beta: float) -> float:
        """Constant C with |(omega*I-A)^beta T(t)| <= C t^-beta e^{kappa t}
        on (0, 1] for kappa = omega0 + 1, exact: the sup over (0, 1] of
        t^beta frac_T_norm(beta, t) e^{-kappa t}.

        The sup over t of a max over modes is the max over modes of
        sup_t (omega - mu_n)^beta t^beta e^{-(kappa - mu_n) t}.  That
        function rises to its peak at t* = beta / (kappa - mu_n) and falls
        after it; the rate kappa - mu_n is at least 1 > beta, so t* < 1 and
        the peak is the sup (and it bounds the sup over all t > 0 anyway).
        """
        if beta == 0.0:
            return self.M
        if not 0.0 < beta < 1.0:
            raise ValueError("smoothing norm defined for beta in [0, 1)")
        if not self.analytic:
            raise ValueError("fractional smoothing norms need an analytic semigroup")
        cached = self._sc_cache.get(beta)
        if cached is not None:
            return cached
        rate = self.omega0 + 1.0 - self.mu
        t = beta / rate
        value = float(np.max(self.frac_weights(beta) * t ** beta * np.exp(-rate * t)))
        self._sc_cache[beta] = value
        return value

    def sg_distance(self, t: float, coeffs: np.ndarray, alpha: float = 0.0) -> float:
        """|(T(t) - I) x| in the X_alpha norm; the strong-continuity modulus."""
        w = 1.0 if alpha == 0.0 else self.frac_weights(alpha)
        # np.linalg.norm of the fresh 1-D v, bit for bit, without its wrapper
        v = w * (np.exp(self.mu * t) - 1.0) * np.asarray(coeffs, float)
        return math.sqrt(v.dot(v))

    def window(self, t1: float, S: int, x0: np.ndarray, forcing):
        """(tau, powers, A1, A2, free, lin) of one solver window [0, t1] of S
        equal substeps h: tau = linspace(0, t1, S+1); powers[k] = T(h)^(2^k)
        for a _scan of the S rows 1..S; A1, A2 weigh the f samples at the two
        ends of a substep (piecewise-linear reconstruction); free = T(tau) x0;
        lin = free + int_0^tau T_{-1}(tau-s) B p(s) ds.  forcing holds one
        (d+1, N) array per input block, row k of block i being B_i p_k.
        Each block's part is its rows against the integrals of convolve,
        summed across blocks, then onto free: that order keeps the bytes.
        Everything but free and lin is the plan of (t1, S), memoised and
        read-only; so are the integrals poly_exp_integral(mu, tau, k), k < d,
        keyed on (t1, S, d), while they fit the memo's budget (one
        (S+1, N) array for a piecewise-constant input)."""
        tau, powers, A1, A2, T = self._memo.get(("W", t1, S), lambda: self._plan(t1, S))
        free = T * x0[None, :]
        if not forcing:
            return tau, powers, A1, A2, free, free
        d = max(map(len, forcing))
        ints = self._memo.get(("I", t1, S, d),
                              lambda: self._integrals(tau[:, None], d))
        return tau, powers, A1, A2, free, free + reduce(np.add, _combine(forcing, ints))

    def _plan(self, t1: float, S: int):
        """(tau, powers, A1, A2, T(tau)) of window; linspace puts t1 at the end
        exactly, so h = t1 / S."""
        tau = np.linspace(0.0, t1, S + 1)
        h = float(tau[-1]) / S
        z = self.mu * h
        powers = np.exp(np.multiply.outer(2.0 ** np.arange((S - 1).bit_length()), z))
        p2 = phi2(z)
        return tau, powers, h * (phi1(z) - p2), h * p2, np.exp(np.outer(tau, self.mu))

    def _integrals(self, t, d: int):
        """(poly_exp_integral(mu, t, k) for k < d)."""
        return tuple([poly_exp_integral(self.mu, t, k) for k in range(d)])

    def convolve(self, t, forcing):
        """int_0^t e^{mu (t-s)} sum_k rows[k] s^k ds per mode for each block
        rows of forcing (B p_k for an input B p); t broadcasts against mu as
        in poly_exp_integral.  Each k's integral is computed once for all
        blocks; each block sums its own k in increasing order."""
        return _combine(forcing, self._integrals(t, max(map(len, forcing), default=0)))


def _combine(forcing, ints):
    """Each block's sum over k of rows[k] * ints[k], k increasing."""
    return [sum(r * I for r, I in zip(rows, ints)) for rows in forcing]


def _matrix_exp(M: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm(M).  scipy.linalg is imported here, on the first
    dense exponential, not with the package: it is about 0.17 s of import
    time, and only a DenseGenerator's memo misses need it."""
    import scipy.linalg

    return scipy.linalg.expm(M)


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
    The smoothing constants are diagonal-only, so every window constant
    of a dense system is the truncation bound.
    """

    A: np.ndarray
    M: float = 1.0
    lam: Optional[float] = None

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

    def _expm(self, t: float) -> np.ndarray:
        """e^{At}, read-only and memoised on the exact float t."""
        return self._memo.get(("T", t), lambda: (_matrix_exp(self.A * t),))[0]

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
        F = _matrix_exp(G * h)
        # block j of the top row is int e^{A(h-s)} s^(j-1)/(j-1)! ds
        blocks = [F[:n, j * n : (j + 1) * n] for j in range(m + 1)]
        P2 = blocks[2] / h if h > 0 else np.zeros((n, n))
        return (blocks[0].copy(), blocks[1].copy(), P2,
                *[math.factorial(k) * blocks[k + 1] for k in range(2, m)])

    def window(self, t1: float, S: int, x0: np.ndarray, forcing):
        """DiagonalSemigroup.window for e^{At}, from the propagators of
        h = t1 / S: the plan (tau and the powers, by repeated squaring of E)
        is memoised per (t1, S, input degree d), whose E it squares; free and
        lin are the two columns of one _scan of the S+1 rows,
        lin_{j+1} = E lin_j + int_0^h e^{A(h-s)} B p(tau_j + s) ds,
        whose input row j expands (tau_j + s)^i binomially: the sum over
        k <= i <= d of C(i, k) tau_j^(i-k) Q_k B p_i, Q_0 = P1, Q_1 = h P2.
        B p_i sums the blocks first, and each Q_k B p_i is a matrix-vector
        product taken before its scalar weights: that order keeps the bytes
        (the gemm (S, N) @ P1.T is 1 ulp off P1 B p_0)."""
        h = t1 / S
        d = forcing[0].shape[0] - 1 if forcing else 0
        E, P1, P2, *Q = self.propagators(h, d)
        tau, *powers = self._memo.get(("W", t1, S, d), lambda: self._plan(t1, S, E))
        c = np.zeros((S + 1, 2, self.n_modes))
        c[0] = x0
        if forcing:
            Bp = reduce(np.add, forcing)
            Q = [P1, h * P2] + Q
            c[1:, 1] = reduce(np.add, [
                np.multiply.outer(math.comb(i, k) * tau[:-1] ** (i - k), Q[k] @ Bp[i])
                for k in range(d + 1) for i in range(k, d + 1)])
        _scan(_scan_steps(c, powers, np.empty_like(c[1:])))
        return tau, powers, P1 - P2, P2, c[:, 0], c[:, 1]

    @staticmethod
    def _plan(t1: float, S: int, E: np.ndarray):
        """(tau, E, E^2, E^4, ...): the S.bit_length() powers a scan of S+1
        rows reads."""
        powers = [E]
        for _ in range(S.bit_length() - 1):
            powers.append(powers[-1] @ powers[-1])
        return (np.linspace(0.0, t1, S + 1), *powers)

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
