import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiflow import DenseGenerator, DiagonalSemigroup, heat_dirichlet_semigroup
from semiflow.semigroup import phi1, phi2


def test_phi_limits_and_values():
    assert phi1(np.array(0.0)) == 1.0
    assert phi2(np.array(0.0)) == 0.5
    z = np.array([0.3, -2.0, 5.0])
    assert np.allclose(phi1(z), np.expm1(z) / z, rtol=1e-14)


def test_phi2_small_argument_against_longdouble():
    # direct evaluation in 80-bit precision keeps ~12 digits after the
    # cancellation at z = 1e-6; the Taylor branch must agree to 1e-9
    for z in (1e-6, -3e-6, 5e-7):
        zl = np.longdouble(z)
        oracle = float((np.expm1(zl) - zl) / zl ** 2)
        assert phi2(np.array(z)) == pytest.approx(oracle, rel=1e-9)


def test_diagonal_apply_T_and_growth_defaults():
    sg = DiagonalSemigroup(mu=np.array([-2.0, 0.5]), omega=1.0)
    x = np.array([3.0, -1.0])
    assert np.allclose(sg.apply_T(0.7, x), np.exp([-1.4, 0.35]) * x)
    assert sg.lam == 0.5        # max(0, max mu)
    assert sg.M == 1.0
    assert sg.omega0 == 0.5
    with pytest.raises(ValueError):
        sg.apply_T(-0.1, x)


def test_diagonal_validation():
    with pytest.raises(ValueError):
        DiagonalSemigroup(mu=np.array([0.5]), omega=0.4)
    with pytest.raises(ValueError):
        DiagonalSemigroup(mu=np.array([]), omega=1.0)
    with pytest.raises(ValueError):
        DiagonalSemigroup(mu=np.array([0.0]), omega=1.0, M=0.5)


def test_heat_family_weights():
    sg = heat_dirichlet_semigroup(8)
    n = np.arange(1, 9, dtype=float)
    assert np.allclose(sg.mu, -(n ** 2))
    assert sg.analytic and sg.omega == 1.0 and sg.lam == 0.0
    assert np.allclose(sg.frac_weights(0.5), (1.0 + n ** 2) ** 0.5)
    assert np.allclose(sg.frac_weights(-1.0), 1.0 / (1.0 + n ** 2))
    # memoised per order: the same read-only array, bit-equal to a fresh power
    for alpha in (0.5, -1.0, 1.0, 0.2, 0.0):
        w = sg.frac_weights(alpha)
        assert np.array_equal(w, (sg.omega - sg.mu) ** alpha)
        assert sg.frac_weights(alpha) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0


def test_frac_weights_range_check():
    sg = heat_dirichlet_semigroup(4)
    with pytest.raises(ValueError):
        sg.frac_weights(1.5)
    with pytest.raises(ValueError):
        sg.frac_weights(-1.2)


def test_frac_T_norm_single_mode_closed_form():
    sg = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0, analytic=True)
    for alpha in (0.25, 0.5, 0.75):
        for t in (0.1, 0.7, 2.0):
            assert sg.frac_T_norm(alpha, t) == pytest.approx(
                2.0 ** alpha * np.exp(-t), rel=1e-13
            )
    assert sg.frac_T_norm(0.0, 0.0) == 1.0


def test_frac_T_norm_guards():
    non_analytic = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0)
    with pytest.raises(ValueError):
        non_analytic.frac_T_norm(0.5, 0.1)
    sg = heat_dirichlet_semigroup(4)
    with pytest.raises(ValueError):
        sg.frac_T_norm(0.5, 0.0)


def test_smoothing_constant_closed_form_heat():
    # per mode sup_t t^a (1+n^2)^a e^{-n^2 t} peaks at t = a/n^2 with value
    # a^a e^{-a} ((1+n^2)/n^2)^a, maximized by n = 1; kappa is
    # omega0 + 1 = 0 for the heat family
    sg = heat_dirichlet_semigroup(64)
    for alpha in (0.25, 0.5, 0.75):
        want = alpha ** alpha * np.exp(-alpha) * 2.0 ** alpha
        got = sg.smoothing_constant(alpha)
        assert got == pytest.approx(want, rel=2e-3)
        assert got <= want * (1 + 1e-12)  # grid sup cannot exceed the true sup


def test_smoothing_constant_dominates_random_times():
    sg = heat_dirichlet_semigroup(64)
    rng = np.random.default_rng(3)
    for alpha in (0.3, 0.6):
        C = sg.smoothing_constant(alpha)
        kappa = sg.omega0 + 1.0
        for t in rng.uniform(1e-6, 1.0, size=200):
            v = t ** alpha * sg.frac_T_norm(alpha, t) * np.exp(-kappa * t)
            assert v <= C * 1.005


def _sampled_smoothing_constant(sg, beta, kappa, t_max=1.0):
    """The constant as it used to be computed: the largest value of
    t^beta |(omega - A)^beta T(t)| e^{-kappa t} on 16 points per octave."""
    worst = 0.0
    for j in range(48):
        for frac in np.linspace(1.0, 1.9375, 16):
            t = t_max * 2.0 ** (-j) * frac
            if t <= t_max * (1 + 1e-12):
                worst = max(worst, t ** beta * sg.frac_T_norm(beta, t) * np.exp(-kappa * t))
    return worst


def test_smoothing_constant_is_above_the_sampled_value():
    # at beta = 0.8 the peak t* = 0.8 of mode 1 falls between grid points,
    # so the sampled value was no bound; the closed form is the peak itself
    sg = heat_dirichlet_semigroup(16)
    C = sg.smoothing_constant(0.8)
    assert C == pytest.approx(0.8 ** 0.8 * np.exp(-0.8) * 2.0 ** 0.8, rel=1e-14)
    assert C - _sampled_smoothing_constant(sg, 0.8, 0.0) > 5e-5 * C


_SPECTRA = [
    heat_dirichlet_semigroup(16),
    DiagonalSemigroup(mu=-np.sort(np.random.default_rng(1).uniform(0.5, 400.0, 24)),
                      omega=1.0, analytic=True),
    # a growing mode: kappa = omega0 + 1 = 1.5 > 0
    DiagonalSemigroup(mu=np.array([0.5, -1.0, -30.0]), omega=1.0, analytic=True),
]


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.8])
@pytest.mark.parametrize("case", range(len(_SPECTRA)))
def test_smoothing_constant_dominates_log_spaced_samples(case, beta):
    sg = _SPECTRA[case]
    C = sg.smoothing_constant(beta)
    kappa = sg.omega0 + 1.0
    worst = 0.0
    for t in np.array_split(np.geomspace(1e-9, 1.0, 10 ** 5), 20):
        norms = np.max(sg.frac_weights(beta) * np.exp(np.outer(t, sg.mu)), axis=1)
        worst = max(worst, float(np.max(t ** beta * norms * np.exp(-kappa * t))))
    assert worst <= C * (1 + 1e-13)
    assert worst >= C * (1 - 1e-6)  # and the samples come close to it


def test_smoothing_constant_beta_zero_is_M():
    sg = DiagonalSemigroup(mu=np.array([-1.0]), omega=1.0, M=2.0, analytic=True)
    assert sg.smoothing_constant(0.0) == 2.0


def test_sg_distance_closed_form():
    sg = DiagonalSemigroup(mu=np.array([-3.0, 1.0]), omega=2.0, analytic=True)
    x = np.array([2.0, 0.5])
    t = 0.4
    want = np.linalg.norm((np.exp(sg.mu * t) - 1.0) * x)
    assert sg.sg_distance(t, x) == pytest.approx(want, rel=1e-14)
    w = sg.frac_weights(0.5)
    want_a = np.linalg.norm(w * (np.exp(sg.mu * t) - 1.0) * x)
    assert sg.sg_distance(t, x, alpha=0.5) == pytest.approx(want_a, rel=1e-14)


@given(
    s=st.floats(0.0, 2.0),
    t=st.floats(0.0, 2.0),
)
def test_semigroup_property(s, t):
    sg = heat_dirichlet_semigroup(6)
    x = np.linspace(1.0, 0.2, 6)
    lhs = sg.apply_T(s, sg.apply_T(t, x))
    rhs = sg.apply_T(s + t, x)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_dense_generator_log_norm_certificate():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # skew: |e^{At}| = 1, mu2 = 0
    g = DenseGenerator(A)
    assert g.lam == 0.0 and g.M == 1.0
    x = np.array([1.0, 0.0])
    for t in (0.5, 1.5, 3.0):
        assert np.linalg.norm(g.apply_T(t, x)) == pytest.approx(1.0, rel=1e-12)


def test_dense_generator_requires_square():
    with pytest.raises(ValueError):
        DenseGenerator(np.zeros((2, 3)))


def test_dense_propagators_vs_closed_form():
    # for invertible A: P1 = A^{-1}(e^{Ah}-I),
    # P2 = (1/h)[A^{-1}(e^{Ah}-I)h - stuff] has the closed form below via
    # int_0^h sigma e^{A sigma} d sigma = A^{-2}(e^{Ah}(Ah - I) + I)
    import scipy.linalg

    A = np.array([[-1.0, 0.3], [0.2, -0.7]])
    h = 0.37
    E, P1, P2 = DenseGenerator(A).propagators(h)
    Ainv = np.linalg.inv(A)
    expAh = scipy.linalg.expm(A * h)
    I = np.eye(2)
    P1_cf = Ainv @ (expAh - I)
    int_sigma = Ainv @ Ainv @ (expAh @ (A * h - I) + I)
    P2_cf = P1_cf - int_sigma / h
    assert np.allclose(E, expAh, rtol=1e-12)
    assert np.allclose(P1, P1_cf, rtol=1e-11)
    assert np.allclose(P2, P2_cf, rtol=1e-10)


def test_dense_propagators_match_diagonal_phi_rule():
    mu = np.array([-2.0, -0.5, 0.3])
    h = 0.25
    E, P1, P2 = DenseGenerator(np.diag(mu)).propagators(h)
    assert np.allclose(np.diag(E), np.exp(mu * h), rtol=1e-12)
    assert np.allclose(np.diag(P1), h * phi1(mu * h), rtol=1e-11)
    assert np.allclose(np.diag(P2), h * phi2(mu * h), rtol=1e-10)


def _non_normal_generator():
    rng = np.random.default_rng(2211)
    return -np.diag(np.arange(1.0, 9.0)) + np.triu(rng.uniform(-1.5, 1.5, (8, 8)), 1)


@pytest.mark.parametrize("degree", [0, 1])
def test_dense_propagators_low_degree_keep_the_three_block_chain(degree):
    # degree <= 1 needs no Q_k, so the Van Loan chain stays [[A, I, 0],
    # [0, 0, I], [0, 0, 0]] and (E, P1, P2) keep their bytes
    import scipy.linalg

    A = _non_normal_generator()
    n = A.shape[0]
    for h in (0.37, 0.37 / 64, 1e-3):
        G = np.zeros((3 * n, 3 * n))
        G[:n, :n] = A
        G[:n, n : 2 * n] = np.eye(n)
        G[n : 2 * n, 2 * n :] = np.eye(n)
        F = scipy.linalg.expm(G * h)
        got = DenseGenerator(A).propagators(h, degree)
        assert len(got) == 3
        for a, b in zip(got, (F[:n, :n], F[:n, n : 2 * n], F[:n, 2 * n :] / h)):
            assert np.array_equal(a, b)


def test_dense_propagators_higher_moments_against_quadrature():
    import scipy.integrate
    import scipy.linalg

    A = _non_normal_generator()

    def moment(h, k):
        return scipy.integrate.quad_vec(
            lambda s: scipy.linalg.expm(A * (h - s)) * s ** k, 0.0, h,
            epsabs=0.0, epsrel=1e-14, norm="max")[0]

    for h in (0.01, 0.1, 0.37, 0.7):
        E, P1, P2, *Q = DenseGenerator(A).propagators(h, 4)
        assert len(Q) == 3
        for k, Qk in zip((2, 3, 4), Q):
            ref = moment(h, k)
            assert np.max(np.abs(Qk - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the augmented exponential is accurate relative to its whole norm, not
    # to each block: at h = 1e-3 the s^3 and s^4 moments (about 2.5e-13 and
    # 2e-16) carry relative errors near 1e-10 and 1e-7, absolute ones near 1e-23
    E, P1, P2, *Q = DenseGenerator(A).propagators(1e-3, 4)
    for k, Qk in zip((2, 3, 4), Q):
        assert np.max(np.abs(Qk - moment(1e-3, k))) <= 1e-19


def test_dense_sg_distance_refuses_fractional():
    g = DenseGenerator(np.array([[-1.0]]))
    with pytest.raises(ValueError):
        g.sg_distance(0.1, np.array([1.0]), alpha=0.5)


def test_diagonal_refuses_lam_below_growth_bound():
    with pytest.raises(ValueError, match="growth bound"):
        DiagonalSemigroup(mu=np.array([1.0]), omega=2.0, lam=0.0)
    sg = DiagonalSemigroup(mu=np.array([-1.0, -2.0]), omega=1.0, lam=-1.0)
    assert sg.lam == -1.0  # exact for a decaying spectrum



def test_dense_memo_is_read_only_and_bit_identical():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 6)) - 2.0 * np.eye(6)
    x = rng.normal(size=6)
    g = DenseGenerator(A)
    for h in (0.37, 0.37 / 64, 0.0):
        first = g.propagators(h)
        again = g.propagators(h)
        fresh = DenseGenerator(A).propagators(h)
        for a, b, c in zip(first, again, fresh):
            assert a is b and not a.flags.writeable
            assert np.array_equal(a, c)
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        assert not g._expm(h).flags.writeable
        assert np.array_equal(g.apply_T(h, x), DenseGenerator(A).apply_T(h, x))
        assert g.sg_distance(h, x) == DenseGenerator(A).sg_distance(h, x)


def test_dense_memo_stays_within_its_budget():
    from semiflow.semigroup import _DENSE_MEMO_BYTES

    n = 32
    g = DenseGenerator(-np.eye(n) + 0.01 * np.ones((n, n)))
    per_entry = 3 * n * n * 8
    hs = [0.01 * (1 + k / 512) for k in range(_DENSE_MEMO_BYTES // per_entry + 40)]
    for h in hs:
        g.propagators(h)
        assert g._memo.nbytes <= _DENSE_MEMO_BYTES
    assert g._memo.nbytes > _DENSE_MEMO_BYTES - per_entry  # full, oldest evicted
    assert g.propagators(hs[-1])[0] is g.propagators(hs[-1])[0]


def _window_inputs(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n), [rng.normal(size=(3, n)), rng.normal(size=(3, n))]


@pytest.mark.parametrize("dense", [False, True])
def test_window_plan_memo_is_bit_identical_to_a_cold_build(dense):
    mu = np.array([0.4, -1.0, -3.0, -250.0])
    if dense:
        A = np.diag(mu) + np.triu(np.full((4, 4), 0.3), 1)
        make = lambda: DenseGenerator(A)  # noqa: E731
    else:
        make = lambda: DiagonalSemigroup(mu=mu, omega=1.0)  # noqa: E731
    warm = make()
    for S, t1 in [(16, 0.25), (17, 0.25), (8, 0.25 / 3), (16, 0.25)]:
        for seed in (1, 2):
            x0, forcing = _window_inputs(4, seed)
            for f in (forcing, forcing[:1], []):
                got = warm.window(t1, S, x0, f)
                want = make().window(t1, S, x0, f)
                assert len(got) == len(want) == 6
                for a, b in zip(got, want):
                    assert all(np.array_equal(p, q) for p, q in zip(a, b))
                assert np.array_equal(got[0], np.linspace(0.0, t1, S + 1))
                assert not got[0].flags.writeable
    # a repeated (t1, S) is served from the memo, not rebuilt
    x0, forcing = _window_inputs(4, 3)
    assert warm.window(0.25, 16, x0, forcing)[0] is warm.window(0.25, 16, -x0, forcing)[0]
