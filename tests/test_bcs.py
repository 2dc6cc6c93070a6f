import math

import numpy as np
import pytest

from semiflow import (
    Bounded,
    DenseGenerator,
    PolySignal,
    QAdmissible,
    SmoothClass,
    SolverConfig,
    SpectralState,
    class_octave_ratio,
    dirichlet_heat_0_pi,
    make_input_operator,
    representation_crosscheck,
)
from semiflow.bcs import BCS_FAMILIES, BoundaryControlSystem, OCTAVE_DECAY_THRESHOLD
from semiflow.burgers import BurgersSystem
from semiflow.nonlinearities import arctan_saturation


def test_family_registry():
    assert "dirichlet_heat_0_pi" in BCS_FAMILIES


def test_dirichlet_heat_structure():
    bcs = dirichlet_heat_0_pi(16)
    n = np.arange(1, 17, dtype=float)
    assert bcs.m == 1
    assert np.allclose(bcs.lifting[:, 0], math.sqrt(2.0 / math.pi) / n)
    assert np.all(bcs.formal_ar == 0.0)
    assert bcs.label == "dirichlet_heat_0_pi"


def test_validate_passes_and_reports():
    out = dirichlet_heat_0_pi(32).validate()
    assert out["trace_roundtrip_error"] <= 1e-10
    assert out["lifting_octave_ratio"] < OCTAVE_DECAY_THRESHOLD
    assert out["formal_ar_octave_ratio"] < OCTAVE_DECAY_THRESHOLD


def test_validate_rejects_non_decaying_lifting():
    sg = dirichlet_heat_0_pi(32).semigroup
    flat = BoundaryControlSystem(sg, np.ones(32), np.zeros(32))
    with pytest.raises(ValueError, match="not X elements"):
        flat.validate()


def test_shape_normalization_and_guards():
    sg = dirichlet_heat_0_pi(8).semigroup
    bcs = BoundaryControlSystem(sg, 1.0 / np.arange(1, 9) ** 2,
                                np.zeros(8))
    assert bcs.lifting.shape == (8, 1)
    with pytest.raises(ValueError, match="lifting rows"):
        BoundaryControlSystem(sg, np.ones((4, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="shape"):
        BoundaryControlSystem(sg, np.ones((8, 1)) / 64.0, np.zeros((8, 2)))
    # the boundary operator B = formal_ar - mu R needs the diagonal eigenvalues
    with pytest.raises(ValueError, match="DenseGenerator"):
        BoundaryControlSystem(DenseGenerator(np.diag(-np.arange(1.0, 9.0))),
                              np.ones((8, 1)) / 64.0, np.zeros((8, 1)))


def test_boundary_trace_inverts_lift():
    bcs = dirichlet_heat_0_pi(24)
    v = np.array([0.37])
    assert bcs.boundary_trace(bcs.lift(v)) == pytest.approx(v)


def test_induced_operator_matches_burgers_boundary_column():
    # pushing the harmonic lifting through the generator leaves -mu R,
    # which is exactly the Burgers boundary operator's coefficient column
    bcs = dirichlet_heat_0_pi(32)
    B = make_input_operator(bcs, SmoothClass(0.2))
    want = BurgersSystem(32).boundary_operator(0.2).coeffs
    assert np.allclose(B.coeffs, want, rtol=1e-13)


def test_operator_class_refusals():
    bcs = dirichlet_heat_0_pi(64)
    make_input_operator(bcs, SmoothClass(0.2))
    make_input_operator(bcs, SmoothClass(0.1))
    for cls in (SmoothClass(0.25), SmoothClass(0.3), SmoothClass(0.5),
                Bounded(), QAdmissible(2.0), QAdmissible(4.0)):
        with pytest.raises(ValueError, match="not supported by the coefficient"):
            make_input_operator(bcs, cls)


def test_extrapolation_space_gate():
    sg = dirichlet_heat_0_pi(32).semigroup
    # constant lifting column: B = -mu R grows like n^2, too fast even
    # for X_{-1}
    bad = BoundaryControlSystem(sg, np.ones((32, 1)), np.zeros((32, 1)))
    with pytest.raises(ValueError, match="extrapolation-space"):
        make_input_operator(bad, SmoothClass(0.2))


def test_class_octave_ratio_unknown_class():
    bcs = dirichlet_heat_0_pi(16)
    with pytest.raises(TypeError):
        class_octave_ratio(bcs.semigroup, bcs.lifting, "bounded")


def test_crosscheck_quadratic_input():
    bcs = dirichlet_heat_0_pi(32)
    u = PolySignal(np.array([[0.0], [0.0], [1.0]]))  # u(t) = t^2
    rep = representation_crosscheck(bcs, None, SpectralState.zero(32), u, 0.4)
    assert rep.passed
    assert rep.max_difference <= 1e-6
    assert rep.compatibility_defect <= 1e-12
    assert "solver_vs_closed_form" in rep.pairwise
    # the polynomial kernel integrals are closed-form on both sides, so
    # the residual is roundoff, far below the budgeted tolerance
    assert rep.max_difference <= 1e-10


def test_crosscheck_cubic_input_with_lifted_start():
    bcs = dirichlet_heat_0_pi(32)
    u = PolySignal(np.array([[1.0], [1.0], [0.0], [-1.0 / 6.0]]))
    x0 = SpectralState(bcs.lift(u.value(0.0)))
    rep = representation_crosscheck(bcs, None, x0, u, 0.4)
    assert rep.passed
    assert rep.max_difference <= 1e-10


def test_crosscheck_with_nonlinearity():
    bcs = dirichlet_heat_0_pi(32)
    f = arctan_saturation(32, gain=0.1)
    u = PolySignal(np.array([[0.0], [0.0], [1.0]]))
    rep = representation_crosscheck(bcs, f, SpectralState.zero(32), u, 0.4)
    assert rep.passed
    assert "a_vs_b" in rep.pairwise and "solver_vs_closed_form" not in rep.pairwise
    assert "smooth_class" in rep.notes


def test_crosscheck_with_distributed_forcing():
    bcs = dirichlet_heat_0_pi(24)
    u = PolySignal(np.array([[0.0], [1.0]]))  # u(t) = t
    wc = np.zeros((1, 24))
    wc[0] = 0.05 * np.exp(-0.3 * np.arange(24))
    w = PolySignal(wc)
    rep = representation_crosscheck(bcs, None, SpectralState.zero(24), u, 0.3,
                                    w=w)
    assert rep.passed
    assert rep.max_difference <= 1e-9


def test_crosscheck_rejects_incompatible_start():
    bcs = dirichlet_heat_0_pi(32)
    u = PolySignal(np.array([[1.0], [1.0]]))  # u(0) = 1 but x0 = 0
    with pytest.raises(ValueError, match="compatibility condition"):
        representation_crosscheck(bcs, None, SpectralState.zero(32), u, 0.3)


def test_crosscheck_channel_guards():
    bcs = dirichlet_heat_0_pi(16)
    with pytest.raises(ValueError, match="channels"):
        representation_crosscheck(bcs, None, SpectralState.zero(16),
                                  PolySignal(np.zeros((2, 2))), 0.3)
    with pytest.raises(ValueError, match="one channel per mode"):
        representation_crosscheck(bcs, None, SpectralState.zero(16),
                                  PolySignal(np.zeros((2, 1))), 0.3,
                                  w=PolySignal(np.zeros((1, 4))))


def test_crosscheck_report_as_dict():
    bcs = dirichlet_heat_0_pi(16)
    u = PolySignal(np.array([[0.0], [0.5]]))
    rep = representation_crosscheck(bcs, None, SpectralState.zero(16), u, 0.2,
                                    cfg=SolverConfig(substeps_per_window=32))
    payload = rep.as_dict()
    assert set(payload) == {
        "times", "max_difference", "pairwise", "tolerance", "passed",
        "compatibility_defect", "notes",
    }
    assert len(payload["times"]) == 17
