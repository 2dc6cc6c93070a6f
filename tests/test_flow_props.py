import json

import numpy as np
import pytest

from semiflow import (
    Bounded,
    DiagonalSemigroup,
    EvolutionSystem,
    InputOperator,
    InputSignal,
    KinfFunction,
    Nonlinearity,
    SolverConfig,
    SpectralState,
    check_axioms,
    check_brs,
    check_cep,
    check_continuous_dependence,
    check_deviation,
    cocycle_residual,
    deviation_suite,
    format_reports,
    heat_dirichlet_semigroup,
    reports_to_json,
    saturated_system,
    solve,
)
import semiflow.solver as solver_module
from semiflow.admissibility import outside_x_alpha
from semiflow.core import _max_row_norm
from semiflow.flow_props import draw_signals, draw_states
from semiflow.nonlinearities import arctan_saturation, scalar_square


def arctan_system(n_modes=6, gain=0.5, input_gain=0.4):
    sg = heat_dirichlet_semigroup(n_modes)
    f = arctan_saturation(n_modes, gain=gain, input_gain=input_gain)
    B = InputOperator(np.eye(n_modes), Bounded())
    return EvolutionSystem(sg, f, B=B)


def test_draw_states_respects_radius():
    rng = np.random.default_rng(0)
    states = draw_states(rng, arctan_system(8), 0.7, 10)
    assert len(states) == 10
    for x in states:
        assert np.linalg.norm(x) <= 0.7 + 1e-12
    # axis corners come first
    assert states[0][0] == 0.7 and np.all(states[0][1:] == 0.0)
    assert states[1][7] == 0.7 and np.all(states[1][:7] == 0.0)


def test_draw_states_pass_the_solver_x_alpha_screen():
    # at 8 modes (heat, alpha = 1/2, seed 0) 75 of 2000 weighted draws used
    # to fail the screen that solve applies to initial states
    sg = heat_dirichlet_semigroup(8)
    sys = EvolutionSystem(sg, arctan_saturation(8, gain=0.5), analytic_alpha=0.5)
    states = draw_states(np.random.default_rng(0), sys, 1.0, 2000)
    assert len(states) == 2000
    for x in states:
        assert sys.working_norm(x) <= 1.0 + 1e-12
    assert not any(outside_x_alpha(sys.weights * x) for x in states)
    # so every draw starts a solve
    for x in states[::200]:
        solve(sys, SpectralState(x), None, 0.01)


def test_draw_signals_respects_radius():
    rng = np.random.default_rng(1)
    sigs = draw_signals(rng, 3, 0.5, 1.0, 6)
    assert len(sigs) == 6
    for u in sigs:
        assert u.sup_norm() <= 0.5 + 1e-12
        assert u.horizon == 1.0
    # the max-amplitude constant is the first probe
    assert np.allclose(np.diff(sigs[0].values, axis=0), 0.0)
    assert sigs[0].sup_norm() == pytest.approx(0.5)


def test_axioms_pass_on_arctan_system():
    sys = arctan_system()
    rep = check_axioms(sys, 0.6, n_samples=3, seed=2)
    assert rep.passed, rep.witness
    per = rep.witness["per_axiom_ratio"]
    assert set(per) == {"identity", "causality", "continuity", "cocycle"}
    # identity and causality are bitwise certificates here: the checkpoint
    # mark makes both runs share every window up to the swap time
    assert per["identity"] == 0.0
    assert per["causality"] == 0.0
    assert per["continuity"] <= 1.0 + rep.tolerance
    assert per["cocycle"] <= 1.0 + rep.tolerance


def test_causality_fails_when_the_window_input_looks_ahead(monkeypatch):
    # a window input whose sups read every later cell of the signal lets the
    # tail swapped in after s_c change the windows taken before s_c, so the
    # two runs reach phi(s_c) along different windows; on this 12-mode
    # arctan system causality then reads 104 at seed 1 (1.5 to 104 on
    # seeds 0, 1, 2 and 4), where the real window input reads 0
    window_input = solver_module._window_input

    def look_ahead(u, t, cap, columns):
        p, sups, u_sup = window_input(u, t, cap, columns)
        if isinstance(u, InputSignal):
            i = min(max(int(u.grid.searchsorted(t, "right")) - 1, 0), u.values.shape[0] - 1)
            rest = u.values[i:]
            sups = [_max_row_norm(rest[:, cols]) for cols in columns]
            u_sup = sups[0] if len(sups) == 1 else _max_row_norm(rest)
        return p, sups, u_sup

    sg = DiagonalSemigroup(mu=-np.arange(1.0, 13.0) ** 2, omega=1.0, analytic=True)
    sys = EvolutionSystem(sg, arctan_saturation(12, gain=0.4, input_gain=0.5),
                          B=InputOperator(np.eye(12), Bounded()))
    kwargs = dict(t_end=0.4, n_samples=3, seed=1, cfg=SolverConfig(substeps_per_window=16),
                  input_radius=5.0)
    rep = check_axioms(sys, **kwargs)
    assert rep.passed and rep.witness["per_axiom_ratio"]["causality"] == 0.0
    monkeypatch.setattr(solver_module, "_window_input", look_ahead)
    rep = check_axioms(sys, **kwargs)
    assert not rep.passed
    assert rep.witness["per_axiom_ratio"]["causality"] > 10.0
    assert rep.worst_ratio == rep.witness["per_axiom_ratio"]["causality"]


def test_cocycle_residual_quadratic_in_substeps():
    sys = arctan_system(gain=0.6, input_gain=0.0)
    x0 = SpectralState(np.array([0.5, -0.3, 0.2, 0.0, 0.1, -0.05]))
    t_end = 0.7
    u = InputSignal.constant(np.full(6, 0.15), t_end)
    split = 3.0 / 8.0 * t_end  # a sample point at every ladder level
    res = [cocycle_residual(sys, x0, u, split, t_end,
                            SolverConfig(substeps_per_window=S))
           for S in (8, 16, 32, 64)]
    assert all(r > 0 for r in res)
    slope = np.polyfit(np.log([1 / 8, 1 / 16, 1 / 32, 1 / 64]), np.log(res), 1)[0]
    assert slope >= 1.8


def test_cocycle_residual_split_validation():
    sys = arctan_system()
    x0 = SpectralState.zero(6)
    with pytest.raises(ValueError):
        cocycle_residual(sys, x0, None, 0.0, 0.5)
    with pytest.raises(ValueError):
        cocycle_residual(sys, x0, None, 0.5, 0.5)


def test_deviation_bound_holds():
    sys = arctan_system()
    x1 = SpectralState(np.array([0.4, 0.0, 0.1, 0.0, 0.0, 0.0]))
    x2 = SpectralState(np.array([0.1, -0.2, 0.0, 0.05, 0.0, 0.0]))
    u = InputSignal.constant(np.full(6, 0.2), 1.0)
    rep = check_deviation(sys, x1, x2, u, 1.0)
    assert rep.passed
    assert rep.witness["R"] > 0
    assert rep.witness["initial_distance"] > 0


def test_deviation_inapplicable_on_blowup():
    sg = DiagonalSemigroup(mu=np.array([0.0]), omega=1.0)
    sys = EvolutionSystem(sg, scalar_square(1))
    rep = check_deviation(sys, SpectralState(np.array([3.0])),
                          SpectralState(np.array([0.1])), None, 2.0)
    assert rep.passed and "inapplicable" in rep.notes


def test_deviation_suite_aggregates():
    sys = arctan_system()
    rep = deviation_suite(sys, 0.8, n_pairs=5, seed=3)
    assert rep.passed
    assert rep.n_samples == 5
    assert rep.worst_ratio < 1.0


def test_continuous_dependence_requires_modulus():
    sg = heat_dirichlet_semigroup(4)
    f = Nonlinearity(
        eval=lambda x, v: np.tanh(x),
        lipschitz=lambda r: 1.0,
        growth_sigma=KinfFunction.identity(),
        label="no_modulus",
    )
    sys = EvolutionSystem(sg, f)
    with pytest.raises(ValueError, match="input modulus"):
        check_continuous_dependence(sys, [], 0.5)


def test_continuous_dependence_bound_holds():
    sys = arctan_system()
    rng = np.random.default_rng(4)
    pairs = []
    for i in range(4):
        x1 = rng.normal(size=6) * 0.3
        dx = rng.normal(size=6) * 0.5 ** (i + 2)
        u_vals = rng.uniform(-0.3, 0.3, size=(2, 6))
        grid = np.array([0.0, 0.4, 0.8])
        u1 = InputSignal(grid, u_vals)
        u2 = InputSignal(grid, u_vals + 0.5 ** (i + 3))
        pairs.append(((SpectralState(x1), u1), (SpectralState(x1 + dx), u2)))
    rep = check_continuous_dependence(sys, pairs, 0.8)
    assert rep.passed, rep.witness
    assert rep.n_samples == 4


def test_saturated_system_coincides_inside_unit_ball():
    sys = arctan_system()
    sat = saturated_system(sys)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=6)
        x *= rng.uniform(0.1, 0.99) / np.linalg.norm(x)
        v = rng.normal(size=6)
        v *= rng.uniform(0.1, 0.99) / np.linalg.norm(v)
        assert np.allclose(sat.f(x, v), sys.f(x, v), atol=1e-14)
    # outside, the companion freezes at the ball boundary
    big = np.full(6, 10.0)
    assert np.allclose(sat.f(big, np.zeros(6)),
                       sys.f(big / np.linalg.norm(big), np.zeros(6)))
    assert sat.f.uniform_lipschitz == sys.f.lipschitz(1.0)
    assert sat.f.label.endswith("_saturated")


def test_saturated_system_evaluates_f_once_per_picard_iteration(monkeypatch):
    # the companion calls the original f directly, so each Picard iteration
    # makes one Nonlinearity.batch call (the kernel's) and counts its rows once
    calls = []
    batch = Nonlinearity.batch
    monkeypatch.setattr(Nonlinearity, "batch",
                        lambda self, X, V: calls.append(self.label) or batch(self, X, V))
    sat = saturated_system(arctan_system(n_modes=4))
    traj = solve(sat, SpectralState(np.full(4, 0.5)), None, 0.5,
                 SolverConfig(substeps_per_window=16))
    assert traj.status.kind == "completed"
    assert len(calls) == sum(d.picard_iters for d in traj.diagnostics)
    assert set(calls) == {sat.f.label}


def test_cep_requires_equilibrium():
    sg = heat_dirichlet_semigroup(4)
    shifted = Nonlinearity(
        eval=lambda x, v: np.ones_like(x),
        lipschitz=lambda r: 0.0,
        growth_sigma=KinfFunction.identity(),
        growth_c=2.0,
        input_modulus=KinfFunction.identity(),
        label="constant",
    )
    sys = EvolutionSystem(sg, shifted)
    with pytest.raises(ValueError, match="not an equilibrium"):
        check_cep(sys, [0.5], [0.5])


def test_cep_finds_delta_on_contractive_system():
    sys = arctan_system(gain=0.3, input_gain=0.2)
    rep = check_cep(sys, [0.5, 1.0], [0.5], n_samples=3, seed=6)
    assert rep.passed, rep.witness
    table = rep.witness["table"]
    assert len(table) == 2
    for row in table:
        assert row["delta"] is not None and row["delta"] > 0
        assert row["sup"] <= row["eps"] * (1 + 1e-9)
    assert "ladder value" in rep.notes


def test_cep_notes_saturated_companion_above_unit_eps():
    sys = arctan_system(gain=0.3, input_gain=0.2)
    rep = check_cep(sys, [2.0], [0.25], n_samples=2, seed=7)
    assert "saturated companion" in rep.notes


def test_brs_passes_with_uniform_certificate():
    sys = arctan_system(gain=0.4, input_gain=0.2)
    rep = check_brs(sys, 0.5, 1.0, n_samples=5, seed=8)
    assert rep.passed
    assert rep.worst_ratio < 1.0
    assert "certified_bound" in rep.witness


def test_brs_reports_blowup_as_failure():
    sg = DiagonalSemigroup(mu=np.array([0.0]), omega=1.0)
    sys = EvolutionSystem(sg, scalar_square(1))
    rep = check_brs(sys, 3.0, 2.0, n_samples=5, seed=9)
    assert not rep.passed
    assert rep.worst_ratio == 2.0
    assert "escapes" in rep.notes
    assert "t_blowup" in rep.witness


def test_brs_without_uniform_certificate_reports_sup_only():
    sg = DiagonalSemigroup(mu=np.array([-2.0]), omega=1.0)
    sys = EvolutionSystem(sg, scalar_square(1))
    rep = check_brs(sys, 0.2, 0.5, n_samples=4, seed=10)
    assert rep.passed
    assert "sampled sup only" in rep.notes


def test_window_plan_memo_stays_within_its_budget_over_a_suite():
    # a flow-property suite of the benchmark's props_diag size: 12 modes,
    # S = 16; every plan request is followed by a look at the held bytes
    from semiflow.semigroup import _PLAN_MEMO_BYTES

    sys = arctan_system(12, gain=0.4, input_gain=0.5)
    memo = sys.semigroup._memo
    get, held, hits = memo.get, [], []

    def watched(key, compute):
        hits.append(key in memo._store)
        out = get(key, compute)
        held.append(memo.nbytes)
        return out

    memo.get = watched
    cfg = SolverConfig(substeps_per_window=16)
    for seed in (0, 1):
        assert deviation_suite(sys, tau=0.4, n_pairs=3, seed=seed, cfg=cfg).passed
        assert check_cep(sys, eps_grid=[0.5], h_grid=[0.4], cfg=cfg, n_samples=2,
                         seed=seed, ladder_steps=6).passed
    assert max(held) <= _PLAN_MEMO_BYTES
    assert len(held) > 100 and sum(hits) > len(hits) // 2


def test_report_formatting_and_json(tmp_path):
    sys = arctan_system()
    rep = deviation_suite(sys, 0.5, n_pairs=2, seed=11)
    text = format_reports([rep])
    assert text.startswith("[PASS] deviation: worst ratio")
    path = tmp_path / "reports.json"
    reports_to_json([rep], str(path))
    payload = json.loads(path.read_text())
    assert payload[0]["property"] == "deviation"
    assert payload[0]["passed"] is True
    assert set(payload[0]) == {
        "property", "n_samples", "worst_ratio", "passed", "tolerance",
        "witness", "notes",
    }
