"""Spectral gap, rate fitting, basin experiments, perturbation sweeps."""
from dataclasses import replace

import numpy as np
import pytest

from lvmut import analysis
from lvmut.analysis import (
    convergence_rate,
    global_stability_experiment,
    perturbation_sweep,
    spectral_gap,
)
from lvmut.dynamics import Trajectory, integrate
from lvmut.entropy import decompose
from lvmut.equilibrium import equilibrium_auto, equilibrium_uniform
from lvmut.errors import (
    AsymmetricMutation,
    DimensionMismatch,
    InsufficientTail,
    NonPositiveRate,
    NonPositiveReference,
    OutOfTheoremScope,
)
from lvmut.model import build_model, uniform_linear
from lvmut.presets import get_preset

_SYM2_VBAR = np.array([5.0, 5.0])


def test_spectral_gap_sym2_oracle():
    model = get_preset("sym2").model
    rep = spectral_gap(model, _SYM2_VBAR)
    assert rep.c1 == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(rep.eigenvalues, [0.0, 0.2], atol=1e-12)
    assert np.allclose(np.abs(rep.kernel_vector), 1.0 / np.sqrt(2.0))
    assert np.allclose(rep.d_matrix, np.diag([0.1, 0.1]))
    assert np.array_equal(rep.m_tilde, model.mu)


def test_spectral_gap_scale_invariant():
    model = get_preset("sym2").model
    base = spectral_gap(model, _SYM2_VBAR)
    for s in (0.5, 3.0):
        assert spectral_gap(model, s * _SYM2_VBAR).c1 == pytest.approx(base.c1, abs=1e-12)


def test_spectral_gap_off_ray_reference():
    # D - mu keeps the supplied reference in its kernel; with v = (1, 9)
    # the nonzero eigenvalue is the trace 0.9 + 0.1/9
    model = get_preset("sym2").model
    rep = spectral_gap(model, np.array([1.0, 9.0]))
    assert rep.c1 == pytest.approx(0.9 + 0.1 / 9.0, abs=1e-12)


def test_spectral_gap_gates_and_scalar_case():
    asym = build_model(
        2, [1.0, 1.0], 10.0, [[0.0, 0.1], [0.2, 0.0]], uniform_linear([1.0, 1.0])
    )
    with pytest.raises(AsymmetricMutation):
        spectral_gap(asym, np.array([5.0, 5.0]))
    with pytest.raises(NonPositiveReference):
        spectral_gap(get_preset("sym2").model, np.array([0.0, 5.0]))
    scalar = build_model(1, [1.0], 1.0, np.zeros((1, 1)), uniform_linear([1.0]))
    assert spectral_gap(scalar, np.array([1.0])).c1 == np.inf


def test_rayleigh_quotients_respect_gap():
    model = get_preset("mut4").model
    v_bar = equilibrium_uniform(model).v_bar
    rep = spectral_gap(model, v_bar)
    a = rep.d_matrix - rep.m_tilde
    rng = np.random.default_rng(41)
    worst = np.inf
    for _ in range(200):
        h = rng.normal(size=4)
        h -= (h @ v_bar) / (v_bar @ v_bar) * v_bar
        quot = float(h @ (a @ h)) / float(h @ h)
        worst = min(worst, quot)
        assert quot >= rep.c1 - 1e-9
    assert worst <= rep.eigenvalues[-1] + 1e-9


def test_convergence_rate_sym2():
    preset = get_preset("sym2")
    traj = integrate(
        preset.model, preset.v0, 40.0, record_every=0.08, rtol=1e-10, atol=1e-12
    )
    rep = convergence_rate(traj, _SYM2_VBAR, predicted_c1=0.2)
    # orthogonal energy decays at exactly 2 c1 for the two-genotype model
    assert rep.fitted_rate_eh == pytest.approx(-0.4, abs=1e-3)
    assert rep.fitted_rate_sup == pytest.approx(-0.2, abs=1e-3)
    assert rep.r_squared >= 0.999
    assert rep.predicted_c1 == 0.2
    assert rep.window[0] >= 19.9
    assert rep.window[1] <= 40.0
    assert rep.n_points >= 20


def test_convergence_rate_guards():
    flat = Trajectory(
        times=np.linspace(0.0, 10.0, 101),
        states=np.tile(_SYM2_VBAR, (101, 1)),
        accepted_steps=0,
        rejected_steps=0,
        tol_used=(1e-8, 1e-10),
    )
    with pytest.raises(InsufficientTail):
        convergence_rate(flat, _SYM2_VBAR)
    moving = integrate(get_preset("sym2").model, np.array([8.0, 2.0]), 10.0,
                       record_every=0.1)
    with pytest.raises(ValueError):
        convergence_rate(moving, _SYM2_VBAR, tail_fraction=0.0)
    with pytest.raises(ValueError):
        convergence_rate(moving, _SYM2_VBAR, tail_fraction=1.5)


@pytest.mark.parametrize("name", ["sym2", "fit2asym", "mut4", "pert2"])
def test_default_tolerance_rates_follow_the_spectral_gap(name):
    # at the CLI's default tolerances the fit ends where E(h) meets the
    # integration error, so both rates follow c1 on the symmetric presets
    preset = get_preset(name)
    v_bar = equilibrium_auto(preset.model).v_bar
    c1 = spectral_gap(preset.model, v_bar).c1
    traj = integrate(preset.model, preset.v0, preset.t_end)
    rep = convergence_rate(traj, v_bar, predicted_c1=c1)
    assert rep.fitted_rate_eh == pytest.approx(-2.0 * c1, rel=1e-3)
    assert rep.fitted_rate_sup == pytest.approx(-c1, rel=1e-3)
    assert rep.r_squared >= 0.999


def test_rate_floor_follows_the_tolerance():
    preset = get_preset("fit2asym")
    v_bar = equilibrium_auto(preset.model).v_bar
    ends = []
    for rtol, atol in ((1e-6, 1e-8), (1e-10, 1e-12)):
        traj = integrate(preset.model, preset.v0, preset.t_end, rtol=rtol, atol=atol)
        rep = convergence_rate(traj, v_bar)
        floor = 1e4 * float(np.sum((rtol * v_bar + atol) ** 2))
        e_h = decompose(traj.states, v_bar).e_h
        last = int(np.searchsorted(traj.times, rep.window[1]))
        assert e_h[last] > floor
        assert np.all(e_h[last + 1:] <= floor)
        ends.append(rep.window[1])
    assert ends[0] < ends[1]
    # a closed-form trajectory (no tolerance) keeps only the rounding floor
    exact = replace(traj, tol_used=(0.0, 0.0))
    assert convergence_rate(exact, v_bar).window[1] > ends[1]


def test_global_stability_single_sample():
    model = get_preset("sym2").model
    rep = global_stability_experiment(model, n_samples=1, seed=2, t_end=100.0, tol=1e-6)
    assert rep.converged
    assert rep.max_pairwise_gap == 0.0
    assert rep.max_equilibrium_gap <= 1e-6
    assert rep.endpoints.shape == (1, 2)
    assert np.allclose(rep.attractor, _SYM2_VBAR, atol=1e-10)
    assert rep.in_scope
    assert (rep.n_samples, rep.seed, rep.t_end, rep.tol) == (1, 2, 100.0, 1e-6)


@pytest.mark.parametrize("n_samples", [0, -3])
def test_global_stability_needs_a_sample(n_samples):
    model = get_preset("sym2").model
    with pytest.raises(ValueError, match="n_samples"):
        global_stability_experiment(model, n_samples=n_samples, seed=0, t_end=10.0, tol=1e-6)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_global_stability_needs_a_finite_nonnegative_tol(tol):
    model = get_preset("sym2").model
    with pytest.raises(ValueError, match="tol"):
        global_stability_experiment(model, n_samples=2, seed=0, t_end=10.0, tol=tol)


def test_global_stability_scope_gate():
    model = get_preset("crowd3").model
    with pytest.raises(OutOfTheoremScope):
        global_stability_experiment(model, n_samples=2, seed=0, t_end=10.0, tol=1e-3)
    rep = global_stability_experiment(
        model, n_samples=2, seed=0, t_end=10.0, tol=1e-3, force=True
    )
    assert not rep.in_scope
    assert rep.endpoints.shape == (2, 3)


def test_global_stability_mut4():
    model = get_preset("mut4").model
    rep = global_stability_experiment(model, n_samples=3, seed=5, t_end=150.0, tol=1e-5)
    assert rep.converged
    assert rep.max_equilibrium_gap <= 1e-5
    assert np.allclose(rep.attractor, 25.0, atol=1e-9)


def test_global_stability_equals_a_loop_over_integrate():
    model = get_preset("mut4").model
    rep = global_stability_experiment(model, n_samples=6, seed=404, t_end=60.0, tol=1e-3)
    rng = np.random.default_rng(404)
    starts = rng.uniform(0.0, 2.0 * model.big_k, size=(6, model.n))
    ends = [integrate(model, v0, 60.0, rtol=1e-10, atol=1e-12, record_every=60.0).states[-1]
            for v0 in starts]
    max_pair = max(
        float(np.max(np.abs(ends[i] - ends[j]))) for i in range(6) for j in range(i + 1, 6)
    )
    assert np.array_equal(rep.endpoints, np.array(ends))
    assert rep.max_pairwise_gap == max_pair
    assert rep.max_equilibrium_gap == float(np.max(np.abs(np.array(ends) - rep.attractor)))


def _pert2_params():
    preset = get_preset("pert2")
    inter = preset.model.interaction
    return inter.amp, inter.w


def test_perturbation_sweep_rows():
    base = get_preset("sym2").model
    amp, w = _pert2_params()
    table = perturbation_sweep(base, amp, w, [1e-4, 1e-3])
    rows = table.rows
    assert len(rows) == 3
    assert rows[0].eps == 0.0
    assert rows[0].l1_distance == 0.0
    assert rows[0].ratio is None
    assert rows[0].sigma == 0.0
    assert np.allclose(rows[0].v_bar, _SYM2_VBAR, atol=1e-10)
    for row in rows[1:]:
        assert not row.failed
        assert row.sigma == pytest.approx(row.eps * float(np.max(np.abs(amp))))
        assert row.l1_distance > 0.0
        assert row.ratio == pytest.approx(row.l1_distance / np.sqrt(row.eps))
        assert np.all(row.v_bar > 0)
    assert rows[1].l1_distance <= rows[2].l1_distance


def test_perturbation_sweep_input_checks():
    base = get_preset("sym2").model
    amp, w = _pert2_params()
    with pytest.raises(ValueError):
        perturbation_sweep(base, amp, w, [1e-3, 1e-4])
    with pytest.raises(ValueError):
        perturbation_sweep(base, amp, w, [0.0, 1e-3])
    with pytest.raises(OutOfTheoremScope):
        perturbation_sweep(get_preset("crowd3").model, amp, w, [1e-4])


@pytest.mark.parametrize(
    "amp, w, eps_grid, error, named",
    [
        ([1.0, 2.0], [[1.0, 2.0]], [1e-4], DimensionMismatch, "w must be square"),
        ([1.0, 2.0, 3.0], np.eye(3), [1e-4], DimensionMismatch, "amp must have length 2"),
        ([np.inf, 1.0], np.eye(2), [1e-4], NonPositiveRate, "amp must be finite"),
        ([1.0, 1.0], [[np.nan, 0.0], [0.0, 1.0]], [1e-4], NonPositiveRate, "w must be finite"),
        ([1.0, 1.0], np.eye(2), [1e-4, np.nan], ValueError, "eps_grid"),
        ([1.0, 1.0], np.eye(2), [1e-4, np.inf], ValueError, "eps_grid"),
    ],
)
def test_perturbation_sweep_rejects_bad_input_before_solving(
    monkeypatch, amp, w, eps_grid, error, named
):
    calls = []
    monkeypatch.setattr(analysis, "equilibrium_homotopy", lambda model: calls.append(model))
    with pytest.raises(error, match=named):
        perturbation_sweep(get_preset("sym2").model, amp, w, eps_grid)
    assert calls == []


def test_perturbation_sweep_isolates_failed_rows():
    base = get_preset("sym2").model
    amp, w = _pert2_params()
    table = perturbation_sweep(base, amp, w, [1e-4, 10.0])
    rows = table.rows
    assert len(rows) == 3
    assert not rows[1].failed
    assert rows[2].failed
    assert rows[2].v_bar is None
    assert "OutOfTheoremScope" in rows[2].error
