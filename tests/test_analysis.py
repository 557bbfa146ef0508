"""Spectral gap, rate fitting, basin experiments, perturbation sweeps."""
import math
from dataclasses import replace

import numpy as np
import pytest

from lvmut import analysis, equilibrium, linalg
from lvmut import model as model_module
from lvmut.analysis import (
    StabilityReport,
    convergence_rate,
    global_stability_experiment,
    perturbation_sweep,
    spectral_gap,
)
from lvmut.dynamics import Trajectory, closed_form_uniform_linear, integrate, integrate_batch
from lvmut.entropy import decompose
from lvmut.equilibrium import equilibrium_auto, equilibrium_homotopy, equilibrium_uniform
from lvmut.errors import (
    AsymmetricMutation,
    DimensionMismatch,
    Hypothesis3Violated,
    InnerNoConvergence,
    InsufficientTail,
    LeftAprioriBox,
    NonPositiveRate,
    NonPositiveReference,
    OutOfTheoremScope,
    SingularMatrix,
)
from lvmut.linalg import perron_eigenpair, solve_linear, symmetric_spectrum
from lvmut.model import (
    Perturbed,
    build_model,
    crowding_linear,
    growth_mutation_matrix,
    perturbed,
    point_mutation_matrix,
    uniform_linear,
)
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


def test_global_stability_bounds_its_samples(monkeypatch):
    # the guard stops the call before it draws or integrates a start
    calls = []
    monkeypatch.setattr(analysis, "_flow_batch", lambda *args, **kwargs: calls.append(args))
    model = get_preset("pert2").model
    with pytest.raises(ValueError, match="n_samples must be between 1 and 1000, got 1001"):
        global_stability_experiment(model, n_samples=1001, seed=0, t_end=10.0, tol=1e-6)
    assert calls == []


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
    # pert2 is in theorem scope and has no closed form, so it integrates
    model = get_preset("pert2").model
    rep = global_stability_experiment(model, n_samples=6, seed=404, t_end=60.0, tol=1e-3)
    # rtol min(1e-8, 1e-3 tol) and atol 1e-2 rtol
    assert rep.tol_used == (1e-8, 1e-10)
    rng = np.random.default_rng(404)
    starts = rng.uniform(0.0, 2.0 * model.big_k, size=(6, model.n))
    rtol, atol = rep.tol_used
    ends = [integrate(model, v0, 60.0, rtol=rtol, atol=atol, record_every=60.0).states[-1]
            for v0 in starts]
    max_pair = max(
        float(np.max(np.abs(ends[i] - ends[j]))) for i in range(6) for j in range(i + 1, 6)
    )
    assert np.array_equal(rep.endpoints, np.array(ends))
    assert rep.max_pairwise_gap == max_pair
    assert rep.max_equilibrium_gap == float(np.max(np.abs(np.array(ends) - rep.attractor)))


def test_global_stability_equals_a_loop_over_the_closed_form():
    model = get_preset("mut4").model
    rep = global_stability_experiment(model, n_samples=6, seed=404, t_end=60.0, tol=1e-3)
    rng = np.random.default_rng(404)
    starts = rng.uniform(0.0, 2.0 * model.big_k, size=(6, model.n))
    ends = [closed_form_uniform_linear(model, v0, [60.0]).states[-1] for v0 in starts]
    assert np.array_equal(rep.endpoints, np.array(ends))
    assert rep.tol_used == (0.0, 0.0)


@pytest.mark.parametrize("tol, tol_used", [
    (0.0, (1e-10, 1e-12)),
    (1e-12, (1e-10, 1e-12)),
    (1e-7, (1e-10, 1e-12)),
    (1e-6, (1e-3 * 1e-6, 1e-2 * (1e-3 * 1e-6))),
    (1e-5, (1e-8, 1e-10)),
    (1.0, (1e-8, 1e-10)),
])
def test_stability_integrates_at_the_accuracy_its_tol_needs(tol, tol_used):
    # rtol min(1e-8, max(1e-3 tol, 1e-10)), atol 1e-2 rtol: never looser than
    # the fixed (1e-10, 1e-12) of old below tol = 1e-7
    rep = global_stability_experiment(get_preset("pert2").model, n_samples=2, seed=1,
                                      t_end=5.0, tol=tol)
    assert rep.tol_used == tol_used


@pytest.mark.parametrize("eps, t_end", [
    # criterion 12's horizon keeps the ids the cases had before t = 5 joined
    pytest.param(eps, t_end, id=str(eps) if t_end == 120.0 else f"{eps}-{t_end}")
    for t_end in (120.0, 5.0) for eps in (1e-4, 4e-4, 1.6e-3, 6.4e-3)
])
def test_stability_endpoints_of_criterion_12_meet_a_tight_reference(eps, t_end):
    # criterion 12's model, seed, starts and tol, at its horizon and at one
    # short enough that the transient still shows: the derived tolerances
    # keep every endpoint within tol / 1000 of an rtol 1e-13 run. At t = 120
    # the attractor damps the error of any rtol up to 1e-3; at t = 5, eps
    # 6.4e-3 is off by 7.2e-8 at rtol 1e-5 and by 7.2e-11 at the derived 1e-8
    sym = get_preset("sym2").model
    inter = get_preset("pert2").model.interaction
    model = _row_model(sym, inter.amp, inter.w, eps)
    seed = 1200 + int(eps * 1e6)
    rep = global_stability_experiment(model, n_samples=5, seed=seed, t_end=t_end, tol=1e-5)
    assert rep.tol_used == (1e-8, 1e-10)
    starts = np.random.default_rng(seed).uniform(0.0, 2.0 * model.big_k, size=(5, model.n))
    ref = integrate_batch(model, starts, t_end, rtol=1e-13, atol=1e-15, record_every=t_end)
    ref_ends = np.array([traj.states[-1] for traj in ref])
    assert np.max(np.abs(rep.endpoints - ref_ends)) <= 1e-5 / 1000


def test_stability_experiments_of_criterion_12_equal_their_one_model_experiments(monkeypatch):
    # one batch of the four models' 20 starts, each report equal to its
    # one-model experiment field for field, endpoints bit for bit
    sym = get_preset("sym2").model
    inter = get_preset("pert2").model.interaction
    runs = [(_row_model(sym, inter.amp, inter.w, eps), 1200 + int(eps * 1e6))
            for eps in (1e-4, 4e-4, 1.6e-3, 6.4e-3)]
    calls = []
    real_flow = analysis._flow_batch

    def spy(model, starts, *args, **kwargs):
        calls.append(len(starts))
        return real_flow(model, starts, *args, **kwargs)

    monkeypatch.setattr(analysis, "_flow_batch", spy)
    reports = analysis._stability_experiments(runs, n_samples=5, t_end=120.0, tol=1e-5)
    assert calls == [20]
    for (model, seed), rep in zip(runs, reports):
        alone = global_stability_experiment(model, n_samples=5, seed=seed, t_end=120.0,
                                            tol=1e-5)
        for name in StabilityReport.__dataclass_fields__:
            got, want = getattr(rep, name), getattr(alone, name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), name
            else:
                assert got == want, name
        assert rep.converged


def test_integrator_meets_the_exact_endpoints_of_criterion_04():
    # criterion 04's inputs: its endpoints are exact, and the integrator
    # keeps its check here
    model = get_preset("mut4").model
    rng = np.random.default_rng(404)
    starts = rng.uniform(0.0, 2.0 * model.big_k, size=(20, model.n))
    assert np.all(np.any(starts > 0.0, axis=1))
    trajs = integrate_batch(model, starts, 200.0, rtol=1e-10, atol=1e-12, record_every=200.0)
    ends = np.array([traj.states[-1] for traj in trajs])
    exact = np.array([closed_form_uniform_linear(model, v0, [200.0]).states[-1]
                      for v0 in starts])
    assert np.all(np.abs(ends - exact) <= 1e-9 * np.maximum(1.0, np.abs(exact)))
    v_bar = equilibrium_uniform(model).v_bar
    assert np.max(np.abs(ends - v_bar)) <= 1e-6


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


def test_perturbation_sweep_sigma_is_eps_times_the_largest_amp():
    # amp's largest magnitude is 2.5 (a negative entry), so eps * 2.5 and
    # eps / 2.5 differ; pert2's amp, of largest magnitude 1, cannot tell them
    base = get_preset("sym2").model
    amp, w = _pert2_params()
    amp = np.array([0.5, -2.5]) * np.sign(amp[0])
    rows = perturbation_sweep(base, amp, w, [1e-4, 2e-4]).rows
    assert not any(row.failed for row in rows)
    assert [row.sigma for row in rows] == [0.0, 1e-4 * 2.5, 2e-4 * 2.5]


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
    monkeypatch.setattr(analysis, "_continue", lambda *args: calls.append(args))
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


# -- the sweep as continuation in eps ----------------------------------------------

_SWEEP_GRIDS = {
    "cli": [1e-4, 4e-4, 1.6e-3, 6.4e-3],
    "readme": [float(e) for e in np.geomspace(1e-6, 1e-2, 9)],
}


def _sweep_inputs(name):
    """A preset's uniform base and a tanh perturbation: its own for a perturbed
    preset, else pert2's bump on each pair of genotypes (the cli workload's)."""
    model = get_preset(name).model
    if isinstance(model.interaction, Perturbed):
        inter = model.interaction
        return replace(model, interaction=inter.base), inter.amp, inter.w
    amp, w = _pert2_params()
    return model, np.tile(amp, model.n // 2), np.kron(np.eye(model.n // 2), w)


def _row_model(base, amp, w, eps):
    return build_model(base.n, base.r, base.big_k, base.mu,
                       perturbed(base.interaction, eps, amp, w))


@pytest.mark.parametrize("grid", sorted(_SWEEP_GRIDS))
@pytest.mark.parametrize("name", ["sym2", "fit2asym", "mut4", "pert2"])
def test_sweep_rows_match_the_homotopy(name, grid):
    base, amp, w = _sweep_inputs(name)
    table = perturbation_sweep(base, amp, w, _SWEEP_GRIDS[grid])
    for row in table.rows[1:]:
        assert not row.failed, row.error
        ref = equilibrium_homotopy(_row_model(base, amp, w, row.eps)).v_bar
        assert np.max(np.abs(row.v_bar - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid, solves", [("cli", 12), ("readme", 25)])
def test_sweep_solve_counts_on_pert2(monkeypatch, grid, solves):
    # a fresh 21-stage homotopy per row took 252 and 505
    base, amp, w = _sweep_inputs("pert2")
    calls = []
    solve = np.linalg.solve

    def spy(mat, b):
        calls.append(None)
        return solve(mat, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    perturbation_sweep(base, amp, w, _SWEEP_GRIDS[grid])
    assert len(calls) == solves


def test_r_plus_m_builds_per_solve(monkeypatch):
    # the residuals come from the solve's own R+M, not from a rebuilt field:
    # a Perron scaling builds it once, for its pair and its residual, a
    # pseudo-transient run (crowd3's equilibrium_auto) once, and the sweep's
    # rows share one more after its base row
    builds = []
    build = model_module.growth_mutation_matrix

    def counted(model):
        builds.append(None)
        return build(model)

    monkeypatch.setattr(model_module, "growth_mutation_matrix", counted)
    monkeypatch.setattr(equilibrium, "growth_mutation_matrix", counted)
    base, amp, w = _sweep_inputs("sym2")
    counts = []
    for solve in (lambda: equilibrium_homotopy(get_preset("crowd3").model),
                  lambda: equilibrium_auto(get_preset("crowd3").model),
                  lambda: equilibrium_auto(get_preset("pert2").model),
                  lambda: equilibrium_uniform(base),
                  lambda: perturbation_sweep(base, amp, w, _SWEEP_GRIDS["cli"])):
        builds.clear()
        solve()
        counts.append(len(builds))
    assert counts == [1, 1, 1, 1, 2]


def _lapack_counts(monkeypatch):
    """Spy on numpy's dense eigen- and singular-value kernels: returns the
    dict of calls per kernel, counted from here on."""
    counts = {}
    for kernel in ("eigh", "eigvalsh", "svd", "eig"):
        def counted(*args, _kernel=kernel, _original=getattr(np.linalg, kernel), **kwargs):
            counts[_kernel] = counts.get(_kernel, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, kernel, counted)
    return counts


def _self_crowding_hypercube(loci):
    """The ladder's self-crowding model on 2**loci genotypes, at growth rates
    drawn from seed 0."""
    n = 2 ** loci
    r = np.random.default_rng(0).uniform(0.5, 2.0, size=n)
    alpha = 0.8 * np.ones((n, n)) + 0.2 * np.eye(n)
    return build_model(n, r, 10.0, point_mutation_matrix(loci, 0.01), crowding_linear(alpha))


def _homotopy_or_its_error(model):
    try:
        equilibrium_homotopy(model)
    except LeftAprioriBox:
        pass  # the n = 16, 64 and 128 models leave their box, after the set-up


def test_symmetric_set_up_factorizes_r_plus_m_once(monkeypatch):
    # a symmetric R+M takes one eigh per solve set-up, for its box, its
    # nonsingularity and the anchor's Perron vector, with the memo emptied
    # before each solve; the sweep's base row's Perron pair is that eigh
    # too. Before, a set-up ran an SVD, eigvalsh and eigh on the same
    # matrix, and the sweep's base row a second eigh.
    base, amp, w = _sweep_inputs("sym2")
    solves = {
        "homotopy crowd3": lambda: equilibrium_homotopy(get_preset("crowd3").model),
        "auto crowd3": lambda: equilibrium_auto(get_preset("crowd3").model),
        "auto pert2": lambda: equilibrium_auto(get_preset("pert2").model),
        "sweep sym2": lambda: perturbation_sweep(base, amp, w, _SWEEP_GRIDS["cli"]),
        "homotopy n32": lambda: _homotopy_or_its_error(_self_crowding_hypercube(5)),
    }
    counts = _lapack_counts(monkeypatch)
    seen = {}
    for name, solve in solves.items():
        linalg._EIGH_MEMO.clear()
        counts.clear()
        solve()
        seen[name] = dict(counts)
    assert seen == {
        "homotopy crowd3": {"eigh": 1},
        "auto crowd3": {"eigh": 1},
        "auto pert2": {"eigh": 1},
        "sweep sym2": {"eigh": 1},
        "homotopy n32": {"eigh": 1},
    }
    # a second solve on the same R+M reads the memo
    counts.clear()
    _homotopy_or_its_error(_self_crowding_hypercube(5))
    assert counts == {}


def _ladder_rung(loci):
    """The benchmark ladder's rung on 2**loci genotypes: the Perron pair,
    uniform equilibrium and symmetric spectrum of R+M, the spectral gap
    (D - M~), a linear solve on R+M and the self-crowding homotopy, whose
    R+M is the same matrix."""
    crowd = _self_crowding_hypercube(loci)
    model = build_model(crowd.n, crowd.r, crowd.big_k, crowd.mu, uniform_linear(crowd.r))
    a = growth_mutation_matrix(model)
    perron_eigenpair(a)
    eq = equilibrium_uniform(model)
    symmetric_spectrum(0.5 * (a + a.T))
    spectral_gap(model, eq.v_bar)
    solve_linear(a, model.r)
    _homotopy_or_its_error(crowd)


@pytest.mark.parametrize("loci", range(2, 8))
def test_ladder_rung_factorizes_each_symmetric_matrix_once(monkeypatch, loci):
    # one eigh of R+M and one of D - M~; the memo serves R+M's other four
    # requests and proves it nonsingular for solve_linear (5 eigh and 1
    # eigvalsh before)
    counts = _lapack_counts(monkeypatch)
    _ladder_rung(loci)
    assert counts == {"eigh": 2}


def test_asymmetric_set_up_keeps_the_svd_and_eig(monkeypatch):
    # crowd3 with mu[0][1] raised to 0.06, within h4: one eigh of R+M's
    # symmetric part for the box, the SVD for R+M's nonsingularity and eig
    # for its Perron pair
    crowd3 = get_preset("crowd3").model
    mu = crowd3.mu.copy()
    mu[0, 1] = 0.06
    model = build_model(3, crowd3.r, crowd3.big_k, mu, crowd3.interaction)
    counts = _lapack_counts(monkeypatch)
    equilibrium_auto(model)
    assert counts == {"eigh": 1, "svd": 1, "eig": 1}


def _failing_newton(monkeypatch, exc, times):
    """Make the first `times` s = 1 _newton runs raise exc."""
    newton = equilibrium._newton
    raised = []

    def failing(model, system, s, v):
        if s == 1.0 and len(raised) < times:
            raised.append(s)
            raise exc
        return newton(model, system, s, v)

    monkeypatch.setattr(equilibrium, "_newton", failing)


def _row_system(base, amp, w, eps):
    """A sweep row's model at eps and the _System its solve binds."""
    model = _row_model(base, amp, w, eps)
    linear = equilibrium._linear_setup(model, model_module.validate(model))
    return model, equilibrium._system(model, linear)


@pytest.mark.parametrize(
    "exc", [LeftAprioriBox(1.0), InnerNoConvergence(1.0), SingularMatrix("singular")]
)
def test_sweep_row_falls_back_to_pseudo_transient_continuation(monkeypatch, exc):
    # Psi-tc from the row's start, the base's equilibrium
    base, amp, w = _sweep_inputs("pert2")
    model, system = _row_system(base, amp, w, 1e-4)
    ref = equilibrium._pseudo_transient(model, system, equilibrium_uniform(base).v_bar)[0]
    _failing_newton(monkeypatch, exc, times=1)
    row = perturbation_sweep(base, amp, w, [1e-4]).rows[1]
    assert not row.failed
    assert row.v_bar.tobytes() == ref.tobytes()


def test_sweep_row_that_fails_in_the_fallback_keeps_the_homotopy_error(monkeypatch):
    # (named when the homotopy was the fallback) the row keeps the error of
    # Psi-tc, cut to one step here, not the Newton run's LeftAprioriBox
    base, amp, w = _sweep_inputs("pert2")
    model, system = _row_system(base, amp, w, 1e-4)
    _failing_newton(monkeypatch, LeftAprioriBox(1.0), times=math.inf)
    monkeypatch.setattr(equilibrium, "_MAX_INNER", 1)
    with pytest.raises(InnerNoConvergence) as info:
        equilibrium._pseudo_transient(model, system, equilibrium_uniform(base).v_bar)
    row = perturbation_sweep(base, amp, w, [1e-4]).rows[1]
    assert row.failed
    assert row.error == f"InnerNoConvergence: {info.value}"


def test_sweep_row_after_a_failed_row_starts_from_the_last_solved_row(monkeypatch):
    base, amp, w = _sweep_inputs("pert2")
    run_stages = equilibrium._run_stages
    starts = []

    def spy(model, system, v, stages):
        starts.append(v.copy())
        if len(starts) == 2:
            raise Hypothesis3Violated("row 2 fails")
        return run_stages(model, system, v, stages)

    monkeypatch.setattr(equilibrium, "_run_stages", spy)
    rows = perturbation_sweep(base, amp, w, [1e-4, 4e-4, 1.6e-3]).rows
    assert [row.failed for row in rows] == [False, False, True, False]
    assert starts[0].tobytes() == rows[0].v_bar.tobytes()
    assert starts[1].tobytes() == rows[1].v_bar.tobytes()
    assert starts[2].tobytes() == rows[1].v_bar.tobytes()


# Each row's error on a base whose R+M is singular ([[0.1, 0.1], [0.1, 0.1]])
# or whose asymmetric mutation breaks the outflow hypothesis, recorded when
# every row ran its own checks; eps = 10 breaks monotonicity first.
_SETUP_FAILURES = {
    "singular": ([[0.0, 0.1], [0.1, 0.0]], [
        "SingularMatrix: smallest singular value 1.32986e-17 below threshold",
        "SingularMatrix: smallest singular value 1.32986e-17 below threshold",
        "OutOfTheoremScope: perturbation too large for monotone pressures",
    ]),
    "outflow": ([[0.0, 0.15], [0.1, 0.0]], [
        "Hypothesis3Violated: asymmetric mutation requires symmetrized outflow within r/3",
        "Hypothesis3Violated: asymmetric mutation requires symmetrized outflow within r/3",
        "OutOfTheoremScope: perturbation too large for monotone pressures",
    ]),
}


@pytest.mark.parametrize("case", sorted(_SETUP_FAILURES))
def test_sweep_rows_keep_the_set_up_errors(case):
    mu, errors = _SETUP_FAILURES[case]
    base = build_model(2, [0.2, 0.2], 1.0, mu, uniform_linear([1.0, 2.0]))
    amp, w = [0.5, -0.5], np.eye(2)
    rows = perturbation_sweep(base, amp, w, [1e-4, 1e-3, 10.0]).rows
    assert not rows[0].failed
    assert [row.error for row in rows[1:]] == errors
    # the set-up errors are the homotopy's own, which does not check monotonicity
    for row in rows[1:3]:
        with pytest.raises(Exception) as info:
            equilibrium_homotopy(_row_model(base, np.array(amp), w, row.eps))
        assert row.error == f"{type(info.value).__name__}: {info.value}"
