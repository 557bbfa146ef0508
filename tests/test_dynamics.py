"""Integrator behavior, closed forms, envelopes, and the mass floor."""
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_equilibrium import _in_scope_model

from lvmut import dynamics
from lvmut import model as model_module
from lvmut.dynamics import (
    closed_form_uniform_linear,
    integrate,
    integrate_batch,
    logistic_envelopes,
    positivity_floor,
)
from lvmut.equilibrium import equilibrium_uniform
from lvmut.errors import (
    AsymmetricMutation,
    NonFiniteState,
    StepBudgetExceeded,
    WrongInteractionKind,
    ZeroInitialMass,
)
from lvmut.linalg import perron_eigenpair
from lvmut.model import (
    build_model,
    growth_mutation_matrix,
    perturbed,
    point_mutation_matrix,
    rhs,
    uniform_linear,
)
from lvmut.presets import get_preset
from lvmut.serialize import trajectory_csv

# sha256 of trajectory.csv and the accepted/rejected step counts of each
# preset run from its own v0 to its t_end at the default tolerances.
# Recorded when the stepper became DOP853; any change to the arithmetic of a
# step or of a sample shows up here. Re-recorded when the field became
# (R+M)v - (Psi(v)/K)v: states move by at most 1.1e-12 relative (mut4), and
# no accepted or rejected count moves. Re-recorded (digests only) when each
# stage's argument became one product [1, h a_s] @ [v; k_0..]: states move by
# at most 1.2e-12 relative (fit2asym; mut4 1.1e-12, crowd3 1.0e-12, sym2 and
# pert2 3.5e-13), and no accepted or rejected count moves.
_GOLDEN = {
    "sym2": ("92f88ef63c25c2b1cbd52bf908ff6dd7d18628004e7c20f4d9ef9723f3d28180", 21, 0),
    "fit2asym": ("1761e442ff039e97c8e73c266ff1866082c141305e8c7bf3129017140aa44391", 36, 0),
    "mut4": ("f1557ab5c4835b1db25b8802ad3e7794fef41e80e9ed47da2a88d5eba4001580", 46, 0),
    "pert2": ("7568acb482f87329fac76c7b8890df03f2b7ff64a8cd8f26f79cf4120ad27c9e", 21, 0),
    "crowd3": ("f24676be873af4ee4675ff3b4cf170fd10d2c4844eac4667f4b536c4801e663e", 45, 0),
}


def _logistic(v0, r, big_k, t):
    e = math.exp(r * t)
    return big_k * v0 * e / (big_k + v0 * (e - 1.0))


def _scalar_model(r=2.0, big_k=1.0):
    return build_model(1, [r], big_k, np.zeros((1, 1)), uniform_linear([r]))


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_preset_trajectories_are_bit_identical(name):
    preset = get_preset(name)
    traj = integrate(preset.model, preset.v0, preset.t_end)
    digest = hashlib.sha256(trajectory_csv(traj).encode()).hexdigest()
    assert (digest, traj.accepted_steps, traj.rejected_steps) == _GOLDEN[name]


def test_order_conditions():
    # the weights of y sum to 1, and each stage's argument is at t + c_s h
    assert abs(dynamics._B.sum() - 1.0) <= 1e-15
    for s in range(1, 16):
        row = dynamics._A[s]
        assert abs(row.sum() - dynamics._C[s]) <= 1e-15 * max(1.0, np.abs(row).sum())
    # both error estimates vanish on a constant slope
    assert np.max(np.abs(dynamics._E.sum(axis=1))) <= 1e-14


def _dense_weights(sigma):
    weights = np.empty((len(sigma), 7))
    weights[:, 0::2] = np.asarray(sigma)[:, None]
    weights[:, 1::2] = 1.0 - np.asarray(sigma)[:, None]
    return weights.cumprod(axis=1)


def test_continuous_extension_ends_on_y_and_starts_on_v():
    # sigma = 1 weighs the stages by _B, which gives the step's y; sigma = 0
    # weighs them by 0, which gives v
    ends = _dense_weights([0.0, 1.0]) @ dynamics._P
    assert np.array_equal(ends[0], np.zeros(16))
    assert np.array_equal(ends[1, :12], dynamics._B)
    assert np.array_equal(ends[1, 12:], np.zeros(4))
    # the slope at sigma = 0, h (_P[0] + _P[1]) @ k, is h times stage 0
    assert np.max(np.abs(dynamics._P[0] + dynamics._P[1] - np.eye(16)[0])) <= 1e-16
    # and on a step of a real run: one step of sym2 with its three extra stages
    preset = get_preset("sym2")
    f = dynamics._vector_field(preset.model)
    v, h = preset.v0, 0.7
    ks = np.empty((16, preset.model.n))
    ks[0] = f(v)
    for s in range(1, 12):
        ks[s] = f(v + h * (dynamics._A[s] @ ks[:s]))
    y = v + h * (dynamics._B @ ks[:12])
    ks[12] = f(y)
    for s in range(13, 16):
        ks[s] = f(v + h * (dynamics._A[s] @ ks[:s]))
    dense = v + h * (_dense_weights([0.0, 1.0]) @ dynamics._P @ ks)
    assert np.array_equal(dense[0], v)
    assert np.max(np.abs(dense[1] - y)) <= 1e-15 * np.max(np.abs(y))


def test_continuous_extension_matches_scipy():
    pytest.importorskip("scipy")
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert np.max(np.abs(dynamics._C - ref.C)) <= 1e-15
    for s in range(16):
        assert np.max(np.abs(dynamics._A[s] - ref.A[s, :s]), initial=0.0) <= 1e-15
    assert np.max(np.abs(dynamics._B - ref.B)) <= 1e-15
    assert np.max(np.abs(dynamics._E[0] - ref.E5[:12])) <= 1e-15
    assert np.max(np.abs(dynamics._E[1] - ref.E3[:12])) <= 1e-15
    assert ref.E5[12] == ref.E3[12] == 0.0
    assert np.max(np.abs(dynamics._D - ref.D)) <= 1e-15


def test_lvmut_never_imports_scipy():
    # the coefficients are literals: numpy is the one runtime dependency
    src = Path(dynamics.__file__).resolve().parents[1]
    code = ("import sys, lvmut; p = lvmut.get_preset('mut4'); "
            "lvmut.integrate(p.model, p.v0, 5.0); "
            "assert 'lvmut.dynamics' in sys.modules and 'scipy' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def _hypercube8():
    rng = np.random.default_rng(8)
    r = rng.uniform(0.8, 1.2, size=8)
    model = build_model(8, r, 10.0, point_mutation_matrix(3, 0.02), uniform_linear(r))
    return model, rng.uniform(0.0, 20.0, size=8)


def _guard_case(name):
    if name == "hypercube8":
        return _hypercube8()
    preset = get_preset(name)
    return preset.model, preset.v0


# Attempted steps of the Dormand-Prince 5(4) pair that DOP853 replaced, at
# rtol 1e-10 and atol 1e-12: from each start to t = 40, and for criterion
# 04's twenty mut4 starts (the sum) to t = 200.
_DP5_ATTEMPTS = {"sym2": 134, "mut4": 98, "hypercube8": 362, "c04": 7188}


@pytest.mark.parametrize("name", sorted(_DP5_ATTEMPTS))
def test_at_most_a_third_of_the_fifth_order_steps(name):
    if name == "c04":
        model, starts = _c04_starts()
        batch = integrate_batch(model, starts, 200.0, rtol=1e-10, atol=1e-12,
                                record_every=200.0)
        attempts = sum(traj.accepted_steps + traj.rejected_steps for traj in batch)
    else:
        model, v0 = _guard_case(name)
        traj = integrate(model, v0, 40.0, rtol=1e-10, atol=1e-12)
        attempts = traj.accepted_steps + traj.rejected_steps
    assert 3 * attempts <= _DP5_ATTEMPTS[name]


@pytest.mark.parametrize("t_end", [40.0, 200.0])
@pytest.mark.parametrize("name", ["sym2", "mut4", "hypercube8"])
def test_samples_stay_near_the_closed_form(name, t_end):
    # every recorded sample, most of them from the continuous extension, is
    # within 1e-9 of the exact flow relative to the state; by t = 200 the
    # mass mode limits the step, which is where the extension would amplify
    # it were |h lambda| not kept within _STIFF_LIMIT (4.5e-8 on hypercube8)
    model, v0 = _guard_case(name)
    traj = integrate(model, v0, t_end, rtol=1e-10, atol=1e-12, record_every=0.1)
    exact = closed_form_uniform_linear(model, v0, traj.times[1:]).states
    gap = np.max(np.abs(traj.states - exact), axis=1) / np.max(np.abs(exact), axis=1)
    assert np.max(gap) <= 1e-9


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_recording_grid_does_not_move_the_steps(name):
    preset = get_preset(name)
    runs = [integrate(preset.model, preset.v0, preset.t_end, record_every=every)
            for every in (None, preset.t_end / 50, preset.t_end)]
    for run in runs[1:]:
        assert run.accepted_steps == runs[0].accepted_steps
        assert run.rejected_steps == runs[0].rejected_steps
        assert np.array_equal(run.states[-1], runs[0].states[-1])


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_default_run_steps_fewer_than_half_its_samples(name):
    # the tolerance, not the 500-sample grid, sets the step count
    preset = get_preset(name)
    traj = integrate(preset.model, preset.v0, preset.t_end)
    assert traj.accepted_steps + traj.rejected_steps < (len(traj.times) - 1) / 2


def test_dense_samples_match_the_closed_form():
    preset = get_preset("sym2")
    traj = integrate(preset.model, preset.v0, preset.t_end, rtol=1e-10, atol=1e-12)
    assert traj.accepted_steps < len(traj.times) - 1  # most samples are interpolated
    closed = closed_form_uniform_linear(preset.model, preset.v0, traj.times[1:])
    assert np.array_equal(closed.times, traj.times)
    assert np.max(np.abs(traj.states - closed.states)) <= 1e-8


def test_scalar_logistic_closed_form():
    model = _scalar_model()
    traj = integrate(model, np.array([0.1]), 10.0, rtol=1e-10, atol=1e-12)
    exact = _logistic(0.1, 2.0, 1.0, 10.0)
    assert abs(float(traj.states[-1][0]) - exact) < 1e-6
    assert abs(exact - 1.0) < 1e-6


def test_equilibrium_is_stationary_under_integration():
    preset = get_preset("sym2")
    eq = equilibrium_uniform(preset.model)
    traj = integrate(preset.model, eq.v_bar, 50.0, rtol=1e-10, atol=1e-12)
    drift = float(np.max(np.abs(traj.states - eq.v_bar[None, :])))
    assert drift <= 1e-6 * float(np.max(eq.v_bar))


def test_zero_start_stays_zero():
    model = get_preset("sym2").model
    with pytest.warns(UserWarning):
        traj = integrate(model, np.zeros(2), 5.0)
    assert np.all(traj.states == 0.0)


def test_negative_start_rejected():
    model = get_preset("sym2").model
    with pytest.raises(ValueError):
        integrate(model, np.array([-1.0, 2.0]), 1.0)


def test_non_finite_start_rejected():
    model = get_preset("sym2").model
    with pytest.raises(NonFiniteState):
        integrate(model, np.array([np.nan, 2.0]), 1.0)



@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"rtol": 0.0, "atol": 0.0}, "rtol and atol"),
        ({"rtol": float("nan")}, "rtol"),
        ({"atol": -1e-10}, "atol"),
        ({"atol": float("inf")}, "atol"),
        ({"t_end": float("nan")}, "t_end"),
        ({"record_every": float("nan")}, "record_every"),
    ],
)
def test_bad_tolerances_and_times_rejected(kwargs, name):
    model = get_preset("sym2").model
    kwargs = {"t_end": 1.0, **kwargs}
    with pytest.raises(ValueError, match=name):
        integrate(model, [1.0, 1.0], **kwargs)

def test_recording_grid_is_capped():
    # t_end / record_every = 1e10 samples would need 74.5 GiB of grid
    model = get_preset("sym2").model
    with pytest.raises(ValueError, match="record_every"):
        integrate(model, [8.0, 2.0], 10.0, record_every=1e-9)
    with pytest.raises(ValueError, match="record_every"):
        integrate(model, [8.0, 2.0], 10.0, record_every=1e-320)


def test_step_budget_bounds_the_work(monkeypatch):
    preset = get_preset("sym2")
    steps = integrate(preset.model, preset.v0, preset.t_end).accepted_steps
    monkeypatch.setattr(dynamics, "_MAX_STEPS", steps)
    assert integrate(preset.model, preset.v0, preset.t_end).accepted_steps == steps
    monkeypatch.setattr(dynamics, "_MAX_STEPS", steps - 1)
    with pytest.raises(StepBudgetExceeded, match=f"{steps - 1} attempted steps"):
        integrate(preset.model, preset.v0, preset.t_end)


def test_a_horizon_the_capped_step_cannot_reach_fails_at_once(monkeypatch):
    # pert2's stiffness cap holds the step near 5, so 2,000 attempts reach
    # about t = 1e4: t_end = 5e3 still finishes, and t_end = 1e5 fails within
    # a few attempts, where it used to spend the whole budget (26,002 calls)
    preset = get_preset("pert2")
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 2000)
    assert integrate(preset.model, preset.v0, 5e3, record_every=5e3).times[-1] == 5e3
    calls = []
    bind = dynamics._vector_field

    def counted_bind(model):
        field = bind(model)

        def counted(v):
            calls.append(None)
            return field(v)

        return counted

    monkeypatch.setattr(dynamics, "_vector_field", counted_bind)
    with pytest.raises(StepBudgetExceeded, match="2000 attempted steps.*an estimate"):
        integrate(preset.model, preset.v0, 1e5, record_every=1e5)
    assert len(calls) < 13 * 100


def test_positivity_and_strictness_from_boundary():
    model = get_preset("sym2").model
    traj = integrate(model, np.array([0.0, 5.0]), 10.0)
    assert np.all(traj.states >= 0.0)
    assert np.all(traj.states[1:] > 0.0)


def test_trajectory_grid_and_initial_state():
    model = get_preset("sym2").model
    v0 = np.array([8.0, 2.0])
    traj = integrate(model, v0, 5.0, record_every=0.5)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(5.0, abs=1e-12)
    assert np.all(np.diff(traj.times) > 0)
    assert np.max(np.abs(np.diff(traj.times) - 0.5)) < 1e-9
    assert np.array_equal(traj.states[0], v0)
    assert traj.accepted_steps > 0
    assert traj.tol_used == (1e-8, 1e-10)


def test_mass_floor_along_trajectories():
    rng = np.random.default_rng(11)
    for name in ("sym2", "fit2asym"):
        preset = get_preset(name)
        model = preset.model
        for _ in range(3):
            v0 = rng.uniform(0.0, 2.0 * model.big_k, size=model.n)
            if not np.any(v0 > 0):
                continue
            floor = positivity_floor(model, v0)
            traj = integrate(model, v0, preset.t_end)
            totals = np.sum(traj.states, axis=1)
            assert float(np.min(totals)) >= floor - 1e-10


def test_positivity_floor_values():
    # n=1, r=2, a=1: kappa0 = 1, so floor = min(1, 5, 1) = 1
    model = build_model(1, [2.0], 1.0, np.zeros((1, 1)), uniform_linear([1.0]))
    assert positivity_floor(model, np.array([10.0])) == pytest.approx(1.0)
    # middle branch: half the starting mass
    assert positivity_floor(model, np.array([0.1])) == pytest.approx(0.05)
    with pytest.raises(ZeroInitialMass):
        positivity_floor(model, np.array([0.0]))


def test_growth_ceiling_short_horizon():
    rng = np.random.default_rng(23)
    for name in ("sym2", "mut4"):
        model = get_preset(name).model
        per = perron_eigenpair(growth_mutation_matrix(model))
        for _ in range(3):
            v0 = rng.uniform(0.1, 2.0 * model.big_k, size=model.n)
            traj = integrate(model, v0, 3.0, record_every=0.1)
            c0 = float(np.max(v0))
            bound_dir = per.v_p / float(np.min(per.v_p))
            for t, state in zip(traj.times, traj.states):
                ceiling = math.exp(per.lambda_p * t) * c0 * bound_dir
                assert np.all(state <= ceiling + 1e-9 * c0)


def test_tolerance_halving_changes_little():
    preset = get_preset("sym2")
    coarse = integrate(preset.model, preset.v0, 20.0, rtol=1e-6, atol=1e-8)
    fine = integrate(preset.model, preset.v0, 20.0, rtol=5e-7, atol=5e-9)
    gap = float(np.max(np.abs(coarse.states[-1] - fine.states[-1])))
    assert gap < 10 * (1e-6 * float(np.max(coarse.states[-1])) + 1e-8)


def test_closed_form_at_time_zero():
    preset = get_preset("sym2")
    traj = closed_form_uniform_linear(preset.model, preset.v0, np.array([1.0]))
    assert np.array_equal(traj.states[0], preset.v0)
    assert traj.times[0] == 0.0


def test_closed_form_matches_integrator():
    preset = get_preset("sym2")
    ref = integrate(preset.model, preset.v0, 5.0, rtol=1e-11, atol=1e-13,
                    record_every=0.5)
    closed = closed_form_uniform_linear(preset.model, preset.v0, ref.times[1:])
    scale = float(np.max(np.abs(ref.states)))
    assert np.max(np.abs(closed.states - ref.states)) < 1e-6 * scale


def test_closed_form_scalar_reduces_to_logistic():
    model = _scalar_model()
    times = np.array([0.5, 1.0, 2.0, 4.0])
    closed = closed_form_uniform_linear(model, np.array([0.1]), times)
    for t, state in zip(closed.times, closed.states):
        assert float(state[0]) == pytest.approx(
            _logistic(0.1, 2.0, 1.0, float(t)), abs=1e-9
        )


def test_closed_form_with_a_zero_eigenvalue_matches_integrator():
    # R + M = [[0.1, 0.1], [0.1, 0.1]] has eigenvalues 0.2 and exactly 0; the
    # unequal weights a give the zero mode's integral t a nonzero share
    model = build_model(2, [0.2, 0.2], 1.0, [[0.0, 0.1], [0.1, 0.0]],
                        uniform_linear([1.0, 2.0]))
    v0 = np.array([0.3, 0.05])
    ref = integrate(model, v0, 20.0, rtol=1e-13, atol=1e-15, record_every=0.5)
    closed = closed_form_uniform_linear(model, v0, ref.times[1:])
    assert np.max(np.abs(closed.states - ref.states)) < 1e-9


def test_closed_form_rejects_wrong_family():
    crowd = get_preset("crowd3")
    with pytest.raises(WrongInteractionKind):
        closed_form_uniform_linear(crowd.model, crowd.v0, np.array([1.0]))


def test_closed_form_rejects_asymmetric_mu():
    model = build_model(
        2, [1.0, 1.0], 1.0, [[0.0, 0.1], [0.05, 0.0]], uniform_linear([1.0, 1.0])
    )
    with pytest.raises(AsymmetricMutation):
        closed_form_uniform_linear(model, np.array([0.5, 0.5]), np.array([1.0]))


@pytest.mark.parametrize("t_end", [400.0, 1e4])
@pytest.mark.parametrize("name", ["sym2", "fit2asym", "mut4"])
def test_closed_form_at_a_long_horizon(name, t_end):
    # exp(lambda_p t) overflows once lambda_p t > 709 (fit2asym's lambda_p is
    # 1.91); the scaled modes do not, and under warnings-as-errors nothing
    # warns on the way
    preset = get_preset(name)
    exact = closed_form_uniform_linear(preset.model, preset.v0, [t_end]).states[-1]
    ref = integrate(preset.model, preset.v0, t_end, rtol=1e-12, atol=1e-14,
                    record_every=t_end).states[-1]
    v_bar = equilibrium_uniform(preset.model).v_bar
    assert np.max(np.abs(exact - ref)) <= 1e-12 * np.max(ref)
    assert np.max(np.abs(exact - v_bar)) <= 1e-14 * np.max(v_bar)


def test_closed_form_from_zero_stays_at_zero():
    model = get_preset("fit2asym").model
    states = closed_form_uniform_linear(model, [0.0, 0.0], [1.0, 400.0, 1e4]).states
    assert np.array_equal(states, np.zeros((4, 2)))
    assert not np.signbit(states).any()


def test_closed_form_from_a_subnormal_start_reaches_the_attractor():
    # exp(-s t) and the integral term of the unscaled start both underflow
    # to 0 while the Perron mode does not; the start scaled by 2^1073 keeps
    # all three
    model = get_preset("sym2").model
    state = closed_form_uniform_linear(model, [5e-324, 5e-324], [1000.0]).states[-1]
    v_bar = equilibrium_uniform(model).v_bar
    assert np.isfinite(state).all()
    assert np.max(np.abs(state - v_bar)) <= 1e-12


@pytest.mark.parametrize("r, v0", [([1.0, 1.0], [1e308, 1e308]),
                                   ([1e308, 1e308], [8.0, 2.0]),
                                   ([1e300, 1e300], [1.0, 1.0])])
def test_closed_form_that_overflows_raises(r, v0):
    # the first two have a field that overflows at the start, as integrate
    # rejects them; the third has a finite field but an equilibrium K r / a
    # beyond the largest double
    model = build_model(2, r, 1e10, [[0.0, 0.1], [0.1, 0.0]], uniform_linear([1.0, 1.0]))
    with pytest.raises(NonFiniteState):
        closed_form_uniform_linear(model, v0, [1.0])


def test_envelopes_fixed_point_at_capacity():
    preset = get_preset("sym2")
    times = np.linspace(0.0, 10.0, 50)
    env = logistic_envelopes(preset.model, 10.0, times)
    assert np.max(np.abs(env.n_min - 10.0)) < 1e-12
    assert np.max(np.abs(env.n_max - 10.0)) < 1e-12


def test_envelope_rates_and_ordering():
    preset = get_preset("fit2asym")
    times = np.linspace(0.0, 10.0, 50)
    env = logistic_envelopes(preset.model, 0.5, times)
    assert env.xi_minus == pytest.approx(1.0)
    assert env.xi_plus == pytest.approx(2.0)
    assert np.all(env.n_min[1:] <= env.n_max[1:] + 1e-14)
    # both rise monotonically toward the capacity from below
    assert np.all(np.diff(env.n_min) > 0)
    assert np.all(np.diff(env.n_max) > 0)
    assert env.n_max[-1] <= 1.0 + 1e-12


def test_envelope_sandwich_mut4():
    preset = get_preset("mut4")
    model = preset.model
    n0 = model.big_k / 2.0
    v0 = np.full(4, n0 / 4.0)
    traj = integrate(model, v0, 30.0, rtol=1e-11, atol=1e-13)
    totals = np.sum(traj.states, axis=1)
    env = logistic_envelopes(model, n0, traj.times)
    lower = np.minimum(env.n_min, env.n_max)
    upper = np.maximum(env.n_min, env.n_max)
    assert np.all(totals >= lower - 1e-8)
    assert np.all(totals <= upper + 1e-8)


def test_envelopes_require_fitness_weighting():
    model = build_model(
        2, [1.0, 2.0], 1.0, [[0.0, 0.1], [0.1, 0.0]], uniform_linear([1.0, 1.0])
    )
    with pytest.raises(WrongInteractionKind):
        logistic_envelopes(model, 0.5, np.array([1.0]))
    with pytest.raises(ZeroInitialMass):
        logistic_envelopes(get_preset("sym2").model, 0.0, np.array([1.0]))


def _reference_integrate(model, v0, t_end, rtol, atol, record_every, field=None, stats=None):
    """A plain one-state DOP853 loop: the same power iteration, stages, error
    norm, controller, snap to t_end and continuous extension as `integrate`,
    one state at a time, FSAL in its own array. The products that round
    (the stage weighings, the two error estimates, the grid times inside a
    step) have the shapes `integrate` gives them: a product of other shape
    may round apart. `stats`, a dict, receives the number of accepted steps
    that recorded grid times from the continuous extension, and of the
    accepted steps that were clipped and did not end the run, whose next
    first stage is a fresh field call."""
    f = field or (lambda v: rhs(model, v))
    A, E, P = dynamics._A, dynamics._E, dynamics._P
    n = model.n
    grid = dynamics._record_grid(t_end, record_every).tolist()
    v = np.asarray(v0, dtype=float).copy()
    times, states = [0.0], [v.copy()]
    k0 = f(v)
    scale0 = atol + rtol * np.abs(v)
    d0 = float(np.sqrt(np.mean((v / scale0) ** 2)))
    d1 = float(np.sqrt(np.mean((k0 / scale0) ** 2)))
    h_ctrl = 0.01 * d0 / d1 if d1 > 0 and d0 > 0 else 1e-6 * t_end
    h_ctrl = min(h_ctrl, t_end / 10.0)
    u = np.ones(n)
    t, accepted, rejected, err_prev, idx, recording, refreshes = 0.0, 0, 0, 1.0, 0, 0, 0
    ks = np.empty((16, n))

    def weigh(s):
        # v + h (A[s] @ ks[:s]) as [1, h A[s]] @ [v; ks[:s]]
        return np.concatenate(([1.0], h * A[s])) @ np.vstack([v, ks[:s]])

    while t < t_end:
        # one power iteration on the Jacobian at v caps |h lambda| at 5
        v_sq = float(np.add.reduce(v * v))
        size = 2.0 ** -26 * math.sqrt(v_sq) if v_sq > 0.0 else 2.0 ** -26
        u = f(v + size / math.sqrt(float(np.add.reduce(u * u))) * u) - k0
        d_sq = float(np.add.reduce(u * u))
        if not 0.0 < d_sq < math.inf:
            u, d_sq = np.ones(n), 0.0
        lam = math.sqrt(d_sq) / size
        h = min(h_ctrl, t_end - t)
        if h * lam > 5.0:
            h = 5.0 / lam
        ks[0] = k0
        for s in range(1, 12):
            ks[s] = f(weigh(s))
        y = weigh(12)
        ks[12] = f(y)
        if not np.isfinite(ks[:13]).all() or not np.isfinite(y).all():
            rejected += 1
            h_ctrl = h * 0.25
            continue
        y_min = float(y.min())
        if y_min < -atol:
            rejected += 1
            h_ctrl = h * 0.5
            continue
        q = (E @ ks[:12]) / (atol + rtol * np.maximum(np.abs(v), np.abs(y)))
        sq5, sq3 = np.add.reduce(q * q, axis=-1).tolist()
        deno = (sq5 + 0.01 * sq3) * n
        err = h * sq5 / math.sqrt(deno) if deno > 0.0 else 0.0
        if not err <= 1.0:
            rejected += 1
            h_ctrl = h * max(0.1, 0.9 * err ** -0.125)
            continue
        accepted += 1
        t_new = t + h
        if t_end - t_new < 1e-14 * t_end:
            t_new = t_end
        inside = []
        while idx < len(grid) and grid[idx] < t_new:
            inside.append(grid[idx])
            idx += 1
        if inside:
            recording += 1
            for s in range(13, 16):
                ks[s] = f(weigh(s))
            sigma = (np.array(inside) - t) / h
            times.extend(inside)
            states.extend(np.clip(v + h * (_dense_weights(sigma) @ P @ ks), 0.0, None))
        if y_min <= 0.0:
            y = np.clip(y, 0.0, None)
        if idx < len(grid) and grid[idx] == t_new:
            times.append(t_new)
            states.append(y)
            idx += 1
        v, t = y, t_new
        if y_min < 0.0 and t < t_end:
            refreshes += 1
            k0 = f(v)
        else:
            k0 = ks[12].copy()
        factor = 0.9 * err ** (-0.7 / 8.0) * err_prev ** (0.4 / 8.0) if err > 0 else 5.0
        h_ctrl = h * min(5.0, max(0.2, factor))
        err_prev = max(err, 1e-4)
    if stats is not None:
        stats["recording_steps"] = recording
        stats["refreshes"] = refreshes
    return np.asarray(times), np.asarray(states), accepted, rejected


def _c04_starts(count=20):
    model = get_preset("mut4").model
    rng = np.random.default_rng(404)
    starts = rng.uniform(0.0, 2.0 * model.big_k, size=(count, model.n))
    assert np.all(starts.max(axis=1) > 0.0)
    return model, starts


def _rejecting_starts(rows=(4, 19, 179)):
    """fit2asym and starts of it that reject a step for accuracy at rtol 1e-10
    over [0, 200]: rows 4, 19 and 179 of 200 random starts are the ones that do."""
    model = get_preset("fit2asym").model
    rng = np.random.default_rng(1)
    starts = rng.uniform(0.0, 2.0 * model.big_k, size=(200, model.n))
    return model, starts[list(rows)]


_REJECTING_KWARGS = {"t_end": 200.0, "rtol": 1e-10, "atol": 1e-12, "record_every": 200.0}


def _assert_same_run(traj, ref):
    times, states, accepted, rejected = ref
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert (traj.accepted_steps, traj.rejected_steps) == (accepted, rejected)


def test_rejected_steps_restart_from_the_field_at_the_state():
    # these starts reject steps for accuracy; every retry must be a true
    # DOP853 step from v, whose first stage is f(v)
    model, starts = _rejecting_starts()
    for v0 in starts:
        traj = integrate(model, v0, **_REJECTING_KWARGS)
        _assert_same_run(traj, _reference_integrate(model, v0, 200.0, 1e-10, 1e-12, 200.0))
        assert traj.rejected_steps > 0


def _field_failing_at(model, call):
    """The model's field, except that evaluation number `call` comes back NaN."""
    field = dynamics._vector_field(model)
    calls = []

    def g(x):
        calls.append(np.array(x, copy=True))
        out = field(x)
        return np.full_like(out, np.nan) if len(calls) == call else out

    return g, calls


def test_non_finite_attempt_does_not_poison_the_retry(monkeypatch):
    # the last stage of the second attempt (call 1 + 13 + 13: the first step
    # ends before the first grid time, so it runs no extra stages) comes back
    # non-finite; that attempt is rejected and the retry starts again from f(v)
    preset = get_preset("sym2")
    flaky, calls = _field_failing_at(preset.model, 27)
    monkeypatch.setattr(dynamics, "_vector_field", lambda model: flaky)
    traj = integrate(preset.model, preset.v0, preset.t_end)
    assert traj.rejected_steps == 1
    assert np.isfinite(calls[27]).all()
    reference_field, _ = _field_failing_at(preset.model, 27)
    _assert_same_run(traj, _reference_integrate(preset.model, preset.v0, preset.t_end, 1e-8,
                                                1e-10, preset.t_end / 500.0, reference_field))


def _counting_field(monkeypatch, model):
    """Count the integrator's field evaluations: the model's field, wrapped
    as `_field_failing_at` wraps it, with no evaluation failing."""
    field, calls = _field_failing_at(model, 0)
    monkeypatch.setattr(dynamics, "_vector_field", lambda model: field)
    return calls


# field calls and accepted/rejected steps of each preset run from its own v0
# to its t_end at the default tolerances and grid: the integrator's work,
# which a change to the rounding of a step's products must leave alone
_WORK = {
    "sym2": (334, 21, 0),
    "fit2asym": (574, 36, 0),
    "mut4": (734, 46, 0),
    "pert2": (334, 21, 0),
    "crowd3": (715, 45, 0),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_one_row_takes_thirteen_field_calls_per_attempt(monkeypatch, name):
    # one call at the start, then per attempt the power iteration's probe and
    # twelve stages: FSAL reuses the last stage of an accepted step, and a
    # rejected one keeps f(v); an accepted step that holds grid times adds
    # the extension's three stages
    preset = get_preset(name)
    calls = _counting_field(monkeypatch, preset.model)
    for every in (preset.t_end, None):
        calls.clear()
        traj = integrate(preset.model, preset.v0, preset.t_end, record_every=every)
        attempts = traj.accepted_steps + traj.rejected_steps
        if every is not None:
            # only the step that ends on t_end records, and not from the extension
            assert len(calls) == 1 + 13 * attempts
        else:
            stats = {}
            _reference_integrate(preset.model, preset.v0, preset.t_end, 1e-8, 1e-10,
                                 preset.t_end / 500.0, stats=stats)
            assert 0 < stats["recording_steps"] <= traj.accepted_steps
            assert len(calls) == 1 + 13 * attempts + 3 * stats["recording_steps"]
            assert (len(calls), traj.accepted_steps, traj.rejected_steps) == _WORK[name]
        assert all(x.shape == (preset.model.n,) for x in calls[1:])


def test_batch_takes_thirteen_field_calls_per_lockstep_attempt(monkeypatch):
    # the rows attempt their steps together until each finishes, so the
    # attempts in lockstep are the most any row makes; none is clipped here,
    # and no step records grid times from the extension
    model, starts = _c04_starts()
    calls = _counting_field(monkeypatch, model)
    batch = integrate_batch(model, starts, 200.0, rtol=1e-10, atol=1e-12, record_every=200.0)
    lockstep = max(traj.accepted_steps + traj.rejected_steps for traj in batch)
    assert len(calls) == 1 + 13 * lockstep
    assert calls[0].shape == starts.shape


def test_batch_builds_r_plus_m_once(monkeypatch):
    # the field binds R+M when the run starts, not at each evaluation
    model, starts = _c04_starts()
    builds, calls = [], []
    build, bind = model_module.growth_mutation_matrix, dynamics._vector_field

    def counted_build(model):
        builds.append(None)
        return build(model)

    def counted_bind(model):
        field = bind(model)

        def counted(v):
            calls.append(None)
            return field(v)

        return counted

    monkeypatch.setattr(model_module, "growth_mutation_matrix", counted_build)
    monkeypatch.setattr(dynamics, "growth_mutation_matrix", counted_build)
    monkeypatch.setattr(dynamics, "_vector_field", counted_bind)
    batch = integrate_batch(model, starts, 200.0, rtol=1e-10, atol=1e-12)
    lockstep = max(traj.accepted_steps + traj.rejected_steps for traj in batch)
    assert len(calls) > 13 * lockstep > 13
    assert len(builds) == 1


def test_atol_zero_keeps_a_zero_genotype_at_zero():
    # with atol = 0 the genotype that starts at 0 has error scale 0 all the
    # way; its error estimate is 0 as well, so it meets the tolerance
    model = build_model(2, [1, 2], 10, np.zeros((2, 2)), uniform_linear([1, 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(model, [1, 0], 5, atol=0)
        batch = integrate_batch(model, [[1, 0], [0.5, 0], [1, 1]], 5, atol=0)
    assert traj.times[-1] == 5.0
    assert np.all(traj.states[:, 1] == 0.0)
    # the start-up step leaves the zero-scale genotype out of its norms; when
    # a NaN norm fell back to h = 1e-6 t_end, the run took 19 steps
    assert (traj.accepted_steps, traj.rejected_steps) == (14, 2)
    assert traj.tol_used == (1e-8, 0.0)
    assert np.all(batch[1].states[:, 1] == 0.0)
    assert np.all(batch[2].states[1:] > 0.0)
    _assert_same_run(batch[0], (traj.times, traj.states, traj.accepted_steps,
                                traj.rejected_steps))


@pytest.mark.parametrize("atol", [1e-20, 1e-22, 1e-300])
def test_tiny_atol_on_a_zero_component_starts_at_the_step_floor(atol):
    # the zero genotypes' scale is atol and their inflow is not 0, so the
    # start-up norm of the field is huge; the start step used to fall below
    # the floor 1e-14 t_end and end the run at t = 0
    model = get_preset("mut4").model
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = integrate(model, [100, 0, 0, 0], 50, rtol=1e-10, atol=0)
        traj = integrate(model, [100, 0, 0, 0], 50, rtol=1e-10, atol=atol)
    assert traj.times[-1] == 50.0
    assert np.array_equal(traj.times, ref.times)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-9 * np.max(np.abs(ref.states))


def _hypercube16():
    rng = np.random.default_rng(16)
    r = rng.uniform(0.8, 1.2, size=16)
    model = build_model(16, r, 10.0, point_mutation_matrix(4, 0.02), uniform_linear(r))
    return model, rng.uniform(0.0, 20.0, size=(4, 16))


def _batch_case(name):
    if name == "hypercube16":
        model, starts = _hypercube16()
        return model, starts, {"t_end": 30.0, "rtol": 1e-10, "atol": 1e-12, "record_every": 0.5}
    preset = get_preset(name)
    rng = np.random.default_rng(3)
    starts = np.vstack([preset.v0, rng.uniform(0.0, 2.0 * preset.model.big_k,
                                               size=(3, preset.model.n))])
    return preset.model, starts, {"t_end": preset.t_end}


@pytest.mark.parametrize("name", sorted(_GOLDEN) + ["hypercube16"])
def test_batch_rows_equal_their_single_runs(name):
    model, starts, kwargs = _batch_case(name)
    batch = integrate_batch(model, starts, **kwargs)
    assert len(batch) == len(starts)
    for v0, traj in zip(starts, batch):
        single = integrate(model, v0, **kwargs)
        _assert_same_run(traj, (single.times, single.states, single.accepted_steps,
                                single.rejected_steps))
        assert traj.tol_used == single.tol_used
    # the rows leave the batch at different steps
    assert len({traj.accepted_steps for traj in batch}) > 1


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.integers(min_value=2, max_value=8),
       st.floats(min_value=1.0, max_value=100.0),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.5, max_value=4.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_batch_rows_equal_their_single_runs_on_in_scope_models(n, big_k, rows, n_models, t_end,
                                                                seed):
    # every row of a lockstep stack, on in-scope models of each kind and
    # from any nonnegative start (exact zeros, and whole rows of them,
    # included), is its one-start run bit for bit; with n_models > 1 the
    # stack holds one model per row, row b running model b % n_models
    for kind in ("uniform", "crowding", "perturbed"):
        rng = np.random.default_rng(seed)
        models = [_in_scope_model(kind, n, big_k * (1.0 + k), rng) for k in range(n_models)]
        row_models = [models[b % n_models] for b in range(rows)]
        starts = rng.uniform(0.0, 2.0 * big_k, size=(rows, n))
        starts[rng.random(starts.shape) < 0.3] = 0.0
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "initial state.* is identically zero", UserWarning)
            batch = integrate_batch(models[0] if n_models == 1 else row_models, starts, t_end)
            for model, v0, traj in zip(row_models, starts, batch):
                single = integrate(model, v0, t_end)
                _assert_same_run(traj, (single.times, single.states, single.accepted_steps,
                                        single.rejected_steps))


def test_batch_rows_equal_the_reference_loop():
    # every interaction kind binds its own one-state field: a stack's rows,
    # which start on the stacked field, must match the plain loop on it
    model, starts = _hypercube16()
    for v0, traj in zip(starts[:2], integrate_batch(model, starts[:2], 5.0, record_every=0.5)):
        _assert_same_run(traj, _reference_integrate(model, v0, 5.0, 1e-8, 1e-10, 0.5))
    for name in ("crowd3", "pert2"):
        model, starts, kwargs = _batch_case(name)
        t_end = kwargs["t_end"]
        for v0, traj in zip(starts, integrate_batch(model, starts, t_end)):
            _assert_same_run(traj, _reference_integrate(model, v0, t_end, 1e-8, 1e-10,
                                                        t_end / 500.0))


def test_batch_rows_with_rejections_equal_their_single_runs():
    model, starts = _rejecting_starts(range(20))
    batch = integrate_batch(model, starts, **_REJECTING_KWARGS)
    for v0, traj in zip(starts, batch):
        single = integrate(model, v0, **_REJECTING_KWARGS)
        _assert_same_run(traj, (single.times, single.states, single.accepted_steps,
                                single.rejected_steps))
    assert [j for j, traj in enumerate(batch) if traj.rejected_steps] == [4, 19]


def test_batch_of_one_is_integrate():
    # mut4's _GOLDEN entry, re-recorded with it for the one-product stages
    preset = get_preset("mut4")
    (traj,) = integrate_batch(preset.model, preset.v0[None], preset.t_end)
    digest = hashlib.sha256(trajectory_csv(traj).encode()).hexdigest()
    assert (digest, traj.accepted_steps, traj.rejected_steps) == _GOLDEN["mut4"]


def test_batch_zero_row_warns_and_stays_zero():
    preset = get_preset("sym2")
    starts = np.array([[8.0, 2.0], [0.0, 0.0], [1.0, 3.0]])
    with pytest.warns(UserWarning, match="row 1"):
        batch = integrate_batch(preset.model, starts, 5.0)
    assert np.all(batch[1].states == 0.0)
    for i in (0, 2):
        assert np.array_equal(batch[i].states, integrate(preset.model, starts[i], 5.0).states)


@pytest.mark.parametrize(
    "starts, error",
    [
        ([[8.0, 2.0], [-1.0, 2.0]], ValueError),
        ([[8.0, 2.0], [np.inf, 2.0]], NonFiniteState),
        ([[8.0, 2.0], [np.nan, 2.0]], NonFiniteState),
        ([8.0, 2.0], ValueError),
        ([[8.0, 2.0, 1.0]], ValueError),
        (np.empty((0, 2)), ValueError),
    ],
)
def test_batch_bad_rows_rejected(starts, error):
    model = get_preset("sym2").model
    with pytest.raises(error):
        integrate_batch(model, starts, 1.0)


def _c12_models():
    """Criterion 12's four perturbed models: sym2 with pert2's bump at each eps."""
    sym = get_preset("sym2").model
    inter = get_preset("pert2").model.interaction
    return [build_model(sym.n, sym.r, sym.big_k, sym.mu,
                        perturbed(uniform_linear(sym.r), eps, inter.amp, inter.w))
            for eps in (1e-4, 4e-4, 1.6e-3, 6.4e-3)]


def test_batch_with_one_model_per_row_equals_the_batches_of_each_model():
    # criterion 12's set-up: five starts per model, the rows of all four
    # models in one stack, at the derived tolerances of tol = 1e-5
    models = _c12_models()
    rng = np.random.default_rng(12)
    starts = rng.uniform(0.0, 20.0, size=(20, 2))
    kwargs = {"rtol": 1e-8, "atol": 1e-10, "record_every": 120.0}
    batch = integrate_batch([m for m in models for _ in range(5)], starts, 120.0, **kwargs)
    for k, model in enumerate(models):
        alone = integrate_batch(model, starts[5 * k:5 * k + 5], 120.0, **kwargs)
        for traj, ref in zip(batch[5 * k:5 * k + 5], alone):
            _assert_same_run(traj, (ref.times, ref.states, ref.accepted_steps,
                                    ref.rejected_steps))


def test_batch_with_one_model_per_row_records_dense_output_from_each_rows_field():
    # a fine grid: the extension's stages of a stack row, and a lone last
    # row, run on that row's own model
    models = _c12_models()[::3]
    starts = np.array([[1.0, 9.0], [6.0, 0.5], [3.0, 3.0]])
    row_models = [models[0], models[1], models[1]]
    kwargs = {"rtol": 1e-9, "record_every": 0.5}
    batch = integrate_batch(row_models, starts, 20.0, **kwargs)
    assert len({traj.accepted_steps for traj in batch}) > 1
    for model, v0, traj in zip(row_models, starts, batch):
        single = integrate(model, v0, 20.0, **kwargs)
        _assert_same_run(traj, (single.times, single.states, single.accepted_steps,
                                single.rejected_steps))


def test_flow_batch_gives_each_row_its_own_models_flow(monkeypatch):
    # sym2 has a closed form and, with asymmetric mutation, its twin asym
    # none: one integrate_batch call takes the asym rows, in row order
    sym2 = get_preset("sym2").model
    asym = build_model(2, sym2.r, sym2.big_k, [[0.0, 0.1], [0.3, 0.0]], sym2.interaction)
    row_models = [sym2, asym, sym2, asym, asym]
    starts = np.random.default_rng(7).uniform(0.0, 20.0, size=(5, 2))
    calls = []
    real_batch = dynamics.integrate_batch

    def spy(model, rows, *args, **kwargs):
        calls.append((list(model), rows.copy()))
        return real_batch(model, rows, *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_batch", spy)
    flows = dynamics._flow_batch(row_models, starts, 10.0, record_every=2.0)
    assert len(calls) == 1
    assert calls[0][0] == [asym] * 3
    assert np.array_equal(calls[0][1], starts[[1, 3, 4]])
    monkeypatch.undo()
    for model, v0, traj in zip(row_models, starts, flows):
        (alone,) = dynamics._flow_batch(model, v0[None], 10.0, record_every=2.0)
        assert np.array_equal(traj.times, alone.times)
        assert np.array_equal(traj.states, alone.states)
        assert traj.tol_used == alone.tol_used
        assert (traj.accepted_steps, traj.rejected_steps) == (
            alone.accepted_steps, alone.rejected_steps)


@pytest.mark.parametrize("run", [integrate_batch, dynamics._flow_batch],
                         ids=["integrate_batch", "_flow_batch"])
@pytest.mark.parametrize("models, match", [
    (lambda: [get_preset("sym2").model], "got 1 for 2 rows"),
    (lambda: [get_preset("sym2").model] * 3, "got 3 for 2 rows"),
    (lambda: [], "nonempty sequence"),
    (lambda: [get_preset("sym2").model, get_preset("crowd3").model], "share n"),
    (lambda: [get_preset("sym2").model, get_preset("pert2").model], "share one interaction kind"),
])
def test_batch_rejects_models_that_do_not_fit_its_rows(run, models, match):
    starts = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match=match) as info:
        run(models(), starts, 1.0)
    assert "model" in str(info.value)


def test_batch_step_budget_is_per_row(monkeypatch):
    # attempted steps count, rejected ones included
    model, starts = _rejecting_starts()
    kwargs = _REJECTING_KWARGS
    batch = integrate_batch(model, starts, **kwargs)
    assert all(traj.rejected_steps > 0 for traj in batch)
    steps = max(traj.accepted_steps + traj.rejected_steps for traj in batch)
    monkeypatch.setattr(dynamics, "_MAX_STEPS", steps)
    assert [t.accepted_steps for t in integrate_batch(model, starts, **kwargs)] == [
        t.accepted_steps for t in batch
    ]
    monkeypatch.setattr(dynamics, "_MAX_STEPS", steps - 1)
    with pytest.raises(StepBudgetExceeded, match=f"{steps - 1} attempted steps"):
        integrate_batch(model, starts, **kwargs)


def test_batch_non_finite_stage_rejects_its_row_quietly(monkeypatch):
    # one row's second stage overflows on the second attempt (call 1 + 13 + 3);
    # the stages computed from it must not raise numpy warnings, and only
    # that row retries
    preset = get_preset("pert2")
    starts = np.array([preset.v0, [1.0, 3.0]])
    field = dynamics._vector_field(preset.model)
    calls = []

    def flaky(model):
        def g(x):
            calls.append(None)
            out = field(x)
            if len(calls) == 17:
                out = out.copy()
                out[0] = [np.inf, -np.inf]
            return out
        return g

    monkeypatch.setattr(dynamics, "_vector_field", flaky)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = integrate_batch(preset.model, starts, preset.t_end)
    monkeypatch.undo()
    assert [traj.rejected_steps for traj in batch] == [1, 0]
    assert np.array_equal(batch[1].states, integrate(preset.model, starts[1], preset.t_end).states)
    assert np.isfinite(batch[0].states).all()


def test_clipped_state_refreshes_its_first_stage(monkeypatch):
    # a field that falls faster below zero: an accepted step that lands in
    # (-atol, 0) is clipped, and f at the clipped state replaces the FSAL stage
    calls = []

    def field(model):
        def g(x):
            calls.append(x.shape)
            return np.where(x < 0.0, -2.0, -1.0)
        return g

    monkeypatch.setattr(dynamics, "_vector_field", field)
    model = get_preset("sym2").model
    starts = np.array([[1.0, 1.5], [0.7, 2.0]])
    batch = integrate_batch(model, starts, 4.0, rtol=0.0, atol=0.5, record_every=4.0)
    # each refresh is one call beyond the thirteen per lockstep attempt, and
    # a row's finishing step makes none; this grid records no sample from
    # the extension, whose stages would add more
    lockstep = max(traj.accepted_steps + traj.rejected_steps for traj in batch)
    batch_calls = len(calls)
    refreshes = 0
    for v0 in starts:
        stats = {}
        _reference_integrate(model, v0, 4.0, 0.0, 0.5, 4.0, field(model), stats)
        refreshes += stats["refreshes"]
    assert refreshes > 0
    assert batch_calls == 1 + 13 * lockstep + refreshes
    batch = integrate_batch(model, starts, 4.0, rtol=0.0, atol=0.5, record_every=0.5)
    for v0, traj in zip(starts, batch):
        _assert_same_run(traj, _reference_integrate(model, v0, 4.0, 0.0, 0.5, 0.5, field(model)))
    assert np.all(batch[0].states[-1] == 0.0)


def _finite_cases():
    rng = np.random.default_rng(11)
    clean = (rng.standard_normal((2, 13, 3)), rng.standard_normal((2, 3)))
    nan = (clean[0].copy(), clean[1])
    nan[0][1, 3, 2] = np.nan
    inf_pair = (clean[0].copy(), clean[1].copy())
    inf_pair[0][0, 2, 1] = np.inf
    inf_pair[1][1, 0] = -np.inf
    overflow = (clean[0].copy(), clean[1])
    overflow[0][0, 1:3, 0] = 1e308
    return {"clean": clean, "nan": nan, "inf-pair": inf_pair, "overflow": overflow}


@pytest.mark.parametrize("case", ["clean", "nan", "inf-pair", "overflow"])
def test_finite_rows_match_the_entrywise_test(case):
    ks, y = _finite_cases()[case]
    exact = (np.isfinite(ks).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        rows = dynamics._finite_rows(ks, y)
    # None is the one-sum verdict "all finite"; the overflow of finite
    # entries falls through to the exact per-row flags
    assert rows == (None if case == "clean" else exact)
    assert exact == {"clean": [True, True], "nan": [True, False],
                     "inf-pair": [False, False], "overflow": [True, True]}[case]
