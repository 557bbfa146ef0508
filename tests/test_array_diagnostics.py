"""The (T, n) trajectory diagnostics against the per-sample loops they replaced.

The `_ref_*` functions below are the per-sample implementations of
`dissipation`, `decompose`, `identity_residual`, `lyapunov_descent`,
`log_energy_slopes` and `convergence_rate` as they stood before those
diagnostics took the whole state array in one pass; `convergence_rate`'s
also takes the fit's later error floor and resolved span. The array code sums in
another order, so values are compared within tolerances fixed beforehand:
1e-12 relative for H, F and E_h, and 1e-12 times the sum of the absolute
values of their terms for D and the Gamma term, which are formed by
cancellation.
"""
import math

import numpy as np
import pytest

from lvmut.analysis import convergence_rate
from lvmut.dynamics import integrate
from lvmut.entropy import (
    EntropyKernel,
    decompose,
    dissipation,
    identity_residual,
    log_energy_slopes,
    lyapunov_descent,
)
from lvmut.equilibrium import equilibrium_homotopy, equilibrium_uniform
from lvmut.errors import InsufficientTail, WrongInteractionKind
from lvmut.model import (
    UniformLinear,
    build_model,
    interaction_values,
    point_mutation_matrix,
    uniform_linear,
)
from lvmut.presets import get_preset

REL = 1e-12


# -- the per-sample loops -------------------------------------------------------

def _ref_dissipation(model, v, v_bar, kernel):
    s = v / v_bar
    hs = kernel.value(s)
    hp = kernel.deriv(s)
    weights = model.mu * np.outer(v_bar, v_bar)
    d_value = float(
        np.sum(weights * (hs[None, :] - hs[:, None]))
        + np.sum(weights * (hp[:, None] * (s[:, None] - s[None, :])))
    )
    gamma = interaction_values(model, v_bar) - interaction_values(model, v)
    gamma_term = float(np.sum(v_bar * hp * gamma * v) / model.big_k)
    h_value = float(np.sum(v_bar**2 * hs))
    return h_value, d_value, gamma_term


def _ref_nonuniform_slope(t0, t1, t2, f0, f1, f2):
    h1 = t1 - t0
    h2 = t2 - t1
    return (
        -f0 * h2 / (h1 * (h1 + h2))
        + f1 * (h2 - h1) / (h1 * h2)
        + f2 * h1 / (h2 * (h1 + h2))
    )


def _ref_identity_residual(model, trajectory, v_bar, kernel):
    times = trajectory.times
    reports = [_ref_dissipation(model, v, v_bar, kernel) for v in trajectory.states]
    h_vals = np.array([rep[0] for rep in reports])
    worst = 0.0
    for k in range(1, times.size - 1):
        fd = _ref_nonuniform_slope(
            times[k - 1], times[k], times[k + 1], h_vals[k - 1], h_vals[k], h_vals[k + 1]
        )
        analytic = -reports[k][1] + reports[k][2]
        gap = abs(fd - analytic) / max(1.0, abs(h_vals[k]))
        worst = max(worst, gap)
    return worst


def _ref_decompose(v, v_bar):
    denom = float(v_bar @ v_bar)
    lam = float(v @ v_bar) / denom
    h = v - lam * v_bar
    e_v = float(v @ v)
    beta = float(v @ v_bar)
    f_value = math.log(e_v / beta**2) if beta != 0.0 and e_v > 0.0 else math.inf
    return lam, h, float(h @ h), beta, f_value


def _ref_lyapunov_descent(model, trajectory, v_bar):
    weights = model.mu * np.outer(v_bar, v_bar)
    f_values = np.empty(trajectory.times.size)
    df_values = np.empty(trajectory.times.size)
    for k, v in enumerate(trajectory.states):
        f_values[k] = _ref_decompose(v, v_bar)[4]
        s = v / v_bar
        e_v = float(v @ v)
        df_values[k] = (
            -float(np.sum(weights * (s[None, :] - s[:, None]) ** 2)) / e_v if e_v > 0 else 0.0
        )
    return f_values, df_values


def _ref_log_energy_slopes(trajectory, v_bar):
    times = trajectory.times
    vals = np.empty(times.size)
    for k, v in enumerate(trajectory.states):
        _, _, e_h, beta, _ = _ref_decompose(v, v_bar)
        vals[k] = math.log(e_h / beta**2) if e_h > 0.0 and beta != 0.0 else -math.inf
    slopes = (vals[2:] - vals[:-2]) / (times[2:] - times[:-2])
    return times[1:-1], slopes


def _least_squares_line(x, y):
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ ym) / sxx if sxx > 0 else 0.0
    ss_res = float(np.sum((ym - slope * xm) ** 2))
    ss_tot = float(ym @ ym)
    return slope, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _ref_convergence_rate(trajectory, v_bar, tail_fraction=0.5):
    # the error floor: 100 tolerance scales of the state, squared
    rtol, atol = trajectory.tol_used
    floor = 1e4 * sum((rtol * abs(x) + atol) ** 2 for x in v_bar)
    floor = max(floor, 1e-28)
    times = trajectory.times
    e_hs_all = [_ref_decompose(v, v_bar)[2] for v in trajectory.states]
    t_last = times[0]
    for t, e_h in zip(times, e_hs_all):
        if e_h > floor:
            t_last = t
    cutoff = t_last - tail_fraction * (t_last - times[0])
    ts, e_hs, sups = [], [], []
    for t, v, e_h in zip(times, trajectory.states, e_hs_all):
        if t < cutoff or e_h <= floor:
            continue
        ts.append(t)
        e_hs.append(e_h)
        sups.append(float(np.max(np.abs(v - v_bar))))
    if len(ts) < 20:
        raise InsufficientTail(f"only {len(ts)} usable tail samples")
    ts = np.asarray(ts)
    slope_eh, r_squared = _least_squares_line(ts, np.log(np.asarray(e_hs)))
    sups = np.asarray(sups)
    good = sups > 0.0
    slope_sup = _least_squares_line(ts[good], np.log(sups[good]))[0] if good.sum() >= 2 else 0.0
    return slope_eh, slope_sup, r_squared, (float(ts[0]), float(ts[-1])), int(ts.size)


# -- cases ----------------------------------------------------------------------

def _hypercube16():
    rng = np.random.default_rng(5)
    r = rng.uniform(0.8, 1.2, size=16)
    model = build_model(16, r, 10.0, point_mutation_matrix(4, 0.02), uniform_linear(r))
    return model, rng.uniform(0.0, 20.0, size=16), 40.0


def _case(name):
    if name == "hypercube16":
        model, v0, t_end = _hypercube16()
    else:
        preset = get_preset(name)
        model, v0, t_end = preset.model, preset.v0, preset.t_end
    if isinstance(model.interaction, UniformLinear):
        v_bar = equilibrium_uniform(model).v_bar
    else:
        v_bar = equilibrium_homotopy(model).v_bar
    return model, v_bar, integrate(model, v0, t_end)


# fit2asym decays below the rate fit's error floor long before t_end
CASES = ("mut4", "pert2", "crowd3", "hypercube16", "fit2asym")
KERNELS = {
    "linear": EntropyKernel.linear(),
    "quadratic": EntropyKernel.quadratic(),
    "cubic": EntropyKernel.polynomial([0.5, -1.0, 0.25, 0.125]),
}


@pytest.fixture(scope="module", params=CASES)
def case(request):
    return _case(request.param)


def _close(new, ref, tol):
    new = np.asarray(new, dtype=float)
    ref = np.asarray(ref, dtype=float)
    assert new.shape == ref.shape
    # equal entries, infinities included (log E(h) = -inf where E(h) = 0),
    # and nan against nan count as no gap
    with np.errstate(invalid="ignore"):
        gap = np.where((new == ref) | (np.isnan(new) & np.isnan(ref)), 0.0, np.abs(new - ref))
    worst = int(np.argmax(gap - tol))
    assert np.all(gap <= tol), f"at {worst}: {new.flat[worst]!r} vs {ref.flat[worst]!r}"


def _entropy_scales(model, states, v_bar, kernel):
    """Per-sample sums of the absolute values of the terms of D and Gamma."""
    d_scale, g_scale = [], []
    weights = model.mu * np.outer(v_bar, v_bar)
    for v in states:
        s = v / v_bar
        hs = kernel.value(s)
        hp = kernel.deriv(s)
        d_scale.append(
            np.sum(np.abs(weights * (hs[None, :] - hs[:, None])))
            + np.sum(np.abs(weights * (hp[:, None] * (s[:, None] - s[None, :]))))
        )
        gamma = interaction_values(model, v_bar) - interaction_values(model, v)
        g_scale.append(np.sum(np.abs(v_bar * hp * gamma * v)) / model.big_k)
    return np.array(d_scale), np.array(g_scale)


# -- comparisons ----------------------------------------------------------------

@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_dissipation_rows_match_the_loop(case, kernel_name):
    model, v_bar, traj = case
    kernel = KERNELS[kernel_name]
    rep = dissipation(model, traj.states, v_bar, kernel)
    ref = np.array([_ref_dissipation(model, v, v_bar, kernel) for v in traj.states])
    d_scale, g_scale = _entropy_scales(model, traj.states, v_bar, kernel)
    _close(rep.h_value, ref[:, 0], REL * np.abs(ref[:, 0]))
    _close(rep.d_value, ref[:, 1], REL * d_scale)
    _close(rep.gamma_term, ref[:, 2], REL * g_scale)
    _close(rep.analytic_dt, -ref[:, 1] + ref[:, 2], REL * (d_scale + g_scale))
    # one state gives the same numbers as scalars
    one = dissipation(model, traj.states[7], v_bar, kernel)
    _close(one.h_value, ref[7, 0], REL * abs(ref[7, 0]))
    _close(one.d_value, ref[7, 1], REL * d_scale[7])
    _close(one.gamma_term, ref[7, 2], REL * g_scale[7])


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_identity_residual_matches_the_loop(case, kernel_name):
    model, v_bar, traj = case
    kernel = KERNELS[kernel_name]
    ref = _ref_identity_residual(model, traj, v_bar, kernel)
    # H matches, so the finite differences do; D and Gamma move the gaps
    # by at most their tolerances over max(1, |H|)
    d_scale, g_scale = _entropy_scales(model, traj.states, v_bar, kernel)
    h_vals = np.array([_ref_dissipation(model, v, v_bar, kernel)[0] for v in traj.states])
    tol = REL * float(np.max((d_scale + g_scale) / np.maximum(1.0, np.abs(h_vals))))
    assert abs(identity_residual(model, traj, v_bar, kernel) - ref) <= tol + REL * ref


def test_decompose_rows_match_the_loop(case):
    _, v_bar, traj = case
    dec = decompose(traj.states, v_bar)
    ref = [_ref_decompose(v, v_bar) for v in traj.states]
    lam, h, e_h, beta, f_value = (np.array(col) for col in zip(*ref))
    _close(dec.lambda_coef, lam, REL * np.abs(lam))
    _close(dec.beta, beta, REL * np.abs(beta))
    _close(dec.e_h, e_h, REL * e_h)
    _close(dec.f_value, f_value, REL * np.abs(f_value))
    _close(dec.h, h, REL * np.abs(h) + REL * np.abs(lam[:, None] * v_bar))


def test_lyapunov_descent_matches_the_loop(case):
    model, v_bar, traj = case
    if not isinstance(model.interaction, UniformLinear):
        with pytest.raises(WrongInteractionKind):
            lyapunov_descent(model, traj, v_bar)
        return
    f_values, df_values = lyapunov_descent(model, traj, v_bar)
    f_ref, df_ref = _ref_lyapunov_descent(model, traj, v_bar)
    _close(f_values, f_ref, REL * np.abs(f_ref))
    # the terms w_ij (s_j - s_i)^2 are nonnegative: their sum is |D|
    _close(df_values, df_ref, REL * np.abs(df_ref))


def test_log_energy_slopes_match_the_loop(case):
    _, v_bar, traj = case
    times, slopes = log_energy_slopes(traj, v_bar)
    ref_times, ref_slopes = _ref_log_energy_slopes(traj, v_bar)
    assert np.array_equal(times, ref_times)
    # E_h within 1e-12 relative moves log(E_h / beta^2) by about 1e-12
    spacing = traj.times[2:] - traj.times[:-2]
    _close(slopes, ref_slopes, 4 * REL / spacing + REL * np.abs(ref_slopes))


@pytest.mark.parametrize("tail_fraction", [0.5, 1.0])
def test_convergence_rate_matches_the_loop(case, tail_fraction):
    _, v_bar, traj = case
    try:
        ref = _ref_convergence_rate(traj, v_bar, tail_fraction)
    except InsufficientTail:
        with pytest.raises(InsufficientTail):
            convergence_rate(traj, v_bar, tail_fraction=tail_fraction)
        return
    rep = convergence_rate(traj, v_bar, tail_fraction=tail_fraction)
    assert rep.window == ref[3]
    assert rep.n_points == ref[4]
    assert rep.fitted_rate_eh == pytest.approx(ref[0], rel=REL, abs=REL)
    assert rep.fitted_rate_sup == pytest.approx(ref[1], rel=REL, abs=REL)
    assert rep.r_squared == pytest.approx(ref[2], rel=REL, abs=REL)
