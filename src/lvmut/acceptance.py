"""Desk-scale acceptance checks shared by `lvmut verify` and the test suite.

Each criterion builds its own models, runs with fixed seeds, and returns a
pass flag plus a one-line numeric account. Failures are reported, never
masked; a criterion that raises counts as failed with the error message.

Criteria about the flow of the uniform presets (01, 04, 05, 06, 08, 10)
read it through dynamics._flow_batch, which gives it exactly there, so
they test the statement rather than the integrator. Criterion 09 compares
the integrator with the exact flow and criterion 12 integrates perturbed
models; they are the only criteria that integrate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    _stability_experiments,
    convergence_rate,
    global_stability_experiment,
    perturbation_sweep,
    spectral_gap,
)
from .dynamics import (
    _flow_batch,
    closed_form_uniform_linear,
    integrate,
    logistic_envelopes,
    positivity_floor,
)
from .entropy import EntropyKernel, identity_residual, lyapunov_descent, log_energy_slopes
from .equilibrium import (
    _apriori_box,
    equilibrium_homotopy,
    equilibrium_uniform,
    residual,
)
from .linalg import is_positive_definite
from .model import (
    build_model,
    crowding_linear,
    growth_mutation_matrix,
    perturbed,
    uniform_linear,
)
from .presets import get_preset


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _random_starts(rng: np.random.Generator, n: int, big_k: float, count: int):
    """Nonnegative, not identically zero, with occasional exact zeros."""
    starts = rng.uniform(0.0, 2.0 * big_k, size=(count, n))
    mask = rng.uniform(size=(count, n)) < 0.25
    starts[mask] = 0.0
    for i in range(count):
        while not np.any(starts[i] > 0.0):
            starts[i] = rng.uniform(0.0, 2.0 * big_k, size=n)
    return starts


def _c01_positivity_floor() -> tuple[bool, str]:
    atol = 1e-10
    worst_state = math.inf
    worst_slack = math.inf
    for preset_name in ("sym2", "fit2asym", "mut4"):
        preset = get_preset(preset_name)
        model = preset.model
        rng = np.random.default_rng(101)
        starts = _random_starts(rng, model.n, model.big_k, 10)
        trajs = _flow_batch(model, starts, preset.t_end, rtol=1e-8, atol=atol)
        for v0, traj in zip(starts, trajs):
            floor = positivity_floor(model, v0)
            worst_state = min(worst_state, float(np.min(traj.states)))
            totals = np.sum(traj.states, axis=1)
            worst_slack = min(worst_slack, float(np.min(totals) - (floor - atol)))
    ok = worst_state >= 0.0 and worst_slack >= 0.0
    return ok, (
        f"min recorded component {worst_state:.3e}, "
        f"worst mass-floor slack {worst_slack:.3e}"
    )


def _c02_equilibrium_values() -> tuple[bool, str]:
    fit = get_preset("fit2asym")
    eq_fit = equilibrium_uniform(fit.model)
    lam_exact = (2.8 + math.sqrt(1.04)) / 2.0
    lam_gap = abs(eq_fit.lambda_p - lam_exact)
    res_fit = residual(fit.model, eq_fit.v_bar)

    sym = get_preset("sym2")
    eq_sym = equilibrium_uniform(sym.model)
    sym_gap = float(np.max(np.abs(eq_sym.v_bar - 5.0)))

    ok = lam_gap <= 1e-9 and res_fit <= 1e-10 and sym_gap <= 1e-10
    return ok, (
        f"lambda_p gap {lam_gap:.3e} (tol 1e-9), residual {res_fit:.3e} "
        f"(tol 1e-10), sym2 v_bar gap {sym_gap:.3e} (tol 1e-10)"
    )


def _c03_mass_law() -> tuple[bool, str]:
    gaps = []
    for preset_name in ("sym2", "fit2asym", "mut4"):
        preset = get_preset(preset_name)
        eq = equilibrium_uniform(preset.model)
        gaps.append(
            abs(float(np.sum(eq.v_bar)) - preset.model.big_k) / preset.model.big_k
        )
    worst = max(gaps)
    return worst <= 1e-8, f"worst |sum(v_bar) - K|/K = {worst:.3e} (tol 1e-8)"


def _c04_global_stability() -> tuple[bool, str]:
    preset = get_preset("mut4")
    report = global_stability_experiment(
        preset.model, n_samples=20, seed=404, t_end=200.0, tol=1e-6
    )
    return report.converged, (
        f"max pairwise gap {report.max_pairwise_gap:.3e}, "
        f"max gap to solver equilibrium {report.max_equilibrium_gap:.3e} (tol 1e-6)"
    )


def _c05_entropy_identity() -> tuple[bool, str]:
    preset = get_preset("mut4")
    model = preset.model
    eq = equilibrium_uniform(model)
    kernel = EntropyKernel.quadratic()
    t_end = 20.0

    residuals = []
    for samples in (1000, 2000):
        traj = _flow_batch(
            model, preset.v0[None], t_end, rtol=1e-11, atol=1e-13,
            record_every=t_end / samples,
        )[0]
        residuals.append(identity_residual(model, traj, eq.v_bar, kernel))
    coarse, fine = residuals
    ratio = coarse / fine if fine > 0 else math.inf
    ok = coarse <= 1e-4 and ratio >= 3.0
    return ok, (
        f"residual {coarse:.3e} at 1000 samples (tol 1e-4), "
        f"step-halving ratio {ratio:.2f} (need >= 3)"
    )


def _c06_lyapunov_descent() -> tuple[bool, str]:
    worst_uptick = -math.inf
    worst_floor_gap = math.inf
    floor_culprit = ""
    for preset_name in ("sym2", "fit2asym", "mut4"):
        preset = get_preset(preset_name)
        model = preset.model
        eq = equilibrium_uniform(model)
        traj = _flow_batch(model, preset.v0[None], preset.t_end, rtol=1e-10, atol=1e-12)[0]
        f_values, _ = lyapunov_descent(model, traj, eq.v_bar)
        if f_values.size >= 2:
            worst_uptick = max(worst_uptick, float(np.max(np.diff(f_values))))
        floor = math.log(1.0 / float(np.max(eq.v_bar)))
        gap = float(np.min(f_values)) - floor
        if gap < worst_floor_gap:
            worst_floor_gap = gap
            floor_culprit = (
                f"{preset_name}: min F {float(np.min(f_values)):.4f} vs "
                f"log(1/max v_bar) {floor:.4f}"
            )
    monotone_ok = worst_uptick <= 1e-9
    floor_ok = worst_floor_gap >= 0.0
    detail = (
        f"max F uptick {worst_uptick:.3e} (tol 1e-9); "
        f"floor F >= log(1/max v_bar): "
        + ("holds" if floor_ok else f"VIOLATED, {floor_culprit}")
    )
    return monotone_ok and floor_ok, detail


def _c07_spectral_gap() -> tuple[bool, str]:
    preset = get_preset("sym2")
    eq = equilibrium_uniform(preset.model)
    report = spectral_gap(preset.model, eq.v_bar)
    c1_gap = abs(report.c1 - 0.2)

    mu = preset.model.mu
    v_bar = eq.v_bar
    h = np.random.default_rng(707).normal(size=(1000, preset.model.n))
    h -= (h @ v_bar)[:, None] / (v_bar @ v_bar) * v_bar
    e_h = np.sum(h * h, axis=1)
    keep = e_h >= 1e-20
    s = h[keep] / v_bar
    form = np.sum(mu * np.outer(v_bar, v_bar) * (s[:, None, :] - s[:, :, None]) ** 2,
                  axis=(1, 2))
    worst = float(np.min(form / e_h[keep], initial=math.inf))
    undercut = report.c1 - worst
    ok = c1_gap <= 1e-10 and undercut <= 1e-9
    return ok, (
        f"c1 gap {c1_gap:.3e} (tol 1e-10), min Rayleigh quotient {worst:.6f} "
        f"vs c1 {report.c1:.6f} (undercut tol 1e-9)"
    )


def _c08_exponential_rate() -> tuple[bool, str]:
    preset = get_preset("sym2")
    model = preset.model
    eq = equilibrium_uniform(model)
    gap = spectral_gap(model, eq.v_bar)
    traj = _flow_batch(
        model, np.array([[8.0, 2.0]]), 40.0, rtol=1e-10, atol=1e-12,
        record_every=0.08,
    )[0]
    rate = convergence_rate(traj, eq.v_bar, tail_fraction=0.5, predicted_c1=gap.c1)
    rate_ok = rate.fitted_rate_eh <= -0.95 * gap.c1
    fit_ok = rate.r_squared >= 0.999

    _, slopes = log_energy_slopes(traj, eq.v_bar)
    worst_slope = float(np.max(slopes)) if slopes.size else -math.inf
    slope_ok = worst_slope <= -gap.c1 + 1e-6
    ok = rate_ok and fit_ok and slope_ok
    return ok, (
        f"fitted rate {rate.fitted_rate_eh:.4f} vs -0.95*c1 = {-0.95 * gap.c1:.4f}, "
        f"r^2 {rate.r_squared:.6f} (need 0.999), max interior slope of "
        f"log(E(h)/beta^2) {worst_slope:.4f} vs {-gap.c1 + 1e-6:.4f}"
    )


def _c09_closed_form() -> tuple[bool, str]:
    worst = 0.0
    for preset_name in ("sym2", "mut4"):
        preset = get_preset(preset_name)
        traj = integrate(
            preset.model, preset.v0, 20.0, rtol=1e-10, atol=1e-12,
            record_every=0.1,
        )
        closed = closed_form_uniform_linear(preset.model, preset.v0, traj.times[1:])
        for t_state, c_state in zip(traj.states, closed.states):
            rel = float(
                np.max(np.abs(t_state - c_state)) / (1.0 + np.max(np.abs(t_state)))
            )
            worst = max(worst, rel)
    return worst <= 1e-6, f"sup relative gap {worst:.3e} over [0,20] (tol 1e-6)"


def _c10_envelopes() -> tuple[bool, str]:
    worst_slack = math.inf
    for preset_name in ("sym2", "fit2asym", "mut4"):
        preset = get_preset(preset_name)
        traj = _flow_batch(
            preset.model, preset.v0[None], 30.0, rtol=1e-12, atol=1e-13,
            record_every=0.1,
        )[0]
        totals = np.sum(traj.states, axis=1)
        env = logistic_envelopes(preset.model, float(totals[0]), traj.times)
        lower = np.minimum(env.n_min, env.n_max)
        upper = np.maximum(env.n_min, env.n_max)
        worst_slack = min(
            worst_slack,
            float(np.min(totals - lower)),
            float(np.min(upper - totals)),
        )
    return worst_slack >= -1e-8, (
        f"worst sandwich slack {worst_slack:.3e} (need >= -1e-8)"
    )


def _c11_homotopy_solver() -> tuple[bool, str]:
    rng = np.random.default_rng(1111)
    r = rng.uniform(0.5, 2.0, size=3)
    m = rng.uniform(0.02, 0.05, size=(3, 3))
    mu = np.triu(m, 1) + np.triu(m, 1).T
    scale = float(np.min(r)) / 2.0 / float(np.max(np.sum(mu, axis=1)))
    mu *= min(1.0, 0.9 * scale)

    crowd = build_model(3, r, 7.0, mu, crowding_linear(np.ones((3, 3))))
    uni = build_model(3, r, 7.0, mu, uniform_linear(r))
    eq_uni = equilibrium_uniform(uni)
    eq_hom = equilibrium_homotopy(crowd)
    agree = float(np.max(np.abs(eq_hom.v_bar - eq_uni.v_bar)))
    res = residual(crowd, eq_hom.v_bar)

    lo, hi = _apriori_box(crowd)
    path_sums = [float(np.sum(v)) for _, v, _ in eq_hom.homotopy_path]
    in_box = all(lo - 1e-12 <= s <= hi + 1e-12 for s in path_sums)

    pd_rng = np.random.default_rng(1212)
    pd_ok = True
    for _ in range(50):
        n = int(pd_rng.integers(2, 7))
        rr = pd_rng.uniform(0.5, 3.0, size=n)
        mm = pd_rng.uniform(0.0, 1.0, size=(n, n))
        sym = np.triu(mm, 1) + np.triu(mm, 1).T
        row_max = float(np.max(np.sum(sym, axis=1)))
        sym *= float(np.min(rr)) / (2.0 * row_max) * pd_rng.uniform(0.1, 1.0)
        mdl = build_model(n, rr, 1.0, sym, uniform_linear(rr))
        if not is_positive_definite(growth_mutation_matrix(mdl)):
            pd_ok = False
            break

    ok = agree <= 1e-7 and res <= 1e-12 and in_box and pd_ok
    return ok, (
        f"solver agreement {agree:.3e} (tol 1e-7), residual {res:.3e} "
        f"(tol 1e-12), path in box [{lo:.3g}, {hi:.3g}]: {in_box}, "
        f"R+M positive definite on 50 draws: {pd_ok}"
    )


def _c12_perturbation_bound() -> tuple[bool, str]:
    sym = get_preset("sym2")
    pert = get_preset("pert2")
    amp = pert.model.interaction.amp
    w = pert.model.interaction.w
    eps_grid = [1e-4, 4e-4, 1.6e-3, 6.4e-3]
    table = perturbation_sweep(sym.model, amp, w, eps_grid)

    failed = [row for row in table.rows if row.failed]
    positive = all(
        row.v_bar is not None and np.all(row.v_bar > 0.0)
        for row in table.rows
        if not row.failed
    )
    ratios = [row.ratio for row in table.rows if row.ratio is not None]
    spread = max(ratios) / min(ratios) if ratios else math.inf

    # the four perturbed models' starts run as one lockstep batch
    runs = [
        (build_model(sym.model.n, sym.model.r, sym.model.big_k, sym.model.mu,
                     perturbed(uniform_linear(sym.model.r), eps, amp, w)),
         1200 + int(eps * 1e6))
        for eps in eps_grid
    ]
    reports = _stability_experiments(runs, n_samples=5, t_end=120.0, tol=1e-5)
    stable = all(rep.converged for rep in reports)
    worst_gap = max(rep.max_equilibrium_gap for rep in reports)

    ok = not failed and positive and spread <= 10.0 and stable
    return ok, (
        f"{len(failed)} failed rows, all equilibria positive: {positive}, "
        f"ratio spread {spread:.3f} (need <= 10), per-eps stability gap "
        f"{worst_gap:.3e} (tol 1e-5)"
    )


_REGISTRY: list[tuple[int, str, tuple[str, ...], object]] = [
    (1, "positivity-floor", ("sym2", "fit2asym", "mut4"), _c01_positivity_floor),
    (2, "equilibrium-values", ("fit2asym", "sym2"), _c02_equilibrium_values),
    (3, "mass-law", ("sym2", "fit2asym", "mut4"), _c03_mass_law),
    (4, "global-stability", ("mut4",), _c04_global_stability),
    (5, "entropy-identity", ("mut4",), _c05_entropy_identity),
    (6, "lyapunov-descent", ("sym2", "fit2asym", "mut4"), _c06_lyapunov_descent),
    (7, "spectral-gap", ("sym2",), _c07_spectral_gap),
    (8, "exponential-rate", ("sym2",), _c08_exponential_rate),
    (9, "closed-form", ("sym2", "mut4"), _c09_closed_form),
    (10, "envelopes", ("sym2", "fit2asym", "mut4"), _c10_envelopes),
    (11, "homotopy-solver", (), _c11_homotopy_solver),
    (12, "perturbation-bound", ("sym2", "pert2"), _c12_perturbation_bound),
]


def criterion_count() -> int:
    return len(_REGISTRY)


def criterion_names() -> list[str]:
    return [name for _, name, _, _ in _REGISTRY]


def run_criterion(number: int) -> CriterionResult:
    for num, name, _, fn in _REGISTRY:
        if num == number:
            try:
                passed, detail = fn()
            except Exception as exc:  # noqa: BLE001 - fail the criterion, not the run
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CriterionResult(num, name, passed, detail)
    raise KeyError(f"no criterion numbered {number}")


def run_all(preset_filter: str | None = None) -> list[CriterionResult]:
    results = []
    for num, _, presets, _ in _REGISTRY:
        if preset_filter is not None and preset_filter not in presets:
            continue
        results.append(run_criterion(num))
    return results
