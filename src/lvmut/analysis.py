"""Spectral gaps, convergence-rate fits, basin experiments, perturbation sweeps."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricMutation,
    InsufficientTail,
    KernelMismatch,
    NonPositiveReference,
    OutOfTheoremScope,
)
from .dynamics import Trajectory, _flow_batch
from .entropy import decompose
from .equilibrium import _continue, _linear_setup, equilibrium_auto, equilibrium_uniform
from .linalg import symmetric_spectrum
from .model import (
    Model,
    UniformLinear,
    _linear_coefficients,
    _monotone,
    build_model,
    mutation_symmetric,
    perturbed,
    validate,
)

_EH_FLOOR = 1e-28
# a fitted sample's |h| stands this many error scales above the integration
# error, so an error of one scale moves log E(h) by at most about 0.02
_NOISE_MARGIN = 100.0
# the most starts one stability experiment draws: about 1 s of integration
# at the ~1 ms per start that 8,000 starts took
_MAX_STARTS = 1000


@dataclass(frozen=True)
class SpectralGapReport:
    c1: float
    eigenvalues: np.ndarray  # ascending
    kernel_vector: np.ndarray
    d_matrix: np.ndarray
    m_tilde: np.ndarray


@dataclass(frozen=True)
class RateReport:
    fitted_rate_eh: float
    fitted_rate_sup: float
    r_squared: float
    predicted_c1: float | None
    window: tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class StabilityReport:
    converged: bool
    max_pairwise_gap: float
    max_equilibrium_gap: float
    attractor: np.ndarray
    endpoints: np.ndarray
    n_samples: int
    t_end: float
    tol: float
    tol_used: tuple[float, float]  # (rtol, atol) of the integration; (0, 0) for the exact flow
    seed: int
    in_scope: bool


@dataclass(frozen=True)
class PerturbationRow:
    eps: float
    sigma: float
    v_bar: np.ndarray | None
    l1_distance: float | None
    ratio: float | None
    failed: bool = False
    error: str | None = None


@dataclass(frozen=True)
class PerturbationTable:
    rows: list = field(default_factory=list)


def spectral_gap(model: Model, v_bar) -> SpectralGapReport:
    """Second-smallest eigenvalue of D - M~ built from mu and the equilibrium.

    D_ii = (1/vbar_i) sum_j mu_ij vbar_j and M~ is the off-diagonal mutation
    matrix; the kernel is the vbar direction and the next eigenvalue bounds
    the decay rate of orthogonal perturbation energy.
    """
    if not mutation_symmetric(model):
        raise AsymmetricMutation("spectral gap requires symmetric mutation rates")
    v_bar = np.asarray(v_bar, dtype=float)
    if np.any(v_bar <= 0.0):
        raise NonPositiveReference("equilibrium must be strictly positive")
    d_diag = (model.mu @ v_bar) / v_bar
    d_matrix = np.diag(d_diag)
    m_tilde = model.mu.copy()
    a = d_matrix - m_tilde
    spec = symmetric_spectrum(a)
    eigenvalues = spec.eigenvalues[::-1].copy()
    vectors = spec.eigenvectors[:, ::-1]
    scale = max(1.0, float(np.max(np.abs(a))))
    if abs(eigenvalues[0]) > 1e-10 * scale:
        raise KernelMismatch(f"smallest eigenvalue {eigenvalues[0]:g} is not zero")
    kern = vectors[:, 0]
    ref = v_bar / float(np.linalg.norm(v_bar))
    if float(kern @ ref) < 0.0:
        kern = -kern
    if float(np.max(np.abs(kern - ref))) > 1e-8:
        raise KernelMismatch("kernel eigenvector does not align with the equilibrium")
    c1 = float(eigenvalues[1]) if model.n > 1 else math.inf
    return SpectralGapReport(
        c1=c1,
        eigenvalues=eigenvalues,
        kernel_vector=kern,
        d_matrix=d_matrix,
        m_tilde=m_tilde,
    )


def convergence_rate(
    trajectory: Trajectory,
    v_bar,
    tail_fraction: float = 0.5,
    predicted_c1: float | None = None,
) -> RateReport:
    """Log-linear decay fit of the orthogonal energy over the trailing window.

    Only samples whose energy E(h) stands above the trajectory's error floor
    are fitted, and the window is the trailing `tail_fraction` of the
    resolved span: from the first sample to the last one above the floor.
    """
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must lie in (0, 1]")
    v_bar = np.asarray(v_bar, dtype=float)
    times = trajectory.times
    states = trajectory.states
    e_h = decompose(states, v_bar).e_h
    above = e_h > _energy_floor(trajectory, v_bar)
    resolved = np.flatnonzero(above)
    t_last = times[resolved[-1]] if resolved.size else times[0]
    cutoff = t_last - tail_fraction * (t_last - times[0])

    usable = above & (times >= cutoff)
    ts = times[usable]
    if ts.size < 20:
        raise InsufficientTail(f"only {ts.size} usable tail samples")

    sups = np.max(np.abs(states[usable] - v_bar), axis=1)
    slope_eh, r_squared = _least_squares_line(ts, np.log(e_h[usable]))
    good = sups > 0.0
    if int(np.sum(good)) >= 2:
        slope_sup, _ = _least_squares_line(ts[good], np.log(sups[good]))
    else:
        slope_sup = 0.0
    return RateReport(
        fitted_rate_eh=slope_eh,
        fitted_rate_sup=slope_sup,
        r_squared=r_squared,
        predicted_c1=predicted_c1,
        window=(float(ts[0]), float(ts[-1])),
        n_points=int(ts.size),
    )


def _energy_floor(trajectory: Trajectory, v_bar: np.ndarray) -> float:
    """E(h) below which a sample is integration error rather than decay.

    Near vbar each component is accurate to about rtol |vbar_i| + atol, and
    h is a projection of the state, so its error is at most the norm of
    those scales. A closed-form trajectory (tol_used (0, 0)) keeps only the
    rounding floor.
    """
    rtol, atol = trajectory.tol_used
    error_sq = float(np.sum((rtol * np.abs(v_bar) + atol) ** 2))
    return max(_EH_FLOOR, _NOISE_MARGIN**2 * error_sq)


def _least_squares_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ ym) / sxx if sxx > 0 else 0.0
    fit = slope * xm
    ss_res = float(np.sum((ym - fit) ** 2))
    ss_tot = float(ym @ ym)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


def _theorem_scope(model: Model) -> bool:
    """Basin-of-attraction statements need monotone pressures equal for every
    genotype: all rows of the linear coefficients C equal."""
    coeff = _linear_coefficients(model)
    return validate(model).h1_monotone and bool(np.allclose(coeff, coeff[0], rtol=1e-12, atol=0.0))


def global_stability_experiment(
    model: Model,
    n_samples: int,
    seed: int,
    t_end: float,
    tol: float,
    force: bool = False,
) -> StabilityReport:
    """Run a batch of random starts to t_end and compare endpoints pairwise
    and against the solver equilibrium. The endpoints are exact where the
    closed form applies (a uniform linear model with symmetric mutation)
    and integrated otherwise at rtol = min(1e-8, max(1e-3 tol, 1e-10)) and
    atol = 1e-2 rtol, so the integration error stays far below tol and
    tol = 0 integrates at rtol 1e-10, atol 1e-12. The report's tol_used
    is the pair used, (0, 0) for the exact flow. n_samples is at most
    _MAX_STARTS, which bounds the work of one call. The one-model call of
    _stability_experiments."""
    return _stability_experiments([(model, seed)], n_samples, t_end, tol, force)[0]


def _stability_experiments(
    runs: list[tuple[Model, int]],
    n_samples: int,
    t_end: float,
    tol: float,
    force: bool = False,
) -> list[StabilityReport]:
    """global_stability_experiment of each (model, seed) in runs, with the
    starts of every run integrated in one lockstep batch, one model per
    row (a single _flow_batch call). Each report equals its one-model
    experiment's: a row of the batch equals its one-start run bit for bit.
    The models share n and the interaction kind."""
    if not 1 <= n_samples <= _MAX_STARTS:
        raise ValueError(f"n_samples must be between 1 and {_MAX_STARTS}, got {n_samples!r}")
    for _, seed in runs:
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    in_scope = [_theorem_scope(model) for model, _ in runs]
    if not all(in_scope) and not force:
        raise OutOfTheoremScope(
            "heterogeneous pressures are outside the convergence statements; "
            "pass force to run anyway"
        )
    starts = []
    for model, seed in runs:
        rng = np.random.default_rng(seed)
        drawn = rng.uniform(0.0, 2.0 * model.big_k, size=(n_samples, model.n))
        for i in range(n_samples):
            while not np.any(drawn[i] > 0.0):
                drawn[i] = rng.uniform(0.0, 2.0 * model.big_k, size=model.n)
        starts.append(drawn)

    attractors = [equilibrium_auto(model).v_bar for model, _ in runs]
    rtol = min(1e-8, max(1e-3 * tol, 1e-10))
    rows = [model for model, _ in runs for _ in range(n_samples)]
    trajs = _flow_batch(rows, np.concatenate(starts), t_end, rtol=rtol, atol=1e-2 * rtol,
                        record_every=t_end)
    reports = []
    for k, ((_, seed), v_bar) in enumerate(zip(runs, attractors)):
        mine = trajs[k * n_samples:(k + 1) * n_samples]
        endpoints = np.array([traj.states[-1] for traj in mine])
        # the largest pairwise gap of each component is its range: rounding
        # is monotone, so this equals the max over pairs of |e_i - e_j| exactly
        max_pair = float(np.max(np.ptp(endpoints, axis=0)))
        max_eq = float(np.max(np.abs(endpoints - v_bar[None, :])))
        reports.append(StabilityReport(
            converged=bool(max_pair <= tol and max_eq <= tol),
            max_pairwise_gap=max_pair,
            max_equilibrium_gap=max_eq,
            attractor=v_bar,
            endpoints=endpoints,
            n_samples=n_samples,
            t_end=float(t_end),
            tol=float(tol),
            tol_used=mine[0].tol_used,
            seed=int(seed),
            in_scope=in_scope[k],
        ))
    return reports


def perturbation_sweep(base_model: Model, amp, w, eps_grid) -> PerturbationTable:
    """Equilibrium displacement under growing tanh perturbations of the pressure.

    The base row (eps = 0) uses the eigenvector-scaling equilibrium. The
    rows then follow the branch in eps: each perturbed row is one s = 1
    Newton run (equilibrium._continue) started at the v_bar of the last
    row that solved, so its first step is the tangent predictor to first
    order in the eps increment. The checks and set-up that involve only r
    and mu (the outflow hypothesis, R+M nonsingular, its symmetric
    spectrum) run once per sweep. A row whose run leaves the a-priori box,
    does not converge or meets a singular Jacobian is solved by Psi-tc from
    the same start instead. Each row records the l1 displacement, its
    ratio to sqrt(eps), and the uniform pressure shift sigma; a row that
    fails records its error and leaves the next row's start unchanged.
    """
    if not isinstance(base_model.interaction, UniformLinear):
        raise OutOfTheoremScope("the sweep perturbs a uniform linear base")
    amp = np.asarray(amp, dtype=float)
    eps_grid = [float(e) for e in eps_grid]
    if not all(math.isfinite(e) and e > 0.0 for e in eps_grid) or sorted(eps_grid) != eps_grid:
        raise ValueError(f"eps_grid must be finite, positive and ascending, got {eps_grid}")
    # a bad amp or w fails the call here, before any row is solved
    pert_models = [
        build_model(base_model.n, base_model.r, base_model.big_k, base_model.mu,
                    perturbed(base_model.interaction, eps, amp, w))
        for eps in eps_grid
    ]

    base_eq = equilibrium_uniform(base_model)
    v0 = base_eq.v_bar
    amp_sup = float(np.max(np.abs(amp), initial=0.0))
    rows = [
        PerturbationRow(
            eps=0.0, v_bar=v0.copy(), l1_distance=0.0, ratio=None, sigma=0.0
        )
    ]
    # the checks and set-up that do not depend on eps, once per sweep; a
    # failure there is every row's error, after the row's own monotonicity
    try:
        linear, setup_error = _linear_setup(base_model, validate(base_model)), None
    except Exception as exc:  # noqa: BLE001 - reported by every row
        linear, setup_error = None, exc
    v_start = v0
    for eps, pert_model in zip(eps_grid, pert_models):
        sigma = eps * amp_sup
        try:
            if not _monotone(pert_model)[0]:
                raise OutOfTheoremScope("perturbation too large for monotone pressures")
            if setup_error is not None:
                raise setup_error
            v_bar = _continue(pert_model, linear, v_start, base_eq.lambda_p).v_bar
            v_start = v_bar
            dist = float(np.sum(np.abs(v_bar - v0)))
            rows.append(
                PerturbationRow(
                    eps=eps,
                    v_bar=v_bar,
                    l1_distance=dist,
                    ratio=dist / math.sqrt(eps),
                    sigma=sigma,
                )
            )
        except Exception as exc:  # noqa: BLE001 - row-level isolation
            rows.append(
                PerturbationRow(
                    eps=eps,
                    v_bar=None,
                    l1_distance=None,
                    ratio=None,
                    sigma=sigma,
                    failed=True,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return PerturbationTable(rows=rows)
