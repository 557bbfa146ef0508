"""Time integration and closed-form references.

The stepper is an embedded Dormand-Prince 4(5) pair with PI step-size
control. Steps land exactly on the recording grid (the controller's
proposal is clamped, never inflated), so recorded times are uniform and
finite-difference diagnostics downstream see a clean grid. Negative
excursions beyond -atol reject the step; tiny negatives inside (-atol, 0)
are clamped to zero, matching the positivity guarantees of the flow.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricMutation,
    NonFiniteState,
    StepBudgetExceeded,
    StepSizeUnderflow,
    WrongInteractionKind,
    ZeroInitialMass,
)
from .linalg import symmetric_spectrum
from .model import (
    Model,
    UniformLinear,
    _vector_field,
    coercivity_params,
    growth_mutation_matrix,
    is_fitness_weighted,
    mutation_symmetric,
)

# Dormand-Prince coefficients
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_E = _B5 - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0

# Work bounds of one integration: recorded samples (the grid is allocated
# up front) and attempted steps. The largest runs of the test suite and of
# the acceptance criteria record 2001 samples and attempt 2000 steps.
_MAX_SAMPLES = 1_000_000
_MAX_STEPS = 10_000_000

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    accepted_steps: int
    rejected_steps: int
    tol_used: tuple[float, float]  # (rtol, atol)

    def totals(self) -> np.ndarray:
        return self.states.sum(axis=1)


@dataclass(frozen=True)
class EnvelopePair:
    times: np.ndarray
    n_min: np.ndarray
    n_max: np.ndarray
    xi_minus: float
    xi_plus: float


def _record_grid(t_end: float, record_every: float) -> np.ndarray:
    k = int(np.floor(t_end / record_every + 1e-9))
    grid = record_every * np.arange(1, k + 1)
    if grid.size == 0 or grid[-1] < t_end - 1e-12 * t_end:
        grid = np.append(grid, t_end)
    else:
        grid[-1] = t_end
    return grid


def integrate(
    model: Model,
    v0,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    record_every: float | None = None,
) -> Trajectory:
    """Integrate the model flow from v0 over [0, t_end].

    The work is bounded: a recording grid of more than _MAX_SAMPLES points
    is a ValueError, and a run that needs more than _MAX_STEPS attempted
    steps raises StepBudgetExceeded.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (model.n,):
        raise ValueError(f"v0 must have shape ({model.n},)")
    if not np.isfinite(v0).all():
        raise NonFiniteState("initial state contains non-finite entries")
    if np.any(v0 < 0.0):
        raise ValueError("initial state must be nonnegative")
    t_end = float(t_end)
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (np.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")
    if rtol == 0.0 and atol == 0.0:
        raise ValueError("rtol and atol must not both be zero")
    if not np.any(v0 > 0.0):
        warnings.warn("initial state is identically zero; the flow stays at zero")
    if record_every is None:
        record_every = t_end / 500.0
    record_every = float(record_every)
    if not 0.0 < record_every < np.inf:
        raise ValueError("record_every must be positive and finite")
    if not t_end / record_every < _MAX_SAMPLES:
        raise ValueError(
            f"record_every {record_every:g} would record more than {_MAX_SAMPLES} "
            f"samples up to t_end {t_end:g}"
        )

    f = _vector_field(model)
    n = model.n
    grid = _record_grid(t_end, record_every).tolist()
    times = [0.0]
    states = [v0.copy()]

    t = 0.0
    v = v0.copy()
    k1 = f(v)
    if not np.isfinite(k1).all():
        raise NonFiniteState("vector field is non-finite at the initial state")

    # modest startup step; the controller adapts within a few steps
    scale0 = atol + rtol * np.abs(v)
    d0 = float(np.sqrt(np.mean((v / scale0) ** 2)))
    d1 = float(np.sqrt(np.mean((k1 / scale0) ** 2)))
    h_ctrl = 0.01 * d0 / d1 if d1 > 0 and d0 > 0 else 1e-6 * t_end
    h_ctrl = min(h_ctrl, t_end / 10.0, record_every)

    h_floor = 1e-14 * t_end
    grid_slack = 1e-12 * max(t_end, 1.0)
    accepted = 0
    rejected = 0
    err_prev = 1.0
    grid_idx = 0
    ks = np.empty((7, n))
    # stage s evaluates f at v + h * (_A[s] @ ks[:s]) and stores it in ks[s]
    stages = [(s, _A[s], ks[:s]) for s in range(1, 7)]

    while grid_idx < len(grid):
        if accepted + rejected >= _MAX_STEPS:
            raise StepBudgetExceeded(
                f"no end after {_MAX_STEPS} attempted steps; stopped at t={t:g} of {t_end:g}"
            )
        target = grid[grid_idx]
        h = min(h_ctrl, target - t)
        if not h >= h_floor:
            raise StepSizeUnderflow(f"step size {h:g} underflowed at t={t:g}")
        clamped = h < h_ctrl

        ks[0] = k1
        bad = False
        for s, a_s, ks_s in stages:
            ks[s] = k = f(v + h * (a_s @ ks_s))
            if not np.isfinite(k).all():
                bad = True
                break
        if not bad:
            y5 = v + h * (_B5 @ ks)
            bad = not np.isfinite(y5).all()
        if bad:
            rejected += 1
            h_ctrl = h * 0.25
            continue

        y5_min = float(y5.min())
        if y5_min < -atol:
            rejected += 1
            h_ctrl = h * 0.5
            continue

        q = h * (_E @ ks) / (atol + rtol * np.maximum(np.abs(v), np.abs(y5)))
        err = math.sqrt(np.add.reduce(q * q) / n)

        if err <= 1.0:
            if y5_min <= 0.0:
                # also turns -0.0 into 0.0
                np.clip(y5, 0.0, None, out=y5)
            v = y5
            t = target if clamped else t + h
            # FSAL holds unless the clip moved the state
            k1 = f(v) if y5_min < 0.0 else ks[6]
            accepted += 1
            if t >= target - grid_slack:
                t = target
                times.append(t)
                states.append(v)  # a fresh array each step, never written again
                grid_idx += 1
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA if err > 0 else _MAX_FACTOR
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            h_ctrl = h * factor
            err_prev = max(err, 1e-4)
        else:
            rejected += 1
            h_ctrl = h * max(0.1, _SAFETY * err ** (-0.2))

    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        accepted_steps=accepted,
        rejected_steps=rejected,
        tol_used=(rtol, atol),
    )


def _adaptive_panel(g, a: float, b: float, tol: float, depth: int = 0) -> np.ndarray:
    """Vector-valued adaptive Gauss-Legendre integral of g over [a, b]."""

    def panel(lo: float, hi: float) -> np.ndarray:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        vals = [wq * g(mid + half * xq) for xq, wq in zip(_GL_NODES, _GL_WEIGHTS)]
        return half * np.sum(vals, axis=0)

    whole = panel(a, b)
    mid = 0.5 * (a + b)
    left = panel(a, mid)
    right = panel(mid, b)
    refined = left + right
    gap = float(np.max(np.abs(whole - refined), initial=0.0))
    if gap <= tol * (1.0 + float(np.max(np.abs(refined), initial=0.0))) or depth >= 40:
        return refined
    return _adaptive_panel(g, a, mid, tol, depth + 1) + _adaptive_panel(g, mid, b, tol, depth + 1)


def closed_form_uniform_linear(model: Model, v0, times) -> Trajectory:
    """Exact solution for uniform linear interactions.

    v(t) = V(t) / (1 + sum_j (a_j/K) * int_0^t V_j(s) ds) with
    V(t) = exp(t (R+M)) v0. Requires symmetric mutation so the propagator
    can be built from the symmetric eigendecomposition.
    """
    if not isinstance(model.interaction, UniformLinear):
        raise WrongInteractionKind("closed form applies to uniform linear interactions")
    if not mutation_symmetric(model):
        raise AsymmetricMutation("closed form requires symmetric mutation rates")
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (model.n,):
        raise ValueError(f"v0 must have shape ({model.n},)")
    if np.any(v0 < 0.0):
        raise ValueError("initial state must be nonnegative")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty vector")
    if np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
        raise ValueError("times must be strictly increasing and nonnegative")
    if times[0] > 0.0:
        times = np.concatenate(([0.0], times))

    spec = symmetric_spectrum(growth_mutation_matrix(model))
    coeff = spec.eigenvectors.T @ v0

    def propagated(s: float) -> np.ndarray:
        return spec.eigenvectors @ (np.exp(spec.eigenvalues * s) * coeff)

    a_over_k = model.interaction.a / model.big_k
    states = [v0.copy()]
    integral = np.zeros(model.n)
    for lo, hi in zip(times[:-1], times[1:]):
        integral = integral + _adaptive_panel(propagated, float(lo), float(hi), 1e-10)
        denom = 1.0 + float(a_over_k @ integral)
        states.append(propagated(float(hi)) / denom)

    return Trajectory(
        times=times.copy(),
        states=np.asarray(states),
        accepted_steps=0,
        rejected_steps=0,
        tol_used=(0.0, 0.0),
    )


def logistic_envelopes(model: Model, n0: float, times) -> EnvelopePair:
    """Logistic bounds for the total population of fitness-weighted models.

    The total population is squeezed between the logistic solutions driven
    by the slowest and fastest growth rates; both tend to K monotonically.
    """
    if not is_fitness_weighted(model):
        raise WrongInteractionKind("envelopes apply to fitness-weighted models")
    n0 = float(n0)
    if n0 <= 0.0:
        raise ZeroInitialMass("initial total population must be positive")
    times = np.asarray(times, dtype=float)
    xi_minus = float(np.min(model.r))
    xi_plus = float(np.max(model.r))
    big_k = model.big_k

    def logistic(xi: float) -> np.ndarray:
        return big_k / (1.0 + (big_k / n0 - 1.0) * np.exp(-xi * times))

    return EnvelopePair(
        times=times.copy(),
        n_min=logistic(xi_minus),
        n_max=logistic(xi_plus),
        xi_minus=xi_minus,
        xi_plus=xi_plus,
    )


def positivity_floor(model: Model, v0) -> float:
    """Lower bound min(1, N(0)/2, r_min/(2 kappa_0)) for the total population."""
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (model.n,):
        raise ValueError(f"v0 must have shape ({model.n},)")
    if np.any(v0 < 0.0):
        raise ValueError("initial state must be nonnegative")
    total = float(v0.sum())
    if total <= 0.0:
        raise ZeroInitialMass("initial total population is zero")
    coer = coercivity_params(model)
    if coer is None:
        raise WrongInteractionKind("no Lipschitz bounds available for this interaction")
    kappa0 = float(np.sum(coer.kappa))
    return min(1.0, total / 2.0, float(np.min(model.r)) / (2.0 * kappa0))
