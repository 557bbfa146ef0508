"""Time integration and closed-form references.

The stepper is an embedded Dormand-Prince 4(5) pair with PI step-size
control; only t_end caps the controller's step. Samples on the uniform
recording grid come from the pair's 4th-order continuous extension, which
reuses the seven stages of the step that covers them, so the recording
grid never changes the steps and finite-difference diagnostics downstream
see a clean grid. Negative excursions beyond -atol reject the step; tiny
negatives inside (-atol, 0) are clamped to zero, and so are interpolated
samples, matching the positivity guarantees of the flow.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
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
# Continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, section
# II.6; Shampine 1986): y(t + sigma h) = y + h sum_s k_s sum_j _P[s, j]
# sigma^(j+1). Row s sums to _B5[s], so sigma = 1 gives the step's y5.
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0

# Work bounds of one integration: recorded samples (the grid is allocated
# up front) and attempted steps. The largest runs of the test suite and of
# the acceptance criteria record 2001 samples and attempt a few hundred
# steps, since the step count no longer follows the grid.
_MAX_SAMPLES = 1_000_000
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    accepted_steps: int
    rejected_steps: int
    tol_used: tuple[float, float]  # (rtol, atol)


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


def _finite_rows(ks: np.ndarray, y5: np.ndarray) -> list[bool] | bool | None:
    """None when every entry of the stages ks (B, 7, n) and the states y5 (B, n)
    is finite, else one flag per row: are that row's entries all finite.
    One row's ks (7, n) and y5 (n,) get one flag, a bool.

    One sum of each array settles the common case, since a finite total
    proves every entry finite. A total that is not finite (a non-finite
    entry, or finite entries whose sum overflows) falls through to the
    entry-wise test, so the verdicts are exact.
    """
    if math.isfinite(np.add.reduce(ks, axis=None) + np.add.reduce(y5, axis=None)):
        return None
    return (np.isfinite(ks).all(axis=(-2, -1)) & np.isfinite(y5).all(axis=-1)).tolist()


def _zero_scale_sq_sum(q: np.ndarray, err_est: np.ndarray, scale: np.ndarray) -> float:
    """The sum of q * q over one row of q = err_est / scale, with each 0 / 0
    entry counted as 0.

    With atol = 0 a component that is exactly 0 at both ends of a step has
    scale 0; when its error estimate is 0 too, it meets any tolerance. A
    nonzero estimate over scale 0 stays infinite and rejects the step.
    """
    q = np.where((err_est == 0.0) & (scale == 0.0), 0.0, q)
    return float(np.add.reduce(q * q))


def _start_step(v0: np.ndarray, k1: np.ndarray, rtol: float, atol: float,
                t_end: float) -> float:
    """A modest start-up step from the state v0 and its field k1; the
    controller adapts within a few steps. A component with scale 0 (atol = 0
    on a zero component) is left out of both norms; the fixed fallback
    1e-6 t_end serves when no norm is positive."""
    scale0 = atol + rtol * np.abs(v0)
    kept = scale0 > 0.0
    if not kept.all():
        v0, k1, scale0 = v0[kept], k1[kept], scale0[kept]
    if not v0.size:
        return min(1e-6 * t_end, t_end / 10.0)
    d0 = float(np.sqrt(np.mean((v0 / scale0) ** 2)))
    d1 = float(np.sqrt(np.mean((k1 / scale0) ** 2)))
    h = 0.01 * d0 / d1 if d1 > 0 and d0 > 0 else 1e-6 * t_end
    return min(h, t_end / 10.0)


def integrate(
    model: Model,
    v0,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    record_every: float | None = None,
) -> Trajectory:
    """Integrate the model flow from v0 over [0, t_end].

    The one-start call of `integrate_batch`, with the same checks and work
    bounds. One row runs as an (n,) state with scalar step control, on the
    same arithmetic as a row of a stack.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (model.n,):
        raise ValueError(f"v0 must have shape ({model.n},)")
    return integrate_batch(model, v0[None], t_end, rtol, atol, record_every)[0]


def integrate_batch(
    model: Model,
    starts,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    record_every: float | None = None,
) -> list[Trajectory]:
    """Integrate the model flow from each row of starts (B, n) over [0, t_end].

    The rows step in lockstep: each stage is one field evaluation on the
    stack of rows still running. Every row keeps its own time, step size,
    controller memory, grid position and counters, so each trajectory
    equals its one-start run bit for bit. An accepted step records the grid
    times inside it from the continuous extension, and its own y5 at a grid
    time it ends on. A row leaves the batch when it reaches t_end. Once one
    row runs (from the start, or when the others have finished), its state
    is an (n,) vector and its step size a Python float: the same products
    as on a stack of one, at a fraction of the call cost.

    The error scale of a component is atol + rtol * max(|v|, |y5|). With
    atol = 0, a component that stays exactly 0 through a step, with a zero
    error estimate, counts as error 0 rather than 0 / 0.

    The work is bounded: a recording grid of more than _MAX_SAMPLES points
    is a ValueError, and a row that needs more than _MAX_STEPS attempted
    steps raises StepBudgetExceeded. The first row to fail aborts the call.
    """
    starts = np.asarray(starts, dtype=float)
    n = model.n
    if starts.ndim != 2 or starts.shape[1] != n or len(starts) == 0:
        raise ValueError(f"starts must have shape (B, {n}) with B >= 1")
    if not np.isfinite(starts).all():
        raise NonFiniteState("initial state contains non-finite entries")
    if np.any(starts < 0.0):
        raise ValueError("initial state must be nonnegative")
    t_end = float(t_end)
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (np.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")
    if rtol == 0.0 and atol == 0.0:
        raise ValueError("rtol and atol must not both be zero")
    n_rows = len(starts)
    for b in np.flatnonzero(~np.any(starts > 0.0, axis=1)):
        row = f" (row {b})" if n_rows > 1 else ""
        warnings.warn(f"initial state{row} is identically zero; the flow stays at zero")
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
    grid = _record_grid(t_end, record_every)
    times = np.concatenate(([0.0], grid))  # every recorded time is a grid point
    grid = grid.tolist()
    n_grid = len(grid)
    paths = [np.empty((n_grid + 1, n)) for _ in range(n_rows)]
    for path, v0 in zip(paths, starts):
        path[0] = v0

    # v holds the running rows' states, (B, n), or (n,) for one row; ks holds
    # their stages, (B, 7, n) or (7, n), and stage 0 is f at the state
    v = starts.copy() if n_rows > 1 else starts[0].copy()
    ks = np.empty(v.shape[:-1] + (7, n))
    ks[..., 0, :] = f(v)
    if not np.isfinite(ks[..., 0, :]).all():
        raise NonFiniteState("vector field is non-finite at the initial state")
    h_ctrl = [_start_step(v_b, k_b[0], rtol, atol, t_end)
              for v_b, k_b in zip(starts, ks.reshape(n_rows, 7, n))]

    h_floor = 1e-14 * t_end
    t = [0.0] * n_rows
    err_prev = [1.0] * n_rows
    grid_idx = [0] * n_rows
    accepted = [0] * n_rows
    rejected = [0] * n_rows
    rows = list(range(n_rows))  # the rows still running, in buffer order

    def step_size(b: int) -> float:
        if accepted[b] + rejected[b] >= _MAX_STEPS:
            raise StepBudgetExceeded(
                f"no end after {_MAX_STEPS} attempted steps; "
                f"stopped at t={t[b]:g} of {t_end:g}"
            )
        h = min(h_ctrl[b], t_end - t[b])
        if not h >= h_floor:
            raise StepSizeUnderflow(f"step size {h:g} underflowed at t={t[b]:g}")
        return h

    def settle(b, h, j, v, y5, ks, finite, y5_min, sq_sum) -> bool:
        # Accept or reject row b's attempt of size h; True when accepted.
        # v[j], ks[j] and y5[j] are its state, stages and result: j is its
        # place in a stack, or the full slice for one row's own arrays. An
        # accepted y5[j] below 0 is clipped in place, and the grid samples
        # inside the step are written.
        if not finite:
            shrink = 0.25
        elif y5_min < -atol:
            shrink = 0.5
        else:
            err = math.sqrt(sq_sum / n)
            shrink = None if err <= 1.0 else max(0.1, _SAFETY * err ** (-0.2))
        if shrink is not None:
            rejected[b] += 1
            h_ctrl[b] = h * shrink
            return False

        if y5_min <= 0.0:
            # also turns -0.0 into 0.0
            np.clip(y5[j], 0.0, None, out=y5[j])
        accepted[b] += 1
        t_b = t[b] + h
        if t_end - t_b < h_floor:
            # the one snap: no step below h_floor is left to take
            t_b = t_end
        lo = grid_idx[b]
        hi = bisect_right(grid, t_b, lo)
        if hi > lo:
            inner = hi - 1 if grid[hi - 1] == t_b else hi
            if inner > lo:
                # the grid times inside the step, in one product
                sigma = (times[lo + 1:inner + 1] - t[b]) / h
                powers = np.repeat(sigma[:, None], 4, axis=1).cumprod(axis=1)
                dense = powers @ _P.T @ ks[j]
                dense *= h
                dense += v[j]
                np.maximum(dense, 0.0, out=paths[b][lo + 1:inner + 1])
            if inner < hi:
                paths[b][hi] = y5[j]
            grid_idx[b] = hi
        t[b] = t_b
        factor = (
            _SAFETY * err ** (-_PI_ALPHA) * err_prev[b] ** _PI_BETA
            if err > 0 else _MAX_FACTOR
        )
        h_ctrl[b] = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev[b] = max(err, 1e-4)
        return True

    def plan(ks):
        # One field call per stage on the running rows. Stage s evaluates f
        # at v + h * (_A[s] @ ks[..., :s, :]) into stage s; the step's y5 and
        # error estimate weigh all the stages by _B5 and _E. One row's (7, n)
        # stages take ndarray.dot: the same products as on a stack of one,
        # at a fraction of the call cost.
        if ks.ndim == 2:
            return [(_A[s].dot, ks[:s], ks[s]) for s in range(1, 7)], _B5.dot, _E.dot
        stages = [(_A[s].__matmul__, ks[:, :s], ks[:, s]) for s in range(1, 7)]
        return stages, _B5.__matmul__, _E.__matmul__

    stages, weigh5, weigh_err = plan(ks)
    whole = slice(None)
    min_reduce = np.minimum.reduce
    add_reduce = np.add.reduce
    # a non-finite stage rejects its step; numpy's warnings about the
    # stages computed from it say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        while rows:
            lone = v.ndim == 1
            if lone:
                b = rows[0]
                h = step_size(b)
            else:
                hs = [step_size(b) for b in rows]
                h = np.array(hs)[:, None]

            for weigh_s, ks_s, ks_out in stages:
                ks_out[...] = f(v + h * weigh_s(ks_s))
            y5 = v + h * weigh5(ks)
            finite = _finite_rows(ks, y5)
            err_est = h * weigh_err(ks)
            # v >= 0, so |v| is v (up to a start's -0.0, whose sign the sum
            # with atol drops)
            scale = atol + rtol * np.maximum(v, np.abs(y5))
            q = err_est / scale

            if lone:
                y5_min = float(min_reduce(y5))
                sq_sum = float(add_reduce(q * q))
                finite = finite is None or finite
                if finite and sq_sum != sq_sum:
                    sq_sum = _zero_scale_sq_sum(q, err_est, scale)
                if not settle(b, h, whole, v, y5, ks, finite, y5_min, sq_sum):
                    continue  # v and its first stage stay
                if grid_idx[b] == n_grid:
                    break
                # FSAL: the last stage is f at the new state, unless clipped
                ks[0] = f(y5) if y5_min < 0.0 else ks[6]
                v = y5
                continue

            y5_min = min_reduce(y5, axis=1).tolist()
            sq_sums = add_reduce(q * q, axis=1).tolist()
            stay = []      # rejected: keep the state and its first stage
            refresh = []   # accepted, but clipped: f changed at the state
            finished = []
            for j, b in enumerate(rows):
                finite_j = finite is None or finite[j]
                sq_sum = sq_sums[j]
                if finite_j and sq_sum != sq_sum:
                    sq_sum = _zero_scale_sq_sum(q[j], err_est[j], scale[j])
                if not settle(b, hs[j], j, v, y5, ks, finite_j, y5_min[j], sq_sum):
                    stay.append(j)
                elif grid_idx[b] == n_grid:
                    finished.append(j)
                elif y5_min[j] < 0.0:
                    refresh.append(j)

            # FSAL: an accepted row's last stage is f at its new state
            if stay:
                y5[stay] = v[stay]
                moved = [j for j in range(len(rows)) if j not in stay]
                ks[moved, 0] = ks[moved, 6]
            else:
                ks[:, 0] = ks[:, 6]
            v = y5
            for j in refresh:
                ks[j, 0] = f(v[j])
            if finished:
                keep = [j for j in range(len(rows)) if j not in finished]
                rows = [rows[j] for j in keep]
                if len(keep) == 1:
                    keep = keep[0]
                v = v[keep]
                ks = ks[keep]
                stages, weigh5, weigh_err = plan(ks)

    return [
        Trajectory(
            times=times.copy(),
            states=paths[b],
            accepted_steps=accepted[b],
            rejected_steps=rejected[b],
            tol_used=(rtol, atol),
        )
        for b in range(n_rows)
    ]


def closed_form_uniform_linear(model: Model, v0, times) -> Trajectory:
    """Exact solution for uniform linear interactions.

    v(t) = V(t) / (1 + sum_j (a_j/K) * int_0^t V_j(s) ds) with
    V(t) = exp(t (R+M)) v0. Requires symmetric mutation so the propagator
    can be built from the symmetric eigendecomposition, where the integral
    is exact per eigenmode: the phi_1 function expm1(lam t) / lam (Higham,
    Functions of Matrices, section 10.7).
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
    lam = spec.eigenvalues
    coeff = spec.eigenvectors.T @ v0
    lt = np.multiply.outer(times, lam)
    # phi_1 per eigenmode; its limit at lam == 0 is t
    zero = lam == 0.0
    phi1 = np.where(zero, times[:, None], np.expm1(lt) / np.where(zero, 1.0, lam))
    propagated = (np.exp(lt) * coeff) @ spec.eigenvectors.T
    integral = (phi1 * coeff) @ spec.eigenvectors.T
    states = propagated / (1.0 + integral @ (model.interaction.a / model.big_k))[:, None]
    states[0] = v0

    return Trajectory(
        times=times.copy(),
        states=states,
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
