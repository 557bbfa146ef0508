"""Time integration and closed-form references.

The stepper is DOP853, Dormand and Prince's explicit Runge-Kutta pair of
order 8 with 5th- and 3rd-order error estimates, with PI step-size
control. Besides t_end, only a stiffness cap bounds the step: |h lambda|
stays within _STIFF_LIMIT for the Jacobian's largest |lambda|, which one
power iteration per attempt estimates, so the continuous extension never
amplifies a fast mode. Samples on the uniform
recording grid come from the pair's 7th-order continuous extension, whose
three extra stages run only on an accepted step that holds grid times, so
the recording grid never changes the steps and finite-difference
diagnostics downstream see a clean grid. Such a step is queued, and a row
evaluates its queued steps' extensions in one chunk when its queue is full
and when it reaches t_end. Negative excursions beyond -atol
reject the step; tiny negatives inside (-atol, 0) are clamped to zero, and
so are interpolated samples, matching the positivity guarantees of the flow.

A running state and its 16 stages share one buffer [v; k_0..k_15], and an
attempt of size h weighs it by [1, h a_s] (a row of _AH times h, with the
state's weight 1): each stage's argument v + h a_s @ k, and the step's
result y, is one matrix-vector product.

A batch is a list of one model per row: _checked_run checks a call once, and
each distinct model's work (R+M, field, closed-form spectrum) is done once.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

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
    _field_parameters,
    _matvec,
    _row_parameters,
    _vector_field,
    coercivity_params,
    is_fitness_weighted,
    mutation_symmetric,
)

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, section II.10; the
# coefficients of Hairer's dop853.f, to 17 digits). Stage s = 1..11 is f at
# v + h _A[s] @ k[:s]; the step's result is y = v + h _B @ k[:12], and stage
# 12 is f(y), which the next step reuses as its stage 0 (FSAL). Stages
# 13..15 serve only the continuous extension. Row s of _A sums to _C[s].
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
    0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
])
_A = [np.array(row) for row in (
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259],
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987],
)]
_B = _A[12]
# The weights of the 5th- and 3rd-order error estimates e5 = _E[0] @ k[:12]
# and e3 = _E[1] @ k[:12]; e3 is _B less the weights of a 3rd-order result.
_E = np.array([
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294],
    _B,
])
_E[1, [0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
# The 7th-order continuous extension (dop853.f's contd8, Hairer's form):
# y(t + sigma h) = v + sum_i w_i(sigma) F_i, with the weights
# w = cumprod(sigma, 1 - sigma, sigma, 1 - sigma, ...) and
# F_0 = y - v, F_1 = h k_0 - F_0, F_2 = 2 F_0 - h (k_0 + k_12),
# F_3..6 = h _D @ k. Each F_i is h times a weighing of the 16 stages, the
# rows of _P, so sigma = 1 gives v + h _B @ k[:12] and sigma = 0 gives v.
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])
_P = np.zeros((7, 16))
_P[0, :12] = _B
_P[1] = -_P[0]
_P[1, 0] += 1.0
_P[2] = 2.0 * _P[0]
_P[2, [0, 12]] -= 1.0
_P[3:] = _D
# Row s holds _A[s] from column 1 on: times h, with column 0 set to 1, it
# weighs [v; k_0..k_15] into stage s's argument v + h _A[s] @ k[:s], and
# row 12 (_B) into the step's result y.
_AH = np.array([np.pad(row, (1, 16 - row.size)) for row in _A])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 8.0
_PI_BETA = 0.4 / 8.0
# On y' = lambda y with real lambda < 0, the continuous extension stays
# within 1 of the exact decay for |h lambda| <= 5, where a step damps the
# mode 17-fold. Beyond, it amplifies the mode between the ends of a step:
# 20-fold at the stability boundary |h lambda| = 6.4 and 1000-fold at 8.6,
# where a mode still at rounding level lets the error test pass. So every
# step keeps |h lambda| <= _STIFF_LIMIT for the largest |lambda| of the
# Jacobian, estimated by one power iteration per attempt (as in Sommeijer,
# Shampine & Verwer's RKC) with a probe of relative size _PROBE.
_STIFF_LIMIT = 5.0
_PROBE = 2.0 ** -26

# Work bounds of one integration: recorded samples (the grid is allocated
# up front) and attempted steps. The largest runs of the test suite and of
# the acceptance criteria record 2001 samples and attempt at most about 140
# steps, since the step count follows the tolerance, not the grid.
_MAX_SAMPLES = 1_000_000
_MAX_STEPS = 10_000_000

# A row queues the steps whose grid times come from the continuous extension
# and evaluates them in chunks of up to _QUEUE_STEPS; the queues of one call
# hold at most _QUEUE_BUDGET floats (2 MiB), 17 n per step and row, or one
# step per row where even that exceeds it.
_QUEUE_STEPS = 64
_QUEUE_BUDGET = 1 << 18


def _queue_capacity(n: int, n_rows: int) -> int:
    """The steps each row's queue holds in a call on n_rows rows of n genotypes."""
    return min(_QUEUE_STEPS, max(1, _QUEUE_BUDGET // (17 * n * n_rows)))


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


def _checked_grid(t_end: float, rtol: float, atol: float,
                  record_every: float | None) -> np.ndarray:
    """The recording grid of a run over [0, t_end], record_every apart
    (t_end / 500 when None), once the run's settings pass their checks:
    t_end positive and finite, rtol and atol finite, nonnegative and not
    both zero, record_every positive and finite, and at most _MAX_SAMPLES
    samples. Integrated and exact trajectories share it, so a bad setting
    fails with the same ValueError on either."""
    t_end = float(t_end)
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not (np.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")
    if rtol == 0.0 and atol == 0.0:
        raise ValueError("rtol and atol must not both be zero")
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
    return _record_grid(t_end, record_every)


def _checked_run(model: Model | Sequence[Model], starts, t_end: float, rtol: float, atol: float,
                 record_every: float | None) -> tuple[list[Model], np.ndarray, np.ndarray]:
    """A batch's one model per row, starts (B, n) as floats and recording
    grid, once the call passes a batch's only checks: model is one model or
    B models of one n and interaction kind; the starts B >= 1 finite,
    nonnegative rows of that n; the settings those of _checked_grid. A
    start that is identically zero gets one warning: the flow stays at 0."""
    starts = np.asarray(starts, dtype=float)
    models = [model] if isinstance(model, Model) else list(model)
    if not models:
        raise ValueError("model must be a model or a nonempty sequence of models")
    sizes = sorted({row.n for row in models})
    if len(sizes) > 1:
        raise ValueError(f"the models of a batch's rows must share n, got n in {sizes}")
    kinds = sorted({type(row.interaction).__name__ for row in models})
    if len(kinds) > 1:
        raise ValueError(
            f"the models of a batch's rows must share one interaction kind, got {kinds}"
        )
    if starts.ndim != 2 or starts.shape[1] != sizes[0] or len(starts) == 0:
        raise ValueError(f"starts must have shape (B, {sizes[0]}) with B >= 1")
    if isinstance(model, Model):
        models *= len(starts)
    elif len(models) != len(starts):
        raise ValueError(
            f"model must hold one model per row of starts: got {len(models)} for {len(starts)} rows"
        )
    if not np.isfinite(starts).all():
        raise NonFiniteState("initial state contains non-finite entries")
    if np.any(starts < 0.0):
        raise ValueError("initial state must be nonnegative")
    grid = _checked_grid(t_end, rtol, atol, record_every)
    for b in np.flatnonzero(~np.any(starts > 0.0, axis=1)):
        row = f" (row {b})" if len(starts) > 1 else ""
        warnings.warn(f"initial state{row} is identically zero; the flow stays at zero")
    return models, starts, grid


def _distinct(models: list[Model]) -> tuple[list[Model], list[int]]:
    """A batch's distinct model objects, by first row, and each row's index into them."""
    keys: dict[int, int] = {}
    index = [keys.setdefault(id(model), len(keys)) for model in models]
    return list({id(model): model for model in models}.values()), index


def _finite_rows(ks: np.ndarray, y: np.ndarray) -> list[bool] | bool | None:
    """None when every entry of the stages ks (B, 13, n) and the results y (B, n)
    is finite, else one flag per row: are that row's entries all finite.
    One row's ks (13, n) and y (n,) get one flag, a bool.

    One sum of each array settles the common case, since a finite total
    proves every entry finite. A total that is not finite (a non-finite
    entry, or finite entries whose sum overflows) falls through to the
    entry-wise test, so the verdicts are exact.
    """
    if math.isfinite(np.add.reduce(ks, axis=None) + np.add.reduce(y, axis=None)):
        return None
    return (np.isfinite(ks).all(axis=(-2, -1)) & np.isfinite(y).all(axis=-1)).tolist()


def _zero_scale_sq_sums(q: np.ndarray, err_est: np.ndarray, scale: np.ndarray) -> list[float]:
    """The sums of q * q over each row of one step's q = err_est / scale, the
    two error estimates (2, n) over the scale (n,), with each 0 / 0 entry
    counted as 0.

    With atol = 0 a component that is exactly 0 at both ends of a step has
    scale 0; when its error estimate is 0 too, it meets any tolerance. A
    nonzero estimate over scale 0 stays infinite and rejects the step.
    """
    q = np.where((err_est == 0.0) & (scale == 0.0), 0.0, q)
    return np.add.reduce(q * q, axis=-1).tolist()


def _error_norm(h: float, sq5: float, sq3: float, n: int) -> float:
    """dop853.f's error of a step of size h, h sq5 / sqrt((sq5 + 0.01 sq3) n),
    from the sums of squares sq5 and sq3 of the scaled 5th- and 3rd-order
    estimates. It is 0 when both sums are 0, and inf when a sum is infinite
    (an overflow, or a nonzero estimate over scale 0), which rejects the step.
    """
    deno = (sq5 + 0.01 * sq3) * n
    if deno == 0.0:
        return 0.0
    if deno == math.inf:
        return math.inf
    return h * sq5 / math.sqrt(deno)


def _start_step(v0: np.ndarray, k1: np.ndarray, rtol: float, atol: float,
                t_end: float, h_floor: float) -> float:
    """A modest start-up step from the state v0 and its field k1; the
    controller adapts within a few steps. A component with scale 0 (atol = 0
    on a zero component) is left out of both norms; the fixed fallback
    1e-6 t_end serves when no norm is positive. A step below h_floor, or not
    finite (both norms overflow), starts at h_floor instead: a component
    whose scale is about atol can make the field's norm so large that the
    run would end before its first step, and the controller grows h_floor
    by up to _MAX_FACTOR per accepted step."""
    scale0 = atol + rtol * np.abs(v0)
    kept = scale0 > 0.0
    if not kept.all():
        v0, k1, scale0 = v0[kept], k1[kept], scale0[kept]
    if not v0.size:
        return min(1e-6 * t_end, t_end / 10.0)
    with np.errstate(over="ignore"):
        d0 = float(np.sqrt(np.mean((v0 / scale0) ** 2)))
        d1 = float(np.sqrt(np.mean((k1 / scale0) ** 2)))
    h = 0.01 * d0 / d1 if d1 > 0 and d0 > 0 else 1e-6 * t_end
    h = min(h, t_end / 10.0)
    return h if h >= h_floor else h_floor


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
    model: Model | Sequence[Model],
    starts,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    record_every: float | None = None,
) -> list[Trajectory]:
    """Integrate the model flow from each row of starts (B, n) over [0, t_end].

    model is one model for every row, or a sequence of B models, one per
    row, that share n and the interaction kind (else a ValueError naming
    model); _checked_run checks the call once. Each distinct model builds
    R+M and its field once: one model's stack takes its broadcasting field,
    several models' rows their own stacked parameters (model._row_parameters),
    which shrink to the rows still running as rows leave. A row's own calls
    (the extension's stacked stages, the refresh of a clipped state, and
    every call once it runs alone) take its own model's field.

    Each attempt is one DOP853 step: a power-iteration probe of the
    Jacobian and twelve stages, that is thirteen field calls, of which the
    last, f at the step's result y, is the next step's first stage (FSAL)
    unless y was clipped. A row's state and stages live in one buffer
    z = [v; k_0..k_15], and the attempt's weights hc = [1, h a_s] (_AH times
    h, column 0 set to 1) turn each stage's argument, y included, into one
    product of hc's row s with z's first s + 1 rows. The rows step in
    lockstep: each of these calls is one field evaluation on the stack of
    rows still running, and each stage's arguments one batched product with
    every row's own h. Every row keeps its own time, step size, controller
    memory, power-iteration vector, grid position and counters, so each
    trajectory equals its one-start run on its model bit for bit. An
    accepted step records its own y at a grid time it ends on. One that
    holds grid times queues a copy of its state and stages for the
    continuous extension; a row's queue holds _queue_capacity steps (64,
    fewer when the call's queues would pass _QUEUE_BUDGET floats), and is
    flushed when full and when the row reaches t_end. A flush evaluates
    the extension's three extra stages for all its steps as three stacked
    products and three calls of the row's model's field on (K, n), and the
    grid times inside the steps as one product per group of steps with as
    many times, the shapes a lone step's products have, so the samples keep
    their bits. A row leaves the batch when it reaches t_end. Once one row
    runs (from the start, or when the others have finished), its buffer is
    (17, n) and its step size a Python float: the same products as on a
    stack of one, at a fraction of the call cost.

    The error of a step is dop853.f's norm h |e5|^2 / sqrt((|e5|^2 +
    0.01 |e3|^2) n) of the 5th- and 3rd-order estimates, each component
    over the scale atol + rtol * max(|v|, |y|). With atol = 0, a component
    that stays exactly 0 through a step, with zero estimates, counts as
    error 0 rather than 0 / 0. The step size also keeps |h lambda| within
    _STIFF_LIMIT for the power iteration's estimate of the Jacobian's
    largest |lambda|, where the continuous extension stays accurate.

    The work is bounded: a recording grid of more than _MAX_SAMPLES points
    is a ValueError, and a row that needs more than _MAX_STEPS attempted
    steps raises StepBudgetExceeded. The first row to fail aborts the call.
    """
    models, starts, grid = _checked_run(model, starts, t_end, rtol, atol, record_every)
    return _integrate_rows(models, starts, grid, float(t_end), rtol, atol)


def _integrate_rows(models: list[Model], starts: np.ndarray, grid: np.ndarray, t_end: float,
                    rtol: float, atol: float) -> list[Trajectory]:
    """integrate_batch's run on the rows that _checked_run returned."""
    n_rows, n = starts.shape
    distinct, index = _distinct(models)
    params = [_field_parameters(model) for model in distinct]
    fields = [_vector_field(p) for p in params]
    row_fields = [fields[k] for k in index]
    row_params = _row_parameters(params).take(index) if len(params) > 1 else None
    f = fields[0] if row_params is None else _vector_field(row_params)
    times = np.concatenate(([0.0], grid))  # every recorded time is a grid point
    grid = grid.tolist()
    n_grid = len(grid)
    paths = [np.empty((n_grid + 1, n)) for _ in range(n_rows)]
    for path, v0 in zip(paths, starts):
        path[0] = v0

    # z holds each running row's state and its 16 stages, (B, 17, n), or
    # (17, n) for one row; v and ks are views of it, and stage 0 is f at the
    # state. hc holds each row's weights of z for the attempt, (B, 16, 17) or
    # (16, 17): _AH times the row's h, with column 0 set to 1.
    z = np.empty((n_rows, 17, n) if n_rows > 1 else (17, n))
    v, ks = z[..., 0, :], z[..., 1:, :]
    v[...] = starts if n_rows > 1 else starts[0]
    ks[..., 0, :] = f(v)
    if not np.isfinite(ks[..., 0, :]).all():
        raise NonFiniteState("vector field is non-finite at the initial state")
    h_floor = 1e-14 * t_end
    h_ctrl = [_start_step(v_b, k_b, rtol, atol, t_end, h_floor)
              for v_b, k_b in zip(starts, z.reshape(n_rows, 17, n)[:, 1])]
    t = [0.0] * n_rows
    err_prev = [1.0] * n_rows
    grid_idx = [0] * n_rows
    accepted = [0] * n_rows
    rejected = [0] * n_rows
    rows = list(range(n_rows))  # the rows still running, in buffer order

    def step_size(b: int, lam: float) -> float:
        # lam estimates the largest |lambda| of the Jacobian at row b's state
        if accepted[b] + rejected[b] >= _MAX_STEPS:
            raise StepBudgetExceeded(
                f"no end after {_MAX_STEPS} attempted steps; "
                f"stopped at t={t[b]:g} of {t_end:g}"
            )
        h = min(h_ctrl[b], t_end - t[b])
        if h * lam > _STIFF_LIMIT:
            h = _STIFF_LIMIT / lam
            left = _MAX_STEPS - accepted[b] - rejected[b]
            if not (h >= h_floor and h * left >= t_end - t[b]):
                raise StepBudgetExceeded(
                    f"the stiffness cap |h lambda| <= {_STIFF_LIMIT:g} holds the step at {h:g} "
                    f"(t={t[b]:g}), so t_end={t_end:g} is out of reach of {_MAX_STEPS} "
                    "attempted steps (an estimate: the cap moves with the state)"
                )
        if not h >= h_floor:
            raise StepSizeUnderflow(f"step size {h:g} underflowed at t={t[b]:g}")
        return h

    def settle(b, h, j, z, y, finite, y_min, sq, q, err_est, scale) -> bool:
        # Decide row b's attempt of size h, and leave y[j] as its next state
        # and stage 0 of z[j] as the field there; True when the row reached
        # t_end. z[j], y[j], q[j], err_est[j] and scale[j] are its state
        # and stages, result and error terms: j is its place in a stack, or
        # the full slice for one row's own arrays. sq holds the sums of
        # q[j]**2.
        sq5, sq3 = sq
        if finite and (sq5 != sq5 or sq3 != sq3):
            sq5, sq3 = _zero_scale_sq_sums(q[j], err_est[j], scale[j])
        if not finite:
            shrink = 0.25
        elif y_min < -atol:
            shrink = 0.5
        else:
            err = _error_norm(h, sq5, sq3, n)
            shrink = None if err <= 1.0 else max(0.1, _SAFETY * err ** -0.125)
        zj = z[j]
        if shrink is not None:
            # the state and its first stage stay
            rejected[b] += 1
            h_ctrl[b] = h * shrink
            y[j] = zj[0]
            return False

        if y_min <= 0.0:
            # also turns -0.0 into 0.0
            np.clip(y[j], 0.0, None, out=y[j])
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
                # the grid times inside the step come from the continuous
                # extension, which the row's next flush evaluates
                if queues[b] is None:
                    queues[b] = np.empty((capacity, 17, n))
                queue = queued[b]
                queues[b][len(queue), :14] = zj[:14]
                queue.append((inner - lo, h, t[b], lo))
                if len(queue) == capacity:
                    flush(b)
            if inner < hi:
                paths[b][hi] = y[j]
            grid_idx[b] = hi
        t[b] = t_b
        factor = (
            _SAFETY * err ** (-_PI_ALPHA) * err_prev[b] ** _PI_BETA
            if err > 0 else _MAX_FACTOR
        )
        h_ctrl[b] = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev[b] = max(err, 1e-4)
        if grid_idx[b] == n_grid:
            if queued[b]:
                flush(b)
            return True
        # FSAL: stage 12 is f at the new state, unless it was clipped
        zj[1] = row_fields[b](y[j]) if y_min < 0.0 else zj[13]
        return False

    capacity = _queue_capacity(n, n_rows)
    queues = [None] * n_rows  # each row's (capacity, 17, n) buffer, made at its first use
    queued = [[] for _ in range(n_rows)]  # each row's queued (m, h, t, lo), as flush reads them

    def flush(b):
        # The continuous extension of row b's queued steps, K of them: each
        # step's state and stages 0..12 fill the first 14 rows of its slot
        # in queues[b], and queued[b] holds its (m, h, t, lo), the m grid
        # times lo < i <= lo + m inside the step of size h from t. Stage
        # s = 13..15 of all K steps is one stacked product with [1, h a_s],
        # the lockstep stack's (K, 1, s+1) @ (K, s+1, n), and one call of
        # the row's field on the (K, n) arguments. The steps, sorted by m,
        # then weigh their stages into their samples: the steps with m
        # samples in one (k, m, 7) @ (7, 16) @ (k, 16, n), a product per
        # step of the shapes a lone step gives it, since a product's
        # rounding depends on its number of rows; the rest is elementwise
        # on all the samples at once.
        queue = queued[b]
        queued[b] = []
        order = sorted(range(len(queue)), key=lambda i: queue[i][0])
        m, h, t0, lo = (np.array(col) for col in zip(*(queue[i] for i in order)))
        counts = m.tolist()
        zq = queues[b][order]
        hq = np.multiply(_AH[13:], h[:, None, None])
        hq[..., 0] = 1.0
        f_b = row_fields[b]
        for s in range(13, 16):
            zq[:, s + 1] = f_b((hq[:, s - 13:s - 12, :s + 1] @ zq[:, :s + 1])[:, 0])
        # sample i of the steps' sorted run lies at the grid cell cells[i],
        # inside a step of size hs[i]
        cells = np.arange(sum(counts)) + np.repeat(lo + 1 - (m.cumsum() - m), m)
        hs = np.repeat(h, m)
        sigma = (times[cells] - np.repeat(t0, m)) / hs
        weights = np.empty((sigma.size, 7))
        weights[:, 0::2] = sigma[:, None]
        weights[:, 1::2] = 1.0 - sigma[:, None]
        weights = weights.cumprod(axis=1)
        dense = np.empty((sigma.size, n))
        first = step = 0
        for count, group in groupby(counts):
            k = len(list(group))
            block = slice(first, first + k * count)
            np.matmul(weights[block].reshape(k, count, 7) @ _P, zq[step:step + k, 1:],
                      out=dense[block].reshape(k, count, n))
            first, step = block.stop, step + k
        dense *= hs[:, None]
        dense += np.repeat(zq[:, 0], m, axis=0)
        paths[b][cells] = np.maximum(dense, 0.0, out=dense)

    def plan(z, hc):
        # One field call per stage on the running rows: for s = 1..12, row s
        # of hc weighs z[..., :s+1, :], the state and stages 0..s-1, into
        # stage s's argument (at s = 12, the step's y), and f there goes to
        # stage s, z[..., s+1, :]; the error estimates weigh stages 0..11
        # by _E. One row takes ndarray.dot of (s+1,) and (s+1, n); a stack
        # takes one @ of (B, 1, s+1) and (B, s+1, n) into (B, 1, n), the
        # same vector-matrix product per row, at a fraction of the call
        # cost, and the field sees its (B, n) view.
        if z.ndim == 2:
            return [(hc[s, :s + 1].dot, z[:s + 1], z[s + 1]) for s in range(1, 13)], _E.dot
        stages = [(hc[:, s:s + 1, :s + 1].__matmul__, z[:, :s + 1], z[:, s + 1])
                  for s in range(1, 13)]
        return stages, _E.__matmul__

    hc = np.empty(z.shape[:-2] + _AH.shape)
    stages, weigh_err = plan(z, hc)
    # each row's power-iteration vector for the Jacobian's largest
    # eigenvalue; the all-ones start lies close to the mass mode, which is
    # the fast one near a steady state
    u = np.ones_like(v)
    whole = slice(None)
    min_reduce = np.minimum.reduce
    add_reduce = np.add.reduce
    multiply = np.multiply
    # a non-finite stage rejects its step; numpy's warnings about the
    # stages computed from it say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        while rows:
            # One power iteration per attempt and row, at the cost of one
            # field call: f(v + c u) - f(v) is about c J u for the probe
            # |c u| = _PROBE |v| (or _PROBE at v = 0), so its size over the
            # probe's estimates the largest |lambda| of J, and it is the
            # next u. A difference that is 0 or not finite restarts u.
            lone = v.ndim == 1
            if lone:
                b = rows[0]
                v_sq = float(add_reduce(v * v))
                size = _PROBE * math.sqrt(v_sq) if v_sq > 0.0 else _PROBE
                u = f(v + size / math.sqrt(float(add_reduce(u * u))) * u) - ks[0]
                d_sq = float(add_reduce(u * u))
                if not 0.0 < d_sq < math.inf:
                    u = np.ones(n)
                    d_sq = 0.0
                h = step_size(b, math.sqrt(d_sq) / size)
                multiply(_AH, h, out=hc)
            else:
                v_sq = add_reduce(v * v, axis=-1).tolist()
                u_sq = add_reduce(u * u, axis=-1).tolist()
                sizes = [_PROBE * math.sqrt(x) if x > 0.0 else _PROBE for x in v_sq]
                c = [size / math.sqrt(x) for size, x in zip(sizes, u_sq)]
                u = f(v + np.array(c)[:, None] * u) - ks[:, 0]
                d_sq = add_reduce(u * u, axis=-1).tolist()
                hs = []
                for j, b in enumerate(rows):
                    if not 0.0 < d_sq[j] < math.inf:
                        u[j] = 1.0
                        d_sq[j] = 0.0
                    hs.append(step_size(b, math.sqrt(d_sq[j]) / sizes[j]))
                multiply(_AH, np.array(hs)[:, None, None], out=hc)
            hc[..., 0] = 1.0

            for weigh, z_s, out in stages:
                y = weigh(z_s)
                if not lone:
                    y = y[:, 0]
                out[...] = f(y)
            finite = _finite_rows(ks[..., :13, :], y)
            err_est = weigh_err(ks[..., :12, :])
            # v >= 0, so |v| is v (up to a start's -0.0, whose sign the sum
            # with atol drops)
            scale = atol + rtol * np.maximum(v, np.abs(y))
            q = err_est / scale[..., None, :]

            sq_sums = add_reduce(q * q, axis=-1).tolist()
            if lone:
                if settle(b, h, whole, z, y, finite is None or finite,
                          float(min_reduce(y)), sq_sums, q, err_est, scale):
                    break
                v[...] = y
                continue

            y_min = min_reduce(y, axis=1).tolist()
            finished = [
                j for j, b in enumerate(rows)
                if settle(b, hs[j], j, z, y, finite is None or finite[j], y_min[j],
                          sq_sums[j], q, err_est, scale)
            ]
            v[...] = y
            if finished:
                keep = [j for j in range(len(rows)) if j not in finished]
                rows = [rows[j] for j in keep]
                if row_params is not None and keep:
                    # the parameters shrink to the rows still running
                    row_params = row_params.take(keep)
                    f = _vector_field(row_params) if len(keep) > 1 else row_fields[rows[0]]
                if len(keep) == 1:
                    keep = keep[0]
                z = z[keep]
                v, ks = z[..., 0, :], z[..., 1:, :]
                u = u[keep]
                hc = np.empty(z.shape[:-2] + _AH.shape)
                stages, weigh_err = plan(z, hc)

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

    Numerator and denominator are both scaled by exp(-s t), s the largest
    of the eigenvalues and 0, so no exponent is positive and no horizon
    overflows: mode i of exp(-s t) V(t) is exp((lam_i - s) t), and
    exp(-s t) phi_1(lam_i, t) is exp((max(lam_i, 0) - s) t) psi(|lam_i|, t)
    with psi(m, t) = (1 - exp(-m t)) / m, whose limit at m = 0 is t.
    A start whose largest entry is below 1/2 is first scaled up by a power
    of two, exactly, so that a subnormal one still reaches the attractor.
    States are clamped at 0, as the integrator clamps them. A start at
    which the vector field is not finite, or a state that is not, raises
    NonFiniteState, as integrate does. The one-start call of _exact_flow.
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
    return _exact_flow(model, v0[None], times)[0]


def _exact_flow(model: Model, starts: np.ndarray, times: np.ndarray) -> list[Trajectory]:
    """closed_form_uniform_linear from each checked row of starts (B, n) at
    the checked times (0 prepended), with one R+M, one spectrum and, before
    it, one field check at every start. Each row's products are the
    one-start call's (model._matvec for its modal coefficients, one
    (T, n) @ (n, n) per row), so each row equals it bit for bit."""
    if times[0] > 0.0:
        times = np.concatenate(([0.0], times))
    params = _field_parameters(model)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if not np.isfinite(_vector_field(params)(starts)).all():
            raise NonFiniteState("vector field is non-finite at the initial state")
        spec = symmetric_spectrum(params.a)
        lam = spec.eigenvalues
        basis = spec.eigenvectors
        shift = max(float(lam.max()), 0.0)
        t = times[:, None]
        mag = np.abs(lam)
        zero = mag == 0.0
        # a start enters as v0 / c with c = 2^k, k = min(0, exponent of max
        # v0), so the modes of a tiny start do not underflow; the flow is then
        # P / (exp(-s t) / c + I) for the scaled numerator P and integral term I
        k = np.minimum(0, np.frexp(starts.max(axis=1))[1])[:, None, None]
        coeff = _matvec(basis.T, np.ldexp(starts, -k[:, 0]))[:, None, :]
        psi = np.where(zero, t, -np.expm1(-mag * t) / np.where(zero, 1.0, mag))
        propagated = (np.exp((lam - shift) * t) * coeff) @ basis.T
        integral = (np.exp((np.maximum(lam, 0.0) - shift) * t) * psi * coeff) @ basis.T
        pressure = integral @ (model.interaction.a / model.big_k)
        # where exp(-s t) / c overflows, the state is below about 1e-308 and
        # its quotient 0
        denominator = np.ldexp(np.exp(-shift * t), -k) + pressure[..., None]
        # a component that is exactly 0 stays 0, also where the denominator
        # underflows to 0
        states = np.divide(propagated, denominator, out=np.zeros_like(propagated),
                           where=propagated != 0.0)
    np.maximum(states, 0.0, out=states)
    states[:, 0] = starts
    if not np.isfinite(states).all():
        raise NonFiniteState("closed-form state is non-finite")
    return [Trajectory(times=times.copy(), states=row, accepted_steps=0, rejected_steps=0,
                       tol_used=(0.0, 0.0)) for row in states]


def _has_closed_form(model: Model) -> bool:
    """Does closed_form_uniform_linear apply: uniform linear, symmetric mutation."""
    return isinstance(model.interaction, UniformLinear) and mutation_symmetric(model)


def _flow_batch(
    model: Model | Sequence[Model],
    starts,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    record_every: float | None = None,
) -> list[Trajectory]:
    """The flow from each row of starts (B, n) over [0, t_end] on the
    recording grid, after integrate_batch's one check (_checked_run); model
    is one model, or one per row. Each row gets what _flow_batch of its
    model and its start alone gives. The rows of each uniform linear model
    with symmetric mutation take one _exact_flow pass, so rtol and atol are
    checked but unused and tol_used is (0, 0); one _integrate_rows run
    integrates the others, in row order.
    """
    models, starts, grid = _checked_run(model, starts, t_end, rtol, atol, record_every)
    distinct, index = _distinct(models)
    exact = [_has_closed_form(row) for row in distinct]
    flows = {}
    integrated = [b for b, k in enumerate(index) if not exact[k]]
    if integrated:
        flows.update(zip(integrated, _integrate_rows([models[b] for b in integrated],
                                                     starts[integrated], grid, float(t_end),
                                                     rtol, atol)))
    for k, row in enumerate(distinct):
        if exact[k]:
            rows = [b for b, j in enumerate(index) if j == k]
            flows.update(zip(rows, _exact_flow(row, starts[rows], grid)))
    return [flows[b] for b in range(len(models))]


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
