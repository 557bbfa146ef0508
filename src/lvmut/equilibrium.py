"""Positive stationary states.

Four routes: exact scaling of the dominant eigenvector when every genotype
feels the same pressure (uniform linear family); for a perturbed kind, one
Newton run on the full system started at its uniform base's equilibrium,
which that scaling gives exactly (the implicit function theorem's branch
for small eps); pseudo-transient continuation (Psi-tc) on the full system,
linearly implicit Euler on the flow itself with a pseudo-time step that
grows until the iteration is Newton's, which solves a crowding model from
the anchor and a perturbed one from the same start when its Newton run
fails (_continue); and the homotopy from the anchor (equilibrium_homotopy).
Stationarity means (R+M) v = diag(Psi(v)) v / K.

One runner (_run_stages) solves every continuation stage, the last one
included, by one damped Newton loop on G_s(v) = (R+M) v - (Psi^s(v) / K) v,
written once (_stationarity) in the vector field's operation order, so G_1
is rhs bit for bit and scores each stage. A stage is accepted when the
Newton correction at v is at most _NEWTON_TOL max(1, ||v||_inf), a stop
relative to the size of v, so it holds for any carrying capacity K. The
accepted point is v itself, not v plus that last correction, so a stage
that its start already solves (every stage of a uniform kind) returns the
start bit for bit. A start already near the answer, such as a perturbed
kind's base equilibrium or the previous row of a perturbation sweep, needs
only the last stage (_stage_one). Psi-tc (_pseudo_transient) stops by the
same test once its step is Newton's.
"""
from __future__ import annotations

import math
import traceback
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    Hypothesis3Violated,
    InnerNoConvergence,
    LeftAprioriBox,
    LvmutError,
    NonPositivePerron,
    SingularMatrix,
    WrongInteractionKind,
)
from .linalg import (
    PerronResult,
    _guarded_solve,
    _sup,
    _symmetric_extremes,
    perron_eigenpair,
    require_nonsingular,
)
from .model import (
    Model,
    Perturbed,
    UniformLinear,
    _gradient,
    _linear_coefficients,
    _pressure_values,
    growth_mutation_matrix,
    rhs,
    validate,
)


class Method(Enum):
    PerronScaling = "perron"
    Homotopy = "homotopy"
    Continuation = "continuation"


_NEWTON_TOL = 1e-13  # bound on the Newton correction, relative to max(1, ||v||_inf)
_MAX_INNER = 100     # Newton steps per stage (the ladder rungs take at most 26), Psi-tc steps per run
_DAMPING = 0.5       # backtracking factor of a damped Newton step
_MAX_HALVINGS = 60   # step cuts per Newton or Psi-tc step
_PTC_NEWTON = 1e14   # pseudo-time step from which Psi-tc stops on Newton's test


@dataclass(frozen=True)
class HomotopyConfig:
    s_steps: int = 21


@dataclass(frozen=True)
class EquilibriumResult:
    v_bar: np.ndarray
    alpha_bar: float | None
    lambda_p: float
    residual: float
    method: Method
    homotopy_path: list = field(default_factory=list)  # (s, v, residual) checkpoints


def residual(model: Model, v) -> float:
    """Max-norm of the vector field at v."""
    return _sup(rhs(model, np.asarray(v, dtype=float)))


def _anchor(model: Model, a: np.ndarray) -> tuple[PerronResult, np.ndarray]:
    """The Perron pair of a = R+M and the m v_p where Psi_1's linear part
    C[0] @ v (C = _linear_coefficients) equals K lambda_p: exact for the linear
    kinds. A slope C[0] @ v_p <= 0 means no scale reaches K lambda_p. A
    symmetric a that the set-up factorized costs no second eigh."""
    per = perron_eigenpair(a)
    if per.lambda_p <= 0.0:
        raise NonPositivePerron(f"dominant growth exponent {per.lambda_p:g} is not positive")
    slope = float(_linear_coefficients(model)[0] @ per.v_p)
    if not slope > 0.0:
        raise LeftAprioriBox(0.0, f"shared pressure flat along the Perron ray (slope {slope:g})")
    return per, (model.big_k * per.lambda_p / slope) * per.v_p


def equilibrium_uniform(model: Model) -> EquilibriumResult:
    """Positive equilibrium by dominant-eigenvector scaling (uniform pressures)."""
    inter = model.interaction
    if not isinstance(inter, UniformLinear):
        raise WrongInteractionKind("eigenvector scaling applies to uniform interactions")
    a = growth_mutation_matrix(model)
    per, v_bar = _anchor(model, a)
    big_k = model.big_k
    return EquilibriumResult(
        v_bar=v_bar,
        alpha_bar=big_k * per.lambda_p,
        lambda_p=per.lambda_p,
        # the field at v_bar in its own expression, from this R+M
        residual=_sup(a.dot(v_bar) - inter.a.dot(v_bar) / big_k * v_bar),
        method=Method.PerronScaling,
        homotopy_path=[],
    )


def equilibrium_auto(model: Model) -> EquilibriumResult:
    """Eigenvector scaling for uniform pressures. Otherwise _continue from
    _anchor's point: for a perturbed kind one s = 1 Newton run, since that
    point is its base's exact equilibrium (the perturbed kind's C is its
    base's), and Psi-tc if that run fails; for crowding, Psi-tc alone."""
    if isinstance(model.interaction, UniformLinear):
        return equilibrium_uniform(model)
    a = _linear_setup(model)
    per, v = _anchor(model, a)
    v_bar, res = _continue(model, a, v)
    return EquilibriumResult(v_bar=v_bar, alpha_bar=None, lambda_p=per.lambda_p,
                             residual=res, method=Method.Continuation)


def _apriori_box(model: Model, a: np.ndarray | None = None) -> tuple[float, float]:
    """Bounds on the total population of any continuation fixed point.

    Sandwiching the shared quadratic form of R+M between its extreme
    eigenvalues and the pressures between the extreme entries of their
    linear coefficients C, widened by the perturbation offset, gives
    computable total-population bounds; a wide fallback box is used (and
    flagged by a warning) when R+M's symmetric part is not positive
    definite, C has a zero entry, or the offset swallows the lower bound.
    a, R+M, is built here unless given; its extremes are a memo hit once
    the set-up has factorized it.
    """
    if a is None:
        a = growth_mutation_matrix(model)
    lmin, lmax = _symmetric_extremes(a)
    coeff = _linear_coefficients(model)
    cmin, kmax = float(np.min(coeff)), float(np.max(coeff))
    inter = model.interaction
    off = 0.0
    if isinstance(inter, Perturbed):
        off = float(inter.eps * np.max(np.abs(inter.amp), initial=0.0))
    big_k = model.big_k
    if lmin <= 0.0 or cmin <= 0.0 or big_k * lmin <= off:
        warnings.warn("no computable population bounds; using the wide fallback box")
        return 1e-6 * big_k, 1e3 * big_k
    lo = 0.5 * (big_k * lmin - off) / kmax
    hi = 2.0 * (big_k * lmax + off) / cmin
    return lo, hi


def _in_box(v: np.ndarray, lo: float, hi: float) -> bool:
    # most rejected candidates have a component <= 0, so v is summed only
    # when it is positive; the ufunc reductions skip np.min's and sum's wrappers
    return bool(np.minimum.reduce(v) > 0.0 and lo <= float(np.add.reduce(v)) <= hi)


def _jacobian(
    a: np.ndarray, big_k: float, v: np.ndarray, psi_s: np.ndarray, grad_s: np.ndarray
) -> np.ndarray:
    """J_s = a - diag(Psi^s)/K - (v outer grad Psi^s)/K, the Jacobian of
    _stationarity's G_s at v, given psi_s = Psi^s(v) and grad_s = grad Psi^s(v)."""
    # one n x n temporary for the outer term, each entry rounded as in
    # a - diag(psi_s / K) - (v[:, None] * grad_s) / K
    outer = grad_s * v[:, None]
    outer /= big_k
    jac = a.copy()
    jac.reshape(-1)[::len(v) + 1] -= psi_s / big_k
    jac -= outer
    return jac


class _System(NamedTuple):
    """What every Newton stage on one model shares, built once per solve."""

    a: np.ndarray  # R + M
    box_lo: float  # the a-priori box on the total population
    box_hi: float
    pressure: Callable[[np.ndarray], np.ndarray]  # v -> Psi(v)
    gradient: Callable[[np.ndarray], np.ndarray]  # v -> Psi'(v), with C bound once


def _stage_gradient(
    model: Model, system: _System, s: float, v: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> grad Psi^s(x) = s Psi'(x) + (1 - s) Psi'(x)[0] for a stage
    starting at v. Psi' of a uniform or crowding kind is C everywhere, so
    its blend is computed once, at v."""
    def blend(grad: np.ndarray) -> np.ndarray:
        grad_s = s * grad
        grad_s += (1.0 - s) * grad[0]
        return grad_s

    if isinstance(model.interaction, Perturbed):
        return lambda x: blend(system.gradient(x))
    grad_s = blend(system.gradient(v))
    return lambda x: grad_s


def _linear_setup(model: Model) -> np.ndarray:
    """R+M, once the checks of every continuation that involve r and mu
    alone pass: validate(model)'s outflow hypothesis (h3 for symmetric
    mutation, h4 otherwise) and R+M nonsingular.

    A symmetric R+M (symmetric mu) is proved nonsingular by the memoized
    eigh, which _anchor's Perron vector and the box's extremes then read
    (R+M's symmetric part is R+M bit for bit); an asymmetric R+M takes the
    SVD. A failed eigh leaves the verdict to the SVD, and the next reader
    of the memo raises its NoConvergence.
    """
    report = validate(model)
    if report.h1_symmetry:
        if not report.h3_half:
            raise Hypothesis3Violated("mutation outflow must stay within r/2")
    elif not report.h4_third:
        raise Hypothesis3Violated(
            "asymmetric mutation requires symmetrized outflow within r/3"
        )
    a = growth_mutation_matrix(model)
    require_nonsingular(a)
    return a


def _stationarity(system: _System, big_k: float, s: float, v: np.ndarray):
    """Psi^s(v) and G_s(v) = (R+M) v - (Psi^s(v) / K) v, in model._vector_field's
    operation order, so G_1 equals rhs bit for bit."""
    psi = system.pressure(v)
    psi_s = psi if s == 1.0 else s * psi + (1.0 - s) * psi[0]
    return psi_s, system.a.dot(v) - psi_s / big_k * v


def _newton(model: Model, system: _System, s: float, v: np.ndarray) -> np.ndarray:
    """Drive the stage-s stationarity residual G_s to zero by damped Newton.

    Each iteration solves J_s x = -G_s(v) once. The stage is done, and v
    returned as it is, when the correction obeys
    ||x||_inf <= _NEWTON_TOL max(1, ||v||_inf). Otherwise _line_search
    halves the step until the candidate stays in the box and lowers
    ||G_s||_inf; the accepted candidate's Psi^s and G_s serve the next
    iteration. When the full step leaves the positive orthant, the search
    starts at the first halving below twice the largest t that keeps
    v + t x >= 0 (_first_cut): every longer step provably has a component
    <= 0, so the candidates evaluated, and the outcome, are those of
    halving from t = 1, bit for bit.
    """
    big_k = model.big_k
    grad_s = _stage_gradient(model, system, s, v)
    psi_s, g = _stationarity(system, big_k, s, v)
    g_norm = _sup(g)
    for _ in range(_MAX_INNER):
        jac = _jacobian(system.a, big_k, v, psi_s, grad_s(v))
        step = _guarded_solve(jac, -g)
        if _sup(step) <= _NEWTON_TOL * max(1.0, _sup(v)):
            return v
        v, psi_s, g, g_norm = _line_search(system, big_k, s, v, step, g_norm)
    raise InnerNoConvergence(s)


def _first_cut(v: np.ndarray, step: np.ndarray, cand: np.ndarray) -> tuple[float, int]:
    """(t, k) with t = _DAMPING**k for the least k >= 1 that has t < 2 t_max
    (or k = _MAX_HALVINGS), given v > 0 and a full-step candidate
    cand = v + step with a component <= 0.

    t_max is the least v_i / -step_i over the i with cand_i <= 0, that is
    with v_i + step_i <= 0 exactly; every other step_i < 0 has a quotient
    above 1, so this is the least over all step_i < 0, and none overflows.
    For the i attaining it, each t >= 2 t_max has t (-step_i) >= v_i
    exactly (the computed quotient is within a factor 1 - u), so the
    rounded t step_i is <= -v_i and v_i + t step_i rounds to <= 0: _in_box
    rejects every candidate skipped.
    """
    out = cand <= 0.0
    t_max = float(np.minimum.reduce(v[out] / -step[out], initial=math.inf))
    t, k = _DAMPING, 1
    while k < _MAX_HALVINGS and t >= 2.0 * t_max:
        t *= _DAMPING
        k += 1
    return t, k


def _line_search(
    system: _System, big_k: float, s: float, v: np.ndarray, step: np.ndarray, g_norm: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The first candidate v + t step, t = 1, 1/2, ..., 2**-59, in the box
    with ||G_s||_inf < g_norm, and its Psi^s, G_s and ||G_s||_inf; the
    halving goes on from _first_cut's t when the full step leaves the
    orthant. When none qualifies, raises LeftAprioriBox(s) if v + 1e-8 step
    leaves the box, and InnerNoConvergence(s) otherwise.
    """
    t, k = 1.0, 0
    while k < _MAX_HALVINGS:
        cand = v + t * step
        if _in_box(cand, system.box_lo, system.box_hi):
            cand_psi, cand_g = _stationarity(system, big_k, s, cand)
            cand_norm = _sup(cand_g)
            if cand_norm < g_norm:
                return cand, cand_psi, cand_g, cand_norm
        elif k == 0 and not np.minimum.reduce(cand) > 0.0:
            t, k = _first_cut(v, step, cand)
            continue
        t *= _DAMPING
        k += 1
    if not _in_box(v + 1e-8 * step, system.box_lo, system.box_hi):
        raise LeftAprioriBox(s)
    raise InnerNoConvergence(s)


def _system(model: Model, a: np.ndarray) -> _System:
    """The _System of a solve on model, given a = _linear_setup(model): the
    a-priori box, Psi and its gradient bound once."""
    return _System(a, *_apriori_box(model, a), _pressure_values(model), _gradient(model))


def _run_stages(model: Model, system: _System, v: np.ndarray, stages: list) -> list:
    """The (s, v, ||G_1(v)||_inf) checkpoints of solving each stage s in turn
    by _newton from v, given the solve's _system (its box, Psi and Psi').

    A start outside the box raises LeftAprioriBox(stages[0]), like a Newton
    run that leaves it.
    """
    if not _in_box(v, system.box_lo, system.box_hi):
        raise LeftAprioriBox(stages[0])
    path = []
    for s in stages:
        v = _newton(model, system, s, v)
        path.append((s, v.copy(), _sup(_stationarity(system, model.big_k, 1.0, v)[1])))
    return path


def _stage_one(model: Model, system: _System, v: np.ndarray) -> tuple[np.ndarray, float]:
    """v_bar and ||G_1(v_bar)||_inf of one s = 1 stage run from v, under the
    homotopy's checks, box and stop."""
    ((_, v_bar, res),) = _run_stages(model, system, v, [1.0])
    return v_bar, res


def _pseudo_transient(model: Model, system: _System, v: np.ndarray) -> tuple[np.ndarray, float]:
    """v_bar and ||G_1(v_bar)||_inf by pseudo-transient continuation from v > 0.

    Linearly implicit Euler on the flow dv/dt = G_1(v) with a pseudo-time
    step delta: each step solves (I/delta - J_1(v)) x = G_1(v) and sets
    v <- v + x (Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998). delta starts
    at 1/||J_1(v)||_inf and after each step grows by max(2, ||G_old||_inf /
    ||G_new||_inf), switched evolution relaxation never below doubling
    (Mulder & van Leer, J. Comput. Phys. 59, 1985), so the step becomes
    Newton's. A candidate with a component <= 0, or with a residual that is
    not finite, halves delta and solves again, at most _MAX_HALVINGS times
    per step. Once delta >= _PTC_NEWTON the run stops by _newton's test,
    ||x||_inf <= _NEWTON_TOL max(1, ||v||_inf), and returns v without that
    last correction; v must then lie in the a-priori box. Raises
    InnerNoConvergence after _MAX_INNER steps or _MAX_HALVINGS halvings,
    or at once when an accepted candidate equals v while G_1(v) is not 0
    (a step below rounding), SingularMatrix from the solve and
    LeftAprioriBox for a result outside the box.
    """
    big_k = model.big_k
    eye = np.eye(len(v))
    psi, g = _stationarity(system, big_k, 1.0, v)
    g_norm = _sup(g)
    grad = _stage_gradient(model, system, 1.0, v)
    jac = _jacobian(system.a, big_k, v, psi, grad(v))
    delta = 1.0 / _sup(np.abs(jac).sum(axis=1))
    for _ in range(_MAX_INNER):
        for _ in range(_MAX_HALVINGS):
            step = _guarded_solve(eye / delta - jac, g)
            if delta >= _PTC_NEWTON and _sup(step) <= _NEWTON_TOL * max(1.0, _sup(v)):
                if not _in_box(v, system.box_lo, system.box_hi):
                    raise LeftAprioriBox(1.0)
                return v, g_norm
            cand = v + step
            if np.minimum.reduce(cand) > 0.0:
                cand_psi, cand_g = _stationarity(system, big_k, 1.0, cand)
                cand_norm = _sup(cand_g)
                if math.isfinite(cand_norm):
                    break
            delta *= 0.5
        else:
            raise InnerNoConvergence(1.0)
        if g_norm > 0.0 and np.array_equal(cand, v):
            # a step below rounding moves nothing, and so would every later one
            raise InnerNoConvergence(1.0)
        # a candidate can solve G_1 exactly (all-ones crowding, say)
        delta *= max(2.0, g_norm / cand_norm if cand_norm > 0.0 else math.inf)
        v, psi, g, g_norm = cand, cand_psi, cand_g, cand_norm
        jac = _jacobian(system.a, big_k, v, psi, grad(v))
    raise InnerNoConvergence(1.0)


def equilibrium_homotopy(model: Model) -> EquilibriumResult:
    """Continuation from the shared-pressure anchor to the full pressure map.

    The pressure map is slid from Psi_1 (applied to every genotype) to the
    genuine Psi along s in [0, 1]. The start is _anchor's point on the Perron
    ray, exact for the linear part of Psi_1. Each stage, s = 0 included, is
    solved by _newton on G_s warm-started from the previous stage, and
    accepted only when its Newton correction is at most
    _NEWTON_TOL max(1, ||v||_inf); so a perturbed kind's tanh offset is
    absorbed by the s = 0 stage, and the s = 1 stage solves the full
    stationarity equation.

    A failed run clears the locals of its finished inner frames and drops
    its set-up before the error propagates, so a held error (a box exit,
    say) keeps no Jacobian, R+M or bound C alive.
    """
    a = _linear_setup(model)
    per, v = _anchor(model, a)
    try:
        path = _run_stages(model, _system(model, a), v,
                           np.linspace(0.0, 1.0, HomotopyConfig.s_steps).tolist())
    except LvmutError as exc:
        traceback.clear_frames(exc.__traceback__)
        del a
        raise
    return EquilibriumResult(
        v_bar=path[-1][1],
        alpha_bar=None,
        lambda_p=per.lambda_p,
        residual=path[-1][2],
        method=Method.Homotopy,
        homotopy_path=path,
    )


def _continue(model: Model, a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """v_bar and ||G_1(v_bar)||_inf of the stationary state from v, given
    a = _linear_setup(model), with the box, Psi and its gradient bound once
    (_system). A perturbed kind runs one s = 1 stage (_stage_one) and, when
    that run leaves the box, does not converge or meets a singular
    Jacobian, _pseudo_transient from the same v; a crowding model runs
    _pseudo_transient alone and raises its error."""
    system = _system(model, a)
    if isinstance(model.interaction, Perturbed):
        try:
            return _stage_one(model, system, v)
        except (LeftAprioriBox, InnerNoConvergence, SingularMatrix):
            pass
    return _pseudo_transient(model, system, v)
