"""Positive stationary states.

Two routes: exact scaling of the dominant eigenvector when every genotype
feels the same pressure (uniform linear family), and a continuation from
that anchor for heterogeneous pressures, solving each stage by damped
Newton and accepting it only when the fixed-point map of the stage moves
the iterate by at most _INNER_TOL. Stationarity means
(R+M) v = diag(Psi(v)) v / K.

The continuation map T(v) = (R+M)^{-1}[Psi_s(v) v / K] itself is radially
repelling at its fixed points (along the equilibrium ray it reduces to
m -> m^2), so it serves as the convergence certificate, never as the
update rule.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    Hypothesis3Violated,
    InnerNoConvergence,
    LeftAprioriBox,
    NonPositivePerron,
    SingularMatrix,
    WrongInteractionKind,
)
from .linalg import _PIVOT_REL, perron_eigenpair, require_nonsingular
from .model import (
    Model,
    Perturbed,
    UniformLinear,
    _linear_coefficients,
    _pressure_values,
    growth_mutation_matrix,
    interaction_gradient,
    mutation_symmetric,
    rhs,
    validate,
)


class Method(Enum):
    PerronScaling = "perron"
    Homotopy = "homotopy"


_INNER_TOL = 1e-12   # certificate bound on ||T(v) - v||_inf for a stage
_MAX_INNER = 10_000  # Newton steps per stage
_DAMPING = 0.5       # backtracking factor of a damped Newton step


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


def _sup(x: np.ndarray) -> float:
    """||x||_inf, nan when x holds a nan; np.maximum.reduce skips np.max's wrapper."""
    return float(np.maximum.reduce(np.abs(x), axis=None))


def residual(model: Model, v) -> float:
    """Max-norm of the vector field at v."""
    return _sup(rhs(model, np.asarray(v, dtype=float)))


def _scale_to_pressure(model: Model, direction: np.ndarray, target: float) -> np.ndarray:
    """Find m > 0 with Psi_1(m * direction) = target for increasing Psi_1."""
    inter = model.interaction
    if isinstance(inter, UniformLinear):
        return (target / float(inter.a @ direction)) * direction
    pressure = _pressure_values(model)

    def shared(m: float) -> float:
        return float(pressure(m * direction)[0])

    hi = 1.0
    for _ in range(200):
        if shared(hi) >= target:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if shared(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * direction


def equilibrium_uniform(model: Model) -> EquilibriumResult:
    """Positive equilibrium by dominant-eigenvector scaling (uniform pressures)."""
    inter = model.interaction
    if not isinstance(inter, UniformLinear):
        raise WrongInteractionKind("eigenvector scaling applies to uniform interactions")
    per = perron_eigenpair(growth_mutation_matrix(model))
    if per.lambda_p <= 0.0:
        raise NonPositivePerron(f"dominant growth exponent {per.lambda_p:g} is not positive")
    alpha_bar = model.big_k * per.lambda_p
    v_bar = _scale_to_pressure(model, per.v_p, alpha_bar)
    return EquilibriumResult(
        v_bar=v_bar,
        alpha_bar=alpha_bar,
        lambda_p=per.lambda_p,
        residual=residual(model, v_bar),
        method=Method.PerronScaling,
        homotopy_path=[],
    )


def equilibrium_auto(model: Model) -> EquilibriumResult:
    """Eigenvector scaling for uniform pressures, continuation for every other family."""
    if isinstance(model.interaction, UniformLinear):
        return equilibrium_uniform(model)
    return equilibrium_homotopy(model)


def _apriori_box(model: Model) -> tuple[float, float]:
    """Bounds on the total population of any continuation fixed point.

    Sandwiching the shared quadratic form of R+M between its extreme
    eigenvalues and the pressures between the extreme entries of their
    linear coefficients C, widened by the perturbation offset, gives
    computable total-population bounds; a wide fallback box is used (and
    flagged by a warning) when R+M's symmetric part is not positive
    definite, C has a zero entry, or the offset swallows the lower bound.
    """
    a = growth_mutation_matrix(model)
    eigenvalues = np.linalg.eigvalsh(0.5 * (a + a.T))
    lmin = float(eigenvalues[0])
    lmax = float(eigenvalues[-1])
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
    total = float(v.sum())
    return bool(np.min(v) >= 0.0 and lo <= total <= hi)


def _guarded_solve(jac: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(jac, b), raising SingularMatrix when the solve shows jac singular.

    The solve itself is the test, so a Newton step costs no SVD. solve_linear
    accepts a matrix when sigma_min >= 1e-14 ||J||_inf. Since
    ||J^-1||_inf <= sqrt(n) ||J^-1||_2 = sqrt(n) / sigma_min, the solution of
    every matrix it accepts obeys
        ||J||_inf ||x||_inf <= ||J||_inf ||J^-1||_inf ||b||_inf <= sqrt(n) 1e14 ||b||_inf,
    so a growth above twice that bound (the 2 leaves room for rounding in x)
    proves J ill-conditioned, and every Jacobian that solve_linear accepts
    passes here (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7).
    """
    try:
        x = np.linalg.solve(jac, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    # a non-finite x makes the growth inf or nan
    growth = _sup(np.abs(jac).sum(axis=1)) * _sup(x)
    bound = 2.0 * math.sqrt(len(b)) / _PIVOT_REL * _sup(b)
    if not (math.isfinite(growth) and growth <= bound):
        raise SingularMatrix(
            f"Newton step growth ||J|| ||x|| = {growth:g} exceeds {bound:g}; "
            "the Jacobian is numerically singular"
        )
    return x


def _newton_step(
    a: np.ndarray, big_k: float, v: np.ndarray, psi: np.ndarray, grad: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """The Newton step of g(v) = a v - psi(v) v / K: solve J x = -g with
    J = a - diag(psi)/K - (v outer grad psi)/K, through the guarded solve."""
    jac = a - np.diag(psi) / big_k - (v[:, None] * grad) / big_k
    return _guarded_solve(jac, -g)


def _stage_solve(
    model: Model,
    a: np.ndarray,
    s: float,
    v: np.ndarray,
    box_lo: float,
    box_hi: float,
) -> np.ndarray:
    """Drive the stage-s stationarity residual to zero by damped Newton.

    Acceptance is certified with the stage fixed-point map: the stage is
    done only when ||T(v) - v||_inf <= _INNER_TOL.
    """
    big_k = model.big_k
    pressure = _pressure_values(model)

    def stage_pressure(x: np.ndarray) -> np.ndarray:
        psi = pressure(x)
        return s * psi + (1.0 - s) * psi[0]

    for _ in range(_MAX_INNER):
        psi_s = stage_pressure(v)
        tv = np.linalg.solve(a, psi_s * v / big_k)
        if _sup(tv - v) <= _INNER_TOL:
            return v
        g = a @ v - psi_s * v / big_k
        g_norm = _sup(g)
        grad = interaction_gradient(model, v)
        grad_s = s * grad + (1.0 - s) * np.broadcast_to(grad[0], grad.shape)
        step = _newton_step(a, big_k, v, psi_s, grad_s, g)
        t = 1.0
        accepted = False
        for _ in range(60):
            cand = v + t * step
            if np.min(cand) > 0.0 and _in_box(cand, box_lo, box_hi):
                cand_psi = stage_pressure(cand)
                cand_norm = _sup(a @ cand - cand_psi * cand / big_k)
                if cand_norm < g_norm:
                    v = cand
                    accepted = True
                    break
            t *= _DAMPING
        if not accepted:
            probe = v + 1e-8 * step
            if not (np.min(probe) > 0.0 and _in_box(probe, box_lo, box_hi)):
                raise LeftAprioriBox(s)
            raise InnerNoConvergence(s)
    raise InnerNoConvergence(s)


def equilibrium_homotopy(model: Model) -> EquilibriumResult:
    """Continuation from the shared-pressure anchor to the full pressure map.

    The pressure map is slid from Psi_1 (applied to every genotype) to the
    genuine Psi along s in [0, 1]; each stage is solved by damped Newton on
    G_s(v) = (R+M)v - Psi^s(v) v / K warm-started from the previous stage,
    accepted only when the stage map T(v) = (R+M)^{-1}[Psi^s(v) v / K]
    moves v by at most _INNER_TOL, and the final stage is polished by Newton
    on the full stationarity equation.
    """
    report = validate(model)
    if mutation_symmetric(model):
        if not report.h3_half:
            raise Hypothesis3Violated("mutation outflow must stay within r/2")
    elif not report.h4_third:
        raise Hypothesis3Violated(
            "asymmetric mutation requires symmetrized outflow within r/3"
        )

    a = growth_mutation_matrix(model)
    require_nonsingular(a)
    box_lo, box_hi = _apriori_box(model)
    big_k = model.big_k

    per = perron_eigenpair(a)
    if per.lambda_p <= 0.0:
        raise NonPositivePerron(f"dominant growth exponent {per.lambda_p:g} is not positive")
    v = _scale_to_pressure(model, per.v_p, big_k * per.lambda_p)
    if not _in_box(v, box_lo, box_hi):
        raise LeftAprioriBox(0.0)
    path = [(0.0, v.copy(), residual(model, v))]

    s_values = np.linspace(0.0, 1.0, HomotopyConfig.s_steps)
    for s in s_values[1:]:
        v = _stage_solve(model, a, float(s), v, box_lo, box_hi)
        path.append((float(s), v.copy(), residual(model, v)))

    v = _newton_polish(model, a, v)
    if not _in_box(v, box_lo, box_hi):
        raise LeftAprioriBox(1.0)
    path[-1] = (1.0, v.copy(), residual(model, v))

    return EquilibriumResult(
        v_bar=v,
        alpha_bar=None,
        lambda_p=per.lambda_p,
        residual=residual(model, v),
        method=Method.Homotopy,
        homotopy_path=path,
    )


def _newton_polish(model: Model, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    big_k = model.big_k
    pressure = _pressure_values(model)
    scale = max(1.0, _sup(v))
    for _ in range(50):
        psi = pressure(v)
        g = a @ v - psi * v / big_k
        if _sup(g) <= 1e-15 * scale:
            break
        step = _newton_step(a, big_k, v, psi, interaction_gradient(model, v), g)
        t = 1.0
        cand = v + step
        for _ in range(40):
            if np.min(cand) > 0.0:
                break
            t *= 0.5
            cand = v + t * step
        v = cand
        if _sup(t * step) <= 1e-15 * scale:
            break
    return v
