"""Genotype competition models with mutation.

A model couples per-genotype growth rates r, a carrying capacity K, a
nonnegative mutation-rate matrix mu (zero diagonal), and a competitive
pressure map Psi drawn from a closed family of interaction kinds. The
governing vector field is

    dv_i/dt = v_i (r_i - Psi_i(v) / K) + sum_j mu_ij (v_j - v_i).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeMutation,
    NonPositiveRate,
    WrongInteractionKind,
)
from .linalg import _is_symmetric, is_irreducible

_ROWSUM_ZERO_ATOL = 1e-12


@dataclass(frozen=True)
class UniformLinear:
    """Psi_i(v) = sum_j a_j v_j, identical for every genotype."""

    a: np.ndarray


@dataclass(frozen=True)
class CrowdingLinear:
    """Psi_i(v) = sum_j alpha_ij r_j v_j, growth-weighted crowding."""

    alpha: np.ndarray


@dataclass(frozen=True)
class Perturbed:
    """A uniform linear base plus eps * amp_i * tanh(<w_i, v>)."""

    base: UniformLinear
    eps: float
    amp: np.ndarray
    w: np.ndarray


Interaction = UniformLinear | CrowdingLinear | Perturbed


@dataclass(frozen=True)
class Model:
    n: int
    r: np.ndarray
    big_k: float
    mu: np.ndarray
    interaction: Interaction


@dataclass(frozen=True)
class CoercivityParams:
    r_ball: float
    kappa: np.ndarray    # per-genotype Lipschitz bounds on the unit l1 ball


@dataclass(frozen=True)
class HypothesisReport:
    h1_positivity: bool
    h1_symmetry: bool
    h1_irreducible: bool
    h1_monotone: bool
    h2_coercive: bool
    h3_half: bool
    h4_third: bool
    details: dict = field(default_factory=dict)


def _lock(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def offdiagonal_mutation(full: np.ndarray) -> np.ndarray:
    """Strip the diagonal from a mutation matrix whose rows sum to zero.

    Matrices of this shape arise when diagonal loss terms are stored
    explicitly; the off-diagonal part carries the same dynamics once the
    diagonal is folded into the outflow sum, which requires each original
    row to sum to zero.
    """
    full = np.asarray(full, dtype=float)
    rowsums = full.sum(axis=1)
    scale = max(1.0, float(np.max(np.abs(full), initial=0.0)))
    if np.max(np.abs(rowsums), initial=0.0) > _ROWSUM_ZERO_ATOL * scale:
        raise NegativeMutation(
            "matrix rows must sum to zero to absorb the diagonal; got row sums "
            f"{rowsums.tolist()}"
        )
    mu = full.copy()
    np.fill_diagonal(mu, 0.0)
    return mu


def point_mutation_matrix(n_loci: int, rate: float) -> np.ndarray:
    """Off-diagonal mutation rates between the 2**n_loci binary genotypes.

    Entry (i, j) is rate**d * (1-rate)**(L-d) - [d==0 correction] with d the
    Hamming distance; rows of the full matrix (with diagonal (1-rate)**L - 1)
    sum to zero, so the off-diagonal part is returned directly.
    """
    if not (0.0 < rate < 1.0):
        raise NonPositiveRate("point mutation rate must lie in (0, 1)")
    labels = np.arange(2 ** n_loci)
    diff = labels[:, None] ^ labels[None, :]
    distance = sum((diff >> bit) & 1 for bit in range(n_loci))
    by_distance = np.array([rate ** d * (1.0 - rate) ** (n_loci - d) for d in range(n_loci + 1)])
    full = by_distance[distance] - np.eye(labels.size)
    return offdiagonal_mutation(full)


def uniform_linear(a) -> UniformLinear:
    a = _lock(a)
    if a.ndim != 1:
        raise DimensionMismatch("a must be a vector")
    if np.any(a <= 0.0):
        raise NonPositiveRate("uniform interaction weights must be positive")
    if np.any(~np.isfinite(a)):
        raise NonPositiveRate("uniform interaction weights a must be finite")
    return UniformLinear(a=a)


def crowding_linear(alpha) -> CrowdingLinear:
    alpha = _lock(alpha)
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
        raise DimensionMismatch("alpha must be a square matrix")
    if np.any(alpha < 0.0):
        raise NegativeMutation("crowding coefficients must be nonnegative")
    if np.any(~np.isfinite(alpha)):
        raise NegativeMutation("crowding coefficients alpha must be finite")
    return CrowdingLinear(alpha=alpha)


def perturbed(base: UniformLinear, eps: float, amp, w) -> Perturbed:
    if not isinstance(base, UniformLinear):
        raise WrongInteractionKind("perturbed interactions take a uniform linear base")
    eps = float(eps)
    if eps < 0.0:
        raise NonPositiveRate("eps must be nonnegative")
    if not np.isfinite(eps):
        raise NonPositiveRate("eps must be finite")
    amp = _lock(amp)
    w = _lock(w)
    if amp.ndim != 1 or w.ndim != 2:
        raise DimensionMismatch("amp must be a vector and w a matrix")
    if w.shape != (amp.shape[0], amp.shape[0]):
        raise DimensionMismatch("w must be square with amp's length")
    for name, values in (("amp", amp), ("w", w)):
        if np.any(~np.isfinite(values)):
            raise NonPositiveRate(f"perturbation {name} must be finite")
    return Perturbed(base=base, eps=eps, amp=amp, w=w)


def build_model(n: int, r, big_k: float, mu, interaction: Interaction) -> Model:
    """Validate shapes and signs, canonicalize, and freeze a Model."""
    n = int(n)
    if n < 1:
        raise DimensionMismatch("n must be at least 1")
    r = _lock(r)
    if r.shape != (n,):
        raise DimensionMismatch(f"r must have shape ({n},)")
    if np.any(~np.isfinite(r)) or np.any(r <= 0.0):
        raise NonPositiveRate("growth rates must be positive and finite")
    big_k = float(big_k)
    if not np.isfinite(big_k) or big_k <= 0.0:
        raise NonPositiveRate("carrying capacity must be positive and finite")
    mu_arr = np.array(mu, dtype=float)
    if mu_arr.shape != (n, n):
        raise DimensionMismatch(f"mu must have shape ({n}, {n})")
    if np.any(~np.isfinite(mu_arr)):
        raise NegativeMutation("mutation rates must be finite")
    diag = np.diag(mu_arr)
    if np.any(diag != 0.0):
        mu_arr = offdiagonal_mutation(mu_arr)
    if np.any(mu_arr < 0.0):
        raise NegativeMutation("mutation rates must be nonnegative")
    mu_arr = _lock(mu_arr)

    if isinstance(interaction, UniformLinear):
        interaction = uniform_linear(interaction.a)
        if interaction.a.shape != (n,):
            raise DimensionMismatch("interaction weight vector has wrong length")
    elif isinstance(interaction, CrowdingLinear):
        interaction = crowding_linear(interaction.alpha)
        if interaction.alpha.shape != (n, n):
            raise DimensionMismatch("crowding matrix has wrong shape")
    elif isinstance(interaction, Perturbed):
        base = uniform_linear(interaction.base.a)
        interaction = perturbed(base, interaction.eps, interaction.amp, interaction.w)
        if base.a.shape != (n,) or interaction.amp.shape != (n,):
            raise DimensionMismatch(f"perturbation a and amp must have length {n}")
    else:
        raise WrongInteractionKind(f"unknown interaction {type(interaction).__name__}")

    return Model(n=n, r=r, big_k=big_k, mu=mu_arr, interaction=interaction)


def _matvec(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """matrix @ v for each state of a stack (..., n).

    One BLAS matrix-vector product per state, the call a single state
    takes through matrix.dot, so each row matches the one-state result
    bit for bit.
    """
    return (matrix @ v[..., None])[..., 0]


def _pressure_parameters(model: Model) -> tuple[np.ndarray, ...]:
    """The arrays _pressure reads for one model, in its order: a as a row
    (1, n) for a uniform kind; alpha and r for crowding; the base's a as a
    row, w and eps * amp for a perturbed kind."""
    inter = model.interaction
    if isinstance(inter, UniformLinear):
        return (inter.a[None, :],)
    if isinstance(inter, CrowdingLinear):
        return inter.alpha, model.r
    if isinstance(inter, Perturbed):
        return inter.base.a[None, :], inter.w, inter.eps * inter.amp
    raise WrongInteractionKind(f"unknown interaction {type(inter).__name__}")


def _pressure(kind: type, params: tuple):
    """Psi of the interaction kind `kind` with its parameters bound once: the
    one place each kind's pressure is written.

    Returns a pair: the form for one state (n,), through ndarray.dot at about
    half the call cost of @, and the form for a stack (..., n), which takes
    the same product per state, so each row matches the one-state result bit
    for bit. A uniform pressure is one value per state: a scalar for one
    state, (..., 1) for a stack. params is _pressure_parameters(model); the
    stack form also takes the same arrays of B models stacked on a leading
    row axis (_row_parameters), one model per row of a stack (B, n), where
    the one-state form does not apply.
    """
    if kind is UniformLinear:
        (a,) = params
        return a[0].dot, lambda v: _matvec(a, v)
    if kind is CrowdingLinear:
        alpha, r = params
        alpha_dot = alpha.dot
        return lambda v: alpha_dot(r * v), lambda v: _matvec(alpha, r * v)
    a, w, eps_amp = params
    a_dot = a[0].dot
    w_dot = w.dot
    tanh = np.tanh
    return (
        lambda v: a_dot(v) + eps_amp * tanh(w_dot(v)),
        lambda v: _matvec(a, v) + eps_amp * tanh(_matvec(w, v)),
    )


def _pressure_values(model: Model):
    """v -> Psi(v) for float arrays v, shaped like v, with the pressure bound once.

    A solver that evaluates the pressures many times (Newton)
    binds them here once instead of calling interaction_values each time.
    """
    one, stack = _pressure(type(model.interaction), _pressure_parameters(model))

    def values(v: np.ndarray) -> np.ndarray:
        p = one(v) if v.ndim == 1 else stack(v)
        # a uniform pressure comes back as one value per state
        return p if p.shape == v.shape else np.full(v.shape, p)

    return values


def interaction_values(model: Model, v: np.ndarray) -> np.ndarray:
    """Psi(v), one competitive pressure value per genotype.

    v is one state (n,) or a stack of states (..., n); the result has v's shape.
    """
    return _pressure_values(model)(np.asarray(v, dtype=float))


def _linear_coefficients(model: Model) -> np.ndarray:
    """C, the constant Jacobian of Psi's linear part: alpha_ij r_j for crowding,
    else a_j in every row (uniform, or a perturbed kind's uniform base)."""
    inter = model.interaction
    if isinstance(inter, CrowdingLinear):
        return inter.alpha * model.r[None, :]
    a = inter.base.a if isinstance(inter, Perturbed) else inter.a
    return np.tile(a, (model.n, 1))


def _gradient(model: Model):
    """v -> interaction_gradient(model, v), with C bound once for a solver
    that evaluates the gradient at every Newton step."""
    coeff = _linear_coefficients(model)
    inter = model.interaction
    if not isinstance(inter, Perturbed):
        return lambda v: coeff

    def gradient(v: np.ndarray) -> np.ndarray:
        th = np.tanh(inter.w @ np.asarray(v, dtype=float))
        return coeff + inter.eps * (inter.amp * (1.0 - th * th))[:, None] * inter.w

    return gradient


def interaction_gradient(model: Model, v: np.ndarray) -> np.ndarray:
    """Jacobian of Psi at v, row i = grad of Psi_i: C plus the tanh term's slope."""
    return _gradient(model)(v)


class _FieldParameters(NamedTuple):
    """What the vector field reads: the interaction kind, R+M, K and
    _pressure_parameters, for one model (_field_parameters) or stacked on a
    leading row axis for B models (_row_parameters): R+M (B, n, n), K (B, 1)."""

    kind: type
    a: np.ndarray
    big_k: float | np.ndarray
    pressure: tuple

    def take(self, keep: list[int]) -> _FieldParameters:
        """The stacked parameters of the rows keep, in that order."""
        return _FieldParameters(self.kind, self.a[keep], self.big_k[keep],
                                tuple(p[keep] for p in self.pressure))


def _field_parameters(model: Model) -> _FieldParameters:
    return _FieldParameters(type(model.interaction), growth_mutation_matrix(model),
                            model.big_k, _pressure_parameters(model))


def _row_parameters(rows: list[_FieldParameters]) -> _FieldParameters:
    """The _field_parameters of models of one n and interaction kind (the
    callers check), stacked in order on a leading axis; take then gives a
    stack (B, n) with one model per row each row's model's."""
    return _FieldParameters(
        rows[0].kind,
        np.stack([row.a for row in rows]),
        np.array([[row.big_k] for row in rows]),
        tuple(np.stack(arrays) for arrays in zip(*(row.pressure for row in rows))),
    )


def _vector_field(model: Model | _FieldParameters):
    """The vector field (R+M) v - (Psi(v) / K) v as a function of one state
    (n,) or a stack of states (..., n), written once.

    R+M (growth_mutation_matrix) and the interaction kind are bound once, so
    a caller that evaluates the field many times (the integrator) pays for
    them once. One state takes (R+M).dot and _pressure's one-state form; a
    stack takes one product per state and the stack form, so each row of a
    stack matches its one-state result bit for bit. Given _row_parameters in
    place of a model, the field takes stacks (B, n) with one model per row,
    and each row matches its own model's one-state result.
    """
    if isinstance(model, Model):
        model = _field_parameters(model)
    kind, a, big_k, params = model
    psi_one, psi_stack = _pressure(kind, params)
    one = psi_one, a.dot
    stack = psi_stack, lambda v: _matvec(a, v)

    def field(v: np.ndarray) -> np.ndarray:
        psi, grow = one if v.ndim == 1 else stack
        return grow(v) - psi(v) / big_k * v

    return field


def rhs(model: Model, v: np.ndarray) -> np.ndarray:
    """The vector field v_i (r_i - Psi_i(v)/K) + sum_j mu_ij (v_j - v_i).

    v is one state (n,) or a stack of states (..., n), genotypes on the last axis.
    """
    return _vector_field(model)(np.asarray(v, dtype=float))


def growth_mutation_matrix(model: Model) -> np.ndarray:
    """R + M: growth on the diagonal plus mutation in-rates minus outflow."""
    m = model.mu - np.diag(model.mu.sum(axis=1))
    return np.diag(model.r) + m


def mutation_symmetric(model: Model) -> bool:
    return _is_symmetric(model.mu)


def is_fitness_weighted(model: Model) -> bool:
    """Uniform linear interaction whose weights equal the growth rates."""
    inter = model.interaction
    return isinstance(inter, UniformLinear) and bool(
        np.allclose(inter.a, model.r, rtol=1e-12, atol=0.0)
    )


def coercivity_params(model: Model) -> CoercivityParams | None:
    """Coercivity radius and Lipschitz bounds kappa, or None when coercivity fails.

    The linear part obeys Psi_i(v) >= min C * sum_j v_j globally, which needs
    min C > 0; the tanh perturbation costs a bounded offset, absorbed by
    doubling the ball radius.
    """
    coeff = _linear_coefficients(model)
    c_min = float(np.min(coeff))
    if c_min <= 0.0:
        return None
    kappa = coeff.max(axis=1)
    r_ball = 1.0
    inter = model.interaction
    if isinstance(inter, Perturbed):
        off = inter.eps * np.abs(inter.amp)
        kappa = kappa + off * np.max(np.abs(inter.w), axis=1, initial=0.0)
        r_ball = max(1.0, float(np.max(2.0 * off / c_min, initial=0.0)))
    return CoercivityParams(r_ball=r_ball, kappa=kappa)


def _monotone(model: Model) -> tuple[bool, str]:
    """validate's h1_monotone flag and its detail: the one hypothesis that
    depends on a perturbed kind's eps, so a sweep checks it per row."""
    inter = model.interaction
    if not isinstance(inter, Perturbed):
        h1_mono = bool(np.all(_linear_coefficients(model) >= 0.0))
        return h1_mono, "linear coefficients nonnegative" if h1_mono else (
            "negative linear coefficient"
        )
    bound = inter.eps * float(
        np.max(np.abs(inter.amp) * np.max(np.abs(inter.w), axis=1), initial=0.0)
    )
    a_min = float(np.min(inter.base.a))
    h1_mono = bool(a_min > bound)
    return h1_mono, (
        f"min a = {a_min:g} dominates perturbation slope bound {bound:g}"
        if h1_mono
        else f"unverified: perturbation slope bound {bound:g} reaches min a = {a_min:g}"
    )


def validate(model: Model) -> HypothesisReport:
    """Check the standing hypotheses; pure and idempotent."""
    details: dict[str, str] = {}
    mu = model.mu

    h1_pos = bool(np.all(model.r > 0.0) and np.all(mu >= 0.0) and model.big_k > 0.0)
    details["h1_positivity"] = "r > 0, mu >= 0, K > 0" if h1_pos else "sign violation"

    h1_sym = mutation_symmetric(model)
    details["h1_symmetry"] = "mu symmetric" if h1_sym else "mu is not symmetric"

    h1_irr = is_irreducible(mu)
    details["h1_irreducible"] = (
        "mutation graph strongly connected" if h1_irr else "mutation graph disconnected"
    )

    h1_mono, details["h1_monotone"] = _monotone(model)

    coer = coercivity_params(model)
    h2 = coer is not None
    details["h2_coercive"] = (
        f"linear growth with radius {coer.r_ball:g}" if coer else "no positive lower coefficient"
    )

    out = mu.sum(axis=1)
    h3 = bool(np.all(out <= model.r / 2.0 + 1e-15))
    details["h3_half"] = "mutation outflow within r/2" if h3 else "mutation outflow exceeds r/2"

    sym_out = 0.5 * (mu + mu.T).sum(axis=1)
    h4 = bool(np.all(sym_out <= model.r / 3.0 + 1e-15))
    details["h4_third"] = (
        "symmetrized outflow within r/3" if h4 else "symmetrized outflow exceeds r/3"
    )

    return HypothesisReport(
        h1_positivity=h1_pos,
        h1_symmetry=h1_sym,
        h1_irreducible=h1_irr,
        h1_monotone=h1_mono,
        h2_coercive=h2,
        h3_half=h3,
        h4_third=h4,
        details=details,
    )
