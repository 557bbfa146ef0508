"""Relative-entropy and Lyapunov diagnostics along trajectories.

For a positive stationary state vbar, the weighted entropy
H(v) = sum_i vbar_i^2 Hker(v_i/vbar_i) obeys

    dH/dt = -D(v) + (1/K) sum_i vbar_i Hker'(v_i/vbar_i) Gamma_i v_i,

where Gamma_i = Psi_i(vbar) - Psi_i(v) and D couples genotype pairs through
the mutation rates. The identity holds for symmetric mutation; D is a true
dissipation (nonnegative) for convex kernels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricMutation,
    KernelMismatch,
    NonPositiveReference,
    NotStationaryReference,
    TooFewSamples,
    WrongInteractionKind,
    ZeroReference,
)
from .model import Model, UniformLinear, interaction_values, mutation_symmetric
from .dynamics import Trajectory
from .equilibrium import residual

_STATIONARY_TOL = 1e-8  # the reference's residual, relative to max(1, ||v_bar||_inf)


@dataclass(frozen=True)
class EntropyKernel:
    """Polynomial kernel s -> sum_k coeffs[k] s^k, evaluated by Horner (np.polyval)."""

    coeffs: np.ndarray

    @classmethod
    def linear(cls) -> "EntropyKernel":
        return cls(coeffs=np.array([0.0, 1.0]))

    @classmethod
    def quadratic(cls) -> "EntropyKernel":
        return cls(coeffs=np.array([0.0, 0.0, 1.0]))

    @classmethod
    def polynomial(cls, coeffs) -> "EntropyKernel":
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise KernelMismatch("polynomial kernels need a nonempty coefficient vector")
        if not np.all(np.isfinite(coeffs)):
            raise KernelMismatch("polynomial kernel coefficients must be finite")
        return cls(coeffs=coeffs.copy())

    def value(self, s):
        return np.polyval(self.coeffs[::-1], s)

    def deriv(self, s):
        return np.polyval(np.polyder(self.coeffs[::-1]), s)


@dataclass(frozen=True)
class EntropyReport:
    h_value: float
    d_value: float
    gamma_term: float
    analytic_dt: float


@dataclass(frozen=True)
class Decomposition:
    lambda_coef: float
    h: np.ndarray
    e_h: float
    beta: float
    f_value: float


def _check_reference(v_bar: np.ndarray) -> None:
    if np.any(v_bar <= 0.0):
        raise NonPositiveReference("reference state must be strictly positive")


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b along the last axis: a scalar for vectors, one value per row for stacks.

    (..., 1, n) @ (..., n, 1) is one dot product per row, the call a @ b
    takes for one pair of vectors, so rows match single calls bit for bit.
    """
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _pair_sum(weights: np.ndarray, s: np.ndarray, hs: np.ndarray, hp: np.ndarray):
    """sum_ij w_ij (hs_j - hs_i) + sum_ij w_ij hp_i (s_i - s_j) for each row of s.

    Row and column sums of w and one product s @ w.T take the place of the
    (..., n, n) array of pair terms. The sums see s and hs only through
    differences, so both are centred per row first: near the stationary ray
    the products then stay as small as the pair terms, not as large as s.
    """
    out_w = weights.sum(axis=1)
    in_w = weights.sum(axis=0)
    s = s - s.mean(axis=-1, keepdims=True)
    hs = hs - hs.mean(axis=-1, keepdims=True)
    return hs @ (in_w - out_w) + np.sum(hp * (s * out_w - s @ weights.T), axis=-1)


def entropy_value(v, v_bar, kernel: EntropyKernel) -> float:
    v = np.asarray(v, dtype=float)
    v_bar = np.asarray(v_bar, dtype=float)
    _check_reference(v_bar)
    return float(np.sum(v_bar**2 * kernel.value(v / v_bar)))


def dissipation(model: Model, v, v_bar, kernel: EntropyKernel) -> EntropyReport:
    """Entropy, dissipation, pressure term, and the analytic time derivative.

    v is one state (n,), which gives scalar fields, or a stack of states
    (T, n), which gives one value per state in each field. The reference
    is checked once: strictly positive, symmetric mutation, stationary
    (residual within _STATIONARY_TOL max(1, ||v_bar||_inf), the solver's scale).
    """
    v = np.asarray(v, dtype=float)
    v_bar = np.asarray(v_bar, dtype=float)
    _check_reference(v_bar)
    if not mutation_symmetric(model):
        raise AsymmetricMutation("the entropy identity needs symmetric mutation rates")
    if residual(model, v_bar) > _STATIONARY_TOL * max(1.0, float(np.max(v_bar))):
        raise NotStationaryReference("reference state is not stationary")

    s = v / v_bar
    hs = kernel.value(s)
    hp = kernel.deriv(s)
    d_value = _pair_sum(model.mu * np.outer(v_bar, v_bar), s, hs, hp)
    gamma = interaction_values(model, v_bar) - interaction_values(model, v)
    gamma_term = np.sum(v_bar * hp * gamma * v, axis=-1) / model.big_k
    h_value = np.sum(v_bar**2 * hs, axis=-1)
    return EntropyReport(
        h_value=h_value,
        d_value=d_value,
        gamma_term=gamma_term,
        analytic_dt=-d_value + gamma_term,
    )


def identity_residual(model: Model, trajectory: Trajectory, v_bar, kernel: EntropyKernel) -> float:
    """Worst normalized gap between measured and analytic entropy slopes."""
    times = trajectory.times
    if times.size < 100:
        raise TooFewSamples(f"need at least 100 recorded samples, got {times.size}")
    rep = dissipation(model, trajectory.states, v_bar, kernel)
    h_vals = rep.h_value
    # numpy's second-order three-point slope on an uneven grid, at the inner samples
    fd = np.gradient(h_vals, times)[1:-1]
    gaps = np.abs(fd - rep.analytic_dt[1:-1]) / np.maximum(1.0, np.abs(h_vals[1:-1]))
    # fmax skips NaN gaps, as a running max(worst, gap) does
    return float(np.fmax.reduce(gaps, initial=0.0))


def decompose(v, v_bar) -> Decomposition:
    """Split v into its component along vbar and the orthogonal remainder.

    v is one state (n,), which gives scalar fields, or a stack of states
    (T, n), which gives one value (one row of h) per state in each field.
    """
    v = np.asarray(v, dtype=float)
    v_bar = np.asarray(v_bar, dtype=float)
    denom = float(v_bar @ v_bar)
    if denom == 0.0:
        raise ZeroReference("reference state is zero")
    beta = _rowdot(v, v_bar)
    lam = beta / denom
    h = v - lam[..., None] * v_bar
    e_v = _rowdot(v, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_value = np.where((beta != 0.0) & (e_v > 0.0), np.log(e_v / beta**2), np.inf)
    f_value = f_value[()]  # a scalar, not a 0-d array, for one state
    return Decomposition(lambda_coef=lam, h=h, e_h=_rowdot(h, h), beta=beta, f_value=f_value)


def lyapunov_descent(model: Model, trajectory: Trajectory, v_bar):
    """F = log(E(v)/beta^2) at each sample with its analytic derivative.

    Valid for uniform interactions with symmetric mutation; the derivative
    is -(1/E(v)) sum_ij mu_ij vbar_i vbar_j (v_j/vbar_j - v_i/vbar_i)^2.
    """
    if not isinstance(model.interaction, UniformLinear):
        raise WrongInteractionKind("the descent identity needs a uniform interaction")
    if not mutation_symmetric(model):
        raise AsymmetricMutation("the descent identity needs symmetric mutation rates")
    v_bar = np.asarray(v_bar, dtype=float)
    _check_reference(v_bar)
    states = trajectory.states
    # sum_ij w_ij (s_j - s_i)^2 is the quadratic kernel's pair sum; a shift
    # of s leaves it unchanged, and on centred rows H'(s) = 2s is as small
    # as the differences near the stationary ray
    s = states / v_bar
    s -= s.mean(axis=-1, keepdims=True)
    pairs = _pair_sum(model.mu * np.outer(v_bar, v_bar), s, s * s, 2.0 * s)
    e_v = _rowdot(states, states)
    with np.errstate(divide="ignore", invalid="ignore"):
        df_values = np.where(e_v > 0, -pairs / e_v, 0.0)
    return decompose(states, v_bar).f_value, df_values


def log_energy_slopes(trajectory: Trajectory, v_bar):
    """Centered slopes of log(E(h)/beta^2) at interior sample times.

    Uses plain two-point central differences so each slope is a mean-value
    of the true derivative over the bracketing window.
    """
    times = trajectory.times
    dec = decompose(trajectory.states, v_bar)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where((dec.e_h > 0.0) & (dec.beta != 0.0), np.log(dec.e_h / dec.beta**2), -np.inf)
    interior = slice(1, times.size - 1)
    slopes = (vals[2:] - vals[:-2]) / (times[2:] - times[:-2])
    return times[interior], slopes
