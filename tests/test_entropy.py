"""Entropy kernels, the dissipation identity, and the descent functional."""
import math

import numpy as np
import pytest

from lvmut.dynamics import integrate
from lvmut.entropy import (
    EntropyKernel,
    decompose,
    dissipation,
    entropy_value,
    identity_residual,
    log_energy_slopes,
    lyapunov_descent,
)
from lvmut.equilibrium import equilibrium_uniform, residual
from lvmut.errors import (
    AsymmetricMutation,
    KernelMismatch,
    NonPositiveReference,
    NotStationaryReference,
    TooFewSamples,
    ZeroReference,
)
from lvmut.model import build_model, uniform_linear
from lvmut.presets import get_preset


def test_kernel_values_match_explicit_powers():
    s = np.array([0.25, 1.0, 1.7, 3.0])
    lin = EntropyKernel.linear()
    quad = EntropyKernel.quadratic()
    poly = EntropyKernel.polynomial([1.0, 2.0, 3.0])
    assert np.allclose(lin.value(s), s)
    assert np.allclose(lin.deriv(s), np.ones_like(s))
    assert np.allclose(quad.value(s), s**2)
    assert np.allclose(quad.deriv(s), 2 * s)
    assert np.allclose(poly.value(s), 1 + 2 * s + 3 * s**2)
    assert np.allclose(poly.deriv(s), 2 + 6 * s)
    assert float(quad.value(1.5)) == pytest.approx(2.25)


def _horner(coeffs, s):
    out = np.zeros_like(s)
    for c in coeffs[::-1]:
        out = out * s + c
    return out


@pytest.mark.parametrize("seed", range(5))
def test_kernel_matches_horner_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(scale=3.0, size=(50, 4))
    s[0] = [0.0, -0.0, np.inf, np.nan]
    for size in range(1, 7):
        coeffs = rng.normal(size=size)
        kernel = EntropyKernel.polynomial(coeffs)
        slopes = np.arange(1, size) * coeffs[1:]
        with np.errstate(invalid="ignore"):
            assert kernel.value(s).tobytes() == _horner(coeffs, s).tobytes()
            assert kernel.deriv(s).tobytes() == _horner(slopes, s).tobytes()


def test_kernel_rejects_bad_coefficients():
    with pytest.raises(KernelMismatch):
        EntropyKernel.polynomial([])
    with pytest.raises(KernelMismatch):
        EntropyKernel.polynomial([[1.0, 2.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(KernelMismatch, match="must be finite"):
            EntropyKernel.polynomial([1.0, bad])


def test_entropy_value_oracle():
    # quadratic kernel collapses to sum v_i^2
    v_bar = np.array([5.0, 5.0])
    assert entropy_value([6.0, 4.0], v_bar, EntropyKernel.quadratic()) == pytest.approx(52.0)
    assert entropy_value(v_bar, v_bar, EntropyKernel.quadratic()) == pytest.approx(50.0)
    with pytest.raises(NonPositiveReference):
        entropy_value([1.0, 1.0], [0.0, 5.0], EntropyKernel.quadratic())


def test_decompose_oracle():
    v_bar = np.array([5.0, 5.0])
    dec = decompose([6.0, 4.0], v_bar)
    assert dec.lambda_coef == pytest.approx(1.0)
    assert np.allclose(dec.h, [1.0, -1.0])
    assert dec.e_h == pytest.approx(2.0)
    assert dec.beta == pytest.approx(50.0)
    assert dec.f_value == pytest.approx(math.log(52.0 / 2500.0))
    scaled = decompose(3.0 * v_bar, v_bar)
    assert scaled.lambda_coef == pytest.approx(3.0)
    assert np.max(np.abs(scaled.h)) == 0.0


def test_decompose_reconstructs_and_is_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        v_bar = rng.uniform(0.5, 4.0, size=n)
        v = rng.uniform(0.0, 10.0, size=n)
        dec = decompose(v, v_bar)
        assert np.max(np.abs(dec.lambda_coef * v_bar + dec.h - v)) < 1e-12 * max(
            1.0, float(np.max(np.abs(v)))
        )
        assert abs(float(dec.h @ v_bar)) < 1e-10


def test_dissipation_vanishes_at_reference():
    model = get_preset("sym2").model
    v_bar = np.array([5.0, 5.0])
    rep = dissipation(model, v_bar, v_bar, EntropyKernel.quadratic())
    assert rep.d_value == pytest.approx(0.0, abs=1e-14)
    assert rep.gamma_term == pytest.approx(0.0, abs=1e-14)
    assert rep.analytic_dt == pytest.approx(0.0, abs=1e-14)
    assert rep.h_value == pytest.approx(50.0)


def test_linear_kernel_has_no_dissipation():
    model = get_preset("sym2").model
    v_bar = np.array([5.0, 5.0])
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = rng.uniform(0.01, 12.0, size=2)
        rep = dissipation(model, v, v_bar, EntropyKernel.linear())
        assert abs(rep.d_value) < 1e-12


def test_quadratic_dissipation_hand_value():
    # w_ij = mu_ij vbar_i vbar_j = 2.5 on each off-diagonal entry,
    # s = (1.2, 0.8), so D = 2 * 2.5 * 0.4^2 = 0.8
    model = get_preset("sym2").model
    v_bar = np.array([5.0, 5.0])
    rep = dissipation(model, [6.0, 4.0], v_bar, EntropyKernel.quadratic())
    assert rep.d_value == pytest.approx(0.8, abs=1e-13)
    assert rep.analytic_dt == pytest.approx(-rep.d_value + rep.gamma_term)


def test_quadratic_dissipation_matches_pair_sum():
    model = get_preset("mut4").model
    v_bar = equilibrium_uniform(model).v_bar
    rng = np.random.default_rng(17)
    for _ in range(200):
        v = rng.uniform(0.01, 2.0 * model.big_k, size=4)
        rep = dissipation(model, v, v_bar, EntropyKernel.quadratic())
        s = v / v_bar
        w = model.mu * np.outer(v_bar, v_bar)
        hand = float(np.sum(w * (s[:, None] - s[None, :]) ** 2))
        assert rep.d_value == pytest.approx(hand, rel=1e-12, abs=1e-12)
        assert rep.d_value >= -1e-12


def test_dissipation_gates():
    asym = build_model(
        2, [1.0, 1.0], 10.0, [[0.0, 0.1], [0.2, 0.0]], uniform_linear([1.0, 1.0])
    )
    with pytest.raises(AsymmetricMutation):
        dissipation(asym, [5.0, 5.0], [5.0, 5.0], EntropyKernel.quadratic())
    sym2 = get_preset("sym2").model
    with pytest.raises(NotStationaryReference):
        dissipation(sym2, [5.0, 5.0], [6.0, 4.0], EntropyKernel.quadratic())


@pytest.mark.parametrize("big_k", [1.0, 10.0])
def test_stationarity_gate_boundary(big_k):
    # v_bar = (K/2, K/2) is exact; both entries moved by d leave the residual
    # d (1 + 2 d / K). The gate is 1e-8 max(1, ||v_bar||_inf): 1e-8 at K = 1,
    # where the floor 1 decides, and 5e-8 at K = 10, where ||v_bar||_inf does.
    # A reference at half the gate passes, one at 1.5 times it does not.
    model = build_model(2, [1.0, 1.0], big_k, [[0.0, 0.1], [0.1, 0.0]],
                        uniform_linear([1.0, 1.0]))
    gate = 1e-8 * max(1.0, big_k / 2.0)
    inside, outside = (np.full(2, big_k / 2.0) + ratio * gate for ratio in (0.5, 1.5))
    assert residual(model, inside) == pytest.approx(0.5 * gate, rel=1e-6)
    assert residual(model, outside) == pytest.approx(1.5 * gate, rel=1e-6)
    rep = dissipation(model, inside, inside, EntropyKernel.quadratic())
    assert rep.d_value == 0.0
    with pytest.raises(NotStationaryReference):
        dissipation(model, outside, outside, EntropyKernel.quadratic())


def test_identity_residual_constant_trajectory():
    model = get_preset("sym2").model
    v_bar = np.array([5.0, 5.0])
    traj = integrate(model, v_bar, 5.0, record_every=0.05, rtol=1e-11, atol=1e-13)
    res = identity_residual(model, traj, v_bar, EntropyKernel.quadratic())
    assert res <= 1e-10


def test_identity_residual_small_on_transient():
    model = get_preset("sym2").model
    v_bar = np.array([5.0, 5.0])
    traj = integrate(
        model, np.array([8.0, 2.0]), 20.0, record_every=0.02, rtol=1e-11, atol=1e-13
    )
    for kernel in (EntropyKernel.linear(), EntropyKernel.quadratic()):
        assert identity_residual(model, traj, v_bar, kernel) <= 1e-4


def test_identity_residual_needs_samples():
    model = get_preset("sym2").model
    traj = integrate(model, np.array([8.0, 2.0]), 5.0, record_every=0.5)
    with pytest.raises(TooFewSamples):
        identity_residual(model, traj, np.array([5.0, 5.0]), EntropyKernel.quadratic())


def test_descent_functional_monotone():
    preset = get_preset("sym2")
    v_bar = np.array([5.0, 5.0])
    traj = integrate(preset.model, preset.v0, 40.0, record_every=0.1, rtol=1e-10, atol=1e-12)
    f_vals, df_vals = lyapunov_descent(preset.model, traj, v_bar)
    upticks = np.diff(f_vals)
    assert float(np.max(upticks)) <= 1e-9
    # strictly negative analytic slope away from the stationary ray
    assert float(np.max(df_vals[:50])) < 0.0
    at_ref = integrate(preset.model, v_bar, 1.0, record_every=0.5)
    f_ref, df_ref = lyapunov_descent(preset.model, at_ref, v_bar)
    assert np.max(np.abs(df_ref)) < 1e-12
    assert np.max(np.abs(f_ref - math.log(50.0 / 2500.0))) < 1e-10


def test_descent_floor_unit_capacity():
    # with K = 1 the terminal value log(1/max vbar_i) really is a floor
    preset = get_preset("fit2asym")
    eq = equilibrium_uniform(preset.model)
    traj = integrate(preset.model, preset.v0, 40.0, record_every=0.1)
    f_vals, _ = lyapunov_descent(preset.model, traj, eq.v_bar)
    floor = math.log(1.0 / float(np.max(eq.v_bar)))
    assert float(np.min(f_vals)) >= floor - 1e-9


def test_log_energy_slopes_constant_rate():
    preset = get_preset("sym2")
    traj = integrate(
        preset.model, preset.v0, 30.0, record_every=0.1, rtol=1e-11, atol=1e-13
    )
    times, slopes = log_energy_slopes(traj, np.array([5.0, 5.0]))
    assert times.size == traj.times.size - 2
    assert times[0] > traj.times[0]
    assert np.max(np.abs(slopes + 0.4)) < 1e-3


@pytest.mark.parametrize("call, error", [
    (lambda: decompose([1.0, 2.0], [0.0, 0.0]), ZeroReference),
    (lambda: lyapunov_descent(
        build_model(2, [1.0, 1.5], 10.0, [[0.0, 0.1], [0.2, 0.0]], uniform_linear([1.0, 1.0])),
        integrate(get_preset("sym2").model, [8.0, 2.0], 1.0), [5.0, 5.0]),
     AsymmetricMutation),
], ids=["decompose-zero-reference", "descent-asymmetric-mu"])
def test_diagnostics_reject_input_outside_their_identities(call, error):
    with pytest.raises(error):
        call()
