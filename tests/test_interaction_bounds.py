"""Per-kind pressure bounds, pinned to literal values on every interaction kind.

The a-priori box, the coercivity parameters, the monotonicity verdict and
the theorem scope all read the linear coefficients of Psi; the expected
values below are exact, so any change to how they are derived shows.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvmut import equilibrium, linalg
from lvmut.analysis import _theorem_scope
from lvmut.equilibrium import _apriori_box
from lvmut.model import (
    _linear_coefficients,
    build_model,
    coercivity_params,
    crowding_linear,
    interaction_gradient,
    perturbed,
    point_mutation_matrix,
    uniform_linear,
    validate,
)
from lvmut.presets import get_preset


def _zero_alpha():
    return build_model(
        2, [1.0, 1.5], 10.0, [[0.0, 0.1], [0.1, 0.0]], crowding_linear(np.zeros((2, 2)))
    )


def _self_crowding_rung8():
    r = np.random.default_rng(8).uniform(0.5, 2.0, size=8)
    alpha = 0.8 * np.ones((8, 8)) + 0.2 * np.eye(8)
    return build_model(8, r, 10.0, point_mutation_matrix(3, 0.01), crowding_linear(alpha))


def _non_monotone_perturbed():
    base = uniform_linear([1.0, 1.0])
    big = perturbed(base, 10.0, [1.0, -0.7], [[0.2, -0.1], [0.15, 0.25]])
    return build_model(2, [1.0, 1.0], 10.0, [[0.0, 0.1], [0.1, 0.0]], big)


_MODELS = {
    "zero_alpha": _zero_alpha,
    "rung8": _self_crowding_rung8,
    "non_monotone": _non_monotone_perturbed,
}


def _model(name):
    return _MODELS[name]() if name in _MODELS else get_preset(name).model


_LINEAR_OK = "linear coefficients nonnegative"
_RUNG8_KAPPA = [
    1.5847322120055107, 1.9809152650068884, 1.5847322120055107, 1.6828234037300434,
    1.8048447675443242, 1.5847322120055107, 1.5847322120055107, 1.5847322120055107,
]

# name: (box, fallback, coercivity (r_ball, kappa) or None, h1_monotone detail, in scope)
_EXPECTED = {
    "sym2": ((4.0, 20.0), False, (1.0, [1.0, 1.0]), _LINEAR_OK, True),
    "fit2asym": (
        (0.2225245121601804, 3.8198039027185566), False, (1.0, [2.0, 2.0]), _LINEAR_OK, True,
    ),
    "mut4": ((38.720000000000006, 200.0), False, (1.0, [1.0] * 4), _LINEAR_OK, True),
    "pert2": (
        (3.9995, 20.002), False, (1.0, [1.0002, 1.000175]),
        "min a = 1 dominates perturbation slope bound 0.0002", True,
    ),
    "crowd3": (
        (15.051809703395941, 233.52913343133287), False, (1.0, [1.0, 1.2, 0.96]),
        _LINEAR_OK, False,
    ),
    "zero_alpha": ((9.999999999999999e-06, 10000.0), True, None, _LINEAR_OK, True),
    "rung8": (
        (2.378726198286523, 49.88776232970802), False, (1.0, _RUNG8_KAPPA), _LINEAR_OK, False,
    ),
    "non_monotone": (
        (9.999999999999999e-06, 10000.0), True, (20.0, [3.0, 2.75]),
        "unverified: perturbation slope bound 2 reaches min a = 1", False,
    ),
}


@pytest.mark.parametrize("name", sorted(_EXPECTED))
def test_apriori_box(name, recwarn):
    box, fallback, *_ = _EXPECTED[name]
    assert _apriori_box(_model(name)) == box
    messages = [str(w.message) for w in recwarn]
    assert messages == (
        ["no computable population bounds; using the wide fallback box"] if fallback else []
    )


@pytest.mark.parametrize("name", ["crowd3", "rung8"])
def test_apriori_box_is_the_box_the_solver_enforces(name):
    # _apriori_box(model) computes R+M's extremes itself; the solver's set-up
    # takes them from its own factorization of R+M, in an emptied memo
    model = _model(name)
    box = _apriori_box(model)
    linalg._EIGH_MEMO.clear()
    system = equilibrium._system(model, equilibrium._linear_setup(model, validate(model)))
    assert box == (system.box_lo, system.box_hi)


@pytest.mark.parametrize("name", sorted(_EXPECTED))
def test_coercivity_params(name):
    expected = _EXPECTED[name][2]
    params = coercivity_params(_model(name))
    if expected is None:
        assert params is None
        return
    r_ball, kappa = expected
    assert params.r_ball == r_ball
    assert params.kappa.dtype == np.float64
    assert params.kappa.tolist() == kappa


@pytest.mark.parametrize("name", sorted(_EXPECTED))
def test_monotone_verdict_and_theorem_scope(name):
    *_, detail, in_scope = _EXPECTED[name]
    model = _model(name)
    report = validate(model)
    assert report.details["h1_monotone"] == detail
    assert report.h1_monotone is (name != "non_monotone")
    assert _theorem_scope(model) is in_scope


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["sym2", "fit2asym", "mut4", "crowd3", "zero_alpha", "rung8"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_linear_gradient_is_the_constant_coefficients(name, seed):
    model = _model(name)
    v = np.random.default_rng(seed).uniform(0.0, 2.0 * model.big_k, size=model.n)
    grad = interaction_gradient(model, v)
    assert grad.tobytes() == _linear_coefficients(model).tobytes()
