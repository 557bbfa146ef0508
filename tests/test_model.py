"""Model construction, interaction families, hypothesis checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvmut.errors import DimensionMismatch, NegativeMutation, NonPositiveRate
from lvmut.model import (
    build_model,
    coercivity_params,
    crowding_linear,
    growth_mutation_matrix,
    interaction_gradient,
    interaction_values,
    is_fitness_weighted,
    mutation_symmetric,
    offdiagonal_mutation,
    perturbed,
    point_mutation_matrix,
    rhs,
    uniform_linear,
    validate,
)
from lvmut.presets import get_preset


def _sym2_model():
    return get_preset("sym2").model


def test_point_mutation_matrix_structure():
    mu = 0.01
    m = point_mutation_matrix(2, mu)
    assert m.shape == (4, 4)
    assert np.all(np.diag(m) == 0.0)
    # genotypes 00,01,10,11: Hamming-1 neighbors get mu(1-mu), Hamming-2 get mu^2
    assert m[0, 1] == pytest.approx(mu * (1 - mu), abs=1e-18)
    assert m[0, 2] == pytest.approx(mu * (1 - mu), abs=1e-18)
    assert m[0, 3] == pytest.approx(mu * mu, abs=1e-18)
    assert np.allclose(m, m.T)



@pytest.mark.parametrize("loci", range(1, 8))
def test_point_mutation_matrix_matches_the_loop_formula(loci):
    rate = 0.013
    size = 2 ** loci
    full = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            d = bin(i ^ j).count("1")
            full[i, j] = rate ** d * (1.0 - rate) ** (loci - d)
    full -= np.eye(size)
    np.testing.assert_array_equal(point_mutation_matrix(loci, rate), offdiagonal_mutation(full))

def test_full_matrix_conversion_requires_zero_row_sums():
    mu = 0.01
    m = point_mutation_matrix(2, mu)
    full = m - np.diag(np.sum(m, axis=1))
    # each full row sums to 0; the diagonal equals (1-mu)^2 - 1
    assert np.max(np.abs(np.sum(full, axis=1))) < 1e-15
    assert full[0, 0] == pytest.approx((1 - mu) ** 2 - 1, abs=1e-15)
    back = offdiagonal_mutation(full)
    assert np.allclose(back, m)
    bad = full.copy()
    bad[0, 0] += 0.01
    with pytest.raises(NegativeMutation):
        offdiagonal_mutation(bad)


def test_build_model_validation_errors():
    with pytest.raises(DimensionMismatch):
        build_model(2, [1.0], 1.0, np.zeros((2, 2)), uniform_linear([1.0, 1.0]))
    with pytest.raises(NonPositiveRate):
        build_model(2, [1.0, -1.0], 1.0, np.zeros((2, 2)),
                    uniform_linear([1.0, 1.0]))
    with pytest.raises(NonPositiveRate):
        build_model(2, [1.0, 1.0], 0.0, np.zeros((2, 2)),
                    uniform_linear([1.0, 1.0]))
    with pytest.raises(NegativeMutation):
        build_model(2, [1.0, 1.0], 1.0, [[0.0, -0.1], [0.1, 0.0]],
                    uniform_linear([1.0, 1.0]))


_BASE = uniform_linear([1.0, 1.0])


@pytest.mark.parametrize(
    "build, error, field",
    [
        (lambda: uniform_linear([np.nan, 1.0]), NonPositiveRate, "a"),
        (lambda: uniform_linear([np.inf, 1.0]), NonPositiveRate, "a"),
        (lambda: crowding_linear([[1.0, np.nan], [0.0, 1.0]]), NegativeMutation, "alpha"),
        (lambda: perturbed(_BASE, np.nan, [1.0, 1.0], np.eye(2)), NonPositiveRate, "eps"),
        (lambda: perturbed(_BASE, 0.1, [np.inf, 1.0], np.eye(2)), NonPositiveRate, "amp"),
        (lambda: perturbed(_BASE, 0.1, [1.0, 1.0], [[np.nan, 0.0], [0.0, 1.0]]),
         NonPositiveRate, "w"),
    ],
)
def test_interaction_constructors_reject_non_finite(build, error, field):
    with pytest.raises(error, match=rf"\b{field}\b.*finite"):
        build()


def test_rhs_hand_computed():
    model = _sym2_model()
    v = np.array([6.0, 2.0])
    # psi_i = v1 + v2 = 8; growth v_i (1 - 8/10); exchange 0.1 (v_j - v_i)
    expected = np.array([
        6.0 * (1 - 0.8) + 0.1 * (2.0 - 6.0),
        2.0 * (1 - 0.8) + 0.1 * (6.0 - 2.0),
    ])
    assert np.max(np.abs(rhs(model, v) - expected)) < 1e-14


def _hypercube16(kind: str = "uniform"):
    rng = np.random.default_rng(5)
    r = rng.uniform(0.8, 1.2, size=16)
    if kind == "crowding":
        # the ladder's self-crowding alpha = 0.8 J + 0.2 I
        interaction = crowding_linear(0.8 * np.ones((16, 16)) + 0.2 * np.eye(16))
    elif kind == "perturbed":
        # w this small keeps tanh off saturation for states up to 2 K
        interaction = perturbed(uniform_linear(r), 0.05, rng.uniform(-1.0, 1.0, 16),
                                0.02 * rng.normal(size=(16, 16)))
    else:
        interaction = uniform_linear(r)
    return build_model(16, r, 10.0, point_mutation_matrix(4, 0.02), interaction)


_HYPERCUBE16_KINDS = {"hypercube16": "uniform", "crowding16": "crowding",
                      "perturbed16": "perturbed"}


@pytest.mark.parametrize("name", ["sym2", "fit2asym", "mut4", "pert2", "crowd3", "hypercube16",
                                  "crowding16", "perturbed16"])
def test_stacked_states_match_row_by_row(name):
    if name in _HYPERCUBE16_KINDS:
        model = _hypercube16(_HYPERCUBE16_KINDS[name])
    else:
        model = get_preset(name).model
    rng = np.random.default_rng(31)
    states = rng.uniform(0.0, 2.0 * model.big_k, size=(2, 9, model.n))
    rows = states.reshape(-1, model.n)
    for fn in (rhs, interaction_values):
        by_row = np.array([fn(model, v) for v in rows])
        assert np.array_equal(fn(model, rows), by_row)
        assert np.array_equal(fn(model, states), by_row.reshape(states.shape))
    # a stack as tall as the state is long is no matrix-vector product in disguise
    square = rows[: model.n]
    assert np.array_equal(rhs(model, square), np.array([rhs(model, v) for v in square]))


def test_growth_mutation_matrix():
    model = _sym2_model()
    a = growth_mutation_matrix(model)
    assert np.allclose(a, [[0.9, 0.1], [0.1, 0.9]])


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=2))
def test_mass_cancellation_symmetric_mu(vals):
    model = _sym2_model()
    v = np.array(vals)
    psi = interaction_values(model, v)
    total_growth = float(np.sum(v * (model.r - psi / model.big_k)))
    assert float(np.sum(rhs(model, v))) == pytest.approx(total_growth, abs=1e-10)


def test_crowding_unit_index_reduces_to_fitness_weighting():
    model = build_model(
        2, [1.0, 2.0], 1.0, [[0.0, 0.1], [0.1, 0.0]],
        crowding_linear(np.ones((2, 2))),
    )
    vals = interaction_values(model, np.array([1.0, 1.0]))
    assert np.allclose(vals, [3.0, 3.0])


def test_uniform_values_broadcast():
    model = _sym2_model()
    v = np.array([3.0, 4.0])
    vals = interaction_values(model, v)
    assert vals[0] == vals[1] == pytest.approx(7.0)


def test_perturbed_eps_zero_equals_base():
    base = uniform_linear([1.0, 1.0])
    inter = perturbed(base, 0.0, [1.0, -0.7], [[0.2, -0.1], [0.15, 0.25]])
    model = build_model(2, [1.0, 1.0], 10.0, [[0.0, 0.1], [0.1, 0.0]], inter)
    plain = _sym2_model()
    for v in (np.array([1.0, 2.0]), np.array([8.0, 2.0])):
        assert np.allclose(
            interaction_values(model, v), interaction_values(plain, v)
        )


@pytest.mark.parametrize("preset_name", ["sym2", "fit2asym", "mut4", "pert2", "crowd3"])
def test_gradient_matches_finite_differences(preset_name):
    model = get_preset(preset_name).model
    rng = np.random.default_rng(42)
    for _ in range(5):
        v = rng.uniform(0.0, 2.0 * model.big_k, size=model.n)
        grad = interaction_gradient(model, v)
        h = 1e-6 * max(1.0, float(np.max(np.abs(v))))
        for j in range(model.n):
            e = np.zeros(model.n)
            e[j] = h
            fd = (interaction_values(model, v + e) - interaction_values(model, v - e)) / (2 * h)
            denom = np.maximum(1.0, np.abs(fd))
            assert np.max(np.abs(grad[:, j] - fd) / denom) < 1e-6


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["sym2", "fit2asym", "mut4", "pert2", "crowd3"]),
    st.integers(min_value=0, max_value=2**31),
)
def test_interaction_monotone_on_ordered_pairs(preset_name, seed):
    model = get_preset(preset_name).model
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 2.0 * model.big_k, size=model.n)
    w = v + rng.uniform(0.0, model.big_k, size=model.n)
    assert np.all(
        interaction_values(model, v) <= interaction_values(model, w) + 1e-12
    )


def test_fitness_weighting_detection():
    assert is_fitness_weighted(_sym2_model())
    other = build_model(
        2, [1.0, 2.0], 1.0, [[0.0, 0.1], [0.1, 0.0]], uniform_linear([1.0, 1.0])
    )
    assert not is_fitness_weighted(other)


def test_mutation_symmetry_detection():
    assert mutation_symmetric(_sym2_model())
    skew = build_model(
        2, [1.0, 1.0], 1.0, [[0.0, 0.1], [0.05, 0.0]], uniform_linear([1.0, 1.0])
    )
    assert not mutation_symmetric(skew)


def test_coercivity_params_uniform():
    params = coercivity_params(_sym2_model())
    assert np.allclose(params.kappa, 1.0)


def test_validate_presets_pass_core_hypotheses():
    for name in ("sym2", "fit2asym", "mut4", "pert2", "crowd3"):
        rep = validate(get_preset(name).model)
        assert rep.h1_positivity and rep.h1_symmetry and rep.h1_irreducible
        assert rep.h1_monotone and rep.h2_coercive and rep.h3_half


def test_validate_idempotent():
    model = _sym2_model()
    assert validate(model) == validate(model)


def test_validate_flags_heavy_mutation():
    # outflow 0.6 exceeds r/2 = 0.5
    model = build_model(
        2, [1.0, 1.0], 1.0, [[0.0, 0.6], [0.6, 0.0]], uniform_linear([1.0, 1.0])
    )
    rep = validate(model)
    assert not rep.h3_half


def test_validate_flags_non_monotone_perturbation():
    base = uniform_linear([1.0, 1.0])
    big = perturbed(base, 10.0, [1.0, -0.7], [[0.2, -0.1], [0.15, 0.25]])
    model = build_model(2, [1.0, 1.0], 10.0, [[0.0, 0.1], [0.1, 0.0]], big)
    assert not validate(model).h1_monotone


def test_model_arrays_are_immutable():
    model = _sym2_model()
    with pytest.raises(ValueError):
        model.r[0] = 5.0
    with pytest.raises(ValueError):
        model.mu[0, 1] = 5.0


def test_mut4_preset_uses_point_rate_006():
    model = get_preset("mut4").model
    expected = point_mutation_matrix(2, 0.06)
    assert np.allclose(model.mu, expected)
