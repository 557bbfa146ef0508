"""Equilibrium solvers against closed-form oracles and cross-checks."""
import gc
import hashlib
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvmut as lv
from lvmut import equilibrium
from lvmut import model as model_module
from lvmut.analysis import perturbation_sweep
from lvmut.equilibrium import (
    HomotopyConfig,
    Method,
    equilibrium_auto,
    equilibrium_homotopy,
    equilibrium_uniform,
    residual,
)
from lvmut.errors import (
    Hypothesis3Violated,
    InnerNoConvergence,
    LeftAprioriBox,
    LvmutError,
    NotIrreducible,
    SingularMatrix,
    WrongInteractionKind,
)
from lvmut import linalg
from lvmut.linalg import _guarded_solve, perron_eigenpair, require_nonsingular
from lvmut.model import (
    CrowdingLinear,
    _linear_coefficients,
    build_model,
    crowding_linear,
    growth_mutation_matrix,
    interaction_values,
    perturbed,
    point_mutation_matrix,
    rhs,
    uniform_linear,
    validate,
)
from lvmut.presets import get_preset, preset_names


def _fit2asym_oracle():
    # A = [[0.9, 0.1], [0.1, 1.9]]; dominant root of its characteristic
    # polynomial and the matching eigenvector direction (1, rho)
    lam = (2.8 + math.sqrt(1.04)) / 2.0
    rho = (lam - 0.9) / 0.1
    v_bar = np.array([1.0, rho]) / (1.0 + rho)
    return lam, v_bar


def test_fit2asym_closed_form():
    preset = get_preset("fit2asym")
    lam, v_oracle = _fit2asym_oracle()
    eq = equilibrium_uniform(preset.model)
    assert eq.lambda_p == pytest.approx(lam, abs=1e-12)
    assert eq.alpha_bar == pytest.approx(lam, abs=1e-12)  # K = 1
    assert np.max(np.abs(eq.v_bar - v_oracle)) < 1e-12
    assert eq.residual <= 1e-12
    assert float(np.sum(eq.v_bar)) == pytest.approx(1.0, abs=1e-12)
    assert eq.method is Method.PerronScaling


@pytest.mark.parametrize("name", ["sym2", "fit2asym", "mut4"])
def test_perron_scaling_residual_is_the_field_at_v_bar(name):
    # scored from the solve's own R+M, in the field's expression
    model = get_preset(name).model
    eq = equilibrium_uniform(model)
    assert eq.residual == residual(model, eq.v_bar)


def test_sym2_and_mut4_equilibria():
    eq2 = equilibrium_uniform(get_preset("sym2").model)
    assert np.max(np.abs(eq2.v_bar - 5.0)) < 1e-10
    assert eq2.lambda_p == pytest.approx(1.0, abs=1e-12)
    assert eq2.alpha_bar == pytest.approx(10.0, abs=1e-10)
    eq4 = equilibrium_uniform(get_preset("mut4").model)
    assert np.max(np.abs(eq4.v_bar - 25.0)) < 1e-9
    assert eq4.alpha_bar == pytest.approx(100.0, abs=1e-8)


def test_residual_definition():
    model = get_preset("sym2").model
    assert residual(model, np.zeros(2)) == 0.0
    assert residual(model, np.array([5.0, 5.0])) <= 1e-14
    assert residual(model, np.array([6.0, 4.0])) > 1e-3


def test_every_preset_equilibrium_is_positive():
    for name in preset_names():
        model = get_preset(name).model
        eq = equilibrium_homotopy(model)
        assert float(np.min(eq.v_bar)) > 0.0
        assert eq.residual <= 1e-10


def _spy_on_solves(monkeypatch) -> list:
    """Record the matrix of every np.linalg.solve call."""
    matrices = []
    solve = np.linalg.solve

    def spy(mat, b):
        matrices.append(np.array(mat))
        return solve(mat, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return matrices


def test_homotopy_agrees_with_eigenvector_scaling(monkeypatch):
    # every stage of a uniform kind stops at its start, one solve each
    solves = _spy_on_solves(monkeypatch)
    for name in ("sym2", "fit2asym", "mut4"):
        model = get_preset(name).model
        direct = equilibrium_uniform(model)
        solves.clear()
        cont = equilibrium_homotopy(model)
        assert cont.v_bar.tobytes() == direct.v_bar.tobytes()
        assert len(solves) == HomotopyConfig.s_steps
        assert cont.method is Method.Homotopy
        assert cont.alpha_bar is None


def test_homotopy_path_shape():
    eq = equilibrium_homotopy(get_preset("crowd3").model)
    s_vals = [s for s, _, _ in eq.homotopy_path]
    assert s_vals[0] == 0.0
    assert s_vals[-1] == 1.0
    assert all(b > a for a, b in zip(s_vals, s_vals[1:]))
    assert len(s_vals) == HomotopyConfig().s_steps
    for _, v, _ in eq.homotopy_path:
        assert np.all(v > 0)
    assert eq.homotopy_path[-1][2] <= 1e-10


def _perturbed_models() -> dict:
    """pert2, and criterion 12's four perturbations of sym2 by pert2's bump."""
    sym = get_preset("sym2").model
    inter = get_preset("pert2").model.interaction
    models = {"pert2": get_preset("pert2").model}
    for eps in (1e-4, 4e-4, 1.6e-3, 6.4e-3):
        models[f"sym2-eps{eps:g}"] = build_model(
            sym.n, sym.r, sym.big_k, sym.mu, perturbed(uniform_linear(sym.r), eps, inter.amp, inter.w)
        )
    return models


@pytest.mark.parametrize("name", list(_perturbed_models()))
def test_perturbed_equilibrium_is_continued_from_its_base(monkeypatch, name):
    # one s = 1 Newton run from the base's Perron equilibrium; the 21-stage
    # homotopy takes 63 solves on each of these models
    model = _perturbed_models()[name]
    solves = _spy_on_solves(monkeypatch)
    eq = equilibrium_auto(model)
    assert len(solves) <= 5
    assert eq.method is Method.Continuation
    assert eq.homotopy_path == []
    assert eq.alpha_bar is None
    ref = equilibrium_homotopy(model)
    assert eq.lambda_p == ref.lambda_p
    assert np.max(np.abs(eq.v_bar - ref.v_bar)) <= 1e-13 * np.max(ref.v_bar)
    assert eq.residual == residual(model, eq.v_bar) <= 1e-13 * np.max(eq.v_bar)


def _relaxed(model):
    """_pseudo_transient's v_bar and residual on model from _anchor's point,
    with the solve's _System built as _continue builds it."""
    a = equilibrium._linear_setup(model)
    anchor = equilibrium._anchor(model, a)[1]
    return equilibrium._pseudo_transient(model, equilibrium._system(model, a), anchor)


@pytest.mark.parametrize(
    "exc", [LeftAprioriBox(1.0), InnerNoConvergence(1.0), SingularMatrix("singular")]
)
def test_failed_continuation_falls_back_to_the_homotopy(monkeypatch, exc):
    # (named when the homotopy was the fallback) pert2's s = 1 Newton run
    # raises exc and Psi-tc solves it from the same start; crowd3's Psi-tc
    # run raises exc, and no second run follows
    pert2, crowd3 = get_preset("pert2").model, get_preset("crowd3").model
    v_ref, res_ref = _relaxed(pert2)
    relax = equilibrium._pseudo_transient
    runs = []

    def failing_newton(model, system, s, v):
        runs.append("newton")
        raise exc

    def relaxation(model, system, v):
        runs.append("psi-tc")
        if model is crowd3:
            raise exc
        return relax(model, system, v)

    monkeypatch.setattr(equilibrium, "_newton", failing_newton)
    monkeypatch.setattr(equilibrium, "_pseudo_transient", relaxation)
    eq = equilibrium_auto(pert2)
    assert eq.method is Method.Continuation
    assert eq.homotopy_path == []
    assert (eq.v_bar.tobytes(), eq.residual) == (v_ref.tobytes(), res_ref)
    assert runs == ["newton", "psi-tc"]
    runs.clear()
    with pytest.raises(type(exc)) as info:
        equilibrium_auto(crowd3)
    assert info.value is exc
    assert runs == ["psi-tc"]


def test_crowding_equilibrium_is_solved_by_pseudo_transient_continuation(monkeypatch):
    # the 21-stage homotopy takes 81 solves on crowd3
    model = get_preset("crowd3").model
    ref = equilibrium_homotopy(model)
    solves = _spy_on_solves(monkeypatch)
    eq = equilibrium_auto(model)
    assert len(solves) <= 12
    assert eq.method is Method.Continuation
    assert eq.homotopy_path == []
    assert eq.alpha_bar is None
    assert eq.lambda_p == ref.lambda_p
    assert np.max(np.abs(eq.v_bar - ref.v_bar)) <= 1e-13 * np.max(ref.v_bar)
    assert eq.residual == residual(model, eq.v_bar) <= 1e-13 * np.max(eq.v_bar)


@pytest.mark.parametrize("name", ["crowd3", "pert2"])
def test_package_exports_the_automatic_solver(name):
    # the solver analysis and the CLI use is reachable as lvmut.equilibrium_auto
    model = get_preset(name).model
    assert "equilibrium_auto" in lv.__all__
    assert lv.equilibrium_auto is equilibrium_auto
    eq = lv.equilibrium_auto(model)
    assert eq.method is Method.Continuation
    assert np.all(eq.v_bar > 0.0)
    assert np.max(np.abs(rhs(model, eq.v_bar))) <= 1e-12 * np.max(eq.v_bar)


def test_trivial_crowding_matches_uniform():
    # sym2 under all-ones crowding: a pseudo-transient step lands on an
    # exactly zero residual
    sym = get_preset("sym2").model
    eq = equilibrium_auto(build_model(2, sym.r, sym.big_k, sym.mu, crowding_linear(np.ones((2, 2)))))
    assert eq.method is Method.Continuation
    assert eq.residual == 0.0
    assert np.max(np.abs(eq.v_bar - 5.0)) < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = 3
        r = rng.uniform(0.5, 2.0, size=n)
        big_k = float(rng.uniform(1.0, 50.0))
        mu = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                mu[i, j] = mu[j, i] = rng.uniform(0.01, 0.05)
        crowd = build_model(n, r, big_k, mu, crowding_linear(np.ones((n, n))))
        flat = build_model(n, r, big_k, mu, uniform_linear(r))
        eq_u = equilibrium_uniform(flat)
        for eq_c in (equilibrium_homotopy(crowd), equilibrium_auto(crowd)):
            assert np.max(np.abs(eq_c.v_bar - eq_u.v_bar)) < 1e-8 * big_k


def test_perturbed_equilibrium():
    preset = get_preset("pert2")
    eq = equilibrium_homotopy(preset.model)
    assert np.all(eq.v_bar > 0)
    assert eq.residual <= 1e-10
    # eps = 1e-3 nudges the flat equilibrium by O(eps * K) at most
    assert np.max(np.abs(eq.v_bar - 5.0)) < 0.1


def test_outflow_gate():
    model = build_model(
        2, [1.0, 1.0], 10.0, [[0.0, 0.6], [0.6, 0.0]], uniform_linear([1.0, 1.0])
    )
    with pytest.raises(Hypothesis3Violated):
        equilibrium_homotopy(model)


def test_asymmetric_mutation_solves_under_tighter_outflow():
    mu = [[0.0, 0.05], [0.08, 0.0]]
    model = build_model(2, [1.0, 1.0], 10.0, mu, uniform_linear([1.0, 1.0]))
    direct = equilibrium_uniform(model)
    cont = equilibrium_homotopy(model)
    assert np.max(np.abs(direct.v_bar - cont.v_bar)) < 1e-8
    assert cont.residual <= 1e-10


def test_eigenvector_scaling_rejects_state_dependent_pressures():
    crowd = get_preset("crowd3")
    with pytest.raises(WrongInteractionKind):
        equilibrium_uniform(crowd.model)


# -- Newton steps ---------------------------------------------------------------

# sha256 of the bytes of v_bar and of the path residuals, recorded when every
# Newton step still ran solve_linear's SVD test; crowd3 and pert2 re-recorded
# when the anchor became the exact linear-part scaling and stage 0 a Newton
# stage (crowd3's v_bar moved 1.0e-15 relative, pert2's path[0] residual 2e-12);
# crowd16 re-recorded when every stage stopped on the relative Newton
# correction and the s = 1 stage replaced the polish (v_bar moved 8.5e-15
# relative, the final residual 5.7e-16 -> 1.9e-15, stages 0.6-0.95 by at
# most 2.8e-12 relative); the residual digests of all three re-recorded when
# the field became (R+M)v - (Psi(v)/K)v (Newton does not evaluate the field,
# so every v_bar keeps its bytes; the path residuals move by at most 1.1e-14,
# the final ones 5.3e-15 -> 7.1e-15 on crowd3, 2.0e-15 -> 1.8e-15 on pert2
# and 1.9e-15 -> 1.8e-15 on crowd16); all three re-recorded when Newton's
# G_s took the field's operation order, so that G_1 is rhs bit for bit
# (v_bar moves by 7.9e-16 relative on crowd3, 8.9e-16 on pert2 and 1.2e-15
# on crowd16; the path residuals by at most 2.1e-14, and the final ones
# stay 7.1e-15 on crowd3 and 1.8e-15 on crowd16, 1.8e-15 -> 8.9e-16 on pert2)
_HOMOTOPY_GOLDEN = {
    "crowd3": ("5964466c046d475758578b8953c45dbae11f872287a3c2cda68ed4d8f885cfe6",
               "c7fdc5eff0786b38fd7f28d79f8d7b7e9a73444f2193fa21d0a610c04e8d2a47"),
    "pert2": ("6b4cf56e7fadfd3128599db4a92ce32049c1a2bd70226714de49385ccc7fda27",
              "9f9e26634a0a30f59636f5d5c4c5a301b948171c75466cb0dd9877fda9c51196"),
    "crowd16": ("f3dd97c1ee16a63ffd3b8e71c5a36b4cb01f5d911aa126a6f0cedd1702fc44ac",
                "d751e2bc1792b6f701fd40860d3d8219485cf3a125519c21a444ac62436c75dd"),
}


def _self_crowding_hypercube16():
    r = np.random.default_rng(16).uniform(0.5, 2.0, size=16)
    alpha = 0.8 * np.ones((16, 16)) + 0.2 * np.eye(16)
    return build_model(16, r, 10.0, point_mutation_matrix(4, 0.01), crowding_linear(alpha))


@pytest.mark.parametrize("name", sorted(_HOMOTOPY_GOLDEN))
def test_homotopy_is_bit_identical(name):
    model = _self_crowding_hypercube16() if name == "crowd16" else get_preset(name).model
    eq = equilibrium_homotopy(model)
    residuals = np.array([res for _, _, res in eq.homotopy_path])
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (eq.v_bar, residuals))
    assert digests == _HOMOTOPY_GOLDEN[name]


def test_newton_solves_once_per_step_and_never_against_r_plus_m(monkeypatch):
    model = get_preset("crowd3").model
    a = growth_mutation_matrix(model)
    solves = _spy_on_solves(monkeypatch)
    jacobians = []
    jacobian = equilibrium._jacobian

    def counted(*args):
        jacobians.append(None)
        return jacobian(*args)

    monkeypatch.setattr(equilibrium, "_jacobian", counted)
    equilibrium_homotopy(model)
    assert len(solves) == len(jacobians) == 81
    assert not any(np.array_equal(mat, a) for mat in solves)


def test_linear_coefficients_are_built_a_fixed_number_of_times(monkeypatch):
    # crowd3 takes 81 Newton solves, pert2 63 and sym2 21; C is built by
    # validate (its coercivity check, and its monotonicity check unless the
    # kind is perturbed), the anchor, the box and the solve's gradient, not
    # once per step
    counts = []
    build = model_module._linear_coefficients

    def counted(model):
        counts.append(None)
        return build(model)

    monkeypatch.setattr(model_module, "_linear_coefficients", counted)
    monkeypatch.setattr(equilibrium, "_linear_coefficients", counted)
    per_homotopy = {}
    for name in ("sym2", "pert2", "crowd3"):
        counts.clear()
        equilibrium_homotopy(get_preset(name).model)
        per_homotopy[name] = len(counts)
    assert per_homotopy == {"sym2": 5, "pert2": 4, "crowd3": 5}


@pytest.mark.parametrize("big_k", [1e4, 1e5, 1e6])
def test_large_carrying_capacity_solves(big_k):
    # an absolute stop on the stage update fell below rounding here
    crowd3 = get_preset("crowd3").model
    model = build_model(crowd3.n, crowd3.r, big_k, crowd3.mu, crowd3.interaction)
    eq = equilibrium_homotopy(model)
    assert np.all(eq.v_bar > 0.0)
    assert eq.residual <= 1e-13 * np.max(eq.v_bar)


def test_newton_steps_per_stage_are_bounded(monkeypatch):
    # crowd3's s = 0 stage is solved at its start; s = 0.05 needs a step
    monkeypatch.setattr(equilibrium, "_MAX_INNER", 1)
    with pytest.raises(InnerNoConvergence) as info:
        equilibrium_homotopy(get_preset("crowd3").model)
    assert info.value.s == 0.05


def _self_crowding_hypercube(loci, seed):
    """The ladder's self-crowding model on 2**loci genotypes, at growth rates
    drawn from seed."""
    n = 2 ** loci
    r = np.random.default_rng(seed).uniform(0.5, 2.0, size=n)
    alpha = 0.8 * np.ones((n, n)) + 0.2 * np.eye(n)
    return build_model(n, r, 10.0, point_mutation_matrix(loci, 0.01), crowding_linear(alpha))


def test_newton_reuses_the_accepted_candidates_residual(monkeypatch):
    # Psi^s and G_s of the accepted candidate serve the next Newton
    # iteration, so _stationarity runs once per candidate tried, once per
    # stage at the start and once per stage for its score (parent:
    # 138/202/76/214/139/62, recomputing them at the top of each iteration)
    calls = []
    stationarity = equilibrium._stationarity

    def counted(*args):
        calls.append(None)
        return stationarity(*args)

    monkeypatch.setattr(equilibrium, "_stationarity", counted)
    seen = {}
    for loci in range(2, 8):
        calls.clear()
        try:
            equilibrium_homotopy(_self_crowding_hypercube(loci, 0))
            outcome = 1.0
        except LeftAprioriBox as exc:
            outcome = exc.s
        seen[2 ** loci] = (len(calls), outcome)
    assert seen == {4: (90, 1.0), 8: (122, 1.0), 16: (50, 0.1),
                    32: (128, 1.0), 64: (87, 0.45), 128: (42, 0.05)}


def test_a_caught_box_exit_holds_no_jacobian_and_no_bound_c(monkeypatch):
    # a held error's traceback keeps no frame's n x n arrays: every J that
    # _newton built and the C the solve's gradient binds are freed
    jacobians, coefficients = [], []
    jacobian, gradient = equilibrium._jacobian, equilibrium._gradient

    def recorded_jacobian(*args):
        jac = jacobian(*args)
        jacobians.append(weakref.ref(jac))
        return jac

    def recorded_gradient(model):
        bound = gradient(model)
        coefficients.append(weakref.ref(bound(None)))  # crowding: C itself
        return bound

    monkeypatch.setattr(equilibrium, "_jacobian", recorded_jacobian)
    monkeypatch.setattr(equilibrium, "_gradient", recorded_gradient)
    with pytest.raises(LeftAprioriBox) as info:
        equilibrium_homotopy(_self_crowding_hypercube(5, 1))
    assert (type(info.value), str(info.value), info.value.s) == (
        LeftAprioriBox, "iterate left the a-priori box at s=0.05", 0.05)
    gc.collect()
    assert len(jacobians) > 1 and len(coefficients) == 1
    assert sum(ref() is not None for ref in jacobians + coefficients) == 0


def _newton_system(model, box, pressure=None):
    """The _System of a solve on model, with its box and, when given, its
    pressure replaced."""
    a = growth_mutation_matrix(model)
    return equilibrium._System(a, *box, pressure or model_module._pressure_values(model),
                               model_module._gradient(model))


def _in_scope_model(kind, n, big_k, rng):
    """A model of the given kind inside the paper's hypotheses: r > 0,
    symmetric mu with outflow within r/2 (h3), and pressures monotone."""
    r = rng.uniform(0.2, 2.0, size=n)
    mu = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.7)
    mu = np.triu(mu, 1) + np.triu(mu, 1).T
    outflow = mu.sum(axis=1)
    mu *= rng.uniform(0.0, 0.5) * np.min(r / np.where(outflow > 0.0, outflow, 1.0))
    if kind == "crowding":
        interaction = crowding_linear(rng.uniform(0.0, 2.0, size=(n, n)))
    elif kind == "perturbed":
        a = rng.uniform(0.5, 2.0, size=n)
        amp = rng.uniform(-1.0, 1.0, size=n)
        w = rng.normal(size=(n, n))
        # eps below min a / max |amp_i| max |w_i.| keeps the pressures monotone
        slope = float(np.max(np.abs(amp) * np.max(np.abs(w), axis=1)))
        eps = rng.uniform(0.0, 0.99) * a.min() / slope
        interaction = perturbed(uniform_linear(a), eps, amp, w)
    else:
        interaction = uniform_linear(rng.uniform(0.5, 2.0, size=n))
    return build_model(n, r, big_k, mu, interaction)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(st.sampled_from(["uniform", "crowding", "perturbed"]),
       st.integers(min_value=2, max_value=8),
       st.floats(min_value=1.0, max_value=100.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_newton_residual_at_s_1_is_the_field(kind, n, big_k, seed):
    # Newton's G_1 and its stage residuals are the vector field itself, bit
    # for bit, at nonnegative states with exact zeros
    rng = np.random.default_rng(seed)
    model = _in_scope_model(kind, n, big_k, rng)
    report = validate(model)
    assert report.h1_symmetry and report.h3_half and report.h1_monotone
    system = _newton_system(model, (0.0, math.inf))
    states = rng.uniform(0.0, 2.0 * big_k, size=(5, n))
    states[rng.random(states.shape) < 0.3] = 0.0
    for v in states:
        g = equilibrium._stationarity(system, big_k, 1.0, v)[1]
        assert g.tobytes() == rhs(model, v).tobytes()


@settings(deadline=None, derandomize=True, max_examples=400)
@given(st.integers(min_value=2, max_value=8),
       st.floats(min_value=1.0, max_value=100.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_crowding_equilibrium_is_positive_and_stationary_or_a_solver_error(n, big_k, seed):
    # pseudo-transient continuation, with no fallback after it fails; it
    # may reach any positive equilibrium of a multistable model
    model = _in_scope_model("crowding", n, big_k, np.random.default_rng(seed))
    try:
        eq = equilibrium_auto(model)
    except LvmutError:
        return
    v_bar = eq.v_bar
    assert np.all(v_bar > 0.0)
    assert eq.residual == residual(model, v_bar) <= 1e-12 * max(1.0, np.max(v_bar))
    lo, hi = equilibrium._apriori_box(model)
    assert lo <= np.sum(v_bar) <= hi


@pytest.mark.filterwarnings("ignore:no computable population bounds")
@settings(deadline=None, derandomize=True, max_examples=400)
@given(st.integers(min_value=2, max_value=8),
       st.floats(min_value=1.0, max_value=100.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_perturbed_equilibrium_is_positive_and_stationary_or_a_solver_error(n, big_k, seed):
    # one s = 1 Newton run from the base's equilibrium, or Psi-tc from the
    # same start after it fails
    model = _in_scope_model("perturbed", n, big_k, np.random.default_rng(seed))
    try:
        eq = equilibrium_auto(model)
    except LvmutError:
        return
    v_bar = eq.v_bar
    assert np.all(v_bar > 0.0)
    assert eq.residual == residual(model, v_bar) <= 1e-12 * max(1.0, np.max(v_bar))
    lo, hi = equilibrium._apriori_box(model)
    assert lo <= np.sum(v_bar) <= hi


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.sampled_from(["uniform", "crowding", "perturbed"]),
       st.integers(min_value=2, max_value=8),
       st.floats(min_value=1.0, max_value=100.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_set_up_perron_pair_and_extremes_are_the_separate_kernels(kind, n, big_k, seed):
    # the set-up factorizes R+M once: the box's extremes, a memo hit (R+M's
    # symmetric part is R+M), are those of a fresh eigh of R+M bit for bit,
    # and the Perron pair from the memoized eigh is a fresh
    # perron_eigenpair's bit for bit (the same LAPACK call on the same R+M),
    # or raises its error
    model = _in_scope_model(kind, n, big_k, np.random.default_rng(seed))
    linalg._EIGH_MEMO.clear()
    a = equilibrium._linear_setup(model)
    ((key, memoized),) = linalg._EIGH_MEMO
    assert key == linalg._eigh_key(a)
    w = np.linalg.eigh(a)[0]
    assert linalg._symmetric_extremes(a) == (float(w[0]), float(w[-1]))

    def pair_or_error():
        try:
            return perron_eigenpair(a)
        except LvmutError as exc:
            return exc

    got = pair_or_error()
    ((again, hit),) = linalg._EIGH_MEMO
    assert again == key and hit is memoized  # hits, not a second eigh
    linalg._EIGH_MEMO.clear()
    ref = pair_or_error()
    if isinstance(ref, LvmutError):
        assert (type(got), str(got)) == (type(ref), str(ref))
        return
    assert got.v_p.tobytes() == ref.v_p.tobytes()
    assert (got.lambda_p, got.residual) == (ref.lambda_p, ref.residual)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(st.integers(min_value=2, max_value=8),
       st.floats(min_value=1.0, max_value=100.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_uniform_equilibrium_is_positive_and_stationary(n, big_k, seed):
    # the paper's unique positive equilibrium of the uniform kind, for an
    # irreducible mu; a reducible one is outside its hypotheses and refused
    model = _in_scope_model("uniform", n, big_k, np.random.default_rng(seed))
    if not validate(model).h1_irreducible:
        with pytest.raises(NotIrreducible):
            equilibrium_uniform(model)
        return
    eq = equilibrium_uniform(model)
    v_bar = eq.v_bar
    assert np.all(v_bar > 0.0)
    assert eq.residual == residual(model, v_bar) <= 1e-12 * max(1.0, np.max(v_bar))


def _census_model(kind, seed):
    """The solver census's model of this kind and seed: n and K drawn from
    the seed's generator, then _in_scope_model from the same generator."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    big_k = float(rng.uniform(1.0, 100.0))
    return _in_scope_model(kind, n, big_k, rng)


# the perturbed census models (seeds 0-1999) whose s = 1 Newton run fails;
# the homotopy raised InnerNoConvergence on 23 and 166
_NEWTON_FAILURES = (23, 166, 872, 1131)


@pytest.mark.filterwarnings("ignore:no computable population bounds")
@pytest.mark.parametrize("seed", _NEWTON_FAILURES)
def test_perturbed_census_models_whose_newton_run_fails_are_solved_by_psi_tc(monkeypatch, seed):
    model = _census_model("perturbed", seed)
    relax = equilibrium._pseudo_transient
    runs = []

    def relaxation(*args):
        runs.append(None)
        return relax(*args)

    monkeypatch.setattr(equilibrium, "_pseudo_transient", relaxation)
    eq = equilibrium_auto(model)
    assert len(runs) == 1
    assert eq.method is Method.Continuation
    assert np.all(eq.v_bar > 0.0)
    assert eq.residual == residual(model, eq.v_bar) <= 1e-12 * max(1.0, np.max(eq.v_bar))


@pytest.mark.filterwarnings("ignore:no computable population bounds")
def test_no_automatic_solve_calls_the_homotopy(monkeypatch):
    # the presets, the census models whose Newton run fails, and a pert2
    # sweep whose first row's Newton run fails
    calls = []
    monkeypatch.setattr(equilibrium, "equilibrium_homotopy", lambda *args: calls.append(args))
    for name in preset_names():
        equilibrium_auto(get_preset(name).model)
    for seed in _NEWTON_FAILURES:
        equilibrium_auto(_census_model("perturbed", seed))
    newton = equilibrium._newton
    failed = []

    def failing_newton(model, system, s, v):
        if not failed:
            failed.append(s)
            raise InnerNoConvergence(s)
        return newton(model, system, s, v)

    monkeypatch.setattr(equilibrium, "_newton", failing_newton)
    pert2 = get_preset("pert2").model
    inter = pert2.interaction
    base = build_model(pert2.n, pert2.r, pert2.big_k, pert2.mu, inter.base)
    rows = perturbation_sweep(base, inter.amp, inter.w, [1e-4, 4e-4, 1.6e-3, 6.4e-3]).rows
    assert failed == [1.0]
    assert not any(row.failed for row in rows)
    assert calls == []


# The solver census: equilibrium_auto on the model of each kind and seed
# 0-1999. It pins today's failures as known defects (ROADMAP item 17), not
# as the solver's contract: a change that moves a seed names it.
_CENSUS_SEEDS = range(2000)
# the 198 seeds whose mu is reducible: mu is drawn before the interaction,
# so they are the same for every kind
_CENSUS_REDUCIBLE = (
    9, 27, 34, 35, 56, 77, 94, 101, 107, 114, 119, 123, 186, 199, 207, 211, 212, 213,
    229, 264, 268, 273, 288, 291, 312, 316, 322, 326, 352, 376, 383, 387, 389, 391, 394,
    409, 410, 423, 425, 428, 430, 449, 450, 454, 472, 495, 496, 497, 502, 518, 562, 570,
    588, 598, 613, 618, 636, 653, 655, 660, 671, 676, 689, 691, 695, 712, 716, 725, 735,
    740, 747, 790, 798, 800, 804, 806, 811, 821, 825, 845, 854, 871, 879, 890, 944, 961,
    964, 969, 972, 973, 978, 991, 1010, 1013, 1014, 1023, 1032, 1036, 1037, 1046, 1060,
    1064, 1068, 1070, 1079, 1084, 1088, 1090, 1095, 1103, 1126, 1147, 1148, 1155, 1156,
    1168, 1184, 1187, 1204, 1205, 1206, 1213, 1254, 1257, 1258, 1271, 1272, 1276, 1284,
    1293, 1294, 1297, 1299, 1302, 1315, 1330, 1332, 1355, 1357, 1374, 1375, 1378, 1381,
    1385, 1393, 1394, 1421, 1425, 1430, 1431, 1441, 1447, 1500, 1508, 1525, 1540, 1542,
    1545, 1558, 1589, 1590, 1601, 1616, 1624, 1628, 1631, 1636, 1644, 1646, 1664, 1665,
    1666, 1669, 1700, 1708, 1717, 1726, 1762, 1788, 1791, 1797, 1821, 1835, 1845, 1869,
    1875, 1876, 1877, 1886, 1893, 1898, 1923, 1929, 1936, 1963, 1970, 1984, 1990,
)
_CENSUS_FAILURES = {
    "uniform": {},
    "crowding": {seed: "InnerNoConvergence" for seed in (
        6, 122, 139, 187, 278, 315, 373, 499, 609, 649, 905, 1414, 1477, 1697, 1848, 1918,
        1920)},
    "perturbed": {},
}
_CENSUS_WIDE_BOX = {"uniform": (), "crowding": (),
                    "perturbed": (60, 659, 838, 872, 985, 1287, 1432)}


@pytest.mark.parametrize("kind", sorted(_CENSUS_FAILURES))
def test_solver_census(kind):
    reducible, failures, wide_box, messages = [], {}, [], set()
    solved = 0
    for seed in _CENSUS_SEEDS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                equilibrium_auto(_census_model(kind, seed))
                solved += 1
            except NotIrreducible:
                reducible.append(seed)
            except LvmutError as exc:
                failures[seed] = type(exc).__name__
        if caught:
            wide_box.append(seed)
            messages.update(str(w.message) for w in caught)
    assert len(_CENSUS_REDUCIBLE) == 198
    assert tuple(reducible) == _CENSUS_REDUCIBLE
    assert failures == _CENSUS_FAILURES[kind]
    assert solved == {"uniform": 1802, "crowding": 1785, "perturbed": 1802}[kind]
    assert tuple(wide_box) == _CENSUS_WIDE_BOX[kind]
    assert messages <= {"no computable population bounds; using the wide fallback box"}


def _wide_box_perturbed():
    """sym2's base under eps = 1, amp (10, -10) and w = 0.01 I, where
    K lambda_min = 8 <= eps max|amp| = 10 leaves no computable box."""
    sym = get_preset("sym2").model
    return build_model(2, sym.r, sym.big_k, sym.mu,
                       perturbed(sym.interaction, 1.0, [10.0, -10.0], 0.01 * np.eye(2)))


def test_a_wide_box_model_whose_newton_run_fails_warns_once(monkeypatch):
    # the s = 1 run and Psi-tc share the solve's one box
    stage_one = equilibrium._stage_one

    def failing(model, system, v):
        stage_one(model, system, v)
        raise InnerNoConvergence(1.0)

    monkeypatch.setattr(equilibrium, "_stage_one", failing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eq = equilibrium_auto(_wide_box_perturbed())
    assert [str(w.message) for w in caught] == [
        "no computable population bounds; using the wide fallback box"
    ]
    assert eq.method is Method.Continuation


def test_newton_raises_left_apriori_box_when_every_damped_step_leaves_it():
    # a box that holds only the start's total: every damped candidate, and
    # the 1e-8 probe along the step, change the total
    model = get_preset("sym2").model
    v = np.array([1.0, 1.0])
    total = float(v.sum())
    with pytest.raises(LeftAprioriBox) as info:
        equilibrium._newton(model, _newton_system(model, (total, total)), 0.5, v)
    assert info.value.s == 0.5


def test_newton_raises_inner_no_convergence_when_no_damped_step_lowers_the_residual():
    # the pressure is NaN anywhere but at the start, so no candidate in the
    # wide box has a residual below the start's
    model = get_preset("sym2").model
    v = np.array([1.0, 1.0])
    pressure = model_module._pressure_values(model)

    def nan_off_v(x):
        out = pressure(x)
        return out if np.array_equal(x, v) else np.full_like(out, np.nan)

    system = _newton_system(model, (1e-6, 1e6), nan_off_v)
    with pytest.raises(InnerNoConvergence) as info:
        equilibrium._newton(model, system, 0.5, v)
    assert info.value.s == 0.5


def _halving_search(system, big_k, s, v, step, g_norm):
    """The damped search halving from t = 1 through every one of its
    _MAX_HALVINGS candidates: the accepted candidate, or the class of the
    error the search raises."""
    t = 1.0
    for _ in range(equilibrium._MAX_HALVINGS):
        cand = v + t * step
        if cand.min() > 0.0 and system.box_lo <= cand.sum() <= system.box_hi:
            cand_g = equilibrium._stationarity(system, big_k, s, cand)[1]
            if np.max(np.abs(cand_g)) < g_norm:
                return cand
        t *= 0.5
    probe = v + 1e-8 * step
    if not (probe.min() > 0.0 and system.box_lo <= probe.sum() <= system.box_hi):
        return LeftAprioriBox
    return InnerNoConvergence


_HYPERCUBES = {loci: _self_crowding_hypercube(loci, 7) for loci in (1, 2, 3)}


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.sampled_from(sorted(_HYPERCUBES)),
       st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_line_search_outcome_equals_plain_halving(loci, s, seed):
    # steps of mixed sign whose zero crossings v_i / -step_i lie between a
    # drawn lowest one in 1e-30..10 and 1e3, so the full step mostly leaves
    # the orthant and the skip ranges from none to past the last halving;
    # the box and the residual to beat are drawn around v, so the search
    # accepts a candidate or raises either error
    model = _HYPERCUBES[loci]
    rng = np.random.default_rng(seed)
    n = model.n
    v = 10.0 ** rng.uniform(-2.0, 1.0, n)
    down = rng.random(n) < 0.5
    down[rng.integers(n)] = True
    crossings = 10.0 ** rng.uniform(rng.uniform(-30.0, 1.0), 3.0, n)
    step = np.where(down, -v / crossings, v * 10.0 ** rng.uniform(-3.0, 1.0, n))
    lo = float(v.sum()) * 10.0 ** rng.uniform(-2.0, 0.3)
    system = _newton_system(model, (lo, lo * 10.0 ** rng.uniform(0.0, 2.0)))
    g = equilibrium._stationarity(system, model.big_k, s, v)[1]
    g_norm = float(np.max(np.abs(g))) * 10.0 ** rng.uniform(-1.0, 1.0)
    expected = _halving_search(system, model.big_k, s, v, step, g_norm)
    if isinstance(expected, np.ndarray):
        cand = equilibrium._line_search(system, model.big_k, s, v, step, g_norm)[0]
        assert cand.tobytes() == expected.tobytes()
    else:
        with pytest.raises(expected) as info:
            equilibrium._line_search(system, model.big_k, s, v, step, g_norm)
        assert type(info.value) is expected and info.value.s == s


def test_line_search_skips_past_the_last_halving(monkeypatch):
    # v_0 + t step_0 = 1 - 1e30 t < 0 for every t >= 2**-59, so after the
    # full step only the 1e-8 probe is tested against the box
    model = get_preset("sym2").model
    v, step = np.array([1.0, 1.0]), np.array([-1e30, 1.0])
    system = _newton_system(model, (1e-6, 1e6))
    box_tests = []
    in_box = equilibrium._in_box

    def counted(*args):
        box_tests.append(None)
        return in_box(*args)

    monkeypatch.setattr(equilibrium, "_in_box", counted)
    assert _halving_search(system, model.big_k, 1.0, v, step, np.inf) is LeftAprioriBox
    with pytest.raises(LeftAprioriBox):
        equilibrium._line_search(system, model.big_k, 1.0, v, step, np.inf)
    assert len(box_tests) == 2


def _ladder_crowding_rungs():
    """The self-crowding models of the benchmark ladder's rungs n = 4..128
    at its base draw: r ~ U(0.5, 2) per rung in turn from default_rng(0)."""
    base = np.random.default_rng(0)
    rungs = {}
    for loci in range(2, 8):
        n = 2 ** loci
        alpha = 0.8 * np.ones((n, n)) + 0.2 * np.eye(n)
        rungs[n] = build_model(n, base.uniform(0.5, 2.0, size=n), 10.0,
                               point_mutation_matrix(loci, 0.01), crowding_linear(alpha))
    return rungs


@pytest.mark.parametrize("n, s, solves, box_tests",
                         [(32, 0.2, 44, 105), (64, 0.05, 25, 89), (128, 0.05, 20, 71)])
def test_work_of_the_ladder_rungs_whose_homotopy_leaves_the_box(monkeypatch, n, s, solves,
                                                                 box_tests):
    # the line search starts below twice the largest step that stays in the
    # orthant, so the box is tested 105/89/71 times (687/570/480 halving
    # from t = 1 every time); the Newton solves and Jacobians do not move
    counts = {"_guarded_solve": 0, "_jacobian": 0, "_in_box": 0}

    def counted(name):
        function = getattr(equilibrium, name)

        def spy(*args):
            counts[name] += 1
            return function(*args)

        return spy

    for name in counts:
        monkeypatch.setattr(equilibrium, name, counted(name))
    with pytest.raises(LeftAprioriBox) as info:
        equilibrium_homotopy(_ladder_crowding_rungs()[n])
    assert (type(info.value), info.value.s) == (LeftAprioriBox, s)
    assert counts == {"_guarded_solve": solves, "_jacobian": solves, "_in_box": box_tests}


def _crowd3_start():
    """crowd3, its _System and _anchor's point, where Psi-tc starts."""
    model = get_preset("crowd3").model
    a = equilibrium._linear_setup(model)
    return model, equilibrium._system(model, a), equilibrium._anchor(model, a)[1]


def test_pseudo_transient_raises_inner_no_convergence_when_every_residual_off_the_start_is_nan(
    monkeypatch,
):
    # each candidate's residual is NaN and halves delta until the step is
    # so short that the candidate is the start: a step that moves nothing
    # ends the run within the first step's halvings
    model, system, v = _crowd3_start()

    def nan_off_v(x):
        out = system.pressure(x)
        return out if np.array_equal(x, v) else np.full_like(out, np.nan)

    solves = _spy_on_solves(monkeypatch)
    with pytest.raises(InnerNoConvergence) as info:
        equilibrium._pseudo_transient(model, system._replace(pressure=nan_off_v), v)
    assert info.value.s == 1.0
    assert len(solves) <= equilibrium._MAX_HALVINGS


def test_pseudo_transient_raises_inner_no_convergence_when_every_candidate_leaves_the_orthant(
    monkeypatch,
):
    # a start with a negative component: every candidate, however short
    # the pseudo-time step, keeps a component <= 0
    model, system, v = _crowd3_start()
    start = v.copy()
    start[0] = -v[0]
    solves = _spy_on_solves(monkeypatch)
    with pytest.raises(InnerNoConvergence) as info:
        equilibrium._pseudo_transient(model, system, start)
    assert info.value.s == 1.0
    assert len(solves) == equilibrium._MAX_HALVINGS


def test_stage_run_from_a_start_outside_the_box_leaves_it():
    model, system, _ = _crowd3_start()
    with pytest.raises(LeftAprioriBox) as info:
        equilibrium._run_stages(model, system, np.full(model.n, 1e12), [1.0])
    assert info.value.s == 1.0


# -- the anchor -------------------------------------------------------------------

def _pert2_at(eps: float):
    model = get_preset("pert2").model
    inter = model.interaction
    return build_model(model.n, model.r, model.big_k, model.mu,
                       perturbed(inter.base, eps, inter.amp, inter.w))


# crowd3, the n = 16 self-crowding rung, and pert2 at criterion 12's eps values
_STAGE0_MODELS = {
    "crowd3": lambda: get_preset("crowd3").model,
    "crowd16": _self_crowding_hypercube16,
    **{f"pert2-eps{eps:g}": (lambda eps=eps: _pert2_at(eps))
       for eps in (1e-4, 4e-4, 1.6e-3, 6.4e-3)},
}


@pytest.mark.parametrize("name", sorted(_STAGE0_MODELS))
def test_stage0_is_the_shared_pressure_equilibrium_on_the_perron_ray(name):
    model = _STAGE0_MODELS[name]()
    per = perron_eigenpair(growth_mutation_matrix(model))
    s, v, _ = equilibrium_homotopy(model).homotopy_path[0]
    assert s == 0.0
    np.testing.assert_allclose(v / np.sum(v), per.v_p / np.sum(per.v_p), rtol=1e-12)
    target = model.big_k * per.lambda_p
    assert interaction_values(model, v)[0] == pytest.approx(target, rel=1e-12)
    if isinstance(model.interaction, CrowdingLinear):
        slope = _linear_coefficients(model)[0] @ per.v_p
        assert np.array_equal(v, (target / slope) * per.v_p)


@pytest.mark.filterwarnings("ignore:no computable population bounds")
def test_flat_shared_pressure_has_no_anchor():
    # alpha's first row is zero, so Psi_1 is 0 along the whole Perron ray
    sym = get_preset("sym2").model
    model = build_model(2, sym.r, sym.big_k, sym.mu, crowding_linear([[0.0, 0.0], [0.5, 1.0]]))
    with pytest.raises(LeftAprioriBox, match="flat") as info:
        equilibrium_homotopy(model)
    assert info.value.s == 0.0


def test_guarded_solve_rejects_an_exactly_singular_matrix():
    with pytest.raises(SingularMatrix):
        _guarded_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


def test_guarded_solve_rejects_growth_above_the_bound():
    jac = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    # LAPACK solves it; ||J|| ||x|| is about 1.8e15 against 2 sqrt(2) 1e14
    assert np.isfinite(np.linalg.solve(jac, np.array([1.0, 0.0]))).all()
    with pytest.raises(SingularMatrix, match="exceeds"):
        _guarded_solve(jac, np.array([1.0, 0.0]))


def test_guarded_solve_rejects_a_non_finite_step():
    with pytest.raises(SingularMatrix):
        _guarded_solve(np.eye(2), np.array([np.inf, 0.0]))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_guarded_solve_equals_numpy_on_well_conditioned_matrices(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        jac = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = _guarded_solve(jac, b)
        assert x.tobytes() == np.linalg.solve(jac, b).tobytes()


@pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
def test_guarded_solve_accepts_what_the_svd_test_accepts(n):
    # ill-conditioned matrices on both sides of solve_linear's threshold
    rng = np.random.default_rng(100 + n)
    accepted = 0
    for _ in range(20):
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w, _ = np.linalg.qr(rng.standard_normal((n, n)))
        jac = (u * np.logspace(0.0, rng.uniform(-15.0, -12.0), n)) @ w.T
        try:
            require_nonsingular(jac)
        except SingularMatrix:
            continue
        accepted += 1
        for _ in range(3):
            _guarded_solve(jac, rng.standard_normal(n))
    assert accepted > 0
