"""Round-trips and exact text formats for the JSON and CSV emitters."""
import json

import numpy as np
import pytest

from lvmut.acceptance import CriterionResult
from lvmut.analysis import PerturbationRow, PerturbationTable
from lvmut.dynamics import Trajectory, integrate
from lvmut.entropy import Decomposition, EntropyKernel, EntropyReport, decompose, dissipation
from lvmut.equilibrium import equilibrium_homotopy, equilibrium_uniform
from lvmut.presets import get_preset
from lvmut.serialize import (
    dumps_json,
    entropy_csv,
    equilibrium_to_dict,
    model_from_dict,
    model_to_dict,
    sweep_csv,
    table_csv,
    trajectory_csv,
)


def _assert_same_model(a, b):
    assert a.n == b.n
    assert np.array_equal(a.r, b.r)
    assert a.big_k == b.big_k
    assert np.array_equal(a.mu, b.mu)
    assert type(a.interaction) is type(b.interaction)


def test_model_round_trip_all_kinds():
    for name in ("sym2", "crowd3", "pert2"):
        model = get_preset(name).model
        clone = model_from_dict(json.loads(dumps_json(model_to_dict(model))))
        _assert_same_model(model, clone)
        v = np.linspace(1.0, 2.0, model.n)
        from lvmut.model import interaction_values

        assert np.array_equal(
            interaction_values(model, v), interaction_values(clone, v)
        )


def test_model_dict_kinds():
    assert model_to_dict(get_preset("sym2").model)["interaction"]["kind"] == "uniform"
    assert model_to_dict(get_preset("crowd3").model)["interaction"]["kind"] == "crowding"
    assert model_to_dict(get_preset("pert2").model)["interaction"]["kind"] == "perturbed"


def test_model_from_dict_reports_missing_keys():
    obj = model_to_dict(get_preset("sym2").model)
    del obj["mu"]
    with pytest.raises(ValueError, match="mu"):
        model_from_dict(obj)
    obj = model_to_dict(get_preset("pert2").model)
    del obj["interaction"]["amp"]
    with pytest.raises(ValueError, match="amp"):
        model_from_dict(obj)
    obj = model_to_dict(get_preset("sym2").model)
    obj["interaction"]["kind"] = "cubic"
    with pytest.raises(ValueError, match="cubic"):
        model_from_dict(obj)


def test_model_from_dict_refuses_bools_as_numbers():
    # model_to_dict's numpy arrays are read as numbers, but not bool arrays
    obj = model_to_dict(get_preset("sym2").model)
    obj["r"] = np.array([True, False])
    with pytest.raises(ValueError, match="'r' in model must be numbers"):
        model_from_dict(obj)
    obj = model_to_dict(get_preset("sym2").model)
    obj["K"] = np.True_
    with pytest.raises(ValueError, match="'K' in model must be a number"):
        model_from_dict(obj)


def test_float_round_trip_is_exact():
    vals = [0.1, 1.0 / 3.0, 1e-300, 12345.6789e37, 5.0]
    text = dumps_json({"x": vals})
    assert json.loads(text)["x"] == vals


def test_trajectory_csv_shape():
    preset = get_preset("sym2")
    traj = integrate(preset.model, preset.v0, 1.0, record_every=0.25)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,v_1,v_2,total"
    assert len(lines) == 1 + traj.times.size
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 8.0
    assert float(first[3]) == 10.0
    # rendering is deterministic
    assert text == trajectory_csv(traj)


def test_trajectory_csv_equals_table_csv_per_cell():
    # the row template must write what table_csv writes cell by cell,
    # non-finite entries, signed zeros and subnormals included
    rng = np.random.default_rng(16)
    states = rng.uniform(0.0, 20.0, size=(41, 16))
    states[3, 2] = np.nan
    states[4, 0] = np.inf
    states[5, 7] = -np.inf
    states[6, 1] = -0.0
    states[7, :] = 5e-324
    traj = Trajectory(times=np.linspace(0.0, 4.0, 41), states=states,
                      accepted_steps=0, rejected_steps=0, tol_used=(1e-8, 1e-10))
    header = ["t"] + [f"v_{i + 1}" for i in range(16)] + ["total"]
    rows = [[t, *state, float(np.sum(state))] for t, state in zip(traj.times, states)]
    assert trajectory_csv(traj) == table_csv(header, rows)


def test_entropy_csv_header():
    model = get_preset("sym2").model
    v_bar = np.array([5.0, 5.0])
    kernel = EntropyKernel.quadratic()
    traj = integrate(model, np.array([8.0, 2.0]), 1.0, record_every=0.5)
    report = dissipation(model, traj.states, v_bar, kernel)
    text = entropy_csv(traj.times, report, decompose(traj.states, v_bar))
    lines = text.strip().split("\n")
    assert lines[0] == "t,H,D,gamma_term,analytic_dt,F,E_h,lambda,beta"
    assert len(lines) == 1 + traj.times.size


def test_entropy_csv_equals_table_csv_per_cell():
    # F is inf where beta = 0; the float rows must write what table_csv writes
    rng = np.random.default_rng(9)
    cols = rng.standard_normal((6, 6))
    cols[4, 1] = np.inf
    cols[4, 2] = np.nan
    cols[1, 3] = -0.0
    cols[2, 5] = 5e-324
    t, h, d, gamma, f, e_h = cols[0], cols[1], cols[2], cols[3], cols[4], cols[5]
    lam, beta = cols[5] * 3.0, cols[1] / 7.0
    report = EntropyReport(h_value=h, d_value=d, gamma_term=gamma, analytic_dt=-d + gamma)
    dec = Decomposition(lambda_coef=lam, h=np.zeros((6, 2)), e_h=e_h, beta=beta, f_value=f)
    header = ["t", "H", "D", "gamma_term", "analytic_dt", "F", "E_h", "lambda", "beta"]
    rows = [
        [t[i], h[i], d[i], gamma[i], -d[i] + gamma[i], f[i], e_h[i], lam[i], beta[i]]
        for i in range(6)
    ]
    assert entropy_csv(t, report, dec) == table_csv(header, rows)


def test_dumps_json_writes_records_as_their_fields():
    results = [CriterionResult(1, "first", True, "ok"), CriterionResult(2, "second", False, "x")]
    assert dumps_json(results) == dumps_json([
        {"number": 1, "name": "first", "passed": True, "detail": "ok"},
        {"number": 2, "name": "second", "passed": False, "detail": "x"},
    ])
    # records nest, and arrays, None and defaults inside them take the usual path
    table = PerturbationTable(rows=[
        PerturbationRow(eps=0.5, sigma=0.25, v_bar=np.array([1.5, 2.0]), l1_distance=0.1,
                        ratio=None),
        PerturbationRow(eps=1.0, sigma=0.5, v_bar=None, l1_distance=None, ratio=None,
                        failed=True, error="E: no"),
    ])
    assert dumps_json(table) == dumps_json({"rows": [
        {"eps": 0.5, "sigma": 0.25, "v_bar": [1.5, 2.0], "l1_distance": 0.1, "ratio": None,
         "failed": False, "error": None},
        {"eps": 1.0, "sigma": 0.5, "v_bar": None, "l1_distance": None, "ratio": None,
         "failed": True, "error": "E: no"},
    ]})


def test_equilibrium_dict_fields():
    direct = equilibrium_to_dict(equilibrium_uniform(get_preset("sym2").model))
    assert direct["method"] == "perron"
    assert direct["alpha_bar"] == pytest.approx(10.0)
    assert "path" not in direct
    cont = equilibrium_to_dict(equilibrium_homotopy(get_preset("crowd3").model))
    assert cont["method"] == "homotopy"
    assert cont["alpha_bar"] is None
    assert len(cont["path"]) == 21
    assert cont["path"][0]["s"] == 0.0
    assert cont["path"][-1]["s"] == 1.0
    assert cont["residual"] <= 1e-10


def test_sweep_csv_rows():
    from lvmut.analysis import perturbation_sweep

    preset = get_preset("pert2")
    inter = preset.model.interaction
    base = get_preset("sym2").model
    table = perturbation_sweep(base, inter.amp, inter.w, [1e-4, 10.0])
    text = sweep_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == "eps,sigma,l1_distance,ratio,failed,error,v_bar"
    assert len(lines) == 4
    good = lines[2].split(",")
    assert good[4] == "false"
    bad = lines[3].split(",")
    assert bad[4] == "true"
    assert "OutOfTheoremScope" in bad[5]
    assert bad[2] == ""  # no distance for a failed row


@pytest.mark.parametrize("value, text", [
    (float("nan"), '"nan"\n'),
    (float("inf"), '"inf"\n'),
    (float("-inf"), '"-inf"\n'),
    ({}, "{}\n"),
], ids=["nan", "inf", "-inf", "empty-object"])
def test_dumps_json_of_non_finite_numbers_and_an_empty_object(value, text):
    assert dumps_json(value) == text
    json.loads(text)
