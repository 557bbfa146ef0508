"""End-to-end command line coverage, run in process through main()."""
import inspect
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from lvmut import acceptance, cli, equilibrium, errors, linalg
from lvmut.cli import main
from lvmut.dynamics import integrate
from lvmut.model import interaction_values
from lvmut.presets import get_preset
from lvmut.serialize import dumps_json, model_to_dict


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_listing(capsys):
    code, out, _ = _run(capsys, "presets")
    assert code == 0
    for name in ("sym2", "fit2asym", "mut4", "pert2", "crowd3"):
        assert name in out
    code, out, _ = _run(capsys, "presets", "--json")
    names = {entry["name"] for entry in json.loads(out)}
    assert names == {"sym2", "fit2asym", "mut4", "pert2", "crowd3"}
    assert "0.06" in out  # mut4 copy error is pinned


def test_validate_preset(capsys):
    code, out, _ = _run(capsys, "validate", "--preset", "sym2")
    assert code == 0
    rep = json.loads(out)
    assert rep["h1_monotone"] and rep["h1_symmetry"] and rep["h3_half"]
    assert rep["h2_coercive"]


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = _run(capsys, "simulate", "--preset", "nope")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] in ("KeyError", "UsageError")
    assert "nope" in payload["message"]


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out_dir in (out_a, out_b):
        code, _, _ = _run(
            capsys, "simulate", "--preset", "sym2", "--out", str(out_dir)
        )
        assert code == 0
    text_a = (out_a / "trajectory.csv").read_text()
    text_b = (out_b / "trajectory.csv").read_text()
    assert text_a == text_b
    header = text_a.split("\n", 1)[0]
    assert header == "t,v_1,v_2,total"


def test_equilibrium_perron_stdout(capsys):
    code, out, _ = _run(
        capsys, "equilibrium", "--preset", "fit2asym", "--method", "perron"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_p"] == pytest.approx(1.9099019513592785, abs=1e-12)
    assert payload["method"] == "perron"
    assert payload["residual"] <= 1e-10


def test_equilibrium_method_mismatch(capsys):
    code, _, err = _run(
        capsys, "equilibrium", "--preset", "crowd3", "--method", "perron"
    )
    assert code == 2
    assert json.loads(err)["error"] == "WrongInteractionKind"


def test_equilibrium_auto_continues_a_crowding_model(capsys):
    # named test_equilibrium_auto_picks_homotopy, with method "homotopy" and
    # its 21 checkpoints, until crowding took pseudo-transient continuation
    code, out, _ = _run(capsys, "equilibrium", "--preset", "crowd3")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "continuation"
    assert payload["alpha_bar"] is None
    assert payload["path"] == []


def test_equilibrium_auto_continues_a_perturbed_model(capsys):
    code, out, _ = _run(capsys, "equilibrium", "--preset", "pert2")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "continuation"
    assert payload["alpha_bar"] is None
    assert payload["path"] == []
    code, out, _ = _run(capsys, "equilibrium", "--preset", "pert2", "--method", "homotopy")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "homotopy"
    assert len(payload["path"]) == 21


def test_spectrum_value(capsys):
    code, out, _ = _run(capsys, "spectrum", "--preset", "sym2")
    assert code == 0
    assert json.loads(out)["c1"] == pytest.approx(0.2, abs=1e-10)


def test_entropy_requires_kernel(capsys, tmp_path):
    code, _, err = _run(capsys, "entropy", "--preset", "sym2")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"
    out_dir = tmp_path / "ent"
    code, _, _ = _run(
        capsys, "entropy", "--preset", "sym2", "--kernel", "quadratic",
        "--record-every", "0.1", "--out", str(out_dir)
    )
    assert code == 0
    lines = (out_dir / "entropy.csv").read_text().strip().split("\n")
    assert lines[0] == "t,H,D,gamma_term,analytic_dt,F,E_h,lambda,beta"
    assert len(lines) > 100


def test_entropy_polynomial_kernel(capsys):
    code, out, _ = _run(
        capsys, "entropy", "--preset", "sym2", "--kernel", "poly:0,0,1",
        "--record-every", "0.5"
    )
    assert code == 0
    assert out.startswith("t,H,")


def test_entropy_rejects_a_non_finite_polynomial_kernel(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, err = _run(
        capsys, "entropy", "--preset", "sym2", "--kernel", "poly:1,nan", "--out", str(out_dir)
    )
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "KernelMismatch"
    assert payload["message"] == "polynomial kernel coefficients must be finite"
    assert not out_dir.exists()


def test_rates_fit(capsys):
    code, out, _ = _run(capsys, "rates", "--preset", "sym2", "--record-every", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["fitted_rate_eh"] <= -0.38
    assert payload["r_squared"] >= 0.999
    assert payload["predicted_c1"] == pytest.approx(0.2, abs=1e-10)


@pytest.mark.parametrize("name", ["sym2", "fit2asym", "mut4"])
def test_exact_rates_match_the_spectral_gap(capsys, name):
    # an exact trajectory is fitted down to the rounding floor
    code, out, _ = _run(capsys, "rates", "--preset", name)
    assert code == 0
    payload = json.loads(out)
    c1 = payload["predicted_c1"]
    assert abs(payload["fitted_rate_sup"] + c1) <= 0.005 * c1


@pytest.mark.parametrize("record_every", [None, 0.3, 50.0])
@pytest.mark.parametrize("name", ["sym2", "fit2asym", "mut4"])
def test_exact_trajectory_samples_the_integrator_grid(name, record_every):
    preset = get_preset(name)
    job = cli.Job(preset.model, preset.v0, None, preset.t_end, 1e-8, 1e-10,
                  record_every, None)
    exact = cli._trajectory(job, preset.v0)
    ref = integrate(preset.model, preset.v0, preset.t_end, record_every=record_every)
    assert exact.tol_used == (0.0, 0.0)
    assert np.array_equal(exact.times, ref.times)
    assert np.allclose(exact.states, ref.states, rtol=1e-7, atol=0.0)


def test_stability_scope_gate_and_force(capsys, tmp_path):
    code, _, err = _run(
        capsys, "stability", "--preset", "crowd3", "--samples", "2",
        "--t-end", "5"
    )
    assert code == 1
    assert json.loads(err)["error"] == "OutOfTheoremScope"
    out_dir = tmp_path / "stab"
    code, _, err = _run(
        capsys, "stability", "--preset", "crowd3", "--samples", "2",
        "--t-end", "5", "--force", "--out", str(out_dir)
    )
    assert code == 0
    assert "outside" in err.lower() or "scope" in err.lower()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["in_scope"] is False
    assert "warning" in report
    assert (out_dir / "report.csv").exists()


def test_stability_converges_on_preset(capsys):
    code, out, _ = _run(
        capsys, "stability", "--preset", "sym2", "--samples", "3",
        "--t-end", "120", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["max_pairwise_gap"] <= 1e-6


@pytest.mark.parametrize("preset, calls", [
    ("sym2", 0), ("fit2asym", 0), ("mut4", 0), ("pert2", 1),
])
def test_stability_integrates_only_without_a_closed_form(capsys, monkeypatch, preset, calls):
    from lvmut import dynamics

    original = dynamics._integrate_rows
    seen = []

    def spy(*args):
        seen.append(args[0])
        return original(*args)

    monkeypatch.setattr(dynamics, "_integrate_rows", spy)
    code, _, err = _run(capsys, "stability", "--preset", preset, "--samples", "5",
                        "--seed", "1")
    assert (code, err) == (0, "")
    assert len(seen) == calls


def test_stability_at_t_end_1e300_is_exact_on_sym2_and_over_budget_on_pert2(capsys):
    # sym2's endpoints are exact, so t_end = 1e300 needs no steps; pert2
    # integrates, and its stiffness cap holds every step below the floor
    # 1e-14 t_end, so the step budget cannot reach t_end
    code, out, err = _run(capsys, "stability", "--preset", "sym2", "--t-end", "1e300")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    ends = np.array(payload["endpoints"])
    assert payload["converged"] is True
    assert np.max(np.abs(ends - np.array(payload["attractor"]))) <= 1e-12
    code, out, err = _run(capsys, "stability", "--preset", "pert2", "--t-end", "1e300")
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "StepBudgetExceeded"
    assert "stiffness cap" in payload["message"]
    assert "t_end=1e+300" in payload["message"]


def test_sweep_from_perturbed_preset(capsys, tmp_path):
    out_dir = tmp_path / "sw"
    code, _, _ = _run(
        capsys, "sweep", "--preset", "pert2", "--eps", "1e-4,1e-3",
        "--out", str(out_dir)
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["rows"]) == 3
    assert report["rows"][0]["eps"] == 0.0
    assert all(not row["failed"] for row in report["rows"])
    csv_lines = (out_dir / "report.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 4


def test_sweep_needs_amplitudes_for_uniform_models(capsys):
    code, _, err = _run(capsys, "sweep", "--preset", "sym2", "--eps", "1e-4")
    assert code == 2
    assert "amp" in json.loads(err)["message"]
    code, out, _ = _run(
        capsys, "sweep", "--preset", "sym2", "--eps", "1e-4",
        "--amp", "1,-0.7", "--w", "0.2,-0.1;0.15,0.25"
    )
    assert code == 0
    assert len(json.loads(out)["rows"]) == 2



@pytest.mark.parametrize(
    "amp, w, error, named",
    [
        ("1,2", "1,2", "DimensionMismatch", "w must be square"),
        ("nan,1", "0.2,-0.1;0.15,0.25", "NonPositiveRate", "amp must be finite"),
        ("1,-0.7", "0.2,inf;0.15,0.25", "NonPositiveRate", "w must be finite"),
    ],
)
def test_sweep_rejects_a_malformed_perturbation(capsys, amp, w, error, named):
    code, out, err = _run(capsys, "sweep", "--preset", "sym2", "--amp", amp, "--w", w)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == error
    assert named in payload["message"]

def test_equilibrium_in_finer_time_units(capsys, tmp_path):
    # sym2 with every rate 1000 times larger: the same equilibrium (5, 5)
    model = {"n": 2, "r": [1000.0, 1000.0], "K": 10.0, "mu": [[0.0, 100.0], [100.0, 0.0]],
             "interaction": {"kind": "uniform", "a": [1000.0, 1000.0]}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"model": model}))
    code, out, err = _run(capsys, "equilibrium", "--scenario", str(path))
    assert (code, err) == (0, "")
    assert np.allclose(json.loads(out)["v_bar"], 5.0, rtol=1e-12, atol=0.0)


def _readme_command_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("lvmut ")]


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_lines_run(capsys, line):
    code, _, err = _run(capsys, *shlex.split(line)[1:])
    assert (code, err) == (0, "")


def test_scenario_file_drives_simulation(capsys, tmp_path):
    model = get_preset("sym2").model
    scenario = {
        "model": model_to_dict(model),
        "initial": [8.0, 2.0],
        "t_end": 2.0,
        "record_every": 0.5,
    }
    path = tmp_path / "scenario.json"
    path.write_text(dumps_json(scenario))
    code, out, _ = _run(capsys, "simulate", "--scenario", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,v_1,v_2,total"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[1]) == 8.0


def test_scenario_sampler_runs_stability(capsys, tmp_path):
    scenario = {
        "model": model_to_dict(get_preset("sym2").model),
        "initial": {"count": 2, "seed": 3},
        "t_end": 100.0,
    }
    path = tmp_path / "scenario.json"
    path.write_text(dumps_json(scenario))
    code, out, _ = _run(
        capsys, "stability", "--scenario", str(path), "--tol", "1e-5"
    )
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_scenario_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "simulate", "--scenario", str(bad))
    assert code == 2
    missing = tmp_path / "missing.json"
    missing.write_text(dumps_json({"initial": [1.0, 2.0]}))
    code, _, err = _run(capsys, "simulate", "--scenario", str(missing))
    assert code == 2
    assert "model" in json.loads(err)["message"]


def _scenario(tmp_path, model=None, **keys):
    """Write a sym2 scenario, with model entries and top-level keys replaced."""
    obj = json.loads(dumps_json(model_to_dict(get_preset("sym2").model)))
    obj.update(model or {})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"model": obj, "initial": [8.0, 2.0], **keys}))
    return str(path)


@pytest.mark.parametrize("key", ["rtol", "t_end"])
@pytest.mark.parametrize("value", [None, "x"])
def test_scenario_scalars_must_be_numbers(capsys, tmp_path, key, value):
    path = _scenario(tmp_path, **{key: value})
    code, out, err = _run(capsys, "simulate", "--scenario", path)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert repr(key) in payload["message"]


def test_non_finite_interaction_in_scenario_is_usage_error(capsys, tmp_path):
    path = _scenario(tmp_path, {"interaction": {"kind": "uniform", "a": [float("nan"), 1.0]}})
    code, out, err = _run(capsys, "equilibrium", "--scenario", path)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "NonPositiveRate"
    assert "a must be finite" in payload["message"]


def _pert2_interaction(**entries):
    inter = json.loads(dumps_json(model_to_dict(get_preset("pert2").model)))["interaction"]
    return {"interaction": {**inter, **entries}}


@pytest.mark.parametrize(
    "command, model, keys, named",
    [
        ("simulate", {"n": [2]}, {}, "'n'"),
        ("simulate", {"K": [10.0]}, {}, "'K'"),
        ("simulate", {"interaction": 5}, {}, "interaction"),
        ("simulate", _pert2_interaction(eps=[1]), {}, "'eps'"),
        ("simulate", None, {"outputs": 5}, "'outputs'"),
        ("stability", None, {"initial": {"count": [1], "seed": 0}}, "'count'"),
        ("stability", None, {"initial": {"count": 3, "seed": -1}}, "seed"),
    ],
    ids=["n", "K", "interaction", "eps", "outputs", "count", "negative-seed"],
)
def test_scenario_values_of_the_wrong_type_are_usage_errors(
    capsys, tmp_path, command, model, keys, named
):
    path = _scenario(tmp_path, model, **keys)
    code, out, err = _run(capsys, command, "--scenario", path)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert named in payload["message"]


@pytest.mark.parametrize("state", [[float("nan"), 1.0], [0.0, 0.0], [-1.0, 2.0]])
@pytest.mark.parametrize("source", ["scenario", "flag"])
def test_bad_initial_state_is_a_usage_error_naming_its_source(capsys, tmp_path, source, state):
    if source == "scenario":
        argv = ["--scenario", _scenario(tmp_path, initial=state, t_end=1.0)]
        named = "key 'initial' in scenario"
    else:
        argv = ["--preset", "sym2", "--t-end", "1", "--v0=" + ",".join(map(str, state))]
        named = "--v0"
    code, out, err = _run(capsys, "simulate", *argv)
    assert (code, out) == (2, "")
    # one JSON object: no NonFiniteState (exit 3), no UserWarning line
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(named)


@pytest.mark.parametrize(
    "command, model, initial",
    [
        ("equilibrium", {"mu": [[0.0, 1e308], [1e308, 0.0]]}, [8.0, 2.0]),
        ("simulate", None, [1e308, 1e308]),
        ("simulate", {"r": [1e308, 1e308]}, [8.0, 2.0]),
    ],
)
def test_overflowing_inputs_fail_without_numpy_warnings(
    capsys, tmp_path, command, model, initial
):
    path = _scenario(tmp_path, model, initial=initial, t_end=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, command, "--scenario", path)
    assert (code, out) == (3, "")
    assert "error" in json.loads(err)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_simulate_with_atol_zero_keeps_a_zero_genotype_at_zero(capsys, tmp_path):
    # the genotype that starts at 0 has error scale 0 throughout; it used to
    # turn every error into NaN and end in StepSizeUnderflow (exit 3)
    model = {"n": 2, "r": [1.0, 2.0], "K": 10.0, "mu": [[0.0, 0.0], [0.0, 0.0]],
             "interaction": {"kind": "uniform", "a": [1.0, 1.0]}}
    path = _scenario(tmp_path, model, initial=[1.0, 0.0], t_end=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "simulate", "--scenario", path, "--atol", "0")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert float(rows[-1][0]) == 5.0
    assert all(row[2] == "0" for row in rows)


@pytest.mark.parametrize("flags", [
    ("--v0", "0,8", "--rtol", "1e-10", "--atol", "1e-22"),
    ("--v0", "1e-300,8", "--atol", "0"),
])
def test_simulate_from_a_zero_or_tiny_genotype_with_a_tiny_atol(capsys, tmp_path, flags):
    # the start-up step from these states fell below the step floor, and
    # the run ended in StepSizeUnderflow (exit 3) at t = 0; pert2 is
    # integrated (sym2 takes the closed form)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run(capsys, "simulate", "--preset", "pert2",
                            "--out", str(tmp_path), *flags)
    assert (code, err) == (0, "")


def test_simulate_at_an_unreachable_rtol_reports_a_finite_step(capsys, tmp_path):
    # both start-up norms overflow to inf; their NaN ratio used to be the
    # step reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "simulate", "--preset", "pert2", "--out",
                              str(tmp_path), "--rtol", "1e-300", "--atol", "0")
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "StepSizeUnderflow"
    step = float(re.match(r"step size (\S+) underflowed", payload["message"]).group(1))
    assert math.isfinite(step)


@pytest.mark.parametrize("v0, tolerances", [
    (None, ("--rtol", "1e-300", "--atol", "0")),
    ("0,8", ("--rtol", "1e-10", "--atol", "1e-22")),
    ("1e-300,8", ("--atol", "0")),
])
def test_tolerances_do_not_apply_to_an_exact_trajectory(capsys, monkeypatch, v0, tolerances):
    # sym2 takes the closed form: no step is taken, and tolerances that stop
    # or slow the integrator leave the samples as they are
    from lvmut import dynamics

    monkeypatch.setattr(dynamics, "_MAX_STEPS", 0)
    argv = ["simulate", "--preset", "sym2"] + ([] if v0 is None else ["--v0", v0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, *argv, *tolerances)
        assert (code, err) == (0, "")
        assert _run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("flags", [
    ("--rtol", "0", "--atol", "0"),
    ("--rtol", "nan"),
    ("--atol", "-1"),
    ("--t-end", "-1"),
    ("--t-end", "10", "--record-every", "1e-9"),
    ("--record-every", "inf"),
])
def test_a_bad_run_setting_fails_alike_exact_or_integrated(capsys, flags):
    # sym2 takes the closed form and pert2 is integrated
    exact = _run(capsys, "simulate", "--preset", "sym2", *flags)
    integrated = _run(capsys, "simulate", "--preset", "pert2", *flags)
    assert exact == integrated
    assert exact[0] == 2


_WIDE_BOX = {"interaction": {"kind": "crowding", "alpha": [[1.0, 0.0], [0.5, 1.0]]}}


def test_library_warning_is_one_warning_line(capsys, tmp_path):
    # the method read "homotopy" until crowding took pseudo-transient continuation
    code, out, err = _run(capsys, "equilibrium", "--scenario", _scenario(tmp_path, _WIDE_BOX))
    assert code == 0
    assert json.loads(out)["method"] == "continuation"
    assert err == "WARNING: no computable population bounds; using the wide fallback box\n"


# sym2's base under eps = 1, amp (10, -10) and w = 0.01 I: K lambda_min = 8
# <= eps max|amp| = 10, so the perturbed model has no computable box either
_WIDE_BOX_PERTURBED = {"interaction": {"kind": "perturbed", "a": [1.0, 1.0], "eps": 1.0,
                                       "amp": [10.0, -10.0], "w": [[0.01, 0.0], [0.0, 0.01]]}}


def test_library_warning_is_one_warning_line_after_a_fallback(capsys, tmp_path, monkeypatch):
    # the s = 1 Newton run binds the wide box, warns and fails; Psi-tc runs
    # in the same box, and the warning stays one line
    stage_one = equilibrium._stage_one

    def failing(model, system, v):
        stage_one(model, system, v)
        raise errors.InnerNoConvergence(1.0)

    monkeypatch.setattr(equilibrium, "_stage_one", failing)
    path = _scenario(tmp_path, _WIDE_BOX_PERTURBED)
    code, out, err = _run(capsys, "equilibrium", "--scenario", path)
    assert code == 0
    assert json.loads(out)["method"] == "continuation"
    assert err == "WARNING: no computable population bounds; using the wide fallback box\n"



def test_flat_shared_pressure_is_a_solver_error(capsys, tmp_path):
    flat = {"interaction": {"kind": "crowding", "alpha": [[0.0, 0.0], [0.5, 1.0]]}}
    code, out, err = _run(capsys, "equilibrium", "--scenario", _scenario(tmp_path, flat))
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "LeftAprioriBox"
    assert "flat along the Perron ray" in payload["message"]

def test_warning_is_dropped_on_an_error_exit(capsys, tmp_path):
    path = _scenario(tmp_path, _WIDE_BOX)
    code, out, err = _run(capsys, "rates", "--scenario", path, "--tail", "2")
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == "tail_fraction must lie in (0, 1]"


# the exit code each error class had when the command line kept them in tuples
_EXIT_CODES = {
    "LvmutError": 3,
    "DimensionMismatch": 2, "NonPositiveRate": 2, "NegativeMutation": 2,
    "WrongInteractionKind": 2, "NotIrreducible": 2, "NotSymmetric": 2,
    "ZeroInitialMass": 2, "NonPositiveReference": 2, "AsymmetricMutation": 2,
    "ZeroReference": 2,
    "Hypothesis3Violated": 1, "NotStationaryReference": 1, "KernelMismatch": 1,
    "OutOfTheoremScope": 1,
    "NoConvergence": 3, "SingularMatrix": 3, "StepSizeUnderflow": 3,
    "StepBudgetExceeded": 3, "NonFiniteState": 3, "NonPositivePerron": 3,
    "InnerNoConvergence": 3, "LeftAprioriBox": 3, "TooFewSamples": 3,
    "InsufficientTail": 3,
}


def test_every_error_class_keeps_its_exit_code(capsys, monkeypatch):
    classes = {
        name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.LvmutError)
    }
    assert sorted(classes) == sorted(_EXIT_CODES)
    for name, cls in classes.items():
        assert cls.exit_code == _EXIT_CODES[name], name
        exc = cls(0.5) if name in ("InnerNoConvergence", "LeftAprioriBox") else cls("boom")

        def raising():
            raise exc

        monkeypatch.setattr(cli, "catalog", raising)
        code, out, err = _run(capsys, "presets")
        assert (code, out) == (_EXIT_CODES[name], ""), name
        assert json.loads(err)["error"] == name


def _failed_eigh_on_crowd3(capsys, monkeypatch):
    # crowd3's symmetric R+M takes one eigh at set-up, named as the
    # eigensolver's failure
    def failing(mat):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    code, out, err = _run(capsys, "equilibrium", "--preset", "crowd3")
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "NoConvergence"
    assert payload["message"] == "eigensolver failed: Eigenvalues did not converge"


def test_failed_dense_kernel_is_a_solver_error(capsys, monkeypatch):
    _failed_eigh_on_crowd3(capsys, monkeypatch)


def test_failed_dense_kernel_is_a_solver_error_after_the_battery(capsys, monkeypatch):
    # the battery leaves other matrices in the eigh memo; crowd3's R+M
    # still meets the patched kernel
    acceptance.run_all()
    capsys.readouterr()
    assert linalg._EIGH_MEMO
    _failed_eigh_on_crowd3(capsys, monkeypatch)


def test_failed_eigh_on_an_asymmetric_model_is_a_solver_error(capsys, monkeypatch, tmp_path):
    # crowd3 with mu[0][1] raised from 0.05 to 0.06 (asymmetric, within h4):
    # its set-up takes eigh of R+M's symmetric part for the box, after which
    # the SVD finds R+M nonsingular
    def failing(mat):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    model = json.loads(dumps_json(model_to_dict(get_preset("crowd3").model)))
    model["mu"][0][1] = 0.06
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"model": model}))
    monkeypatch.setattr(np.linalg, "eigh", failing)
    code, out, err = _run(capsys, "equilibrium", "--scenario", str(path))
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "NoConvergence"
    assert payload["message"] == "eigensolver failed: Eigenvalues did not converge"


def test_unexpected_error_is_one_json_object_with_exit_1(capsys, monkeypatch):
    def failing():
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "catalog", failing)
    code, out, err = _run(capsys, "presets")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "RuntimeError", "message": "unexpected"}


def test_negative_v0_flag_rejected(capsys):
    code, _, err = _run(capsys, "simulate", "--preset", "sym2", "--v0=-1,2")
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"



@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "--preset", "sym2", "--rtol", "0", "--atol", "0", "--t-end", "1"],
         "rtol and atol"),
        (["stability", "--preset", "sym2", "--samples", "0"], "--samples"),
        (["sweep", "--preset", "sym2", "--amp", "1,1", "--w", "1,0;0"], "--w"),
        (["entropy", "--preset", "sym2", "--kernel", "poly:"], "--kernel"),
        (["simulate", "--preset", "sym2", "--t-end", "10", "--record-every", "1e-9"],
         "record_every"),
        (["sweep", "--preset", "pert2", "--eps", "1e-4,nan"], "eps_grid"),
        (["sweep", "--preset", "pert2", "--eps", "1e-4,inf"], "eps_grid"),
        (["stability", "--preset", "sym2", "--samples", "2", "--tol", "nan"], "tol"),
        (["stability", "--preset", "sym2", "--samples", "2", "--tol", "-1"], "tol"),
        # sym2's stability endpoints are exact, after the integrator's checks
        (["stability", "--preset", "sym2", "--t-end", "0"], "t_end must be positive"),
        (["stability", "--preset", "sym2", "--t-end", "nan"], "t_end must be positive"),
        (["stability", "--preset", "sym2", "--t-end", "inf"], "t_end must be positive"),
        (["stability", "--preset", "sym2", "--t-end", "-1"], "t_end must be positive"),
        (["simulate", "--preset", "sym2", "--v0", "1,2,3"], "v0 must have shape (2,)"),
        (["stability", "--preset", "sym2", "--seed", "-1"], "seed"),
    ],
)
def test_bad_flag_values_are_usage_errors(capsys, argv, flag):
    code, _, err = _run(capsys, *argv)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert flag in payload["message"]


@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_stability_bounds_its_samples(capsys, tmp_path, monkeypatch, source):
    # above 1,000 starts the entry check exits 2 naming the flag or key, and
    # nothing integrates
    from lvmut import analysis

    calls = []
    monkeypatch.setattr(analysis, "_flow_batch", lambda *args, **kwargs: calls.append(args))
    if source == "flag":
        argv, name = ["--preset", "pert2", "--samples", "1001"], "--samples"
    else:
        argv = ["--scenario", _scenario(tmp_path, initial={"count": 1001, "seed": 1})]
        name = "'count'"
    code, out, err = _run(capsys, "stability", *argv)
    assert (code, out, calls) == (2, "", [])
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert name in payload["message"] and "between 1 and 1000" in payload["message"]


@pytest.mark.parametrize("flag, value", [("--v0", "1,2"), ("--rtol", "1e-3"),
                                         ("--atol", "1e-3"), ("--record-every", "3")])
def test_stability_rejects_the_simulation_flags_it_would_ignore(capsys, flag, value):
    # stability draws its own starts at its own tolerances and grid
    code, out, err = _run(capsys, "stability", "--preset", "pert2", "--samples", "2",
                          flag, value)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "UsageError"
    assert flag in payload["message"]


@pytest.mark.parametrize("key, value", [("initial", [8.0, 2.0]), ("rtol", 1e-3),
                                        ("atol", 1e-3), ("record_every", 3.0)])
def test_stability_scenario_refuses_the_keys_it_would_ignore(capsys, tmp_path, key, value):
    # as with the flags: a concrete start, tolerances or a grid would be ignored
    path = _scenario(tmp_path, **{"initial": {"count": 2, "seed": 1}, key: value})
    code, out, err = _run(capsys, "stability", "--scenario", path)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert repr(key) in payload["message"]


def test_step_budget_is_a_solver_error(capsys, monkeypatch):
    from lvmut import dynamics

    # pert2's simulate attempts 21 steps
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 15)
    code, out, err = _run(capsys, "simulate", "--preset", "pert2")
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "StepBudgetExceeded"
    assert "15 attempted steps" in payload["message"]


def test_unreachable_horizon_is_a_solver_error(capsys, monkeypatch):
    from lvmut import dynamics

    # at a budget of 2,000 attempts pert2's capped step (near 5) falls far
    # short of t_end = 1e5, and the run says so before spending the budget
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 2000)
    code, out, err = _run(capsys, "simulate", "--preset", "pert2", "--t-end", "1e5")
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "StepBudgetExceeded"
    assert "2000 attempted steps" in payload["message"]
    assert "estimate" in payload["message"]


def test_verify_single_preset_filter(capsys):
    code, out, _ = _run(capsys, "verify", "--preset", "pert2")
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith("criterion")]
    assert len(lines) == 1
    assert "perturbation-bound" in lines[0]
    assert "PASS" in lines[0]


def test_verify_reports_known_failure(capsys):
    code, out, _ = _run(capsys, "verify", "--preset", "fit2asym")
    assert code == 1
    lines = [l for l in out.strip().split("\n") if l.startswith("criterion")]
    failing = [l for l in lines if "FAIL" in l]
    assert len(failing) == 1
    assert failing[0].startswith("criterion 06 lyapunov-descent: FAIL")
    assert all("PASS" in l for l in lines if l not in failing)


def test_verify_rejects_untouched_preset(capsys):
    code, _, err = _run(capsys, "verify", "--preset", "nsuch")
    assert code == 2
    assert "nsuch" in json.loads(err)["message"]


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = _run(capsys)
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_successive_calls_share_no_flags_or_defaults(capsys, tmp_path):
    # the parser is built once per process; every call parses afresh
    assert cli._build_parser() is cli._build_parser()
    out_dir = tmp_path / "stab"
    code, _, _ = _run(
        capsys, "stability", "--preset", "crowd3", "--samples", "2",
        "--t-end", "5", "--force", "--out", str(out_dir)
    )
    assert code == 0
    # neither --force nor --out carries over
    code, out, err = _run(
        capsys, "stability", "--preset", "crowd3", "--samples", "2", "--t-end", "5"
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "OutOfTheoremScope"
    # a flag of one call is not the default of the next
    code, _, _ = _run(capsys, "equilibrium", "--preset", "crowd3", "--method", "perron")
    assert code == 2
    code, out, _ = _run(capsys, "equilibrium", "--preset", "crowd3")
    assert code == 0
    # "homotopy" until crowding took pseudo-transient continuation
    assert json.loads(out)["method"] == "continuation"
    # an option's default comes back after a call that set it, or failed on it
    rates = ("rates", "--preset", "sym2", "--record-every", "0.1")
    code, default_out, _ = _run(capsys, *rates)
    assert code == 0
    code, tail_out, _ = _run(capsys, *rates, "--tail", "0.9")
    assert code == 0 and tail_out != default_out
    assert _run(capsys, *rates, "--tail", "x")[0] == 2
    assert _run(capsys, *rates) == (0, default_out, "")


def test_scenario_model_round_trips_through_cli(capsys, tmp_path):
    model = get_preset("crowd3").model
    path = tmp_path / "crowd.json"
    path.write_text(dumps_json({"model": model_to_dict(model)}))
    code, out, _ = _run(capsys, "equilibrium", "--scenario", str(path))
    assert code == 0
    payload = json.loads(out)
    v_bar = np.array(payload["v_bar"])
    assert np.all(v_bar > 0)
    vals = interaction_values(model, v_bar)
    assert vals.shape == (3,)


def _vector_flag(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _in_units(tmp_path, model: dict, v0, t_end, time=1.0, population=1.0):
    """The scenario of model (model_to_dict's keys), v0 and t_end in other
    units: time divided by `time` (r, mu, a and amp times it, t_end over
    it) and populations times `population` (K and v0 times it, amp times it
    and w over it), with the flags that carry v0 and a sweep's amp and w."""
    model = json.loads(dumps_json(model))
    inter = model["interaction"]
    model["r"] = (np.array(model["r"]) * time).tolist()
    model["mu"] = (np.array(model["mu"]) * time).tolist()
    model["K"] *= population
    if "a" in inter:
        inter["a"] = (np.array(inter["a"]) * time).tolist()
    if "amp" in inter:
        inter["amp"] = (np.array(inter["amp"]) * time * population).tolist()
        inter["w"] = (np.array(inter["w"]) / population).tolist()
    path = tmp_path / f"{time:g}-{population:g}.json"
    path.write_text(json.dumps({"model": model, "t_end": t_end / time}))
    flags = {"v0": ["--v0", _vector_flag(np.asarray(v0) * population)], "sweep": []}
    if inter["kind"] == "uniform":
        # pert2's bump on each pair of genotypes
        bump = get_preset("pert2").model.interaction
        n = model["n"]
        amp = np.tile(bump.amp, n // 2) * time * population
        w = np.kron(np.eye(n // 2), bump.w) / population
        flags["sweep"] = ["--amp", _vector_flag(amp),
                          "--w", ";".join(_vector_flag(row) for row in w)]
    return str(path), flags


def _exit_codes(capsys, path, flags, commands):
    extra = {"simulate": flags["v0"], "entropy": [*flags["v0"], "--kernel", "quadratic"],
             "rates": flags["v0"], "stability": ["--samples", "2", "--seed", "3"],
             "sweep": flags["sweep"]}
    return {command: _run(capsys, command, "--scenario", path, *extra.get(command, []))[0]
            for command in commands}


_MODEL_COMMANDS = ("validate", "simulate", "equilibrium", "spectrum", "entropy", "rates",
                   "stability", "sweep")


@pytest.mark.parametrize("name", ["sym2", "fit2asym", "mut4", "pert2", "crowd3"])
def test_every_command_keeps_its_exit_code_in_other_units(capsys, tmp_path, name):
    # time in thousandths, and populations in units of 1e-9: the flow is
    # the same up to the change of units, so no command may pass or fail
    # by the units alone (entropy's stationarity test was absolute, and
    # exited 1 on the solver's own reference at population x 1e9)
    preset = get_preset(name)
    codes = [
        _exit_codes(capsys, *_in_units(tmp_path, model_to_dict(preset.model), preset.v0,
                                       preset.t_end, time, population), _MODEL_COMMANDS)
        for time, population in ((1.0, 1.0), (1e3, 1.0), (1.0, 1e9))
    ]
    assert codes[1] == codes[0]
    assert codes[2] == codes[0]
    assert codes[0]["entropy"] == 0


@pytest.mark.parametrize("time", [1.0, 1e3, 1e5])
def test_a_symmetric_model_stays_symmetric_in_other_time_units(capsys, tmp_path, time):
    # mu is symmetric within 1e-12 of its largest entry in any time unit;
    # R+M's spectrum used an absolute 1e-12 and took it for asymmetric at x 1e3
    r = [1.0, 1.5]
    model = {"n": 2, "r": r, "K": 10.0, "mu": [[0.0, 0.1], [0.1 * (1.0 + 4e-13), 0.0]],
             "interaction": {"kind": "uniform", "a": r}}
    path, flags = _in_units(tmp_path, model, [8.0, 2.0], 50.0, time)
    commands = ("validate", "simulate", "spectrum", "entropy", "rates", "stability")
    assert _exit_codes(capsys, path, flags, commands) == dict.fromkeys(commands, 0)
