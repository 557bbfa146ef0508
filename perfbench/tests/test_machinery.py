"""Tests of the benchmark's own machinery: span arithmetic, oracles, inputs.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import lvmut
import speed
import tracing
import workloads
from lvmut.acceptance import CriterionResult
from workloads import Cli, Ensemble, Ladder, Op, Verify


def _span(sid, name, start, end, parent):
    return tracing.Span(sid, name, start, end, parent, op="op0")


def test_self_time_of_a_span_nest():
    spans = [
        _span(0, "op.rung", 0.0, 10.0, None),
        _span(1, "analysis.spectral_gap", 1.0, 4.0, 0),
        _span(2, "linalg.symmetric_spectrum", 2.0, 3.5, 1),
        _span(3, "linalg.solve_linear", 5.0, 9.0, 0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 1.5, 2: 1.5, 3: 4.0})
    metrics = tracing.pass_metrics(spans)
    assert metrics["analysis.self_s"] == pytest.approx(1.5)
    assert metrics["linalg.self_s"] == pytest.approx(5.5)


def test_tracer_nests_calls_and_restores_lvmut():
    preset = lvmut.get_preset("mut4")
    original = lvmut.analysis.symmetric_spectrum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        eq = lvmut.equilibrium_uniform(preset.model)
        lvmut.spectral_gap(preset.model, eq.v_bar)
    finally:
        tracer.uninstall()
    assert lvmut.analysis.symmetric_spectrum is original
    names = [s.name for s in tracer.spans]
    assert names == ["equilibrium.equilibrium_uniform", "linalg.perron_eigenpair",
                     "analysis.spectral_gap", "linalg.symmetric_spectrum"]
    assert tracer.spans[1].parent == 0 and tracer.spans[3].parent == 2
    metrics = tracing.pass_metrics(tracer.spans)
    assert metrics["linalg.perron_eigenpair.iterations.n4"] > 0
    assert set(tracing.exact_counters(metrics)) == {"linalg.perron_eigenpair.iterations.n4"}


def test_rescale_scales_by_the_loop_speed():
    assert speed.rescale(1.0, [speed.REFERENCE_S] * 3) == pytest.approx(1.0)
    assert speed.rescale(1.0, [2 * speed.REFERENCE_S]) == pytest.approx(0.5)


def test_gauge_samples_during_an_op_and_keeps_loops_out_of_its_time():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    gauge = speed.Gauge()
    rec = workloads.Recorder(gauge=gauge)
    start = time.perf_counter()
    rec.op("busy", "op.busy", busy, 0.2)
    wall = time.perf_counter() - start
    (op,) = rec.ops
    assert op.output == "done" and op.rescaled > 0.0
    ticks = len(gauge._window) - 2
    assert ticks >= 3
    assert op.seconds == pytest.approx(wall - gauge.loop_s, abs=0.01)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_every_per_layer_name_is_unique():
    names = tracing.per_layer_names()
    assert len(names) == len(set(names)) <= 128


@pytest.mark.parametrize("workload", [Ensemble, Ladder, Cli])
def test_seed_changes_inputs_not_ops(workload, tmp_path):
    one = workload.make_inputs(1, tmp_path)
    two = workload.make_inputs(2, tmp_path)
    assert workload.op_ids(one) == workload.op_ids(two)
    assert repr(one) != repr(two)


def test_verify_oracle_rejects_a_passing_criterion_06():
    good = CriterionResult(6, "lyapunov-descent", False,
                           "max F uptick 0 (tol 1e-9); floor F >= log(1/max v_bar): VIOLATED, mut4")
    assert Verify.check([], Op("c06", 0.0, good)) == []
    flipped = dataclasses.replace(good, passed=True)
    assert Verify.check([], Op("c06", 0.0, flipped))
    rising = dataclasses.replace(good, detail=good.detail.replace("uptick 0 ", "uptick 2.5e-03 "))
    assert Verify.check([], Op("c06", 0.0, rising))
    failed = CriterionResult(3, "mass-law", False, "worst 1")
    assert Verify.check([], Op("c03", 0.0, failed))


def test_ladder_oracle_rejects_a_shifted_equilibrium(tmp_path):
    inputs = Ladder.make_inputs(1, tmp_path)[:1]
    rec = workloads.Recorder()
    Ladder.run_pass(inputs, rec)
    (op,) = rec.ops
    assert Ladder.check(inputs, op) == []
    out = dict(op.output)
    out["eq"] = dataclasses.replace(out["eq"], v_bar=out["eq"].v_bar * 1.001)
    mismatches = Ladder.check(inputs, Op(op.op_id, 0.0, out))
    assert mismatches and not any(m.known for m in mismatches)


def test_ladder_oracle_knows_only_the_recorded_box_exits(tmp_path):
    inputs = Ladder.make_inputs(1, tmp_path)[:1]
    rec = workloads.Recorder()
    Ladder.run_pass(inputs, rec)
    out = dict(rec.ops[0].output, homotopy=lvmut.errors.LeftAprioriBox(0.2))
    (recorded,) = Ladder.check(inputs, Op("n32", 0.0, out))
    assert recorded.known
    earlier = dict(out, homotopy=lvmut.errors.LeftAprioriBox(0.15))
    (other_s,) = Ladder.check(inputs, Op("n32", 0.0, earlier))
    assert not other_s.known
    (other_rung,) = Ladder.check(inputs, Op("n4", 0.0, out))
    assert not other_rung.known


def test_ensemble_oracle_rejects_a_shifted_end_state_and_a_truncated_csv(tmp_path):
    inputs = [m for m in Ensemble.make_inputs(1, tmp_path) if m.name == "sym2"]
    model = inputs[0].model
    eq = lvmut.equilibrium_uniform(model)
    out = workloads._job(model, eq, inputs[0].starts[0])
    assert Ensemble.check(inputs, Op("sym2.start0", 0.0, out)) == []
    shifted = np.array(out["traj"].states)
    shifted[-1] += 1e-3
    moved = dict(out, traj=dataclasses.replace(out["traj"], states=shifted))
    assert Ensemble.check(inputs, Op("sym2.start0", 0.0, moved))
    cut = dict(out, csv=out["csv"][: len(out["csv"]) // 2])
    assert Ensemble.check(inputs, Op("sym2.start0", 0.0, cut))


def _cli_op(inputs, op_id):
    argv = dict(inputs.ops)[op_id]
    Cli.reset(inputs)
    return Op(op_id, 0.0, workloads._run_main(argv))


def test_cli_oracle_rejects_a_flipped_exit_code(tmp_path):
    inputs = Cli.make_inputs(1, tmp_path)
    op = _cli_op(inputs, "stability.crowd3")
    assert op.output[0] == 1 and Cli.check(inputs, op) == []
    code, out, err = op.output
    assert Cli.check(inputs, Op(op.op_id, 0.0, (0, out, err)))


def test_cli_oracle_rejects_a_truncated_artifact(tmp_path):
    inputs = Cli.make_inputs(1, tmp_path)
    op = _cli_op(inputs, "simulate.sym2")
    assert Cli.check(inputs, op) == []
    path = Path(inputs.out_root) / "simulate.sym2" / "trajectory.csv"
    text = path.read_text()
    path.write_text(text[: len(text) - 7])
    assert Cli.check(inputs, op)
