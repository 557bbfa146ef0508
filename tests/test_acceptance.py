"""Acceptance battery: each criterion prints one pass/fail line and asserts.

Criterion 6 is expected to fail: its floor clause demands
F >= log(1/max_i vbar_i) on every trajectory, but for capacities above one
the reachable lower bound is -log(sum_i vbar_i^2), which lies below that
floor. The mut4 run documents the gap; the monotonicity clause holds.

Criteria 01, 05, 06, 08 and 10 read the exact flow of their uniform
presets; the integrator keeps its own check of them here, line for line.
"""
import pytest

from lvmut import acceptance, dynamics
from lvmut.acceptance import criterion_count, criterion_names, run_criterion

_CASES = [
    (1, "positivity-floor"),
    (2, "equilibrium-values"),
    (3, "mass-law"),
    (4, "global-stability"),
    (5, "entropy-identity"),
    (6, "lyapunov-descent"),
    (7, "spectral-gap"),
    (8, "exponential-rate"),
    (9, "closed-form"),
    (10, "envelopes"),
    (11, "homotopy-solver"),
    (12, "perturbation-bound"),
]


def test_registry_shape():
    assert criterion_count() == 12
    names = criterion_names()
    assert len(set(names)) == 12
    assert [num for num, _ in _CASES] == list(range(1, 13))
    assert [name for _, name in _CASES] == names


@pytest.mark.parametrize("number,name", _CASES, ids=[f"{n:02d}-{s}" for n, s in _CASES])
def test_criterion(number, name):
    res = run_criterion(number)
    assert res.number == number
    assert res.name == name
    print(_line(res))
    assert res.passed, res.detail


def _line(res) -> str:
    status = "PASS" if res.passed else "FAIL"
    return f"criterion {res.number:02d} {res.name}: {status} - {res.detail}"


# each line as the criterion printed it when it integrated its trajectories
# with DOP853 at its own rtol, atol and grid; criterion 10's slack moved from
# -1.847e-13 to -5.116e-13 when the field became (R+M)v - (Psi(v)/K)v, and
# to -3.979e-13 when each stage's argument became one product [1, h a_s] @
# [v; k_0..]
_INTEGRATED_LINES = {
    1: "criterion 01 positivity-floor: PASS - min recorded component 0.000e+00, "
       "worst mass-floor slack 8.750e-01",
    5: "criterion 05 entropy-identity: PASS - residual 1.530e-07 at 1000 samples "
       "(tol 1e-4), step-halving ratio 3.99 (need >= 3)",
    6: "criterion 06 lyapunov-descent: FAIL - max F uptick 8.882e-16 (tol 1e-9); "
       "floor F >= log(1/max v_bar): VIOLATED, mut4: min F -7.8240 vs "
       "log(1/max v_bar) -3.2189",
    8: "criterion 08 exponential-rate: PASS - fitted rate -0.4000 vs -0.95*c1 = "
       "-0.1900, r^2 1.000000 (need 0.999), max interior slope of "
       "log(E(h)/beta^2) -0.4000 vs -0.2000",
    10: "criterion 10 envelopes: PASS - worst sandwich slack -3.979e-13 "
        "(need >= -1e-8)",
}


@pytest.mark.parametrize("number", sorted(_INTEGRATED_LINES))
def test_integrator_keeps_the_lines_of_the_exact_criteria(number, monkeypatch):
    monkeypatch.setattr(acceptance, "_flow_batch", dynamics.integrate_batch)
    assert _line(run_criterion(number)) == _INTEGRATED_LINES[number]


def test_only_criteria_09_and_12_integrate(monkeypatch):
    real_batch, bind = dynamics.integrate_batch, dynamics._vector_field
    real_run = acceptance.run_criterion
    running = []
    calls = []
    trajs = []
    field_calls = []

    def spy(model, starts, *args, **kwargs):
        calls.append((running[-1], len(starts)))
        out = real_batch(model, starts, *args, **kwargs)
        trajs.extend(out)
        return out

    def run(number):
        running.append(number)
        return real_run(number)

    def counted_bind(model):
        field = bind(model)

        def counted(v):
            field_calls.append(None)
            return field(v)

        return counted

    # a name bound in acceptance itself would run past the spy
    assert not hasattr(acceptance, "integrate_batch")
    monkeypatch.setattr(dynamics, "integrate_batch", spy)
    monkeypatch.setattr(dynamics, "_vector_field", counted_bind)
    monkeypatch.setattr(acceptance, "run_criterion", run)
    results = acceptance.run_all()
    assert [res.number for res in results] == list(range(1, 13))
    assert [res.number for res in results if not res.passed] == [6]
    # criterion 09 integrates sym2 and mut4 from one start each; criterion
    # 12 integrates five starts on each of its four perturbed models, all
    # 20 in one lockstep batch with one model per row
    assert calls == [(9, 1), (9, 1), (12, 20)]
    # the battery's work: the calls of the field that dynamics binds (the
    # closed form's check of each exact start included) and the steps its
    # trajectories accepted and rejected
    accepted = sum(traj.accepted_steps for traj in trajs)
    rejected = sum(traj.rejected_steps for traj in trajs)
    assert (len(field_calls), accepted, rejected) == (1366, 1128, 0)
