"""In-memory spans around lvmut's public calls, and the per-layer numbers
derived from them.

The tracer never edits lvmut's source. While it is installed it replaces
each traced public function, in every lvmut module that binds it, with a
wrapper that records a span: name, start, end, parent span, op id, the
problem size n and the work counts read from the call's arguments and
return value. Calls between lvmut modules go through those module-level
names, so nested calls (the Jacobi sweep inside `spectral_gap`, the
integrations inside an acceptance criterion) become child spans.
Functions called once per sample inside another traced call (`rhs`,
`residual`, `dissipation`, `decompose`) stay untraced: their time counts
as self time of the caller.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

from lvmut.equilibrium import HomotopyConfig

LAYERS = (
    "model", "linalg", "dynamics", "equilibrium", "entropy",
    "analysis", "serialize", "acceptance", "cli",
)

# Sizes of the ladder rungs; size-resolved metrics are reported for these.
SIZES = (4, 8, 16, 32, 64, 128)

# Functions whose busy time is reported per problem size n.
SIZED = (
    "linalg.symmetric_spectrum",
    "analysis.spectral_gap",
    "equilibrium.equilibrium_homotopy",
    "linalg.solve_linear",
    "linalg.perron_eigenpair",
    "equilibrium.equilibrium_uniform",
    "model.point_mutation_matrix",
)

# Functions whose total busy time per pass is reported.
TOTALS = (
    "dynamics.integrate",
    "entropy.identity_residual",
    "entropy.lyapunov_descent",
    "analysis.convergence_rate",
    "serialize.trajectory_csv",
)

COMMANDS = (
    "validate", "simulate", "equilibrium", "spectrum", "entropy",
    "rates", "stability", "sweep", "presets",
)
CRITERIA = tuple(range(1, 13))


def _n_of_matrix(args, kwargs):
    return len(args[0])


def _n_of_model(args, kwargs):
    return args[0].n


def _samples(traj):
    return {"samples": int(traj.times.size)}


def _integrate_counts(args, kwargs, result):
    steps = result.accepted_steps + result.rejected_steps
    return {
        "calls": 1,
        "steps_accepted": result.accepted_steps,
        "steps_rejected": result.rejected_steps,
        # one FSAL start-up evaluation, then six fresh stages per attempted step
        "rhs_evals_computed": 1 + 6 * steps,
        "samples": int(result.times.size),
    }


def _homotopy_stages(args, kwargs, result):
    return {"stages": len(result.homotopy_path) - 1}


def _homotopy_stages_failed(args, kwargs, exc):
    s = getattr(exc, "s", None)
    if s is None:
        return {}
    config = (args[1] if len(args) > 1 else kwargs.get("config")) or HomotopyConfig()
    return {"stages": round(s * (config.s_steps - 1))}


@dataclass(frozen=True)
class Traced:
    """How to name, size and count one traced public function."""

    module: str
    function: str
    size: object = None            # (args, kwargs) -> n
    counts: object = None          # (args, kwargs, result) -> dict
    counts_on_error: object = None  # (args, kwargs, exc) -> dict


TRACED = (
    Traced("model", "point_mutation_matrix", size=lambda a, k: 2 ** a[0]),
    Traced("model", "build_model", size=lambda a, k: a[0]),
    Traced("model", "validate", size=_n_of_model),
    Traced("linalg", "perron_eigenpair", size=_n_of_matrix,
           counts=lambda a, k, r: {"iterations": r.iterations}),
    Traced("linalg", "symmetric_spectrum", size=_n_of_matrix),
    Traced("linalg", "solve_linear", size=_n_of_matrix),
    Traced("dynamics", "integrate", size=_n_of_model, counts=_integrate_counts),
    Traced("dynamics", "closed_form_uniform_linear", size=_n_of_model),
    Traced("equilibrium", "equilibrium_uniform", size=_n_of_model),
    Traced("equilibrium", "equilibrium_homotopy", size=_n_of_model,
           counts=_homotopy_stages, counts_on_error=_homotopy_stages_failed),
    Traced("entropy", "identity_residual", size=_n_of_model,
           counts=lambda a, k, r: _samples(a[1])),
    Traced("entropy", "lyapunov_descent", size=_n_of_model,
           counts=lambda a, k, r: _samples(a[1])),
    Traced("analysis", "spectral_gap", size=_n_of_model),
    Traced("analysis", "convergence_rate",
           counts=lambda a, k, r: _samples(a[0])),
    Traced("analysis", "global_stability_experiment", size=_n_of_model),
    Traced("analysis", "perturbation_sweep", size=_n_of_model),
    Traced("serialize", "trajectory_csv",
           counts=lambda a, k, r: {"bytes": len(r.encode())}),
    Traced("serialize", "entropy_csv"),
    Traced("serialize", "sweep_csv"),
    Traced("serialize", "dumps_json"),
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    n: int | None = None
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "op": self.op,
            "n": self.n, "counts": self.counts, "error": self.error,
        }


class Tracer:
    """Collects spans in memory; `install` patches lvmut, `uninstall` restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op: str | None = None

    def open(self, name: str, n: int | None = None) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.op, n)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn, *args):
        """Run fn inside a span named `name`."""
        span = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def _wrap(self, spec: Traced, fn):
        name = f"{spec.module}.{spec.function}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = spec.size(args, kwargs) if spec.size else None
            span = self.open(name, n)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                if spec.counts_on_error:
                    span.counts = spec.counts_on_error(args, kwargs, exc)
                raise
            finally:
                self.close(span)
            if spec.counts:
                span.counts = spec.counts(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("lvmut")] + [
            importlib.import_module(f"lvmut.{name}") for name in LAYERS + ("presets",)
        ]
        for spec in TRACED:
            original = getattr(importlib.import_module(f"lvmut.{spec.module}"), spec.function)
            wrapper = self._wrap(spec, original)
            for mod in modules:
                if getattr(mod, spec.function, None) is original:
                    self._patched.append((mod, spec.function, original))
                    setattr(mod, spec.function, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run one after another on one thread, so their
    intervals do not overlap and their durations add up.
    """
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one pass, from the spans recorded during it."""
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    own = self_times(spans)
    for s in spans:
        duration = s.end - s.start
        if s.layer in LAYERS:
            add(f"{s.layer}.self_s", own[s.sid])
        if s.name in SIZED and s.n in SIZES:
            add(f"{s.name}.busy_s.n{s.n}", duration)
            for key, value in s.counts.items():
                add(f"{s.name}.{key}.n{s.n}", value)
        if s.name in TOTALS:
            add(f"{s.name}.busy_s", duration)
            for key, value in s.counts.items():
                add(f"{s.name}.{key}", value)
        if s.name.startswith(("acceptance.c", "cli.")):
            add(f"{s.name}.busy_s", duration)

    steps = out.get("dynamics.integrate.steps_accepted", 0) + out.get(
        "dynamics.integrate.steps_rejected", 0)
    if steps:
        out["dynamics.integrate.us_per_step"] = (
            1e6 * out["dynamics.integrate.busy_s"] / steps)
    for name, samples in (
        ("entropy.identity_residual", "entropy.identity_residual.samples"),
        ("entropy.lyapunov_descent", "entropy.lyapunov_descent.samples"),
        ("analysis.convergence_rate", "analysis.convergence_rate.samples"),
    ):
        if out.get(samples):
            out[f"{name}.us_per_sample"] = 1e6 * out[f"{name}.busy_s"] / out[samples]
    return out


def exact_counters(metrics: dict[str, float]) -> dict[str, float]:
    """The work counts in a pass's metrics: these repeat exactly for one seed."""
    quantities = ("calls", "steps_accepted", "steps_rejected", "rhs_evals_computed",
                  "samples", "iterations", "stages", "bytes")
    return {
        k: v for k, v in metrics.items()
        if len(k.split(".")) > 2 and k.split(".")[2] in quantities
    }


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = []
    for name in SIZED:
        quantities = ["busy_s"]
        if name == "linalg.perron_eigenpair":
            quantities.append("iterations")
        if name == "equilibrium.equilibrium_homotopy":
            quantities.append("stages")
        names += [f"{name}.{q}.n{n}" for q in quantities for n in SIZES]
    names += [
        "dynamics.integrate.busy_s", "dynamics.integrate.calls",
        "dynamics.integrate.steps_accepted", "dynamics.integrate.steps_rejected",
        "dynamics.integrate.rhs_evals_computed", "dynamics.integrate.us_per_step",
        "entropy.identity_residual.busy_s", "entropy.identity_residual.samples",
        "entropy.identity_residual.us_per_sample",
        "entropy.lyapunov_descent.busy_s", "entropy.lyapunov_descent.us_per_sample",
        "analysis.convergence_rate.busy_s", "analysis.convergence_rate.us_per_sample",
        "serialize.trajectory_csv.busy_s", "serialize.trajectory_csv.bytes",
    ]
    names += [f"acceptance.c{k:02d}.busy_s" for k in CRITERIA]
    names += [f"cli.{c}.busy_s" for c in COMMANDS]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names.append("trace.overhead_s")
    return names
