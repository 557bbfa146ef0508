"""The four benchmark workloads: inputs from a seed, one pass of ops, oracles.

Each workload is single process and closed loop: an op starts when the
previous one returns. `make_inputs(seed, out_dir)` builds everything lvmut
receives; `run_pass` calls lvmut's public functions through a `Recorder`,
which times each op and keeps its output; `check` compares one op's output
with the oracle after the pass, outside the timed region.

Why these four (see also BENCHMARK.json):
  verify   - the acceptance battery; Dormand-Prince stepping at n <= 4.
  ensemble - the same integrator plus per-sample diagnostics and CSV output.
  ladder   - solvers growing with n = 4..128 and no time integration.
  cli      - many short in-process CLI calls, where fixed per-call cost shows.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

import lvmut as lv
from lvmut import acceptance, cli, errors, serialize


class Mismatch(NamedTuple):
    """An op outcome that differs from the oracle.

    `known` marks a defect recorded at the parent commit: it counts as a
    failed op but does not make the run incorrect.
    """

    reason: str
    known: bool = False


@dataclass
class Op:
    op_id: str
    seconds: float
    output: object
    rescaled: float | None = None   # seconds at the reference machine speed


@dataclass
class Recorder:
    """Times each op and step of a pass and keeps each op's output for the oracle.

    With a `speed.Gauge`, each item also gets its time rescaled to the
    reference machine speed, and calibration time is kept out of its time.
    """

    tracer: object = None
    gauge: object = None
    ops: list[Op] = field(default_factory=list)
    steps: list[Op] = field(default_factory=list)

    def _call(self, span_name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(span_name, fn, *args)

    def _timed(self, item_id: str, span_name: str, fn, args, catch) -> Op:
        if self.tracer is not None:
            self.tracer.op = item_id
        if self.gauge is not None:
            self.gauge.begin()
        start = time.perf_counter()
        try:
            output = self._call(span_name, fn, *args)
        except catch as exc:
            output = exc
        finally:
            if self.gauge is not None:
                self.gauge.stop()
        seconds = time.perf_counter() - start
        if self.gauge is None:
            return Op(item_id, seconds, output)
        own, rescaled = self.gauge.end(seconds)
        return Op(item_id, own, output, rescaled)

    def op(self, op_id: str, span_name: str, fn, *args):
        self.ops.append(self._timed(op_id, span_name, fn, args, errors.LvmutError))

    def step(self, step_id: str, span_name: str, fn, *args):
        """Work a pass needs that is not an op of its own (not in op latency)."""
        item = self._timed(step_id, span_name, fn, args, ())
        self.steps.append(replace(item, output=None))
        return item.output


def _raised(output) -> list[Mismatch]:
    if isinstance(output, Exception):
        return [Mismatch(f"raised {type(output).__name__}: {output}")]
    return []


# CSV columns that hold text rather than numbers.
_TEXT_COLUMNS = {"failed", "error", "v_bar"}


def _csv_problems(text: str, expect_rows: int | None = None) -> list[Mismatch]:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or not text.endswith("\n"):
        return [Mismatch("CSV has no data rows or is cut short")]
    header = rows[0]
    if expect_rows is not None and len(rows) - 1 != expect_rows:
        return [Mismatch(f"CSV has {len(rows) - 1} rows, expected {expect_rows}")]
    for row in rows[1:]:
        if len(row) != len(header):
            return [Mismatch(f"CSV row has {len(row)} cells, header has {len(header)}")]
        for name, cell in zip(header, row):
            if name in _TEXT_COLUMNS or cell == "":
                continue
            try:
                float(cell)
            except ValueError:
                return [Mismatch(f"CSV cell {cell!r} in column {name} is not a number")]
    return []


# -- verify ---------------------------------------------------------------------
# The criteria fix their own seeds (they are the correctness contract and
# are never re-seeded), so the workload seed does not enter this workload.

_C06_FLOOR = "floor F >= log(1/max v_bar): VIOLATED"
_C06_UPTICK = re.compile(r"max F uptick (\S+) \(tol 1e-9\)")


class Verify:
    name = "verify"

    @staticmethod
    def make_inputs(seed: int, out_dir: Path) -> list[int]:
        return list(range(1, acceptance.criterion_count() + 1))

    @staticmethod
    def op_ids(inputs) -> list[str]:
        return [f"c{k:02d}" for k in inputs]

    @staticmethod
    def run_pass(inputs, rec: Recorder) -> None:
        for k in inputs:
            rec.op(f"c{k:02d}", f"acceptance.c{k:02d}", acceptance.run_criterion, k)

    @staticmethod
    def check(inputs, op: Op) -> list[Mismatch]:
        res = op.output
        if res.number == 6:
            if res.passed:
                return [Mismatch("criterion 06 passed; its floor is expected to fail")]
            if _C06_FLOOR not in res.detail:
                return [Mismatch(f"criterion 06 failed without the floor violation: {res.detail}")]
            # only the floor is expected to fail; F must still descend
            uptick = _C06_UPTICK.search(res.detail)
            if uptick is None or not float(uptick.group(1)) <= 1e-9:
                return [Mismatch(f"criterion 06 F is not monotone: {res.detail}")]
            return []
        if not res.passed:
            return [Mismatch(f"criterion {res.number:02d} failed: {res.detail}")]
        return []


# -- ensemble -------------------------------------------------------------------

_ENSEMBLE_PRESETS = ("sym2", "fit2asym", "mut4", "pert2", "crowd3")
_HYPERCUBE_LOCI = (3, 4)   # n = 8 and 16
_STARTS = 4
_T_END = 40.0
_CLOSED_FORM_REL = 1e-6    # criterion 09's bound


@dataclass(frozen=True)
class EnsembleModel:
    name: str
    model: lv.Model
    starts: np.ndarray  # (_STARTS, n)


def _has_closed_form(model: lv.Model) -> bool:
    return isinstance(model.interaction, lv.UniformLinear) and lv.mutation_symmetric(model)


def _solve(model: lv.Model):
    if isinstance(model.interaction, lv.UniformLinear):
        eq = lv.equilibrium_uniform(model)
    else:
        eq = lv.equilibrium_homotopy(model)
    return eq, lv.spectral_gap(model, eq.v_bar)


def _job(model: lv.Model, eq, v0: np.ndarray) -> dict:
    traj = lv.integrate(model, v0, _T_END, rtol=1e-10, atol=1e-12, record_every=0.1)
    rate = lv.convergence_rate(traj, eq.v_bar)
    identity = lv.identity_residual(model, traj, eq.v_bar, lv.EntropyKernel.quadratic())
    descent = None
    if isinstance(model.interaction, lv.UniformLinear):
        descent = lv.lyapunov_descent(model, traj, eq.v_bar)
    text = serialize.trajectory_csv(traj)
    return {"traj": traj, "rate": rate, "identity": identity,
            "descent": descent, "csv": text}


class Ensemble:
    name = "ensemble"

    @staticmethod
    def make_inputs(seed: int, out_dir: Path) -> list[EnsembleModel]:
        rng = np.random.default_rng(seed)
        models = [lv.get_preset(name).model for name in _ENSEMBLE_PRESETS]
        names = list(_ENSEMBLE_PRESETS)
        for loci in _HYPERCUBE_LOCI:
            n = 2 ** loci
            r = rng.uniform(0.8, 1.2, size=n)
            mu = lv.point_mutation_matrix(loci, 0.02)
            models.append(lv.build_model(n, r, 10.0, mu, lv.uniform_linear(r)))
            names.append(f"hypercube{n}")
        return [
            EnsembleModel(name, m, rng.uniform(0.0, 2.0 * m.big_k, size=(_STARTS, m.n)))
            for name, m in zip(names, models)
        ]

    @staticmethod
    def op_ids(inputs) -> list[str]:
        return [f"{m.name}.start{j}" for m in inputs for j in range(_STARTS)]

    @staticmethod
    def run_pass(inputs, rec: Recorder) -> None:
        for m in inputs:
            eq, _ = rec.step(f"{m.name}.solve", "op.solve", _solve, m.model)
            for j, v0 in enumerate(m.starts):
                rec.op(f"{m.name}.start{j}", "op.job", _job, m.model, eq, v0)

    @staticmethod
    def check(inputs, op: Op) -> list[Mismatch]:
        bad = _raised(op.output)
        if bad:
            return bad
        name, start = op.op_id.rsplit(".start", 1)
        spec = next(m for m in inputs if m.name == name)
        out = op.output
        states = out["traj"].states
        found = []
        if not np.all(np.isfinite(states)) or float(np.min(states)) < 0.0:
            found.append(Mismatch("trajectory has a negative or non-finite state"))
        for key, value in (("identity residual", out["identity"]),
                           ("fitted rate", out["rate"].fitted_rate_eh)):
            if not np.isfinite(value):
                found.append(Mismatch(f"{key} is not finite"))
        found += _csv_problems(out["csv"], expect_rows=len(out["traj"].times))
        if _has_closed_form(spec.model):
            v0 = spec.starts[int(start)]
            exact = lv.closed_form_uniform_linear(spec.model, v0, [_T_END]).states[-1]
            end = states[-1]
            rel = float(np.max(np.abs(end - exact)) / (1.0 + np.max(np.abs(end))))
            if not rel <= _CLOSED_FORM_REL:
                found.append(Mismatch(f"state at t_end is {rel:.3e} from the closed form"))
        return found


# -- ladder ---------------------------------------------------------------------

_LADDER_LOCI = tuple(range(2, 8))   # n = 4..128
_LADDER_K = 10.0
_LADDER_RATE = 0.01
# Growth rates are drawn once, r ~ U(0.5, 2) per rung, from this fixed seed.
# How hard a rung is (Perron iterations, whether and where the homotopy
# leaves its box) swings widely between draws, so drawing r from the
# workload seed would make the work itself differ between seeds. Instead
# the workload seed relabels the genotypes by a random symmetry of the
# hypercube; the mutation matrix is invariant under it, so every seed gets
# different input arrays that pose the same problem.
_LADDER_BASE_SEED = 0
# Where the self-crowding homotopy leaves its a-priori box at that draw, as
# recorded at the parent commit: op id -> homotopy parameter s. These count
# as failed ops; a LeftAprioriBox on any other rung or at another s is an
# unexpected mismatch. Fixing them is solver work.
_LADDER_KNOWN_BOX_EXITS = {"n32": 0.2, "n64": 0.05, "n128": 0.05}


@dataclass(frozen=True)
class Rung:
    loci: int
    r: np.ndarray

    @property
    def n(self) -> int:
        return 2 ** self.loci


def _hypercube_relabelling(loci: int, rng: np.random.Generator) -> np.ndarray:
    """A random permutation of the 2**loci genotypes that keeps Hamming distances."""
    labels = np.arange(2 ** loci)
    bit_order = rng.permutation(loci)
    moved = sum(((labels >> b) & 1) << int(bit_order[b]) for b in range(loci))
    return moved ^ int(rng.integers(2 ** loci))


def _rung(rung: Rung) -> dict:
    n = rung.n
    mu = lv.point_mutation_matrix(rung.loci, _LADDER_RATE)
    model = lv.build_model(n, rung.r, _LADDER_K, mu, lv.uniform_linear(rung.r))
    a = lv.growth_mutation_matrix(model)
    perron = lv.perron_eigenpair(a)
    eq = lv.equilibrium_uniform(model)
    spectrum = lv.symmetric_spectrum(0.5 * (a + a.T))
    gap = lv.spectral_gap(model, eq.v_bar)
    x = lv.solve_linear(a, rung.r)
    # self-crowding stronger than cross-crowding
    alpha = 0.8 * np.ones((n, n)) + 0.2 * np.eye(n)
    crowd = lv.build_model(n, rung.r, _LADDER_K, mu, lv.crowding_linear(alpha))
    try:
        homotopy = lv.equilibrium_homotopy(crowd)
    except errors.LvmutError as exc:
        homotopy = exc
    return {"model": model, "a": a, "perron": perron, "eq": eq, "spectrum": spectrum,
            "gap": gap, "x": x, "crowd": crowd, "homotopy": homotopy}


def _stationary_problems(label: str, model: lv.Model, v_bar: np.ndarray) -> list[Mismatch]:
    found = []
    res = lv.residual(model, v_bar)
    limit = 1e-10 * max(1.0, float(np.max(np.abs(v_bar))))
    if not res <= limit:
        found.append(Mismatch(f"{label} residual {res:.3e} above {limit:.3e}"))
    if not np.all(v_bar > 0.0):
        found.append(Mismatch(f"{label} equilibrium is not strictly positive"))
    return found


class Ladder:
    name = "ladder"

    @staticmethod
    def make_inputs(seed: int, out_dir: Path) -> list[Rung]:
        base = np.random.default_rng(_LADDER_BASE_SEED)
        rng = np.random.default_rng(seed)
        return [
            Rung(loci, base.uniform(0.5, 2.0, size=2 ** loci)[_hypercube_relabelling(loci, rng)])
            for loci in _LADDER_LOCI
        ]

    @staticmethod
    def op_ids(inputs) -> list[str]:
        return [f"n{rung.n}" for rung in inputs]

    @staticmethod
    def run_pass(inputs, rec: Recorder) -> None:
        for rung in inputs:
            rec.op(f"n{rung.n}", "op.rung", _rung, rung)

    @staticmethod
    def check(inputs, op: Op) -> list[Mismatch]:
        bad = _raised(op.output)
        if bad:
            return bad
        out = op.output
        model, v_bar = out["model"], out["eq"].v_bar
        found = _stationary_problems("uniform", model, v_bar)
        mass = abs(float(np.sum(v_bar)) - model.big_k) / model.big_k
        if lv.is_fitness_weighted(model) and not mass <= 1e-8:
            found.append(Mismatch(f"mass law off by {mass:.3e}"))
        if not out["gap"].c1 > 0.0:
            found.append(Mismatch(f"spectral gap c1 = {out['gap'].c1:g} is not positive"))
        a, x, r = out["a"], out["x"], model.r
        solve_res = float(np.max(np.abs(a @ x - r)))
        if not solve_res <= 1e-10 * (1.0 + float(np.max(np.abs(a))) * float(np.max(np.abs(x)))):
            found.append(Mismatch(f"linear solve residual {solve_res:.3e}"))
        homotopy = out["homotopy"]
        if isinstance(homotopy, errors.LeftAprioriBox):
            known = _LADDER_KNOWN_BOX_EXITS.get(op.op_id) == homotopy.s
            found.append(Mismatch(f"homotopy raised LeftAprioriBox at s={homotopy.s}", known))
        elif isinstance(homotopy, Exception):
            found.append(Mismatch(f"homotopy raised {type(homotopy).__name__}: {homotopy}"))
        else:
            found += _stationary_problems("crowding", out["crowd"], homotopy.v_bar)
        return found


# -- cli ------------------------------------------------------------------------

_CLI_PRESETS = ("sym2", "fit2asym", "mut4", "pert2", "crowd3")
_CLI_COMMANDS = ("validate", "simulate", "equilibrium", "spectrum", "entropy",
                 "rates", "stability", "sweep")
_CLI_FILES = {
    "validate": ("report.json",),
    "simulate": ("trajectory.csv",),
    "equilibrium": ("equilibrium.json",),
    "spectrum": ("spectrum.json",),
    "entropy": ("entropy.csv",),
    "rates": ("report.json",),
    "stability": ("report.json", "report.csv"),
    "sweep": ("report.json", "report.csv"),
}
# Exit codes recorded at the parent commit. crowd3 lies outside the
# global-convergence statements (stability exits 1) and is no uniform base
# for a sweep without --amp/--w (usage error, 2).
_CLI_EXPECTED = {
    **{f"{c}.{p}": 0 for c in _CLI_COMMANDS for p in _CLI_PRESETS},
    "stability.crowd3": 1,
    "sweep.crowd3": 2,
    "presets": 0,
}


@dataclass(frozen=True)
class CliInputs:
    out_root: Path
    ops: list[tuple[str, list[str]]]


def _pert2_blocks(n: int) -> tuple[str, str]:
    """pert2's --amp/--w, repeated on each pair of genotypes for larger n."""
    inter = lv.get_preset("pert2").model.interaction
    amp = np.tile(inter.amp, n // 2)
    w = np.kron(np.eye(n // 2), inter.w)
    return (",".join(repr(float(x)) for x in amp),
            ";".join(",".join(repr(float(x)) for x in row) for row in w))


def _artifact_problems(path: Path) -> list[Mismatch]:
    text = path.read_text()
    if path.suffix == ".json":
        try:
            json.loads(text)
        except ValueError as exc:
            return [Mismatch(f"{path.name} does not parse: {exc}")]
        return []
    return _csv_problems(text)


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Cli:
    name = "cli"

    @staticmethod
    def make_inputs(seed: int, out_dir: Path) -> CliInputs:
        out_root = out_dir / "cli-artifacts"
        ops = []
        for command in _CLI_COMMANDS:
            for preset in _CLI_PRESETS:
                op_id = f"{command}.{preset}"
                argv = [command, "--preset", preset, "--out", str(out_root / op_id)]
                if command == "entropy":
                    argv += ["--kernel", "quadratic"]
                elif command == "stability":
                    argv += ["--samples", "5", "--seed", str(seed)]
                elif command == "sweep":
                    model = lv.get_preset(preset).model
                    if isinstance(model.interaction, lv.UniformLinear):
                        amp, w = _pert2_blocks(model.n)
                        argv += ["--amp", amp, "--w", w]
                ops.append((op_id, argv))
        ops.append(("presets", ["presets", "--json"]))
        return CliInputs(out_root, ops)

    @staticmethod
    def op_ids(inputs) -> list[str]:
        return [op_id for op_id, _ in inputs.ops]

    @staticmethod
    def reset(inputs) -> None:
        """Empty the artifact directories so each pass's files are its own."""
        shutil.rmtree(inputs.out_root, ignore_errors=True)
        inputs.out_root.mkdir(parents=True)

    @staticmethod
    def cleanup(inputs) -> None:
        shutil.rmtree(inputs.out_root, ignore_errors=True)

    @staticmethod
    def run_pass(inputs, rec: Recorder) -> None:
        for op_id, argv in inputs.ops:
            rec.op(op_id, f"cli.{argv[0]}", _run_main, argv)

    @staticmethod
    def check(inputs, op: Op) -> list[Mismatch]:
        code, stdout, stderr = op.output
        expected = _CLI_EXPECTED[op.op_id]
        found = []
        if code != expected:
            found.append(Mismatch(f"exit code {code}, expected {expected}"))
        if code != 0:
            try:
                if "error" not in json.loads(stderr):
                    found.append(Mismatch("stderr JSON names no error"))
            except ValueError:
                found.append(Mismatch("stderr is not one JSON object"))
        if op.op_id == "presets":
            try:
                listed = json.loads(stdout)
            except ValueError:
                return found + [Mismatch("presets --json output does not parse")]
            if [p["name"] for p in listed] != lv.preset_names():
                found.append(Mismatch("presets --json lists the wrong presets"))
            return found
        out_dir = inputs.out_root / op.op_id
        if code == 0:
            for name in _CLI_FILES[op.op_id.split(".")[0]]:
                if not (out_dir / name).is_file():
                    found.append(Mismatch(f"missing artifact {name}"))
        if out_dir.is_dir():
            for path in sorted(out_dir.iterdir()):
                found += _artifact_problems(path)
        return found


WORKLOADS = {w.name: w for w in (Verify, Ensemble, Ladder, Cli)}
