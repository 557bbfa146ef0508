"""Command-line front end: scenario loading, dispatch, CSV/JSON artifacts.

Exit codes: 0 success, 1 validation or verification failure (or an
unexpected internal error), 2 usage error, 3 solver failure. Errors go to
stderr as one JSON object.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import acceptance, serialize
from .analysis import (
    convergence_rate,
    global_stability_experiment,
    perturbation_sweep,
    spectral_gap,
)
from .dynamics import Trajectory, _flow_batch
from .entropy import EntropyKernel, decompose, dissipation
from .equilibrium import equilibrium_auto, equilibrium_homotopy, equilibrium_uniform
from .errors import LvmutError
from .model import Model, Perturbed, mutation_symmetric, validate
from .presets import catalog, get_preset

_FORCE_BANNER = (
    "WARNING: model is outside the supported convergence statements; "
    "results are exploratory"
)


class _UsageAbort(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # keep stderr as a single JSON object: no argparse usage dumps
    def error(self, message):
        raise _UsageAbort(message)


@dataclass
class Job:
    model: Model
    v0: np.ndarray | None
    sampler: dict | None
    t_end: float
    rtol: float
    atol: float
    record_every: float | None
    out_dir: str | None


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(serialize.dumps_json({"error": kind, "message": message}))
    return code


def _emit(out_dir: str | None, filename: str, text: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / filename).write_text(text)


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one number")
    return np.array(values)


def _parse_matrix(text: str, flag: str) -> np.ndarray:
    rows = [_parse_vector(row, flag) for row in text.split(";")]
    if len({row.size for row in rows}) != 1:
        raise ValueError(f"{flag} rows must all have the same length, got {text!r}")
    return np.array(rows)


def _load_scenario(path: str) -> dict:
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError("scenario must be a JSON object")
    if "model" not in obj:
        raise ValueError("missing key 'model' in scenario")
    return obj


def _scenario_number(obj: dict, key: str, default: float | None) -> float | None:
    """obj[key] as a float; a missing key gives default, and so does null
    when default is None (record_every)."""
    if obj.get(key) is None and (key not in obj or default is None):
        return default
    return serialize._number(obj, key, "scenario")


def _initial_state(v0: np.ndarray, where: str) -> np.ndarray:
    """v0 checked where it enters: finite, nonnegative, and not identically zero."""
    if not np.isfinite(v0).all():
        raise ValueError(f"{where} must be finite, got {v0.tolist()}")
    if (v0 < 0.0).any():
        raise ValueError(f"{where} must be nonnegative, got {v0.tolist()}")
    if not v0.any():
        raise ValueError(f"{where} is identically zero; the flow stays at zero")
    return v0


def _build_job(args) -> Job:
    preset_name = getattr(args, "preset", None)
    scenario_path = getattr(args, "scenario", None)
    if preset_name is None and scenario_path is None:
        raise ValueError("provide --preset <name> or --scenario <file>")

    v0 = None
    sampler = None
    scalars = {"t_end": 50.0, "rtol": 1e-8, "atol": 1e-10, "record_every": None}
    out_dir = None

    if preset_name is not None:
        preset = get_preset(preset_name)
        model = preset.model
        v0 = preset.v0.copy()
        scalars["t_end"] = preset.t_end
    else:
        obj = _load_scenario(scenario_path)
        model = serialize.model_from_dict(obj["model"])
        initial = obj.get("initial")
        if isinstance(initial, dict):
            sampler = {
                key: serialize._integer(initial, key, "scenario key 'initial'")
                for key in ("count", "seed")
            }
        elif initial is not None:
            v0 = _initial_state(serialize._array(obj, "initial", "scenario"),
                                "key 'initial' in scenario")
        for key, default in scalars.items():
            scalars[key] = _scenario_number(obj, key, default)
        out_dir = obj.get("outputs")
        if out_dir is not None and not isinstance(out_dir, str):
            raise serialize._wrong_type("outputs", "scenario", "a directory path", out_dir)

    for key in scalars:
        if getattr(args, key, None) is not None:
            scalars[key] = getattr(args, key)
    if getattr(args, "v0", None) is not None:
        v0 = _initial_state(_parse_vector(args.v0, "--v0"), "--v0")
    if getattr(args, "out", None) is not None:
        out_dir = args.out
    return Job(model, v0, sampler, out_dir=out_dir, **scalars)


def _require_v0(job: Job) -> np.ndarray:
    if job.v0 is None:
        raise ValueError(
            "this command needs a concrete initial state; samplers only "
            "apply to 'stability'"
        )
    return job.v0


def _trajectory(job: Job, v0: np.ndarray) -> Trajectory:
    """The flow from v0, sampled on the recording grid: exact for a uniform
    linear model with symmetric mutation, integrated otherwise (see
    dynamics._flow_batch)."""
    n = job.model.n
    if v0.shape != (n,):
        raise ValueError(f"v0 must have shape ({n},)")
    return _flow_batch(job.model, v0[None], job.t_end, job.rtol, job.atol, job.record_every)[0]


def _parse_kernel(text: str) -> EntropyKernel:
    if text == "linear":
        return EntropyKernel.linear()
    if text == "quadratic":
        return EntropyKernel.quadratic()
    if text.startswith("poly:"):
        return EntropyKernel.polynomial(_parse_vector(text[len("poly:"):], "--kernel poly:"))
    raise ValueError(
        f"unknown kernel {text!r}; expected linear, quadratic, or poly:<coeffs>"
    )


# -- subcommand bodies --------------------------------------------------------

def _cmd_validate(args) -> int:
    job = _build_job(args)
    report = validate(job.model)
    _emit(job.out_dir, "report.json", serialize.dumps_json(report))
    core = (
        report.h1_positivity and report.h1_symmetry and report.h1_irreducible
        and report.h1_monotone and report.h2_coercive and report.h3_half
    )
    return 0 if core else 1


def _cmd_simulate(args) -> int:
    job = _build_job(args)
    v0 = _require_v0(job)
    traj = _trajectory(job, v0)
    _emit(job.out_dir, "trajectory.csv", serialize.trajectory_csv(traj))
    return 0


def _cmd_equilibrium(args) -> int:
    job = _build_job(args)
    solve = {"perron": equilibrium_uniform, "homotopy": equilibrium_homotopy,
             "auto": equilibrium_auto}[args.method]
    result = solve(job.model)
    _emit(job.out_dir, "equilibrium.json",
          serialize.dumps_json(serialize.equilibrium_to_dict(result)))
    return 0


def _cmd_spectrum(args) -> int:
    job = _build_job(args)
    eq = equilibrium_auto(job.model)
    report = spectral_gap(job.model, eq.v_bar)
    _emit(job.out_dir, "spectrum.json", serialize.dumps_json(report))
    return 0


def _cmd_entropy(args) -> int:
    job = _build_job(args)
    kernel = _parse_kernel(args.kernel)
    v0 = _require_v0(job)
    eq = equilibrium_auto(job.model)
    traj = _trajectory(job, v0)
    rep = dissipation(job.model, traj.states, eq.v_bar, kernel)
    dec = decompose(traj.states, eq.v_bar)
    _emit(job.out_dir, "entropy.csv", serialize.entropy_csv(traj.times, rep, dec))
    return 0


def _cmd_rates(args) -> int:
    job = _build_job(args)
    v0 = _require_v0(job)
    eq = equilibrium_auto(job.model)
    predicted = None
    if mutation_symmetric(job.model):
        predicted = spectral_gap(job.model, eq.v_bar).c1
    traj = _trajectory(job, v0)
    report = convergence_rate(
        traj, eq.v_bar, tail_fraction=args.tail, predicted_c1=predicted
    )
    _emit(job.out_dir, "report.json", serialize.dumps_json(report))
    return 0


def _cmd_stability(args) -> int:
    job = _build_job(args)
    n_samples = args.samples
    seed = args.seed
    if job.sampler is not None:
        n_samples = job.sampler["count"]
        seed = job.sampler["seed"]
        if n_samples < 1:
            raise ValueError("key 'count' in scenario key 'initial' must be at least 1")
    elif n_samples < 1:
        raise ValueError("--samples must be at least 1")
    report = global_stability_experiment(
        job.model, n_samples=n_samples, seed=seed, t_end=job.t_end,
        tol=args.tol, force=args.force,
    )
    obj = report
    if args.force and not report.in_scope:
        obj = {**asdict(report), "warning": _FORCE_BANNER}
        sys.stderr.write(_FORCE_BANNER + "\n")
    _emit(job.out_dir, "report.json", serialize.dumps_json(obj))
    if job.out_dir is not None:
        header = ["sample"] + [f"v_{j + 1}" for j in range(job.model.n)]
        columns = [np.arange(n_samples), report.endpoints]
        _emit(job.out_dir, "report.csv", serialize.float_csv(header, columns))
    return 0


def _cmd_sweep(args) -> int:
    job = _build_job(args)
    model = job.model
    if isinstance(model.interaction, Perturbed):
        amp = model.interaction.amp
        w = model.interaction.w
        base = replace(model, interaction=model.interaction.base)
    else:
        if args.amp is None or args.w is None:
            raise ValueError(
                "sweep on a uniform model needs --amp and --w (or use a "
                "perturbed model)"
            )
        amp = _parse_vector(args.amp, "--amp")
        w = _parse_matrix(args.w, "--w")
        base = model
    eps_grid = _parse_vector(args.eps, "--eps")
    table = perturbation_sweep(base, amp, w, eps_grid)
    _emit(job.out_dir, "report.json", serialize.dumps_json(table))
    if job.out_dir is not None:
        _emit(job.out_dir, "report.csv", serialize.sweep_csv(table))
    return 0


def _cmd_verify(args) -> int:
    results = acceptance.run_all(preset_filter=args.preset)
    if not results:
        raise ValueError(f"no acceptance criteria touch preset {args.preset!r}")
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"criterion {res.number:02d} {res.name}: {status} - {res.detail}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if getattr(args, "out", None):
        obj = {"results": results, "all_passed": all(r.passed for r in results)}
        _emit(args.out, "report.json", serialize.dumps_json(obj))
    return 0 if all(r.passed for r in results) else 1


def _cmd_presets(args) -> int:
    entries = catalog()
    if args.json:
        obj = [
            {
                "name": p.name,
                "description": p.description,
                "n": p.model.n,
                "K": p.model.big_k,
                "t_end": p.t_end,
            }
            for p in entries
        ]
        sys.stdout.write(serialize.dumps_json(obj))
    else:
        width = max(len(p.name) for p in entries)
        for p in entries:
            sys.stdout.write(f"{p.name:<{width}}  {p.description}\n")
    return 0


# -- parser -------------------------------------------------------------------

def _add_source_args(sub, with_sim_params=True):
    sub.add_argument("--preset", help="named preset model")
    sub.add_argument("--scenario", help="scenario JSON file")
    sub.add_argument("--out", help="output directory (default: stdout)")
    if with_sim_params:
        sub.add_argument("--v0", help="initial state, comma separated")
        sub.add_argument("--t-end", dest="t_end", type=float)
        sub.add_argument("--rtol", type=float)
        sub.add_argument("--atol", type=float)
        sub.add_argument("--record-every", dest="record_every", type=float)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    Building the tree costs far more than a parse, and each parse makes a
    fresh namespace from the parser's defaults, so calls share nothing.
    """
    parser = _Parser(
        prog="lvmut",
        description="competition dynamics with mutation: simulate, solve, certify",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="check model hypotheses")
    _add_source_args(sub, with_sim_params=False)
    sub.set_defaults(fn=_cmd_validate)

    sub = subs.add_parser("simulate", help="integrate and write trajectory.csv")
    _add_source_args(sub)
    sub.set_defaults(fn=_cmd_simulate)

    sub = subs.add_parser("equilibrium", help="solve for the stationary state")
    _add_source_args(sub, with_sim_params=False)
    sub.add_argument("--method", choices=("perron", "homotopy", "auto"),
                     default="auto")
    sub.set_defaults(fn=_cmd_equilibrium)

    sub = subs.add_parser("spectrum", help="spectral gap at the equilibrium")
    _add_source_args(sub, with_sim_params=False)
    sub.set_defaults(fn=_cmd_spectrum)

    sub = subs.add_parser("entropy", help="entropy diagnostics along a trajectory")
    _add_source_args(sub)
    sub.add_argument("--kernel", required=True,
                     help="linear | quadratic | poly:<c0,c1,...>")
    sub.set_defaults(fn=_cmd_entropy)

    sub = subs.add_parser("rates", help="fit tail decay rates")
    _add_source_args(sub)
    sub.add_argument("--tail", type=float, default=0.5)
    sub.set_defaults(fn=_cmd_rates)

    sub = subs.add_parser("stability", help="random-start convergence experiment")
    # the experiment draws its own starts and integrates at its own
    # tolerances and grid, so of the simulation flags only the horizon applies
    _add_source_args(sub, with_sim_params=False)
    sub.add_argument("--t-end", dest="t_end", type=float)
    sub.add_argument("--samples", type=int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=1e-6)
    sub.add_argument("--force", action="store_true",
                     help="run outside the supported scope, with a warning")
    sub.set_defaults(fn=_cmd_stability)

    sub = subs.add_parser("sweep", help="equilibrium displacement vs eps")
    _add_source_args(sub, with_sim_params=False)
    sub.add_argument("--eps", default="1e-4,4e-4,1.6e-3,6.4e-3",
                     help="comma-separated ascending grid")
    sub.add_argument("--amp", help="perturbation amplitudes, comma separated")
    sub.add_argument("--w", help="perturbation weights, rows ; separated")
    sub.set_defaults(fn=_cmd_sweep)

    sub = subs.add_parser("verify", help="run the acceptance criteria")
    sub.add_argument("--preset", help="only criteria touching this preset")
    sub.add_argument("--out", help="also write report.json here")
    sub.set_defaults(fn=_cmd_verify)

    sub = subs.add_parser("presets", help="list named models")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(fn=_cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageAbort as exc:
        return _fail(2, "UsageError", str(exc))
    except SystemExit as exc:
        # argparse exits directly only for --help and friends
        if exc.code in (0, None):
            return 0
        return _fail(2, "UsageError", "invalid command line; see --help")
    try:
        # overflow in a bad input surfaces as an error below, not as a warning line;
        # a library warning becomes one WARNING line per distinct message, written
        # only when the command returns, so an error exit leaves one JSON object
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.fn(args)
    except LvmutError as exc:
        return _fail(exc.exit_code, type(exc).__name__, str(exc))
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a failed dense kernel is a solver failure
        return _fail(3, type(exc).__name__, str(exc))
    except (ValueError, KeyError, OSError) as exc:
        return _fail(2, type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 - last resort: no traceback reaches stderr
        return _fail(1, type(exc).__name__, str(exc))
    for message in dict.fromkeys(str(w.message) for w in caught):
        sys.stderr.write(f"WARNING: {message}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
