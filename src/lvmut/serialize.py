"""JSON and CSV round-trips for models, trajectories, and reports.

Floating-point values are written with 17 significant digits so every
artifact parses back to the exact same doubles. A result record (a
dataclass) is written as the JSON object of its fields in declaration
order, so each record's definition is its report's schema.
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .analysis import PerturbationTable
from .dynamics import Trajectory
from .entropy import Decomposition, EntropyReport
from .equilibrium import EquilibriumResult, Method
from .model import (
    CrowdingLinear,
    Model,
    Perturbed,
    UniformLinear,
    build_model,
    crowding_linear,
    perturbed,
    uniform_linear,
)


def _fmt(x: float) -> str:
    x = float(x)
    if math.isfinite(x):
        return f"{x:.17g}"
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def _render(obj, depth: int) -> str:
    pad = "  " * (depth + 1)
    close_pad = "  " * depth
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_render(it, depth + 1) for it in obj]
        if all("\n" not in it and len(it) < 24 for it in items) and len(items) <= 12:
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad + it for it in items) + "\n" + close_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {_render(v, depth + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(pad + it for it in items) + "\n" + close_pad + "}"
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return _render(fields, depth)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    return _render(obj, 0) + "\n"


# -- model ------------------------------------------------------------------

def model_to_dict(model: Model) -> dict:
    inter = model.interaction
    if isinstance(inter, UniformLinear):
        inter_obj = {"kind": "uniform", "a": inter.a}
    elif isinstance(inter, CrowdingLinear):
        inter_obj = {"kind": "crowding", "alpha": inter.alpha}
    elif isinstance(inter, Perturbed):
        inter_obj = {
            "kind": "perturbed",
            "a": inter.base.a,
            "eps": inter.eps,
            "amp": inter.amp,
            "w": inter.w,
        }
    else:  # pragma: no cover - closed family
        raise TypeError(f"unknown interaction {type(inter).__name__}")
    return {
        "n": model.n,
        "r": model.r,
        "K": model.big_k,
        "mu": model.mu,
        "interaction": inter_obj,
    }


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"missing key {key!r} in {where}")
    return obj[key]


def _wrong_type(key: str, where: str, kind: str, value) -> ValueError:
    # str renders what JSON cannot, such as a numpy array of bools from the API
    shown = json.dumps(value, default=str)
    return ValueError(f"key {key!r} in {where} must be {kind}, got {shown}")


def _is_number(value) -> bool:
    """An int or a float (a JSON number, or a numpy one), not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    """A number (_is_number) or a list, nested or not, of them; a numpy
    array of ints or floats (model_to_dict's arrays) counts as such a list."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, np.ndarray):
            if item.dtype.kind not in "iuf":
                return False
        elif not _is_number(item):
            return False
    return True


def _number(obj: dict, key: str, where: str) -> float:
    value = _need(obj, key, where)
    if _is_number(value):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise _wrong_type(key, where, "a number", value)


def _integer(obj: dict, key: str, where: str) -> int:
    number = _number(obj, key, where)
    if not number.is_integer():
        raise _wrong_type(key, where, "an integer", obj[key])
    return int(number)


def _array(obj: dict, key: str, where: str) -> np.ndarray:
    value = _need(obj, key, where)
    if _is_numbers(value):
        try:
            return np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged lists, integers beyond the float range
            pass
    raise _wrong_type(key, where, "numbers", value)


def model_from_dict(obj: dict) -> Model:
    """The model a JSON object describes; a ValueError names a missing or mistyped key."""
    n = _integer(obj, "n", "model")
    r = _array(obj, "r", "model")
    big_k = _number(obj, "K", "model")
    mu = _array(obj, "mu", "model")
    inter_obj = _need(obj, "interaction", "model")
    kind = _need(inter_obj, "kind", "interaction")
    if kind == "uniform":
        inter = uniform_linear(_array(inter_obj, "a", "interaction"))
    elif kind == "crowding":
        inter = crowding_linear(_array(inter_obj, "alpha", "interaction"))
    elif kind == "perturbed":
        inter = perturbed(
            uniform_linear(_array(inter_obj, "a", "interaction")),
            _number(inter_obj, "eps", "interaction"),
            _array(inter_obj, "amp", "interaction"),
            _array(inter_obj, "w", "interaction"),
        )
    else:
        raise ValueError(f"unknown value {kind!r} for key 'kind' in interaction")
    return build_model(n, r, big_k, mu, inter)


# -- CSV --------------------------------------------------------------------

def table_csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (bool, np.bool_)):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(f"{float(cell):.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def float_csv(header: list[str], columns) -> str:
    """The header, then one row per entry of the columns, every cell "%.17g".

    These are the bytes table_csv writes for float cells, one row template
    at a time. A column is a (T,) array or a (T, k) block of k columns.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1])
    return "\n".join([",".join(header)] + [row % tuple(cells) for cells in table.tolist()]) + "\n"


def trajectory_csv(trajectory: Trajectory) -> str:
    """`t,v_1,...,v_n,total`, one row per recorded time."""
    states = trajectory.states
    header = ["t"] + [f"v_{i + 1}" for i in range(states.shape[1])] + ["total"]
    return float_csv(header, [trajectory.times, states, states.sum(axis=1)])


def entropy_csv(times, report: EntropyReport, decomposition: Decomposition) -> str:
    """One row per time, from the (T,)-valued report and decomposition of a (T, n) stack."""
    header = ["t", "H", "D", "gamma_term", "analytic_dt", "F", "E_h", "lambda", "beta"]
    return float_csv(header, [
        times, report.h_value, report.d_value, report.gamma_term, report.analytic_dt,
        decomposition.f_value, decomposition.e_h, decomposition.lambda_coef, decomposition.beta,
    ])


def sweep_csv(table: PerturbationTable) -> str:
    header = ["eps", "sigma", "l1_distance", "ratio", "failed", "error", "v_bar"]
    rows = []
    for row in table.rows:
        v_txt = (
            " ".join(f"{x:.17g}" for x in row.v_bar) if row.v_bar is not None else ""
        )
        rows.append(
            [row.eps, row.sigma, row.l1_distance, row.ratio, row.failed,
             row.error or "", v_txt]
        )
    return table_csv(header, rows)


# -- report dicts -----------------------------------------------------------

def equilibrium_to_dict(result: EquilibriumResult) -> dict:
    out = {
        "v_bar": result.v_bar,
        "alpha_bar": result.alpha_bar,
        "lambda_p": result.lambda_p,
        "residual": result.residual,
        "method": result.method.value,
    }
    # a solve that ran Newton stages lists the homotopy's checkpoints, which
    # a continuation run has none of; eigenvector scaling has no path
    if result.method is not Method.PerronScaling:
        out["path"] = [
            {"s": s, "v": v, "residual": res} for s, v, res in result.homotopy_path
        ]
    return out
