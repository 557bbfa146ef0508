"""JSON and CSV round-trips for models, trajectories, and reports.

Floating-point values are written with 17 significant digits so every
artifact parses back to the exact same doubles.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .analysis import PerturbationTable, RateReport, SpectralGapReport, StabilityReport
from .dynamics import Trajectory
from .equilibrium import EquilibriumResult
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


def _render(obj, depth: int, indent: int) -> str:
    pad = " " * (indent * (depth + 1))
    close_pad = " " * (indent * depth)
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
        items = [_render(it, depth + 1, indent) for it in obj]
        if all("\n" not in it and len(it) < 24 for it in items) and len(items) <= 12:
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad + it for it in items) + "\n" + close_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {_render(v, depth + 1, indent)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(pad + it for it in items) + "\n" + close_pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj, indent: int = 2) -> str:
    return _render(obj, 0, indent) + "\n"


def loads_json(text: str):
    return json.loads(text)


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
    if key not in obj:
        raise ValueError(f"missing key {key!r} in {where}")
    return obj[key]


def model_from_dict(obj: dict) -> Model:
    if not isinstance(obj, dict):
        raise ValueError("model must be a JSON object")
    n = _need(obj, "n", "model")
    r = _need(obj, "r", "model")
    big_k = _need(obj, "K", "model")
    mu = _need(obj, "mu", "model")
    inter_obj = _need(obj, "interaction", "model")
    kind = _need(inter_obj, "kind", "interaction")
    if kind == "uniform":
        inter = uniform_linear(_need(inter_obj, "a", "interaction"))
    elif kind == "crowding":
        inter = crowding_linear(_need(inter_obj, "alpha", "interaction"))
    elif kind == "perturbed":
        inter = perturbed(
            uniform_linear(_need(inter_obj, "a", "interaction")),
            _need(inter_obj, "eps", "interaction"),
            _need(inter_obj, "amp", "interaction"),
            _need(inter_obj, "w", "interaction"),
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


def trajectory_csv(trajectory: Trajectory) -> str:
    """`t,v_1,...,v_n,total`: the bytes table_csv writes, one row template at a time."""
    states = np.ascontiguousarray(trajectory.states)
    n = states.shape[1]
    header = ",".join(["t"] + [f"v_{i + 1}" for i in range(n)] + ["total"])
    row = ",".join(["%.17g"] * (n + 2))
    table = np.column_stack([trajectory.times, states, states.sum(axis=1)])
    return "\n".join([header] + [row % tuple(cells) for cells in table.tolist()]) + "\n"


def entropy_csv(times, reports, decomps) -> str:
    header = ["t", "H", "D", "gamma_term", "analytic_dt", "F", "E_h", "lambda", "beta"]
    rows = [
        [
            t,
            rep.h_value,
            rep.d_value,
            rep.gamma_term,
            rep.analytic_dt,
            dec.f_value,
            dec.e_h,
            dec.lambda_coef,
            dec.beta,
        ]
        for t, rep, dec in zip(times, reports, decomps)
    ]
    return table_csv(header, rows)


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
    if result.homotopy_path:
        out["path"] = [
            {"s": s, "v": v, "residual": res} for s, v, res in result.homotopy_path
        ]
    return out


def spectrum_to_dict(report: SpectralGapReport) -> dict:
    return {
        "c1": report.c1,
        "eigenvalues": report.eigenvalues,
        "kernel_vector": report.kernel_vector,
        "d_matrix": report.d_matrix,
        "m_tilde": report.m_tilde,
    }


def rate_to_dict(report: RateReport) -> dict:
    return {
        "fitted_rate_eh": report.fitted_rate_eh,
        "fitted_rate_sup": report.fitted_rate_sup,
        "r_squared": report.r_squared,
        "predicted_c1": report.predicted_c1,
        "window": list(report.window),
        "n_points": report.n_points,
    }


def stability_to_dict(report: StabilityReport) -> dict:
    return {
        "converged": report.converged,
        "max_pairwise_gap": report.max_pairwise_gap,
        "max_equilibrium_gap": report.max_equilibrium_gap,
        "attractor": report.attractor,
        "endpoints": report.endpoints,
        "n_samples": report.n_samples,
        "t_end": report.t_end,
        "tol": report.tol,
        "seed": report.seed,
        "in_scope": report.in_scope,
    }


def sweep_to_dict(table: PerturbationTable) -> dict:
    return {
        "rows": [
            {
                "eps": row.eps,
                "sigma": row.sigma,
                "v_bar": row.v_bar,
                "l1_distance": row.l1_distance,
                "ratio": row.ratio,
                "failed": row.failed,
                "error": row.error,
            }
            for row in table.rows
        ]
    }
