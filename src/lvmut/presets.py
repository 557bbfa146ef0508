"""Named ready-to-run models used by the CLI and the test suite."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Model,
    build_model,
    crowding_linear,
    perturbed,
    point_mutation_matrix,
    uniform_linear,
)

_SYM_M = 0.1
_MUT4_POINT_RATE = 0.06


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    model: Model
    v0: np.ndarray
    t_end: float


def _sym2() -> Preset:
    r = [1.0, 1.0]
    model = build_model(
        2, r, 10.0, [[0.0, _SYM_M], [_SYM_M, 0.0]], uniform_linear(r)
    )
    return Preset(
        name="sym2",
        description="two identical genotypes, fitness-weighted pressure, "
        f"symmetric swap rate {_SYM_M}, K=10; equilibrium (5, 5)",
        model=model,
        v0=np.array([8.0, 2.0]),
        t_end=50.0,
    )


def _fit2asym() -> Preset:
    r = [1.0, 2.0]
    model = build_model(
        2, r, 1.0, [[0.0, _SYM_M], [_SYM_M, 0.0]], uniform_linear(r)
    )
    return Preset(
        name="fit2asym",
        description="two genotypes with unequal growth rates 1 and 2, "
        f"fitness-weighted pressure, swap rate {_SYM_M}, K=1",
        model=model,
        v0=np.array([0.5, 0.5]),
        t_end=40.0,
    )


def _mut4() -> Preset:
    r = [1.0, 1.0, 1.0, 1.0]
    mu = point_mutation_matrix(2, _MUT4_POINT_RATE)
    model = build_model(4, r, 100.0, mu, uniform_linear(r))
    return Preset(
        name="mut4",
        description="four genotypes over two loci, per-locus copy error "
        f"{_MUT4_POINT_RATE}, equal growth rates, K=100; equilibrium (25,25,25,25)",
        model=model,
        v0=np.array([40.0, 30.0, 20.0, 10.0]),
        t_end=200.0,
    )


def _pert2() -> Preset:
    r = [1.0, 1.0]
    base = uniform_linear(r)
    inter = perturbed(
        base,
        eps=1e-3,
        amp=[1.0, -0.7],
        w=[[0.2, -0.1], [0.15, 0.25]],
    )
    model = build_model(2, r, 10.0, [[0.0, _SYM_M], [_SYM_M, 0.0]], inter)
    return Preset(
        name="pert2",
        description="sym2 with a small bounded tanh distortion of the shared "
        "pressure (eps=1e-3); exercises the continuation solver",
        model=model,
        v0=np.array([8.0, 2.0]),
        t_end=50.0,
    )


def _crowd3() -> Preset:
    r = [1.0, 1.2, 0.8]
    alpha = [
        [1.0, 0.8, 0.6],
        [0.8, 1.0, 0.8],
        [0.6, 0.8, 1.0],
    ]
    mu = [
        [0.0, 0.05, 0.02],
        [0.05, 0.0, 0.05],
        [0.02, 0.05, 0.0],
    ]
    model = build_model(3, r, 50.0, mu, crowding_linear(alpha))
    return Preset(
        name="crowd3",
        description="three genotypes with heterogeneous crowding weights, K=50; "
        "solvable by continuation but outside the global-convergence statements",
        model=model,
        v0=np.array([10.0, 10.0, 10.0]),
        t_end=100.0,
    )


_BUILDERS = {
    "sym2": _sym2,
    "fit2asym": _fit2asym,
    "mut4": _mut4,
    "pert2": _pert2,
    "crowd3": _crowd3,
}


def preset_names() -> list[str]:
    return list(_BUILDERS)


def get_preset(name: str) -> Preset:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(_BUILDERS)
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None
    return builder()


def catalog() -> list[Preset]:
    return [b() for b in _BUILDERS.values()]
