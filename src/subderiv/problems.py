"""Bundled benchmark problems and plain-text fixture loading.

Fixture files are whitespace-separated numeric rows, one row per line, with
``#`` comments and no header; anything a spreadsheet or awk one-liner can
produce. Problem parameters arrive as a string dict (from CLI config files)
and are parsed here: scalars inline, vectors/matrices as file paths or
comma-separated literals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import _QuadraticBranch, _QuadraticBranches, pointwise_min, sum_models
from .direction import NormChoice
from .model import FunctionModel, Vector
from .oracles import (L1Norm, NegL1Norm, ZeroNormInner, linear_model,
                      moreau_envelope, quadratic_model, relu_network_loss)
from .solver import SolverConfig


def load_matrix(path: str) -> np.ndarray:
    """Read a whitespace-separated numeric file with ``#`` comments; always
    2-D. An empty file and ragged rows raise ValueError."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        M = np.loadtxt(path, ndmin=2)
    if not M.size:
        raise ValueError(f"{path}: no numeric rows")
    return M


def load_vector(path: str) -> Vector:
    return load_matrix(path).ravel()


def _parse_vector(raw: str, fallback: Vector) -> Vector:
    if raw is None:
        return fallback
    if "," in raw:
        return np.array([float(t) for t in raw.split(",")], dtype=float)
    try:
        return np.full_like(fallback, float(raw))
    except ValueError:
        return load_vector(raw)


@dataclass
class BuiltProblem:
    model: FunctionModel
    x0: Vector
    defaults: SolverConfig
    f_star: Optional[float] = None     # lower bound for the rate audit


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    description: str
    build: Callable[[dict], BuiltProblem]
    params: str = ""


def _get_int(params: dict, key: str, default: int) -> int:
    return int(params.get(key, default))


def _get_float(params: dict, key: str, default: float) -> float:
    return float(params.get(key, default))


def _build_quadratic(params: dict) -> BuiltProblem:
    n = _get_int(params, "n", 2)
    c = _parse_vector(params.get("c"), np.zeros(n))
    x0 = _parse_vector(params.get("x0"), 3.0 * np.ones(n))
    model = quadratic_model(c)
    cfg = SolverConfig(epsilon=1e-6, norm=NormChoice.L2, max_iter=500, strategy="l2")
    return BuiltProblem(model, x0, cfg, f_star=0.0)


def _build_linear(params: dict) -> BuiltProblem:
    n = _get_int(params, "n", 2)
    c = _parse_vector(params.get("c"), np.concatenate([[1.0], np.zeros(n - 1)]))
    x0 = _parse_vector(params.get("x0"), np.zeros(n))
    model = linear_model(c)
    cfg = SolverConfig(epsilon=1e-6, norm=NormChoice.L2, max_iter=200, strategy="l2")
    return BuiltProblem(model, x0, cfg)


def _build_dc_quadratic_l1(params: dict) -> BuiltProblem:
    n = _get_int(params, "n", 2)
    lam = _get_float(params, "lam", 1.0)
    x0 = _parse_vector(params.get("x0"), 3.0 * np.ones(n))
    model = sum_models([quadratic_model(np.zeros(n)), NegL1Norm(n, lam)])
    cfg = SolverConfig(epsilon=1e-4, norm=NormChoice.L1,
                       max_iter=5000, strategy="l1-ext")
    return BuiltProblem(model, x0, cfg, f_star=-n * lam * lam / 2.0)


def _build_separable_l1(params: dict) -> BuiltProblem:
    n = _get_int(params, "n", 3)
    lam = _get_float(params, "lam", 1.0)
    a = _parse_vector(params.get("a"), np.array([2.0, -0.5, 1.5][:n] if n <= 3
                                                else 2.0 * np.ones(n)))
    x0 = _parse_vector(params.get("x0"), np.zeros(n))
    model = sum_models([quadratic_model(a), L1Norm(n, lam)])
    cfg = SolverConfig(epsilon=1e-4, norm=NormChoice.LINF,
                       max_iter=5000, strategy="linf-sep")
    return BuiltProblem(model, x0, cfg)


def _build_sparse_moreau(params: dict) -> BuiltProblem:
    n = _get_int(params, "n", 3)
    r = _get_float(params, "r", 0.5)
    b = _parse_vector(params.get("b"), np.array([0.3, -2.0, 0.05][:n] if n <= 3
                                                else 0.3 * np.ones(n)))
    x0 = _parse_vector(params.get("x0"), b.copy())
    # Smoothed sparsity of x directly (affine shift folded into x0); the
    # envelope has the descent property with constant 1/r.
    model = moreau_envelope(ZeroNormInner(), r, n=n)
    cfg = SolverConfig(epsilon=1e-4, norm=NormChoice.LINF,
                       max_iter=5000, strategy="linf-sep")
    return BuiltProblem(model, x0, cfg, f_star=0.0)


def _build_diff_max(params: dict) -> BuiltProblem:
    n = _get_int(params, "n", 2)
    rng = np.random.default_rng(_get_int(params, "gen_seed", 11))
    m = _get_int(params, "m", 3)
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    c = rng.uniform(-0.5, 0.5, size=m)
    stack = _QuadraticBranches(A, c)   # branch i: 0.5 ||x||^2 - <a_i, x> - c_i
    model = pointwise_min([_QuadraticBranch(stack, i) for i in range(m)])
    x0 = _parse_vector(params.get("x0"), 3.0 * np.ones(n))
    cfg = SolverConfig(epsilon=1e-4, norm=NormChoice.L1,
                       max_iter=2000, strategy="l1-ext")
    return BuiltProblem(model, x0, cfg)


def _build_relu_net(params: dict) -> BuiltProblem:
    widths = [int(t) for t in str(params.get("widths", "1,2,1")).split(",")]
    rng = np.random.default_rng(_get_int(params, "gen_seed", 5))
    m = _get_int(params, "m", 4)
    data = [(rng.uniform(-1, 1, widths[0]), rng.uniform(-1, 1, widths[-1]))
            for _ in range(m)]
    model = relu_network_loss(widths, data)
    x0 = _parse_vector(params.get("x0"),
                       rng.uniform(-1.0, 1.0, model.dim))
    cfg = SolverConfig(epsilon=1e-3, norm=NormChoice.L2,
                       max_iter=300, strategy="fallback", budget=64, seed=0)
    return BuiltProblem(model, x0, cfg)


REGISTRY: dict[str, ProblemSpec] = {}


def _register(name: str, description: str, build, params: str = ""):
    REGISTRY[name] = ProblemSpec(name, description, build, params)


_register("quadratic", "smooth quadratic (1/2)||x - c||^2",
          _build_quadratic, "n, c, x0")
_register("linear", "<c, x>, unbounded below", _build_linear, "n, c, x0")
_register("dc_quadratic_l1", "(1/2)||x||^2 - lam ||x||_1, exact l1 vertex search",
          _build_dc_quadratic_l1, "n, lam, x0")
_register("separable_l1", "(1/2)||x - a||^2 + lam ||x||_1, separable search",
          _build_separable_l1, "n, lam, a, x0")
_register("sparse_moreau", "Moreau-smoothed sparsity count, descent constant 1/r",
          _build_sparse_moreau, "n, r, b, x0")
_register("diff_max", "quadratic minus a max of affine functions (one-kernel min of branches)",
          _build_diff_max, "n, m, gen_seed, x0")
_register("relu_net", "mean squared loss of a small ReLU network",
          _build_relu_net, "widths, m, gen_seed, x0")


def build_problem(name: str, params: Optional[dict] = None) -> BuiltProblem:
    if name not in REGISTRY:
        raise KeyError(name)
    return REGISTRY[name].build(params or {})
