"""Direction search: minimize d f(x)(w) over a unit ball.

Three structures admit exact solvers. Differentiable points reduce to the
normalized negative gradient; coordinate-separable subderivatives split into
1-D problems on [-1, 1] under the sup-norm ball, each fixed by two numbers
(the part's values at +1 and -1) and solved in closed form; concave
subderivatives attain their minimum at an extreme point of the l1 ball.
Everything else goes through a seeded sampling fallback that can refute
stationarity but never certify it. Its candidates, the l1 vertices and the
unit-ball samples, depend only on (n, norm, budget, seed), so each such
matrix is built once per process and reused, read-only, at every iterate.

Each search checks its point x once, on entry, and then asks the model's
kernels (see ``FunctionModel``). The l1 vertex search asks
``f._vertex_values(x)`` for the 2n values at e1, -e1, e2, ...: O(n) for the
bundled oracles, the separable envelope, sums (scalings included) and
extrema, the dense (2n, n) matrix through ``f._subderivatives`` otherwise.
The fallback and ``verify.brute_force_direction`` score all their
candidates with one ``f._subderivatives`` call (``_best_candidate``), so a
model does the work that depends only on x once per search, and every
search reads the chosen direction's value back through the one-row kernel
call ``f._subderivatives(x, w[None])``. Matrices the library builds from finite
data (the vertices, the samples, a {-1, 0, 1} direction) are not checked
again; a row built from the model's gradient is checked as the public batch
checks W, and so is the gradient behind a smooth model's vertex values, so a
non-finite gradient raises ValueError.

Tie-breaking is deterministic everywhere: candidates are scanned in a fixed
enumeration order and only a strictly smaller value displaces the incumbent
(the first minimum wins, as ``np.argmin`` returns it).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import NoGradient, NotSeparable
from .extreal import ExtReal
from .model import (FunctionModel, Vector, as_directions, as_vector, check_count,
                    l1_vertices)


class NormChoice(enum.Enum):
    L2 = "l2"
    L1 = "l1"
    LINF = "linf"


@dataclass(frozen=True)
class DirectionResult:
    """A unit-ball direction, its subderivative value, and an exactness flag.

    ``value`` always equals f.subderivative(x, w), read back through the
    model's one-row kernel. ``exact`` is True for every closed-form solver:
    the l2 search, the sup-norm separable search (two numbers per
    coordinate, so exact for every separable model) and the l1 vertex
    search. Only the sampling fallback is inexact.
    ``evaluations`` counts subderivative evaluations, one per row of a
    batched query.
    """

    w: Vector
    value: ExtReal
    exact: bool
    evaluations: int


def solve_l2_smooth(f: FunctionModel, x: Vector) -> DirectionResult:
    """Steepest descent over the Euclidean ball at a differentiable point.

    w = -grad f(x) / ||grad f(x)||, or w = 0 at a stationary point.
    """
    x = as_vector(x, f.dim)
    if not f.has_gradient:
        raise NoGradient("solve_l2_smooth needs gradient access")
    rows = _gradient_rows(f, x, NormChoice.L2)
    if not rows:
        return DirectionResult(np.zeros(f.dim), ExtReal(0.0), True, 1)
    w = rows[0][0]
    return DirectionResult(w, _value_at(f, x, w), True, 2)


def solve_linf_separable(parts: tuple[Vector, Vector], grad: Vector, x: Vector,
                         model: FunctionModel) -> DirectionResult:
    """Coordinatewise direction search over the sup-norm ball.

    Requires the declared structure d f(x)(w) = <grad, w> + sum_i g_i(w_i),
    with ``parts = (up, down)`` holding g_i(+1) and g_i(-1) (see
    ``FunctionModel.separable_parts``). Each g_i is positively homogeneous,
    so c t + g_i(t) is linear on [-1, 0] and on [0, 1] and its minimum over
    [-1, 1] lies at -1, +1 or 0: the values -grad_i + down_i, grad_i + up_i
    and 0, scanned in that order. Always exact.
    """
    n = model.dim
    grad = as_vector(grad, n, "grad")
    if len(parts) != 2 or any(np.shape(p) != (n,) for p in parts):
        raise NotSeparable(f"separable parts must be two arrays of shape ({n},)")
    up, down = (np.asarray(p, dtype=float) for p in parts)
    at_minus = -grad + down
    at_plus = grad + up
    plus_wins = at_plus < at_minus
    best = np.where(plus_wins, at_plus, at_minus)
    w = np.where(0.0 < best, 0.0, np.where(plus_wins, 1.0, -1.0))
    return DirectionResult(w, _value_at(model, as_vector(x, n), w), True, 1)


def _checked_values(f: FunctionModel, kernel: str, vals, k: int) -> np.ndarray:
    """A batch kernel's answer as a float array, refused unless it holds
    one value for each of the k rows asked about."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (k,):
        raise ValueError(f"{type(f).__name__}.{kernel} returned shape "
                         f"{vals.shape} for {k} rows")
    return vals


def _value_at(f: FunctionModel, x: Vector, w: Vector) -> ExtReal:
    """d f(x)(w) for a checked x and a contiguous finite w, through the
    one-row kernel call; a NaN answer raises as ``ExtReal`` does."""
    return ExtReal(_checked_values(f, "_subderivatives", f._subderivatives(x, w[None]), 1)[0])


def _gradient_rows(f: FunctionModel, x: Vector, norm: NormChoice) -> list[np.ndarray]:
    """The normalized negative gradient as a list of one (1, n) row, or no
    row without gradient access or at a gradient whose norm is not positive.

    The gradient is the model's answer, so it is checked as the public batch
    checks W before it is divided: a non-finite entry raises ValueError.
    """
    if not f.has_gradient:
        return []
    g = as_directions([f.gradient(x)], f.dim)
    nrm = norm_of(g[0], norm)
    return [-(g / nrm)] if nrm > 0 else []


def _best_candidate(f: FunctionModel, x: Vector, cands: np.ndarray,
                    norm: NormChoice) -> tuple[Vector, float, int]:
    """The first least candidate, its batch value and the number of rows
    scored, through one ``_subderivatives`` call.

    ``cands`` is a cached read-only matrix headed by the 2n signed coordinate
    vectors; the ``_gradient_rows`` row, if any, is stacked after that head,
    and otherwise the matrix is scored as it is. A NaN counts as +inf, so if
    nothing is finite or -inf the first row comes back with value +inf, and
    the caller says what that means.
    """
    grad = _gradient_rows(f, x, norm)
    if grad:
        n = f.dim
        cands = np.vstack([cands[:2 * n], *grad, cands[2 * n:]])
    vals = _checked_values(f, "_subderivatives", f._subderivatives(x, cands), len(cands))
    vals = np.where(np.isnan(vals), np.inf, vals)
    i = int(np.argmin(vals))
    return cands[i].copy(), float(vals[i]), len(cands)


def solve_l1_extreme(f: FunctionModel, x: Vector) -> DirectionResult:
    """Vertex enumeration for a concave d f(x)(.) over the l1 ball.

    The caller declares concavity; a concave function attains its minimum
    over the polytope at one of the 2n vertices +-e_i, whose values the
    model's ``_vertex_values(x)`` gives. The first least vertex wins; if
    every vertex is +inf, that is the first one, e1.
    """
    n = f.dim
    x = as_vector(x, n)
    i = int(np.argmin(_checked_values(f, "_vertex_values", f._vertex_values(x), 2 * n)))
    best_w = np.zeros(n)
    best_w[i // 2] = -1.0 if i % 2 else 1.0
    return DirectionResult(best_w, _value_at(f, x, best_w), True, 2 * n + 1)


def _unit_ball_sample(rng: np.random.Generator, n: int, norm: NormChoice) -> Vector:
    if norm is NormChoice.LINF:
        return rng.uniform(-1.0, 1.0, size=n)
    if norm is NormChoice.L2:
        g = rng.standard_normal(n)
        g /= np.linalg.norm(g)
        return g * rng.uniform() ** (1.0 / n)
    # l1 ball: Dirichlet magnitudes, random signs, radial shrink
    e = rng.exponential(size=n)
    mags = e / np.sum(e)
    signs = rng.choice([-1.0, 1.0], size=n)
    return signs * mags * rng.uniform() ** (1.0 / n)


def _fallback_samples(n: int, norm: NormChoice, budget: int, seed: int) -> np.ndarray:
    """The fallback's ``budget`` unit-ball samples as the rows of a read-only
    (budget, n) matrix, drawn one row at a time from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    samples = np.empty((budget, n))
    for i in range(budget):
        samples[i] = _unit_ball_sample(rng, n, norm)
    samples.setflags(write=False)
    return samples


@functools.lru_cache(maxsize=8)
def _fallback_candidates(n: int, norm: NormChoice, budget: int, seed: int) -> np.ndarray:
    """``l1_vertices(n)`` over ``_fallback_samples``, one read-only
    (2n + budget, n) matrix. It depends on nothing else, so it is built once
    per key and shared by every search that asks for it."""
    cands = np.vstack([l1_vertices(n), _fallback_samples(n, norm, budget, seed)])
    cands.setflags(write=False)
    return cands


_NORM_ORDS = {NormChoice.L2: None, NormChoice.L1: 1, NormChoice.LINF: np.inf}


def norm_of(w: Vector, norm: NormChoice) -> float:
    return float(np.linalg.norm(w, _NORM_ORDS[norm]))


def solve_sampling_fallback(f: FunctionModel, x: Vector, norm: NormChoice,
                            budget: int, seed: int) -> DirectionResult:
    """Best of signed coordinate directions, the normalized negative gradient
    when available, and ``budget`` seeded uniform unit-ball samples. The
    samples depend only on (f.dim, norm, budget, seed) and are drawn once per
    process, under the vertices (``_fallback_candidates``); the same seed
    gives the same samples at every x.

    Directions with a +inf or NaN subderivative are discarded. A -inf one is
    kept, and the first such candidate wins (``armijo`` has the step rule for
    d = -inf). If everything is discarded the zero direction is returned.
    Never exact: a fallback result can fail to refute stationarity but cannot
    certify it.
    """
    budget = check_count(budget, "budget")
    n = f.dim
    x = as_vector(x, n)
    best_w, best, k = _best_candidate(f, x, _fallback_candidates(n, norm, budget, seed), norm)
    if best == np.inf:
        return DirectionResult(np.zeros(n), ExtReal(0.0), False, k)
    return DirectionResult(best_w, _value_at(f, x, best_w), False, k + 1)
