"""Direction search: minimize d f(x)(w) over a unit ball.

Three structures admit exact solvers. Differentiable points reduce to the
normalized negative gradient; coordinate-separable subderivatives split into
1-D problems on [-1, 1] under the sup-norm ball, each fixed by two numbers
(the part's values at +1 and -1) and solved in closed form; concave
subderivatives attain their minimum at an extreme point of the l1 ball.
Everything else goes through a seeded sampling fallback that can refute
stationarity but never certify it. Its unit-ball samples depend only on
(n, norm, budget, seed), so each such set is drawn once per process and
reused, read-only, at every iterate; likewise the l1 vertex matrix, full or
reduced, is built once per n and shared, read-only, by the vertex search and
the fallback (``l1_vertices`` and ``reduced_vertices`` build a fresh one).

Each search checks its point x once, on entry, and then asks the model's
row kernel ``f._subderivatives`` (see ``FunctionModel``). The l1 vertex
search and the fallback score all their candidates with one kernel call, so
a model does the work that depends only on x once per search, and every
search reads the chosen direction's value back through the one-row kernel
call ``f._subderivatives(x, w[None])``. Matrices the library builds from
finite data (the vertex matrix, the samples, a {-1, 0, 1} direction) are not
checked again; a row built from the model's gradient is checked as the
public batch checks W, so a non-finite gradient raises ValueError.

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
from .model import FunctionModel, Vector, as_directions, as_vector, check_count


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
    coordinate, so exact for every separable model) and the l1 vertex search
    (for the reduced variant, exact relative to the induced polytope norm).
    Only the sampling fallback is inexact.
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


def l1_vertices(n: int) -> np.ndarray:
    """Extreme points of the l1 ball as the rows of a (2n, n) matrix, in
    tie-break order e1, -e1, e2, -e2, ..."""
    verts = np.zeros((2 * n, n))
    idx = np.arange(n)
    verts[2 * idx, idx] = 1.0
    verts[2 * idx + 1, idx] = -1.0
    return verts


def reduced_vertices(n: int) -> np.ndarray:
    """The n+1 point set {e_i} plus the all-minus-ones vector, as rows.

    Its convex hull is a polytope with the origin interior, hence the unit
    ball of an induced norm; minimizing a concave subderivative over that
    ball needs only these n+1 evaluations.
    """
    return np.vstack([np.eye(n), -np.ones((1, n))])


@functools.lru_cache(maxsize=8)
def _vertex_matrix(n: int, reduced: bool) -> np.ndarray:
    """``reduced_vertices(n)`` or ``l1_vertices(n)``, read-only, built once per key."""
    verts = reduced_vertices(n) if reduced else l1_vertices(n)
    verts.setflags(write=False)
    return verts


def _batch_values(f: FunctionModel, x: Vector, W: np.ndarray) -> np.ndarray:
    """d f(x)(w) for every row of W through one row-kernel call.

    x must be a checked vector and W a C-contiguous float64 (k, n) matrix
    with finite entries, as ``FunctionModel.subderivatives`` hands them on.
    """
    vals = np.asarray(f._subderivatives(x, W), dtype=float)
    if vals.shape != (W.shape[0],):
        raise ValueError(f"{type(f).__name__}._subderivatives returned shape "
                         f"{vals.shape} for {W.shape[0]} directions")
    return vals


def _value_at(f: FunctionModel, x: Vector, w: Vector) -> ExtReal:
    """d f(x)(w) for a checked x and a contiguous finite w, through the
    one-row kernel call; a NaN answer raises as ``ExtReal`` does."""
    return ExtReal(_batch_values(f, x, w[None])[0])


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


def solve_l1_extreme(f: FunctionModel, x: Vector, reduced: bool = False) -> DirectionResult:
    """Vertex enumeration for a concave d f(x)(.) over the l1 ball.

    The caller declares concavity; a concave function attains its minimum
    over the polytope at an extreme point. With ``reduced`` the n+1 point set
    {e_i} union {-e} is used instead; that is exact for the norm whose unit
    ball is the convex hull of those points, and the result's direction may
    exceed the l1 ball (||-e||_1 = n). If every vertex is +inf, the first
    one is returned.
    """
    x = as_vector(x, f.dim)
    verts = _vertex_matrix(f.dim, reduced)
    best_w = verts[int(np.argmin(_batch_values(f, x, verts)))].copy()
    return DirectionResult(best_w, _value_at(f, x, best_w), True, len(verts) + 1)


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


@functools.lru_cache(maxsize=8)
def _fallback_samples(n: int, norm: NormChoice, budget: int, seed: int) -> np.ndarray:
    """The fallback's ``budget`` unit-ball samples as the rows of a read-only
    (budget, n) matrix, drawn one row at a time from ``default_rng(seed)``.

    They depend on nothing else, so they are drawn once per key and shared by
    every search that asks for them.
    """
    rng = np.random.default_rng(seed)
    samples = np.empty((budget, n))
    for i in range(budget):
        samples[i] = _unit_ball_sample(rng, n, norm)
    samples.setflags(write=False)
    return samples


def norm_of(w: Vector, norm: NormChoice) -> float:
    if norm is NormChoice.L2:
        return float(np.linalg.norm(w))
    if norm is NormChoice.L1:
        return float(np.sum(np.abs(w)))
    return float(np.max(np.abs(w)))


def solve_sampling_fallback(f: FunctionModel, x: Vector, norm: NormChoice,
                            budget: int, seed: int) -> DirectionResult:
    """Best of signed coordinate directions, the normalized negative gradient
    when available, and ``budget`` seeded uniform unit-ball samples. The
    samples depend only on (f.dim, norm, budget, seed) and are drawn once per
    process (``_fallback_samples``); the same seed gives the same samples at
    every x.

    Directions with a +inf or NaN subderivative are discarded. A -inf one is
    kept, and the first such candidate wins (``armijo`` has the step rule for
    d = -inf). If everything is discarded the zero direction is returned.
    Never exact: a fallback result can fail to refute stationarity but cannot
    certify it.
    """
    check_count(budget, "budget")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    x = as_vector(x, f.dim)
    cands = np.vstack([_vertex_matrix(f.dim, False), *_gradient_rows(f, x, norm),
                       _fallback_samples(f.dim, norm, budget, seed)])
    vals = _batch_values(f, x, cands)
    vals = np.where(np.isnan(vals), np.inf, vals)
    i = int(np.argmin(vals))
    if vals[i] == np.inf:
        return DirectionResult(np.zeros(f.dim), ExtReal(0.0), False, len(cands))
    best_w = cands[i].copy()
    return DirectionResult(best_w, _value_at(f, x, best_w), False, len(cands) + 1)
