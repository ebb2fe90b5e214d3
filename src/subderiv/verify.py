"""Independent oracles: finite differences, brute-force search, and samplers.

What is independent is the method. The finite-difference harness
discretizes the defining lower limit directly and asks only for values, x
and all of one estimate's probe points in one batched ``f.values`` query;
the brute-force direction search checks the closed-form searches against
plain enumeration of a dense grid of the unit sphere; the samplers
instantiate the descent-property and sufficient-decrease inequalities
literally. The subderivative oracle is an input that a search and its
brute-force check share: the enumeration scores its grid with one call of
the row kernel ``f._subderivatives``, which must equal the scalar query bit
for bit (``tests/test_batched.py`` pins every override, of both batched
queries).

What depends only on sizes is built once per process and kept read-only: an
``FDConfig`` computes its step grid when it is made, the FD perturbation
draws are cached per (seed, levels, perturbations, dim), and the brute-force
candidates (signed coordinate vectors, then the sphere grid) per (norm, n,
resolution).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calculus import SemiDiffMap
from .direction import (DirectionResult, NormChoice, _best_candidate, _checked_values,
                        _value_at)
from .errors import DimensionTooLarge, DomainViolation, NotFeasible
from .extreal import ExtReal, POS_INF
from .model import FunctionModel, Vector, as_vector, check_count
from .sets import SetModel
from .solver import sufficient_decrease_audit  # noqa: F401 (re-exported)

_BRUTE_DIM_CAP = 4
_BRUTE_SAMPLE_CAP = 2_000_000


class FDMode(enum.Enum):
    LIMINF_APPROX = "liminf"
    FULL_LIMIT = "full"


@dataclass(frozen=True)
class FDConfig:
    """Grid for the difference-quotient estimator.

    The step grid is t_j = t0 * rho^j for j = 0..levels, i.e. ``levels``
    counts refinements below t0 (21 grid points by default, finest step
    ~9.5e-9, where a 1/t quotient crosses the divergence threshold). Each
    level also probes ``perturbations`` directions w' on a sphere around w
    whose radius min(t, 0.1 ||w||) vanishes with t, since the defining limit
    couples w' -> w with t -> 0. ``levels`` and ``perturbations`` are
    integers; the steps are computed once, when the config is made.
    """

    t0: float = 1e-2
    rho: float = 0.5
    levels: int = 20
    perturbations: int = 8
    mode: FDMode = FDMode.FULL_LIMIT
    divergence_threshold: float = 1e8
    agreement_tol: float = 1e-4
    seed: int = 20240817

    def __post_init__(self):
        if not self.t0 > 0 or not (0.0 < self.rho < 1.0):
            raise ValueError("need t0 > 0 and rho in (0, 1)")
        if not self.divergence_threshold > 0 or not self.agreement_tol >= 0:
            raise ValueError("need divergence_threshold > 0 and agreement_tol >= 0")
        check_count(self.levels, "levels")
        check_count(self.perturbations, "perturbations")
        if self.levels < 2:
            raise ValueError("need at least two grid levels")
        if self.perturbations < 0:
            raise ValueError("perturbations must be nonnegative")
        if not self.t0 * self.rho ** self.levels > 0:
            raise ValueError("the finest step t0 * rho**levels underflows to 0")
        T = np.array([self.t0 * self.rho ** j for j in range(self.levels + 1)])[:, None]
        T.setflags(write=False)
        # not a field: derived from the fields, so equality, hashing and repr ignore it
        object.__setattr__(self, "_T", T)


_DEFAULT_FD = FDConfig()


@dataclass
class FDResult:
    estimate: ExtReal
    diverged: bool
    converged: Optional[bool]  # FULL_LIMIT only
    t_grid: list[float] = field(default_factory=list)
    quotients: list[float] = field(default_factory=list)        # w' = w per level
    min_quotients: list[float] = field(default_factory=list)    # incl. perturbations


@functools.lru_cache(maxsize=8)
def _fd_perturbations(seed: int, levels: int, perturbations: int,
                      dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The FD grid's raw perturbation draws and their norms, read-only.

    Level j draws ``perturbations`` standard normal vectors of length ``dim``
    one at a time from ``default_rng([seed, j])``; they fill row j of the
    (levels + 1, perturbations, dim) array, and ``np.linalg.norm`` of each
    fills the (levels + 1, perturbations) array. Nothing here depends on the
    point or the direction, so each key is drawn once per process.
    """
    draws = np.empty((levels + 1, perturbations, dim))
    norms = np.empty((levels + 1, perturbations))
    for j in range(levels + 1):
        rng = np.random.default_rng([seed, j])
        for i in range(perturbations):
            draws[j, i] = rng.standard_normal(dim)
            norms[j, i] = np.linalg.norm(draws[j, i])
    draws.setflags(write=False)
    norms.setflags(write=False)
    return draws, norms


def _values_at(f: FunctionModel, X: np.ndarray) -> np.ndarray:
    """f at every row of X through one batched query, checked as ``value`` is."""
    vals = _checked_values(f, "values", f.values(X), X.shape[0])
    if np.isnan(vals).any():
        raise ValueError(f"{type(f).__name__}.values returned NaN")
    return vals


def fd_subderivative(f: FunctionModel, x: Vector, w: Vector,
                     cfg: Optional[FDConfig] = None) -> FDResult:
    """Difference-quotient estimate of d f(x)(w) straight from the definition.

    LIMINF_APPROX takes the minimum quotient over the whole (t, w') grid; a
    liminf is an infimum of tail behavior, so the grid minimum is the
    conservative estimate of a lower limit. FULL_LIMIT returns the finest
    unperturbed quotient and flags non-convergence when the last three
    levels disagree beyond ``agreement_tol``. Either mode reports +inf when
    every finest-level quotient exceeds the divergence threshold.

    The step grid is computed once per config, and the default config is
    made once per process. The perturbations are seeded per level by
    ``cfg.seed`` and depend only on the seed and the grid's shape, so they
    are drawn once per process (``_fd_perturbations``) and rescaled to each
    level's radius. x and then every probe point, level by level with
    w' = w first, are scored by one ``f.values`` query, so f(x) is its first
    row; a level's minimum quotient is its first minimum, as a running
    ``min`` over the level's quotients would give. Because f(x) is checked
    after that query, a model that raises at a probe point raises its own
    error even where f(x) is not finite; otherwise an infinite f(x) raises
    DomainViolation.
    """
    cfg = _DEFAULT_FD if cfg is None else cfg
    x = as_vector(x, f.dim, "x")
    w = as_vector(w, f.dim, "w")
    wnorm = float(np.linalg.norm(w))
    T = cfg._T
    # Every step t is positive, so each level's radius min(t, 0.1 ||w||) is
    # positive exactly when 0.1 ||w|| is.
    perturbed = cfg.perturbations > 0 and 0.1 * wnorm > 0
    width = 1 + cfg.perturbations if perturbed else 1
    points = np.empty((1 + T.shape[0] * width, f.dim))
    points[0] = x
    # probes[j] holds level j's points: x + t w, then its perturbed ones.
    probes = points[1:].reshape(T.shape[0], width, f.dim)
    probes[:, 0] = x + T * w
    if perturbed:
        draws, norms = _fd_perturbations(cfg.seed, cfg.levels, cfg.perturbations, f.dim)
        radii = np.minimum(T, 0.1 * wnorm)
        probes[:, 1:] = x + T[:, :, None] * (w + draws * (radii / norms)[:, :, None])
    vals = _values_at(f, points)
    fx = vals[0]
    if not math.isfinite(fx):
        raise DomainViolation("fd_subderivative needs f(x) finite")
    Q = (vals[1:].reshape(probes.shape[:2]) - fx) / T
    t_grid = T[:, 0].tolist()
    quotients = Q[:, 0].tolist()
    min_quotients = Q[np.arange(Q.shape[0]), np.argmin(Q, axis=1)].tolist()
    diverged = min_quotients[-1] > cfg.divergence_threshold
    if diverged:
        return FDResult(POS_INF, True, None, t_grid, quotients, min_quotients)
    if cfg.mode is FDMode.LIMINF_APPROX:
        return FDResult(ExtReal(min(min_quotients)), False, None,
                        t_grid, quotients, min_quotients)
    tail = quotients[-3:]
    spread = max(tail) - min(tail)
    converged = math.isfinite(spread) and spread <= cfg.agreement_tol
    return FDResult(ExtReal(quotients[-1]), False, converged,
                    t_grid, quotients, min_quotients)


def _index_rows(base: int, r: int) -> np.ndarray:
    """Every r-tuple over range(base) as the rows of a (base**r, r) matrix,
    in ``itertools.product`` order (the last entry varies fastest)."""
    return np.indices((base,) * r).reshape(r, base ** r).T


def _l2_sphere_grid(n: int, resolution: float) -> np.ndarray:
    """Hyperspherical angles: rows (cos a1, sin a1 cos a2, ..., sin a1 ... sin a_{n-1}),
    each product formed left to right, the last angle varying fastest."""
    if n == 1:
        return np.array([[-1.0], [1.0]])
    counts = [max(2, int(math.ceil(math.pi / resolution)) + 1)] * (n - 2)
    counts.append(max(4, int(math.ceil(2 * math.pi / resolution))))
    total = int(np.prod(counts))
    if total > _BRUTE_SAMPLE_CAP:
        raise ValueError(f"resolution {resolution} needs {total} sphere samples")
    axes = [np.linspace(0.0, math.pi, c) for c in counts[:-1]]
    axes.append(np.linspace(0.0, 2 * math.pi, counts[-1], endpoint=False))
    W = np.empty(counts + [n])
    s = np.ones(())
    for i, axis in enumerate(axes):
        along = [1] * (n - 1)
        along[i] = -1
        W[..., i] = s * np.array([math.cos(a) for a in axis]).reshape(along)
        s = s * np.array([math.sin(a) for a in axis]).reshape(along)
    W[..., n - 1] = s
    return W.reshape(total, n)


def _l1_sphere_grid(n: int, resolution: float) -> np.ndarray:
    """Points c/k with c a nonnegative integer n-tuple summing to k, in
    lexicographic order of c, each with every sign pattern on its support
    (+ before -, the first support coordinate varying slowest)."""
    k = max(1, int(round(1.0 / resolution)))
    # a tuple with s nonzero entries: C(n, s) supports, C(k-1, s-1) values, 2^s signs
    total = sum(math.comb(n, s) * math.comb(k - 1, s - 1) * 2 ** s
                for s in range(1, min(n, k) + 1))
    if total > _BRUTE_SAMPLE_CAP:
        raise ValueError(f"resolution {resolution} needs too many l1 samples")
    head = _index_rows(k + 1, n - 1)
    last = k - head.sum(axis=1)
    combos = np.column_stack([head, last])[last >= 0]
    bits = _index_rows(2, n)
    # a sign pattern applies to a tuple when it is + off the tuple's support
    fits = ~np.any((combos[:, None, :] == 0) & (bits[None, :, :] == 1), axis=2)
    mags = combos.astype(float) / k
    return (mags[:, None, :] * (1.0 - 2.0 * bits)[None, :, :])[fits]


def _linf_sphere_grid(n: int, resolution: float) -> np.ndarray:
    """Faces w_j = +1, then w_j = -1, for j = 1..n in turn, each with the
    other coordinates running over an axis grid in product order."""
    steps = max(2, int(round(2.0 / resolution)) + 1)
    axis = np.linspace(-1.0, 1.0, steps)
    if 2 * n * steps ** (n - 1) > _BRUTE_SAMPLE_CAP:
        raise ValueError(f"resolution {resolution} needs too many linf samples")
    rest = axis[_index_rows(steps, n - 1)]
    W = np.empty((n, 2, rest.shape[0], n))
    for j in range(n):
        W[j][..., j] = [[1.0], [-1.0]]
        W[j][..., [i for i in range(n) if i != j]] = rest
    return W.reshape(-1, n)


_SPHERE_GRIDS = {NormChoice.L2: _l2_sphere_grid, NormChoice.L1: _l1_sphere_grid,
                 NormChoice.LINF: _linf_sphere_grid}


@functools.lru_cache(maxsize=8)
def _brute_candidates(norm: NormChoice, n: int, resolution: float) -> np.ndarray:
    """The signed coordinate vectors e1, -e1, e2, ... (the rows of I and -I
    interleaved, -0.0 entries included) stacked on the sphere grid, read-only.

    They depend only on the key, so each is built once per process; a grid
    over the sample cap raises and is not cached.
    """
    eye = np.eye(n)
    W = np.vstack([np.stack([eye, -eye], axis=1).reshape(2 * n, n),
                   _SPHERE_GRIDS[norm](n, resolution)])
    W.setflags(write=False)
    return W


def brute_force_direction(f: FunctionModel, x: Vector, norm: NormChoice,
                          resolution: float) -> DirectionResult:
    """Dense enumeration of the unit sphere of the chosen norm.

    The candidates are the signed coordinate vectors e1, -e1, e2, ...
    (corners are grid points by construction for l1/linf), the normalized
    negative gradient when available, so exact solvers are matched on their
    own candidates, and then the sphere grid. The coordinate vectors and the
    grid depend only on (norm, n, resolution), so they are built once per
    process (``_brute_candidates``); the gradient candidate is stacked
    between them on each call. x is checked once, on entry, and the gradient
    row as the public batch checks W; the library's own candidates are not
    checked again. All of them are scored by one call of the row kernel
    ``f._subderivatives(x, W)`` (``direction._best_candidate``, which the
    sampling fallback shares); a NaN counts as +inf, the first minimum
    wins, and if every value is +inf the first candidate is returned. The
    winner's value is read back through the one-row kernel call
    ``f._subderivatives(x, w[None])``. Dimension is capped at 4; this is an
    oracle, not a production search.
    """
    x = as_vector(x, f.dim)
    n = f.dim
    if n > _BRUTE_DIM_CAP:
        raise DimensionTooLarge(f"brute force capped at dimension {_BRUTE_DIM_CAP}")
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    best_w, _, k = _best_candidate(f, x, _brute_candidates(norm, n, resolution), norm)
    return DirectionResult(best_w, _value_at(f, x, best_w), False, k + 1)


@dataclass
class DescentSampleReport:
    violations: list[tuple[Vector, Vector, float]]
    max_gap: float
    pairs: int

    @property
    def clean(self) -> bool:
        return not self.violations


def descent_property_sample(f: FunctionModel, L: float,
                            region: tuple[Vector, Vector], pairs: int,
                            seed: int, tol: float = 1e-9) -> DescentSampleReport:
    """Sample the descent inequality f(y) <= f(x) + d f(x)(y-x) + (L/2)||y-x||^2.

    Pairs (x, y) are drawn uniformly in the box ``region``, x then y for
    each pair in turn, and both ends are scored by one ``f.values`` query
    each; gaps beyond ``tol`` are recorded as violations, and the worst
    signed gap is reported either way. ``pairs`` is an integer.
    """
    if not L >= 0:
        raise ValueError("L must be nonnegative")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    check_count(pairs, "pairs")
    if pairs < 0:
        raise ValueError("pairs must be nonnegative")
    lo = as_vector(region[0], f.dim, "region lo")
    hi = as_vector(region[1], f.dim, "region hi")
    rng = np.random.default_rng(seed)
    X = np.empty((pairs, f.dim))
    Y = np.empty((pairs, f.dim))
    for i in range(pairs):
        X[i] = rng.uniform(lo, hi)
        Y[i] = rng.uniform(lo, hi)
    violations = []
    max_gap = -np.inf
    for x, y, fx, fy in zip(X, Y, _values_at(f, X).tolist(), _values_at(f, Y).tolist()):
        d = f.subderivative(x, y - x).v
        rhs = fx + d + 0.5 * L * float(np.dot(y - x, y - x))
        gap = fy - rhs
        if math.isnan(gap):  # inf - inf from extended values; skip the pair
            continue
        max_gap = max(max_gap, gap)
        if gap > tol:
            violations.append((x, y, gap))
    return DescentSampleReport(violations, float(max_gap), pairs)


def tangent_membership(G: SemiDiffMap, X: SetModel, x: Vector, w: Vector,
                       tol: float = 1e-9) -> bool:
    """Is w tangent to {x : G(x) in X} at x, via dG(x)(w) in T_X(G(x))?

    Requires G(x) in X; the membership test compares the tangent-cone
    distance of the propagated direction against ``tol``.
    """
    x = as_vector(x, G.dim_in)
    w = as_vector(w, G.dim_in)
    gx = G.eval(x)
    if not X.contains(gx):
        raise NotFeasible("tangent_membership requires G(x) in X")
    dgw = G.semiderivative(x, w)
    return X.tangent_distance(gx, dgw) <= tol
