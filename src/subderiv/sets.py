"""Geometrically derivable sets: membership, projection, tangent-cone distance.

The distance function's subderivative is

    d dist(.; X)(x)(w) = dist(w; T_X(x))                     if x in X,
                         min_{y in proj_X(x)} <x - y, w> / dist(x; X)  else.

Every bundled set is geometrically derivable, which makes its distance
function semi-differentiable. Polyhedral projections and tangent-cone
distances are computed exactly by active-set enumeration over facets; the
bundled sets are low-dimensional test fixtures, not production geometry.

Three row kernels answer many queries at once, and a user set that states
only the scalar queries gets each as a loop over them. ``nearest_points(X)``
gives ``project(x)[0]`` for every row x of a matrix, which is all the
distance value needs; it checks X and asks ``_nearest_points``. For all
rows w at once, ``_nearest_support(x, W)`` answers the distance's outside
branch and ``_tangent_distances(x, W)`` its inside one. A bundled set
states the kernels, and its ``project`` and ``tangent_distance`` run them
on one row, so the two round alike; its ``tangent_distance`` raises
NotFeasible off the set. The kernels form matrix products with
``_dot_first`` and norms row by row, never through BLAS, whose rounding can
depend on the number of rows.
"""

from __future__ import annotations

import abc
import itertools
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyProjection, NotFeasible
from .extreal import ulp_tied_arrays
from .model import RowSubderivatives, Vector, as_directions, as_vector

_MEMBERSHIP_TOL = 1e-9
_MAX_ENUM_ROWS = 16
_KERNEL_ELEMENTS = 1 << 18   # cap on a polyhedron kernel's (points, subsets, m, n) block


def _dot_first(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """sum_j M[j] * V[j] over the leading axis, broadcast, added left to
    right in j, so each entry rounds the same way however many points are
    stacked. The kernels keep the points on the last axis, where each
    elementwise step runs over all of them at once."""
    acc = M[0] * V[0]
    for j in range(1, M.shape[0]):
        acc = acc + M[j] * V[j]
    return acc


class SetModel(abc.ABC):
    """A closed set exposing membership, projection, and tangent distance.

    The kernels ``_nearest_points`` and ``_tangent_distances`` answer
    ``project(x)[0]`` and ``tangent_distance(x, w)`` for every row, bit for
    bit, and ``_nearest_support`` the distance off the set; by default they
    ask ``project`` and ``tangent_distance``.
    """

    geometrically_derivable: bool = False

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        ...

    @abc.abstractmethod
    def contains(self, x: Vector) -> bool:
        ...

    @abc.abstractmethod
    def project(self, x: Vector) -> list[Vector]:
        """All Euclidean nearest points the model can enumerate."""

    @abc.abstractmethod
    def tangent_distance(self, x: Vector, w: Vector) -> float:
        """dist(w; T_X(x)) for a point x of the set."""

    def nearest_points(self, X) -> np.ndarray:
        """``project(x)[0]`` for every row x of the k x n matrix X, as a k x n matrix.

        X is first made a C-contiguous float64 matrix with finite entries by
        ``as_directions``. A row without a nearest point raises
        EmptyProjection.
        """
        return self._nearest_points(as_directions(X, self.dim, "X"))

    def _nearest_points(self, X: np.ndarray) -> np.ndarray:
        """The row kernel on a checked matrix; overrides must match
        ``project(x)[0]`` bit for bit, and this default asks ``project``."""
        out = np.empty_like(X)
        for i, x in enumerate(X):
            pts = self.project(x)
            if not pts:
                raise EmptyProjection("set model returned no nearest point")
            out[i] = pts[0]
        return out

    def _nearest_support(self, x: Vector, W: np.ndarray) -> tuple[float, np.ndarray]:
        """dist(x; X) and, per row w of the checked matrix W, the least
        <w, x - y> over *all* nearest points y of x off the set, because the
        distance's subderivative there is a minimum over the whole projection
        set. This default walks ``project(x)``, d from its first point, first minimum kept."""
        pts = self.project(x)
        if not pts:
            raise EmptyProjection("set model returned no nearest point")
        support = np.vecdot(W, x - pts[0])
        for y in pts[1:]:
            v = np.vecdot(W, x - y)
            support = np.where(v < support, v, support)
        return float(np.linalg.norm(x - pts[0])), support

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        """dist(w; T_X(x)) for every row w of the checked k x n matrix W, at
        a checked point x of the set; this default asks ``tangent_distance``."""
        return np.array([self.tangent_distance(x, w) for w in W], dtype=float)


class _RowTangents(SetModel):
    """A set that states its tangent-cone distance once, as the row kernel.
    ``tangent_distance`` is the one-row case; it raises NotFeasible off the
    set, DimensionMismatch on a wrong length and ValueError on a non-finite entry."""

    @abc.abstractmethod
    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        ...

    def tangent_distance(self, x: Vector, w: Vector) -> float:
        x = as_vector(x, self.dim)
        if not self.contains(x):
            raise NotFeasible("tangent_distance requires x in the set")
        W = as_directions(np.asarray(w, dtype=float)[None], self.dim, "w")
        return float(self._tangent_distances(x, W)[0])


class _UniqueProjection(_RowTangents):
    """A set with one nearest point, computed by its ``_nearest_points`` kernel."""

    def project(self, x: Vector) -> list[Vector]:
        return [self._nearest_points(as_vector(x, self.dim)[None, :])[0]]


class Box(_UniqueProjection):
    """Axis-aligned box [lo, hi]; infinite bounds are allowed."""

    geometrically_derivable = True

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise DimensionMismatch("box bounds must be vectors of equal length")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, x: Vector) -> bool:
        x = as_vector(x, self.dim)
        return bool(np.all(x >= self.lo - _MEMBERSHIP_TOL)
                    and np.all(x <= self.hi + _MEMBERSHIP_TOL))

    def _nearest_points(self, X: np.ndarray) -> np.ndarray:
        return np.clip(X, self.lo, self.hi)

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        at_lo = np.abs(x - self.lo) <= _MEMBERSHIP_TOL
        at_hi = np.abs(x - self.hi) <= _MEMBERSHIP_TOL
        # Tangent cone: w_i >= 0 on active lower faces, w_i <= 0 on upper; on
        # both faces (lo == hi) one term is zero and all of w_i is kept.
        V = np.where(at_lo, np.minimum(W, 0.0), 0.0) + np.where(at_hi, np.maximum(W, 0.0), 0.0)
        return np.sqrt(np.vecdot(V, V))


def nonnegative_orthant(n: int) -> Box:
    return Box(np.zeros(n), np.full(n, np.inf))


class Ball(_UniqueProjection):
    """Euclidean ball of radius r around a center."""

    geometrically_derivable = True

    def __init__(self, center, radius: float):
        self.center = as_vector(center, name="center")
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        self.radius = float(radius)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, x: Vector) -> bool:
        x = as_vector(x, self.dim)
        return bool(np.linalg.norm(x - self.center) <= self.radius + _MEMBERSHIP_TOL)

    def _nearest_points(self, X: np.ndarray) -> np.ndarray:
        D = X - self.center
        nrm = np.sqrt(np.vecdot(D, D))
        # r / max(nrm, r) is r / nrm on every row it scales, and never r / 0
        scale = self.radius / np.maximum(nrm, self.radius)
        return np.where((nrm <= self.radius)[:, None], X, self.center + scale[:, None] * D)

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        d = x - self.center
        nrm = np.linalg.norm(d)
        if nrm < self.radius - _MEMBERSHIP_TOL:
            return np.zeros(W.shape[0])
        # Boundary: tangent cone is the halfspace <x - c, w> <= 0.
        return np.maximum(0.0, np.vecdot(W, d) / nrm)


class AffineSubspace(_UniqueProjection):
    """{x : A x = b}; projection and tangent distance via the pseudo-inverse."""

    geometrically_derivable = True

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = as_vector(b, name="b")
        if self.A.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("A rows must match b length")
        self._pinv = np.linalg.pinv(self.A)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def contains(self, x: Vector) -> bool:
        x = as_vector(x, self.dim)
        return bool(np.linalg.norm(self.A @ x - self.b) <= _MEMBERSHIP_TOL)

    def _nearest_points(self, X: np.ndarray) -> np.ndarray:
        residual = _dot_first(self.A.T[:, :, None], X.T[:, None, :]) - self.b[:, None]
        return X - _dot_first(self._pinv.T[:, :, None], residual[:, None, :]).T

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        # Tangent space is null(A) at every point of the set; the rows of the
        # normal part are made contiguous for vecdot's per-row dot kernel.
        AW = _dot_first(self.A.T[:, :, None], W.T[:, None, :])
        P = np.ascontiguousarray(_dot_first(self._pinv.T[:, :, None], AW[:, None, :]).T)
        return np.sqrt(np.vecdot(P, P))


class Singleton(_UniqueProjection):
    """The one-point set {p}."""

    geometrically_derivable = True

    def __init__(self, p):
        self.p = as_vector(p, name="p")

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    def contains(self, x: Vector) -> bool:
        x = as_vector(x, self.dim)
        return bool(np.linalg.norm(x - self.p) <= _MEMBERSHIP_TOL)

    def _nearest_points(self, X: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.p, X.shape).copy()

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        return np.sqrt(np.vecdot(W, W))


class _Polyhedral(_RowTangents):
    """Projection onto a finite union of convex polyhedra, ``self.pieces``.

    Each piece gives, for every row, its first nearest candidate and the
    distance to it; the nearest points of the union are those of the pieces
    whose distance ties the least one by ``ulp_tied``, in piece order,
    repeats dropped.
    """

    geometrically_derivable = True
    pieces: Sequence["ConvexPolyhedron"]

    def _nearest_pieces(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of X, each piece's nearest candidate, shape (k, pieces, n),
        and whether that piece ties the least distance, shape (k, pieces)."""
        found = [p._nearest(X) for p in self.pieces]
        d = np.stack([dist for dist, _ in found], axis=1)
        Y = np.stack([y for _, y in found], axis=1)
        return Y, ulp_tied_arrays(d, d.min(axis=1, keepdims=True))

    def project(self, x: Vector) -> list[Vector]:
        x = as_vector(x, self.dim)
        Y, tied = self._nearest_pieces(x[None, :])
        out: list[Vector] = []
        for y in Y[0][tied[0]]:
            if not any(ulp_tied_arrays(y, z).all() for z in out):
                out.append(y)
        return out

    def _nearest_points(self, X: np.ndarray) -> np.ndarray:
        Y, tied = self._nearest_pieces(X)
        if not tied.any(axis=1).all():
            raise EmptyProjection("set model returned no nearest point")
        return Y[np.arange(X.shape[0]), np.argmax(tied, axis=1)]


class ConvexPolyhedron(_Polyhedral):
    """{x : A x <= b}. Exact projections by enumerating facet subsets.

    The per-subset correction matrices are stacked once at construction,
    each zero-padded to m rows, so the candidates x - pinv_S (A_S x - b_S)
    of every facet subset S, their feasibility and their distances come from
    a few broadcast array operations over all points and subsets at once.
    The empty subset comes first; its candidate is x itself, feasible
    exactly when x lies in the set. The nearest point is the first feasible
    candidate of least distance, so a point of the set is its own. The
    tangent-cone distance walks the same table, restricted to the subsets
    of the rows active at x. Row counts are capped; the fixtures this backs
    are small.

    Row i of A y <= b is tested with the tolerance
    1e-9 * max(1, (|A| |y|)_i + |b_i|), relative to the magnitudes that
    round in A y - b, so that scaling the set and the point together scales
    which rows count as satisfied or active along with them. On rows whose
    magnitude (|A| |y|)_i + |b_i| is at most 1 it is the absolute 1e-9 the
    other sets use; beyond that it grows with the magnitude.
    """

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = as_vector(b, name="b")
        if self.A.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("A rows must match b length")
        self._abs_A = np.abs(self.A)
        self._abs_b = np.abs(self.b)
        m, n = self.A.shape
        if m > _MAX_ENUM_ROWS:
            raise ValueError(f"polyhedron has {m} rows; enumeration capped at {_MAX_ENUM_ROWS}")
        # Every facet subset, the empty one first, by size and then
        # lexicographic, padded to m rows: row l of subset i is row
        # _subset_rows[l, i] of A, a padding row where _subset_used[l, i] is
        # False, and pinv column l is _subset_pinvs[l, :, i] (zero on padding).
        subsets = [S for r in range(m + 1) for S in itertools.combinations(range(m), r)]
        self._subset_rows = np.zeros((m, len(subsets)), dtype=int)
        self._subset_used = np.zeros((m, len(subsets), 1), dtype=bool)
        self._subset_pinvs = np.zeros((m, n, len(subsets), 1))
        for i, S in enumerate(subsets):
            self._subset_rows[:len(S), i] = S
            self._subset_used[:len(S), i] = True
            self._subset_pinvs[:len(S), :, i, 0] = np.linalg.pinv(self.A[list(S), :]).T

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def pieces(self) -> list["ConvexPolyhedron"]:
        return [self]

    def _row_tol(self, y: Vector) -> np.ndarray:
        """Per-row membership tolerance at y (see the class docstring)."""
        return _MEMBERSHIP_TOL * np.maximum(1.0, self._abs_A @ np.abs(y) + self._abs_b)

    def _feasible(self, Y: np.ndarray) -> np.ndarray:
        """Does each point y = Y[:, ...] (coordinates on the leading axis)
        satisfy A y <= b within the row tolerance?"""
        rows = (slice(None), slice(None)) + (None,) * (Y.ndim - 1)
        Ay = _dot_first(self.A.T[rows], Y[:, None])
        scale = _dot_first(self._abs_A.T[rows], np.abs(Y)[:, None]) + self._abs_b[rows[1:]]
        return np.all(Ay <= self.b[rows[1:]] + _MEMBERSHIP_TOL * np.maximum(1.0, scale), axis=0)

    def contains(self, x: Vector) -> bool:
        return bool(self._feasible(as_vector(x, self.dim)))

    def _nearest(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For every row of the (k, n) matrix X, the distance to its nearest
        candidate (+inf when no candidate is feasible) and that candidate."""
        dist = np.empty(X.shape[0])
        Y = np.empty_like(X)
        chunk = max(1, _KERNEL_ELEMENTS // self._subset_pinvs.size)
        for lo in range(0, X.shape[0], chunk):
            Xt = X[lo:lo + chunk].T                                          # (n, k)
            residual = _dot_first(self.A.T[:, :, None], Xt[:, None, :]) - self.b[:, None]
            residual = np.where(self._subset_used, residual[self._subset_rows], 0.0)
            # candidates x - pinv_S (A_S x - b_S), shape (n, subsets, k)
            C = Xt[:, None, :] - _dot_first(self._subset_pinvs, residual[:, None])
            D = Xt[:, None, :] - C
            d = np.where(self._feasible(C), np.sqrt(_dot_first(D, D)), np.inf)
            first = np.argmin(d, axis=0)
            points = np.arange(Xt.shape[1])
            dist[lo:lo + chunk] = d[first, points]
            Y[lo:lo + chunk] = C[:, first, points].T
        return dist, Y

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        """Least ||w - v|| over v = 0 and v = w - pinv_S A_S w with A_act v <= 1e-9,
        for each subset S of the active rows; the empty S gives v = w."""
        act = self.A @ x >= self.b - self._row_tol(x)
        if not act.any():   # an interior point, whose tangent cone is the whole space
            return np.zeros(W.shape[0])
        sel = np.flatnonzero(np.all(act[self._subset_rows] | ~self._subset_used[:, :, 0], axis=0))
        rows, used = self._subset_rows[:, sel], self._subset_used[:, sel]
        pinvs = self._subset_pinvs[:, :, sel]
        A_act = self.A[act].T[:, :, None, None]
        best = np.sqrt(np.vecdot(W, W))   # v = 0 is always in the cone
        chunk = max(1, _KERNEL_ELEMENTS // pinvs.size)
        for lo in range(0, W.shape[0], chunk):
            Wt = W[lo:lo + chunk].T                                          # (n, k)
            AW = np.where(used, _dot_first(self.A.T[:, :, None], Wt[:, None, :])[rows], 0.0)
            V = Wt[:, None, :] - _dot_first(pinvs, AW[:, None])             # (n, subsets, k)
            ok = np.all(_dot_first(A_act, V[:, None]) <= _MEMBERSHIP_TOL, axis=0)
            D = Wt[:, None, :] - V
            d = np.where(ok, np.sqrt(_dot_first(D, D)), np.inf).min(axis=0)
            best[lo:lo + chunk] = np.minimum(best[lo:lo + chunk], d)
        return best


class FiniteUnion(_Polyhedral):
    """Finite union of convex polyhedra.

    Unions preserve derivability, and the tangent cone at x is the union of
    the member cones over the pieces containing x; projections are gathered
    per piece and filtered to the global minimizers.
    """

    def __init__(self, pieces: Sequence[ConvexPolyhedron]):
        if not pieces:
            raise ValueError("union needs at least one piece")
        dims = {p.dim for p in pieces}
        if len(dims) != 1:
            raise DimensionMismatch("union pieces disagree on dimension")
        self.pieces = list(pieces)
        self._dim = dims.pop()

    @property
    def dim(self) -> int:
        return self._dim

    def contains(self, x: Vector) -> bool:
        x = as_vector(x, self.dim)
        return any(p.contains(x) for p in self.pieces)

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        return np.minimum.reduce([p._tangent_distances(x, W) for p in self.pieces
                                  if p.contains(x)])


class ComplementaritySet(_RowTangents):
    """{(y, z) in R^{2k} : <y, z> = 0, y <= 0, z <= 0}.

    With both blocks nonpositive the inner product vanishes iff y_i z_i = 0
    componentwise, so the set is a product of k planar corners, each the
    union of two rays. Projection and tangent distance decompose per pair.
    """

    geometrically_derivable = True

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = int(k)

    @property
    def dim(self) -> int:
        return 2 * self.k

    def contains(self, x: Vector) -> bool:
        x = as_vector(x, self.dim)
        y, z = x[:self.k], x[self.k:]
        if np.any(y > _MEMBERSHIP_TOL) or np.any(z > _MEMBERSHIP_TOL):
            return False
        return bool(np.all(np.abs(y * z) <= _MEMBERSHIP_TOL))

    def _corner_projections(self, X: np.ndarray):
        """Nearest points of each pair (a, b) of every row of X on the corner
        {a <= 0, b <= 0, ab = 0}: a on the ray b = 0, b on the ray a = 0,
        whether the two rays tie by ``ulp_tied``, and whether the first ray
        is nearest (the first is taken on a tie). All arrays are (rows, k)."""
        a, b = X[:, :self.k], X[:, self.k:]
        on_a, on_b = np.minimum(a, 0.0), np.minimum(b, 0.0)
        d1 = (a - on_a) ** 2 + b ** 2
        d2 = a ** 2 + (b - on_b) ** 2
        tied = ulp_tied_arrays(d1, d2)
        return on_a, on_b, tied, tied | (d1 < d2)

    def _points(self, on_a: np.ndarray, on_b: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Corner points on the ray b = 0 where ``mask`` holds, else on a = 0."""
        return np.hstack([np.where(mask, on_a, 0.0), np.where(mask, 0.0, on_b)])

    def project(self, x: Vector) -> list[Vector]:
        x = as_vector(x, self.dim)
        on_a, on_b, tied, first = (v[0] for v in self._corner_projections(x[None, :]))
        # each choice on the pairs whose tied rays differ, in itertools.product order
        split = np.flatnonzero(tied & ((on_a != 0.0) | (on_b != 0.0)))
        mask = np.repeat(first[None, :], 2 ** split.size, axis=0)
        mask[:, split] = (np.arange(len(mask))[:, None] >> np.arange(split.size)[::-1]) % 2 == 0
        return list(self._points(on_a, on_b, mask))

    def _nearest_points(self, X: np.ndarray) -> np.ndarray:
        on_a, on_b, _, first = self._corner_projections(X)
        return self._points(on_a, on_b, first)

    def _nearest_support(self, x: Vector, W: np.ndarray) -> tuple[float, np.ndarray]:
        """<w, x - y> splits by pair, so a row's least over the 2^t points of t
        tied pairs is where each tied pair takes the ray with the smaller term
        (the first on an exact tie); the row is scored there by the walk's vecdot."""
        on_a, on_b, tied, first = (v[0] for v in self._corner_projections(x[None, :]))
        a, b = x[:self.k], x[self.k:]
        U, V = W[:, :self.k], W[:, self.k:]
        smaller_a = U * (a - on_a) + V * b <= U * a + V * (b - on_b)
        Y = self._points(on_a, on_b, np.where(tied, smaller_a, first))
        return float(np.linalg.norm(x - self._points(on_a, on_b, first))), np.vecdot(W, x - Y)

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        a, b = x[:self.k], x[self.k:]
        U, V = W[:, :self.k], W[:, self.k:]
        # Inside the ray b = 0 only v must vanish, inside a = 0 only u; a corner is its own cone.
        corner = np.minimum(V * V + np.maximum(U, 0.0) ** 2, U * U + np.maximum(V, 0.0) ** 2)
        sq = np.where(a < -_MEMBERSHIP_TOL, V * V, np.where(b < -_MEMBERSHIP_TOL, U * U, corner))
        return np.sqrt(np.sum(sq, axis=1))


class DistanceToSet(RowSubderivatives):
    """Euclidean distance to a set, with its closed-form subderivative.

    The value is globally 1-Lipschitz, so |d f(x)(w)| <= ||w||. The model is
    semi-differentiable exactly when the set is geometrically derivable.
    Off the set the subderivative is the set's ``_nearest_support`` over d,
    exact only when it reaches every nearest point; a user set whose
    ``project`` returns a strict subset yields an upper bound (not checked).
    """

    def __init__(self, X: SetModel):
        self.X = X
        self.semi_differentiable = X.geometrically_derivable

    @property
    def dim(self) -> int:
        return self.X.dim

    def _value(self, x: Vector) -> float:
        return float(self._values(x[None])[0])

    def _values(self, X: np.ndarray) -> np.ndarray:
        # vecdot runs np.linalg.norm's dot kernel per row; a row sum need not.
        D = X - self.X._nearest_points(X)
        return np.sqrt(np.vecdot(D, D))

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        if self.X.contains(x):
            return self.X._tangent_distances(x, W)
        d, support = self.X._nearest_support(x, W)
        return support / d


def distance_to_set(X: SetModel) -> DistanceToSet:
    """Distance-function oracle for a set model."""
    return DistanceToSet(X)
