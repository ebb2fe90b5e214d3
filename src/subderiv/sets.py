"""Geometrically derivable sets: membership, projection, tangent-cone distance.

The distance function's subderivative is

    d dist(.; X)(x)(w) = dist(w; T_X(x))                     if x in X,
                         min_{y in proj_X(x)} <x - y, w> / dist(x; X)  else.

Every bundled set is geometrically derivable, which makes its distance
function semi-differentiable; a polyhedron of any row count projects by one
least-distance solve per point, and its tangent cone by the same solve; a
union skips a piece on a point where a lower bound on the piece's distance
exceeds the least distance found, and the piece reads d = +inf there.

Three row kernels answer many queries at once; a user set that states
only the scalar queries gets each as a loop over them. ``_nearest_points``
gives ``project(x)[0]`` for every row x (``nearest_points`` checks X
first), which is all the distance value needs; ``_nearest_support(x, W)``
answers the distance's outside branch for all rows w and
``_tangent_distances(x, W)`` its inside one. A bundled set states the
kernels, and its ``project`` and ``tangent_distance`` run them on one row,
so the two round alike. Every product over the rows is an ``np.vecdot`` of contiguous
rows, rounded alike at any row count; only a union's lower bounds use BLAS, whose rounding
can depend on the row count, as they decide no bit of an answer.

Membership is the distance's: ``contains`` asks dist(x; X) <= 1e-9 for
every set. The distance's subderivative takes the inside branch exactly
where the d it computes is 0.0, where x is its own nearest point, as it is
within the rounding of a ball's, subspace's or polyhedron's projection.
Tangent kernels take faces exactly.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyProjection, NotFeasible
from .extreal import ulp_tied_arrays
from .model import (RowSubderivatives, Vector, as_directions, as_matrix, as_vector, check_count,
                    check_real, check_same_dim)

_MEMBERSHIP_TOL = 1e-9


def _norm(D: np.ndarray) -> np.ndarray:
    """sqrt(vecdot(d, d)) per row d of D; a row whose sum of squares underflows
    (||d|| < 1.5e-154) is scaled by 2^600 first, so it does not read 0.0, and
    one whose sum overflows (||d|| > 1.3e154) by 2^-600, so it does not read inf."""
    # with every |d_i| below 2^511 / sqrt(n) no sum of squares passes 2^1022: vecdot cannot overflow
    if np.abs(D).max(initial=0.0) < 2.0 ** 511 / math.sqrt(max(D.shape[-1], 1)):
        sq = np.vecdot(D, D)
        if sq.min(initial=np.inf) >= 2.0 ** -1022 or not D.any():   # 2^-1022: the least normal
            return np.sqrt(sq)
    else:
        with np.errstate(over="ignore"):
            sq = np.vecdot(D, D)
    s = np.where(sq < 2.0 ** -1022, 2.0 ** 600, np.where(sq < np.inf, 1.0, 2.0 ** -600))
    return np.sqrt(np.vecdot(D * s[..., None], D * s[..., None])) / s   # other rows keep their bits


def _residual_band(A: np.ndarray, b: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A x - b per row x of X, as (k, m) rows, and its band: 8 n ulps of (|A| |x|)_i + |b_i|."""
    X = np.ascontiguousarray(X)   # a point may be a strided view, as_vector keeps it
    residual = np.vecdot(X[:, None, :], A) - b
    scale = np.vecdot(np.abs(X)[:, None, :], np.abs(A))
    return residual, 8 * A.shape[1] * np.spacing(scale + np.abs(b))


def _solve(M: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z with M z = r per stacked M and row r of R, and whether M is nonsingular
    (a singular M, with an LU pivot of 0, is solved as I)."""
    try:
        return np.linalg.solve(M, R[:, :, None])[:, :, 0], np.ones(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        solved = np.linalg.slogdet(M)[0] != 0.0
        return _solve(np.where(solved[:, None, None], M, np.eye(M.shape[1])), R)[0], solved


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

    def contains(self, x: Vector) -> bool:
        """Is dist(x; X) <= 1e-9? The distance is the one ``distance_to_set``
        values x at: to the first nearest point, summed by one vecdot."""
        x = as_vector(x, self.dim)
        return bool(_norm(x - self._nearest_points(x[None, :])[0]) <= _MEMBERSHIP_TOL)

    @abc.abstractmethod
    def project(self, x: Vector) -> list[Vector]:
        """All Euclidean nearest points the model can enumerate."""

    @abc.abstractmethod
    def tangent_distance(self, x: Vector, w: Vector) -> float:
        """dist(w; T_X(x)) for a point x of the set."""

    def nearest_points(self, X) -> np.ndarray:
        """``project(x)[0]`` for every row x of the k x n matrix X, as a k x n
        matrix; X is checked by ``as_directions`` (C-contiguous float64, finite
        entries), and a row without a nearest point raises EmptyProjection."""
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

    def _nearest_support(self, x: Vector, W: np.ndarray, pts=None) -> tuple[float, np.ndarray]:
        """dist(x; X) and, per row w of the checked matrix W, the least
        <w, x - y> over *all* nearest points y of x off the set, because the
        distance's subderivative there is a minimum over the whole projection
        set. This default walks ``pts`` (by default ``project(x)``), d from its
        first point, first minimum kept."""
        pts = self.project(x) if pts is None else pts
        if not len(pts):
            raise EmptyProjection("set model returned no nearest point")
        support = np.vecdot(W, x - pts[0])
        for y in pts[1:]:
            v = np.vecdot(W, x - y)
            support = np.where(v < support, v, support)
        return float(_norm(x - pts[0])), support

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        """dist(w; T_X(x)) for every row w of the checked k x n matrix W, at
        a checked point x of the set; this default asks ``tangent_distance``."""
        return np.array([self.tangent_distance(x, w) for w in W], dtype=float)


class _RowTangents(SetModel):
    """A set that states its tangent-cone distance once, as the row kernel.
    ``tangent_distance`` is the one-row case at the nearest point of x, so a
    point that ``contains`` admits from just outside a face has it active;
    it raises NotFeasible off the set, DimensionMismatch on a wrong length
    and ValueError on a non-finite entry."""

    @abc.abstractmethod
    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        ...

    def tangent_distance(self, x: Vector, w: Vector) -> float:
        x = as_vector(x, self.dim)
        y = self._nearest_points(x[None, :])[0]
        if not _norm(x - y) <= _MEMBERSHIP_TOL:   # not ``contains(x)``, on the same y
            raise NotFeasible("tangent_distance requires x in the set")
        W = as_directions(np.asarray(w, dtype=float)[None], self.dim, "w")
        return float(self._tangent_distances(y, W)[0])


class _UniqueProjection(_RowTangents):
    """A set with one nearest point, computed by its ``_nearest_points`` kernel."""

    def project(self, x: Vector) -> list[Vector]:
        return [self._nearest_points(as_vector(x, self.dim)[None, :])[0]]

    def _nearest_support(self, x: Vector, W: np.ndarray) -> tuple[float, np.ndarray]:
        return super()._nearest_support(x, W, self._nearest_points(x[None, :]))


class Box(_UniqueProjection):
    """Axis-aligned box [lo, hi]; infinite bounds are allowed, NaN bounds are not."""

    geometrically_derivable = True

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise DimensionMismatch("box bounds must be vectors of equal length")
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("box bounds must not be NaN")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def _nearest_points(self, X: np.ndarray) -> np.ndarray:
        return np.clip(X, self.lo, self.hi)

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        at_lo, at_hi = x == self.lo, x == self.hi
        # Tangent cone: w_i >= 0 on active lower faces, w_i <= 0 on upper; on
        # both faces (lo == hi) one term is zero and all of w_i is kept.
        V = np.where(at_lo, np.minimum(W, 0.0), 0.0) + np.where(at_hi, np.maximum(W, 0.0), 0.0)
        return _norm(V)


def nonnegative_orthant(n: int) -> Box:
    return Box(np.zeros(n), np.full(n, np.inf))


class Ball(_UniqueProjection):
    """Euclidean ball of radius r around a center. A norm ||x - c|| within
    8 ulps of max(|x|, |c|, r) of r, the rounding of ``project``, is on the sphere."""

    geometrically_derivable = True

    def __init__(self, center, radius: float):
        self.center = as_vector(center, name="center")
        self.radius = check_real(radius, "ball radius")
        self._magnitude = max(np.abs(self.center).max(initial=0.0), self.radius)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _band(self, X: np.ndarray) -> np.ndarray:
        return 8 * np.spacing(np.maximum(np.abs(X).max(axis=-1, initial=0.0), self._magnitude))

    def _nearest_points(self, X: np.ndarray) -> np.ndarray:
        D = X - self.center
        nrm = _norm(D)
        # r / max(nrm, r) is r / nrm on every row it scales, and never r / 0
        scale = self.radius / np.maximum(nrm, self.radius)
        on = nrm <= self.radius + self._band(X)
        return np.where(on[:, None], X, self.center + scale[:, None] * D)

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        d = x - self.center
        nrm = _norm(d)
        if nrm < self.radius - self._band(x):
            return np.zeros(W.shape[0])
        # Boundary: tangent cone is the halfspace <x - c, w> <= 0.
        return np.maximum(0.0, np.vecdot(W, d) / nrm)


class AffineSubspace(_UniqueProjection):
    """{x : A x = b}; projection and tangent distance via the pseudo-inverse.
    A point is on it when every (A x - b)_i is within its ``_residual_band``,
    where two pseudo-inverse steps put even a far point."""

    geometrically_derivable = True

    def __init__(self, A, b):
        self.A = as_matrix(A)
        self.b = as_vector(b, self.A.shape[0], "b")
        self._pinv = np.linalg.pinv(self.A)
        if self._residual(self._nearest_points(np.zeros((1, self.dim)))).any():
            raise ValueError("A x = b has no solution")

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def _residual(self, X: np.ndarray) -> np.ndarray:
        """A x - b for every row x of X as the rows of a (k, m) matrix, zeroed
        for a point within rounding of the subspace: its own nearest point."""
        residual, band = _residual_band(self.A, self.b, X)
        return np.where(np.all(np.abs(residual) <= band, axis=1, keepdims=True), 0.0, residual)

    def _nearest_points(self, X: np.ndarray) -> np.ndarray:
        # a row the first step put on the subspace, the second leaves as it is
        for _ in range(2):
            X = X - np.vecdot(self._residual(X)[:, None, :], self._pinv)
        return X

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        # Tangent space is null(A) at every point of the set; w's normal part is pinv(A) A w.
        return _norm(np.vecdot(np.vecdot(W[:, None, :], self.A)[:, None, :], self._pinv))


class Singleton(Box):
    """The one-point set {p}, the box [p, p]: its projection clips every x to p,
    and its tangent cone at p, where both faces of every axis are active, is {0}."""

    def __init__(self, p):
        self.p = as_vector(p, name="p")
        super().__init__(self.p, self.p)


class _Polyhedral(_RowTangents):
    """Projection onto a finite union of convex polyhedra, ``self.pieces``.
    Each piece gives, for every row, its nearest point and the distance to
    it; the nearest points of the union are those of the pieces whose
    distance ties the least one by ``ulp_tied``, in piece order, repeats
    dropped. A piece is at least max_i u_i x - c_i - sqrt(eps) (||x||_1 + |c_i|) away,
    u_i its unit rows (the slack passes the rounding of any point in the rows' bands
    and the tie window): pieces run by their least bound over the rows, each on the
    rows where its bound is within the least distance found; one skipped reads +inf."""

    geometrically_derivable = True
    pieces: Sequence["ConvexPolyhedron"]

    @property
    def dim(self) -> int:
        return self.pieces[0].A.shape[1]

    def _nearest_pieces(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of X, each piece's nearest point, shape (k, pieces, n), and
        whether that piece ties the least distance, shape (k, pieces)."""
        slack = 2.0 ** -26   # sqrt(eps); a bound's own rounding, in BLAS too, is far inside it
        low = np.stack([(p._U @ X.T - (p._c + slack * np.abs(p._c))[:, None]).max(axis=0)
                        for p in self.pieces]) - slack * np.abs(X).sum(axis=1)   # (pieces, k)
        d, Y = np.full(low.shape, np.inf), np.zeros((len(X), len(low), X.shape[1]))
        order = np.argsort(low.min(axis=1, initial=np.inf))
        d[order[0]], Y[:, order[0]] = self.pieces[order[0]]._nearest(X)   # none found yet
        for j in order[1:]:
            rows = np.flatnonzero(~(low[j] > d.min(axis=0)))
            if rows.size:
                d[j, rows], Y[rows, j] = self.pieces[j]._nearest(X[rows])
        return Y, ulp_tied_arrays(d, d.min(axis=0)).T

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

    def _nearest_support(self, x: Vector, W: np.ndarray) -> tuple[float, np.ndarray]:
        # the walk over every tied piece's point, repeats kept
        Y, tied = self._nearest_pieces(x[None, :])
        return super()._nearest_support(x, W, Y[0][tied[0]])


class ConvexPolyhedron(_Polyhedral):
    """{x : A x <= b}, of any row count. Row i holds at y within its ``_residual_band``
    and is active where |A y - b|_i is within it. A point that holds every row is its
    own nearest point; any other takes a least-distance solve (``_ldp``), one more from
    where it lands if that misses the band, and has none after a second miss. The
    tangent cone's distance projects w the same way, onto {v : A_act v <= 0}."""

    def __init__(self, A, b):
        self.A = as_matrix(A)
        self.b = as_vector(b, self.A.shape[0], "b")
        self.pieces = [self]
        norms = np.sqrt(np.vecdot(self.A, self.A))
        norms[norms == 0.0] = 1.0   # unit rows, with a zero row m for empty LDP slots
        self._U = np.vstack([self.A / norms[:, None], np.zeros(self.dim)])
        self._c = np.append(self.b / norms, 0.0)
        self._K = self._U @ self._U.T

    def _nearest(self, X: np.ndarray, act=None) -> tuple[np.ndarray, np.ndarray]:
        """||x - y|| and the nearest point y per row x of X, +inf where there is none;
        given a mask ``act`` of rows, onto the cone {v : A_act v <= 0}, U and K cut to it."""
        A, b, U, c, K = self.A, self.b, self._U, self._c, self._K
        if act is not None:
            slots = np.append(act, True)   # the active unit rows and the zero row
            A, U, K = A[act], U[slots], K[slots][:, slots]
            b, c = np.zeros(len(A)), np.zeros(len(U))
        Y = X.copy()
        for step in range(3):
            residual, band = _residual_band(A, b, Y)
            out = (residual > band).any(axis=1)   # so d > 0
            if step == 2 or not out.any():
                break
            Y[out] = self._ldp(Y[out], U, c, K)
        return np.where(out, np.inf, _norm(X - Y)), Y

    @staticmethod
    def _ldp(X: np.ndarray, U: np.ndarray, c: np.ndarray, K: np.ndarray) -> np.ndarray:
        """The nearest point of each row x of X, outside some row (x if none), by
        least-distance programming (Lawson and Hanson, Solving Least Squares
        Problems, ch. 23): NNLS min ||E u - f||, u >= 0, E = [-U^T; h^T], f = e_{n+1},
        h = U x - c over its largest entry, all rows in lockstep. The free column of
        largest w = E^T (f - E u) enters while w exceeds its rounding."""
        (k, n), m = X.shape, len(U) - 1
        p, tol = min(m, n + 1), 10 * max(m, n + 1) * np.finfo(float).eps   # rank(E) <= n + 1
        H = np.vecdot(X[:, None, :], U) - c
        H /= H.max(axis=1, keepdims=True)
        rows, eye = np.arange(k)[:, None], np.eye(p)
        idx, u = np.full((k, p), m), np.zeros((k, m + 1))
        idx[:, 0] = t = np.argmax(H, axis=1)   # at u = 0, w = h and h_t = 1
        u[rows[:, 0], t] = 1.0 / (K[t, t] + 1.0)   # the one-column least squares
        step, done = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
        for _ in range(3 * m + 3):
            w = H * (1.0 - np.vecdot(H, u))[:, None] - np.vecdot(u[:, None, :], K)
            w[u > 0.0] = -np.inf
            empty = idx == m
            t, slot = np.argmax(w, axis=1), np.argmax(empty, axis=1)
            go = ~(step | done) & empty.any(axis=1) & (w.max(axis=1) > tol * (1.0 + u.sum(axis=1)))
            done |= ~step & ~go
            idx[go, slot[go]] = t[go]
            if done.all():
                break
            hP = H[rows, idx]
            M = K[idx[:, :, None], idx[:, None, :]] + hP[:, :, None] * hP[:, None, :]
            s, solved = _solve(M + eye * (idx == m)[:, None, :], hP)
            idx[go & ~solved, slot[go & ~solved]] = m   # t lies in span(E_P)
            done |= ~solved
            uP = u[rows, idx]
            s = np.where(done[:, None], uP, s)   # a finished row keeps its u
            bad = (s <= 0.0) & (idx < m)
            step = bad.any(axis=1)
            alpha = np.min(np.where(bad, uP / np.where(uP > s, uP - s, 1.0), np.inf), axis=1)
            s = np.where(step[:, None], uP + np.where(step, alpha, 0.0)[:, None] * (s - uP), s)
            drop = step[:, None] & (idx < m) & (s <= tol)
            s[drop] = 0.0
            u[rows, idx] = s
            idx[drop] = m
        # r = E u - f is 0 (to the normal equations' resolution) where no point holds the
        # rows; else solve for a vertex (exact on axes and through 0), then Gram-Schmidt.
        idx = idx[rows, np.argsort(idx == m, axis=1, kind="stable")]
        UP, cP, uP, count = U[idx], c[idx], u[rows, idx], (idx < m).sum(axis=1)
        r = np.vecdot(UP.transpose(0, 2, 1), uP[:, None, :])
        r2 = np.vecdot(r, r) + (np.vecdot(H[rows, idx], uP) - 1.0) ** 2
        found = r2 > tol * (1.0 + uP.sum(axis=1)) ** 2
        vertex = found & (count == n)
        Y = X
        if vertex.any():
            F = np.where(vertex[:, None, None], UP[:, :n], np.eye(n))
            V, solved = _solve(F, np.where(vertex[:, None], cP[:, :n], 0.0))
            found &= solved
            Y = np.where(vertex[:, None], V, X)
        res, basis, shift = np.vecdot(UP, Y[:, None, :]) - cP, [], np.zeros_like(Y)
        for j in range(count.max()):   # y - sum_j z_j q_j, q orthonormal, has U_P y = c_P
            v, z = UP[:, j], res[:, j]
            for q, zq in basis:
                a = np.vecdot(q, v)
                v, z = v - a[:, None] * q, z - a * zq
            norm = np.sqrt(np.vecdot(v, v))
            norm = np.where(norm > np.sqrt(tol), norm, np.inf)   # a row in the others' span
            basis.append((v / norm[:, None], z / norm))
            shift += basis[-1][1][:, None] * basis[-1][0]   # +0.0 where a row has no slot j
        return np.where(found[:, None], Y - shift, X)

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        residual, band = _residual_band(self.A, self.b, x[None, :])
        active = residual[0] >= -band[0]   # none inside, where the cone is the whole space
        return self._nearest(W, active)[0]


class FiniteUnion(_Polyhedral):
    """Finite union of convex polyhedra; unions preserve derivability. The
    tangent cone at x is the union of the cones of the pieces whose computed
    distance to x is 0.0; projections are gathered per piece and filtered to
    the global minimizers."""

    def __init__(self, pieces: Sequence[ConvexPolyhedron]):
        if not pieces:
            raise ValueError("union needs at least one piece")
        check_same_dim(pieces)
        self.pieces = list(pieces)

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        tied = self._nearest_pieces(x[None, :])[1][0]   # the pieces at d = 0.0
        return np.minimum.reduce([p._tangent_distances(x, W)
                                  for p, on in zip(self.pieces, tied) if on])


class ComplementaritySet(_RowTangents):
    """{(y, z) in R^{2k} : <y, z> = 0, y <= 0, z <= 0}.

    With both blocks nonpositive the inner product vanishes iff y_i z_i = 0
    componentwise, so the set is a product of k planar corners, each the
    union of two rays. Projection and tangent distance decompose per pair.
    """

    geometrically_derivable = True

    def __init__(self, k: int):
        self.k = check_count(k, "k", least=1)

    @property
    def dim(self) -> int:
        return 2 * self.k

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
        return float(_norm(x - self._points(on_a, on_b, first))), np.vecdot(W, x - Y)

    def _tangent_distances(self, x: Vector, W: np.ndarray) -> np.ndarray:
        a, b = x[:self.k], x[self.k:]
        U, V = W[:, :self.k], W[:, self.k:]
        # Inside the ray b = 0 only v must vanish, inside a = 0 only u; a corner takes the ray b = 0
        # where min(v, 0) >= min(u, 0): the squared distances differ by min(v, 0)^2 - min(u, 0)^2.
        first = (a < 0.0) | ((b == 0.0) & (np.minimum(V, 0.0) >= np.minimum(U, 0.0)))
        out_u = np.where(first, np.where(a < 0.0, 0.0, np.maximum(U, 0.0)), U)
        out_v = np.where(first, V, np.where(b < 0.0, 0.0, np.maximum(V, 0.0)))
        return _norm(np.hstack([out_u, out_v]))


class DistanceToSet(RowSubderivatives):
    """Euclidean distance to a set, with its closed-form subderivative.

    The value is globally 1-Lipschitz, so |d f(x)(w)| <= ||w||. The model is
    semi-differentiable exactly when the set is geometrically derivable.
    The set's ``_nearest_support`` is asked once per point; where the d it
    gives is 0.0 the subderivative is the tangent-cone distance, and
    elsewhere the support over d, exact only when it reaches every nearest
    point; a user set whose ``project`` returns a strict subset yields an
    upper bound (not checked).
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
        return _norm(X - self.X._nearest_points(X))

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        d, support = self.X._nearest_support(x, W)
        if d == 0.0:
            return self.X._tangent_distances(x, W)
        return support / d


def distance_to_set(X: SetModel) -> DistanceToSet:
    """Distance-function oracle for a set model."""
    return DistanceToSet(X)
