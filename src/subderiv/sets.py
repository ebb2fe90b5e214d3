"""Geometrically derivable sets: membership, projection, tangent-cone distance.

Each SetModel enumerates *all* Euclidean nearest points it can, because the
distance function's subderivative outside the set is a minimum over the full
projection set:

    d dist(.; X)(x)(w) = dist(w; T_X(x))                     if x in X,
                         min_{y in proj_X(x)} <x - y, w> / dist(x; X)  else.

Every bundled set is geometrically derivable, which makes its distance
function semi-differentiable. Polyhedral projections and tangent-cone
distances are computed exactly by active-set enumeration over facets; the
bundled sets are low-dimensional test fixtures, not production geometry.
"""

from __future__ import annotations

import abc
import itertools
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyProjection, NotFeasible
from .extreal import ExtReal, ulp_tied
from .model import FunctionModel, Vector, as_vector

_MEMBERSHIP_TOL = 1e-9
_MAX_ENUM_ROWS = 16


class SetModel(abc.ABC):
    """A closed set exposing membership, projection, and tangent distance."""

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


class Box(SetModel):
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

    def project(self, x: Vector) -> list[Vector]:
        x = as_vector(x, self.dim)
        return [np.clip(x, self.lo, self.hi)]

    def tangent_distance(self, x: Vector, w: Vector) -> float:
        x = as_vector(x, self.dim)
        w = as_vector(w, self.dim)
        at_lo = np.abs(x - self.lo) <= _MEMBERSHIP_TOL
        at_hi = np.abs(x - self.hi) <= _MEMBERSHIP_TOL
        # Tangent cone: w_i >= 0 on active lower faces, w_i <= 0 on upper.
        viol = np.where(at_lo, np.minimum(w, 0.0), 0.0) ** 2
        viol += np.where(at_hi, np.maximum(w, 0.0), 0.0) ** 2
        # A coordinate pinned on both faces (lo == hi) must not move at all.
        both = at_lo & at_hi
        viol[both] = w[both] ** 2
        return float(np.sqrt(np.sum(viol)))


def nonnegative_orthant(n: int) -> Box:
    return Box(np.zeros(n), np.full(n, np.inf))


class Ball(SetModel):
    """Euclidean ball of radius r around a center."""

    geometrically_derivable = True

    def __init__(self, center, radius: float):
        self.center = as_vector(center, name="center")
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        self.radius = float(radius)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, x: Vector) -> bool:
        x = as_vector(x, self.dim)
        return bool(np.linalg.norm(x - self.center) <= self.radius + _MEMBERSHIP_TOL)

    def project(self, x: Vector) -> list[Vector]:
        x = as_vector(x, self.dim)
        d = x - self.center
        nrm = np.linalg.norm(d)
        if nrm <= self.radius:
            return [x]
        return [self.center + (self.radius / nrm) * d]

    def tangent_distance(self, x: Vector, w: Vector) -> float:
        x = as_vector(x, self.dim)
        w = as_vector(w, self.dim)
        d = x - self.center
        nrm = np.linalg.norm(d)
        if nrm < self.radius - _MEMBERSHIP_TOL:
            return 0.0
        # Boundary: tangent cone is the halfspace <x - c, w> <= 0.
        return float(max(0.0, np.dot(d, w) / nrm))


class AffineSubspace(SetModel):
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

    def project(self, x: Vector) -> list[Vector]:
        x = as_vector(x, self.dim)
        return [x - self._pinv @ (self.A @ x - self.b)]

    def tangent_distance(self, x: Vector, w: Vector) -> float:
        w = as_vector(w, self.dim)
        # Tangent space is null(A) at every point of the set.
        return float(np.linalg.norm(self._pinv @ (self.A @ w)))


class Singleton(SetModel):
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

    def project(self, x: Vector) -> list[Vector]:
        as_vector(x, self.dim)
        return [self.p.copy()]

    def tangent_distance(self, x: Vector, w: Vector) -> float:
        w = as_vector(w, self.dim)
        return float(np.linalg.norm(w))


class ConvexPolyhedron:
    """{x : A x <= b}. Exact projections by enumerating facet subsets.

    The per-subset correction matrices are cached at construction, keyed by
    the subset's row indices in enumeration order (by size, then
    lexicographic), so each projection and each tangent-cone distance is a
    handful of mat-vecs. Row counts are capped; the fixtures this backs are
    small.

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
        self._b_unit = self.b + _MEMBERSHIP_TOL   # b plus the smallest row tolerance
        m = self.A.shape[0]
        if m > _MAX_ENUM_ROWS:
            raise ValueError(f"polyhedron has {m} rows; enumeration capped at {_MAX_ENUM_ROWS}")
        self._subsets = {}
        for r in range(1, m + 1):
            for S in itertools.combinations(range(m), r):
                rows = self.A[list(S), :]
                self._subsets[S] = (rows, np.linalg.pinv(rows), self.b[list(S)])

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def _row_tol(self, y: Vector) -> np.ndarray:
        """Per-row membership tolerance at y (see the class docstring)."""
        return _MEMBERSHIP_TOL * np.maximum(1.0, self._abs_A @ np.abs(y) + self._abs_b)

    def contains(self, x: Vector) -> bool:
        Ax = self.A @ x
        # The row tolerance is never below 1e-9, so a point that passes at
        # 1e-9 passes the relative test too; accepting it here skips |A| |x|.
        if (Ax <= self._b_unit).all():
            return True
        return bool((Ax <= self.b + self._row_tol(x)).all())

    def project_all(self, x: Vector) -> list[tuple[float, Vector]]:
        """(distance, point) candidates; the minimum distance entry is exact."""
        cands = []
        if self.contains(x):
            return [(0.0, x.copy())]
        for rows, pinv, bS in self._subsets.values():
            y = x - pinv @ (rows @ x - bS)
            if self.contains(y):
                cands.append((float(np.linalg.norm(x - y)), y))
        return cands

    def tangent_distance(self, x: Vector, w: Vector) -> float:
        active = np.flatnonzero(self.A @ x >= self.b - self._row_tol(x))
        if active.size == 0:
            return 0.0
        Aact = self.A[active, :]
        if np.all(Aact @ w <= _MEMBERSHIP_TOL):
            return 0.0
        best = float(np.linalg.norm(w))  # v = 0 is always in the cone
        for r in range(1, active.size + 1):
            for S in itertools.combinations(active.tolist(), r):
                rows, pinv, _ = self._subsets[S]
                v = w - pinv @ (rows @ w)
                if np.all(Aact @ v <= _MEMBERSHIP_TOL):
                    best = min(best, float(np.linalg.norm(w - v)))
        return best


class FiniteUnion(SetModel):
    """Finite union of convex polyhedra.

    Unions preserve derivability, and the tangent cone at x is the union of
    the member cones over the pieces containing x; projections are gathered
    per piece and filtered to the global minimizers.
    """

    geometrically_derivable = True

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

    def project(self, x: Vector) -> list[Vector]:
        x = as_vector(x, self.dim)
        cands: list[tuple[float, Vector]] = []
        for p in self.pieces:
            got = p.project_all(x)
            if got:
                cands.append(min(got, key=lambda t: t[0]))
        if not cands:
            return []
        dbest = min(d for d, _ in cands)
        out: list[Vector] = []
        for d, y in cands:
            if ulp_tied(d, dbest):
                if not any(all(map(ulp_tied, y, z)) for z in out):
                    out.append(y)
        return out

    def tangent_distance(self, x: Vector, w: Vector) -> float:
        x = as_vector(x, self.dim)
        w = as_vector(w, self.dim)
        owners = [p for p in self.pieces if p.contains(x)]
        if not owners:
            raise NotFeasible("tangent_distance requires x in the set")
        return min(p.tangent_distance(x, w) for p in owners)


class ComplementaritySet(SetModel):
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

    def _pairs(self, x: Vector):
        return x[:self.k], x[self.k:]

    def contains(self, x: Vector) -> bool:
        x = as_vector(x, self.dim)
        y, z = self._pairs(x)
        if np.any(y > _MEMBERSHIP_TOL) or np.any(z > _MEMBERSHIP_TOL):
            return False
        return bool(np.all(np.abs(y * z) <= _MEMBERSHIP_TOL))

    @staticmethod
    def _pair_projections(a: float, b: float) -> list[tuple[float, float]]:
        # Nearest points on the corner {(a,b): a<=0, b<=0, ab=0}.
        p1 = (min(a, 0.0), 0.0)           # onto the ray b = 0, a <= 0
        p2 = (0.0, min(b, 0.0))           # onto the ray a = 0, b <= 0
        d1 = (a - p1[0]) ** 2 + b ** 2
        d2 = a ** 2 + (b - p2[1]) ** 2
        if ulp_tied(d1, d2):
            return [p1] if p1 == p2 else [p1, p2]
        return [p1] if d1 < d2 else [p2]

    def project(self, x: Vector) -> list[Vector]:
        x = as_vector(x, self.dim)
        y, z = self._pairs(x)
        per_pair = [self._pair_projections(float(y[i]), float(z[i])) for i in range(self.k)]
        out = []
        for combo in itertools.product(*per_pair):
            p = np.empty(self.dim)
            for i, (a, b) in enumerate(combo):
                p[i] = a
                p[self.k + i] = b
            out.append(p)
        return out

    @staticmethod
    def _pair_tangent_dist_sq(a: float, b: float, u: float, v: float) -> float:
        if a < -_MEMBERSHIP_TOL:        # interior of the ray b = 0
            return v * v
        if b < -_MEMBERSHIP_TOL:        # interior of the ray a = 0
            return u * u
        # Corner point: the tangent cone is the corner itself.
        d1 = v * v + max(u, 0.0) ** 2
        d2 = u * u + max(v, 0.0) ** 2
        return min(d1, d2)

    def tangent_distance(self, x: Vector, w: Vector) -> float:
        x = as_vector(x, self.dim)
        w = as_vector(w, self.dim)
        y, z = self._pairs(x)
        u, v = self._pairs(w)
        total = 0.0
        for i in range(self.k):
            total += self._pair_tangent_dist_sq(float(y[i]), float(z[i]),
                                                float(u[i]), float(v[i]))
        return float(np.sqrt(total))


class DistanceToSet(FunctionModel):
    """Euclidean distance to a set, with its closed-form subderivative.

    The value is globally 1-Lipschitz, so |d f(x)(w)| <= ||w||. The model is
    semi-differentiable exactly when the set is geometrically derivable.
    The projection enumeration must be complete for the outside branch to be
    exact; a user set returning a strict subset of nearest points yields an
    upper bound (documented contract, not checked).
    """

    def __init__(self, X: SetModel):
        self.X = X
        self.semi_differentiable = X.geometrically_derivable

    @property
    def dim(self) -> int:
        return self.X.dim

    def _nearest(self, x: Vector) -> tuple[float, list[Vector]]:
        pts = self.X.project(x)
        if not pts:
            raise EmptyProjection("set model returned no nearest point")
        return float(np.linalg.norm(x - pts[0])), pts

    def value(self, x: Vector) -> ExtReal:
        x = as_vector(x, self.dim)
        d, _ = self._nearest(x)
        return ExtReal(d)

    def subderivative(self, x: Vector, w: Vector) -> ExtReal:
        x = as_vector(x, self.dim)
        w = as_vector(w, self.dim)
        if self.X.contains(x):
            return ExtReal(self.X.tangent_distance(x, w))
        d, pts = self._nearest(x)
        return ExtReal(min(float(np.dot(x - y, w)) / d for y in pts))


def distance_to_set(X: SetModel) -> DistanceToSet:
    """Distance-function oracle for a set model."""
    return DistanceToSet(X)
