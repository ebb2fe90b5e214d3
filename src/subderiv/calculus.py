"""Combinators that build new oracles from old ones via exact calculus rules.

The chain and sum rules used here hold as equalities for the supported
structures: sums where at most one addend is extended-valued (or all are
semi-differentiable), compositions g o F with F smooth or semi-differentiable.
The qualification conditions behind those equalities (relative Lipschitz
continuity of g, directional metric subregularity) are contracts on the
inputs, never verified at runtime; every bundled composition satisfies them
by construction.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, DomainViolation, EmptyList, IndeterminateSum,
                     NonpositiveScale)
from .extreal import ext_add_arrays, ulp_tied_arrays
from .model import (FunctionModel, RowSubderivatives, Vector, as_matrix, as_vector,
                    check_count, check_real, check_same_dim)
from .oracles import SmoothModel, _not_nan, relu_direction
from .sets import SetModel, distance_to_set


class SemiDiffMap:
    """Vector-valued map with a directional derivative taken as a full limit.

    ``semiderivative(x, .)`` is continuous and positively homogeneous of
    degree 1 in the direction. The row kernels ``eval_rows(X)`` and
    ``semiderivative_rows(x, W)`` take a checked (k, dim_in) float64 matrix;
    a point query is their one-row case. The defaults loop the callables over
    the rows and raise DimensionMismatch when an answer does not have shape
    (dim_out,); a map that overrides both kernels passes None for both.
    """

    def __init__(self, dim_in: int, dim_out: int,
                 eval_fn: Optional[Callable[[Vector], Vector]],
                 semiderivative_fn: Optional[Callable[[Vector, Vector], Vector]]):
        self.dim_in = check_count(dim_in, "dim_in")
        self.dim_out = check_count(dim_out, "dim_out")
        self._eval = eval_fn
        self._dir = semiderivative_fn

    def eval(self, x: Vector) -> Vector:
        return self.eval_rows(np.asarray(x, dtype=float)[None])[0]

    def semiderivative(self, x: Vector, w: Vector) -> Vector:
        return self.semiderivative_rows(np.asarray(x, dtype=float),
                                        np.asarray(w, dtype=float)[None])[0]

    def eval_rows(self, X: np.ndarray) -> np.ndarray:
        return self._rows(self._eval, X)

    def semiderivative_rows(self, x: Vector, W: np.ndarray) -> np.ndarray:
        return self._rows(lambda w: self._dir(x, w), W)

    def _rows(self, fn: Callable[[Vector], Vector], X: np.ndarray) -> np.ndarray:
        Y = np.empty((X.shape[0], self.dim_out))
        for i, row in enumerate(X):
            y = np.asarray(fn(row), dtype=float)
            if y.shape != (self.dim_out,):
                raise DimensionMismatch(f"map output has shape {y.shape}, expected ({self.dim_out},)")
            Y[i] = y
        return Y


class SmoothMap(SemiDiffMap):
    """Continuously differentiable map; the semi-derivative is the Jacobian action.

    ``smoothness_constant`` is a Lipschitz modulus of the derivative, when known.
    """

    def __init__(self, dim_in: int, dim_out: int,
                 eval_fn: Optional[Callable[[Vector], Vector]],
                 jacobian_apply_fn: Optional[Callable[[Vector, Vector], Vector]],
                 smoothness_constant: Optional[float] = None):
        super().__init__(dim_in, dim_out, eval_fn, jacobian_apply_fn)
        self.smoothness_constant = smoothness_constant


class _AffineMap(SmoothMap):
    """x -> A x + b, one ``np.vecdot`` per output of a row; the derivative's rows one matmul."""

    def __init__(self, A: np.ndarray, b: Vector):
        self.A, self.b = A, b
        super().__init__(A.shape[1], A.shape[0], None, None, smoothness_constant=0.0)

    def eval_rows(self, X: np.ndarray) -> np.ndarray:
        return np.vecdot(X[:, None, :], self.A) + self.b

    def semiderivative_rows(self, x: Vector, W: np.ndarray) -> np.ndarray:
        return np.matmul(self.A, W[:, :, None])[:, :, 0]


class _IdentityMap(SmoothMap):
    def __init__(self, n: int):
        super().__init__(n, n, None, None, smoothness_constant=0.0)

    def eval_rows(self, X: np.ndarray) -> np.ndarray:
        return X

    def semiderivative_rows(self, x: Vector, W: np.ndarray) -> np.ndarray:
        return W


def affine_map(A, b=None) -> SmoothMap:
    """x -> A x + b. The derivative is constant, so the smoothness modulus is 0."""
    A = as_matrix(A)
    return _AffineMap(A, np.zeros(A.shape[0]) if b is None else as_vector(b, A.shape[0], "b"))


def identity_map(n: int) -> SmoothMap:
    return _IdentityMap(n)


class _ReLUMap(SemiDiffMap):
    """Componentwise max{0, x}; each row kernel is one array operation."""

    def __init__(self, n: int):
        super().__init__(n, n, None, None)

    def eval_rows(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(X, 0.0)

    def semiderivative_rows(self, x: Vector, W: np.ndarray) -> np.ndarray:
        return relu_direction(x, W)


def relu_map(n: int) -> SemiDiffMap:
    """Componentwise max{0, x} with its exact semi-derivative."""
    return _ReLUMap(n)


class _Sum(RowSubderivatives):
    """lam * (f_1 + ... + f_k) for lam > 0; ``scale`` is the one-member sum.

    Every kernel adds the members' answers left to right, the documented
    floating-point contract, then multiplies the sum by lam: ``_fold`` for
    the array kernels and the gradient, a float loop for ``_value``, the line
    search's query. At lam = 1.0 the sum is returned as it is: 1.0 * v is v
    bit for bit, so the product would only copy it.
    """

    def __init__(self, models: Sequence[FunctionModel], lam: float = 1.0):
        if not models:
            raise EmptyList("sum of zero models")
        self._dim = check_same_dim(models)
        self.models = list(models)
        self.lam = float(lam)
        self.semi_differentiable = all(m.semi_differentiable for m in self.models)
        self.extended_valued = any(m.extended_valued for m in self.models)
        self.subderivative_concave = all(m.subderivative_concave for m in self.models)
        self.has_gradient = all(m.has_gradient for m in self.models)
        self.is_separable = all(m.has_gradient or m.is_separable for m in self.models)
        self.descent_constant = self._total([m.descent_constant for m in self.models])
        self.lower_bound = self._total([m.lower_bound for m in self.models])

    def _total(self, constants: list) -> Optional[float]:
        return None if None in constants else self.lam * float(sum(constants))

    @property
    def dim(self) -> int:
        return self._dim

    def _value(self, x: Vector) -> float:
        # no member is NaN, so a NaN sum is (+inf) + (-inf)
        acc = self.models[0]._value(x)
        for m in self.models[1:]:
            acc += m._value(x)
            if acc != acc:
                raise IndeterminateSum("(+inf) + (-inf) is undefined")
        return acc if self.lam == 1.0 else self.lam * acc

    def _fold(self, parts) -> np.ndarray:
        """The member arrays ``parts`` added left to right, times lam."""
        acc = next(parts)
        for part in parts:
            acc = ext_add_arrays(acc, part)
        return acc if self.lam == 1.0 else self.lam * acc

    def _values(self, X: np.ndarray) -> np.ndarray:
        return self._fold(m._values(X) for m in self.models)

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        return self._fold(m._subderivatives(x, W) for m in self.models)

    def _vertex_values(self, x: Vector) -> np.ndarray:
        return self._fold(m._vertex_values(x) for m in self.models)

    def gradient(self, x: Vector) -> Vector:
        return self._fold(m.gradient(x) for m in self.models)

    def separable_parts(self, x: Vector) -> tuple[Vector, tuple[Vector, Vector]]:
        grad, up, down = np.zeros((3, self.dim))
        for m in self.models:
            if m.has_gradient:
                grad = grad + m.gradient(x)
            else:
                g2, (up2, down2) = m.separable_parts(x)
                grad, up, down = grad + g2, up + up2, down + down2
        if self.lam != 1.0:
            grad, up, down = self.lam * grad, self.lam * up, self.lam * down
        return grad, (up, down)


def sum_models(models: Sequence[FunctionModel]) -> FunctionModel:
    """Pointwise sum; subderivatives add under the sum rule.

    Contract: at every evaluation point at most one member is extended-valued,
    or all members are semi-differentiable. Descent constants add when every
    member advertises one.
    """
    return _Sum(models)


def scale(model: FunctionModel, lam: float) -> FunctionModel:
    """lam * f for a finite lam > 0, the one-member sum; value, subderivative
    and descent constant scale."""
    return _Sum([model], check_real(lam, "scale factor", error=NonpositiveScale))


class _Composite(RowSubderivatives):
    """g o F by the chain rule d(g o F)(x)(w) = d g(F(x))(dF(x)(w)).

    One query evaluates F(x) once, every row dF(x)(w) with one
    ``F.semiderivative_rows`` call, and asks g about all rows at once. With
    ``smooth`` (``precompose_smooth``, and ``penalize`` with a SmoothMap)
    dF(x) is the Jacobian action and the composite keeps g's extended
    values and concave subderivative, with descent constant modulus * L
    when both are known. Without it (``precompose_semidiff``) the composite
    claims only g's semi-differentiability.
    """

    def __init__(self, g: FunctionModel, F: SemiDiffMap, smooth: bool,
                 concave_modulus: Optional[float] = None):
        if g.dim != F.dim_out:
            raise DimensionMismatch(f"g expects dimension {g.dim}, F produces {F.dim_out}")
        self.g = g
        self.F = F
        self.semi_differentiable = g.semi_differentiable
        if smooth:
            self.extended_valued = g.extended_valued
            self.subderivative_concave = g.subderivative_concave
            if concave_modulus is not None and F.smoothness_constant is not None:
                self.descent_constant = concave_modulus * F.smoothness_constant

    @property
    def dim(self) -> int:
        return self.F.dim_in

    def _value(self, x: Vector) -> float:
        return float(self._values(x[None])[0])

    def _values(self, X: np.ndarray) -> np.ndarray:
        # F may be a user map, so g checks the batch of its values.
        return self.g.values(self.F.eval_rows(X))

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        return self.g.subderivatives(self.F.eval(x), self.F.semiderivative_rows(x, W))


def precompose_smooth(g: FunctionModel, F: SmoothMap,
                      concave_modulus: Optional[float] = None) -> FunctionModel:
    """g o F for smooth F: d(g o F)(x)(w) = d g(F(x))(dF(x) w).

    Raises TypeError unless F is a SmoothMap, since only a smooth F keeps g's
    concave subderivative (``precompose_semidiff`` takes any SemiDiffMap).
    Contract: g is Lipschitz continuous relative to its domain and the
    directional qualification condition holds along queried directions (both
    automatic for the bundled finite-valued g). When g is concave with a known
    modulus over the region of interest and F carries a smoothness constant L,
    the composite has the descent property with constant modulus * L; the
    modulus must be supplied by the caller since it is not computable from an
    oracle.
    """
    if not isinstance(F, SmoothMap):
        raise TypeError(f"F must be a SmoothMap, got {type(F).__name__}")
    return _Composite(g, F, smooth=True, concave_modulus=concave_modulus)


def precompose_semidiff(g, F: SemiDiffMap):
    """g o F for semi-differentiable F, returning the same kind as g.

    Accepts a semi-differentiable FunctionModel (result: FunctionModel) or a
    SemiDiffMap (result: SemiDiffMap). Either way the directional derivative
    composes exactly: d(g o F)(x)(w) = d g(F(x))(dF(x)(w)). The model
    composite is semi-differentiable and advertises nothing else, not even
    when F is a SmoothMap; ``precompose_smooth`` keeps g's concavity.
    """
    if isinstance(g, FunctionModel):
        if not g.semi_differentiable:
            raise ValueError("precompose_semidiff needs a semi-differentiable outer g")
        return _Composite(g, F, smooth=False)
    if isinstance(g, SemiDiffMap):
        if g.dim_in != F.dim_out:
            raise DimensionMismatch(f"G expects dimension {g.dim_in}, F produces {F.dim_out}")
        return SemiDiffMap(F.dim_in, g.dim_out, lambda x: g.eval(F.eval(x)),
                           lambda x, w: g.semiderivative(F.eval(x), F.semiderivative(x, w)))
    raise TypeError(f"cannot precompose {type(g).__name__}")


class _QuadraticBranches:
    """The branches 1/2 ||x||^2 - <a_i, x> - c_i, one per row of A. Entry i of
    ``values_at`` is branch i's ``_value`` bit for bit: ``np.vecdot`` runs
    the dot kernel of ``np.dot(a_i, x)`` on each row."""

    def __init__(self, A: np.ndarray, c: Vector):
        self.A = as_matrix(A)
        self.c = as_vector(c, self.A.shape[0], "c")

    def values_at(self, x: Vector) -> np.ndarray:
        return 0.5 * float(np.dot(x, x)) - np.vecdot(self.A, x) - self.c


class _QuadraticBranch(SmoothModel):
    """Row ``row`` of a stack, smooth with gradient x - a_row and constant 1."""

    def __init__(self, stack: _QuadraticBranches, row: int):
        self.stack, self.row = stack, row
        self.a, self.c = stack.A[row], float(stack.c[row])
        super().__init__(self.a.shape[0], None, None, smoothness_constant=1.0)

    def _value(self, x: Vector) -> float:
        return _not_nan(0.5 * float(np.dot(x, x)) - float(np.dot(self.a, x)) - self.c)

    def gradient(self, x: Vector) -> Vector:
        return x - self.a


class _PointwiseExtremum(RowSubderivatives):
    """max_i f_i (``take_max``) or min_i f_i by the active-set rule. Members
    are valued at x by one route, ``_member_values``: one kernel call for
    branches of one stack (``diff_max``'s), in any order, else a loop over
    their ``_value``. ``_extremum`` and ``_reduce`` keep the first extremum,
    as the builtin max/min do."""

    def __init__(self, models: Sequence[FunctionModel], take_max: bool):
        if not models:
            raise EmptyList("pointwise extremum of zero models")
        self._dim = check_same_dim(models)
        if not all(m.semi_differentiable for m in models):
            raise ValueError("pointwise min/max needs semi-differentiable members")
        self.models = list(models)
        self.take_max = take_max
        self.semi_differentiable = True
        self.extended_valued = any(m.extended_valued for m in self.models)
        if not take_max:
            self.subderivative_concave = all(m.subderivative_concave for m in self.models)
        first = self.models[0]
        stacked = all(isinstance(m, _QuadraticBranch) and m.stack is first.stack
                      for m in self.models)
        self._stacked = (first.stack, np.array([m.row for m in self.models])) if stacked else None

    @property
    def dim(self) -> int:
        return self._dim

    def _member_values(self, x: Vector) -> np.ndarray:
        if self._stacked is not None:
            stack, rows = self._stacked
            return stack.values_at(x)[rows]
        return np.array([m._value(x) for m in self.models], dtype=float)

    def _extremum(self, vals: np.ndarray) -> float:
        """The first largest (smallest) entry; argmax/argmin find a NaN first."""
        return _not_nan(float(vals[vals.argmax() if self.take_max else vals.argmin()]))

    def _reduce(self, arrays) -> np.ndarray:
        """A later array replaces the incumbent only where strictly larger (smaller)."""
        if not arrays:
            raise DomainViolation("no member is active: the extremum is not finite at x")
        out, *rest = arrays
        for v in rest:
            out = np.where(v > out if self.take_max else v < out, v, out)
        return out

    def _value(self, x: Vector) -> float:
        return self._extremum(self._member_values(x))

    def _values(self, X: np.ndarray) -> np.ndarray:
        return self._reduce([m._values(X) for m in self.models])

    def _active(self, x: Vector) -> list[FunctionModel]:
        """Members whose value ties the extremum at x by ``ulp_tied``, in
        member order; the tolerance scales with f, and a distant member does
        not widen it."""
        vals = self._member_values(x)
        tied = ulp_tied_arrays(vals, self._extremum(vals))
        return [m for m, t in zip(self.models, tied) if t]

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        return self._reduce([m._subderivatives(x, W) for m in self._active(x)])

    def _vertex_values(self, x: Vector) -> np.ndarray:
        return self._reduce([m._vertex_values(x) for m in self._active(x)])


def pointwise_max(models: Sequence[FunctionModel]) -> FunctionModel:
    """max_i f_i of semi-differentiable models, extended-valued ones included.

    The subderivative takes the max of the member subderivatives over the
    active set {i : f_i(x) = f(x)}; where f(x) is +-inf no member is active,
    and the query raises DomainViolation.
    """
    return _PointwiseExtremum(models, take_max=True)


def pointwise_min(models: Sequence[FunctionModel]) -> FunctionModel:
    """min_i f_i; active-set rule with min in place of max. The quadratic
    branches of one stack (``diff_max``'s) are valued in one kernel."""
    return _PointwiseExtremum(models, take_max=False)


def penalize(phi: FunctionModel, G, X: SetModel, rho: float) -> FunctionModel:
    """phi(x) + rho * dist(G(x); X), the exact-penalty objective.

    G may be a SmoothMap or a SemiDiffMap. The result is semi-differentiable
    when phi and G are and X is geometrically derivable.
    """
    rho = check_real(rho, "penalty constant", error=NonpositiveScale)
    dist = distance_to_set(X)
    if not isinstance(G, SemiDiffMap):
        raise TypeError(f"G must be a SmoothMap or SemiDiffMap, got {type(G).__name__}")
    smooth = isinstance(G, SmoothMap)
    if not (smooth or dist.semi_differentiable):
        raise ValueError("penalize with a non-smooth G needs a geometrically derivable X")
    return sum_models([phi, scale(_Composite(dist, G, smooth), rho)])


def envelope_composite_descent_constant(L: float, r: float) -> float:
    """Descent constant L/r for a Moreau-smoothed convex outer over an L-smooth map."""
    return L / check_real(r, "r")


def dc_envelope_descent_constant(L: float, r: float) -> float:
    """Descent constant L(1+r)/r for [e_r g1] o F1 - g2 o F2 with convex g_i
    and L-smooth F_i (the envelope-smoothed difference of composites)."""
    r = check_real(r, "r")
    return L * (1.0 + r) / r
