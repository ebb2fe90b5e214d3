"""The oracle contract: objective value and subderivative queries.

A FunctionModel answers two questions about an objective f: the value f(x)
as an extended real, and the lower directional derivative

    d f(x)(w) = liminf over t -> 0+, w' -> w of (f(x + t w') - f(x)) / t,

again as an extended real. Both must be pure: identical arguments give
bit-identical answers. Two batched queries answer many at once:
``subderivatives(x, W)`` gives d f(x)(w) for every row w of a matrix, so the
work that depends only on x is done once per point, and ``values(X)`` gives
f at every row of a matrix, so a whole grid of probe points is one call.
Each checks its input once and hands it to a row kernel, ``_subderivatives``
or ``_values``, which models override, combinators call on their members,
and the direction searches call once they have checked their point.
A kernel defaults to a loop over the scalar query, and an override must
return exactly the scalar answer for every row, bit for bit. The scalar
kernel ``_value(x)`` is the float ``value(x).v``; combinators, the solver
and the line search read f(x) through it, so an ``ExtReal`` is built only
at the public query. A bundled model states its value and subderivative
once, as kernels, and derives from ``RowSubderivatives``: its ``value``
wraps ``_value`` and its scalar subderivative is the one-row batch.
Capability flags (semi-differentiability, a descent constant, a lower
bound, gradient access, separable structure) let the direction-search and
line-search layers pick the right specialized path.

All models are immutable values; implementations must answer as if
stateless and be safe for any number of concurrent readers. A model may keep
what it worked out at its last point (``ReLUNetworkLoss`` keeps its forward
tape, ``SeparableMoreau`` its separable parts, ``pointwise_min`` and
``pointwise_max`` their member values and active set) only through one
``last_point`` method: one record, keyed by the point's bytes and replaced
whole, so that every answer has the bits a fresh model gives.
"""

from __future__ import annotations

import abc
import functools
import numbers
import operator
from typing import Optional, Sequence

import numpy as np
import numpy.typing as npt

from .errors import DimensionMismatch, NoGradient, NotSeparable
from .extreal import ExtReal

Vector = npt.NDArray[np.float64]


def as_vector(x, dim: Optional[int] = None, name: str = "x") -> Vector:
    """Coerce to a 1-D float64 array with finite entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatch(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite coordinates")
    return arr


def as_matrix(A, cols: Optional[int] = None, name: str = "A",
              rows: Optional[int] = None) -> np.ndarray:
    """The rule for every coefficient matrix and batch: a C-contiguous 2-D
    float64 array with finite entries, ``rows`` x ``cols`` where given. Any
    other shape raises DimensionMismatch, a NaN or +-inf entry ValueError."""
    arr = np.ascontiguousarray(A, dtype=float)
    if (arr.ndim != 2 or (cols is not None and arr.shape[1] != cols)
            or (rows is not None and arr.shape[0] != rows)):
        raise DimensionMismatch(f"{name} must have shape ({'k' if rows is None else rows}, "
                                f"{'n' if cols is None else cols}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


def as_directions(W, dim: int, name: str = "W") -> np.ndarray:
    """A batch of k points or directions in R^dim, by ``as_matrix``."""
    return as_matrix(W, dim, name)


def check_count(value, name: str, least: int = 0) -> int:
    """The rule for every size, count and index: ``value`` as an ``int``, or
    ValueError unless ``operator.index`` reads it as one (a float, even NaN or
    2.0, is not) and it is at least ``least``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"{name} must be nonnegative" if least == 0
                         else f"{name} must be at least {least}")
    return count


def check_real(value, name: str, positive: bool = True, error=ValueError) -> float:
    """The rule for every real constant (step, radius, penalty, descent
    constant, tolerance): ``value`` as a float, or ``error`` unless it is a
    finite number > 0 (>= 0 when not ``positive``); NaN, +-inf and None fail."""
    real = float(value) if isinstance(value, numbers.Real) else np.nan
    if not (real > 0 if positive else real >= 0):
        raise error(f"{name} must be positive, got {value!r}" if positive
                    else f"{name} must be nonnegative")
    if real == np.inf:
        raise error(f"{name} must be finite, got {real!r}")
    return real


def last_point(build):
    """Make ``build(self, x)`` the accessor of a model's last-point record.

    The accessor returns the kept record when x has its bytes (so 0.0 and
    -0.0 are different points), else the record ``build`` makes at x, which
    replaces it as ``self._last = (x.tobytes(), record)`` once ``build``
    returns; a ``build`` that raises leaves the kept record as it was. A
    model keeps one record, so it decorates one method and sets
    ``self._last = None`` in ``__init__``. What the record holds may be
    filled in later, but only with what x alone decides.
    """
    @functools.wraps(build)
    def record(self, x):
        key, last = x.tobytes(), self._last
        if last is not None and last[0] == key:
            return last[1]
        made = build(self, x)
        self._last = key, made
        return made
    return record


def l1_vertices(n: int) -> np.ndarray:
    """Extreme points of the l1 ball as the rows of a (2n, n) matrix, in
    tie-break order e1, -e1, e2, -e2, ..."""
    verts = np.zeros((2 * n, n))
    idx = np.arange(n)
    verts[2 * idx, idx] = 1.0
    verts[2 * idx + 1, idx] = -1.0
    return verts


class FunctionModel(abc.ABC):
    """Contract every objective oracle implements.

    Contracts (documented, not runtime-verified):
      * value and subderivative are pure functions of their arguments.
      * subderivative(x, .) is positively homogeneous of degree 1.
      * querying subderivative at x with value(x) = +inf is a caller error;
        models with ``extended_valued`` set report it as DomainViolation.
      * if ``semi_differentiable`` is set, the directional limit exists as a
        full limit and is finite for all finite x and w.
      * if ``descent_constant`` L is set, then for all x, y in the advertised
        region: f(y) <= f(x) + d f(x)(y - x) + (L/2) ||y - x||^2.
      * ``subderivatives`` checks x and W, then asks ``_subderivatives``,
        whose default loops over ``subderivative``; an override must return,
        for every row w, exactly the float ``subderivative(x, w).v``, bit
        for bit, because the direction searches pick among exact ties. A
        ``RowSubderivatives`` model meets this by construction when each
        row of its batch does not depend on the other rows.
      * ``_value(x)`` is exactly the float ``value(x).v``, never NaN, and
        raises what ``value`` raises; its default asks ``value``. ``values``
        checks X, then asks ``_values``, whose default loops over
        ``_value``; an override must return exactly ``_value(x)`` for every
        row x, bit for bit, and raise what ``_value`` raises at its rows.
      * A model that overrides a public batched query still answers it when
        called directly, but a combinator asks it through its kernel, and so
        do the direction searches and ``brute_force_direction``, which score
        their candidates with one ``_subderivatives(x, W)`` call (the l1
        vertex search with one ``_vertex_values(x)`` call) and read the
        winner back with ``_subderivatives(x, w[None])``: for a model that
        defines only the scalar queries, the per-row loop.
      * ``_vertex_values(x)`` gives the 2n values d f(x)(w) at the rows of
        ``l1_vertices(n)`` (e1, -e1, e2, ...) for a checked x. Its default
        asks ``_subderivatives`` about a freshly built ``l1_vertices(n)``; an
        override answers in O(n) from the structure at x and must return
        exactly the default's floats, signed zeros included: a zero slope is
        +0.0, as the dot kernel's sum makes it, never -0.0. The smooth,
        l1-norm, separable-envelope, sum (scalings included) and
        pointwise-extremum kernels override it.
    """

    semi_differentiable: bool = False
    extended_valued: bool = False
    subderivative_concave: bool = False
    has_gradient: bool = False
    is_separable: bool = False
    descent_constant: Optional[float] = None
    lower_bound: Optional[float] = None

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Ambient dimension n."""

    @abc.abstractmethod
    def value(self, x: Vector) -> ExtReal:
        """f(x) as an extended real (never NaN)."""

    def _value(self, x: Vector) -> float:
        """The scalar kernel, f(x) as a float; this default asks ``value``."""
        return self.value(x).v

    @abc.abstractmethod
    def subderivative(self, x: Vector, w: Vector) -> ExtReal:
        """d f(x)(w), the lower directional derivative at x along w."""

    def subderivatives(self, x: Vector, W) -> np.ndarray:
        """d f(x)(w) for every row w of the k x n matrix W, as k floats.

        Values may be +-inf. x is checked by ``as_vector`` and W is made a
        C-contiguous float64 matrix with finite entries by ``as_directions``,
        so each row has unit stride, as a freshly built direction does.
        """
        return self._subderivatives(as_vector(x, self.dim), as_directions(W, self.dim))

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        """The row kernel on checked input; this default asks ``subderivative``."""
        return np.array([self.subderivative(x, w).v for w in W], dtype=float)

    def _vertex_values(self, x: Vector) -> np.ndarray:
        """d f(x)(w) at the rows of ``l1_vertices(n)``; this default asks
        ``_subderivatives`` about the dense matrix."""
        return self._subderivatives(x, l1_vertices(self.dim))

    def values(self, X) -> np.ndarray:
        """f(x) for every row x of the k x n matrix X, as k floats.

        Values may be +-inf, never NaN. X is first made a C-contiguous
        float64 matrix with finite entries by ``as_directions``.
        """
        return self._values(as_directions(X, self.dim, "X"))

    def _values(self, X: np.ndarray) -> np.ndarray:
        """The row kernel on a checked matrix; this default asks ``_value``."""
        return np.array([self._value(x) for x in X], dtype=float)

    def gradient(self, x: Vector) -> Vector:
        """Gradient at x, for models advertising ``has_gradient``."""
        raise NoGradient(f"{type(self).__name__} does not expose a gradient")

    def separable_parts(self, x: Vector) -> tuple[Vector, tuple[Vector, Vector]]:
        """Smooth-part gradient and per-coordinate scalar parts at x.

        Only for models advertising ``is_separable``: the subderivative then
        decomposes as d f(x)(w) = <grad, w> + sum_i g_i(w_i). Each g_i is
        positively homogeneous, so it is fixed by two numbers; the parts are
        returned as arrays ``(up, down)`` of shape (n,) with
        ``up[i] = g_i(+1)`` and ``down[i] = g_i(-1)``, so that
        g_i(t) = t * up[i] for t >= 0 and -t * down[i] for t <= 0. The
        parts may be read-only: a model may hand out the arrays it keeps.
        """
        raise NotSeparable(f"{type(self).__name__} has no separable structure")

    def _separable_parts(self, x: Vector) -> tuple[Vector, tuple[Vector, Vector]]:
        """The parts at a checked x; this default asks ``separable_parts``."""
        return self.separable_parts(x)


class RowSubderivatives(FunctionModel):
    """A model that states its value and subderivative once, as kernels.

    ``value(x)`` is ``ExtReal(_value(x))`` on x checked by ``as_vector``, and
    ``subderivative(x, w)`` the one-row case of ``subderivatives``, so both
    check their input as the batch does: a wrong length or shape raises
    DimensionMismatch, a non-finite entry ValueError. The ``_value`` kernel
    takes x as given.
    """

    @abc.abstractmethod
    def _value(self, x: Vector) -> float:
        """f(x) as a float, never NaN."""

    @abc.abstractmethod
    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        """d f(x)(w) for every row w of the checked matrix W."""

    def value(self, x: Vector) -> ExtReal:
        return ExtReal(self._value(as_vector(x, self.dim)))

    def subderivative(self, x: Vector, w: Vector) -> ExtReal:
        return ExtReal(self.subderivatives(x, np.asarray(w, dtype=float)[None])[0])


def check_same_dim(members: Sequence) -> int:
    dims = {m.dim for m in members}
    if len(dims) != 1:
        raise DimensionMismatch(f"members disagree on dimension: {sorted(dims)}")
    return dims.pop()


def homogeneity_check(m: FunctionModel, x: Vector, w: Vector, t: float,
                      tol: float = 1e-8) -> bool:
    """Test d f(x)(t w) == t * d f(x)(w) for t > 0.

    Returns True when both sides are finite and agree within ``tol``, or when
    both are the same infinity. Mismatches return False rather than raising.
    """
    t = check_real(t, "t")
    x = as_vector(x, m.dim, "x")
    w = as_vector(w, m.dim, "w")
    lhs = m.subderivative(x, t * w)
    rhs = m.subderivative(x, w).scaled(t)
    if lhs.is_finite and rhs.is_finite:
        return abs(lhs.v - rhs.v) <= tol
    return lhs.v == rhs.v
