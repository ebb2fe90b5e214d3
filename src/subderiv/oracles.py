"""Concrete objective oracles with closed-form subderivatives.

Each oracle pairs a value formula with the exact lower directional derivative
derived for it, so the finite-difference harness in ``verify`` can be played
against it as an independent check.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ProxUnavailable
from .model import (FunctionModel, RowSubderivatives, Vector, as_directions, as_matrix,
                    as_vector, check_count, check_real)


def _interleaved(even: Vector, odd: Vector) -> np.ndarray:
    """even[0], odd[0], even[1], odd[1], ...: values at e1, -e1, e2, ..."""
    out = np.empty((even.shape[0], 2))
    out[:, 0] = even
    out[:, 1] = odd
    return out.ravel()


# numpy sums a row of fewer than 8 floats left to right onto +0.0 (from 8 on it
# keeps 8 partial sums), so below this width a column-by-column sum adds the
# same terms in the same order, with one inner loop per column, not one per row.
_COLUMN_SUM_BELOW = 8


class L1Norm(RowSubderivatives):
    """lam * ||x||_1 with the sign-split directional derivative.

    d f(x)(w) = sum_{x_i>0} lam w_i + sum_{x_i<0} (-lam w_i) + sum_{x_i=0} lam |w_i|.
    Rows shorter than 8 are summed column by column, with the bits of the
    row-by-row sum. Convex, hence no descent constant is advertised.
    """

    semi_differentiable = True
    is_separable = True
    lower_bound = 0.0
    _sign = 1.0

    def __init__(self, n: int, lam: float = 1.0):
        self._n = check_count(n, "n")
        self.lam = check_real(lam, "lam")
        self._c = self._sign * self.lam

    @property
    def dim(self) -> int:
        return self._n

    def _value(self, x: Vector) -> float:
        return self._c * float(np.abs(x).sum())

    def _values(self, X: np.ndarray) -> np.ndarray:
        return self._c * np.abs(X).sum(axis=1)

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        if self._n >= _COLUMN_SUM_BELOW:
            S = np.where(x > 0, W, np.where(x < 0, -W, np.abs(W)))
            return self._c * S.sum(axis=1)
        acc = np.zeros(len(W))
        for j, xj in enumerate(x.tolist()):
            acc += W[:, j] if xj > 0 else -W[:, j] if xj < 0 else np.abs(W[:, j])
        return self._c * acc

    def _vertex_values(self, x: Vector) -> np.ndarray:
        return _interleaved(*self._separable_parts(x)[1])

    def separable_parts(self, x: Vector) -> tuple[Vector, tuple[Vector, Vector]]:
        return self._separable_parts(as_vector(x, self.dim))

    def _separable_parts(self, x: Vector) -> tuple[Vector, tuple[Vector, Vector]]:
        up = np.where(x < 0, -self._c, self._c)
        down = np.where(x > 0, -self._c, self._c)
        return np.zeros(self.dim), (up, down)


class NegL1Norm(L1Norm):
    """-lam * ||x||_1; concave, so the descent property holds with constant 0."""

    _sign = -1.0
    lower_bound = None
    subderivative_concave = True
    descent_constant = 0.0


class ZeroNormComposite(RowSubderivatives):
    """||A x + b||_0, the nonzero count of the affine image.

    The subderivative is combinatorial: 0 when the support of A w is contained
    in the support of A x + b, +inf otherwise. Supports are compared exactly
    (an entry is in the support iff it is nonzero), which keeps the
    subderivative positively homogeneous. Directionally lower regular but not
    semi-differentiable.
    """

    semi_differentiable = False
    lower_bound = 0.0

    def __init__(self, A, b):
        self.A = as_matrix(A)
        self.b = as_vector(b, self.A.shape[0], "b")

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def _value(self, x: Vector) -> float:
        return float(np.count_nonzero(self.A @ x + self.b))

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        # vecdot forms each row's A w from its own dot products; W @ A.T
        # need not round a row alike at every row count.
        AW = np.vecdot(W[:, None, :], self.A)
        new = (AW != 0) & (self.A @ x + self.b == 0)
        return np.where(new.any(axis=1), np.inf, 0.0)


def _not_nan(v: float) -> float:
    if v != v:
        raise ValueError("ExtReal payload must not be NaN")
    return v


class SmoothModel(RowSubderivatives):
    """Differentiable objective: d f(x)(w) = <grad f(x), w>.

    The flags, ``dim``, the descent constant and the row kernel are stated
    once, here; a bundled subclass states only ``_value`` (and ``_values``)
    and ``gradient``, and stores no callable.
    """

    semi_differentiable = True
    has_gradient = True
    subderivative_concave = True  # linear in w

    def __init__(self, n: int, f: Callable[[Vector], float],
                 grad: Callable[[Vector], Vector],
                 smoothness_constant: Optional[float] = None,
                 lower_bound: Optional[float] = None):
        self._n = check_count(n, "n")
        self._f = f
        self._grad = grad
        self.descent_constant = smoothness_constant
        self.lower_bound = lower_bound

    @property
    def dim(self) -> int:
        return self._n

    def _value(self, x: Vector) -> float:
        return _not_nan(float(self._f(x)))

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        # vecdot runs the same dot kernel per row as np.dot; W @ g need not.
        return np.vecdot(W, self.gradient(x))

    def _vertex_values(self, x: Vector) -> np.ndarray:
        # 0.0 - g, not -g: a zero slope is +0.0, as the dot kernel's sum gives
        # it. A non-finite gradient is refused as a gradient row is.
        g = as_directions(self.gradient(x)[None], self.dim)[0]
        return _interleaved(g + 0.0, 0.0 - g)

    def gradient(self, x: Vector) -> Vector:
        return np.asarray(self._grad(x), dtype=float)


def smooth_model(n: int, f, grad, smoothness_constant=None, lower_bound=None) -> SmoothModel:
    """Wrap value/gradient callables; ``grad`` must be the true gradient."""
    return SmoothModel(n, f, grad, smoothness_constant, lower_bound)


class _Quadratic(SmoothModel):
    def __init__(self, c: Vector):
        self.c = c
        super().__init__(c.shape[0], None, None, smoothness_constant=1.0, lower_bound=0.0)

    def _value(self, x: Vector) -> float:
        d = x - self.c
        return 0.5 * float(np.dot(d, d))

    def _values(self, X: np.ndarray) -> np.ndarray:
        # vecdot runs the dot kernel of the scalar np.dot on each row.
        D = X - self.c
        return 0.5 * np.vecdot(D, D)

    def gradient(self, x: Vector) -> Vector:
        return x - self.c


def quadratic_model(c: Vector) -> SmoothModel:
    """(1/2) ||x - c||^2, the workhorse smooth fixture."""
    return _Quadratic(as_vector(c, name="c"))


def linear_model(c: Vector) -> SmoothModel:
    """<c, x>; unbounded below, used by the diminishing-schedule fixtures."""
    c = as_vector(c, name="c")
    return SmoothModel(c.shape[0], lambda x: float(np.dot(c, x)), lambda x: c.copy())


# ---------------------------------------------------------------------------
# Moreau envelopes.  e_r f(x) = inf_y { ||x - y||^2 / (2r) + f(y) } has the
# descent property with constant 1/r whenever f is prox-bounded with c > r.
# The subderivative is taken as the directional derivative of the closed-form
# envelope (a smooth quadratic plus an infimum of affine functions), which
# evaluates to min over the prox set of <x - y, w> / r; differentiating
# through the argmin would break down where the prox is set-valued. That is
# linear in y, so a separable inner gives only its smallest and largest
# minimizer per coordinate; every minimizer has the same envelope value.
# ---------------------------------------------------------------------------


class ScalarProxInner:
    """Separable scalar inner: a cost, the range of its prox set and the
    envelope value, elementwise on 1-D arrays.

    ``envelope`` defaults to scoring both ends of ``prox_range``; an inner
    with a closed form states it there.
    """

    unique_prox = True
    min_cost: Optional[float] = None  # inf of the cost, when known

    def cost(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prox_range(self, t: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Smallest and largest minimizer of (y - t)^2 / (2r) + cost(y), per entry."""
        raise NotImplementedError

    def envelope(self, t: np.ndarray, r: float) -> np.ndarray:
        """min over y of (t - y)^2 / (2r) + cost(y), per entry.

        Every minimizer has the same exact value; the default rounds it at
        both ends of ``prox_range`` and takes the lesser.
        """
        return np.minimum(*[(t - y) ** 2 / (2.0 * r) + self.cost(y)
                            for y in self.prox_range(t, r)])


class L1Inner(ScalarProxInner):
    """lam |y|; the prox is the soft threshold, always a singleton."""

    min_cost = 0.0

    def __init__(self, lam: float = 1.0):
        self.lam = check_real(lam, "lam")

    def cost(self, y: np.ndarray) -> np.ndarray:
        return self.lam * np.abs(y)

    def prox_range(self, t: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        y = np.copysign(np.maximum(np.abs(t) - self.lam * r, 0.0), t)
        return y, y

    def envelope(self, t: np.ndarray, r: float) -> np.ndarray:
        y = self.prox_range(t, r)[0]
        return (t - y) ** 2 / (2.0 * r) + self.cost(y)


class ZeroNormInner(ScalarProxInner):
    """The 0/1 nonzero indicator; the prox is the hard threshold.

    Both y = 0 and y = t minimize at |t| = sqrt(2r), so the prox is set-valued
    there and the envelope min(t^2 / (2r), 1) has a kink.
    """

    unique_prox = False
    min_cost = 0.0

    def cost(self, y: np.ndarray) -> np.ndarray:
        return np.where(y == 0.0, 0.0, 1.0)

    def prox_range(self, t: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        thresh = math.sqrt(2.0 * r)
        a = np.abs(t)
        off = np.where(a > thresh, t, 0.0)  # the prox off the threshold
        at = a == thresh
        if not at.any():  # the ends differ only on the threshold
            return off, off
        return (np.where(at, np.minimum(t, 0.0), off),
                np.where(at, np.maximum(t, 0.0), off))

    def envelope(self, t: np.ndarray, r: float) -> np.ndarray:
        # min(t^2 / (2r), 1), rounded as at the prox candidates 0 and t: at
        # |t| = thresh the rounded thresh^2 / (2r) decides which is less.
        # Clipping |t| at thresh keeps a huge t from overflowing t^2. The
        # clip, the square and the quotient write only the array np.abs made,
        # first copied to floats when t is an int array or a scalar.
        thresh = math.sqrt(2.0 * r)
        a = np.abs(t)
        if not (isinstance(a, np.ndarray) and a.dtype.kind == "f"):
            a = np.array(a, dtype=np.result_type(a, 1.0))
        one = a >= thresh if thresh * thresh / (2.0 * r) > 1.0 else a > thresh
        np.minimum(a, thresh, out=a)
        np.multiply(a, a, out=a)
        np.divide(a, 2.0 * r, out=a)
        a[one] = 1.0
        return a


class UserScalarInner(ScalarProxInner):
    """Separable scalar inner with a user-supplied scalar cost and prox.

    ``prox(t, r)`` returns minimizers of (y - t)^2 / (2r) + cost(y), in any
    order; it must include the smallest and the largest. Missing either makes
    the envelope's subderivative an upper bound only.
    """

    unique_prox = False

    def __init__(self, cost: Callable[[float], float],
                 prox: Callable[[float, float], tuple[float, ...]]):
        self._cost = cost
        self._prox = prox

    def cost(self, y: np.ndarray) -> np.ndarray:
        return np.array([float(self._cost(v)) for v in np.asarray(y, dtype=float).tolist()])

    def prox_range(self, t: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        sets = [[float(y) for y in self._prox(s, r)]
                for s in np.asarray(t, dtype=float).tolist()]
        return np.array([min(s) for s in sets]), np.array([max(s) for s in sets])


class SeparableMoreau(RowSubderivatives):
    """Moreau envelope of a separable scalar inner: the value sums the inner's
    ``envelope``, the subderivative is built on its ``prox_range``.

    The model keeps the separable parts of the last point they were worked
    out at (``_last``: the point's bytes and the read-only parts, one tuple
    replaced whole), so ``separable_parts``, the vertex values and the
    subderivative rows at one point share one ``prox_range``. ``_value``
    does not use them. The parts handed out are read-only.
    """

    semi_differentiable = True
    is_separable = True

    def __init__(self, n: int, inner: ScalarProxInner, r: float):
        self._n = check_count(n, "n")
        self.inner = inner
        self.r = check_real(r, "r")
        self.descent_constant = 1.0 / self.r
        self.has_gradient = inner.unique_prox
        # The envelope is bounded below by the infimum of the inner cost.
        self.lower_bound = (None if inner.min_cost is None
                            else self._n * inner.min_cost)
        self._last: Optional[tuple[bytes, tuple[Vector, Vector]]] = None

    @property
    def dim(self) -> int:
        return self._n

    def _value(self, x: Vector) -> float:
        return float(self.inner.envelope(np.asarray(x, dtype=float), self.r).sum())

    def _values(self, X: np.ndarray) -> np.ndarray:
        # The inner is elementwise on 1-D arrays, so it sees the rows end to end.
        return self.inner.envelope(X.ravel(), self.r).reshape(X.shape).sum(axis=1)

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        _, (up, down) = self._separable_parts(x)
        return (np.where(W > 0, up, -down) * W).sum(axis=1)

    def _vertex_values(self, x: Vector) -> np.ndarray:
        # + 0.0: a zero slope is +0.0, as the dense default's row sum gives it.
        _, (up, down) = self._separable_parts(x)
        return _interleaved(up + 0.0, down + 0.0)

    def gradient(self, x: Vector) -> Vector:
        if not self.inner.unique_prox:
            return super().gradient(x)
        x = np.asarray(x, dtype=float)
        return (x - self.inner.prox_range(x, self.r)[0]) / self.r

    def separable_parts(self, x: Vector) -> tuple[Vector, tuple[Vector, Vector]]:
        return self._separable_parts(as_vector(x, self.dim))

    def _separable_parts(self, x: Vector) -> tuple[Vector, tuple[Vector, Vector]]:
        # the kept parts when their key is x.tobytes(), else one prox_range,
        # whose parts replace them
        key = x.tobytes()
        last = self._last
        if last is not None and last[0] == key:
            return np.zeros(self.dim), last[1]
        lo, hi = self.inner.prox_range(x, self.r)
        parts = (x - hi) / self.r, (lo - x) / self.r
        for p in parts:
            p.flags.writeable = False
        self._last = key, parts
        return np.zeros(self.dim), parts


class QuadraticInner:
    """Convex quadratic (1/2) y' Q y + c' y with Q positive semidefinite."""

    def __init__(self, Q, c):
        self.c = as_vector(c, name="c")
        self.Q = as_matrix(Q, len(self.c), "Q", len(self.c))


class QuadraticMoreau(SmoothModel):
    """Moreau envelope of a convex quadratic; the prox is a linear solve.

    ``_value`` is the one-row case of ``_values``, which takes every prox in
    one stacked solve (LAPACK gesv per matrix, as the scalar solve runs) and
    each row's dot products with ``np.vecdot``, so a row's value does not
    depend on the row count.
    """

    def __init__(self, inner: QuadraticInner, r: float):
        self.inner = inner
        self.r = check_real(r, "r")
        n = inner.Q.shape[0]
        self._K = inner.Q + np.eye(n) / self.r
        super().__init__(n, None, None, smoothness_constant=1.0 / self.r)

    def _value(self, x: Vector) -> float:
        return float(self._values(x[None])[0])

    def _values(self, X: np.ndarray) -> np.ndarray:
        K, Q, c = self._K, self.inner.Q, self.inner.c
        Y = np.linalg.solve(np.broadcast_to(K, (X.shape[0],) + K.shape),
                            (X / self.r - c)[..., None])[..., 0]
        q = 0.5 * np.vecdot(Y, np.vecdot(Y[:, None, :], Q)) + np.vecdot(Y, c)
        D = X - Y
        return np.vecdot(D, D) / (2.0 * self.r) + q

    def gradient(self, x: Vector) -> Vector:
        x = np.asarray(x, dtype=float)
        return (x - np.linalg.solve(self._K, x / self.r - self.inner.c)) / self.r


def moreau_envelope(inner, r: float, n: Optional[int] = None) -> FunctionModel:
    """Moreau envelope oracle for a bundled prox-friendly inner function.

    ``inner`` is a ScalarProxInner (separable; ``n`` gives the dimension,
    default 1) or a QuadraticInner. The inner must be prox-bounded with a
    constant exceeding r; that is a contract, not a runtime check.
    """
    if isinstance(inner, ScalarProxInner):
        return SeparableMoreau(1 if n is None else n, inner, r)
    if isinstance(inner, QuadraticInner):
        return QuadraticMoreau(inner, r)
    raise ProxUnavailable(
        f"no closed-form prox bundled for {type(inner).__name__}")


def relu_direction(a: Vector, da: Vector) -> Vector:
    """Directional derivative of componentwise max{0, .} at pre-activation a.

    It is da where a > 0 and 0.0 where a < 0, picked by one select. At a zero
    pre-activation the limit forces max{0, da}; this is what makes the
    toolkit reject points that coarser stationarity notions accept. That
    second select runs only when some entry of a is exactly 0.
    """
    out = np.where(a > 0, da, 0.0)
    if (a == 0).any():
        out = np.where(a == 0, np.maximum(da, 0.0), out)
    return out


_PENDING = object()  # a tape entry not yet asked for


class _Tape:
    """One forward pass of a ``ReLUNetworkLoss`` at one theta.

    ``key`` is theta.tobytes(); ``layers`` holds each layer's input Z,
    weights W and pre-activation A = W Z - b, with W a view of a read-only
    copy of theta, so a caller that changes its theta changes no tape;
    ``residual`` is out - Y. The loss and the gradient join it when first
    asked for; a gradient that does not exist is stored as None. A forward
    pass that raises (an overflow under an error filter) leaves no tape, and
    a loss or a gradient that raises is left unasked.
    """

    __slots__ = ("key", "layers", "residual", "loss", "grad")

    def __init__(self, key: bytes, layers: list, residual: np.ndarray):
        self.key, self.layers, self.residual = key, layers, residual
        self.loss = self.grad = _PENDING


class ReLUNetworkLoss(RowSubderivatives):
    """Mean squared loss of a fully connected ReLU network over its parameters.

    The parameter vector packs (W^1, b^1, ..., W^N, b^N) row-major. The data
    are held as matrix columns, ``X`` (inputs) and ``Y`` (targets). The model
    keeps the forward tape of the last single theta it was asked about (one
    forward pass over all the data, ``_tape``), and the value, the gradient
    and the subderivative rows at that theta all read it, so a search, its
    read-back and the line search's f(x) share one pass. The tape is
    replaced whole and answers only the bytes of the theta it was built
    from, so every answer has the bits a fresh model gives.

    Where no activated pre-activation is exactly 0, every unit is locally
    affine, so f is differentiable at theta and each row is
    <grad f(theta), w>, with the gradient from one reverse pass over the
    tape (``_backprop``) and one row product. Elsewhere, or where that pass
    overflows, the directions are carried through the tape as a stack of
    tangents, a fixed number of floats at a time (``subderivative`` is the
    case of one direction): through each affine layer by the product rule,
    dA = dW Z + W dZ - db, through the activation by its semi-derivative
    (max{0, dA} at a zero pre-activation), then through the smooth
    squared-loss outer derivative.

    ``final_relu`` controls whether the last layer is passed through the
    activation as well; the bundled fixtures use True.
    """

    semi_differentiable = True
    # floats in one tangent block (rows x width x data); about 8 MB, which
    # bounds the tangent route's memory at any row count
    _TANGENT_ELEMENTS = 1 << 20

    def __init__(self, widths: Sequence[int], data: Sequence[tuple], final_relu: bool = True):
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise DimensionMismatch("widths must list at least two positive layer sizes")
        self.widths = [check_count(w, "widths") for w in widths]
        self.final_relu = bool(final_relu)
        pairs = [(as_vector(x, self.widths[0], "x"), as_vector(y, self.widths[-1], "y"))
                 for x, y in data]
        if not pairs:
            raise ValueError("at least one training pair is required")
        self.X = np.column_stack([x for x, _ in pairs])
        self.Y = np.column_stack([y for _, y in pairs])
        self._offsets, off = [], 0
        for n_in, n_out in zip(self.widths, self.widths[1:]):
            self._offsets.append((off, off + n_out * n_in, off + n_out * n_in + n_out))
            off = self._offsets[-1][2]
        self._p = off
        self._last: Optional[_Tape] = None

    @property
    def dim(self) -> int:
        return self._p

    def _activated(self, i: int) -> bool:
        return self.final_relu or i < len(self.widths) - 2

    def _unpack(self, theta: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Layer i's weights and bias from the last axis of ``theta``."""
        w0, w1, w2 = self._offsets[i]
        n_out, n_in = self.widths[i + 1], self.widths[i]
        return (theta[..., w0:w1].reshape(theta.shape[:-1] + (n_out, n_in)),
                theta[..., w1:w2])

    def pack(self, weights: Sequence[np.ndarray], biases: Sequence[Vector]) -> Vector:
        """Flatten the ``len(widths) - 1`` layers into a parameter vector:
        ``weights[i]`` a (widths[i+1], widths[i]) matrix read by ``as_matrix``,
        ``biases[i]`` a widths[i+1] vector read by ``as_vector``."""
        n, widths = len(self.widths) - 1, self.widths
        if len(weights) != n or len(biases) != n:
            raise DimensionMismatch(f"pack takes {n} weights and biases, got "
                                    f"{len(weights)} and {len(biases)}")
        return np.concatenate([a for i in range(n) for a in (
            as_matrix(weights[i], widths[i], f"weights[{i}]", widths[i + 1]).ravel(),
            as_vector(biases[i], widths[i + 1], f"biases[{i}]"))])

    def _tape(self, theta: Vector) -> _Tape:
        """The forward tape at theta: the kept one when its key is
        theta.tobytes(), else one new pass, which replaces it.

        Each layer's A = W Z - b is one product of the (n_out, n_in) weights
        with the data columns, the BLAS call each row of ``_pass`` makes, so
        the tape's loss equals ``_values``' row bit for bit.
        """
        key = theta.tobytes()
        last = self._last
        if last is not None and last.key == key:
            return last
        theta = np.frombuffer(key)  # a read-only copy of theta
        Z, layers = self.X, []
        for i, (w0, w1, w2) in enumerate(self._offsets):
            W = theta[w0:w1].reshape(self.widths[i + 1], self.widths[i])
            A = W @ Z - theta[w1:w2, None]
            layers.append((Z, W, A))
            Z = np.maximum(A, 0.0) if self._activated(i) else A
        self._last = tape = _Tape(key, layers, Z - self.Y)
        return tape

    def _pass(self, theta: np.ndarray) -> tuple[list, np.ndarray]:
        """Forward pass over every datum at once, for a (k, p) stack of
        parameter vectors (or one vector): the per-layer pre-activations
        A = W Z - b (one column per datum) and the output, each with a
        leading axis of length k. Each row's layer products are the BLAS
        calls its own pass makes.
        """
        Z, pre = self.X, []
        for i in range(len(self.widths) - 1):
            W, b = self._unpack(theta, i)
            A = W @ Z - b[..., None]
            Z = np.maximum(A, 0.0) if self._activated(i) else A
            pre.append(A)
        return pre, Z

    def preactivations(self, theta: Vector) -> list[list[Vector]]:
        """Per-datum, per-layer pre-activation vectors W z - b.

        Handy for detecting activation ties (zero pre-activations), where the
        loss is still semi-differentiable but finite differences converge
        slowly.
        """
        tape = self._tape(as_vector(theta, self._p, "theta"))
        cols = [A.T.copy() for _, _, A in tape.layers]  # copies: the tape stays as built
        return [[c[j] for c in cols] for j in range(self.X.shape[1])]

    def _value(self, x: Vector) -> float:
        tape = self._tape(x)
        if tape.loss is _PENDING:
            tape.loss = float((tape.residual ** 2).sum()) / self.X.shape[1]
        return tape.loss

    def _values(self, X: np.ndarray) -> np.ndarray:
        _, out = self._pass(X)
        return ((out - self.Y) ** 2).sum(axis=(1, 2)) / self.X.shape[1]

    def _backprop(self, theta: Vector) -> Optional[Vector]:
        """grad f(theta) as a read-only array, by one reverse pass over the
        tape, or None where the tangent route must answer: where a
        pre-activation of an activated layer is exactly 0 (a tie, where
        d f(theta) need not be linear), NaN or infinite (an overflow that a
        dead unit would hide), or where the gradient is not finite. An
        overflow here warns as numpy warns (or raises, under an error
        filter, and leaves the gradient unasked) before the tangent route
        answers.

        From G = 2 (out - Y) / m and the last layer down: dA = G [A > 0]
        (dA = G in an affine layer), the weights' part dA Z^T, the bias's
        -sum of dA over the data, and G = W^T dA for the layer below.
        """
        tape = self._tape(theta)
        if tape.grad is not _PENDING:
            return tape.grad
        for i, (_, _, A) in enumerate(tape.layers):
            if self._activated(i) and (np.count_nonzero(A) < A.size
                                       or np.count_nonzero(np.isfinite(A)) < A.size):
                tape.grad = None
                return None
        G = tape.residual * (2.0 / self.X.shape[1])
        grad = np.empty(self._p)
        for i in reversed(range(len(tape.layers))):
            Z, W, A = tape.layers[i]
            dA = np.where(A > 0, G, 0.0) if self._activated(i) else G
            w0, w1, w2 = self._offsets[i]
            grad[w0:w1] = (dA @ Z.T).ravel()
            grad[w1:w2] = -dA.sum(axis=1)
            if i:
                G = W.T @ dA
        grad.flags.writeable = False
        tape.grad = grad if np.count_nonzero(np.isfinite(grad)) == self._p else None
        return tape.grad

    def _tangent_rows(self, tape: _Tape, D: np.ndarray) -> np.ndarray:
        """d f(theta)(d) for every row d of D, by the forward tangent pass
        over the tape. The data carry no tangent, so layer 1's is
        dA = dW Z - db; from layer 2 on it is dA = (dW Z + W dZ) - db."""
        dZ = None
        for i, (Z, W, A) in enumerate(tape.layers):
            dW, db = self._unpack(D, i)
            dA = dW @ Z
            if dZ is not None:
                dA += W @ dZ
            dA -= db[:, :, None]
            dZ = relu_direction(A, dA) if self._activated(i) else dA
        slopes = (tape.residual * dZ).reshape(D.shape[0], -1)
        return 2.0 * slopes.sum(axis=1) / self.X.shape[1]

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        # vecdot runs the same dot kernel on each row, as at one row; each
        # tangent row's products are its own BLAS calls, so no row's bits
        # depend on the row count or on the chunk it falls in.
        grad = self._backprop(x)
        if grad is not None:
            return np.vecdot(W, grad)
        tape, out = self._tape(x), np.empty(W.shape[0])
        step = max(1, self._TANGENT_ELEMENTS // (max(self.widths[1:]) * self.X.shape[1]))
        for j in range(0, W.shape[0], step):
            out[j:j + step] = self._tangent_rows(tape, W[j:j + step])
        return out


def relu_network_loss(widths: Sequence[int], data: Sequence[tuple],
                      final_relu: bool = True) -> ReLUNetworkLoss:
    """Mean squared ReLU-network loss over the packed parameter space."""
    return ReLUNetworkLoss(widths, data, final_relu)


def l1_norm(n: int, lam: float = 1.0) -> L1Norm:
    """Weighted l1 norm oracle."""
    return L1Norm(n, lam)


def neg_l1_norm(n: int, lam: float = 1.0) -> NegL1Norm:
    """Negated weighted l1 norm oracle (descent constant 0)."""
    return NegL1Norm(n, lam)


def zero_norm_composite(A, b) -> ZeroNormComposite:
    """Nonzero count of A x + b with its combinatorial subderivative."""
    return ZeroNormComposite(A, b)
