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
from .model import FunctionModel, RowSubderivatives, Vector, as_vector


def _interleaved(even: Vector, odd: Vector) -> np.ndarray:
    """even[0], odd[0], even[1], odd[1], ...: values at e1, -e1, e2, ..."""
    out = np.empty((even.shape[0], 2))
    out[:, 0] = even
    out[:, 1] = odd
    return out.ravel()


class L1Norm(RowSubderivatives):
    """lam * ||x||_1 with the sign-split directional derivative.

    d f(x)(w) = sum_{x_i>0} lam w_i + sum_{x_i<0} (-lam w_i) + sum_{x_i=0} lam |w_i|.
    Convex, hence no descent constant is advertised.
    """

    semi_differentiable = True
    is_separable = True
    lower_bound = 0.0
    _sign = 1.0

    def __init__(self, n: int, lam: float = 1.0):
        if not lam > 0:
            raise ValueError("lam must be positive")
        if n < 0:
            raise ValueError("n must be nonnegative")
        self._n = int(n)
        self.lam = float(lam)
        self._c = self._sign * self.lam

    @property
    def dim(self) -> int:
        return self._n

    def _value(self, x: Vector) -> float:
        return self._c * float(np.abs(x).sum())

    def _values(self, X: np.ndarray) -> np.ndarray:
        return self._c * np.abs(X).sum(axis=1)

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        S = np.where(x > 0, W, np.where(x < 0, -W, np.abs(W)))
        return self._c * S.sum(axis=1)

    def _vertex_values(self, x: Vector) -> np.ndarray:
        return _interleaved(*self.separable_parts(x)[1])

    def separable_parts(self, x: Vector) -> tuple[Vector, tuple[Vector, Vector]]:
        x = np.asarray(x, dtype=float)
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
    in the support of A x + b, +inf otherwise. Support membership compares
    |y_i| against ``support_tol``; the default 0 honors the exact formula, the
    override serves noisy data (any nonzero tolerance changes the answer
    discontinuously). Directionally lower regular but not semi-differentiable.
    """

    semi_differentiable = False
    directionally_lower_regular = True
    lower_bound = 0.0

    def __init__(self, A, b, support_tol: float = 0.0):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = as_vector(b, self.A.shape[0], "b")
        self.support_tol = float(support_tol)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def _support(self, y: Vector) -> np.ndarray:
        return np.abs(y) > self.support_tol

    def _value(self, x: Vector) -> float:
        return float(np.count_nonzero(self._support(self.A @ x + self.b)))

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        # vecdot forms each row's A w from its own dot products; W @ A.T
        # need not round a row alike at every row count.
        AW = np.vecdot(W[:, None, :], self.A)
        new = self._support(AW) & ~self._support(self.A @ x + self.b)
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
        self._n = int(n)
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
        g = self.gradient(x)
        if not np.isfinite(g).all():
            raise ValueError("W must have finite entries")
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
        if not lam > 0:
            raise ValueError("lam must be positive")
        self.lam = float(lam)

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
        return (np.where(at, np.minimum(t, 0.0), off),
                np.where(at, np.maximum(t, 0.0), off))

    def envelope(self, t: np.ndarray, r: float) -> np.ndarray:
        # min(t^2 / (2r), 1), rounded as at the prox candidates 0 and t: at
        # |t| = thresh the rounded thresh^2 / (2r) decides which is less.
        # Clipping |t| at thresh keeps a huge t from overflowing t^2.
        thresh = math.sqrt(2.0 * r)
        a = np.abs(t)
        s = np.minimum(a, thresh)
        one = a >= thresh if thresh * thresh / (2.0 * r) > 1.0 else a > thresh
        return np.where(one, 1.0, s * s / (2.0 * r))


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
    ``envelope``, the subderivative is built on its ``prox_range``."""

    semi_differentiable = True
    is_separable = True

    def __init__(self, n: int, inner: ScalarProxInner, r: float):
        if not r > 0:
            raise ValueError("r must be positive")
        if n < 0:
            raise ValueError("n must be nonnegative")
        self._n = int(n)
        self.inner = inner
        self.r = float(r)
        self.descent_constant = 1.0 / self.r
        self.has_gradient = inner.unique_prox
        # The envelope is bounded below by the infimum of the inner cost.
        self.lower_bound = (None if inner.min_cost is None
                            else self._n * inner.min_cost)

    @property
    def dim(self) -> int:
        return self._n

    def _value(self, x: Vector) -> float:
        return float(self.inner.envelope(np.asarray(x, dtype=float), self.r).sum())

    def _values(self, X: np.ndarray) -> np.ndarray:
        # The inner is elementwise on 1-D arrays, so it sees the rows end to end.
        return self.inner.envelope(X.ravel(), self.r).reshape(X.shape).sum(axis=1)

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        _, (up, down) = self.separable_parts(x)
        return np.where(W > 0, up * W, -down * W).sum(axis=1)

    def gradient(self, x: Vector) -> Vector:
        if not self.inner.unique_prox:
            return super().gradient(x)
        x = np.asarray(x, dtype=float)
        return (x - self.inner.prox_range(x, self.r)[0]) / self.r

    def separable_parts(self, x: Vector) -> tuple[Vector, tuple[Vector, Vector]]:
        x = np.asarray(x, dtype=float)
        lo, hi = self.inner.prox_range(x, self.r)
        return np.zeros(self.dim), ((x - hi) / self.r, (lo - x) / self.r)


class QuadraticInner:
    """Convex quadratic (1/2) y' Q y + c' y with Q positive semidefinite."""

    def __init__(self, Q, c):
        self.Q = np.atleast_2d(np.asarray(Q, dtype=float))
        self.c = as_vector(c, self.Q.shape[0], "c")
        if self.Q.shape[0] != self.Q.shape[1]:
            raise DimensionMismatch("Q must be square")


class QuadraticMoreau(SmoothModel):
    """Moreau envelope of a convex quadratic; the prox is a linear solve.

    ``_value`` is the one-row case of ``values``, which takes every prox in
    one stacked solve (LAPACK gesv per matrix, as the scalar solve runs) and
    each row's dot products with ``np.vecdot``, so a row's value does not
    depend on the row count.
    """

    def __init__(self, inner: QuadraticInner, r: float):
        if not r > 0:
            raise ValueError("r must be positive")
        self.inner = inner
        self.r = float(r)
        n = inner.Q.shape[0]
        self._K = inner.Q + np.eye(n) / self.r
        super().__init__(n, None, None, smoothness_constant=1.0 / self.r)

    def _value(self, x: Vector) -> float:
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

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

    At a zero pre-activation the limit forces max{0, da}; this is what makes
    the toolkit reject points that coarser stationarity notions accept.
    """
    return np.where(a > 0, da, np.where(a < 0, 0.0, np.maximum(da, 0.0)))


class ReLUNetworkLoss(RowSubderivatives):
    """Mean squared loss of a fully connected ReLU network over its parameters.

    The parameter vector packs (W^1, b^1, ..., W^N, b^N) row-major. The data
    are held as matrix columns, ``X`` (inputs) and ``Y`` (targets), and one
    forward pass over all of them carries the directions next to the values
    (k directions as a stack of k tangents; ``subderivative`` is the case
    k = 1): through each affine layer by the product rule,
    dA = dW Z + W dZ - db, through the activation by its semi-derivative
    (max{0, dA} at a zero pre-activation), then through the smooth
    squared-loss outer derivative.

    ``final_relu`` controls whether the last layer is passed through the
    activation as well; the bundled fixtures use True.
    """

    semi_differentiable = True

    def __init__(self, widths: Sequence[int], data: Sequence[tuple], final_relu: bool = True):
        self.widths = [int(w) for w in widths]
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise DimensionMismatch("widths must list at least two positive layer sizes")
        self.final_relu = bool(final_relu)
        pairs = [(as_vector(x, self.widths[0], "x"), as_vector(y, self.widths[-1], "y"))
                 for x, y in data]
        if not pairs:
            raise ValueError("at least one training pair is required")
        self.X = np.column_stack([x for x, _ in pairs])
        self.Y = np.column_stack([y for _, y in pairs])
        self._offsets = []
        off = 0
        for i in range(1, len(self.widths)):
            n_out, n_in = self.widths[i], self.widths[i - 1]
            self._offsets.append((off, off + n_out * n_in, off + n_out * n_in + n_out))
            off = self._offsets[-1][2]
        self._p = off

    @property
    def dim(self) -> int:
        return self._p

    def _unpack(self, theta: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Layer i's weights and bias from the last axis of ``theta``."""
        w0, w1, w2 = self._offsets[i]
        n_out, n_in = self.widths[i + 1], self.widths[i]
        return (theta[..., w0:w1].reshape(theta.shape[:-1] + (n_out, n_in)),
                theta[..., w1:w2])

    def pack(self, weights: Sequence[np.ndarray], biases: Sequence[Vector]) -> Vector:
        """Flatten per-layer weights and biases into a parameter vector."""
        chunks = []
        for W, b in zip(weights, biases):
            chunks.append(np.asarray(W, dtype=float).ravel())
            chunks.append(np.asarray(b, dtype=float).ravel())
        theta = np.concatenate(chunks)
        if theta.shape[0] != self._p:
            raise DimensionMismatch(
                f"packed {theta.shape[0]} parameters, expected {self._p}")
        return theta

    def _pass(self, theta: np.ndarray, dtheta: Optional[np.ndarray] = None):
        """Forward pass over every datum at once.

        Returns the per-layer pre-activations A = W Z - b (one column per
        datum), the output and its directional derivatives along the k rows
        of the (k, p) matrix ``dtheta``, stacked on a leading axis of length
        k; without ``dtheta`` no direction is propagated and the last is None.
        Without ``dtheta``, ``theta`` may also be a (k, p) stack of parameter
        vectors; every array then gains that leading axis, and each row's
        layer products are the BLAS calls its own pass makes.
        """
        n_layers = len(self.widths) - 1
        Z = self.X
        dZ = None if dtheta is None else np.zeros((dtheta.shape[0],) + Z.shape)
        pre = []
        for i in range(n_layers):
            act = self.final_relu or i < n_layers - 1
            W, b = self._unpack(theta, i)
            A = W @ Z - b[..., None]
            if dtheta is not None:
                dW, db = self._unpack(dtheta, i)
                dA = dW @ Z + W @ dZ - db[:, :, None]
                dZ = relu_direction(A, dA) if act else dA
            Z = np.maximum(A, 0.0) if act else A
            pre.append(A)
        return pre, Z, dZ

    def preactivations(self, theta: Vector) -> list[list[Vector]]:
        """Per-datum, per-layer pre-activation vectors W z - b.

        Handy for detecting activation ties (zero pre-activations), where the
        loss is still semi-differentiable but finite differences converge
        slowly.
        """
        pre, _, _ = self._pass(as_vector(theta, self._p, "theta"))
        return [[A[:, j] for A in pre] for j in range(self.X.shape[1])]

    def _value(self, x: Vector) -> float:
        _, out, _ = self._pass(as_vector(x, self._p, "theta"))
        return float(((out - self.Y) ** 2).sum()) / self.X.shape[1]

    def _values(self, X: np.ndarray) -> np.ndarray:
        _, out, _ = self._pass(X)
        return ((out - self.Y) ** 2).sum(axis=(1, 2)) / self.X.shape[1]

    def _subderivatives(self, x: Vector, W: np.ndarray) -> np.ndarray:
        _, out, dout = self._pass(x, W)
        slopes = ((out - self.Y) * dout).reshape(W.shape[0], -1)
        return 2.0 * slopes.sum(axis=1) / self.X.shape[1]


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


def zero_norm_composite(A, b, support_tol: float = 0.0) -> ZeroNormComposite:
    """Nonzero count of A x + b with its combinatorial subderivative."""
    return ZeroNormComposite(A, b, support_tol)
