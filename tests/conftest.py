import itertools

import numpy as np
import pytest

import subderiv as sd


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def l1():
    return sd.L1Norm(3)


@pytest.fixture
def quad2():
    return sd.quadratic_model(np.zeros(2))


@pytest.fixture
def dc1():
    """(1/2) x^2 - |x| on the line; d-stationary points are x = +-1 and 0."""
    return sd.sum_models([sd.quadratic_model(np.zeros(1)), sd.NegL1Norm(1)])


def make_neg_relu():
    """f(x) = -max{0, x} on the line, written as min{0, -x}."""
    zero = sd.smooth_model(1, lambda x: 0.0, lambda x: np.zeros(1))
    neg_id = sd.smooth_model(1, lambda x: -float(x[0]), lambda x: -np.ones(1))
    return sd.pointwise_min([zero, neg_id])


def quotient(f, x, w, t):
    """Plain one-sided difference quotient used as a hand oracle in tests."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    return (f(x + t * w) - f(x)) / t


def l1_table_direction(grad, x, lam):
    """Closed-form minimizer of <grad, w> + d(lam||.||_1)(x)(w) over the
    sup-norm ball, written straight from the seven active-index sets."""
    n = len(x)
    w = np.zeros(n)
    s = np.zeros(n)
    for i in range(n):
        c = grad[i]
        if x[i] > 0:
            if c + lam >= 0:      # I1
                w[i], s[i] = -1.0, -(c + lam)
            else:                 # I2
                w[i], s[i] = 1.0, c + lam
        elif x[i] < 0:
            if c - lam >= 0:      # I3
                w[i], s[i] = -1.0, -(c - lam)
            else:                 # I4
                w[i], s[i] = 1.0, c - lam
        else:
            if c - lam >= 0:      # I5
                w[i], s[i] = -1.0, -c + lam
            elif c + lam <= 0:    # I6
                w[i], s[i] = 1.0, c + lam
            else:                 # I7
                w[i], s[i] = 0.0, 0.0
    return w, s


def dyadic(rng, size):
    return rng.integers(-8, 9, size) / 8.0


def tied_theta(net, rng):
    """Dyadic ReLU-net weights with every layer's first pre-activation of
    datum 0 at 0.

    Data and weights are multiples of 1/8 with few bits, so W z - b is exact
    and the tie survives in any summation order.
    """
    z = net.X[:, 0]
    weights, biases = [], []
    n_layers = len(net.widths) - 1
    for i in range(n_layers):
        W = dyadic(rng, (net.widths[i + 1], net.widths[i]))
        b = dyadic(rng, net.widths[i + 1])
        b[0] = W[0] @ z
        weights.append(W)
        biases.append(b)
        a = W @ z - b
        z = np.maximum(a, 0.0) if net.final_relu or i < n_layers - 1 else a
    return net.pack(weights, biases)


def _left_to_right(M, v):
    """M v with each entry summed left to right."""
    out = M[..., 0] * v[0]
    for j in range(1, len(v)):
        out = out + M[..., j] * v[j]
    return out


def per_call_tangent_distance(P, x, w):
    """ConvexPolyhedron.tangent_distance with a fresh pinv per active subset,
    products and norms summed left to right, and the v = 0 candidate as
    sqrt(w . w). w is in the cone when A_act w <= 1e-9 |A_act| |w|, and a candidate
    v when A_act v <= 1e-9 ||a_i|| ||w|| per row: the rounding left in every entry
    of v is of the order of ||w||, far more than |v_j| where v_j should be 0, as on
    an edge of the pyramid's cones."""
    tol = sd.sets._MEMBERSHIP_TOL
    row_tol = tol * np.maximum(1.0, np.abs(P.A) @ np.abs(x) + np.abs(P.b))
    active = np.flatnonzero(P.A @ x >= P.b - row_tol)
    if active.size == 0:
        return 0.0
    Aact = P.A[active, :]
    row_norms = np.sqrt(np.sum(Aact * Aact, axis=1))

    def in_cone(v, scale):
        return np.all(_left_to_right(Aact, v) <= tol * scale)

    if in_cone(w, _left_to_right(np.abs(Aact), np.abs(w))):
        return 0.0
    best = float(np.sqrt(np.dot(w, w)))
    for r in range(1, active.size + 1):
        for S in itertools.combinations(range(active.size), r):
            rows = Aact[list(S), :]
            v = w - _left_to_right(np.linalg.pinv(rows), _left_to_right(rows, w))
            if in_cone(v, row_norms * np.sqrt(np.dot(w, w))):
                best = min(best, float(np.sqrt(_left_to_right(w - v, w - v))))
    return best
