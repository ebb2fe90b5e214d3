"""Closed-form oracles against hand values and independent grid/FD oracles."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest

import subderiv as sd
from subderiv.calculus import relu_direction
from subderiv.extreal import ExtReal

from conftest import dyadic, quotient, tied_theta


def test_l1_sign_split_example():
    m = sd.L1Norm(3)
    x = np.array([1.0, -1.0, 0.0])
    w = np.array([2.0, 1.0, -3.0])
    # Difference-quotient oracle at a safely small t (piecewise linear: exact).
    oracle = quotient(lambda z: float(np.sum(np.abs(z))), x, w, 1e-4)
    assert m.subderivative(x, w).v == pytest.approx(oracle, abs=1e-10)
    assert m.subderivative(x, w) == ExtReal(4.0)


def test_l1_trivial_and_kink():
    m = sd.L1Norm(2, lam=2.0)
    assert m.subderivative(np.array([1.0, 2.0]), np.zeros(2)) == ExtReal(0.0)
    # At the kink: |t * 1| * 2 / t = 2.
    assert m.subderivative(np.zeros(2), np.array([1.0, 0.0])) == ExtReal(2.0)
    with pytest.raises(ValueError):
        sd.L1Norm(2, lam=0.0)


def test_neg_l1_examples():
    m = sd.NegL1Norm(2)
    assert m.subderivative(np.zeros(2), np.array([1.0, 0.0])) == ExtReal(-1.0)
    assert m.subderivative(np.zeros(2), np.zeros(2)) == ExtReal(0.0)
    got = m.subderivative(np.array([2.0, 0.0]), np.array([0.0, 1.0]))
    assert got == ExtReal(-1.0)
    fd = sd.fd_subderivative(m, np.array([2.0, 0.0]), np.array([0.0, 1.0]))
    assert fd.estimate.v == pytest.approx(-1.0, abs=1e-6)
    assert m.descent_constant == 0.0


def test_zero_norm_support_rule():
    zn = sd.ZeroNormComposite(np.eye(2), np.zeros(2))
    x = np.array([1.0, 0.0])
    assert zn.subderivative(x, np.array([1.0, 0.0])) == ExtReal(0.0)
    assert zn.subderivative(x, np.array([0.0, 1.0])) == sd.POS_INF
    assert zn.subderivative(x, np.zeros(2)) == ExtReal(0.0)
    assert zn.value(x) == ExtReal(1.0)
    assert not zn.semi_differentiable


def test_zero_norm_quotient_is_exactly_card_over_t():
    # For rational data the t-scaled quotient equals Card(S(Aw) \ S(Ax+b)) / t.
    A = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    b = np.array([0.0, -1.0, 0.0])
    zn = sd.ZeroNormComposite(A, b)
    x = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    y = A @ x + b
    new = (np.abs(A @ w) > 0) & ~(np.abs(y) > 0)
    card = int(np.count_nonzero(new))
    for t in (2 ** -6, 2 ** -9, 2 ** -12):
        q = (zn.value(x + t * w).v - zn.value(x).v) / t
        assert q == pytest.approx(card / t)


def _moreau_grid_oracle(cost, x, r, lo=-6.0, hi=6.0, n=2_000_001):
    ys = np.linspace(lo, hi, n)
    return float(np.min((x - ys) ** 2 / (2 * r) + np.array([cost(y) for y in ys])))


def test_moreau_l1_huber_example():
    env = sd.moreau_envelope(sd.L1Inner(1.0), 1.0, n=1)
    # Grid-minimization oracle over y; the kink at y=0 is on the grid.
    oracle = _moreau_grid_oracle(lambda y: abs(y), 2.0, 1.0)
    assert env.value(np.array([2.0])).v == pytest.approx(oracle, abs=1e-9)
    assert env.value(np.array([2.0])) == ExtReal(1.5)
    assert env.value(np.array([0.0])) == ExtReal(0.0)
    assert env.subderivative(np.zeros(1), np.array([1.0])) == ExtReal(0.0)
    assert env.descent_constant == pytest.approx(1.0)


def test_moreau_zero_norm_example():
    env = sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=1)
    oracle = _moreau_grid_oracle(lambda y: 0.0 if y == 0.0 else 1.0, 0.5, 0.5)
    assert env.value(np.array([0.5])).v == pytest.approx(oracle, abs=1e-9)
    assert env.value(np.array([0.5])) == ExtReal(0.25)
    assert env.descent_constant == pytest.approx(2.0)


def test_moreau_zero_norm_kink_subderivative():
    # At |x| = sqrt(2r) the prox is {0, x}; the directional derivative is
    # min(x w / r, 0) by the envelope's smooth-plus-concave split.
    r = 0.5
    env = sd.moreau_envelope(sd.ZeroNormInner(), r, n=1)
    x = np.array([1.0])  # sqrt(2 * 0.5) = 1
    assert env.subderivative(x, np.array([1.0])) == ExtReal(0.0)
    assert env.subderivative(x, np.array([-1.0])) == ExtReal(-2.0)


def test_moreau_quadratic_inner():
    Q = np.array([[2.0, 0.0], [0.0, 0.5]])
    c = np.array([1.0, -1.0])
    env = sd.moreau_envelope(sd.QuadraticInner(Q, c), 1.0)
    x = np.array([0.7, -0.3])

    def explicit(xv):
        y = np.linalg.solve(Q + np.eye(2), xv - c)
        return 0.5 * float(np.dot(xv - y, xv - y)) + 0.5 * float(y @ Q @ y) + float(c @ y)

    assert env.value(x).v == pytest.approx(explicit(x), abs=1e-12)
    fd = sd.fd_subderivative(env, x, np.array([1.0, 2.0]))
    assert fd.estimate.v == pytest.approx(
        env.subderivative(x, np.array([1.0, 2.0])).v, abs=1e-6)


def test_moreau_quadratic_is_a_smooth_model_with_its_flags_and_kernel_bits():
    rng = np.random.default_rng(21)
    B = rng.normal(size=(3, 3))
    Q, c, r = B @ B.T, rng.normal(size=3), 0.25
    env = sd.moreau_envelope(sd.QuadraticInner(Q, c), r)
    assert isinstance(env, sd.oracles.SmoothModel)
    flags = {"semi_differentiable": True, "has_gradient": True,
             "subderivative_concave": True, "descent_constant": 1.0 / r,
             "lower_bound": None, "extended_valued": False, "is_separable": False}
    assert {k: getattr(env, k) for k in flags} == flags
    x, W = rng.normal(size=3), np.vstack([np.eye(3), rng.normal(size=(4, 3))])
    grad = (x - np.linalg.solve(Q + np.eye(3) / r, x / r - c)) / r
    assert env.gradient(x).tobytes() == grad.tobytes()
    assert env.subderivatives(x, W).tobytes() == np.vecdot(W, grad).tobytes()
    assert env.subderivative(x, W[4]).v == float(np.vecdot(W[4], grad))


def test_smooth_model_with_a_list_gradient_keeps_the_row_bits():
    rng = np.random.default_rng(22)
    g, x, W = rng.normal(size=4), rng.normal(size=4), rng.normal(size=(6, 4))
    as_list = sd.smooth_model(4, lambda x: 0.0, lambda x: g.tolist())
    as_array = sd.smooth_model(4, lambda x: 0.0, lambda x: g)
    want = np.vecdot(W, g).tobytes()
    assert as_list.subderivatives(x, W).tobytes() == want
    assert as_array.subderivatives(x, W).tobytes() == want
    assert as_list.gradient(x).tobytes() == g.tobytes()


def test_moreau_user_scalar_prox():
    # User-supplied prox for lam|y| must reproduce the bundled soft threshold.
    lam = 0.8

    def prox(t, r):
        s = lam * r
        return (np.sign(t) * max(abs(t) - s, 0.0),)

    env_user = sd.moreau_envelope(sd.UserScalarInner(lambda y: lam * abs(y), prox),
                                  0.5, n=2)
    env_ref = sd.moreau_envelope(sd.L1Inner(lam), 0.5, n=2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-3, 3, 2)
        w = rng.uniform(-1, 1, 2)
        assert env_user.value(x).v == pytest.approx(env_ref.value(x).v, abs=1e-12)
        assert env_user.subderivative(x, w).v == pytest.approx(
            env_ref.subderivative(x, w).v, abs=1e-12)


# SeparableMoreau against per-coordinate scalar formulas over the full prox
# set; n >= 16 so that numpy's pairwise summation is exercised.
_SEP_N = 24


def _soft_set(t, r, lam=0.8):
    return [math.copysign(max(abs(t) - lam * r, 0.0), t)]


def _hard_set(t, r):
    thresh = math.sqrt(2.0 * r)
    if abs(t) < thresh:
        return [0.0]
    return [t] if abs(t) > thresh else [0.0, t]


def _zero_norm_cost(y):
    return 0.0 if y == 0.0 else 1.0


def _three_point_cost(y):
    # Support {-1, 0, 1}; at t = 0 with r = 1 all three minimize.
    return 0.5 if y == 0.0 else (0.0 if abs(y) == 1.0 else math.inf)


def _three_point_set(t, r):
    vals = {y: (y - t) ** 2 / (2.0 * r) + _three_point_cost(y) for y in (-1.0, 0.0, 1.0)}
    best = min(vals.values())
    return [y for y, v in vals.items() if v == best]


def _messy(prox_set):
    # Every minimizer, largest first and each twice.
    return lambda t, r: sorted(prox_set(t, r), reverse=True) * 2


def _separable_points(r, rng):
    thresh = math.sqrt(2.0 * r)
    edge = np.array([thresh, -thresh, -0.0, 0.0, 0.5 * thresh, -2.0 * thresh])
    return [np.concatenate([edge, rng.uniform(-3.0, 3.0, _SEP_N - edge.size)]),
            np.concatenate([edge[::-1], np.zeros(_SEP_N - edge.size)])]


_SEPARABLE_INNERS = {
    # name: (inner, r, scalar prox set, scalar cost)
    "soft": (sd.L1Inner(0.8), 0.5, _soft_set, lambda y: 0.8 * abs(y)),
    "hard": (sd.ZeroNormInner(), 0.3, _hard_set, _zero_norm_cost),
    "user_hard": (sd.UserScalarInner(_zero_norm_cost, _messy(_hard_set)),
                  0.3, _hard_set, _zero_norm_cost),
    "user_three_point": (sd.UserScalarInner(_three_point_cost, _messy(_three_point_set)),
                         1.0, _three_point_set, _three_point_cost),
}


@pytest.mark.parametrize("name", _SEPARABLE_INNERS)
def test_separable_moreau_matches_scalar_formulas(name, rng):
    inner, r, prox_set, cost = _SEPARABLE_INNERS[name]
    env = sd.moreau_envelope(inner, r, n=_SEP_N)
    for x in _separable_points(r, rng):
        sets = [prox_set(t, r) for t in x.tolist()]
        grad, (up, down) = env.separable_parts(x)
        assert not np.any(grad)
        assert up.tobytes() == np.array([(t - max(S)) / r for t, S in zip(x, sets)]).tobytes()
        assert down.tobytes() == np.array([(min(S) - t) / r for t, S in zip(x, sets)]).tobytes()
        value = sum(min((t - y) ** 2 / (2.0 * r) + cost(y) for y in S)
                    for t, S in zip(x.tolist(), sets))
        assert env.value(x).v == pytest.approx(value, rel=1e-12, abs=0.0)
        ws = [rng.uniform(-1.0, 1.0, _SEP_N), np.sign(rng.normal(size=_SEP_N)),
              np.where(rng.uniform(size=_SEP_N) < 0.5, 0.0, rng.normal(size=_SEP_N))]
        for w in ws + [-w for w in ws]:
            d = sum(min((t - y) * wi / r for y in S)
                    for t, wi, S in zip(x.tolist(), w.tolist(), sets))
            assert env.subderivative(x, w).v == pytest.approx(d, rel=1e-12, abs=1e-300)
        if inner.unique_prox:
            assert env.gradient(x).tobytes() == np.array(
                [(t - S[0]) / r for t, S in zip(x, sets)]).tobytes()
        else:
            with pytest.raises(sd.NoGradient):
                env.gradient(x)


@pytest.mark.parametrize("prox_set, cost, r", [(_hard_set, _zero_norm_cost, 0.3),
                                               (_three_point_set, _three_point_cost, 1.0)],
                         ids=["hard", "three_point"])
def test_user_prox_needs_only_its_extreme_minimizers(prox_set, cost, r, rng):
    every = sd.moreau_envelope(sd.UserScalarInner(cost, _messy(prox_set)), r, n=_SEP_N)
    ends = sd.moreau_envelope(
        sd.UserScalarInner(cost, lambda t, r: (min(prox_set(t, r)), max(prox_set(t, r)))),
        r, n=_SEP_N)
    for x in _separable_points(r, rng):
        assert every.value(x) == ends.value(x)
        for a, b in zip(every.separable_parts(x)[1], ends.separable_parts(x)[1]):
            assert a.tobytes() == b.tobytes()
        for w in (rng.uniform(-1.0, 1.0, _SEP_N), np.ones(_SEP_N), -np.ones(_SEP_N)):
            assert every.subderivative(x, w) == ends.subderivative(x, w)


def _envelope_edge_points(r, lam):
    """0, -0.0, the least subnormal, +-1e300, and every float within 80 ulps
    of +-sqrt(2r) (the hard threshold) and +-lam r (the soft threshold)."""
    near = [v + np.arange(-80, 81) * np.spacing(v)
            for c in (math.sqrt(2.0 * r), lam * r) for v in (c, -c)]
    return np.concatenate([[0.0, -0.0, 5e-324, 1e300, -1e300]] + near)


@pytest.mark.parametrize("r", [0.5, 0.3, 0.1])
@pytest.mark.parametrize("inner", [sd.ZeroNormInner(), sd.L1Inner(0.8)],
                         ids=["hard", "soft"])
def test_envelope_kernels_match_the_two_candidate_default(inner, r):
    # thresh^2 / (2r) rounds to 1 at r = 0.5, above 1 at 0.3, below 1 at 0.1,
    # so each side of the tie at |t| = thresh is taken
    assert type(inner).envelope is not sd.ScalarProxInner.envelope
    t = _envelope_edge_points(r, 0.8)
    assert inner.envelope(t, r).tobytes() == sd.ScalarProxInner.envelope(inner, t, r).tobytes()


def test_hard_threshold_envelope_does_not_square_a_huge_entry():
    env = sd.ZeroNormInner().envelope(np.array([1e300, -1e300]), 0.5)
    assert env.tolist() == [1.0, 1.0]


def test_user_inner_envelope_runs_the_default_on_its_prox():
    calls = []

    def prox(t, r):
        calls.append(t)
        return _hard_set(t, r)

    user = sd.UserScalarInner(_zero_norm_cost, prox)
    assert sd.UserScalarInner.envelope is sd.ScalarProxInner.envelope
    t = _envelope_edge_points(0.3, 0.8)
    assert user.envelope(t, 0.3).tobytes() == sd.ZeroNormInner().envelope(t, 0.3).tobytes()
    assert calls == t.tolist()


# The parent kernels of the hard-threshold envelope, the l1 rows and the
# sup-norm search, written out: the rewritten kernels must keep their bits.
def _old_prox_range(t, r):
    thresh = math.sqrt(2.0 * r)
    a = np.abs(t)
    off = np.where(a > thresh, t, 0.0)
    at = a == thresh
    return np.where(at, np.minimum(t, 0.0), off), np.where(at, np.maximum(t, 0.0), off)


def _old_envelope(t, r):
    thresh = math.sqrt(2.0 * r)
    a = np.abs(t)
    s = np.minimum(a, thresh)
    one = a >= thresh if thresh * thresh / (2.0 * r) > 1.0 else a > thresh
    return np.where(one, 1.0, s * s / (2.0 * r))


def _old_l1_rows(c, x, W):
    return c * np.where(x > 0, W, np.where(x < 0, -W, np.abs(W))).sum(axis=1)


def _old_moreau_rows(up, down, W):
    return np.where(W > 0, up * W, -down * W).sum(axis=1)


def _old_linf_w(up, down, grad):
    at_minus = -grad + down
    at_plus = grad + up
    plus_wins = at_plus < at_minus
    best = np.where(plus_wins, at_plus, at_minus)
    return np.where(0.0 < best, 0.0, np.where(plus_wins, 1.0, -1.0))


def _kink_points(r, rng):
    """Points of 24 coordinates: +-sqrt(2r) and one float on either side,
    +-0.0, +-1e300 and uniform entries, with and without the threshold
    (the prox's tie branch) and with and without a zero."""
    thresh = math.sqrt(2.0 * r)
    edge = [v for c in (thresh, -thresh) for v in (c, np.nextafter(c, 0.0), np.nextafter(c, 2 * c))]
    tied = np.array(edge + [0.0, -0.0, 1e300, -1e300] + rng.uniform(-3.0, 3.0, 14).tolist())
    untied = np.where(np.abs(tied) == thresh, 0.5, tied)
    return [tied, untied, np.where(tied == 0.0, 0.25, tied), np.where(untied == 0.0, 0.25, untied)]


def _kink_rows(rng):
    W = np.vstack([rng.uniform(-1.0, 1.0, (4, 24)), np.sign(rng.normal(size=(2, 24))),
                   np.eye(24)[:2], -np.eye(24)[:2], np.zeros((1, 24))])
    W[:, ::5] = 0.0
    W[::2, ::7] = -0.0
    return W


@pytest.mark.parametrize("r", [0.5, 0.3, 0.1])
def test_rewritten_kernels_keep_their_bits(r, rng):
    # thresh^2 / (2r) rounds to 1 at r = 0.5, above 1 at 0.3, below 1 at 0.1
    inner, env, W = sd.ZeroNormInner(), sd.moreau_envelope(sd.ZeroNormInner(), r, n=24), _kink_rows(rng)
    for x in _kink_points(r, rng):
        saved = x.copy()
        for got, want in zip(inner.prox_range(x, r), _old_prox_range(x, r)):
            assert _same_bits(got, want)
        assert _same_bits(inner.envelope(x, r), _old_envelope(x, r))
        assert x.tobytes() == saved.tobytes()  # the envelope works in its own array
        lo, hi = _old_prox_range(x, r)
        up, down = (x - hi) / r, (lo - x) / r
        assert _same_bits(env._subderivatives(x, W), _old_moreau_rows(up, down, W))
        for m in (sd.L1Norm(24, 1.3), sd.NegL1Norm(24, 0.7)):
            assert _same_bits(m._subderivatives(x, W), _old_l1_rows(m._c, x, W))
        grad = rng.uniform(-2.0, 2.0, 24)
        grad[:4] = [0.0, -0.0, 0.0, -0.0]
        for parts in ((up, down), (np.where(up > 0, np.inf, up), np.where(down < 0, -np.inf, down))):
            res = sd.solve_linf_separable(parts, grad, np.zeros(24), model=sd.L1Norm(24))
            assert _same_bits(res.w, _old_linf_w(*parts, grad))
    # an int array, a float32 array and scalars keep the formula's dtype and bits
    thresh = math.sqrt(2.0 * r)
    for t in (np.array([-3, -1, 0, 1, 2, 5]), np.array([-1.0, 0.5, 2.0], dtype=np.float32),
              1, -2.0, thresh, np.float32(0.5)):
        got, want = inner.envelope(t, r), _old_envelope(t, r)
        assert got.dtype == want.dtype and _same_bits(got, want)


def test_minus_end_forms_the_bits_of_negated_grad_plus_down():
    # down - grad is IEEE-identical to -grad + down, signed zeros and
    # infinities included (the sup-norm search's -1 end)
    v = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, 1e300, -1e300, np.inf, -np.inf])
    down, grad = np.meshgrid(v, v[:7])
    assert (down - grad).tobytes() == (-grad + down).tobytes()


def test_quadratic_value_is_half_the_squared_distance():
    rng = np.random.default_rng(5)
    c = rng.normal(size=4000)
    f = sd.quadratic_model(c)
    for x in (rng.normal(size=4000), 1e3 * rng.normal(size=4000), c):
        assert f._value(x) == 0.5 * float(np.dot(x - c, x - c))


def test_moreau_rejects_unknown_inner():
    with pytest.raises(sd.ProxUnavailable):
        sd.moreau_envelope(object(), 0.5)


def test_moreau_envelope_descent_sampled():
    env = sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=2)
    rep = sd.descent_property_sample(env, 2.0, (np.full(2, -3.0), np.full(2, 3.0)),
                                     pairs=300, seed=7)
    assert rep.clean


def test_smooth_model_examples(quad2):
    assert quad2.subderivative(np.array([3.0, 4.0]), np.array([1.0, 0.0])) == ExtReal(3.0)
    assert quad2.subderivative(np.array([3.0, 4.0]), np.zeros(2)) == ExtReal(0.0)
    a = quad2.subderivative(np.array([3.0, 4.0]), np.array([1.0, 1.0])).v
    b = quad2.subderivative(np.array([3.0, 4.0]), np.array([2.0, 2.0])).v
    assert b == pytest.approx(2 * a)
    assert quad2.has_gradient and quad2.descent_constant == 1.0


def test_relu_loss_spec_examples():
    # One layer, activation on the output: f(W, b; x) = max{0, W x - b}.
    net = sd.relu_network_loss([1, 1], [(np.array([1.0]), np.array([0.0]))])
    theta = np.array([1.0, 0.0])
    assert net.value(theta) == ExtReal(1.0)
    got = net.subderivative(theta, np.array([1.0, 0.0]))
    assert got == ExtReal(2.0)
    fd = sd.fd_subderivative(net, theta, np.array([1.0, 0.0]))
    assert fd.estimate.v == pytest.approx(2.0, abs=1e-6)
    assert net.subderivative(theta, np.zeros(2)) == ExtReal(0.0)


def test_relu_loss_dead_unit():
    net = sd.relu_network_loss([1, 1], [(np.array([1.0]), np.array([1.0]))])
    theta = np.array([-1.0, 0.0])
    assert net.value(theta) == ExtReal(1.0)
    for dtheta in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.3, -0.7])):
        assert net.subderivative(theta, dtheta) == ExtReal(0.0)
        fd = sd.fd_subderivative(net, theta, dtheta)
        assert fd.estimate.v == pytest.approx(0.0, abs=1e-8)


def test_relu_loss_homogeneous_and_fd(rng):
    net = sd.relu_network_loss([1, 1, 1], [(np.array([0.7]), np.array([0.2])),
                                           (np.array([-0.4]), np.array([0.1]))])
    for _ in range(20):
        theta = rng.uniform(-1, 1, net.dim)
        d = rng.uniform(-1, 1, net.dim)
        a = net.subderivative(theta, d).v
        b = net.subderivative(theta, 2.5 * d).v
        assert b == pytest.approx(2.5 * a, abs=1e-10)
        fd = sd.fd_subderivative(net, theta, d)
        assert fd.estimate.v == pytest.approx(a, abs=1e-4)


def test_relu_loss_final_affine_variant():
    # Without the output activation the single layer is plain affine.
    net = sd.relu_network_loss([1, 1], [(np.array([1.0]), np.array([1.0]))],
                               final_relu=False)
    theta = np.array([-1.0, 0.0])
    assert net.value(theta) == ExtReal(4.0)  # ||-1 - 1||^2
    assert net.subderivative(theta, np.array([1.0, 0.0])) == ExtReal(-4.0)


def test_relu_loss_pack_and_dims():
    net = sd.relu_network_loss([2, 3, 1], [(np.zeros(2), np.zeros(1))])
    assert net.dim == (3 * 2 + 3) + (1 * 3 + 1)
    theta = net.pack([np.ones((3, 2)), np.ones((1, 3))], [np.zeros(3), np.zeros(1)])
    assert theta.shape == (net.dim,)
    with pytest.raises(sd.DimensionMismatch):
        net.pack([np.ones((3, 2))], [np.zeros(3)])


def _state_layers(widths, final_relu):
    """The network as maps of the joint state (theta, z), to be composed
    with ``precompose_semidiff``.

    theta rides along unchanged, so each layer is semi-differentiable in the
    joint variable; the packing (W^i row-major, then b^i) is re-derived here.
    """
    sizes = [(n_out, n_in) for n_in, n_out in zip(widths, widths[1:])]
    p = sum(n_out * n_in + n_out for n_out, n_in in sizes)
    layers, off = [], 0
    for i, (n_out, n_in) in enumerate(sizes):
        act = final_relu or i < len(sizes) - 1
        cut = (off, off + n_out * n_in, off + n_out * n_in + n_out)

        def unpack(theta, cut=cut, shape=(n_out, n_in)):
            return theta[cut[0]:cut[1]].reshape(shape), theta[cut[1]:cut[2]]

        def ev(s, unpack=unpack, act=act):
            W, b = unpack(s[:p])
            a = W @ s[p:] - b
            return np.concatenate([s[:p], np.maximum(a, 0.0) if act else a])

        def dr(s, ds, unpack=unpack, act=act):
            (W, b), (dW, db) = unpack(s[:p]), unpack(ds[:p])
            a = W @ s[p:] - b
            da = dW @ s[p:] + W @ ds[p:] - db
            return np.concatenate([ds[:p], relu_direction(a, da) if act else da])

        layers.append(sd.SemiDiffMap(p + n_in, p + n_out, ev, dr))
        off = cut[2]
    return layers, p


def _reference_loss(widths, final_relu, data, theta, dtheta):
    """Mean squared loss and its subderivative, one datum at a time."""
    layers, p = _state_layers(widths, final_relu)
    chain = layers[0]
    for layer in layers[1:]:
        chain = sd.precompose_semidiff(layer, chain)
    val = der = 0.0
    for x, y in data:
        s = chain.eval(np.concatenate([theta, x]))
        ds = chain.semiderivative(np.concatenate([theta, x]),
                                  np.concatenate([dtheta, np.zeros_like(x)]))
        r = s[p:] - y
        val += float(np.dot(r, r))
        der += 2.0 * float(np.dot(r, ds[p:]))
    return val / len(data), der / len(data)


@pytest.mark.parametrize("final_relu", [True, False])
@pytest.mark.parametrize("widths", [[2, 3, 3, 1], [2, 8, 1]])
def test_relu_loss_matches_per_datum_forward_chain(widths, final_relu):
    rng = np.random.default_rng([len(widths), widths[1], int(final_relu)])
    data = [(dyadic(rng, widths[0]), dyadic(rng, widths[-1])) for _ in range(6)]
    net = sd.relu_network_loss(widths, data, final_relu=final_relu)

    def check(theta, dtheta):
        val, der = _reference_loss(widths, final_relu, data, theta, dtheta)
        assert net.value(theta).v == pytest.approx(val, rel=1e-12, abs=0.0)
        assert net.subderivative(theta, dtheta).v == pytest.approx(der, rel=1e-12, abs=0.0)

    for _ in range(10):
        check(rng.normal(size=net.dim), rng.normal(size=net.dim))

    theta = tied_theta(net, rng)
    pre = net.preactivations(theta)
    assert len(pre) == len(data)
    for acts in pre:
        assert [a.shape for a in acts] == [(n,) for n in widths[1:]]
    assert all(a[0] == 0.0 for a in pre[0])
    bias_of_tie = np.zeros(net.dim)
    bias_of_tie[widths[0] * widths[1]] = 1.0
    kinked = False
    for d in [bias_of_tie] + [dyadic(rng, net.dim) for _ in range(5)]:
        check(theta, d)
        check(theta, -d)
        kinked |= net.subderivative(theta, d).v != -net.subderivative(theta, -d).v
    assert kinked  # the ties are reached: d f(theta) is not linear there


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _nested_relu_direction(a, da):
    return np.where(a > 0, da, np.where(a < 0, 0.0, np.maximum(da, 0.0)))


def test_relu_direction_matches_the_three_case_select_bit_for_bit():
    a_cases = np.array([1.0, -1.0, 0.0, -0.0])
    da_cases = np.array([1.5, -1.5, 0.0, -0.0])
    a, da = (g.ravel() for g in np.meshgrid(a_cases, da_cases))
    assert _same_bits(relu_direction(a, da), _nested_relu_direction(a, da))
    assert _same_bits(relu_direction(a, da), np.array(
        [1.5, 0.0, 1.5, 1.5, -1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0]))
    for ai in a_cases:  # one case at a time: without a zero, the tie select is skipped
        for dai in da_cases:
            assert _same_bits(relu_direction(np.array([ai]), np.array([dai])),
                              _nested_relu_direction(np.array([ai]), np.array([dai])))
    # a point against a stack of directions, as relu_map asks it
    assert _same_bits(relu_direction(a_cases, da[:, None] * np.ones(4)),
                      _nested_relu_direction(a_cases, da[:, None] * np.ones(4)))


def _three_select_subderivatives(net, theta, dtheta):
    """The forward pass with an explicit zero tangent for the data and the
    three-case activation select, one stack of tangents."""
    Z = net.X
    dZ = np.zeros((dtheta.shape[0],) + Z.shape)
    n_layers = len(net.widths) - 1
    for i in range(n_layers):
        act = net.final_relu or i < n_layers - 1
        (W, b), (dW, db) = net._unpack(theta, i), net._unpack(dtheta, i)
        A = W @ Z - b[..., None]
        dA = dW @ Z + W @ dZ - db[:, :, None]
        dZ = _nested_relu_direction(A, dA) if act else dA
        Z = np.maximum(A, 0.0) if act else A
    slopes = ((Z - net.Y) * dZ).reshape(dtheta.shape[0], -1)
    return 2.0 * slopes.sum(axis=1) / net.X.shape[1]


def _reverse_gradient(net, theta, absolute=False):
    """The gradient by the reverse pass, as ``ReLUNetworkLoss._backprop``
    forms it: G = 2 (out - Y) / m, then from the last layer dA = G [A > 0],
    dA Z^T, -sum dA and G = W^T dA. With ``absolute``, the same pass on |G|,
    |Z| and |W| gives each entry's sum of absolute terms, the scale of its
    rounding."""
    n_layers = len(net.widths) - 1
    Z, tape = net.X, []
    for i in range(n_layers):
        act = net.final_relu or i < n_layers - 1
        W, b = net._unpack(theta, i)
        A = W @ Z - b[:, None]
        tape.append((Z, W, A, act))
        Z = np.maximum(A, 0.0) if act else A
    G = (Z - net.Y) * (2.0 / net.X.shape[1])
    parts = []
    for Z, W, A, act in reversed(tape):
        if absolute:
            G, Z, W = np.abs(G), np.abs(Z), np.abs(W)
        dA = np.where(A > 0, G, 0.0) if act else G
        parts[:0] = [(dA @ Z.T).ravel(), -dA.sum(axis=1)]
        G = W.T @ dA
    grad = np.concatenate(parts)
    return np.abs(grad) if absolute else grad


def _within_ulps(got, want, scale):
    """Within 8 ulps of the sum of absolute terms (observed: at most 2.1)."""
    return np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * scale)


RELU_SHAPES = [([2, 8, 1], True), ([3, 5, 4, 2], False), ([1, 1, 1], True)]


def _relu_net(widths, final_relu, seed):
    rng = np.random.default_rng(seed)
    data = [(rng.normal(size=widths[0]), rng.normal(size=widths[-1])) for _ in range(16)]
    return sd.relu_network_loss(widths, data, final_relu=final_relu), rng


@pytest.mark.parametrize("widths, final_relu", RELU_SHAPES)
def test_relu_loss_rows_match_the_zero_tangent_pass_bit_for_bit(widths, final_relu):
    # At a tie and at theta = 0 the rows come from the forward tangent pass,
    # bit for bit. At an untied theta f is differentiable and the rows are
    # <grad, w> from the reverse pass: the same linear form, rounded in
    # another order, so they meet the forward pass within a few ulps.
    net, rng = _relu_net(widths, final_relu, [7, len(widths), widths[1]])
    eye = np.eye(net.dim)
    pool = np.vstack([np.zeros((1, net.dim)), eye, -eye,
                      rng.normal(size=(129 - 2 * net.dim, net.dim))])  # 130 rows
    tied = tied_theta(net, rng)
    assert any((A == 0).any() for _, _, A in net._pass(tied)[0])
    untied = rng.normal(size=net.dim)
    for theta in (untied, tied, np.zeros(net.dim)):
        grad = net._backprop(theta)
        assert (grad is None) == (theta is not untied)
        singles = [pool[:1], pool[1:2], pool[-1:]]  # the zero row, a vertex, a Gaussian row
        stacks = [pool[rng.choice(130, size=7, replace=False)], pool[rng.permutation(130)]]
        for W in singles + stacks:
            got, forward = net._subderivatives(theta, W), _three_select_subderivatives(net, theta, W)
            if grad is None:
                assert _same_bits(got, forward)
            else:
                assert _same_bits(got, np.vecdot(W, _reverse_gradient(net, theta)))
                scale = np.abs(W) @ _reverse_gradient(net, theta, absolute=True)
                assert _within_ulps(got, forward, scale)


@pytest.mark.parametrize("widths, final_relu", RELU_SHAPES)
def test_relu_reverse_gradient_matches_the_forward_tangents(widths, final_relu):
    net, rng = _relu_net(widths, final_relu, [11, len(widths), widths[1]])
    for _ in range(10):
        theta = rng.normal(size=net.dim)
        grad = net._backprop(theta)
        assert grad.tobytes() == _reverse_gradient(net, theta).tobytes()
        # the forward tangent along every unit vector is one partial derivative
        forward = _three_select_subderivatives(net, theta, np.eye(net.dim))
        assert _within_ulps(grad, forward, _reverse_gradient(net, theta, absolute=True))


@pytest.mark.parametrize("widths, final_relu", RELU_SHAPES)
def test_relu_tie_takes_the_forward_tangent_pass(widths, final_relu):
    rng = np.random.default_rng([13, len(widths)])
    data = [(dyadic(rng, widths[0]), dyadic(rng, widths[-1])) for _ in range(5)]
    net = sd.relu_network_loss(widths, data, final_relu=final_relu)
    theta = tied_theta(net, rng)
    assert net._backprop(theta) is None
    tie_bias = np.zeros(net.dim)
    tie_bias[widths[0] * widths[1]] = 1.0  # the first bias of layer 1, whose unit is tied
    D = np.vstack([tie_bias, dyadic(rng, (5, net.dim))])
    W = np.vstack([D, -D])
    got = net._subderivatives(theta, W)
    assert _same_bits(got, _three_select_subderivatives(net, theta, W))
    assert np.any(got[:6] != -got[6:])  # d f(theta) is not linear at the tie


def test_relu_zero_in_an_affine_last_layer_is_no_tie():
    # Without the output activation the last layer is affine, so a zero
    # output pre-activation is no kink: the reverse pass still answers.
    rng = np.random.default_rng(17)
    data = [(dyadic(rng, 2), dyadic(rng, 1)) for _ in range(4)]
    net = sd.relu_network_loss([2, 3, 1], data, final_relu=False)
    W1, b1, W2 = dyadic(rng, (3, 2)), dyadic(rng, 3), dyadic(rng, (1, 3))
    hidden = np.maximum(W1 @ net.X - b1[:, None], 0.0)
    theta = net.pack([W1, W2], [b1, W2 @ hidden[:, 0]])
    hidden_pre, out_pre = (A for _, _, A in net._pass(theta)[0])
    assert out_pre[0, 0] == 0.0 and np.count_nonzero(hidden_pre) == hidden_pre.size
    grad = net._backprop(theta)
    assert grad is not None
    W = np.vstack([np.eye(net.dim), rng.normal(size=(5, net.dim))])
    got = net._subderivatives(theta, W)
    assert _same_bits(got, np.vecdot(W, _reverse_gradient(net, theta)))
    scale = np.abs(W) @ _reverse_gradient(net, theta, absolute=True)
    assert _within_ulps(got, _three_select_subderivatives(net, theta, W), scale)
    assert _within_ulps(got[:net.dim], -_three_select_subderivatives(net, theta, -np.eye(net.dim)),
                        scale[:net.dim])


@pytest.mark.parametrize("widths, final_relu, scale, last_scale", [
    ([2, 8, 1], True, 1e200, 1.0), ([3, 5, 4, 2], False, 1.0, 1e306)])
def test_relu_overflow_answers_as_the_forward_tangent_pass(widths, final_relu, scale,
                                                           last_scale):
    # [2, 8, 1] at 1e200 scale: the output pre-activations overflow, one to
    # -inf, which its dead unit would hide from the gradient. [3, 5, 4, 2]
    # with its affine last layer at 1e306: only the products past the
    # output overflow, W^T dA in the reverse pass. Both passes raise under
    # this suite's filter; with warnings ignored, the forward pass's values
    # come back, bit for bit.
    net, rng = _relu_net(widths, final_relu, [19, len(widths)])
    theta = scale * rng.normal(size=net.dim)
    theta[net._offsets[-1][0]:] *= last_scale
    W = rng.normal(size=(5, net.dim))
    for rows in (net._subderivatives, lambda t, W: _three_select_subderivatives(net, t, W)):
        with pytest.raises(RuntimeWarning, match="overflow"):
            rows(theta, W)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert net._backprop(theta) is None
        assert (net._subderivatives(theta, W).tobytes()
                == _three_select_subderivatives(net, theta, W).tobytes())


def _fresh(net):
    """A new model on the same data, with no tape."""
    return sd.relu_network_loss(net.widths, list(zip(net.X.T, net.Y.T)), net.final_relu)


def _answers(net, theta, W):
    """The value, the rows and the one-row stacked value at theta, as bytes."""
    return (np.float64(net._value(theta)).tobytes(), net._subderivatives(theta, W).tobytes(),
            net._values(theta[None]).tobytes())


def _tape_net(widths, final_relu, seed):
    """A net on dyadic data, a tied and an untied theta, each with zeros,
    and rows for both routes."""
    rng = np.random.default_rng(seed)
    data = [(dyadic(rng, widths[0]), dyadic(rng, widths[-1])) for _ in range(5)]
    net = sd.relu_network_loss(widths, data, final_relu=final_relu)
    tied, untied = tied_theta(net, rng), rng.normal(size=net.dim)
    while not (tied == 0).any():
        tied = tied_theta(net, rng)
    untied[::3] = 0.0
    W = np.vstack([np.eye(net.dim)[:3], dyadic(rng, (4, net.dim)), rng.normal(size=(4, net.dim))])
    return net, tied, untied, W


@pytest.mark.parametrize("widths, final_relu", RELU_SHAPES)
def test_relu_tape_answers_as_a_fresh_model(widths, final_relu):
    # A model that keeps the last point's forward tape answers every query
    # with the bits of a new model, along a sequence that revisits points,
    # asks in every order and swaps 0.0 for -0.0 (another key, the same bits).
    net, tied, untied, W = _tape_net(widths, final_relu, [23, len(widths)])
    assert net._backprop(tied) is None and net._backprop(untied) is not None
    negs = [np.where(t == 0, -0.0, t) for t in (tied, untied)]
    want = {t.tobytes(): _answers(_fresh(net), t, W) for t in [tied, untied] + negs}
    assert want[tied.tobytes()] == want[negs[0].tobytes()]
    assert want[untied.tobytes()] == want[negs[1].tobytes()]
    for theta in (tied, untied, tied, negs[0], negs[1], untied, untied, negs[0], tied):
        v, rows, stacked = want[theta.tobytes()]
        assert net._subderivatives(theta, W).tobytes() == rows
        assert np.float64(net._value(theta)).tobytes() == v
        assert net._values(theta[None]).tobytes() == stacked
        assert _answers(net, theta, W) == want[theta.tobytes()]
    # at the tie the rows are still the forward tangent pass, bit for bit
    net._value(tied)
    assert _same_bits(net._subderivatives(tied, W), _three_select_subderivatives(net, tied, W))


def test_relu_tape_follows_a_theta_changed_in_place():
    # The tape keeps its own copy of theta and hands out no array a caller
    # could change: changing theta, or the pre-activations read off the
    # tape, in place changes no later answer at the old theta.
    net, _, theta, W = _tape_net([2, 8, 1], True, 31)
    want, saved = _answers(_fresh(net), theta, W), theta.copy()
    first = net.preactivations(theta)[0][0]
    first *= -1.0
    theta[net._offsets[-1][0]] += 0.25  # a weight the reverse pass reads
    theta[net._offsets[0][1]] -= 0.5  # a first-layer bias
    assert _answers(net, saved, W) == want
    with pytest.raises(ValueError, match="read-only"):
        net._backprop(saved)[0] = 1.0
    changed = _answers(net, theta, W)
    assert changed == _answers(_fresh(net), theta, W)
    assert changed[0] != want[0] and changed[1] != want[1]
    assert all(_same_bits(a, b) for got, fresh in zip(net.preactivations(saved),
                                                      _fresh(net).preactivations(saved))
               for a, b in zip(got, fresh))


@pytest.mark.parametrize("widths, final_relu, scale, last_scale, raises_at", [
    ([2, 8, 1], True, 1e200, 1.0, "forward"), ([3, 5, 4, 2], False, 1.0, 1e306, "reverse")])
def test_relu_overflow_leaves_nothing_on_the_tape(widths, final_relu, scale, last_scale,
                                                  raises_at):
    # Under this suite's error filter an overflow raises: in the forward
    # pass no tape is kept, in the loss or the reverse pass that entry is
    # left unasked, so asking again raises again.
    net, rng = _relu_net(widths, final_relu, [19, len(widths)])
    theta = scale * rng.normal(size=net.dim)
    theta[net._offsets[-1][0]:] *= last_scale
    W = rng.normal(size=(5, net.dim))
    for _ in range(2):
        for ask in (lambda: net._value(theta), lambda: net._subderivatives(theta, W)):
            with pytest.raises(RuntimeWarning, match="overflow"):
                ask()
            assert (net._last is None) == (raises_at == "forward")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _answers(net, theta, W) == _answers(_fresh(net), theta, W)


@pytest.mark.parametrize("widths, final_relu", RELU_SHAPES)
def test_relu_tangent_chunks_keep_every_row_bit_for_bit(widths, final_relu):
    # The tangent route splits its rows under a fixed element cap; at caps
    # of 1 row (below one row's footprint too) and 3 rows per chunk, every
    # row count on both sides of a boundary gives the unchunked bits.
    net, tied, _, W = _tape_net(widths, final_relu, [37, len(widths)])
    W = np.vstack([W, -W])  # 22 rows
    whole = _fresh(net)._subderivatives(tied, W)
    assert _same_bits(whole, _three_select_subderivatives(net, tied, W))
    footprint = max(widths[1:]) * net.X.shape[1]
    for cap in (1, footprint, 3 * footprint, 3 * footprint + footprint - 1):
        net._TANGENT_ELEMENTS = cap
        for k in (1, 2, 3, 4, 5, 6, 7, 22):
            assert _same_bits(net._subderivatives(tied, W[:k]), whole[:k]), (cap, k)
        assert _same_bits(net._subderivatives(tied, W[:0]), whole[:0])


def test_relu_tape_shared_by_threads_answers_each_its_own_point():
    # Threads asking one model about different points replace its tape under
    # each other; every answer must still be its own point's.
    net, tied, untied, W = _tape_net([2, 8, 1], True, 41)
    rng = np.random.default_rng(43)
    points = [tied, untied] + [rng.normal(size=net.dim) for _ in range(4)]
    want = [_answers(_fresh(net), t, W) for t in points]
    wrong, done = [], []

    def ask(j):
        for r in range(300):
            i = (j + r) % len(points)
            if _answers(net, points[i], W) != want[i]:
                wrong.append(i)
        done.append(j)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(j,)) for j in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3] and wrong == []


def _env_answers(env, x, W):
    """The parts, the rows, the vertex values and the value at x, as bytes."""
    grad, (up, down) = env.separable_parts(x)
    return (grad.tobytes(), up.tobytes(), down.tobytes(), env.subderivatives(x, W).tobytes(),
            env._vertex_values(x).tobytes(), np.float64(env.value(x).v).tobytes())


def _env_points(r, seed):
    """A point with coordinates on +-sqrt(2r) and zeros, one off the
    threshold, and each with its zeros made -0.0."""
    rng = np.random.default_rng(seed)
    tied, untied = _kink_points(r, rng)[:2]
    return [tied, untied] + [np.where(t == 0, -0.0, t) for t in (tied, untied)], _kink_rows(rng)


@pytest.mark.parametrize("inner, r", [(sd.ZeroNormInner(), 0.3), (sd.L1Inner(0.8), 0.5)],
                         ids=["hard", "soft"])
def test_envelope_parts_answer_as_a_fresh_model(inner, r):
    # The envelope keeps the parts of its last point; along a sequence that
    # revisits points and swaps 0.0 for -0.0 (another key, other signed
    # zeros in the parts) every answer has the bits of a new model.
    points, W = _env_points(r, 51)
    fresh = lambda: sd.moreau_envelope(inner, r, n=24)
    want = {x.tobytes(): _env_answers(fresh(), x, W) for x in points}
    assert want[points[0].tobytes()] != want[points[1].tobytes()]
    env = fresh()
    for i in (0, 1, 0, 2, 3, 1, 1, 2, 0, 3):
        x = points[i]
        assert env.subderivatives(x, W).tobytes() == want[x.tobytes()][3]
        assert env._vertex_values(x).tobytes() == want[x.tobytes()][4]
        assert _env_answers(env, x, W) == want[x.tobytes()]


def test_envelope_parts_follow_a_point_changed_in_place():
    # The parts are keyed by the point's bytes and handed out read-only, so
    # changing x in place gives the new point's parts, and no caller can
    # change the kept ones.
    (x, _, _, _), W = _env_points(0.3, 53)
    env = sd.moreau_envelope(sd.ZeroNormInner(), 0.3, n=24)
    want, saved = _env_answers(env, x, W), x.copy()
    _, (up, down) = env.separable_parts(x)
    for part in (up, down, env._separable_parts(x)[1][0]):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 1.0
    x[0], x[6] = 0.5, 0.25  # off the threshold, off zero
    changed = _env_answers(env, x, W)
    assert changed == _env_answers(sd.moreau_envelope(sd.ZeroNormInner(), 0.3, n=24), x, W)
    assert changed[1] != want[1] and changed[3] != want[3]
    assert _env_answers(env, saved, W) == want


class _CountingHardInner(sd.ZeroNormInner):
    def __init__(self):
        self.calls = 0

    def prox_range(self, t, r):
        self.calls += 1
        return super().prox_range(t, r)


def test_one_prox_per_sup_norm_search():
    # separable_parts and the search's read-back share one prox_range; the
    # value, the line search's query, asks none
    inner = _CountingHardInner()
    env = sd.moreau_envelope(inner, 0.3, n=24)
    cfg = sd.SolverConfig(norm=sd.NormChoice.LINF, strategy="linf-sep")
    points, _ = _env_points(0.3, 55)
    for k, x in enumerate(points + points, start=1):
        res = sd.solver.search_direction(env, x, cfg)
        assert inner.calls == k
        env.value(x + 0.5 * res.w)
        assert inner.calls == k
    assert sd.sum_models([env, sd.quadratic_model(np.zeros(24))]).separable_parts(x) is not None
    assert inner.calls == len(points) * 2


def test_envelope_parts_shared_by_threads_answer_each_its_own_point():
    # Threads asking one envelope about different points replace its parts
    # under each other; every answer must still be its own point's.
    points, W = _env_points(0.3, 57)
    env = sd.moreau_envelope(sd.ZeroNormInner(), 0.3, n=24)
    want = [_env_answers(sd.moreau_envelope(sd.ZeroNormInner(), 0.3, n=24), x, W)
            for x in points]
    wrong, done = [], []

    def ask(j):
        for r in range(300):
            i = (j + r) % len(points)
            if _env_answers(env, points[i], W) != want[i]:
                wrong.append(i)
        done.append(j)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(j,)) for j in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3] and wrong == []


def test_linear_model():
    m = sd.linear_model(np.array([1.0, 0.0]))
    res = sd.solve_l2_smooth(m, np.zeros(2))
    assert res.w == pytest.approx(np.array([-1.0, 0.0]))
    assert res.value == ExtReal(-1.0)
