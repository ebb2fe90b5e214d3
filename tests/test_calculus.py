"""Combinator semantics: sum/scale/chain rules, forward pass, extremum rules."""

import math
import sys

import numpy as np
import pytest

import subderiv as sd
from subderiv.extreal import ExtReal, ulp_tied

from conftest import quotient


def test_sum_quadratic_minus_l1_example():
    # <x, w> = 0 and d(-||.||_1)(x)(w) = -|w_2| at x = (2, 0), w = (0, 1).
    m = sd.sum_models([sd.quadratic_model(np.zeros(2)), sd.NegL1Norm(2)])
    got = m.subderivative(np.array([2.0, 0.0]), np.array([0.0, 1.0]))
    assert got == ExtReal(-1.0)


def test_sum_single_model_is_identity(l1, rng):
    s = sd.sum_models([l1])
    for _ in range(10):
        x = rng.uniform(-2, 2, 3)
        w = rng.uniform(-1, 1, 3)
        assert s.value(x) == l1.value(x)
        assert s.subderivative(x, w) == l1.subderivative(x, w)


def test_one_member_sum_has_the_member_gradient(rng):
    q = sd.quadratic_model(np.array([1.0, -2.0, 0.5]))
    for _ in range(5):
        x = rng.uniform(-2, 2, 3)
        assert sd.sum_models([q]).gradient(x).tobytes() == q.gradient(x).tobytes()


def test_sum_l1_l1_matches_difference_quotient():
    # Oracle: the quotient of 2|x| at x=1, w=1 is exactly 2 for small t.
    m = sd.sum_models([sd.L1Norm(1), sd.L1Norm(1)])
    x, w = np.array([1.0]), np.array([1.0])
    oracle = quotient(lambda z: 2 * abs(z[0]), x, w, 1e-6)
    assert m.subderivative(x, w).v == pytest.approx(oracle, abs=1e-9)
    assert m.subderivative(x, w) == ExtReal(2.0)


def test_sum_additivity_exact(rng):
    # Same floating-point expression order: left-to-right member accumulation.
    members = [sd.quadratic_model(np.array([1.0, 2.0])), sd.NegL1Norm(2), sd.L1Norm(2, 0.5)]
    s = sd.sum_models(members)
    for _ in range(25):
        x = rng.uniform(-2, 2, 2)
        w = rng.uniform(-1, 1, 2)
        acc = members[0].subderivative(x, w)
        for m in members[1:]:
            acc = sd.ext_add(acc, m.subderivative(x, w))
        assert s.subderivative(x, w) == acc


def test_sum_flag_propagation():
    q = sd.quadratic_model(np.zeros(2))
    n = sd.NegL1Norm(2)
    s = sd.sum_models([q, n])
    assert s.semi_differentiable
    assert s.descent_constant == pytest.approx(1.0)  # 1 + 0
    assert s.subderivative_concave
    assert s.is_separable and not s.has_gradient
    assert sd.sum_models([q, sd.L1Norm(2)]).descent_constant is None


def test_sum_dimension_mismatch():
    with pytest.raises(sd.DimensionMismatch):
        sd.sum_models([sd.L1Norm(2), sd.L1Norm(3)])
    with pytest.raises(sd.EmptyList):
        sd.sum_models([])


class _PlusInf(sd.FunctionModel):
    extended_valued = True

    @property
    def dim(self):
        return 1

    def value(self, x):
        return sd.POS_INF

    def subderivative(self, x, w):
        return sd.POS_INF


class _MinusInf(_PlusInf):
    def value(self, x):
        return sd.NEG_INF

    def subderivative(self, x, w):
        return sd.NEG_INF


def test_sum_indeterminate_clash():
    s = sd.sum_models([_PlusInf(), _MinusInf()])
    with pytest.raises(sd.IndeterminateSum):
        s.value(np.zeros(1))
    with pytest.raises(sd.IndeterminateSum):
        s.subderivative(np.zeros(1), np.ones(1))


def test_scale_l1_example():
    m = sd.scale(sd.L1Norm(3), 2.0)
    got = m.subderivative(np.array([1.0, -1.0, 0.0]), np.array([2.0, 1.0, -3.0]))
    assert got == ExtReal(8.0)


def test_scale_identity_and_infinities(rng):
    base = sd.L1Norm(2)
    one = sd.scale(base, 1.0)
    x, w = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    assert one.value(x) == base.value(x)
    zn = sd.scale(sd.ZeroNormComposite(np.eye(2), np.zeros(2)), 3.0)
    assert zn.subderivative(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == sd.POS_INF


def test_scale_rejects_nonpositive():
    with pytest.raises(sd.NonpositiveScale):
        sd.scale(sd.L1Norm(2), 0.0)
    with pytest.raises(sd.NonpositiveScale):
        sd.scale(sd.L1Norm(2), -1.0)


def test_scale_descent_constant():
    m = sd.scale(sd.quadratic_model(np.zeros(2)), 3.0)
    assert m.descent_constant == pytest.approx(3.0)


_FLAGS = ("semi_differentiable", "extended_valued", "subderivative_concave",
          "has_gradient", "is_separable")


@pytest.mark.parametrize("name", ["smooth", "l1", "min"])
def test_scale_is_the_one_member_sum(name):
    lam, n = 3.0, 4
    f = {"smooth": sd.smooth_model(n, lambda x: float(np.dot(x, x)) - 1.0, lambda x: 2.0 * x,
                                   smoothness_constant=2.0, lower_bound=-1.0),
         "l1": sd.L1Norm(n, 0.75),
         "min": sd.pointwise_min([sd.quadratic_model(np.zeros(n)),
                                  sd.linear_model(np.arange(n) - 1.5)])}[name]
    scaled, single = sd.scale(f, lam), sd.sum_models([f])
    assert type(scaled) is type(single)
    assert [getattr(scaled, a) for a in _FLAGS] == [getattr(single, a) for a in _FLAGS]
    for a in ("descent_constant", "lower_bound"):
        want = getattr(single, a)
        assert getattr(scaled, a) == (None if want is None else lam * want)
    rng = np.random.default_rng(7)
    W = rng.uniform(-1.0, 1.0, (5, n))
    for x in (np.zeros(n), np.array([0.0, -0.0, 1.0, -2.0]), rng.uniform(-2.0, 2.0, n)):
        queries = [lambda m: m._value(x), lambda m: m._values(np.stack([x, x + 1.0, -x])),
                   lambda m: m._subderivatives(x, W), lambda m: m._vertex_values(x)]
        if f.has_gradient:
            queries.append(lambda m: m.gradient(x))
        for q in queries:
            assert np.asarray(q(scaled)).tobytes() == np.asarray(lam * q(f)).tobytes()
        if not f.has_gradient:
            with pytest.raises(sd.NoGradient):
                scaled.gradient(x)


def _square_map():
    # F(x) = (x_1^2, x_2), smooth with dF(x)w = (2 x_1 w_1, w_2).
    return sd.SmoothMap(2, 2,
                        lambda x: np.array([x[0] ** 2, x[1]]),
                        lambda x, w: np.array([2 * x[0] * w[0], w[1]]))


def test_precompose_smooth_example():
    comp = sd.precompose_smooth(sd.L1Norm(2), _square_map())
    got = comp.subderivative(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert got == ExtReal(2.0)
    # FD oracle on the composite value function agrees.
    fd = sd.fd_subderivative(comp, np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert fd.estimate.v == pytest.approx(2.0, abs=1e-6)


def test_precompose_smooth_identity(l1, rng):
    comp = sd.precompose_smooth(l1, sd.identity_map(3))
    for _ in range(10):
        x, w = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert comp.subderivative(x, w) == l1.subderivative(x, w)


def test_precompose_smooth_zero_norm_branch():
    # g = ||.||_0, F(x) = (x_1, 0): S(dF w) = S((0,0)) is empty, so d = 0.
    g = sd.ZeroNormComposite(np.eye(2), np.zeros(2))
    F = sd.SmoothMap(2, 2, lambda x: np.array([x[0], 0.0]),
                     lambda x, w: np.array([w[0], 0.0]))
    comp = sd.precompose_smooth(g, F)
    got = comp.subderivative(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    assert got == ExtReal(0.0)


def test_precompose_smooth_descent_constant():
    F = sd.SmoothMap(2, 2, lambda x: x, lambda x, w: w, smoothness_constant=2.0)
    comp = sd.precompose_smooth(sd.NegL1Norm(2), F, concave_modulus=3.0)
    assert comp.descent_constant == pytest.approx(6.0)
    assert sd.precompose_smooth(sd.NegL1Norm(2), F).descent_constant is None


def test_precompose_dimension_mismatch():
    with pytest.raises(sd.DimensionMismatch):
        sd.precompose_smooth(sd.L1Norm(3), _square_map())


def test_precompose_smooth_refuses_a_map_that_is_not_smooth():
    # relu(A x) passed the concavity of the linear outer through, so auto
    # took l1-ext and certified 0 as stationary, yet f(1e-3, 1e-3) = -0.001:
    # d f(0)(w) = sum max((A w)_j, 0) - 0.5 (w1 + w2) is convex, not concave
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    F = sd.precompose_semidiff(sd.relu_map(2), sd.affine_map(A))
    with pytest.raises(TypeError, match="F must be a SmoothMap, got SemiDiffMap"):
        sd.precompose_smooth(sd.linear_model([1.0, 1.0]), F)
    f = sd.sum_models([sd.precompose_semidiff(sd.linear_model([1.0, 1.0]), F),
                       sd.linear_model([-0.5, -0.5])])
    assert not f.subderivative_concave
    assert f.subderivative(np.zeros(2), [0.5, 0.5]) == ExtReal(-0.5)
    tr = sd.run(f, np.zeros(2), sd.SolverConfig(norm=sd.NormChoice.L1, max_iter=1))
    assert tr.status is sd.TerminalStatus.MAX_ITER and tr.records[0].dir_value < 0


def test_precompose_semidiff_checks_the_inner_map_outputs():
    # F claims dim_out 2 but returns one entry; the composite map used to
    # pass it on and return shape (1,)
    short = sd.SemiDiffMap(2, 2, lambda x: x[:1], lambda x, w: w[:1])
    comp = sd.precompose_semidiff(sd.relu_map(2), short)
    assert comp.dim_out == 2
    x = np.array([1.0, -1.0])
    for query in (lambda: comp.eval(x), lambda: comp.semiderivative(x, x),
                  lambda: comp.semiderivative_rows(x, x[None])):
        with pytest.raises(sd.DimensionMismatch):
            query()


def test_precompose_semidiff_relu_affine():
    # G = ReLU, F = x - 1 on the line; at x = 1 the pre-activation is 0 and
    # the direction -2 gives max{0, -2} = 0.
    shifted = sd.affine_map(np.eye(1), np.array([-1.0]))
    comp = sd.precompose_semidiff(sd.relu_map(1), shifted)
    out = comp.semiderivative(np.array([1.0]), np.array([-2.0]))
    assert out == pytest.approx(np.array([0.0]))
    assert comp.eval(np.array([1.0])) == pytest.approx(np.array([0.0]))


def test_precompose_semidiff_model_abs_square():
    # g = |.| (as l1 on the line), F(x) = x^2: at 0 the chain gives 0.
    F = sd.SemiDiffMap(1, 1, lambda x: np.array([x[0] ** 2]),
                       lambda x, w: np.array([2 * x[0] * w[0]]))
    comp = sd.precompose_semidiff(sd.L1Norm(1), F)
    assert comp.subderivative(np.array([0.0]), np.array([3.0])) == ExtReal(0.0)
    fd = sd.fd_subderivative(comp, np.array([0.0]), np.array([3.0]))
    assert fd.estimate.v == pytest.approx(0.0, abs=1e-7)


def test_precompose_semidiff_identity(rng):
    comp = sd.precompose_semidiff(sd.relu_map(2), sd.identity_map(2))
    for _ in range(10):
        x, w = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        base = sd.relu_map(2)
        assert comp.eval(x) == pytest.approx(base.eval(x))
        assert comp.semiderivative(x, w) == pytest.approx(base.semiderivative(x, w))


def test_precompose_semidiff_needs_semidifferentiable_outer():
    zn = sd.ZeroNormComposite(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        sd.precompose_semidiff(zn, sd.identity_map(2))


def _forward_chain(layers):
    """The layers composed first to last, folded with precompose_semidiff."""
    chain = layers[0]
    for layer in layers[1:]:
        chain = sd.precompose_semidiff(layer, chain)
    return chain


def test_forward_chain_affine_relu():
    chain = _forward_chain([sd.affine_map(2.0 * np.eye(1)), sd.relu_map(1)])
    assert chain.eval(np.array([1.0])) == pytest.approx(np.array([2.0]))
    assert chain.semiderivative(np.array([1.0]), np.array([1.0])) == pytest.approx(
        np.array([2.0]))


def test_forward_chain_dead_relu():
    chain = _forward_chain([sd.affine_map(-1.0 * np.eye(1)), sd.relu_map(1)])
    assert chain.eval(np.array([0.0])) == pytest.approx(np.array([0.0]))
    # max{0, -1} = 0
    assert chain.semiderivative(np.array([0.0]), np.array([1.0])) == pytest.approx(
        np.array([0.0]))


def test_forward_chain_homogeneous_in_direction(rng):
    chain = _forward_chain([sd.affine_map(rng.uniform(-1, 1, (3, 2))), sd.relu_map(3),
                            sd.affine_map(rng.uniform(-1, 1, (2, 3)))])
    x = rng.uniform(-1, 1, 2)
    w = rng.uniform(-1, 1, 2)
    for t in (0.5, 2.0, 7.0):
        u1 = chain.semiderivative(x, t * w)
        u2 = chain.semiderivative(x, w)
        assert u1 == pytest.approx(t * u2, abs=1e-12)


def test_forward_chain_dimension_mismatch():
    with pytest.raises(sd.DimensionMismatch):
        _forward_chain([sd.affine_map(np.ones((2, 3))), sd.relu_map(3)])


def test_pointwise_max_relu_example():
    zero = sd.smooth_model(1, lambda x: 0.0, lambda x: np.zeros(1))
    ident = sd.smooth_model(1, lambda x: float(x[0]), lambda x: np.ones(1))
    m = sd.pointwise_max([zero, ident])
    # At 0 both branches are active; max{0, -1} = 0.
    assert m.subderivative(np.array([0.0]), np.array([-1.0])) == ExtReal(0.0)


def test_pointwise_min_active_set():
    ident = sd.smooth_model(1, lambda x: float(x[0]), lambda x: np.ones(1))
    double = sd.smooth_model(1, lambda x: 2 * float(x[0]), lambda x: 2 * np.ones(1))
    m = sd.pointwise_min([ident, double])
    # At x = 1 only the first branch is active.
    assert m.subderivative(np.array([1.0]), np.array([1.0])) == ExtReal(1.0)
    fd = sd.fd_subderivative(m, np.array([1.0]), np.array([1.0]))
    assert fd.estimate.v == pytest.approx(1.0, abs=1e-9)


def test_pointwise_single_member_identity(rng):
    ident = sd.smooth_model(2, lambda x: float(x[0] + x[1]), lambda x: np.ones(2))
    m = sd.pointwise_min([ident])
    x, w = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    assert m.value(x) == ident.value(x)
    assert m.subderivative(x, w) == ident.subderivative(x, w)


def test_pointwise_max_neg_equals_neg_min(rng):
    # max_i(-f_i) = -min_i(f_i) pointwise, values and subderivatives.
    fs = [
        (lambda x: float(x[0] ** 2 + x[1]), lambda x: np.array([2 * x[0], 1.0])),
        (lambda x: float(np.sin(x[0])), lambda x: np.array([np.cos(x[0]), 0.0])),
        (lambda x: float(x[1] - x[0]), lambda x: np.array([-1.0, 1.0])),
    ]
    pos = [sd.smooth_model(2, f, g) for f, g in fs]
    neg = [sd.smooth_model(2, lambda x, f=f: -f(x), lambda x, g=g: -g(x))
           for f, g in fs]
    mx = sd.pointwise_max(neg)
    mn = sd.pointwise_min(pos)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        w = rng.uniform(-1, 1, 2)
        assert mx.value(x).v == pytest.approx(-mn.value(x).v, abs=1e-14)
        assert mx.subderivative(x, w).v == pytest.approx(
            -mn.subderivative(x, w).v, abs=1e-14)


def test_pointwise_max_ties_scale_with_the_branch_values():
    # Equal up to rounding at magnitude 1e5; an absolute 1e-12 tolerance
    # dropped the second branch and reported d f(0)(-1) = -1 at the minimizer.
    f = sd.pointwise_max([
        sd.smooth_model(1, lambda x: 1e5 * (0.1 + 0.2) + float(x[0]), lambda x: np.ones(1)),
        sd.smooth_model(1, lambda x: 1e5 * 0.3 - float(x[0]), lambda x: -np.ones(1)),
    ])
    x = np.zeros(1)
    assert f.subderivative(x, np.array([-1.0])) == ExtReal(1.0)
    assert f.subderivative(x, np.array([1.0])) == ExtReal(1.0)
    assert f.subderivatives(x, np.array([[-1.0], [1.0]])).tolist() == [1.0, 1.0]


def test_pointwise_distant_branch_does_not_widen_the_tie():
    # f = min(x^2, 1e-8 - x, 1e8) equals x^2 near 0, a local minimizer; the
    # 1e8 branch must not make the 1e-8 branch count as tied.
    f = sd.pointwise_min([
        sd.smooth_model(1, lambda x: float(x[0] ** 2), lambda x: 2.0 * x),
        sd.smooth_model(1, lambda x: 1e-8 - float(x[0]), lambda x: -np.ones(1)),
        sd.smooth_model(1, lambda x: 1e8, lambda x: np.zeros(1)),
    ])
    for w in (1.0, -1.0):
        assert f.subderivative(np.zeros(1), np.array([w])) == ExtReal(0.0)


def _affine_branches(rows, offsets, lam, c):
    """lam * (<a, x> + b) + c for each row a and offset b."""
    return [sd.smooth_model(len(a), lambda x, a=a, b=b: lam * (float(np.dot(a, x)) + b) + c,
                            lambda x, a=a: lam * a)
            for a, b in zip(np.asarray(rows, dtype=float), offsets)]


@pytest.mark.parametrize("lam, c", [(1.0, 0.0), (1e5, 0.0), (1e-4, 0.0), (3.0, 7.5),
                                    (1e5, -2.5e3), (0.5, 1e4)])
@pytest.mark.parametrize("take_max", [True, False])
def test_pointwise_verdicts_invariant_under_affine_rescaling(lam, c, take_max):
    # Two branches tie at x = 0 up to one ulp of 0.3, a third is clearly
    # inactive; lam f + c must keep the same active set, signs and directions.
    rows = [[1.0, 0.5], [-1.0, 0.25], [0.0, 3.0]]
    offsets = [0.1 + 0.2, 0.3, 0.2 if take_max else 0.4]
    combine = sd.pointwise_max if take_max else sd.pointwise_min
    base = combine(_affine_branches(rows, offsets, 1.0, 0.0))
    f = combine(_affine_branches(rows, offsets, lam, c))
    x = np.zeros(2)
    assert len(f._active(x)) == len(base._active(x)) == 2
    ws = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, -3.0]])
    for w in ws:
        d0, d = base.subderivative(x, w).v, f.subderivative(x, w).v
        assert np.sign(d) == np.sign(d0)
        assert d == pytest.approx(lam * d0, rel=1e-12)
    for search in (sd.solve_l1_extreme,
                   lambda g, x: sd.solve_sampling_fallback(g, x, sd.NormChoice.L2, 32, 1)):
        r0, r = search(base, x), search(f, x)
        assert np.array_equal(r.w, r0.w)
        assert np.sign(r.value.v) == np.sign(r0.value.v)


def test_pointwise_rejects_empty_and_nonsemidiff():
    with pytest.raises(sd.EmptyList):
        sd.pointwise_max([])
    zn = sd.ZeroNormComposite(np.eye(1), np.zeros(1))
    with pytest.raises(ValueError):
        sd.pointwise_min([zn])


class _Answers(sd.RowSubderivatives):
    """A member that answers v to every query; the extremum only compares
    its members' answers, so v stands for a value and a subderivative."""

    semi_differentiable = True

    def __init__(self, v):
        self.v = v

    @property
    def dim(self):
        return 2

    def _value(self, x):
        return self.v

    def _subderivatives(self, x, W):
        return np.full(W.shape[0], self.v)


def _near(v, steps):
    for _ in range(steps):
        v = float(np.nextafter(v, math.inf))
    return v


_BIG = sys.float_info.max
_LOOP_CASES = (
    [[1.5, 1.5, 2.0], [2.0, 1.5, 1.5], [-3.0, -3.0, -3.0]]            # exact ties
    + [[-0.0, 0.0], [0.0, -0.0], [0.0, -0.0, 0.0, -0.0], [-0.0, 1.0, 0.0, -1.0]]
    + [[1.5, _near(1.5, k), 0.25] for k in range(1, 17)]              # 1-16 ulps apart
    + [[_near(-1e-300, k), -1e-300] for k in (1, 8, 9, 16)]
    + [[_BIG, _near(_BIG / 2, k), _BIG / 2] for k in (0, 1, 8, 9)]     # the filled rule
    + [[-_BIG, float(np.nextafter(-_BIG, 0.0)), -_BIG / 2, _BIG / 2],
       [math.inf, _BIG, -_BIG], [-math.inf, -_BIG, math.inf], [_BIG / 2, -_BIG / 2]]
)


@pytest.mark.parametrize("take_max", [False, True])
@pytest.mark.parametrize("vals", _LOOP_CASES)
def test_member_loop_keeps_the_builtin_extremum_and_the_scalar_tie_rule(vals, take_max):
    # Members outside one stack are valued in a loop; value, active set and
    # both reductions must be what the builtin max/min and ``ulp_tied`` give.
    f = (sd.pointwise_max if take_max else sd.pointwise_min)([_Answers(v) for v in vals])
    assert f._stacked is None
    best = max(vals) if take_max else min(vals)
    tied = [i for i, v in enumerate(vals) if ulp_tied(v, best)]
    x, X, W = np.zeros(2), np.zeros((3, 2)), np.eye(2)
    assert np.float64(f._value(x)).tobytes() == np.float64(best).tobytes()
    assert [i for i, m in enumerate(f.models) if any(m is a for a in f._active(x))] == tied
    assert f.values(X).tobytes() == np.full(3, best).tobytes()
    if tied:
        pick = max if take_max else min
        want = pick(vals[i] for i in tied)
        assert f.subderivatives(x, W).tobytes() == np.full(2, want).tobytes()


def test_member_loop_cases_straddle_the_tie_rule_and_reach_the_filled_rule():
    # at least one case per side of the 8-ulp rule, and magnitudes at or
    # above half the largest float, where ``ulp_tied_arrays`` fills in ulps
    ties = {k: ulp_tied(1.5, _near(1.5, k)) for k in range(1, 17)}
    assert all(ties[k] for k in range(1, 9)) and not any(ties[k] for k in range(9, 17))
    assert sum(max(map(abs, vals)) >= _BIG / 2 for vals in _LOOP_CASES) >= 8


class _HalfPlaneRamp(sd.RowSubderivatives):
    """x[0] on the half-plane x[0] >= 0 and +inf off it; its kernel refuses
    a point where the value is +inf, as the oracle contract allows."""

    semi_differentiable = True
    extended_valued = True

    @property
    def dim(self):
        return 2

    def _value(self, x):
        return float(x[0]) if x[0] >= 0 else math.inf

    def _subderivatives(self, x, W):
        if x[0] < 0:
            raise sd.DomainViolation("subderivative queried off the domain")
        return np.where((x[0] > 0) | (W[:, 0] >= 0), W[:, 0], math.inf)


def test_a_member_at_infinity_never_joins_the_active_set():
    # 8 ulps of inf are inf, so the bare tie rule put the +inf member beside
    # the finite minimum and its kernel then refused the point
    quad = sd.quadratic_model(np.zeros(2))
    f = sd.pointwise_min([quad, _HalfPlaneRamp()])
    x = np.array([-1.0, 0.5])
    assert f.value(x) == ExtReal(0.625)
    assert f._active(x) == [quad]
    e1 = np.array([1.0, 0.0])
    assert f.subderivative(x, e1) == quad.subderivative(x, e1) == ExtReal(-1.0)


_QUADRATIC = sd.quadratic_model(np.zeros(2))


@pytest.mark.parametrize("make", [
    lambda E: sd.pointwise_max([_QUADRATIC, E]),
    lambda E: sd.pointwise_min([E, E]),
    lambda E: sd.pointwise_max([sd.l1_norm(2), E]),
    lambda E: sd.sum_models([sd.l1_norm(2), sd.pointwise_max([_QUADRATIC, E])]),
], ids=["max_q_E", "min_E_E", "max_l1_E", "sum_l1_max_q_E"])
def test_an_infinite_extremum_refuses_its_point(make):
    # no member ties an infinite extremum, so the reduction over the empty
    # active set raised ValueError: not enough values to unpack
    f = make(_HalfPlaneRamp())
    x = np.array([-1.0, 0.5])
    assert f.value(x) == sd.POS_INF and f.extended_valued
    for query in (lambda: f.subderivative(x, [1.0, 0.0]),
                  lambda: sd.solve_l1_extreme(f, x),
                  lambda: sd.solve_sampling_fallback(f, x, sd.NormChoice.L2, 16, 0)):
        with pytest.raises(sd.DomainViolation):
            query()
    assert sd.pointwise_min([_QUADRATIC, _HalfPlaneRamp()]).subderivative(
        x, [1.0, 0.0]) == ExtReal(-1.0)


@pytest.mark.parametrize("value_first", [True, False])
@pytest.mark.parametrize("make", [
    lambda E: sd.pointwise_max([_QUADRATIC, E]),
    lambda E: sd.pointwise_min([E, E]),
], ids=["max_q_E", "min_E_E"])
def test_an_infinite_extremum_refuses_its_point_on_every_repeat(make, value_first):
    # the kept member values tie no member of the +inf extremum, so each
    # repeat finds the active set empty again, whichever query comes first
    f = make(_HalfPlaneRamp())
    x, y = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
    refusals = (lambda: f._vertex_values(x), lambda: f.subderivatives(x, np.eye(2)),
                lambda: f.subderivative(x, [1.0, 0.0]), lambda: sd.solve_l1_extreme(f, x))
    for _ in range(3):
        if value_first:
            assert f._value(x) == math.inf and f.value(x) == sd.POS_INF
        for query in refusals:
            with pytest.raises(sd.DomainViolation):
                query()
        assert f._active(x) == []
        assert f._value(x) == math.inf
    fresh = make(_HalfPlaneRamp())
    assert f.subderivatives(y, np.eye(2)).tobytes() == fresh.subderivatives(y, np.eye(2)).tobytes()


def _tree_over(leaf, rng, depth):
    """A random combinator tree with ``leaf`` once among finite-valued members."""
    if depth == 0:
        return leaf
    inner = _tree_over(leaf, rng, depth - 1)
    other = [_QUADRATIC, sd.l1_norm(2), sd.linear_model([0.5, -1.0])][rng.integers(3)]
    pair = [inner, other] if rng.random() < 0.5 else [other, inner]
    affine = sd.affine_map(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2))
    return [lambda: sd.sum_models(pair), lambda: sd.scale(inner, 2.5),
            lambda: sd.pointwise_min(pair), lambda: sd.pointwise_max(pair),
            lambda: sd.precompose_smooth(inner, affine),
            lambda: sd.precompose_semidiff(inner, affine)][rng.integers(6)]()


def test_combinator_trees_over_an_extended_valued_member():
    # where a tree is +inf every query refuses the point by name; where it is
    # finite the subderivative agrees with finite differences, and the brute
    # force reads its winner back as the subderivative there
    rng = np.random.default_rng(17)
    infinite = finite = 0
    for _ in range(40):
        f = _tree_over(_HalfPlaneRamp(), rng, int(rng.integers(1, 4)))
        for _ in range(5):
            x = rng.uniform(-2, 2, 2)
            if f.value(x) == sd.POS_INF:
                infinite += 1
                for query in (lambda: f.subderivatives(x, np.eye(2)),
                              lambda: sd.solve_l1_extreme(f, x),
                              lambda: sd.solve_sampling_fallback(f, x, sd.NormChoice.L1, 8, 0),
                              lambda: sd.brute_force_direction(f, x, sd.NormChoice.L1, 0.25),
                              lambda: sd.fd_subderivative(f, x, np.ones(2))):
                    with pytest.raises(sd.DomainViolation):
                        query()
                continue
            best = sd.brute_force_direction(f, x, sd.NormChoice.L1, 0.25)
            assert best.value == f.subderivative(x, best.w)
            for w in (best.w, rng.uniform(-1, 1, 2)):
                fd = sd.fd_subderivative(f, x, w)
                if fd.converged:
                    finite += 1
                    assert fd.estimate.v == pytest.approx(f.subderivative(x, w).v, abs=1e-4)
    assert infinite >= 20 and finite >= 100, (infinite, finite)


def test_penalize_distance_examples():
    zero = sd.smooth_model(2, lambda x: 0.0, lambda x: np.zeros(2))
    origin = sd.Singleton(np.zeros(2))
    pen = sd.penalize(zero, sd.identity_map(2), origin, 1.0)
    x = np.array([3.0, 4.0])
    assert pen.value(x) == ExtReal(5.0)
    assert pen.subderivative(x, np.array([1.0, 0.0])).v == pytest.approx(3.0 / 5.0)
    pen2 = sd.penalize(zero, sd.identity_map(2), origin, 2.0)
    assert pen2.value(x) == ExtReal(10.0)
    assert pen2.subderivative(x, np.array([1.0, 0.0])).v == pytest.approx(6.0 / 5.0)


def test_penalize_semidifferentiable_flag_and_errors():
    zero = sd.smooth_model(2, lambda x: 0.0, lambda x: np.zeros(2))
    pen = sd.penalize(zero, sd.identity_map(2), sd.nonnegative_orthant(2), 1.0)
    assert pen.semi_differentiable
    with pytest.raises(sd.NonpositiveScale):
        sd.penalize(zero, sd.identity_map(2), sd.nonnegative_orthant(2), 0.0)


def test_chain_rule_against_fd_sampled(rng):
    # Closed-form composite subderivative vs the FD estimator, 50 pairs each.
    A = rng.uniform(-1, 1, (3, 3))
    pairs = [
        (sd.L1Norm(3), sd.affine_map(A, rng.uniform(-1, 1, 3))),
        (sd.NegL1Norm(3, 0.5), sd.affine_map(A)),
    ]
    for g, F in pairs:
        comp = sd.precompose_smooth(g, F)
        for _ in range(50):
            x = rng.uniform(-2, 2, 3)
            w = rng.uniform(-1, 1, 3)
            fd = sd.fd_subderivative(comp, x, w)
            assert fd.estimate.v == pytest.approx(
                comp.subderivative(x, w).v, abs=1e-5)


def test_descent_constant_helper_formulas():
    assert sd.envelope_composite_descent_constant(2.0, 0.5) == pytest.approx(4.0)
    assert sd.dc_envelope_descent_constant(2.0, 0.5) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        sd.envelope_composite_descent_constant(1.0, 0.0)


def test_penalize_with_semidiff_map():
    # Nonsmooth G: distance surcharge composed behind a ReLU map.
    zero = sd.smooth_model(2, lambda x: 0.0, lambda x: np.zeros(2))
    pen = sd.penalize(zero, sd.relu_map(2), sd.Singleton(np.zeros(2)), 1.0)
    x = np.array([3.0, -4.0])  # G(x) = (3, 0), dist = 3
    assert pen.value(x) == ExtReal(3.0)
    fd = sd.fd_subderivative(pen, x, np.array([1.0, 1.0]))
    assert fd.estimate.v == pytest.approx(
        pen.subderivative(x, np.array([1.0, 1.0])).v, abs=1e-6)


class _NonDerivable(sd.SetModel):
    geometrically_derivable = False

    @property
    def dim(self):
        return 2

    def contains(self, x):
        return bool(np.allclose(x, 0.0))

    def project(self, x):
        return [np.zeros(2)]

    def tangent_distance(self, x, w):
        return float(np.linalg.norm(w))


def test_penalize_nonsmooth_map_needs_derivable_set():
    zero = sd.smooth_model(2, lambda x: 0.0, lambda x: np.zeros(2))
    with pytest.raises(ValueError):
        sd.penalize(zero, sd.relu_map(2), _NonDerivable(), 1.0)
    # A smooth G is fine even then: the chain rule needs no semi-derivative.
    pen = sd.penalize(zero, sd.identity_map(2), _NonDerivable(), 1.0)
    assert not pen.semi_differentiable


def _soft_threshold_prox(t, r, lam=0.5):
    return (math.copysign(max(abs(t) - lam * r, 0.0), t),)


_SEPARABLE_X = np.array([1.0, -1.0, 0.0, 0.3, -2.0])
_SMOOTH_L1 = sd.sum_models([sd.quadratic_model(np.array([0.5, 0.0, -1.0, 2.0, 0.0])),
                            sd.L1Norm(5, 0.5)])


@pytest.mark.parametrize("model", [
    sd.L1Norm(5, 0.7),
    sd.NegL1Norm(5, 1.3),
    sd.moreau_envelope(sd.L1Inner(0.8), 0.5, n=5),
    sd.moreau_envelope(sd.UserScalarInner(lambda y: 0.5 * abs(y), _soft_threshold_prox),
                       0.5, n=5),
    # r = 0.5 puts x_i = +-1 on the hard threshold, where the prox is set-valued.
    sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=5),
    _SMOOTH_L1,
    sd.scale(_SMOOTH_L1, 3.0),
], ids=["l1", "neg_l1", "soft_moreau", "user_moreau", "hard_moreau", "smooth_l1",
        "scaled_smooth_l1"])
def test_separable_parts_match_subderivative(model, rng):
    # <grad, w> + sum_i g_i(w_i) with g_i(t) = t up_i for t >= 0 and
    # -t down_i for t <= 0 must reproduce the oracle's subderivative.
    x = _SEPARABLE_X
    assert model.is_separable
    grad, (up, down) = model.separable_parts(x)
    assert up.shape == down.shape == (5,)
    ws = [np.eye(5)[i] * t for i in range(5) for t in (-1.0, 1.0, 0.4)]
    ws += [rng.uniform(-1, 1, 5) for _ in range(20)]
    for w in ws:
        via_parts = float(np.dot(grad, w)) + float(np.sum(np.where(w > 0, up * w, -down * w)))
        assert via_parts == pytest.approx(model.subderivative(x, w).v, abs=1e-12)


def test_sum_of_smooth_keeps_gradient(rng):
    a = sd.quadratic_model(np.array([1.0, 0.0]))
    b = sd.quadratic_model(np.array([0.0, -1.0]))
    s = sd.sum_models([a, b])
    assert s.has_gradient
    x = rng.uniform(-2, 2, 2)
    assert s.gradient(x) == pytest.approx(a.gradient(x) + b.gradient(x))
