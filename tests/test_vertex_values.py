"""The l1 vertex kernel ``_vertex_values`` against its dense default, and the
vertex search built on it against the search that takes the default."""

import dataclasses
import math

import numpy as np
import pytest

import subderiv as sd
from subderiv.calculus import _QuadraticBranch, _QuadraticBranches
from subderiv.model import l1_vertices
from subderiv.problems import build_problem

pytestmark = pytest.mark.filterwarnings("error")

LAM = 0.75


def _stack_min(n, take_max=False):
    """Branches 1/2 ||x||^2 - <a_i, x> of one stack, a_i = e_1, e_2, e_1, -e_1, ...,
    so the repeated row ties everywhere and the others tie at x = 0 and at
    sums of unit vectors."""
    rows = [np.eye(n)[0], np.eye(n)[min(1, n - 1)], np.eye(n)[0], -np.eye(n)[0]]
    stack = _QuadraticBranches(np.array(rows), np.zeros(len(rows)))
    branches = [_QuadraticBranch(stack, i) for i in range(len(rows))]
    return sd.pointwise_max(branches) if take_max else sd.pointwise_min(branches)


def _models(n):
    c = np.where(np.arange(n) % 2, -0.0, 0.5)
    dc = sd.sum_models([sd.quadratic_model(np.zeros(n)), sd.NegL1Norm(n, LAM)])
    grad = np.where(np.arange(n) % 3 == 0, -0.0, np.where(np.arange(n) % 3 == 1, 0.0, -2.0))
    Q = np.diag(np.arange(1.0, n + 1.0))
    soft = sd.moreau_envelope(sd.L1Inner(LAM), 0.5, n=n)
    return {
        "smooth_model": sd.smooth_model(n, lambda x: 0.0, lambda x: grad.copy()),
        "quadratic": sd.quadratic_model(c),
        "linear": sd.linear_model(grad),
        "quadratic_moreau": sd.moreau_envelope(sd.QuadraticInner(Q, c), 0.5),
        "l1": sd.L1Norm(n, LAM),
        "neg_l1": sd.NegL1Norm(n, LAM),
        "dc": dc,
        "scaled_dc": sd.scale(dc, 3.0),
        "nested_sum": sd.sum_models([sd.scale(dc, 0.5), sd.sum_models(
            [sd.L1Norm(n, 2.0), sd.linear_model(grad)]), sd.quadratic_model(c)]),
        "soft_envelope": soft,
        "hard_envelope": sd.moreau_envelope(sd.ZeroNormInner(), LAM * LAM / 2.0, n=n),
        "user_envelope": sd.moreau_envelope(sd.UserScalarInner(
            lambda y: LAM * abs(y), lambda t, r: (math.copysign(max(abs(t) - LAM * r, 0.0), t),)),
            0.5, n=n),
        "quadratic_envelope": sd.sum_models([sd.quadratic_model(c), soft]),
        "stack_min": _stack_min(n),
        "stack_max": _stack_min(n, take_max=True),
        "member_min": sd.pointwise_min([sd.quadratic_model(np.zeros(n)), sd.linear_model(grad),
                                        sd.scale(sd.quadratic_model(np.zeros(n)), 2.0)]),
        "scaled_min": sd.scale(sd.sum_models([_stack_min(n), sd.NegL1Norm(n, LAM)]), 0.25),
    }


def _points(n):
    signs = np.where(np.arange(n) % 2, 1.0, -1.0)
    unit_sum = np.zeros(n)
    unit_sum[:2] = 1.0
    return [np.zeros(n), -np.zeros(n), signs * 0.0,       # x_i = +-0.0
            signs * LAM, -signs * LAM,                  # grad_i = +-lam in the dc sum
            np.where(np.arange(n) % 3 == 0, 0.0, signs * LAM),
            unit_sum,                                   # stacked branches tie
            np.arange(n) - n / 2.0,
            np.random.default_rng(n).uniform(-2.0, 2.0, n)]


CASES = [(n, name) for n in (1, 2, 50) for name in _models(n)]


@pytest.mark.parametrize("n,name", CASES, ids=[f"{name}-{n}" for n, name in CASES])
def test_every_vertex_kernel_is_its_default_bit_for_bit(n, name):
    model = _models(n)[name]
    assert type(model)._vertex_values is not sd.FunctionModel._vertex_values
    for x in _points(n):
        want = sd.FunctionModel._vertex_values(model, x)
        got = model._vertex_values(x)
        assert want.tobytes() == model._subderivatives(x, l1_vertices(n)).tobytes()
        assert got.dtype == np.float64 and got.shape == (2 * n,)
        assert got.tobytes() == want.tobytes(), (name, x)


def test_models_without_a_closed_form_keep_the_default():
    default = sd.FunctionModel._vertex_values
    net = sd.relu_network_loss([2, 2, 1], [(np.ones(2), np.ones(1))])
    for m in (net, sd.zero_norm_composite(np.eye(2), np.zeros(2)),
              sd.precompose_smooth(sd.NegL1Norm(2), sd.affine_map(np.eye(2)))):
        assert type(m)._vertex_values is default


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_the_smooth_kernel_refuses_a_non_finite_gradient(entry):
    bad = sd.smooth_model(2, lambda x: 0.0, lambda x: np.array([entry, 0.0]))
    for model in (bad, sd.sum_models([bad, sd.NegL1Norm(2)]), sd.scale(bad, 2.0)):
        with pytest.raises(ValueError, match="^W must have finite entries"):
            model._vertex_values(np.zeros(2))


@pytest.mark.parametrize("n,name", CASES, ids=[f"{name}-{n}" for n, name in CASES])
def test_the_vertex_search_takes_the_first_least_vertex(n, name):
    model = _models(n)[name]
    V = l1_vertices(n)
    for x in _points(n):
        vals = sd.FunctionModel._vertex_values(model, x)
        first = min(range(2 * n), key=lambda i: vals[i])    # min keeps the first
        res = sd.solve_l1_extreme(model, x)
        assert res.w.tobytes() == V[first].tobytes(), (name, x)
        assert res.value.v == vals[first] and res.evaluations == 2 * n + 1


class DefaultVertexKernel(sd.FunctionModel):
    """Forwards every query to ``inner`` but ``_vertex_values``, which it
    leaves to the default: the dense vertex matrix through ``_subderivatives``."""

    def __init__(self, inner):
        self.inner = inner
        for flag in ("semi_differentiable", "extended_valued", "subderivative_concave",
                     "has_gradient", "is_separable", "descent_constant", "lower_bound"):
            setattr(self, flag, getattr(inner, flag))

    @property
    def dim(self):
        return self.inner.dim

    def value(self, x):
        return self.inner.value(x)

    def _value(self, x):
        return self.inner._value(x)

    def _values(self, X):
        return self.inner._values(X)

    def subderivative(self, x, w):
        return self.inner.subderivative(x, w)

    def _subderivatives(self, x, W):
        return self.inner._subderivatives(x, W)

    def gradient(self, x):
        return self.inner.gradient(x)

    def separable_parts(self, x):
        return self.inner.separable_parts(x)


def _trace_bytes(tr):
    rows = [(r.k, r.f, r.dir_value, r.alpha, r.backtracks, r.step_norm) for r in tr.records]
    return (repr(rows), tr.status, tr.detail, tr.certified, tr.f_final,
            tr.x_final.tobytes(), [x.tobytes() for x in tr.iterates])


@pytest.mark.parametrize("name,params,max_iter", [
    ("dc_quadratic_l1", {"n": 200}, 50),
    ("diff_max", {"n": 50, "m": 20, "gen_seed": 0}, None),
    ("diff_max", {"n": 50, "m": 20, "gen_seed": 1}, None),
    ("diff_max", {"n": 50, "m": 20, "gen_seed": 2}, None),
])
def test_runs_match_the_default_vertex_kernel(name, params, max_iter):
    bp = build_problem(name, params)
    cfg = bp.defaults if max_iter is None else dataclasses.replace(bp.defaults,
                                                                   max_iter=max_iter)
    assert cfg.strategy == "l1-ext"
    got = sd.run(bp.model, bp.x0, cfg)
    want = sd.run(DefaultVertexKernel(bp.model), bp.x0, cfg)
    assert len(got.records) > 1
    assert _trace_bytes(got) == _trace_bytes(want)
