"""The batched query subderivatives(x, W) against the scalar subderivative.

Every override must return, for each row w of W, exactly the float
subderivative(x, w).v: the direction searches pick among exact ties through
the batched query, and the traced benchmark replays them through the scalar
one. The default (a loop over subderivative) must leave the searches' answers
as they were when they scanned their candidates one call at a time.
"""

import numpy as np
import pytest

import subderiv as sd
from subderiv.direction import _unit_ball_sample, l1_vertices, reduced_vertices
from subderiv.extreal import ExtReal
from subderiv.problems import build_problem

from conftest import dyadic, tied_theta

N = 6


def _linear(a, c):
    a = np.asarray(a, dtype=float)
    return sd.smooth_model(a.shape[0], lambda x: float(np.dot(a, x)) + c,
                           lambda x: a.copy())


def _tied_branches(rng, far):
    """Three affine branches tied at x = 0 up to one ulp, plus a distant one."""
    return [_linear(rng.normal(size=N), 0.3), _linear(rng.normal(size=N), 0.1 + 0.2),
            _linear(rng.normal(size=N), 0.3), _linear(rng.normal(size=N), far)]


def _relu_cases(rng):
    out = []
    for widths, final_relu in (([2, 3, 3, 1], True), ([2, 4, 2], False)):
        data = [(dyadic(rng, widths[0]), dyadic(rng, widths[-1])) for _ in range(5)]
        net = sd.relu_network_loss(widths, data, final_relu=final_relu)
        theta = tied_theta(net, rng)
        assert all(a[0] == 0.0 for a in net.preactivations(theta)[0])
        out.append((f"relu{widths}", net, [theta, rng.normal(size=net.dim)]))
    return out


def _cases():
    rng = np.random.default_rng(20261018)
    x_kinked = np.array([1.5, 0.0, -2.0, 0.0, 0.25, -0.0])
    quad = sd.quadratic_model(rng.normal(size=N))
    wavy = sd.smooth_model(N, lambda x: float(np.sum(np.sin(x))), np.cos)
    Q = rng.normal(size=(N, N))
    qmoreau = sd.moreau_envelope(sd.QuadraticInner(Q @ Q.T, rng.normal(size=N)), 0.5)
    zero_norm = sd.ZeroNormComposite(np.eye(N)[:3], np.array([1.0, 0.0, 0.0]))
    mixed = sd.sum_models([quad, sd.NegL1Norm(N, 0.4), sd.scale(sd.L1Norm(N), 2.5),
                           zero_norm])
    diff_max = build_problem("diff_max", {"n": str(N), "m": "5", "gen_seed": "3"}).model
    points = [x_kinked, rng.uniform(-2.0, 2.0, N)]
    return [
        ("l1", sd.L1Norm(N, 0.7), points),
        ("neg_l1", sd.NegL1Norm(N, 1.3), points),
        ("smooth", wavy, points),
        ("quadratic", quad, points),
        ("quadratic_moreau", qmoreau, points),
        ("scale", sd.scale(sd.sum_models([quad, sd.L1Norm(N)]), 0.3), points),
        ("sum_mixed", mixed, points),
        ("scale_of_sum_mixed", sd.scale(mixed, 1.7), points),
        ("pointwise_min", sd.pointwise_min(_tied_branches(rng, 5.0)),
         [np.zeros(N)] + points),
        ("pointwise_max", sd.pointwise_max(_tied_branches(rng, -5.0)),
         [np.zeros(N)] + points),
        ("diff_max", diff_max, points),
        ("zero_norm_default_loop", zero_norm, points),
    ] + _relu_cases(rng)


CASES = _cases()


def _direction_sets(n, rng):
    sparse = rng.normal(size=(30, n)) * (rng.uniform(size=(30, n)) < 0.5)
    return {"pm_identity": l1_vertices(n), "reduced": reduced_vertices(n),
            "random": rng.normal(size=(40, n)), "sparse": sparse,
            "zero_row": np.zeros((1, n))}


@pytest.mark.parametrize("name, model, points", CASES, ids=[c[0] for c in CASES])
def test_batched_matches_scalar_bit_for_bit(name, model, points):
    rng = np.random.default_rng(len(name))
    for x in points:
        for label, W in _direction_sets(model.dim, rng).items():
            got = model.subderivatives(x, W)
            want = np.array([model.subderivative(x, w).v for w in W])
            assert got.dtype == np.float64 and got.shape == (W.shape[0],)
            assert got.tobytes() == want.tobytes(), (name, label)
            # A strided W is read as its C-contiguous copy.
            fortran = model.subderivatives(x, np.asfortranarray(W))
            assert fortran.tobytes() == got.tobytes(), (name, label)


def test_pointwise_case_has_several_active_branches():
    # The tied fixtures exercise the reduction over more than one member.
    _, model, _ = next(c for c in CASES if c[0] == "pointwise_min")
    assert len(model._active(np.zeros(N))) == 3


class NegSqrt(sd.FunctionModel):
    """-sqrt(|x_0|): d f(0)(w) = -inf whenever w_0 != 0."""

    semi_differentiable = False

    def __init__(self, n):
        self.n = n

    @property
    def dim(self):
        return self.n

    def value(self, x):
        return ExtReal(-np.sqrt(abs(x[0])))

    def subderivative(self, x, w):
        if x[0] != 0.0:
            return ExtReal(-0.5 * np.sign(x[0]) * w[0] / np.sqrt(abs(x[0])))
        return ExtReal(-np.inf if w[0] != 0.0 else 0.0)


def test_sum_batched_rejects_opposite_infinities():
    f = sd.sum_models([sd.ZeroNormComposite(np.eye(2), np.zeros(2)), NegSqrt(2)])
    x = np.zeros(2)
    e0, e1 = np.eye(2)
    assert f.subderivatives(x, np.array([e1])).tolist() == [np.inf]
    with pytest.raises(sd.IndeterminateSum):
        f.subderivative(x, e0)
    with pytest.raises(sd.IndeterminateSum):
        f.subderivatives(x, np.array([e1, e0]))


def test_batched_rejects_bad_direction_matrices():
    f = sd.L1Norm(3)
    with pytest.raises(sd.DimensionMismatch):
        f.subderivatives(np.zeros(3), np.zeros(3))
    with pytest.raises(sd.DimensionMismatch):
        f.subderivatives(np.zeros(3), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        f.subderivatives(np.zeros(3), np.full((1, 3), np.nan))


# ---------------------------------------------------------------------------
# The default path: a model that defines only value and subderivative.
# ---------------------------------------------------------------------------


class ScalarOnly(sd.FunctionModel):
    """Forwards the scalar queries of ``inner`` (and its separable parts) and
    counts subderivative calls."""

    def __init__(self, inner):
        self.inner = inner
        for flag in ("semi_differentiable", "extended_valued", "subderivative_concave",
                     "has_gradient", "is_separable", "descent_constant", "lower_bound"):
            setattr(self, flag, getattr(inner, flag))
        self.calls = 0

    @property
    def dim(self):
        return self.inner.dim

    def value(self, x):
        return self.inner.value(x)

    def subderivative(self, x, w):
        self.calls += 1
        return self.inner.subderivative(x, w)

    def gradient(self, x):
        return self.inner.gradient(x)

    def separable_parts(self, x):
        # Forwarded, so the copied is_separable flag stays honest; a model
        # that is not separable keeps the flag False and raises here as before.
        return self.inner.separable_parts(x)


def _scan(f, x, cands, skip_plus_inf):
    """The searches' former loop: one call per candidate, strict improvement."""
    best_w, best_v = None, np.inf
    for w in cands:
        d = f.subderivative(x, w)
        if skip_plus_inf and d.v == np.inf:
            continue
        if d.v < best_v:
            best_w, best_v = w, d.v
    return best_w


def _signed_units(n):
    out = []
    for i in range(n):
        for s in (1.0, -1.0):
            e = np.zeros(n)
            e[i] = s
            out.append(e)
    return out


def reference_l1_extreme(f, x, reduced=False):
    n = f.dim
    verts = list(np.eye(n)) + [-np.ones(n)] if reduced else _signed_units(n)
    best = _scan(f, x, verts, skip_plus_inf=False)
    best = verts[0] if best is None else best
    return sd.DirectionResult(best, f.subderivative(x, best), True, len(verts) + 1)


def reference_fallback(f, x, norm, budget, seed):
    n = f.dim
    rng = np.random.default_rng(seed)
    cands = _signed_units(n)
    if f.has_gradient:
        g = f.gradient(x)
        nrm = sd.direction.norm_of(g, norm)
        if nrm > 0:
            cands.append(-(g / nrm))
    cands += [_unit_ball_sample(rng, n, norm) for _ in range(budget)]
    best = _scan(f, x, cands, skip_plus_inf=True)
    if best is None:
        return sd.DirectionResult(np.zeros(n), ExtReal(0.0), False, len(cands))
    return sd.DirectionResult(best, f.subderivative(x, best), False, len(cands) + 1)


def assert_same_result(got, want):
    assert np.array_equal(got.w, want.w)
    assert got.value == want.value
    assert got.exact == want.exact and got.evaluations == want.evaluations


SEARCH_MODELS = {
    "dc_quadratic_l1": build_problem("dc_quadratic_l1", {"n": "4"}).model,
    "diff_max": build_problem("diff_max", {"n": "4", "m": "5", "gen_seed": "2"}).model,
    "relu_net": build_problem("relu_net", {"widths": "2,3,1", "m": "4"}).model,
    "l1": sd.L1Norm(4),
}


@pytest.mark.parametrize("name", SEARCH_MODELS)
def test_searches_agree_with_the_scalar_scan(name):
    model = SEARCH_MODELS[name]
    rng = np.random.default_rng(7)
    points = [np.zeros(model.dim), rng.uniform(-2.0, 2.0, model.dim)]
    for x in points:
        for f in (model, ScalarOnly(model)):
            for reduced in (False, True):
                assert_same_result(sd.solve_l1_extreme(f, x, reduced),
                                   reference_l1_extreme(model, x, reduced))
            for norm in sd.NormChoice:
                assert_same_result(sd.solve_sampling_fallback(f, x, norm, 16, seed=3),
                                   reference_fallback(model, x, norm, 16, 3))


def test_default_path_asks_the_scalar_oracle_once_per_candidate():
    f = ScalarOnly(build_problem("dc_quadratic_l1", {"n": "5"}).model)
    res = sd.solve_l1_extreme(f, np.full(5, 3.0))
    assert f.calls == res.evaluations == 2 * 5 + 1


def test_scalar_only_wrapper_declares_only_the_structure_it_forwards():
    x = np.array([0.5, 0.0, -1.0, 2.0])
    for name, model in SEARCH_MODELS.items():
        f = ScalarOnly(model)
        assert f.is_separable == model.is_separable, name
        if model.is_separable:
            got, want = f.separable_parts(x), model.separable_parts(x)
            assert got[0].tobytes() == want[0].tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got[1], want[1]))
        else:
            with pytest.raises(sd.NotSeparable):
                f.separable_parts(np.zeros(model.dim))


def test_l1_extreme_all_infinite_returns_first_vertex():
    zn = sd.ZeroNormComposite(np.eye(3), np.zeros(3))
    for f in (zn, ScalarOnly(zn)):
        res = sd.solve_l1_extreme(f, np.zeros(3))
        assert np.array_equal(res.w, [1.0, 0.0, 0.0])
        assert res.value == sd.POS_INF and res.evaluations == 7
        res = sd.solve_l1_extreme(f, np.zeros(3), reduced=True)
        assert np.array_equal(res.w, [1.0, 0.0, 0.0]) and res.evaluations == 5


@pytest.mark.parametrize("model", [sd.ZeroNormComposite(np.eye(1), np.zeros(1))],
                         ids=["plus_inf"])
def test_fallback_all_infinite_returns_zero_direction(model):
    for f in (model, ScalarOnly(model)):
        res = sd.solve_sampling_fallback(f, np.zeros(1), sd.NormChoice.L2, 5, seed=0)
        assert np.array_equal(res.w, [0.0])
        assert res.value == ExtReal(0.0)
        assert not res.exact and res.evaluations == 2 + 5


def test_fallback_keeps_minus_inf_candidates():
    # Every candidate is -inf at x = 0; the first one, e1, wins.
    model = NegSqrt(1)
    for f in (model, ScalarOnly(model)):
        res = sd.solve_sampling_fallback(f, np.zeros(1), sd.NormChoice.L2, 5, seed=0)
        assert np.array_equal(res.w, [1.0])
        assert res.value == sd.NEG_INF
        assert not res.exact and res.evaluations == 2 + 5 + 1
