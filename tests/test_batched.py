"""The batched queries against the scalar ones.

Every override of subderivatives(x, W) must return, for each row w of W,
exactly the float subderivative(x, w).v: the direction searches pick among
exact ties through the batched query, and the traced benchmark replays them
through the scalar one. A bundled model states its formula once, as the
batch, and its scalar query is the one-row case, so for these the
bit-for-bit test checks that each row of a batch equals that row asked
alone. The default (a loop over subderivative) must leave the searches'
answers as they were when they scanned their candidates one call at a
time. Likewise every override of values(X) must return exactly value(x).v
for each row x, and every set's nearest_points(X) exactly project(x)[0],
so the finite-difference estimate, which scores its probe points with one
values query, is the one the per-point loop gave.
"""

import inspect
import math

import numpy as np
import pytest

import subderiv as sd
from subderiv.direction import _unit_ball_sample, l1_vertices, reduced_vertices
from subderiv.extreal import ExtReal
from subderiv.problems import build_problem
from subderiv.verify import _fd_perturbations

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
        ("moreau_l1", sd.moreau_envelope(sd.L1Inner(0.8), 0.5, n=N), points),
        # sqrt(2r) = 1 is the hard threshold, where the prox is set-valued
        ("moreau_l0", sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=N),
         points + [np.array([1.0, -1.0, 0.0, 2.0, -0.0, 0.5])]),
        ("zero_norm", zero_norm, points),
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



# ---------------------------------------------------------------------------
# values(X) against value(x), and nearest_points(X) against project(x)[0].
# ---------------------------------------------------------------------------


def _union():
    """The half-planes y <= 0 and y >= 1 and the box [4, 5] x [-1, 1]: the
    points (t, 0.5) with t < 3.5 tie between the half-planes."""
    return sd.FiniteUnion([
        sd.ConvexPolyhedron(np.array([[0.0, 1.0]]), np.array([0.0])),
        sd.ConvexPolyhedron(np.array([[0.0, -1.0]]), np.array([-1.0])),
        sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                            np.array([5.0, -4.0, 1.0, 1.0])),
    ])


def _square():
    return sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                               np.array([1.0, 0.0, 1.0, 1.0]))


def _decagon():
    """The regular decagon circumscribing the unit circle: 1023 facet
    subsets, so 190 rows are projected in several chunks."""
    angles = np.arange(10) * (2 * np.pi / 10)
    return sd.ConvexPolyhedron(np.column_stack([np.cos(angles), np.sin(angles)]), np.ones(10))


def _sets():
    """(name, set, points of interest: inside, on the boundary, at ties)."""
    return [
        ("box", sd.Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
         [[0.5, 1.0], [-0.0, 0.0], [3.0, -0.0], [1.0, 2.0]]),
        ("orthant", sd.nonnegative_orthant(3),
         [[-0.0, 1.0, 0.0], [1.0, 2.0, 3.0], [-1.0, -0.0, 2.0]]),
        ("ball", sd.Ball(np.array([0.5, -0.5]), 1.0),
         [[0.5, -0.5], [0.5, 0.5], [0.6, -0.4], [3.0, 1.0]]),
        ("affine", sd.AffineSubspace(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
                                     np.array([1.0, 0.5])), [[1.0, 0.0, -0.5], [0.0, 0.0, 0.0]]),
        ("singleton", sd.Singleton(np.array([0.5, -1.0])), [[0.5, -1.0], [-0.0, 0.0]]),
        ("polyhedron", _square(), [[0.5, 0.0], [1.0, 1.0], [3.0, 3.0], [-0.0, 0.5]]),
        ("decagon", _decagon(), [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [-0.0, 5.0]]),
        ("union", _union(), [[0.0, 0.5], [-0.5, 0.5], [2.0, 0.5], [4.5, 0.5], [0.5, -1.0],
                             [9.0, 0.5]]),
        ("complementarity", sd.ComplementaritySet(2),
         [[1.0, 0.0, 1.0, -0.0], [-1.0, 0.5, -1.0, 0.5], [-2.0, -1.0, -2.0, -1.0],
          [-0.0, 0.0, 0.0, -0.0]]),
    ]


SETS = _sets()


def _rows(dim, special, rng, k=190):
    """k rows: the special points first, then kinked and random ones."""
    X = rng.uniform(-3.0, 3.0, (k, dim))
    X[: len(special)] = special
    X[len(special)::5, 0] = 0.0
    X[len(special) + 1::7, -1] = -0.0
    return X


ROW_COUNTS = (1, 2, 3, 64, 189)


@pytest.mark.parametrize("name, X, special", SETS, ids=[c[0] for c in SETS])
def test_set_row_kernel_matches_project_at_any_row_count(name, X, special):
    rows = _rows(X.dim, special, np.random.default_rng(len(name)))
    got = X.nearest_points(rows)
    assert got.dtype == np.float64 and got.shape == rows.shape
    for i, x in enumerate(rows):
        assert X.nearest_points(rows[i:i + 1])[0].tobytes() == got[i].tobytes(), (name, i)
        assert X.project(x.copy())[0].tobytes() == got[i].tobytes(), (name, i)
    assert X.nearest_points(np.asfortranarray(rows)).tobytes() == got.tobytes()


def _pyramid():
    """{z >= -1, |x| <= -z, |y| <= -z}: 4 rows active at the apex 0, 3 at a
    base corner, 2 on a base edge."""
    return sd.ConvexPolyhedron(np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                                         [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]),
                               np.array([0.0, 0.0, 0.0, 0.0, 1.0]))


def _tangent_sets():
    """(name, set, points of the set on each branch of its tangent cone)."""
    lo, hi = np.full(12, -1.0), np.ones(12)
    lo[3] = hi[3] = 0.5
    mixed = np.where(np.arange(12) % 3 == 0, lo, hi)
    mixed[1] = 0.25
    rays = np.zeros(18)
    rays[[0, 2, 4, 6]] = -1.5          # pairs 0, 2, 4, 6 inside the ray z = 0
    rays[[10, 12, 14]] = -0.5          # pairs 1, 3, 5 inside the ray y = 0; 7, 8 at the corner
    t = math.tan(math.pi / 10)         # (1, t) is the decagon vertex between its first two facets
    return [
        ("box", sd.Box(np.array([-1.0, 2.0]), np.array([1.0, 2.0])),
         [[-1.0, 2.0], [1.0, 2.0], [0.0, 2.0]]),
        ("box_12", sd.Box(lo, hi), [hi, lo, mixed, np.where(np.arange(12) == 3, 0.5, 0.0)]),
        ("orthant", sd.nonnegative_orthant(3), [[0.0, 0.0, 0.0], [-0.0, 1.0, 0.0], [1.0, 2.0, 3.0]]),
        ("ball", sd.Ball(np.array([0.5, -0.5]), 1.0), [[1.5, -0.5], [0.5, 0.5], [0.5, -0.5]]),
        ("affine", sd.AffineSubspace(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
                                     np.array([1.0, 0.5])), [[1.0, 0.0, -0.5], [0.0, 1.0, 0.5]]),
        ("singleton", sd.Singleton(np.array([0.5, -1.0])), [[0.5, -1.0]]),
        ("polyhedron", _square(), [[1.0, 1.0], [0.0, -1.0], [0.5, 1.0], [0.5, 0.0]]),
        ("decagon", _decagon(), [[1.0, t], [1.0, 0.0], [0.0, 0.0]]),
        ("pyramid", _pyramid(), [[0.0, 0.0, 0.0], [1.0, 1.0, -1.0], [1.0, 0.0, -1.0],
                                 [0.5, 0.0, -1.0], [0.0, 0.0, -0.5]]),
        ("union", _union(), [[4.0, 0.0], [4.5, 1.0], [4.0, 1.0], [0.0, -2.0], [4.5, 0.5]]),
        ("complementarity", sd.ComplementaritySet(2),
         [[0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, -2.0], [0.0, -1.0, -0.0, 0.0]]),
        ("complementarity_9", sd.ComplementaritySet(9), [np.zeros(18), rays]),
    ]


TANGENT_SETS = _tangent_sets()


@pytest.mark.parametrize("name, X, points", TANGENT_SETS, ids=[c[0] for c in TANGENT_SETS])
def test_tangent_row_kernel_matches_tangent_distance_at_any_row_count(name, X, points):
    rng = np.random.default_rng(len(name) + 7)
    answers = []
    for x in map(np.array, points):
        assert X.contains(x), (name, x)
        W = _rows(X.dim, [np.zeros(X.dim), X.project(x + 1.0)[0] - x], rng, k=189)
        want = np.array([X.tangent_distance(x, w.copy()) for w in W])
        for k in ROW_COUNTS:
            got = np.concatenate([X._tangent_distances(x, W[i:i + k])
                                  for i in range(0, len(W), k)])
            assert got.tobytes() == want.tobytes(), (name, x, k)
        answers.append(want)
    # the directions reach both the cone (distance 0) and beyond it
    assert (np.concatenate(answers) > 0).any() and (np.concatenate(answers) == 0).any()


def test_set_fixtures_reach_inside_points_and_ties():
    sets = {name: X for name, X, _ in SETS}
    assert len(sets["union"].project(np.array([0.0, 0.5]))) == 2
    assert len(sets["union"].project(np.array([2.0, 0.5]))) == 2
    assert sets["union"].contains(np.array([4.5, 0.5]))
    assert len(sets["complementarity"].project(np.array([-2.0, -1.0, -2.0, -1.0]))) == 4
    for name, X, special in SETS:
        assert any(X.contains(np.array(p)) for p in special), name
    assert 190 * sets["decagon"]._subset_pinvs.size > 2 * sd.sets._KERNEL_ELEMENTS


def _catalogue():
    rng = np.random.default_rng(20261019)
    A = rng.uniform(-1, 1, (3, 3))
    b = rng.uniform(-1, 1, 3)
    square = sd.SmoothMap(2, 2, lambda x: x * x, lambda x, w: 2.0 * x * w)
    quad = sd.quadratic_model(rng.normal(size=3))
    # a stream of their own, so the fixtures drawn below stay as they were
    more = np.random.default_rng(20261020)
    M6 = more.normal(size=(6, 6))
    A23, A43 = more.uniform(-1, 1, (2, 3)), more.uniform(-1, 1, (4, 3))
    sqrt2r = math.sqrt(2 * 0.5)
    zero_norm_kinks = [[sqrt2r, -sqrt2r, 0.0], [-0.0, sqrt2r, 2.0], [0.4, 0.0, -sqrt2r]]
    kinks = [[0.0, -0.0, 1.0], [-0.0, -0.0, -0.0], [1.5, 0.0, -2.0]]
    user = sd.UserScalarInner(lambda y: abs(y),
                              lambda t, r: (math.copysign(max(abs(t) - r, 0.0), t),))
    out = [
        ("l1", sd.L1Norm(3, 1.3), kinks),
        ("neg_l1", sd.NegL1Norm(3, 0.7), kinks),
        ("moreau_l1", sd.moreau_envelope(sd.L1Inner(0.8), 0.5, n=3), kinks),
        ("moreau_l0", sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=3), zero_norm_kinks),
        ("moreau_user", sd.moreau_envelope(user, 0.5, n=3), kinks),
        ("sum", sd.sum_models([quad, sd.NegL1Norm(3), sd.scale(sd.L1Norm(3), 2.5)]), kinks),
        ("scale", sd.scale(sd.sum_models([sd.L1Norm(3), sd.NegL1Norm(3, 0.5)]), 1.7), kinks),
        ("comp_smooth", sd.precompose_smooth(sd.L1Norm(3), sd.affine_map(A, b)), kinks),
        ("comp_square", sd.precompose_smooth(sd.L1Norm(2, 0.5), square), [[0.0, -0.0]]),
        ("comp_semidiff", sd.precompose_semidiff(sd.L1Norm(3), sd.relu_map(3)), kinks),
        # -0.0 from NegL1Norm against 0.0 from L1Norm at x = 0: a strict fold keeps the first
        ("max_signed_zero", sd.pointwise_max([sd.NegL1Norm(3), sd.L1Norm(3)]), kinks),
        ("min_signed_zero", sd.pointwise_min([sd.L1Norm(3), sd.NegL1Norm(3, 1e-300)]), kinks),
        ("min_of_smooth", sd.pointwise_min(_tied_branches(rng, 5.0)[:2]), [[0.0] * N]),
        ("penalized", sd.penalize(sd.L1Norm(2), sd.identity_map(2), _union(), 1.5), [[0.0, 0.5]]),
        ("quadratic_moreau", sd.moreau_envelope(
            sd.QuadraticInner(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.2])), 1.0),
         [[0.0, 0.0]]),
        # at n >= 5 a quadratic form built two ways parts in the last bits
        ("quadratic_moreau_6",
         sd.moreau_envelope(sd.QuadraticInner(M6 @ M6.T, more.normal(size=6)), 0.7),
         [[0.0, -0.0, 1.0, 0.0, 2.0, -1.0]]),
        ("quadratic", quad, kinks),
        ("comp_affine_2x3", sd.precompose_smooth(sd.L1Norm(2), sd.affine_map(A23, b[:2])), kinks),
        ("comp_affine_4x3", sd.precompose_smooth(sd.NegL1Norm(4, 0.5), sd.affine_map(A43)),
         kinks),
        ("comp_identity", sd.precompose_smooth(sd.L1Norm(3, 0.9), sd.identity_map(3)), kinks),
        ("zero_norm_default_loop", sd.ZeroNormComposite(np.eye(3), np.zeros(3)), kinks),
    ]
    out += [(f"dist_{name}", sd.distance_to_set(X), special) for name, X, special in SETS]
    out += [(name, net, [theta]) for name, net, (theta, _) in _relu_cases(rng)]
    verify_net = sd.relu_network_loss([1, 1, 1], [(np.array([0.7]), np.array([0.2])),
                                                  (np.array([-0.4]), np.array([0.6])),
                                                  (np.array([0.2]), np.array([-0.1]))])
    out.append(("relu[1, 1, 1]", verify_net, [[0.0, 0.0, 1.0, 0.5]]))
    return out


VALUE_CASES = _catalogue()


@pytest.mark.parametrize("name, model, special", VALUE_CASES, ids=[c[0] for c in VALUE_CASES])
def test_values_match_value_bit_for_bit(name, model, special):
    rows = _rows(model.dim, special, np.random.default_rng(len(name) + 1))
    got = model.values(rows)
    assert got.dtype == np.float64 and got.shape == (rows.shape[0],)
    assert not np.isnan(got).any()
    assert got.tobytes() == np.array([model.value(x).v for x in rows]).tobytes(), name
    # a row read from the matrix and the same point built fresh give the same bits
    assert got.tobytes() == np.array([model.value(x.copy()).v for x in rows]).tobytes(), name
    assert model.values(np.asfortranarray(rows)).tobytes() == got.tobytes(), name
    assert model.values(rows[:0]).shape == (0,)


def test_signed_zero_fixtures_tie_at_the_origin():
    cases = {name: model for name, model, _ in VALUE_CASES}
    vals = cases["max_signed_zero"].values(np.zeros((1, 3)))
    assert vals[0] == 0.0 and math.copysign(1.0, vals[0]) == -1.0
    vals = cases["min_signed_zero"].values(np.zeros((1, 3)))
    assert vals[0] == 0.0 and math.copysign(1.0, vals[0]) == 1.0


class Barrier(sd.FunctionModel):
    """+inf where x_0 < 0 (or -inf with ``sign`` -1), else 0."""

    def __init__(self, sign):
        self.sign = sign

    @property
    def dim(self):
        return 2

    def value(self, x):
        return ExtReal(self.sign * math.inf if x[0] < 0 else 0.0)

    def subderivative(self, x, w):
        return ExtReal(0.0)


def test_values_raise_what_value_raises():
    f = sd.sum_models([sd.L1Norm(2), Barrier(1), Barrier(-1)])
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert f.values(X[:1]).tolist() == [1.0]
    with pytest.raises(sd.IndeterminateSum):
        f.value(X[1])
    with pytest.raises(sd.IndeterminateSum):
        f.values(X)
    # the empty polyhedron {y <= -1, -y <= -1} has no feasible candidate
    empty = sd.ConvexPolyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    for X in (empty, sd.FiniteUnion([empty])):
        f = sd.distance_to_set(X)
        with pytest.raises(sd.EmptyProjection):
            f.value(np.zeros(1))
        with pytest.raises(sd.EmptyProjection):
            f.values(np.zeros((3, 1)))
        with pytest.raises(sd.EmptyProjection):
            X.nearest_points(np.zeros((3, 1)))


@pytest.mark.parametrize("name, model, special", VALUE_CASES, ids=[c[0] for c in VALUE_CASES])
def test_values_reject_bad_matrices_as_the_default_does(name, model, special):
    n = model.dim
    bad = [(np.zeros(n), sd.DimensionMismatch), (np.zeros((2, n + 1)), sd.DimensionMismatch)]
    for entry in (np.nan, np.inf, -np.inf):
        X = np.zeros((2, n))
        X[1, -1] = entry
        bad.append((X, ValueError))
    for X, error in bad:
        for f in (model, ScalarOnly(model)):
            with pytest.raises(error):
                f.values(X)


@pytest.mark.parametrize("name, X, special", SETS, ids=[c[0] for c in SETS])
def test_nearest_points_reject_bad_matrices(name, X, special):
    with pytest.raises(sd.DimensionMismatch):
        X.nearest_points(np.zeros((2, X.dim + 1)))
    with pytest.raises(ValueError):
        X.nearest_points(np.full((1, X.dim), np.nan))


# ---------------------------------------------------------------------------
# fd_subderivative: one values query, folded as the per-point loop folded.
# ---------------------------------------------------------------------------


def reference_fd_quotients(f, x, w, cfg=sd.FDConfig()):
    """The per-point loop fd_subderivative ran: one value call per probe,
    each level's minimum a running min over its quotients."""
    fx = f.value(x).v
    wnorm = float(np.linalg.norm(w))
    draws, norms = _fd_perturbations(cfg.seed, cfg.levels, cfg.perturbations, f.dim)
    quotients, min_quotients = [], []
    for j in range(cfg.levels + 1):
        t = cfg.t0 * cfg.rho ** j
        q = (f.value(x + t * w).v - fx) / t
        level_min = q
        radius = min(t, 0.1 * wnorm)
        if radius > 0 and cfg.perturbations > 0:
            for probe in x + t * (w + draws[j] * (radius / norms[j])[:, None]):
                level_min = min(level_min, (f.value(probe).v - fx) / t)
        quotients.append(q)
        min_quotients.append(level_min)
    return quotients, min_quotients


class Counting(ScalarOnly):
    """ScalarOnly that also records every point ``value`` is asked about."""

    def __init__(self, inner):
        super().__init__(inner)
        self.points = []

    def value(self, x):
        self.points.append(np.array(x))
        return self.inner.value(x)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# The scalar query of a model that states its subderivative as a batch.
# ---------------------------------------------------------------------------


def _bundled():
    """Every bundled model of both catalogues, with one of its points."""
    return ([(f"batch-{name}", model, np.asarray(points[0], dtype=float))
             for name, model, points in CASES]
            + [(f"value-{name}", model, np.asarray(special[0], dtype=float))
               for name, model, special in VALUE_CASES])


BUNDLED = _bundled()


@pytest.mark.parametrize("name, model, x", BUNDLED, ids=[c[0] for c in BUNDLED])
def test_scalar_query_reads_a_list_as_its_array(name, model, x):
    w = np.random.default_rng(len(name)).normal(size=model.dim)
    assert model.subderivative(x, w.tolist()) == model.subderivative(x, w)


@pytest.mark.parametrize("name, model, x", BUNDLED, ids=[c[0] for c in BUNDLED])
def test_scalar_query_checks_the_direction_as_the_batch_does(name, model, x):
    # every bundled model, the compositions, the zero-norm composite and
    # the distances to sets among them, checks w as a row, and the batch
    # checks x as a point
    assert isinstance(model, sd.RowSubderivatives), name
    n = model.dim
    for bad in (np.zeros(n + 1), np.zeros(n - 1), np.zeros((1, n))):
        with pytest.raises(sd.DimensionMismatch):
            model.subderivative(x, bad)
        with pytest.raises(sd.DimensionMismatch):
            model.subderivatives(bad, np.zeros((1, n)))
    for entry in (np.nan, np.inf, -np.inf):
        w = np.zeros(n)
        w[-1] = entry
        with pytest.raises(ValueError, match="finite"):
            model.subderivative(x, w)
        with pytest.raises(ValueError, match="finite"):
            model.subderivatives(w, np.eye(n))


def test_bundled_models_state_each_subderivative_once():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    # each bundled model and set states its row kernel and leaves the checked
    # public queries, and the scalar subderivative, to the base classes
    bundled = {c for c in subclasses(sd.FunctionModel)
               if c.__module__.startswith("subderiv.") and c is not sd.RowSubderivatives}
    batched = {c for c in bundled if "_subderivatives" in vars(c)}
    assert {c.__name__ for c in batched} >= {"L1Norm", "SeparableMoreau", "_Sum", "_Scaled",
                                             "_Composite", "ZeroNormComposite", "DistanceToSet"}
    for c in batched:
        assert issubclass(c, sd.RowSubderivatives), c
    public = {"subderivative", "subderivatives", "values"}
    assert {c for c in bundled if public & set(vars(c))} == set()
    # each bundled model states its value once, as the scalar kernel, and
    # only the one base wraps it in an ExtReal
    assert {c for c in bundled if "value" in vars(c)} == set()
    assert "value" in vars(sd.RowSubderivatives)
    assert {c.__name__ for c in bundled if "_value" in vars(c)} >= {
        "L1Norm", "ZeroNormComposite", "SmoothModel", "SeparableMoreau", "QuadraticMoreau",
        "ReLUNetworkLoss", "DistanceToSet", "_Sum", "_Scaled", "_Composite",
        "_PointwiseExtremum", "_QuadraticBranch"}
    for c in bundled:
        if not inspect.isabstract(c):
            assert c._value is not sd.FunctionModel._value, c
    sets = {c for c in subclasses(sd.SetModel) if c.__module__.startswith("subderiv.")}
    assert {c.__name__ for c in sets if "_nearest_points" in vars(c)} >= {
        "Box", "Ball", "AffineSubspace", "Singleton", "ComplementaritySet"}
    assert {c for c in sets if "nearest_points" in vars(c)} == set()
    # each bundled set states its tangent-cone distance once, as the kernel
    concrete = {c for c in sets if not inspect.isabstract(c)}
    assert {c.__name__ for c in concrete} == {
        "Box", "Ball", "AffineSubspace", "Singleton", "ConvexPolyhedron", "FiniteUnion",
        "ComplementaritySet"}
    for c in concrete:
        assert "_tangent_distances" in vars(c), c
    assert {c for c in sets if "tangent_distance" in vars(c)} == {sd.sets._RowTangents}
    assert not hasattr(_square(), "_subsets")


# ---------------------------------------------------------------------------
# The scalar value kernel: _value(x) is value(x).v, and _values its rows.
# ---------------------------------------------------------------------------


def _kernel_cases():
    """Both catalogues, then each model behind the scalar-only wrapper."""
    cases = ([(f"batch-{name}", model, points) for name, model, points in CASES]
             + [(f"value-{name}", model, special) for name, model, special in VALUE_CASES])
    return cases + [(f"{name}-scalar-only", ScalarOnly(model), points)
                    for name, model, points in cases]


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("name, model, points", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_value_kernel_is_value_bit_for_bit(name, model, points):
    rows = _rows(model.dim, points, np.random.default_rng(len(name) + 2), k=24)
    kernel = [model._value(x) for x in rows]
    assert all(type(v) is float for v in kernel), name
    assert _bits(kernel) == _bits([model.value(x).v for x in rows]), name
    assert _bits(model._values(rows)) == _bits(kernel), name


def test_nan_from_a_user_smooth_member_raises_through_the_combinators():
    nan = sd.smooth_model(2, lambda x: math.nan, lambda x: np.zeros(2))
    one = sd.smooth_model(2, lambda x: 1.0, lambda x: np.zeros(2))
    x = np.array([0.5, -1.0])
    for f in (nan, sd.pointwise_min([one, nan]), sd.sum_models([one, nan]), sd.scale(nan, 2.0),
              sd.precompose_smooth(nan, sd.affine_map(np.eye(2)))):
        for query in (f.value, f._value, lambda x: f.values(x[None])):
            with pytest.raises(ValueError, match="NaN"):
                query(x)


def test_a_model_without_a_value_formula_stays_abstract():
    class NoValue(sd.FunctionModel):
        dim = 1

        def subderivative(self, x, w):
            return ExtReal(0.0)

    class NoValueKernel(sd.RowSubderivatives):
        dim = 1

        def _subderivatives(self, x, W):
            return np.zeros(W.shape[0])

    for cls in (NoValue, NoValueKernel):
        with pytest.raises(TypeError, match="abstract"):
            cls()


class CountingMap(sd.SemiDiffMap):
    """x -> x * x with its semi-derivative, counting evaluations of F."""

    def __init__(self, n):
        super().__init__(n, n, lambda x: x * x, lambda x, w: 2.0 * x * w)
        self.evals = 0
        self.shapes = set()

    def eval(self, x):
        self.evals += 1
        self.shapes.add(np.shape(x))
        return super().eval(x)


class CountingBox(sd.Box):
    """A box counting its membership tests, projections and tangent kernels."""

    def __init__(self, lo, hi):
        super().__init__(lo, hi)
        self.contains_calls = self.project_calls = self.tangent_calls = 0

    def contains(self, x):
        self.contains_calls += 1
        return super().contains(x)

    def project(self, x):
        self.project_calls += 1
        return super().project(x)

    def _tangent_distances(self, x, W):
        self.tangent_calls += 1
        return super()._tangent_distances(x, W)


def test_batched_query_works_out_the_point_once():
    W = np.random.default_rng(5).normal(size=(7, 2))
    x = np.array([1.5, -0.5])
    F = CountingMap(2)
    sd.precompose_semidiff(sd.L1Norm(2), F).subderivatives(x, W)
    assert F.evals == 1
    box = CountingBox(np.zeros(2), np.ones(2))
    sd.distance_to_set(box).subderivatives(x, W)
    assert (box.contains_calls, box.project_calls) == (1, 1)
    # inside the set only membership is asked, then the tangent kernel once
    sd.distance_to_set(box).subderivatives(np.array([0.5, 0.0]), W)
    assert (box.contains_calls, box.project_calls, box.tangent_calls) == (2, 1, 1)
    F, box = CountingMap(2), CountingBox(np.zeros(2), np.ones(2))
    zero = sd.smooth_model(2, lambda x: 0.0, lambda x: np.zeros(2))
    sd.penalize(zero, F, box, 1.5).subderivatives(x, W)
    assert (F.evals, box.contains_calls, box.project_calls) == (1, 1, 1)


def test_user_map_sees_each_row_once_as_a_point():
    # a map built from callables keeps the default eval_rows, a loop over eval
    assert CountingMap.eval_rows is sd.SemiDiffMap.eval_rows
    X = np.random.default_rng(6).normal(size=(5, 2))
    F = CountingMap(2)
    sd.precompose_smooth(sd.L1Norm(2), F).values(X)
    assert (F.evals, F.shapes) == (5, {(2,)})


def test_bundled_maps_and_quadratics_state_their_row_kernels():
    assert "_values" in vars(sd.oracles.QuadraticMoreau)
    assert "_values" in vars(type(sd.quadratic_model(np.zeros(2))))
    assert "_values" in vars(sd.calculus._Composite)
    for F in (sd.affine_map(np.ones((2, 3))), sd.identity_map(3)):
        assert "eval_rows" in vars(type(F)) and "semiderivative_rows" in vars(type(F)), F
        assert isinstance(F, sd.SmoothMap) and F.smoothness_constant == 0.0
    assert type(sd.relu_map(2)).eval_rows is sd.SemiDiffMap.eval_rows
    assert type(sd.relu_map(2)).semiderivative_rows is sd.SemiDiffMap.semiderivative_rows


def test_composite_rejects_a_map_output_of_the_wrong_length():
    twice = sd.SmoothMap(2, 2, lambda x: np.concatenate([x, x]),
                         lambda x, w: np.concatenate([w, w]))
    g = sd.precompose_smooth(sd.L1Norm(2), twice)
    X = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, 0.5]])
    for query in (lambda: g.value([1.0, 2.0]), lambda: g.values(X),
                  lambda: g.subderivative([1.0, 2.0], [1.0, 0.0]),
                  lambda: twice.eval_rows(X)):
        with pytest.raises(sd.DimensionMismatch):
            query()
    # a right F(x) with a wrong dF(x)w, and an F that returns a scalar
    h = sd.precompose_smooth(sd.L1Norm(2), sd.SmoothMap(
        2, 2, lambda x: x, lambda x, w: np.concatenate([w, w])))
    with pytest.raises(sd.DimensionMismatch):
        h.subderivatives(X[0], X)
    flat = sd.precompose_smooth(sd.L1Norm(1), sd.SmoothMap(2, 1, lambda x: x[0], lambda x, w: w[0]))
    for query in (lambda: flat.value(X[0]), lambda: flat.values(X)):
        with pytest.raises(sd.DimensionMismatch):
            query()
    assert twice.eval_rows(X[:0]).shape == (0, 2)


ROW_KERNEL_CASES = [c for c in VALUE_CASES if c[0] in (
    "quadratic", "sum", "quadratic_moreau", "quadratic_moreau_6", "comp_smooth",
    "comp_affine_2x3", "comp_affine_4x3", "comp_identity", "penalized")]


@pytest.mark.parametrize("name, model, special", ROW_KERNEL_CASES,
                         ids=[c[0] for c in ROW_KERNEL_CASES])
def test_value_row_kernels_match_value_at_any_row_count(name, model, special):
    rows = _rows(model.dim, special, np.random.default_rng(len(name) + 4), k=189)
    want = np.array([model.value(x.copy()).v for x in rows])
    for k in ROW_COUNTS:
        got = np.concatenate([model.values(rows[i:i + k]) for i in range(0, len(rows), k)])
        assert got.tobytes() == want.tobytes(), (name, k)


def _maps():
    rng = np.random.default_rng(20261021)
    return [("affine_2x3", sd.affine_map(rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, 2))),
            ("affine_4x3", sd.affine_map(rng.uniform(-1, 1, (4, 3)))),
            ("affine_3x3", sd.affine_map(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3))),
            ("identity", sd.identity_map(3))]


@pytest.mark.parametrize("name, F", _maps(), ids=[c[0] for c in _maps()])
def test_map_rows_match_eval_at_any_row_count(name, F):
    rows = _rows(F.dim_in, [[0.0, -0.0, 1.0]], np.random.default_rng(len(name)), k=189)
    want = np.array([F.eval(x.copy()) for x in rows])
    assert want.shape == (189, F.dim_out)
    for k in ROW_COUNTS:
        got = np.concatenate([F.eval_rows(rows[i:i + k]) for i in range(0, len(rows), k)])
        assert got.tobytes() == want.tobytes(), (name, k)
    assert F.eval_rows(rows[:0]).shape == (0, F.dim_out)


SEMIDIFF_MAPS = _maps() + [("relu", sd.relu_map(3)), ("user_square", CountingMap(3))]


@pytest.mark.parametrize("name, F", SEMIDIFF_MAPS, ids=[c[0] for c in SEMIDIFF_MAPS])
def test_map_semiderivative_rows_match_semiderivative_at_any_row_count(name, F):
    rng = np.random.default_rng(len(name) + 9)
    W = _rows(F.dim_in, [[0.0, -0.0, 1.0], [-1.0, 0.0, -0.0]], rng, k=189)
    for x in (np.array([0.0, -0.0, 1.0]), rng.uniform(-2, 2, F.dim_in)):
        want = np.array([F.semiderivative(x, w.copy()) for w in W])
        assert want.shape == (189, F.dim_out)
        for k in ROW_COUNTS:
            got = np.concatenate([F.semiderivative_rows(x, W[i:i + k])
                                  for i in range(0, len(W), k)])
            assert got.tobytes() == want.tobytes(), (name, k)
        assert F.semiderivative_rows(x, W[:0]).shape == (0, F.dim_out)


def test_quadratic_envelope_is_its_closed_form_at_n_6():
    env = {name: model for name, model, _ in VALUE_CASES}["quadratic_moreau_6"]
    K, c, r = env._K, env.inner.c, env.r
    for x in np.random.default_rng(7).uniform(-3, 3, (5, 6)):
        t = x / r - c
        want = float(x @ x) / (2 * r) - 0.5 * float(t @ np.linalg.solve(K, t))
        assert env.value(x).v == pytest.approx(want, rel=1e-10, abs=1e-10)


def reference_row(f, x, w):
    """The per-direction formula that the scalar query of a distance, of the
    zero-norm composite or of a composition ran."""
    if isinstance(f, sd.sets.DistanceToSet):
        if f.X.contains(x):
            return f.X.tangent_distance(x, w)
        pts = f.X.project(x)
        d = float(np.linalg.norm(x - pts[0]))
        return min(float(np.dot(x - y, w)) / d for y in pts)
    if isinstance(f, sd.ZeroNormComposite):
        new = (np.abs(f.A @ w) > f.support_tol) & ~(np.abs(f.A @ x + f.b) > f.support_tol)
        return np.inf if new.any() else 0.0
    return f.g.subderivative(f.F.eval(x), f.F.semiderivative(x, w)).v


def _lattice_ties(k, rng):
    """Integer points of R^{2k} where most complementarity pairs tie: at
    (a, a) with a < 0 both rays are nearest, and at (a, a) with a >= 0 both
    give the corner; -1 everywhere ties every pair."""
    a = rng.integers(-2, 2, (5, k))
    b = np.where(rng.uniform(size=(5, k)) < 0.7, a, rng.integers(-2, 2, (5, k)))
    return [-np.ones(2 * k)] + list(np.hstack([a, b]).astype(float))


ROW_REFERENCE_CASES = [c for c in VALUE_CASES if isinstance(
    c[1], (sd.sets.DistanceToSet, sd.ZeroNormComposite, sd.calculus._Composite))] + [
    ("dist_complementarity_8", sd.distance_to_set(sd.ComplementaritySet(8)),
     _lattice_ties(8, np.random.default_rng(8)))]


@pytest.mark.parametrize("name, model, special", ROW_REFERENCE_CASES,
                         ids=[c[0] for c in ROW_REFERENCE_CASES])
def test_row_formulas_match_the_per_direction_formulas(name, model, special):
    rng = np.random.default_rng(len(name) + 3)
    # directions in {-1, 0, 1}, where the terms of tied rays tie exactly
    lattice = np.random.default_rng(len(name)).integers(-1, 2, (64, model.dim)).astype(float)
    for x in [np.array(p, dtype=float) for p in special] + [rng.uniform(-2, 2, model.dim)]:
        for W in list(_direction_sets(model.dim, rng).values()) + [lattice]:
            want = np.array([reference_row(model, x, w) for w in W], dtype=float)
            assert model.subderivatives(x, W).tobytes() == want.tobytes(), name


class ExtendedNegL1(sd.NegL1Norm):
    extended_valued = True


FLAGS = ("semi_differentiable", "extended_valued", "subderivative_concave", "has_gradient",
         "is_separable", "descent_constant", "lower_bound")


def test_composite_constructors_keep_their_capability_flags():
    square = sd.SmoothMap(2, 2, lambda x: x * x, lambda x, w: 2.0 * x * w,
                          smoothness_constant=2.0)
    eye = sd.affine_map(np.eye(2))
    zero = sd.smooth_model(2, lambda x: 0.0, lambda x: np.zeros(2))
    concave = (True, False, True, False, False, None, None)
    semidiff_only = (True, False, False, False, False, None, None)
    cases = [
        (sd.precompose_smooth(sd.NegL1Norm(2), square), concave),
        (sd.precompose_smooth(sd.NegL1Norm(2), square, concave_modulus=3.0),
         (True, False, True, False, False, 6.0, None)),
        (sd.precompose_smooth(ExtendedNegL1(2), eye), (True, True, True, False, False, None, None)),
        (sd.precompose_smooth(sd.ZeroNormComposite(np.eye(2), np.zeros(2)), eye),
         (False, False, False, False, False, None, None)),
        # a semi-differentiable composite keeps neither concavity nor extended
        # values, even over a smooth map
        (sd.precompose_semidiff(ExtendedNegL1(2), sd.relu_map(2)), semidiff_only),
        (sd.precompose_semidiff(ExtendedNegL1(2), eye), semidiff_only),
        (sd.penalize(zero, sd.identity_map(2), sd.nonnegative_orthant(2), 1.5), semidiff_only),
        (sd.penalize(zero, sd.relu_map(2), sd.Singleton(np.zeros(2)), 1.0), semidiff_only),
        (sd.distance_to_set(sd.nonnegative_orthant(2)), semidiff_only),
    ]
    for i, (model, want) in enumerate(cases):
        assert tuple(getattr(model, f) for f in FLAGS) == want, i


FD_CASES = [c for c in VALUE_CASES
            if c[0] in ("l1", "moreau_l0", "max_signed_zero", "penalized", "dist_union",
                        "dist_complementarity", "dist_polyhedron", "comp_semidiff",
                        "relu[1, 1, 1]")]


@pytest.mark.parametrize("name, model, special", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_fd_quotients_match_the_per_point_loop(name, model, special):
    rng = np.random.default_rng(len(name) + 2)
    cfg = sd.FDConfig()
    points = [np.array(special[0], dtype=float)] + [rng.uniform(-2, 2, model.dim) for _ in range(3)]
    for x in points:
        for w in (rng.uniform(-1, 1, model.dim), np.zeros(model.dim)):
            got = sd.fd_subderivative(model, x, w, cfg)
            default = sd.fd_subderivative(ScalarOnly(model), x, w, cfg)
            q, qmin = reference_fd_quotients(model, x, w, cfg)
            for res in (got, default):
                assert _bits(res.quotients) == _bits(q), name
                assert _bits(res.min_quotients) == _bits(qmin), name


@pytest.mark.parametrize("cfg", [sd.FDConfig(), sd.FDConfig(levels=5, perturbations=3),
                                 sd.FDConfig(perturbations=0)])
def test_fd_asks_the_default_path_once_per_probe_point(cfg):
    # the points the per-point loop asked about, in its order, and no others
    x, w = np.array([0.5, 0.0, -1.0]), np.array([0.3, -0.2, 0.9])
    for direction, calls in ((w, 1 + (cfg.levels + 1) * (1 + cfg.perturbations)),
                             (np.zeros(3), 1 + (cfg.levels + 1))):
        f, ref = Counting(sd.L1Norm(3)), Counting(sd.L1Norm(3))
        sd.fd_subderivative(f, x, direction, cfg)
        reference_fd_quotients(ref, x, direction, cfg)
        assert len(f.points) == len(ref.points) == calls
        assert b"".join(p.tobytes() for p in f.points) == b"".join(
            p.tobytes() for p in ref.points)


class SignedZero(sd.FunctionModel):
    """0.0, and -0.0 where x_1 < 0: at x = 0 along e_0 each unperturbed
    quotient is 0.0 and each perturbed one 0.0 or -0.0, all tied."""

    @property
    def dim(self):
        return 2

    def value(self, x):
        return ExtReal(-0.0 if x[1] < 0 else 0.0)

    def subderivative(self, x, w):
        return ExtReal(0.0)


def test_fd_level_minimum_is_the_first_of_tied_quotients():
    f, x, w = SignedZero(), np.zeros(2), np.array([1.0, 0.0])
    res = sd.fd_subderivative(f, x, w)
    _, qmin = reference_fd_quotients(f, x, w, sd.FDConfig())
    assert _bits(res.min_quotients) == _bits(qmin)
    assert not any(math.copysign(1.0, q) < 0 for q in res.min_quotients)
    # the perturbed probes below the axis give -0.0 quotients on most levels,
    # so a fold that kept the last minimum would return -0.0 there
    draws, _ = _fd_perturbations(sd.FDConfig().seed, 20, 8, 2)
    assert sum(d[-1, 1] < 0 for d in draws) >= 5


def test_fd_config_rejects_a_finest_step_that_underflows():
    with pytest.raises(ValueError):
        sd.FDConfig(levels=1100)
    assert sd.FDConfig(levels=1000).levels == 1000


def reference_descent_sample(f, L, region, pairs, seed, tol=1e-9):
    """The per-pair loop descent_property_sample ran."""
    lo, hi = (np.asarray(v, dtype=float) for v in region)
    rng = np.random.default_rng(seed)
    violations, max_gap = [], -np.inf
    for _ in range(pairs):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        gap = f.value(y).v - (f.value(x).v + f.subderivative(x, y - x).v
                              + 0.5 * L * float(np.dot(y - x, y - x)))
        if math.isnan(gap):
            continue
        max_gap = max(max_gap, gap)
        if gap > tol:
            violations.append((x, y, gap))
    return violations, float(max_gap)


@pytest.mark.parametrize("name", ["dc", "moreau_l0", "union"])
def test_descent_sample_matches_the_per_pair_loop(name):
    f = {"dc": sd.sum_models([sd.quadratic_model(np.zeros(2)), sd.NegL1Norm(2)]),
         "moreau_l0": sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=2),
         "union": sd.distance_to_set(_union())}[name]
    region = (np.full(2, -3.0), np.full(2, 3.0))
    for L in (0.0, 0.5, 2.0):
        rep = sd.descent_property_sample(f, L, region, 40, seed=3)
        violations, max_gap = reference_descent_sample(f, L, region, 40, 3)
        assert rep.pairs == 40 and rep.max_gap == max_gap
        assert len(rep.violations) == len(violations)
        for (x, y, gap), (x0, y0, gap0) in zip(rep.violations, violations):
            assert x.tobytes() == x0.tobytes() and y.tobytes() == y0.tobytes() and gap == gap0
