"""Set models: projection completeness, tangent distances, distance oracles."""

import itertools
import time

import numpy as np
import pytest

import subderiv as sd
from subderiv.extreal import ExtReal


def bundled_sets():
    union = sd.FiniteUnion([
        sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                            np.array([1.0, 0.0, 1.0, 1.0])),      # [0,1] x [-1,1]
        sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                            np.array([-2.0, 3.0, 0.5, 0.5])),     # [-3,-2] x [-.5,.5]
    ])
    return [
        ("box", sd.Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))),
        ("ball", sd.Ball(np.array([0.5, -0.5]), 1.5)),
        ("affine", sd.AffineSubspace(np.array([[1.0, 1.0]]), np.array([1.0]))),
        ("singleton", sd.Singleton(np.array([1.0, -1.0]))),
        ("orthant", sd.nonnegative_orthant(2)),
        ("union", union),
        ("complementarity", sd.ComplementaritySet(1)),
        ("polyhedron", sd.ConvexPolyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                                           np.array([1.0, 0.0, 0.0]))),   # a triangle
    ]


@pytest.mark.parametrize("name,X", bundled_sets())
def test_projections_land_in_set_with_equal_norms(name, X, rng):
    for _ in range(40):
        x = rng.uniform(-3, 3, X.dim)
        pts = X.project(x)
        assert pts, "projection must be nonempty"
        dists = [np.linalg.norm(x - p) for p in pts]
        assert max(dists) - min(dists) <= 1e-12
        for p in pts:
            assert X.contains(p)


@pytest.mark.parametrize("name,X", bundled_sets())
def test_projection_beats_random_feasible_points(name, X, rng):
    # Independent check of nearest-point optimality: no sampled member of the
    # set is closer than the returned projection.
    for _ in range(15):
        x = rng.uniform(-3, 3, X.dim)
        d = np.linalg.norm(x - X.project(x)[0])
        for _ in range(60):
            z = rng.uniform(-3, 3, X.dim)
            q = X.project(z)[0]  # a feasible point
            assert np.linalg.norm(x - q) >= d - 1e-9


@pytest.mark.parametrize("name,X", bundled_sets())
def test_tangent_distance_zero_for_feasible_directions(name, X, rng):
    # If x + t w stays in the set for small t > 0, then dist(w; T_X(x)) = 0.
    hits = 0
    for _ in range(200):
        x = X.project(rng.uniform(-3, 3, X.dim))[0]
        z = X.project(rng.uniform(-3, 3, X.dim))[0]
        w = z - x
        if np.linalg.norm(w) < 1e-9:
            continue
        if all(X.contains(x + t * w) for t in (1e-3, 1e-2, 0.1)):
            assert X.tangent_distance(x, w) <= 1e-9
            hits += 1
    # A singleton admits no nonzero feasible direction; everywhere else the
    # sampler must actually exercise the zero-distance branch.
    if not isinstance(X, sd.Singleton):
        assert hits > 0


def test_box_tangent_distance_values():
    X = sd.Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    # At the corner (0, 0): inward ok, outward measures the violation.
    assert X.tangent_distance(np.zeros(2), np.array([1.0, 1.0])) == 0.0
    assert X.tangent_distance(np.zeros(2), np.array([-2.0, 0.0])) == pytest.approx(2.0)
    assert X.tangent_distance(np.zeros(2), np.array([-1.0, -1.0])) == pytest.approx(np.sqrt(2))
    # Interior point: every direction is tangent.
    assert X.tangent_distance(np.array([0.5, 0.5]), np.array([-9.0, 4.0])) == 0.0


def test_ball_tangent_halfspace():
    X = sd.Ball(np.zeros(2), 1.0)
    x = np.array([1.0, 0.0])
    assert X.tangent_distance(x, np.array([-1.0, 0.3])) == 0.0
    assert X.tangent_distance(x, np.array([2.0, 0.0])) == pytest.approx(2.0)


def test_affine_projection_and_tangent():
    X = sd.AffineSubspace(np.array([[1.0, 1.0]]), np.array([1.0]))
    p = X.project(np.array([1.0, 1.0]))[0]
    assert p == pytest.approx(np.array([0.5, 0.5]))
    assert X.tangent_distance(p, np.array([1.0, -1.0])) <= 1e-12
    assert X.tangent_distance(p, np.array([1.0, 1.0])) == pytest.approx(np.sqrt(2))


def test_union_returns_all_tied_projections():
    # Two intervals [0,1] and [2,3] on the line; x = 1.5 ties.
    A = np.array([[1.0], [-1.0]])
    union = sd.FiniteUnion([sd.ConvexPolyhedron(A, np.array([1.0, 0.0])),
                            sd.ConvexPolyhedron(A, np.array([3.0, -2.0]))])
    pts = union.project(np.array([1.5]))
    got = sorted(float(p[0]) for p in pts)
    assert got == pytest.approx([1.0, 2.0])


def _triangle_and_square():
    return [sd.ConvexPolyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                                np.array([1.0, 0.0, 0.0])),
            sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                                np.array([1.0, 0.0, 1.0, 1.0]))]


def test_polyhedron_is_a_set_model_matching_the_one_piece_union():
    # distance_to_set(ConvexPolyhedron(A, b)) used to raise AttributeError:
    # the polyhedron had no geometrically_derivable flag and no project.
    rng = np.random.default_rng(5)
    for P in _triangle_and_square():
        assert isinstance(P, sd.SetModel) and P.geometrically_derivable
        f, g = sd.distance_to_set(P), sd.distance_to_set(sd.FiniteUnion([P]))
        assert f.semi_differentiable
        inside = outside = 0
        for x in [np.array([0.25, 0.25]), np.array([0.0, 0.5])] + list(rng.uniform(-2, 2, (40, 2))):
            inside += P.contains(x)
            outside += not P.contains(x)
            assert f.value(x) == g.value(x)
            for w in rng.normal(size=(4, 2)):
                assert f.subderivative(x, w) == g.subderivative(x, w)
        assert inside >= 2 and outside >= 10


def test_polyhedral_points_are_their_own_nearest_points():
    # x itself is the first candidate of least distance for a point of the
    # set. On the halfspace x0 + x1 <= 0 at (-0.0, -0.0), A x - b is -0.0,
    # and the facet's own candidate x - pinv (A x - b), also at distance 0,
    # is (0.0, 0.0).
    halfspace = sd.ConvexPolyhedron(np.array([[1.0, 1.0]]), np.array([0.0]))
    cases = [(P, [[-0.0, 0.5], [0.25, -0.0], [0.25, 0.25]]) for P in _triangle_and_square()]
    cases.append((halfspace, [[-0.0, -0.0], [-1.0, 1.0], [-0.0, -1.0]]))
    for P, points in cases:
        for X in (P, sd.FiniteUnion([P])):
            for x in map(np.array, points):
                assert X.contains(x)
                assert X.project(x)[0].tobytes() == x.tobytes()
                assert X.nearest_points(x[None, :])[0].tobytes() == x.tobytes()


def test_complementarity_membership_and_projection():
    X = sd.ComplementaritySet(1)
    assert X.contains(np.array([-2.0, 0.0]))
    assert X.contains(np.array([0.0, -1.0]))
    assert not X.contains(np.array([-1.0, -1.0]))
    assert not X.contains(np.array([1.0, 0.0]))
    # (-1, -1) is equidistant from both rays.
    pts = X.project(np.array([-1.0, -1.0]))
    got = sorted(tuple(p) for p in pts)
    assert got == [(-1.0, 0.0), (0.0, -1.0)]


def test_complementarity_tie_found_at_large_scale():
    # The distances to the two rays agree up to rounding, 2.2e-7 apart at
    # 9e8: an absolute 1e-12 tie tolerance kept one projection and gave
    # d dist(x)(e1) = 0 where finite differences give about -1.
    X = sd.ComplementaritySet(1)
    dist = sd.distance_to_set(X)
    e1 = np.array([1.0, 0.0])
    x = np.array([-1e5 * (0.1 + 0.2), -1e5 * 0.3])
    assert len(X.project(x)) == 2
    assert dist.subderivative(x, e1).v == pytest.approx(-1.0)
    assert sd.fd_subderivative(dist, x, e1).estimate.v == pytest.approx(-1.0, abs=1e-2)
    assert dist.subderivative(1e-5 * x, e1).v == pytest.approx(-1.0)


@pytest.mark.parametrize("x", [(-(0.1 + 0.2), -0.3), (-1.0, -1.0), (-1.0, -1.0 - 1e-10),
                               (-1.0, -2.0), (-1.0, 0.5), (0.0, 0.0)])
def test_complementarity_projection_count_is_scale_free(x):
    X = sd.ComplementaritySet(1)
    counts = {lam: len(X.project(lam * np.array(x))) for lam in (1e-3, 1.0, 1e5)}
    assert len(set(counts.values())) == 1, counts


_TIED_PAIRS = [(-0.3, -0.3), (-(0.1 + 0.2), -0.3), (-0.3, -(0.1 + 0.2)),
               (-1e5 * (0.1 + 0.2), -1e5 * 0.3), (-1e5 * 0.3, -1e5 * (0.1 + 0.2))]


def test_complementarity_support_kernel_is_the_walk_within_its_summation_rounding():
    # The O(k) kernel scores one nearest point per row, where the default
    # walk takes the least of 2^t rounded vecdots; at a tied pair whose two
    # terms tie exactly off the integer lattice those round apart by at most
    # a few ulps of sum |w_i||x_i|. Normal directions and lattice points agree
    # bit for bit, and so does the distance.
    rng = np.random.default_rng(0)
    differ = 0
    for k in range(1, 9):
        X = sd.ComplementaritySet(k)
        for p in range(24):
            lattice = p % 4 == 3
            tie = rng.random(k) < 0.7
            if lattice:
                a, b = np.round(3 * rng.standard_normal((2, k)))
                c = -rng.integers(1, 4, k).astype(float)
                a, b = np.where(tie, c, a), np.where(tie, c, b)
            else:
                a, b = rng.standard_normal((2, k))
                pairs = np.array(_TIED_PAIRS)[rng.integers(len(_TIED_PAIRS), size=k)]
                a, b = np.where(tie, pairs[:, 0], a), np.where(tie, pairs[:, 1], b)
            x = np.concatenate([a, b])
            for normal in (False, True):
                W = (rng.standard_normal((100, 2 * k)) if normal
                     else rng.integers(-1, 2, (100, 2 * k)).astype(float))
                d, got = X._nearest_support(x, W)
                d_walk, want = sd.SetModel._nearest_support(X, x, W)
                assert d == d_walk
                if normal or lattice:
                    assert got.tobytes() == want.tobytes()
                else:
                    assert (np.abs(got - want) <= 8 * np.spacing(np.abs(W) @ np.abs(x))).all()
                    differ += int((got != want).sum())
    assert differ > 0      # the sweep reaches rows the kernel rounds apart


def test_complementarity_tangent_at_corner():
    X = sd.ComplementaritySet(1)
    origin = np.zeros(2)
    assert X.tangent_distance(origin, np.array([-1.0, 0.0])) == 0.0
    assert X.tangent_distance(origin, np.array([0.0, -3.0])) == 0.0
    assert X.tangent_distance(origin, np.array([-1.0, -1.0])) == pytest.approx(1.0)
    assert X.tangent_distance(origin, np.array([1.0, 1.0])) == pytest.approx(np.sqrt(2))
    # On a ray interior, movement along the ray is free.
    assert X.tangent_distance(np.array([-1.0, 0.0]), np.array([5.0, 0.0])) == 0.0
    assert X.tangent_distance(np.array([-1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_distance_oracle_singleton_examples():
    f = sd.distance_to_set(sd.Singleton(np.zeros(2)))
    x = np.array([3.0, 4.0])
    assert f.value(x) == ExtReal(5.0)
    assert f.subderivative(x, np.array([1.0, 0.0])).v == pytest.approx(3.0 / 5.0)
    # At the point itself, T = {0} so d f(0)(w) = ||w||.
    w = np.array([0.3, -0.4])
    assert f.subderivative(np.zeros(2), w).v == pytest.approx(0.5)


def test_distance_oracle_orthant_example():
    f = sd.distance_to_set(sd.nonnegative_orthant(2))
    got = f.subderivative(np.array([1.0, -2.0]), np.array([0.0, 1.0]))
    assert got.v == pytest.approx(-1.0)


@pytest.mark.parametrize("name,X", bundled_sets())
def test_distance_oracle_is_1_lipschitz_with_bounded_subderivative(name, X, rng):
    f = sd.distance_to_set(X)
    for _ in range(40):
        x = rng.uniform(-3, 3, X.dim)
        y = rng.uniform(-3, 3, X.dim)
        assert abs(f.value(x).v - f.value(y).v) <= np.linalg.norm(x - y) + 1e-12
        w = rng.uniform(-1, 1, X.dim)
        assert f.subderivative(x, w).v <= np.linalg.norm(w) + 1e-12


@pytest.mark.parametrize("name,X", bundled_sets())
def test_distance_oracle_semidifferentiable_flag(name, X):
    assert sd.distance_to_set(X).semi_differentiable


@pytest.mark.parametrize("name,X", bundled_sets())
def test_tangent_distance_checks_its_point_and_direction(name, X):
    # Box(0, 1).tangent_distance([5], [1]) used to answer 0.0 off the set, and
    # the polyhedron answered nan for a nan direction
    n = X.dim
    on = X.project(np.full(n, 0.3))[0]
    off = next(p for p in (np.full(n, 5.0), np.full(n, -5.0)) if not X.contains(p))
    w = np.ones(n)
    assert X.tangent_distance(on, w) >= 0.0
    with pytest.raises(sd.NotFeasible):
        X.tangent_distance(off, w)
    for x, v in ((np.zeros(n + 1), w), (on, np.zeros(n + 1)), (on, np.zeros((1, n)))):
        with pytest.raises(sd.DimensionMismatch):
            X.tangent_distance(x, v)
    for entry in (np.nan, np.inf, -np.inf):
        bad = np.ones(n)
        bad[-1] = entry
        for x, v in ((bad, w), (on, bad)):
            with pytest.raises(ValueError, match="finite"):
                X.tangent_distance(x, v)


class CountingComplementarity(sd.ComplementaritySet):
    """A complementarity set counting its projections."""

    def __init__(self, k):
        super().__init__(k)
        self.project_calls = 0

    def project(self, x):
        self.project_calls += 1
        return super().project(x)


def test_distance_value_reads_one_nearest_point():
    # at x = -1 every pair ties, and project enumerates all 2^16 nearest points
    X = CountingComplementarity(16)
    f = sd.distance_to_set(X)
    x = -np.ones(32)
    got = f.value(x).v
    assert got == 4.0 and np.float64(got).tobytes() == f.values(x[None]).tobytes()
    assert X.project_calls == 0


def test_distance_subderivatives_skip_the_tied_corner_points():
    # at x = -1 every one of the 32 pairs ties, so there are 2^32 nearest
    # points; the least <w, x - y> over them is -sum_i max(u_i, v_i)
    X = CountingComplementarity(32)
    f = sd.distance_to_set(X)
    W = np.random.default_rng(32).integers(-3, 4, (189, 64)).astype(float)
    start = time.perf_counter()
    got = f.subderivatives(-np.ones(64), W)
    elapsed = time.perf_counter() - start
    assert X.project_calls == 0
    want = -np.maximum(W[:, :32], W[:, 32:]).sum(1) / np.sqrt(32.0)
    assert got.tobytes() == want.tobytes()
    assert elapsed < 0.5


class _NoProjection(sd.SetModel):
    @property
    def dim(self):
        return 1

    def contains(self, x):
        return False

    def project(self, x):
        return []

    def tangent_distance(self, x, w):
        return 0.0


def test_distance_oracle_empty_projection():
    f = sd.distance_to_set(_NoProjection())
    with pytest.raises(sd.EmptyProjection):
        f.value(np.zeros(1))


def _left_to_right(M, v):
    """M v with each entry summed left to right, as the set kernels sum."""
    out = M[..., 0] * v[0]
    for j in range(1, len(v)):
        out = out + M[..., j] * v[j]
    return out


def _per_call_tangent_distance(P, x, w):
    """ConvexPolyhedron.tangent_distance with a fresh pinv per active subset,
    products and norms summed left to right, and the v = 0 candidate as
    sqrt(w . w)."""
    tol = sd.sets._MEMBERSHIP_TOL
    row_tol = tol * np.maximum(1.0, np.abs(P.A) @ np.abs(x) + np.abs(P.b))
    active = np.flatnonzero(P.A @ x >= P.b - row_tol)
    if active.size == 0:
        return 0.0
    Aact = P.A[active, :]
    if np.all(_left_to_right(Aact, w) <= tol):
        return 0.0
    best = float(np.sqrt(np.dot(w, w)))
    for r in range(1, active.size + 1):
        for S in itertools.combinations(range(active.size), r):
            rows = Aact[list(S), :]
            v = w - _left_to_right(np.linalg.pinv(rows), _left_to_right(rows, w))
            if np.all(_left_to_right(Aact, v) <= tol):
                best = min(best, float(np.sqrt(_left_to_right(w - v, w - v))))
    return best


def _random_polyhedron_cases(rng):
    for active in (2, 3, 4):
        for dim in (2, 3, 4):
            for _ in range(6):
                x = rng.uniform(-2, 2, dim)
                A = rng.normal(size=(active + rng.integers(3), dim))
                b = A @ x
                b[active:] += rng.uniform(0.5, 2.0, A.shape[0] - active)
                yield sd.ConvexPolyhedron(A, b), x


def _union_cases(rng):
    pieces = [
        sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                            np.array([1.0, 0.0, 1.0, 1.0])),
        sd.ConvexPolyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                            np.array([-1.0, 3.0, 3.0])),
    ]
    corners = [np.array([1.0, 1.0]), np.array([0.0, -1.0]), np.array([-3.0, 2.0]),
               np.array([2.0, -3.0]), np.array([-3.0, -3.0])]
    for P in pieces:
        for _ in range(20):
            yield P, P.project(rng.uniform(-4, 4, 2))[0]
        for c in corners:
            if P.contains(c):
                yield P, c


def test_polyhedron_tangent_distance_matches_per_call_pinv(rng):
    moved = 0
    for P, x in list(_union_cases(rng)) + list(_random_polyhedron_cases(rng)):
        for _ in range(8):
            w = rng.normal(size=P.dim)
            want = _per_call_tangent_distance(P, x, w)
            assert P.tangent_distance(x, w) == want
            moved += want > 0
    assert moved > 100


def _mirror_pairs(seed, trials):
    """Random 3-row polyhedra {A y <= b}, each with its mirror {-A y <= b},
    in dimension 2 and 3, as (A, b, dim) with x = 0 outside both."""
    rng = np.random.default_rng(seed)
    for t in range(trials):
        dim = 2 + t % 2
        A = rng.normal(size=(3, dim))
        b = rng.normal(size=3)
        if np.any(b < 0):
            yield A, b, dim


def _mirror_union(A, b, lam):
    return sd.FiniteUnion([sd.ConvexPolyhedron(A, lam * b), sd.ConvexPolyhedron(-A, lam * b)])


def test_polyhedron_mirror_pairs_keep_both_projections_at_large_scale():
    # With an absolute 1e-9 membership tolerance, A y <= b + 1e-9 rejected
    # the exact projection onto both pieces of 5 of these pairs once b was
    # scaled by 1e5 (rounding in A y is about 1e-9 there), and the union
    # returned no nearest point instead of two.
    kept = 0
    for A, b, dim in _mirror_pairs(5, 460):
        if len(_mirror_union(A, b, 1.0).project(np.zeros(dim))) == 2:
            assert len(_mirror_union(A, b, 1e5).project(np.zeros(dim))) == 2
            kept += 1
    assert kept > 300


def test_polyhedron_union_distance_and_ties_scale_with_the_set():
    # dist_{lam S}(lam x) = lam dist_S(x), with as many tied projections, and
    # the tangent cone at a projection does not depend on lam.
    rng = np.random.default_rng(11)
    for A, b, dim in _mirror_pairs(6, 120):
        for x in (np.zeros(dim), rng.uniform(-2, 2, dim)):
            base = _mirror_union(A, b, 1.0)
            pts = base.project(x)
            if not pts:
                continue
            d = np.linalg.norm(x - pts[0])
            w = rng.normal(size=dim)
            cone = base.tangent_distance(pts[0], w)
            for lam in (1e-3, 1e5):
                X = _mirror_union(A, b, lam)
                got = X.project(lam * x)
                assert len(got) == len(pts)
                assert np.linalg.norm(lam * x - got[0]) == pytest.approx(lam * d, rel=1e-9)
                assert X.tangent_distance(lam * pts[0], w) == pytest.approx(cone, rel=1e-6,
                                                                           abs=1e-9)
