"""Set models: projection completeness, tangent distances, distance oracles."""

import itertools
import time

import numpy as np
import pytest

import subderiv as sd
from subderiv.extreal import ExtReal, ulp_tied_arrays

from conftest import per_call_tangent_distance


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


def _unique_projection_cases():
    """(name, set, points inside, on the boundary and outside)."""
    return [
        ("box", sd.Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
         [[0.5, 1.0], [1.0, 2.0], [-1.0, 0.5], [3.0, -0.5], [-0.0, 5.0]]),
        ("ball", sd.Ball(np.array([0.5, -0.5]), 1.5),
         [[0.5, -0.5], [2.0, -0.5], [0.5, 1.0], [3.0, 3.0], [-4.0, 0.1]]),
        ("affine", sd.AffineSubspace(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
                                     np.array([1.0, 0.5])),
         [[1.0, 0.0, -0.5], [0.0, 0.0, 0.0], [3.0, -2.0, 7.0]]),
        ("singleton", sd.Singleton(np.array([1.0, -1.0])), [[1.0, -1.0], [-0.0, 0.0], [4.0, 2.5]]),
        ("orthant", sd.nonnegative_orthant(3),
         [[1.0, 2.0, 3.0], [0.0, 1.0, -0.0], [-1.0, 2.0, -3.0], [-2.0, -0.5, -1.0]]),
    ]


UNIQUE_PROJECTION_CASES = _unique_projection_cases()


@pytest.mark.parametrize("name, X, points", UNIQUE_PROJECTION_CASES,
                         ids=[c[0] for c in UNIQUE_PROJECTION_CASES])
def test_unique_projection_support_kernel_is_the_walk(name, X, points):
    # one nearest point, one row of the projection kernel and one vecdot: the
    # default walk over project(x), bit for bit, distance included
    rng = np.random.default_rng(len(name))
    for x in map(np.array, points):
        for k in (1, 2, 7):
            W = rng.normal(size=(k, X.dim))
            d, got = X._nearest_support(x, W)
            d_walk, want = sd.SetModel._nearest_support(X, x, W)
            assert np.float64(d).tobytes() == np.float64(d_walk).tobytes(), (name, x)
            assert got.tobytes() == want.tobytes(), (name, x, k)


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


def _random_polyhedron_cases(rng):
    for active in (2, 3, 4):
        for dim in (2, 3, 4):
            for _ in range(6):
                x = rng.uniform(-2, 2, dim)
                A = rng.normal(size=(active + rng.integers(3), dim))
                b = A @ x
                b[active:] += rng.uniform(0.5, 2.0, A.shape[0] - active)
                yield sd.ConvexPolyhedron(A, b), x


def _union_pieces():
    """The pieces of the union that the benchmark's FD checks use."""
    return [
        sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                            np.array([1.0, 0.0, 1.0, 1.0])),
        sd.ConvexPolyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                            np.array([-1.0, 3.0, 3.0])),
    ]


def _union_cases(rng):
    pieces = _union_pieces()
    corners = [np.array([1.0, 1.0]), np.array([0.0, -1.0]), np.array([-3.0, 2.0]),
               np.array([2.0, -3.0]), np.array([-3.0, -3.0])]
    for P in pieces:
        for _ in range(20):
            yield P, P.project(rng.uniform(-4, 4, 2))[0]
        for c in corners:
            if P.contains(c):
                yield P, c


def test_polyhedron_tangent_distance_matches_per_call_pinv(rng):
    # the least-distance solve on the active rows rounds otherwise than the
    # enumeration's pinv per subset: within 1e-12 relative, and 0 where it is 0
    moved = 0
    for P, x in list(_union_cases(rng)) + list(_random_polyhedron_cases(rng)):
        for _ in range(8):
            w = rng.normal(size=P.dim)
            want = per_call_tangent_distance(P, x, w)
            assert P.tangent_distance(x, w) == pytest.approx(want, rel=1e-12, abs=0.0)
            moved += want > 0
    assert moved > 100


def _enumerated_projection(P, x):
    """The least ||x - y|| over the candidates y = x - pinv(A_S) (A_S x - b_S)
    of every subset S of rows (m <= 8) that hold every row within the 8 n ulp
    band, +inf where none does: the projection by enumeration."""
    best = np.inf
    for r in range(P.A.shape[0] + 1):
        for S in map(list, itertools.combinations(range(P.A.shape[0]), r)):
            y = x - np.linalg.pinv(P.A[S]) @ (P.A[S] @ x - P.b[S]) if S else x
            residual, band = sd.sets._residual_band(P.A, P.b, y[None, :])
            if np.all(residual <= band):
                best = min(best, float(np.linalg.norm(x - y)))
    return best


def test_polyhedron_projection_is_never_farther_than_the_enumeration():
    # The enumeration's row floor, 1e-9 max(1, (|A| |y|)_i + |b_i|), took points
    # that were not nearest at |x| ~ 1e6 (4e-8 to 6e-7 relative) and outside a
    # row by 5.7e-10 at |x| ~ 1e-6. The least-distance point holds every row
    # within its band and is at most 1e-12 relative farther than any
    # enumerated candidate that does.
    rng = np.random.default_rng(16)
    compared = 0
    for _ in range(60):
        m, n = rng.integers(3, 9), rng.integers(2, 4)
        A, b = rng.normal(size=(m, n)), rng.normal(size=m)
        for scale in (1e-6, 1.0, 1e6):
            P = sd.ConvexPolyhedron(A, scale * b)
            for x in scale * rng.normal(scale=3.0, size=(3, n)):
                want = _enumerated_projection(P, x)
                if np.isfinite(want):
                    got = P.project(x)[0]
                    residual, band = sd.sets._residual_band(P.A, P.b, got[None, :])
                    assert np.all(residual <= band)
                    assert np.linalg.norm(x - got) <= want * (1 + 1e-12), (A, b, scale, x)
                    compared += 1
    assert compared > 150


def test_polyhedron_points_project_to_read_zero_and_take_the_tangent_branch():
    rng = np.random.default_rng(20)
    for _ in range(40):
        m, n = rng.integers(3, 9), rng.integers(2, 4)
        P = sd.ConvexPolyhedron(rng.normal(size=(m, n)), rng.uniform(0.1, 1.0, m))
        f = sd.distance_to_set(P)
        for x in 10.0 ** rng.integers(-6, 7) * rng.normal(size=(4, n)):
            y = P.project(x)[0]
            W = rng.normal(size=(3, n))
            assert f.value(y).v == 0.0
            assert np.array_equal(f.subderivatives(y, W), P._tangent_distances(y, W))


def test_a_tiny_square_is_not_taken_for_the_point_beside_it():
    # The row floor counted x = (6e-10, 5e-11), 5e-10 off [0, 1e-10]^2, as on
    # it: the distance read 0.0 and +1.0 along -e1, and the fallback
    # certified the penalty stationary with value +0.029.
    P = sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                            np.array([1e-10, 0.0, 1e-10, 0.0]))
    x = np.array([6e-10, 5e-11])
    f = sd.distance_to_set(P)
    assert f.value(x).v == pytest.approx(5e-10, rel=1e-15)
    assert f.subderivative(x, [-1.0, 0.0]) == ExtReal(-1.0)
    pen = sd.penalize(sd.linear_model([0.5, 0.0]), sd.identity_map(2), P, 1.0)
    stationary, res = sd.check_d_stationary(pen, x, 1e-6)
    assert not stationary and res.value.v < 0.0


def test_a_pointed_cone_projects_far_points_onto_its_apex():
    # {0} as three rows through 0: x - pinv (A_S x) missed the row tolerance
    # by rounding that grows with |x|, so the far point raised EmptyProjection
    A = np.array([[0.24978537155866684, 1.0314530848694723],
                  [0.16100957671534466, -0.5855288241233366],
                  [-1.341219714076669, -1.401520214917428]])
    P = sd.ConvexPolyhedron(A, np.zeros(3))
    f = sd.distance_to_set(P)
    for x in np.array([[3862119.1633136133, 5332072.236982621],
                       [3862.1191633136133, 5332.072236982621], [-1e-6, 3e-7]]):
        assert P.project(x)[0].tolist() == [0.0, 0.0]
        assert f.value(x).v == np.linalg.norm(x)


def test_repeated_and_zero_rows_project_as_without_them():
    rng = np.random.default_rng(8)
    A, b = rng.normal(size=(4, 3)), rng.uniform(0.5, 1.0, 4)
    plain = sd.ConvexPolyhedron(A, b)
    for extra_A, extra_b in ((A[:2], b[:2]), (-A[:1], b[:1] + 5.0), (np.zeros((1, 3)), [1.0])):
        P = sd.ConvexPolyhedron(np.vstack([A, extra_A]), np.concatenate([b, extra_b]))
        for x in rng.normal(scale=3.0, size=(6, 3)):
            assert P.project(x)[0] == pytest.approx(plain.project(x)[0], rel=1e-12, abs=1e-15)
    zero_row = sd.ConvexPolyhedron(np.vstack([A, np.zeros((1, 3))]), np.append(b, -1.0))
    assert zero_row.project(np.ones(3)) == []   # 0 <= -1 holds nowhere


def test_a_singular_system_in_a_stack_is_reported_and_the_rest_solved_alone():
    M = np.array([[[2.0, 0.0], [0.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]]])
    R = np.array([[2.0, 2.0], [1.0, 1.0], [5.0, 6.0]])
    z, solved = sd.sets._solve(M, R)
    assert solved.tolist() == [True, False, True]
    for i in (0, 2):
        assert z[i].tobytes() == np.linalg.solve(M[i], R[i]).tobytes()


def test_an_empty_polyhedron_has_no_nearest_point():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        a = rng.normal(size=n)
        A = np.vstack([a, -a, rng.normal(size=(2, n))])   # a y <= -1 and a y >= 1
        P = sd.ConvexPolyhedron(A, np.array([-1.0, -1.0, 1.0, 1.0]))
        for x in rng.normal(scale=3.0, size=(5, n)):
            assert P.project(x) == []
            with pytest.raises(sd.EmptyProjection):
                sd.distance_to_set(P).value(x)
        # a union skips the empty piece
        box = sd.ConvexPolyhedron(np.vstack([np.eye(n), -np.eye(n)]), np.ones(2 * n))
        assert sd.FiniteUnion([P, box]).project(np.full(n, 3.0))[0].tolist() == [1.0] * n


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
    # d dist_{lam X}(lam x)(w) = d dist_X(x)(w) at points 5e-10 lam off the set
    # and on it, at every scale: an absolute 1e-9 in membership and in the face
    # tests took the inside formula off the set and marked far faces active.
    # lam (1 + 5e-10) - lam keeps about 7 digits of the offset's direction.
    off, W = 5e-10, rng.normal(size=(6, 2))
    triangle, pieces = _triangle_and_square()[0], _union_pieces()
    cases = [(lambda lam: sd.Box(lam * np.array([-1.0, 0.0]), lam * np.array([1.0, 2.0])),
              [[1.0 + off, 1.0], [1.0 + off, 2.0 + off], [-1.0 - off, -off], [1.0, 2.0],
               [1.0, 0.5]]),
             (lambda lam: sd.Ball(lam * np.array([0.5, -0.5]), lam * 1.5),
              [[0.5 + 1.5 + off, -0.5], [0.5, -0.5 - 1.5 - off], [0.5, 1.0 + off]]),
             (lambda lam: sd.ComplementaritySet(1),
              [[-1.0, off], [off, -2.0], [off, off], [-off, -3.0], [-1.0, 0.0], [0.0, 0.0]]),
             (lambda lam: sd.ConvexPolyhedron(triangle.A, lam * triangle.b),
              [[0.5 + off, 0.5 + off], [-off, 0.5], [-off, -off], [0.5, 0.5], [0.0, 0.25]]),
             (lambda lam: sd.FiniteUnion([sd.ConvexPolyhedron(P.A, lam * P.b) for P in pieces]),
              [[1.0 + off, 0.5], [-1.0 - off, -1.0], [0.5, 1.0], [-2.0, 1.0 + off], [1.0, 1.0]])]
    for make, points in cases:
        for x in map(np.array, points):
            want = sd.distance_to_set(make(1.0)).subderivatives(x, W)
            for lam in (1e-10, 1e-5, 1.0, 1e5, 1e10):
                got = sd.distance_to_set(make(lam)).subderivatives(lam * x, W)
                assert got == pytest.approx(want, rel=1e-5, abs=1e-12), (make(lam), x, lam)


ROW_COUNTS = (1, 2, 3, 64, 189)


def _every_piece(union, X):
    """The union's pieces with none skipped: every piece's ``_nearest`` on every
    row, shapes (k, pieces, n) and (k, pieces), the ties by ``ulp_tied``."""
    found = [p._nearest(X) for p in union.pieces]
    d = np.stack([dist for dist, _ in found], axis=1)
    return np.stack([y for _, y in found], axis=1), ulp_tied_arrays(d, d.min(axis=1, keepdims=True))


def _every_piece_project(union, x):
    Y, tied = _every_piece(union, x[None, :])
    out = []
    for y in Y[0][tied[0]]:
        if not any(ulp_tied_arrays(y, z).all() for z in out):
            out.append(y)
    return out


def _every_piece_subderivatives(union, x, W):
    """The distance's subderivatives from ``_every_piece``, by the walk over its
    nearest points off the union and the pieces at d = 0.0 on it."""
    pts = _every_piece_project(union, x)
    d = np.sqrt(np.vecdot(x - pts[0], x - pts[0]))
    if d == 0.0:
        on = [p for p in union.pieces if p._nearest(x[None, :])[0][0] == 0.0]
        return np.minimum.reduce([p._tangent_distances(x, W) for p in on])
    support = np.vecdot(W, x - pts[0])
    for y in pts[1:]:
        v = np.vecdot(W, x - y)
        support = np.where(v < support, v, support)
    return support / d


def _pruning_unions(rng, scale):
    """Unions of 2-5 polyhedra at ``scale``: random pieces with an empty one, with a
    duplicated one (exact ties) and with a mirror pair tied at x = 0."""
    def piece(n):
        A = rng.normal(size=(rng.integers(2, 6), n))
        return sd.ConvexPolyhedron(A, A @ rng.normal(scale=2 * scale, size=n)
                                   + rng.uniform(0.2, 1.0, len(A)) * scale)

    a = rng.normal(size=3)
    empty = sd.ConvexPolyhedron(np.vstack([a, -a]), np.array([-scale, -scale]))
    yield [piece(3), empty] + [piece(3) for _ in range(rng.integers(0, 3))]
    dup = piece(2)
    copy = sd.ConvexPolyhedron(dup.A.copy(), dup.b.copy())
    yield [dup, copy] + [piece(2) for _ in range(rng.integers(0, 2))]
    for A, b, dim in _mirror_pairs(7, 4):
        mirror = list(_mirror_union(A, b, scale).pieces)
        yield mirror + [piece(dim) for _ in range(rng.integers(0, 4))]


def test_pruned_pieces_change_no_projection_tie_or_distance(monkeypatch):
    # a piece is skipped on a row only where its lower bound exceeds a distance
    # already found, so every answer equals the every-piece reference bit for
    # bit, at any chunking of the rows
    solved = []
    nearest = sd.ConvexPolyhedron._nearest
    monkeypatch.setattr(sd.ConvexPolyhedron, "_nearest",
                        lambda self, X, *act: solved.append(len(X)) or nearest(self, X, *act))
    rng = np.random.default_rng(33)
    skipped, cross_ties = 0, {}
    for scale in (1e-6, 1.0, 1e6):
        for pieces in _pruning_unions(rng, scale):
            union = sd.FiniteUnion(pieces)
            n = union.dim
            X = scale * rng.normal(scale=3.0, size=(32, n))
            X[0] = 0.0
            Y, tied = _every_piece(union, X)
            if not tied.any(axis=1).all():
                continue
            X[1:6] = Y[np.arange(1, 6), np.argmax(tied[1:6], axis=1)]   # on the union
            Y, tied = _every_piece(union, X)
            solved.clear()
            union._nearest_pieces(X)
            skipped += tied.size - sum(solved)   # (row, piece) pairs no solve was run on
            cross_ties[scale] = cross_ties.get(scale, 0) + int((tied.sum(axis=1) > 1).sum())
            f = sd.distance_to_set(union)
            want = Y[np.arange(len(X)), np.argmax(tied, axis=1)]
            values = np.sqrt(np.vecdot(X - want, X - want))
            for k in ROW_COUNTS:
                parts = [union._nearest_pieces(X[i:i + k]) for i in range(0, len(X), k)]
                chunk_tied = np.concatenate([t for _, t in parts])
                assert np.array_equal(chunk_tied, tied), (scale, k)
                assert np.concatenate([y for y, _ in parts])[tied].tobytes() == Y[tied].tobytes()
                chunks = [X[i:i + k] for i in range(0, len(X), k)]
                assert np.concatenate([union.nearest_points(c) for c in chunks]).tobytes() \
                    == want.tobytes()
                assert np.concatenate([f.values(c) for c in chunks]).tobytes() == values.tobytes()
            W = rng.normal(size=(7, n))
            for x in X[:12]:
                got, ref = union.project(x), _every_piece_project(union, x)
                assert [y.tobytes() for y in got] == [y.tobytes() for y in ref], (scale, x)
                assert f.subderivatives(x, W).tobytes() == \
                    _every_piece_subderivatives(union, x, W).tobytes(), (scale, x)
    assert skipped > 0 and min(cross_ties.values()) > 0 and len(cross_ties) == 3


def test_union_bounds_take_points_beyond_1e154_without_overflow():
    # the bounds' slack read sqrt(x . x), which overflows past 1.3e154 (an
    # error under this suite's warning filter); the point is inside a piece
    union = sd.FiniteUnion([sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                                np.array([1e200, 1e200])),
                            sd.ConvexPolyhedron(np.array([[0.0, 1.0]]), np.array([-1e200]))])
    x = np.array([1e160, -1e200])
    assert [y.tolist() for y in union.project(x)] == [x.tolist()]
    assert sd.distance_to_set(union).value(x) == ExtReal(0.0)


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-10])
def test_distance_takes_the_outside_formula_wherever_its_value_is_positive(s):
    # Box([0], [s]).contains(s + 5e-10) was True, so the oracle returned the
    # tangent formula, 0.0 (and +1.0 at s = 1e-10, both faces within 1e-9),
    # where the value is 5e-10 and the slope along -1 is -1
    f = sd.distance_to_set(sd.Box([0.0], [s]))
    x = np.array([s + 5e-10])
    assert f.value(x).v > 0.0
    assert f.subderivative(x, [-1.0]) == ExtReal(-1.0)


def test_a_distance_below_1e_154_does_not_underflow_to_zero():
    # the sum of squares of a 1e-300 offset is 0.0: the distance read 0.0, took
    # the tangent branch and gave 0.0 along -1 (the union raised, as no piece
    # held the point); the norm now scales such a row first
    x = np.array([2e-300])
    tiny = sd.ConvexPolyhedron(np.array([[1.0], [-1.0]]), np.array([1e-300, 0.0]))
    far = sd.ConvexPolyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, 2.0]))
    for X in (sd.Box([0.0], [1e-300]), tiny, sd.FiniteUnion([tiny, far]), sd.Ball([0.0], 1e-300)):
        f = sd.distance_to_set(X)
        assert f.value(x).v == 1e-300 and f.values(x[None]).tolist() == [1e-300], X
        assert f.subderivative(x, [-1.0]) == ExtReal(-1.0), X
        assert X.contains(x)
    f = sd.distance_to_set(sd.Singleton([0.0, 0.0]))
    assert f.value([3e-310, -4e-310]).v == pytest.approx(5e-310, rel=1e-9)
    # a row whose squares do not underflow keeps the bits of sqrt(vecdot)
    D = np.random.default_rng(1).normal(size=(50, 3)) * 10.0 ** np.arange(-150, 150, 6)[:, None]
    assert sd.sets._norm(D).tobytes() == np.sqrt(np.vecdot(D, D)).tobytes()


def test_a_distance_past_1e_154_does_not_overflow_to_inf():
    # the sum of squares of a 3e200 offset overflowed: vecdot warned and the
    # distance read inf; the norm now scales such a row down first
    x = np.array([0.0])
    for X in (sd.Singleton([3e200]), sd.Box([3e200], [4e200]), sd.Ball([3e200], 1.0),
              sd.AffineSubspace([[1.0]], [3e200])):
        f = sd.distance_to_set(X)
        assert f.value(x).v == 3e200 and f.values(x[None]).tolist() == [3e200], X
        assert f.subderivative(x, [1.0]) == ExtReal(-1.0), X
        assert not X.contains(x)
    box = sd.distance_to_set(sd.Box([0.0, 0.0], [1.0, 1.0]))
    assert box.value([1e300, 1e300]).v == 1.4142135623730952e300
    assert box.value([1.7e308, 0.0]).v == 1.7e308
    # rows whose sums do not overflow keep the bits of sqrt(vecdot), beside one that does
    D = np.random.default_rng(2).normal(size=(50, 3)) * 10.0 ** np.arange(-150, 150, 6)[:, None]
    got = sd.sets._norm(np.vstack([D, [[0.0, -1e300, 0.0]]]))
    assert got[:-1].tobytes() == np.sqrt(np.vecdot(D, D)).tobytes() and got[-1] == 1e300


def test_penalty_certifies_no_stationarity_beside_a_tiny_box():
    # penalize(0.5 x, id, Box([0], [1e-10]), 1) at 6e-10 and, inside the box,
    # at 5e-11: both faces counted as active, the fallback read +0.0014 and
    # certified stationarity where the slope along -1 is -1.5 and -0.5
    pen = sd.penalize(sd.linear_model([0.5]), sd.identity_map(1), sd.Box([0.0], [1e-10]), 1.0)
    for x, slope in ((6e-10, -1.5), (5e-11, -0.5)):
        stationary, res = sd.check_d_stationary(pen, [x], 1e-6)
        assert not stationary
        assert res.w.tolist() == [-1.0] and res.value.v == pytest.approx(slope)


def test_complementarity_point_just_off_a_ray_takes_the_outside_formula():
    f = sd.distance_to_set(sd.ComplementaritySet(1))
    x = np.array([-1e-10, -3.0])
    assert f.value(x) == ExtReal(1e-10)
    assert f.subderivative(x, [1.0, 0.0]) == ExtReal(-1.0)


def test_membership_is_the_distance_within_1e_9():
    # a set's equations no longer set the scale of membership: the corner
    # test |y z| <= 1e-9 compared a product with a length, and A x = b was
    # tested on the residual, which scales with A
    box = sd.Box(np.zeros(2), np.ones(2))
    assert not box.contains([1.0 + 8e-10, 1.0 + 8e-10])        # 1.13e-9 off the corner
    assert box.contains([1.0 + 7e-10, 1.0 + 7e-10])
    assert sd.ComplementaritySet(1).contains([-5e-10, -3.0])
    for a in (1.0, 1e6):
        assert sd.AffineSubspace([[a, 0.0]], [0.0]).contains([5e-10, 2.0])
    for X in (sd.Singleton([1.0, -1.0]), sd.Ball([0.0, 0.0], 1.0), box):
        x = X.project(np.array([3.0, 3.0]))[0]
        assert X.contains(x) and not X.contains(x + np.array([0.0, 2e-9]))


def test_tangent_kernels_activate_only_the_faces_the_point_lies_on():
    # points that contains admits only through its tolerance: the ball's
    # interior began 1e-9 inside its radius, so a tiny ball had no interior
    for X, x in ((sd.Ball([0.0], 1.0), 1.0 - 5e-10), (sd.Ball([0.0], 1e-10), 5e-11),
                 (sd.Box([0.0], [1.0]), 1.0 - 5e-10), (sd.Box([0.0], [1e-10]), 5e-11)):
        assert sd.distance_to_set(X).subderivative([x], [1.0]) == ExtReal(0.0)
        assert X.tangent_distance([x], [1.0]) == 0.0
    X = sd.ComplementaritySet(1)
    assert X.contains([1e-10, -1.0]) and X.tangent_distance([1e-10, -1.0], [0.0, 1.0]) == 0.0


def test_tangent_distance_measures_the_cone_at_the_nearest_point():
    # a point that contains admits from just outside has the face it is off
    # active, as tangent_membership needs; one just inside has none
    for X, x, w, want in ((sd.Box([0.0], [1.0]), [1.0 + 5e-10], [1.0], 1.0),
                          (sd.Box([0.0], [1.0]), [1.0 - 5e-10], [1.0], 0.0),
                          (sd.Ball([0.0], 1.0), [1.0 + 5e-10], [1.0], 1.0),
                          (sd.ComplementaritySet(1), [-5e-10, -3.0], [1.0, 0.0], 1.0)):
        assert X.tangent_distance(x, w) == want


@pytest.mark.parametrize("name,X", bundled_sets())
def test_distance_takes_the_tangent_formula_at_the_sets_own_projections(name, X, rng):
    # a projection that rounds off the set gave d ~ 1e-16 and the outside
    # formula, rounding over rounding; one that rounded into the ball's
    # interior read 0 along the outward normal
    f = sd.distance_to_set(X)
    sides = set()
    for _ in range(60):
        x = rng.uniform(-3, 3, X.dim)
        y = X.project(x)[0]
        W = rng.normal(size=(5, X.dim))
        assert np.array_equal(f.subderivatives(y, W), X._tangent_distances(y, W)), (x, y)
        if name == "ball" and np.linalg.norm(x - X.center) > X.radius + 0.1:
            u = (y - X.center) / X.radius
            sides.add(np.sign(np.linalg.norm(y - X.center) - X.radius))
            assert f.subderivative(y, u).v == pytest.approx(1.0, rel=1e-12)
            assert f.subderivative(y, -u) == ExtReal(0.0)
    if name == "ball":
        assert sides == {-1.0, 0.0, 1.0}


@pytest.mark.parametrize("n", [2, 3, 8])
def test_affine_projection_from_far_away_lands_on_the_subspace(n):
    # one pseudo-inverse step left a residual beyond the 8 n ulp band, so the
    # distance took the outside formula at d ~ 1e-14 at 59, 59 and 124 of
    # the 500 projections at n = 2, 3 and 8
    rng = np.random.default_rng(0)
    for _ in range(500):
        X = sd.AffineSubspace(rng.normal(size=(n - 1, n)), rng.normal(size=n - 1))
        x = 100 * rng.normal(size=n)
        y = X.project(x)[0]
        W = rng.normal(size=(4, n))
        assert np.array_equal(sd.distance_to_set(X).subderivatives(y, W),
                              X._tangent_distances(y, W)), (x, y)
        assert np.array_equal(X.project(y)[0], y)


def test_polyhedron_tangent_distance_is_positively_homogeneous():
    # a cone candidate v was accepted when A_act v <= 1e-9, so on the unit
    # square at (1, 0.5) d dist(x)(t e1) / t read 1 at t = 1 and 0 at t <= 1e-9
    square = sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                                 np.array([1.0, 0.0, 1.0, 0.0]))
    ts = (1e-100, 1e-12, 1e-9, 1e-6, 1e6, 1e100)
    f = sd.distance_to_set(square)
    for t in ts:
        assert f.subderivative([1.0, 0.5], [t, 0.0]).v / t == 1.0
    rng = np.random.default_rng(26)
    union = sd.FiniteUnion(_union_pieces())
    checked = 0
    for X in (square, union):
        f = sd.distance_to_set(X)
        for _ in range(40):
            x = X.project(rng.uniform(-4, 4, 2))[0]
            W = rng.normal(size=(5, 2))
            base = f.subderivatives(x, W)
            for t in ts:
                err = np.abs(f.subderivatives(x, t * W) - t * base)
                assert np.all(err <= 1e-12 * t * np.linalg.norm(W, axis=1)), (X, x, t)
                checked += W.shape[0]
    assert checked == 2400


def _per_pair_tangent_distance(x, w):
    """dist(w; T(x)) summed pair by pair: the ray's free axis costs nothing, the
    other its whole entry, and a corner takes the nearer of its two rays."""
    k = len(x) // 2
    sq = 0.0
    for a, b, u, v in zip(x[:k], x[k:], w[:k], w[k:]):
        if a < 0.0:
            sq += v * v
        elif b < 0.0:
            sq += u * u
        else:
            sq += min(max(u, 0.0) ** 2 + v * v, u * u + max(v, 0.0) ** 2)
    return np.sqrt(sq)


def test_complementarity_tangent_kernel_is_the_norm_of_the_part_outside_the_cone():
    # the kernel summed its squares with np.sum, which underflows below about
    # 1.5e-154: the first two read 0.0, the third 1.4142056902605667e-160
    X = sd.ComplementaritySet(1)
    for x, w, want in (((-1.0, 0.0), (0.0, 1e-170), 1e-170),
                       ((0.0, 0.0), (1e-170, -1e-170), 1e-170),
                       ((0.0, 0.0), (1e-160, 1e-160), 1.414213562373095e-160)):
        assert X.tangent_distance(x, w) == want, (x, w)
    rng = np.random.default_rng(34)
    for k in (1, 2, 7):
        X = sd.ComplementaritySet(k)
        for _ in range(30):
            # each pair on its ray b = 0, its ray a = 0 or at its corner
            kind = rng.integers(0, 3, k)
            a = np.where(kind == 0, -rng.uniform(0.1, 3.0, k), 0.0)
            b = np.where(kind == 1, -rng.uniform(0.1, 3.0, k), 0.0)
            x = np.concatenate([a, b])
            W = rng.normal(size=(6, 2 * k))
            W[0] = np.abs(W[0])
            W[1] = -np.abs(W[1])
            got = X._tangent_distances(x, W)
            want = np.array([_per_pair_tangent_distance(x, w) for w in W])
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name,X", bundled_sets())
def test_tangent_distance_projects_its_point_once(name, X, monkeypatch):
    # it asked contains, which projects x, and then projected x again
    x = X.project(np.full(X.dim, 3.0))[0]
    calls = []
    kernel = type(X)._nearest_points

    def counted(self, Y):
        calls.append(len(Y))
        return kernel(self, Y)

    monkeypatch.setattr(type(X), "_nearest_points", counted)
    X.tangent_distance(x, np.ones(X.dim))
    assert calls == [1]


def test_singleton_is_the_box_p_p_bit_for_bit():
    # Singleton stated its own kernels: p broadcast to every row, and _norm(W)
    p = np.array([0.0, -0.0, 1.5, -2.5e-300, 3e100, -7.0])
    S = sd.Singleton(p)
    f = sd.distance_to_set(S)
    rng = np.random.default_rng(34)
    for k in (1, 2, 7):
        X = rng.normal(size=(k, p.size)) * 10.0 ** rng.integers(-300, 100, (k, 1))
        X[0] = p * np.where(p == 0.0, -1.0, 1.0)   # on the set, its zeros' signs flipped
        want = np.broadcast_to(p, X.shape).copy()
        assert S.nearest_points(X).tobytes() == want.tobytes(), k
        assert f.values(X).tobytes() == sd.sets._norm(X - want).tobytes(), k
        for x in X:
            assert S.project(x)[0].tobytes() == p.tobytes()
        W = rng.normal(size=(k, p.size))
        W[0, :2] = -0.0
        assert S._tangent_distances(p, W).tobytes() == sd.sets._norm(W).tobytes(), k
        assert f.subderivatives(p, W).tobytes() == sd.sets._norm(W).tobytes(), k
        assert np.float64(S.tangent_distance(X[0], W[0])).tobytes() == \
            sd.sets._norm(W[0]).tobytes()


def test_a_wide_subspace_rounds_each_row_alike_at_any_row_count():
    # products over residual rows that were not contiguous rounded a row of
    # a 30 x 60 subspace one way alone and another way among 190 rows, and a
    # point given as a strided view one way and as a copy another
    rng = np.random.default_rng(30)
    X = sd.AffineSubspace(rng.normal(size=(30, 60)), rng.normal(size=30))
    P, W = rng.normal(size=(190, 60)), rng.normal(size=(190, 60))
    got = X.nearest_points(P)
    tangent = X._tangent_distances(got[0], W)
    for i, x in enumerate(np.asfortranarray(P)[::37]):
        assert X.project(x)[0].tobytes() == got[37 * i].tobytes(), i
    for k in (1, 7):
        chunks = [X.nearest_points(P[i:i + k]) for i in range(0, len(P), k)]
        assert np.concatenate(chunks).tobytes() == got.tobytes(), k
        chunks = [X._tangent_distances(got[0], W[i:i + k]) for i in range(0, len(W), k)]
        assert np.concatenate(chunks).tobytes() == tangent.tobytes(), k
