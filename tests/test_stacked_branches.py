"""A min or max of quadratic branches from one stack answers exactly as the
same branches stated one by one as ``smooth_model`` lambdas.

Every comparison is bit for bit: the stacked route must be the member loop
it replaces, on exact ties and on near ties across the 8-ulp tie rule too.
"""

import sys
import threading

import numpy as np
import pytest

import subderiv as sd
from subderiv.calculus import _QuadraticBranch, _QuadraticBranches
from subderiv.problems import build_problem

from test_batched import ScalarOnly


def _lambda_branch(A, c, r):
    """Branch r as ``diff_max`` used to state it, one lambda per branch."""
    a, cr = A[r].copy(), float(c[r])
    return sd.smooth_model(A.shape[1],
                           lambda x: 0.5 * float(np.dot(x, x)) - float(np.dot(a, x)) - cr,
                           lambda x: x - a, smoothness_constant=1.0)


def _pair(A, c, rows, take_max):
    """The stacked extremum over ``rows`` and its lambda twin."""
    combine = sd.pointwise_max if take_max else sd.pointwise_min
    stack = _QuadraticBranches(A, c)
    fast = combine([_QuadraticBranch(stack, r) for r in rows])
    slow = combine([_lambda_branch(A, c, r) for r in rows])
    assert fast._stacked is not None and slow._stacked is None
    return fast, slow


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _positions(f, x):
    active = f._active(x)
    return [i for i, m in enumerate(f.models) if any(m is a for a in active)]


def _directions(rng, n):
    eye = np.eye(n)
    return np.vstack([eye, -eye, rng.normal(size=(5, n))])


def _assert_same(fast, slow, x, W):
    assert _bits(fast._value(x)) == _bits(slow._value(x))
    assert _bits(fast.value(x).v) == _bits(slow.value(x).v)
    assert _positions(fast, x) == _positions(slow, x)
    assert _bits(fast.subderivatives(x, W)) == _bits(slow.subderivatives(x, W))
    assert _bits(fast.subderivative(x, W[0]).v) == _bits(slow.subderivative(x, W[0]).v)
    X = np.vstack([x, x + W[:3]])
    assert _bits(fast.values(X)) == _bits(slow.values(X))


def _branch_value(A, c, r, x):
    return 0.5 * float(np.dot(x, x)) - float(np.dot(A[r], x)) - float(c[r])


def _tie(A, c, x, j, target):
    """Shift c[j] until branch j's value at x is exactly ``target``."""
    u = 0.5 * float(np.dot(x, x)) - float(np.dot(A[j], x))
    c[j] = u - target
    for _ in range(64):
        got = u - c[j]
        if got == target:
            return
        c[j] += got - target
    raise AssertionError("no offset puts the branch on the target")


def _near_tie_case(rng, n, m, take_max, gap):
    """A, c and x with branch 1 ``gap`` float steps from the extremum branch 0
    toward the inside; the other branches stay clearly inactive."""
    x = rng.uniform(2.0, 4.0, n)
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    A[1] = A[0] + 1e-3 * rng.uniform(-1.0, 1.0, n)
    c = rng.uniform(-0.5, 0.5, m)
    inside = -np.inf if take_max else np.inf
    v0 = _branch_value(A, c, 0, x)
    target = v0
    for _ in range(gap):
        target = float(np.nextafter(target, inside))
    _tie(A, c, x, 1, target)
    for j in range(2, m):       # about j inside the extremum
        c[j] += _branch_value(A, c, j, x) - (v0 - j if take_max else v0 + j)
    return A, c, x


@pytest.mark.parametrize("take_max", [False, True])
@pytest.mark.parametrize("m", [1, 3, 20])
@pytest.mark.parametrize("n", [2, 4, 50])
def test_stack_matches_lambdas_at_random_points(n, m, take_max):
    rng = np.random.default_rng([n, m, take_max])
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    c = rng.uniform(-0.5, 0.5, m)
    fast, slow = _pair(A, c, range(m), take_max)
    for _ in range(10):
        x = rng.uniform(-3.0, 3.0, n)
        _assert_same(fast, slow, x, _directions(rng, n))


@pytest.mark.parametrize("take_max", [False, True])
@pytest.mark.parametrize("gap", [0, 1, 2, 4, 7, 8, 9, 12, 16])
@pytest.mark.parametrize("m", [3, 20])
@pytest.mark.parametrize("n", [2, 4, 50])
def test_stack_matches_lambdas_on_ties(n, m, gap, take_max):
    rng = np.random.default_rng([n, m, gap, take_max])
    A, c, x = _near_tie_case(rng, n, m, take_max, gap)
    fast, slow = _pair(A, c, range(m), take_max)
    assert _positions(slow, x)[0] == 0
    _assert_same(fast, slow, x, _directions(rng, n))


def test_near_ties_fall_on_both_sides_of_the_tie_rule():
    # The cases above straddle the rule: up to 8 ulps is a tie, 16 is not.
    active = {}
    for gap in (0, 8, 16):
        A, c, x = _near_tie_case(np.random.default_rng([4, 3, gap, False]), 4, 3, False, gap)
        fast, _ = _pair(A, c, range(3), False)
        active[gap] = _positions(fast, x)
    assert active == {0: [0, 1], 8: [0, 1], 16: [0]}


@pytest.mark.parametrize("take_max", [False, True])
@pytest.mark.parametrize("rows", [[2, 0, 1], [1, 1, 0, 2, 0], [2], [0, 2], [2, 2]],
                         ids=["permuted", "repeated", "single", "subset", "twice"])
def test_stack_matches_lambdas_on_any_order_subset_or_repetition(rows, take_max):
    rng = np.random.default_rng(len(rows))
    A, c, x = _near_tie_case(rng, 4, 3, take_max, 3)
    fast, slow = _pair(A, c, rows, take_max)
    W = _directions(rng, 4)
    for y in (x, rng.uniform(-3.0, 3.0, 4)):
        _assert_same(fast, slow, y, W)


def test_mixed_or_wrapped_members_take_the_member_loop():
    rng = np.random.default_rng(7)
    A, c, x = _near_tie_case(rng, 4, 3, False, 0)
    stack = _QuadraticBranches(A, c)
    other = _QuadraticBranches(A.copy(), c.copy())
    branches = [_QuadraticBranch(stack, r) for r in range(3)]
    lambdas = [_lambda_branch(A, c, r) for r in range(3)]
    W = _directions(rng, 4)
    cases = [
        (branches + [sd.L1Norm(4)], lambdas + [sd.L1Norm(4)]),
        ([ScalarOnly(b) for b in branches], lambdas),
        (branches[:2] + [_QuadraticBranch(other, 2)], lambdas),
    ]
    for members, twins in cases:
        fast, slow = sd.pointwise_min(members), sd.pointwise_min(twins)
        assert fast._stacked is None
        for y in (x, rng.uniform(-3.0, 3.0, 4)):
            _assert_same(fast, slow, y, W)


def test_branch_alone_is_its_lambda():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1.0, 1.0, size=(3, 4))
    c = rng.uniform(-0.5, 0.5, 3)
    branch, twin = _QuadraticBranch(_QuadraticBranches(A, c), 1), _lambda_branch(A, c, 1)
    for flag in ("semi_differentiable", "has_gradient", "subderivative_concave",
                 "descent_constant", "lower_bound", "extended_valued", "is_separable"):
        assert getattr(branch, flag) == getattr(twin, flag), flag
    x, W = rng.uniform(-3.0, 3.0, 4), _directions(rng, 4)
    assert _bits(branch._value(x)) == _bits(twin._value(x))
    assert _bits(branch.gradient(x)) == _bits(twin.gradient(x))
    assert _bits(branch.subderivatives(x, W)) == _bits(twin.subderivatives(x, W))
    assert not any(callable(v) for v in vars(branch).values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # numpy reports the overflow
@pytest.mark.parametrize("take_max", [False, True])
def test_an_overflowing_branch_raises_as_its_lambda_does(take_max):
    # 0.5 ||x||^2 and <a, x> both overflow to +inf, and inf - inf is NaN.
    A, c = np.array([[0.9, 0.8], [-0.5, 0.5]]), np.zeros(2)
    fast, slow = _pair(A, c, range(2), take_max)
    x = np.full(2, 1.7e308)
    for f in (fast, slow):
        for query in (f._value, f._active):
            with pytest.raises(ValueError, match="NaN"):
                query(x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verifiers_see_the_same_function(n):
    rng = np.random.default_rng([n, 11])
    A, c, x = _near_tie_case(rng, n, 3, False, 0)
    fast, slow = _pair(A, c, range(3), False)
    for w in _directions(rng, n):
        got, want = sd.fd_subderivative(fast, x, w), sd.fd_subderivative(slow, x, w)
        assert _bits(got.quotients) == _bits(want.quotients)
        assert _bits(got.min_quotients) == _bits(want.min_quotients)
        assert (got.estimate, got.diverged, got.converged) == (
            want.estimate, want.diverged, want.converged)
        assert got.converged and not got.diverged
    for norm in sd.NormChoice:
        got = sd.brute_force_direction(fast, x, norm, resolution=8)
        want = sd.brute_force_direction(slow, x, norm, resolution=8)
        assert _bits(got.w) == _bits(want.w) and got.value == want.value
    # the grid holds every l1 vertex, so it finds at most the exact search's value
    exact = sd.solve_l1_extreme(fast, x)
    assert exact.exact
    assert sd.brute_force_direction(fast, x, sd.NormChoice.L1, 8).value.v <= exact.value.v


def test_registered_diff_max_is_stacked():
    model = build_problem("diff_max", {"n": "5", "m": "4"}).model
    assert model._stacked is not None and len(model.models) == 4


# The extremum keeps one record of its last point: the point's bytes, the
# member values and, once tied, the active members. Every answer read from
# it must have the bytes a freshly built model gives.

_QUERIES = ("_value", "value", "_active", "_vertex_values", "subderivatives", "_values")


def _fresh(route, A, c, take_max):
    """A newly built extremum over every branch: the stack or the lambdas."""
    fast, slow = _pair(A, c, range(len(c)), take_max)
    return fast if route == "stacked" else slow


def _answer(f, query, x, W):
    if query == "_active":
        active = f._active(x)
        assert type(active) is list
        return [i for i, m in enumerate(f.models) if any(m is a for a in active)]
    if query == "value":
        return _bits(f.value(x).v)
    if query == "subderivatives":
        return _bits(f.subderivatives(x, W))
    if query == "_values":
        return _bits(f._values(np.vstack([x, x + W[:3]])))
    return _bits(getattr(f, query)(x))


def _record_points(rng, x):
    """The near tie x (branches 0 and 1 active), a far point, and that point
    with a coordinate on 0.0 and on -0.0."""
    far = rng.uniform(-3.0, 3.0, x.size)
    zero, negzero = far.copy(), far.copy()
    zero[0], negzero[0] = 0.0, -0.0
    return [x, far, zero, negzero]


@pytest.mark.parametrize("take_max", [False, True])
@pytest.mark.parametrize("route", ["stacked", "lambdas"])
def test_the_record_answers_as_a_fresh_model(route, take_max):
    rng = np.random.default_rng([20, take_max])
    A, c, x = _near_tie_case(rng, 4, 20, take_max, 0)
    points = _record_points(rng, x)
    W = _directions(rng, 4)
    f = _fresh(route, A, c, take_max)
    fresh = _fresh(route, A, c, take_max)
    assert _positions(fresh, points[0]) == [0, 1]
    assert all(len(_positions(fresh, p)) == 1 for p in points[1:])
    # (point, query, through one buffer overwritten in place): a tie kept at
    # one point, a new point valued before it is tied, the same buffer with
    # another point's bytes; then revisits and signed zeros in random order
    steps = [(0, "_active", False), (1, "_value", False), (1, "_active", False),
             (0, "_active", True), (1, "_active", True), (0, "_vertex_values", True),
             (1, "subderivatives", True), (0, "_value", False)]
    steps += [(int(rng.integers(4)), _QUERIES[int(rng.integers(6))], k % 3 == 0)
              for k in range(80)]
    buf = np.empty(4)
    for k, (i, query, in_place) in enumerate(steps):
        y = points[i]
        if in_place:
            buf[:] = y
            y = buf
        want = _answer(_fresh(route, A, c, take_max), query, points[i], W)
        assert _answer(f, query, y, W) == want, (k, i, query)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # numpy reports the overflow
@pytest.mark.parametrize("take_max", [False, True])
@pytest.mark.parametrize("first", ["_value", "_active"])
def test_an_overflowing_branch_raises_on_every_repeat(first, take_max):
    # the stacked route keeps the NaN values and the lambda route keeps no
    # record; either way each repeat raises again, and a finite point after
    # it answers as a fresh model does
    A, c = np.array([[0.9, 0.8], [-0.5, 0.5]]), np.zeros(2)
    x, y = np.full(2, 1.7e308), np.array([0.25, -1.5])
    second = "_active" if first == "_value" else "_value"
    fresh = _pair(A, c, range(2), take_max)
    for f, twin in zip(_pair(A, c, range(2), take_max), fresh):
        for _ in range(3):
            for query in (first, second, "_vertex_values"):
                with pytest.raises(ValueError, match="NaN"):
                    getattr(f, query)(x)
        assert _bits(f._value(y)) == _bits(twin._value(y))
        assert _positions(f, y) == _positions(twin, y)


class _Counted:
    """A branch's value callable that counts its calls."""

    def __init__(self, A, c, r):
        self.a, self.c, self.calls = A[r].copy(), float(c[r]), 0

    def __call__(self, x):
        self.calls += 1
        return 0.5 * float(np.dot(x, x)) - float(np.dot(self.a, x)) - self.c


@pytest.mark.parametrize("take_max", [False, True])
def test_members_are_valued_once_per_point(take_max):
    rng = np.random.default_rng([22, take_max])
    A, c, x = _near_tie_case(rng, 4, 3, take_max, 0)
    counted = [_Counted(A, c, r) for r in range(3)]
    combine = sd.pointwise_max if take_max else sd.pointwise_min
    f = combine([sd.smooth_model(4, v, lambda z, a=v.a: z - a, smoothness_constant=1.0)
                 for v in counted])
    W = _directions(rng, 4)
    y = rng.uniform(-3.0, 3.0, 4)
    for point, calls in ((x, 1), (y, 2), (x, 3)):
        f._value(point)
        f._vertex_values(point)
        f.subderivatives(point, W)
        f.value(point)
        f._active(point)
        f._value(point.copy())
        assert [v.calls for v in counted] == [calls] * 3
    # the vertex search and its read-back at a point already valued value
    # no member again
    sd.solve_l1_extreme(f, x)
    assert [v.calls for v in counted] == [3] * 3


@pytest.mark.parametrize("route", ["stacked", "lambdas"])
def test_the_record_shared_by_threads_answers_each_its_own_point(route):
    # Threads asking one model about different points replace its record
    # under each other; every answer must still be its own point's.
    rng = np.random.default_rng(23)
    A, c, x = _near_tie_case(rng, 4, 20, False, 0)
    points = _record_points(rng, x) + [rng.uniform(-3.0, 3.0, 4) for _ in range(2)]
    W = _directions(rng, 4)
    f = _fresh(route, A, c, False)

    def answers(model, y):
        return tuple(_answer(model, q, y, W) for q in ("_value", "_active", "_vertex_values",
                                                        "subderivatives"))

    want = [answers(_fresh(route, A, c, False), y) for y in points]
    wrong, done = [], []

    def ask(j):
        for r in range(300):
            i = (j + r) % len(points)
            if answers(f, points[i]) != want[i]:
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
