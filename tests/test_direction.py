"""Direction-search solvers against per-coordinate grids and dense sampling."""

import re

import numpy as np
import pytest

import subderiv as sd
from subderiv.extreal import ExtReal
from subderiv.problems import build_problem

from conftest import l1_table_direction


def grid_scalar_min(c, g, lo=-1.0, hi=1.0, n=400_001):
    """Independent 1-D oracle for min over [lo, hi] of c*t + g(t)."""
    ts = np.linspace(lo, hi, n)
    vals = c * ts + np.array([g(t) for t in ts])
    i = int(np.argmin(vals))
    return float(ts[i]), float(vals[i])


def test_l2_smooth_quadratic(quad2):
    res = sd.solve_l2_smooth(quad2, np.array([3.0, 4.0]))
    assert res.w == pytest.approx(np.array([-0.6, -0.8]))
    assert res.value == ExtReal(-5.0)
    assert res.exact
    # Dense sphere sampling cannot do better.
    brute = sd.brute_force_direction(quad2, np.array([3.0, 4.0]),
                                     sd.NormChoice.L2, 1e-3)
    assert brute.value.v >= res.value.v - 1e-12


def test_l2_smooth_stationary_point(quad2):
    res = sd.solve_l2_smooth(quad2, np.zeros(2))
    assert res.w == pytest.approx(np.zeros(2))
    assert res.value == ExtReal(0.0)


def test_l2_smooth_requires_gradient(l1):
    with pytest.raises(sd.NoGradient):
        sd.solve_l2_smooth(l1, np.zeros(3))


def separable_fixture(c, x, lam=1.0):
    n = len(c)
    phi = sd.smooth_model(n, lambda z, c=np.asarray(c, float): float(np.dot(c, z)),
                          lambda z, c=np.asarray(c, float): c.copy())
    model = sd.sum_models([phi, sd.L1Norm(n, lam)])
    grad, parts = model.separable_parts(np.asarray(x, dtype=float))
    return model, grad, parts


def test_linf_separable_example():
    model, grad, parts = separable_fixture([2.0, -0.5], [0.0, 0.0])
    res = sd.solve_linf_separable(parts, grad, np.zeros(2), model=model)
    # Coordinate 1 sits in I5 (w = -1, s = -1); coordinate 2 in I7 (w = 0).
    assert res.w == pytest.approx(np.array([-1.0, 0.0]))
    assert res.value == ExtReal(-1.0)
    assert res.exact
    # Per-coordinate grid oracle agrees.
    t1, s1 = grid_scalar_min(2.0, lambda t: abs(t))
    t2, s2 = grid_scalar_min(-0.5, lambda t: abs(t))
    assert res.w[0] == pytest.approx(t1, abs=1e-5)
    assert res.w[1] == pytest.approx(t2, abs=1e-5)
    assert res.value.v == pytest.approx(s1 + s2, abs=1e-5)


def test_linf_separable_all_flat():
    model, grad, parts = separable_fixture([0.0, 0.0], [0.0, 0.0])
    res = sd.solve_linf_separable(parts, grad, np.zeros(2), model=model)
    assert res.w == pytest.approx(np.zeros(2))
    assert res.value == ExtReal(0.0)


def test_linf_separable_positive_coordinate():
    # x = (1) > 0, c = (2), lam = 1: index set I1, w = -1; the optimal value
    # of the scalar subproblem is -(c + lam) = -3, confirmed by the grid.
    model, grad, parts = separable_fixture([2.0], [1.0])
    res = sd.solve_linf_separable(parts, grad, np.array([1.0]), model=model)
    t, s = grid_scalar_min(2.0, lambda t: t)  # g_1(t) = lam * t on the x>0 branch
    assert res.w[0] == pytest.approx(t, abs=1e-5) and t == pytest.approx(-1.0)
    assert res.value.v == pytest.approx(s, abs=1e-5)
    assert res.value == ExtReal(-3.0)


def test_linf_separable_matches_index_table_randomly(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        lam = float(rng.uniform(0.2, 2.0))
        c = rng.uniform(-3, 3, n)
        x = rng.uniform(-1, 1, n)
        x[rng.random(n) < 0.4] = 0.0  # exercise the kink rows
        model, grad, parts = separable_fixture(c, x, lam)
        res = sd.solve_linf_separable(parts, grad, x, model=model)
        w_ref, s_ref = l1_table_direction(grad, x, lam)
        assert np.array_equal(res.w, w_ref)
        assert res.value.v == pytest.approx(float(np.sum(s_ref)), rel=1e-12, abs=1e-12)


def test_linf_separable_rejects_mismatched_parts():
    model = sd.L1Norm(2)
    with pytest.raises(sd.NotSeparable):
        sd.solve_linf_separable([], np.zeros(2), np.zeros(2), model=model)
    with pytest.raises(sd.NotSeparable):
        sd.solve_linf_separable((np.zeros(3), np.zeros(3)), np.zeros(2),
                                np.zeros(2), model=model)


def oracle_coordinate_direction(model, x):
    """Reference sup-norm direction built only from subderivative queries:
    per coordinate, the first strict minimum of d f(x)(t e_i) over t = -1,
    +1, 0."""
    n = len(x)
    w = np.zeros(n)
    for i in range(n):
        best_t, best_v = None, np.inf
        for t in (-1.0, 1.0, 0.0):
            e = np.zeros(n)
            e[i] = t
            v = model.subderivative(x, e).v
            if v < best_v:
                best_t, best_v = t, v
        w[i] = best_t
    return w


_TIE_XS = np.array([-1.0, 0.0, 1.0] * 5)
_TIE_CS = np.repeat([1.0, -1.0, 0.0, 2.0, -2.0], 3)


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_linf_separable_exact_ties_l1(lam):
    # Every sign of x_i against c_i in {+-lam, 0, +-2 lam}: the rows where
    # two candidates tie exactly are where the tie order decides.
    model, grad, parts = separable_fixture(lam * _TIE_CS, _TIE_XS, lam)
    res = sd.solve_linf_separable(parts, grad, _TIE_XS, model=model)
    w_ref, s_ref = l1_table_direction(grad, _TIE_XS, lam)
    assert np.array_equal(res.w, w_ref)
    assert res.value.v == pytest.approx(float(np.sum(s_ref)), abs=1e-12)
    assert res.exact and res.evaluations == 1


@pytest.mark.parametrize("separable, c", [
    (sd.NegL1Norm(15, 1.0), _TIE_CS),
    (sd.NegL1Norm(15, 0.3), 0.3 * _TIE_CS),
    # r = 0.5 puts the hard threshold at |x_i| = 1, where the prox is the set
    # {0, x_i} and the envelope has a kink; c_i = +-1 ties its two slopes.
    (sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=15), _TIE_CS),
], ids=["neg_l1", "neg_l1_0.3", "hard_moreau"])
def test_linf_separable_exact_ties_against_oracle(separable, c):
    x = _TIE_XS
    phi = sd.smooth_model(15, lambda z: float(np.dot(c, z)), lambda z: c.copy())
    for model in (separable, sd.sum_models([phi, separable])):
        grad, parts = model.separable_parts(x)
        res = sd.solve_linf_separable(parts, grad, x, model=model)
        assert np.array_equal(res.w, oracle_coordinate_direction(model, x))
        assert res.value == model.subderivative(x, res.w)


def test_l1_extreme_tie_break_at_origin(dc1):
    m2 = sd.sum_models([sd.quadratic_model(np.zeros(2)), sd.NegL1Norm(2)])
    res = sd.solve_l1_extreme(m2, np.zeros(2))
    # All four vertices give -1; enumeration order picks e1.
    assert res.w == pytest.approx(np.array([1.0, 0.0]))
    assert res.value == ExtReal(-1.0)
    assert res.exact and res.evaluations == 5


def test_l1_extreme_off_origin():
    m2 = sd.sum_models([sd.quadratic_model(np.zeros(2)), sd.NegL1Norm(2)])
    x = np.array([2.0, 0.0])
    res = sd.solve_l1_extreme(m2, x)
    # Vertex values: e1 -> 1, -e1 -> -1, e2 -> -1, -e2 -> -1; first min is -e1.
    assert res.w == pytest.approx(np.array([-1.0, 0.0]))
    assert res.value == ExtReal(-1.0)
    # Dense enumeration of the l1 sphere agrees on the value.
    brute = sd.brute_force_direction(m2, x, sd.NormChoice.L1, 0.05)
    assert brute.value.v == pytest.approx(res.value.v, abs=1e-6)


def test_l1_extreme_one_dimensional_symmetry(dc1):
    res = sd.solve_l1_extreme(dc1, np.zeros(1))
    assert res.w == pytest.approx(np.array([1.0]))
    assert res.value == ExtReal(-1.0)


def test_fallback_budget_zero_coordinates_only(l1):
    res = sd.solve_sampling_fallback(l1, np.zeros(3), sd.NormChoice.L2, 0, seed=1)
    # No gradient, no samples: min over +-e_i of d||.||_1(0) = 1 > 0.
    assert res.value == ExtReal(1.0)
    assert not res.exact


def test_fallback_seed_determinism(quad2):
    a = sd.solve_sampling_fallback(quad2, np.array([3.0, 4.0]), sd.NormChoice.L2, 32, 9)
    b = sd.solve_sampling_fallback(quad2, np.array([3.0, 4.0]), sd.NormChoice.L2, 32, 9)
    assert np.array_equal(a.w, b.w)
    assert a.value == b.value and a.evaluations == b.evaluations


def test_fallback_discards_infinite_directions():
    zn = sd.ZeroNormComposite(np.eye(2), np.zeros(2))
    x = np.array([1.0, 0.0])
    res = sd.solve_sampling_fallback(zn, x, sd.NormChoice.L2, 16, seed=3)
    assert res.value.is_finite
    assert res.value.v >= 0.0


def test_fallback_includes_gradient_candidate(quad2):
    res = sd.solve_sampling_fallback(quad2, np.array([3.0, 4.0]),
                                     sd.NormChoice.L2, 0, seed=0)
    assert res.value.v == pytest.approx(-5.0)


@pytest.mark.parametrize("norm", [sd.NormChoice.L2, sd.NormChoice.L1, sd.NormChoice.LINF])
def test_fallback_samples_stay_in_ball(norm, rng, l1):
    res = sd.solve_sampling_fallback(l1, rng.uniform(-1, 1, 3), norm, 64, seed=5)
    from subderiv.direction import norm_of
    assert norm_of(res.w, norm) <= 1.0 + 1e-12


def test_exact_solvers_beat_fallback_on_shared_instances(rng):
    m2 = sd.sum_models([sd.quadratic_model(np.zeros(2)), sd.NegL1Norm(2)])
    for seed in range(5):
        x = rng.uniform(-2, 2, 2)
        exact = sd.solve_l1_extreme(m2, x)
        fb = sd.solve_sampling_fallback(m2, x, sd.NormChoice.L1, 64, seed)
        assert exact.value.v <= fb.value.v + 1e-12


def test_all_solvers_return_recomputed_value(rng):
    m2 = sd.sum_models([sd.quadratic_model(np.zeros(2)), sd.NegL1Norm(2)])
    x = rng.uniform(-2, 2, 2)
    for res in (sd.solve_l1_extreme(m2, x),
                sd.solve_sampling_fallback(m2, x, sd.NormChoice.L1, 8, 0)):
        assert res.value == m2.subderivative(x, res.w)
    grad, parts = m2.separable_parts(x)
    res = sd.solve_linf_separable(parts, grad, x, model=m2)
    assert res.value == m2.subderivative(x, res.w)
    q = sd.quadratic_model(np.zeros(2))
    res = sd.solve_l2_smooth(q, x)
    assert res.value == q.subderivative(x, res.w)


def test_direction_results_respect_ball(rng):
    m2 = sd.sum_models([sd.quadratic_model(np.zeros(2)), sd.NegL1Norm(2)])
    x = rng.uniform(-2, 2, 2)
    assert np.sum(np.abs(sd.solve_l1_extreme(m2, x).w)) <= 1 + 1e-12
    grad, parts = m2.separable_parts(x)
    assert np.max(np.abs(sd.solve_linf_separable(parts, grad, x, model=m2).w)) <= 1 + 1e-12
    q = sd.quadratic_model(np.zeros(2))
    assert np.linalg.norm(sd.solve_l2_smooth(q, x).w) <= 1 + 1e-12


# ---------------------------------------------------------------------------
# The fallback's samples are drawn once per (n, norm, budget, seed).
# ---------------------------------------------------------------------------

def _drawn_per_call(n, norm, budget, seed):
    """The fallback's former per-call draw loop, kept as the reference."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(budget):
        if norm is sd.NormChoice.LINF:
            rows.append(rng.uniform(-1.0, 1.0, size=n))
        elif norm is sd.NormChoice.L2:
            g = rng.standard_normal(n)
            g /= np.linalg.norm(g)
            rows.append(g * rng.uniform() ** (1.0 / n))
        else:
            e = rng.exponential(size=n)
            mags = e / np.sum(e)
            signs = rng.choice([-1.0, 1.0], size=n)
            rows.append(signs * mags * rng.uniform() ** (1.0 / n))
    return rows


class RecordingQuadratic(sd.FunctionModel):
    """A smooth quadratic that keeps every direction matrix its row kernel is asked."""

    has_gradient = True
    semi_differentiable = True

    def __init__(self, n):
        self.inner = sd.quadratic_model(np.linspace(-1.0, 1.0, n))
        self.batches = []

    @property
    def dim(self):
        return self.inner.dim

    def value(self, x):
        return self.inner.value(x)

    def subderivative(self, x, w):
        return self.inner.subderivative(x, w)

    def _subderivatives(self, x, W):
        self.batches.append(np.array(W))
        return self.inner._subderivatives(x, W)

    def gradient(self, x):
        return self.inner.gradient(x)


@pytest.mark.parametrize("norm", list(sd.NormChoice))
@pytest.mark.parametrize("budget", [0, 1, 64])
@pytest.mark.parametrize("seed", [0, 20240817])
def test_fallback_candidates_match_the_per_call_draws(norm, budget, seed):
    f = RecordingQuadratic(5)
    x = np.array([0.5, -1.0, 2.0, 0.0, 1.5])
    g = f.gradient(x)
    want = np.vstack([sd.direction.l1_vertices(5), -(g / sd.direction.norm_of(g, norm))]
                     + _drawn_per_call(5, norm, budget, seed))
    for _ in range(2):     # a cold and a warm cache give the same candidates
        f.batches.clear()
        res = sd.solve_sampling_fallback(f, x, norm, budget, seed)
        # one batch of every candidate, then the winner's one-row read-back
        assert [W.shape for W in f.batches] == [want.shape, (1, 5)]
        assert f.batches[0].tobytes() == want.tobytes()
        assert f.batches[1].tobytes() == res.w[None].tobytes()


def _bad_gradient(entry):
    return sd.smooth_model(2, lambda x: 0.0, lambda x: [entry, 0.0])


@pytest.mark.parametrize("norm", list(sd.NormChoice))
def test_an_infinite_gradient_raises_and_never_reads_as_descent(norm):
    # The vertex -e1 scores -inf against [inf, 0]; the gradient is refused
    # before it is divided or paired with a vertex, so no candidate wins and
    # no warning is raised.
    f, x = _bad_gradient(np.inf), np.zeros(2)
    for search in (lambda: sd.solve_l2_smooth(f, x),
                   lambda: sd.solve_sampling_fallback(f, x, norm, 8, 0),
                   lambda: sd.brute_force_direction(f, x, norm, 0.5),
                   lambda: sd.solve_l1_extreme(f, x)):
        with pytest.raises(ValueError, match="^W must have finite entries"):
            search()


@pytest.mark.parametrize("norm", list(sd.NormChoice))
def test_a_nan_gradient_raises_or_finds_no_direction(norm):
    # every search that reads the gradient refuses it
    f, x = _bad_gradient(np.nan), np.zeros(2)
    for search in (lambda: sd.solve_l2_smooth(f, x),
                   lambda: sd.solve_sampling_fallback(f, x, norm, 8, 0),
                   lambda: sd.brute_force_direction(f, x, norm, 0.5),
                   lambda: sd.solve_l1_extreme(f, x)):
        with pytest.raises(ValueError, match="^W must have finite entries"):
            search()


class _OneRowTooMany(sd.RowSubderivatives):
    """A quadratic whose row kernels answer one value more than they are asked."""

    semi_differentiable = True

    def __init__(self):
        self.inner = sd.quadratic_model(np.zeros(2))

    @property
    def dim(self):
        return 2

    def _value(self, x):
        return self.inner._value(x)

    def _values(self, X):
        return np.append(self.inner._values(X), 0.0)

    def _subderivatives(self, x, W):
        return np.append(self.inner._subderivatives(x, W), 0.0)

    def _vertex_values(self, x):
        return self.inner._vertex_values(x)


def test_a_wrong_shaped_batch_answer_names_the_kernel_and_the_rows():
    f, x, w = _OneRowTooMany(), np.array([1.0, -2.0]), np.array([1.0, 0.0])
    rows = 2 * f.dim + 8          # the fallback scores the vertices and 8 samples
    for search, kernel, k in [
            (lambda: sd.solve_l1_extreme(f, x), "_subderivatives", 1),        # the read-back
            (lambda: sd.solve_sampling_fallback(f, x, sd.NormChoice.L2, 8, 0),
             "_subderivatives", rows),
            (lambda: sd.fd_subderivative(f, x, w), "values", None)]:      # one query per estimate
        with pytest.raises(ValueError) as exc:
            search()
        got = re.fullmatch(rf"_OneRowTooMany\.{kernel} returned shape \((\d+),\) "
                           r"for (\d+) rows", str(exc.value))
        assert got and int(got[1]) == int(got[2]) + 1 and (k is None or int(got[2]) == k)


@pytest.mark.parametrize("norm", list(sd.NormChoice))
def test_norm_of_is_the_hand_written_formula_bit_for_bit(norm, rng):
    formula = {sd.NormChoice.L2: lambda w: np.sqrt(np.dot(w, w)),
               sd.NormChoice.L1: lambda w: np.sum(np.abs(w)),
               sd.NormChoice.LINF: lambda w: np.max(np.abs(w))}[norm]
    for n in [1, 2, 3, 7, 64, 1000]:
        for w in rng.standard_normal((50, n)) * 10.0 ** rng.integers(-5, 6, (50, 1)):
            got = sd.direction.norm_of(w, norm)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(formula(w)).tobytes()


@pytest.mark.parametrize("value", [float("nan"), 2.5], ids=["nan", "fraction"])
def test_search_and_sampler_counts_are_integers(value):
    with pytest.raises(ValueError, match="^budget must be an integer"):
        sd.solve_sampling_fallback(sd.L1Norm(2), np.zeros(2), sd.NormChoice.L2, value, 0)
    with pytest.raises(ValueError, match="^pairs must be an integer"):
        sd.descent_property_sample(sd.quadratic_model(np.zeros(2)), 1.0,
                                   (np.zeros(2), np.ones(2)), value, 0)


def test_fallback_samples_are_read_only_and_results_own_their_direction():
    samples = sd.direction._fallback_samples(3, sd.NormChoice.L2, 8, 4)
    assert not samples.flags.writeable
    with pytest.raises(ValueError):
        samples[0, 0] = 2.0
    # The winner is a sample at x = 0: no signed unit vector goes downhill.
    f = sd.sum_models([sd.quadratic_model(np.zeros(3)), sd.NegL1Norm(3)])
    first = sd.solve_sampling_fallback(f, np.zeros(3), sd.NormChoice.L2, 8, 4)
    kept = first.w.copy()
    first.w[:] = 7.0
    again = sd.solve_sampling_fallback(f, np.zeros(3), sd.NormChoice.L2, 8, 4)
    assert again.w.tobytes() == kept.tobytes()
    assert again.value == first.value


@pytest.mark.parametrize("n", [1, 3, 6])
def test_vertex_matrices_are_read_only_and_the_builders_matrices(n):
    # the only cached vertex rows head the fallback's candidate matrix
    C = sd.direction._fallback_candidates(n, sd.NormChoice.L1, 8, 4)
    assert not C.flags.writeable
    with pytest.raises(ValueError):
        C[0, 0] = 2.0
    assert C.dtype == np.float64 and C.shape == (2 * n + 8, n)
    assert C[:2 * n].tobytes() == sd.direction.l1_vertices(n).tobytes()
    assert C[2 * n:].tobytes() == sd.direction._fallback_samples(n, sd.NormChoice.L1, 8, 4).tobytes()
    assert sd.direction._fallback_candidates(n, sd.NormChoice.L1, 8, 4) is C
    # the public builder still hands out a fresh, writable matrix
    V = sd.direction.l1_vertices(n)
    assert V.flags.writeable and sd.direction.l1_vertices(n) is not V


def test_vertex_searches_are_the_same_cold_and_warm_and_own_their_direction():
    f = sd.sum_models([sd.quadratic_model(np.zeros(3)), sd.NegL1Norm(3)])
    x = np.array([0.5, -1.0, 2.0])
    searches = [lambda: sd.solve_l1_extreme(f, x),
                # over the l1 ball a linear d f(x)(.) is least at a vertex
                lambda: sd.solve_sampling_fallback(f, x, sd.NormChoice.L1, 8, 4)]
    for search in searches:
        sd.direction._fallback_candidates.cache_clear()
        cold = search()
        kept = (cold.w.tobytes(), cold.value, cold.exact, cold.evaluations)
        assert any(cold.w.tobytes() == v.tobytes() for v in sd.direction.l1_vertices(3))
        cold.w[:] = 7.0
        warm = search()
        assert (warm.w.tobytes(), warm.value, warm.exact, warm.evaluations) == kept


def _trace_bytes(tr):
    rows = [(r.k, r.f, r.dir_value, r.alpha, r.backtracks, r.step_norm) for r in tr.records]
    return (repr(rows), tr.status, tr.detail, tr.certified, tr.f_final,
            tr.x_final.tobytes(), [x.tobytes() for x in tr.iterates])


def test_fallback_run_matches_the_per_call_draws(monkeypatch):
    bp = build_problem("relu_net", {})
    assert bp.defaults.strategy == "fallback"
    cached = sd.run(bp.model, bp.x0, bp.defaults)

    def per_call(n, norm, budget, seed):
        return np.array(_drawn_per_call(n, norm, budget, seed)).reshape(budget, n)
    monkeypatch.setattr(sd.direction, "_fallback_samples", per_call)
    assert _trace_bytes(sd.run(bp.model, bp.x0, bp.defaults)) == _trace_bytes(cached)


def test_fallback_run_matches_per_call_candidates(monkeypatch):
    # The cached candidates are built once per key, so the run above, with a
    # warm cache, no longer reaches the patched sampler; this one replaces
    # the cache itself with a per-call build.
    bp = build_problem("relu_net", {})
    cached = sd.run(bp.model, bp.x0, bp.defaults)

    def per_call(n, norm, budget, seed):
        return np.vstack([sd.direction.l1_vertices(n),
                          np.array(_drawn_per_call(n, norm, budget, seed)).reshape(budget, n)])
    monkeypatch.setattr(sd.direction, "_fallback_candidates", per_call)
    assert _trace_bytes(sd.run(bp.model, bp.x0, bp.defaults)) == _trace_bytes(cached)
