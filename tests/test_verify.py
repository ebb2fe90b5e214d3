"""The verification layer itself, cross-checked against closed forms."""

import itertools
import math

import numpy as np
import pytest

import subderiv as sd
from subderiv import verify
from subderiv.extreal import ExtReal

from test_acceptance import _bundled_semidiff_oracles
from test_batched import ScalarOnly


def test_fd_l1_example(l1):
    x = np.array([1.0, -1.0, 0.0])
    w = np.array([2.0, 1.0, -3.0])
    res = sd.fd_subderivative(l1, x, w)
    assert res.estimate.v == pytest.approx(4.0, abs=1e-6)
    assert res.converged


def test_fd_zero_norm_divergence():
    zn = sd.ZeroNormComposite(np.eye(2), np.zeros(2))
    res = sd.fd_subderivative(zn, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert res.estimate == sd.POS_INF
    assert res.diverged


def test_fd_zero_direction(l1, quad2):
    for m in (l1, quad2):
        res = sd.fd_subderivative(m, np.full(m.dim, 0.7), np.zeros(m.dim))
        assert res.estimate == ExtReal(0.0)


def test_fd_liminf_mode_takes_grid_minimum(quad2):
    cfg = sd.FDConfig(mode=sd.FDMode.LIMINF_APPROX)
    x, w = np.array([1.0, 1.0]), np.array([1.0, 0.0])
    res = sd.fd_subderivative(quad2, x, w, cfg)
    # The quotient of a convex quadratic decreases towards the limit from
    # above as t shrinks, and perturbations dip slightly below it.
    exact = quad2.subderivative(x, w).v
    assert res.estimate.v <= exact + 1e-12
    assert res.estimate.v == pytest.approx(exact, abs=1e-2)


def test_fd_respects_domain(quad2):
    class Gate(sd.FunctionModel):
        extended_valued = True

        @property
        def dim(self):
            return 1

        def value(self, x):
            return sd.POS_INF

        def subderivative(self, x, w):
            return sd.POS_INF

    with pytest.raises(sd.DomainViolation):
        sd.fd_subderivative(Gate(), np.zeros(1), np.ones(1))


def test_fd_config_validation():
    with pytest.raises(ValueError):
        sd.FDConfig(t0=0.0)
    with pytest.raises(ValueError):
        sd.FDConfig(rho=1.0)
    with pytest.raises(ValueError):
        sd.FDConfig(levels=1)


@pytest.mark.parametrize("field", ["levels", "perturbations"])
@pytest.mark.parametrize("value", [float("nan"), 2.5, 3.0], ids=["nan", "fraction", "float"])
def test_fd_config_counts_are_integers(field, value):
    # perturbations=nan ran with no perturbations at all
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        sd.FDConfig(**{field: value})
    assert getattr(sd.FDConfig(**{field: np.int64(3)}), field) == 3


def test_fd_config_refuses_negative_perturbations():
    with pytest.raises(ValueError, match="perturbations must be nonnegative"):
        sd.FDConfig(perturbations=-1)


_NAN = float("nan")
_INF = float("inf")


def _fd_zero_norm_at_support_change(cfg):
    zn = sd.ZeroNormComposite(np.eye(2), np.zeros(2))
    return sd.fd_subderivative(zn, np.array([0.0, 1.0]), np.array([1.0, 0.0]), cfg)


@pytest.mark.parametrize("call, match", [
    # "the finest step t0 * rho**levels underflows to 0"
    (lambda: sd.FDConfig(t0=_NAN), "t0 must"),
    # converged=False at every point
    (lambda: sd.FDConfig(agreement_tol=_NAN), "agreement_tol"),
    # never diverged: a finite estimate where d f(x)(w) = +inf
    (lambda: _fd_zero_norm_at_support_change(sd.FDConfig(divergence_threshold=_NAN)),
     "divergence_threshold"),
    # "cannot convert float NaN to integer" from the grid build
    (lambda: sd.brute_force_direction(sd.L1Norm(2), np.zeros(2), sd.NormChoice.L2,
                                      resolution=_NAN), "resolution must"),
    # "W must have finite entries" from the scaled direction
    (lambda: sd.homogeneity_check(sd.L1Norm(2), np.zeros(2), np.ones(2), _NAN), "t must be positive"),
    # clean on a quadratic whose descent constant 0 is violated
    (lambda: sd.descent_property_sample(sd.quadratic_model(np.zeros(2)), 0.0,
                                        (-np.ones(2), np.ones(2)), pairs=5, seed=0, tol=_NAN),
     "tol must"),
    (lambda: sd.FDConfig(t0=_INF), "t0 must be finite"),
    (lambda: sd.FDConfig(agreement_tol=_INF), "agreement_tol must be finite"),
    # the estimate read 104857600.0 where d f(x)(w) = +inf
    (lambda: _fd_zero_norm_at_support_change(sd.FDConfig(divergence_threshold=_INF)),
     "divergence_threshold must be finite"),
    (lambda: sd.brute_force_direction(sd.L1Norm(2), np.zeros(2), sd.NormChoice.L2,
                                      resolution=_INF), "resolution must be finite"),
    # "W must have finite entries" from the scaled direction
    (lambda: sd.homogeneity_check(sd.L1Norm(2), np.zeros(2), np.ones(2), _INF),
     "t must be finite"),
    # clean on a quadratic where tol = 0 finds violations
    (lambda: sd.descent_property_sample(sd.quadratic_model(np.zeros(2)), 0.0,
                                        (-np.ones(2), np.ones(2)), pairs=5, seed=0, tol=_INF),
     "tol must be finite"),
], ids=["fd_t0", "fd_agreement_tol", "fd_divergence_threshold", "brute_resolution",
        "homogeneity_t", "descent_sample_tol",
        "fd_t0_inf", "fd_agreement_tol_inf", "fd_divergence_threshold_inf",
        "brute_resolution_inf", "homogeneity_t_inf", "descent_sample_tol_inf"])
def test_verifier_parameters_reject_nan(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_fd_zero_norm_at_support_change_diverges():
    res = _fd_zero_norm_at_support_change(sd.FDConfig())
    assert res.diverged and res.estimate == sd.POS_INF


def test_fd_agreement_across_semidiff_oracles(rng):
    models = [sd.L1Norm(3, 1.3), sd.NegL1Norm(3, 0.7),
              sd.moreau_envelope(sd.L1Inner(0.8), 0.5, n=3),
              sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=3),
              sd.distance_to_set(sd.Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0])))]
    for m in models:
        for _ in range(20):
            x = rng.uniform(-2, 2, m.dim)
            w = rng.uniform(-1, 1, m.dim)
            res = sd.fd_subderivative(m, x, w)
            assert res.estimate.v == pytest.approx(
                m.subderivative(x, w).v, abs=1e-5)


def _fd_drawn_per_level(f, x, w, cfg):
    """fd_subderivative's former loop, drawing each level's perturbations anew."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    fx = f.value(x).v
    wnorm = float(np.linalg.norm(w))
    t_grid = [cfg.t0 * cfg.rho ** j for j in range(cfg.levels + 1)]
    quotients, min_quotients = [], []
    for j, t in enumerate(t_grid):
        q = (f.value(x + t * w).v - fx) / t
        level_min = q
        radius = min(t, 0.1 * wnorm)
        if radius > 0 and cfg.perturbations > 0:
            rng = np.random.default_rng([cfg.seed, j])
            for _ in range(cfg.perturbations):
                u = rng.standard_normal(f.dim)
                u *= radius / np.linalg.norm(u)
                qp = (f.value(x + t * (w + u)).v - fx) / t
                level_min = min(level_min, qp)
        quotients.append(q)
        min_quotients.append(level_min)
    return t_grid, quotients, min_quotients


def _as_bytes(*lists):
    return tuple(np.array(v).tobytes() for v in lists)


class _ValueLog(sd.FunctionModel):
    """Forwards ``value`` and keeps the bytes of every point it is asked at."""

    def __init__(self, inner):
        self.inner = inner
        self.points = []

    @property
    def dim(self):
        return self.inner.dim

    def value(self, x):
        self.points.append(np.asarray(x, dtype=float).tobytes())
        return self.inner.value(x)

    def subderivative(self, x, w):
        return self.inner.subderivative(x, w)


def test_fd_matches_the_per_level_draws_on_the_catalogue(rng):
    # Every probe point is asked in the same order with the same bytes, and
    # the grid fields (which fix the estimate and both flags) are equal.
    net = sd.relu_network_loss([1, 1, 1], [(np.array([0.7]), np.array([0.2])),
                                           (np.array([-0.4]), np.array([0.6]))])
    cfgs = [sd.FDConfig(), sd.FDConfig(mode=sd.FDMode.LIMINF_APPROX, seed=7, levels=6,
                                       perturbations=3)]
    for name, model in _bundled_semidiff_oracles(rng) + [("relu_net", net)]:
        for cfg in cfgs:
            for _ in range(2):
                x = rng.uniform(-2, 2, model.dim)
                w = rng.uniform(-1, 1, model.dim)
                got_log, want_log = _ValueLog(model), _ValueLog(model)
                got = sd.fd_subderivative(got_log, x, w, cfg)
                want = _as_bytes(*_fd_drawn_per_level(want_log, x, w, cfg))
                assert got_log.points == want_log.points, name
                assert _as_bytes(got.t_grid, got.quotients, got.min_quotients) == want, name


def test_fd_perturbations_are_read_only():
    draws, norms = verify._fd_perturbations(1, 3, 2, 4)
    assert draws.shape == (4, 2, 4) and norms.shape == (4, 2)
    assert not draws.flags.writeable and not norms.flags.writeable


def test_brute_force_quadratic_l2(quad2):
    res = sd.brute_force_direction(quad2, np.array([3.0, 4.0]),
                                   sd.NormChoice.L2, 1e-3)
    assert res.value.v == pytest.approx(-5.0, abs=1e-4)
    assert not res.exact


def test_brute_force_one_dimensional_is_exact():
    m = sd.L1Norm(1)
    res = sd.brute_force_direction(m, np.array([2.0]), sd.NormChoice.L2, 0.5)
    assert res.value == ExtReal(-1.0)
    assert res.w == pytest.approx(np.array([-1.0]))


def test_brute_force_matches_l1_extreme_on_concave(rng):
    m = sd.sum_models([sd.quadratic_model(np.zeros(3)), sd.NegL1Norm(3)])
    for _ in range(10):
        x = rng.uniform(-2, 2, 3)
        exact = sd.solve_l1_extreme(m, x)
        brute = sd.brute_force_direction(m, x, sd.NormChoice.L1, 0.25)
        assert brute.value.v == pytest.approx(exact.value.v, abs=1e-6)


def test_brute_force_dimension_guard():
    m = sd.L1Norm(5)
    with pytest.raises(sd.DimensionTooLarge):
        sd.brute_force_direction(m, np.zeros(5), sd.NormChoice.L2, 0.1)


def test_brute_force_bracket_between_exact_and_fallback(rng):
    m = sd.sum_models([sd.quadratic_model(np.zeros(2)), sd.NegL1Norm(2)])
    for seed in range(5):
        x = rng.uniform(-2, 2, 2)
        exact = sd.solve_l1_extreme(m, x)
        brute = sd.brute_force_direction(m, x, sd.NormChoice.L1, 0.125)
        fb = sd.solve_sampling_fallback(m, x, sd.NormChoice.L1, 32, seed)
        assert brute.value.v >= exact.value.v - 1e-9
        assert brute.value.v <= fb.value.v + 1e-12


# Reference: the sphere grids and the scan as they were built before the
# enumeration became one matrix and one batched query, row by row and one
# scalar query per candidate.

def _rowwise_l2_grid(n, resolution, cap):
    if n == 1:
        return [np.array([-1.0]), np.array([1.0])]
    counts = [max(2, int(math.ceil(math.pi / resolution)) + 1)] * (n - 2)
    counts.append(max(4, int(math.ceil(2 * math.pi / resolution))))
    total = int(np.prod(counts))
    if total > cap:
        raise ValueError(f"resolution {resolution} needs {total} sphere samples")
    axes = [np.linspace(0.0, math.pi, c) for c in counts[:-1]]
    axes.append(np.linspace(0.0, 2 * math.pi, counts[-1], endpoint=False))
    out = []
    for angles in itertools.product(*axes):
        w = np.empty(n)
        s = 1.0
        for i, a in enumerate(angles):
            w[i] = s * math.cos(a)
            s *= math.sin(a)
        w[n - 1] = s
        out.append(w)
    return out


def _rowwise_simplex(n, k):
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _rowwise_simplex(n - 1, k - first):
            yield (first,) + rest


def _rowwise_l1_grid(n, resolution, cap):
    k = max(1, int(round(1.0 / resolution)))
    out = []
    for combo in _rowwise_simplex(n, k):
        mags = np.array(combo, dtype=float) / k
        support = [i for i in range(n) if mags[i] > 0]
        for signs in itertools.product([1.0, -1.0], repeat=len(support)):
            w = mags.copy()
            for s, i in zip(signs, support):
                w[i] *= s
            out.append(w)
        if len(out) > cap:
            raise ValueError(f"resolution {resolution} needs too many l1 samples")
    return out


def _rowwise_linf_grid(n, resolution, cap):
    steps = max(2, int(round(2.0 / resolution)) + 1)
    axis = np.linspace(-1.0, 1.0, steps)
    if 2 * n * steps ** (n - 1) > cap:
        raise ValueError(f"resolution {resolution} needs too many linf samples")
    out = []
    for j in range(n):
        for sgn in (1.0, -1.0):
            for rest in itertools.product(axis, repeat=n - 1):
                w = np.empty(n)
                w[j] = sgn
                idx = 0
                for i in range(n):
                    if i != j:
                        w[i] = rest[idx]
                        idx += 1
                out.append(w)
    return out


GRIDS = {
    sd.NormChoice.L2: (verify._l2_sphere_grid, _rowwise_l2_grid),
    sd.NormChoice.L1: (verify._l1_sphere_grid, _rowwise_l1_grid),
    sd.NormChoice.LINF: (verify._linf_sphere_grid, _rowwise_linf_grid),
}
RESOLUTIONS = (0.05, 0.125, 0.25, 0.3, 1.0)


def _rowwise_brute_force(f, x, norm, resolution):
    n = f.dim
    cands = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cands.append(e.copy())
        cands.append(-e)
    if f.has_gradient:
        g = f.gradient(x)
        nrm = sd.direction.norm_of(g, norm)
        if nrm > 0:
            cands.append(-(g / nrm))
    cands.extend(GRIDS[norm][1](n, resolution, verify._BRUTE_SAMPLE_CAP))
    best_w, best_v = None, np.inf
    for wv in cands:
        d = f.subderivative(x, wv)
        if d.v < best_v:
            best_w, best_v = wv, d.v
    if best_w is None:
        best_w = cands[0]
    return sd.DirectionResult(best_w, f.subderivative(x, best_w), False, len(cands) + 1)


class Patchwork(sd.FunctionModel):
    """d f(x)(w) by region of w in the plane: +inf for w_0 > 0.5 or
    w_0 < -0.95, -inf for w_1 < -0.9 (when ``minus_inf``), and otherwise
    floor(4 (w_0 - w_1)) / 4, so many grid points tie. ``plus_inf_only``
    answers +inf everywhere."""

    def __init__(self, minus_inf=True, plus_inf_only=False):
        self.minus_inf = minus_inf
        self.plus_inf_only = plus_inf_only

    @property
    def dim(self):
        return 2

    def value(self, x):
        return ExtReal(0.0)

    def subderivatives(self, x, W):
        W = sd.model.as_directions(W, 2)
        if self.plus_inf_only:
            return np.full(W.shape[0], np.inf)
        v = np.floor(4.0 * (W[:, 0] - W[:, 1])) / 4.0
        if self.minus_inf:
            v = np.where(W[:, 1] < -0.9, -np.inf, v)
        return np.where((W[:, 0] > 0.5) | (W[:, 0] < -0.95), np.inf, v)

    def subderivative(self, x, w):
        return ExtReal(float(self.subderivatives(x, np.asarray(w)[None, :])[0]))


def assert_same_direction(got, want):
    assert got.w.tobytes() == want.w.tobytes()
    assert got.value == want.value
    assert got.exact is want.exact is False
    assert got.evaluations == want.evaluations


@pytest.mark.parametrize("norm", list(sd.NormChoice), ids=lambda c: c.value)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_grids_match_the_row_by_row_builders(norm, n, monkeypatch):
    build, rowwise = GRIDS[norm]
    full = verify._BRUTE_SAMPLE_CAP
    resolutions = RESOLUTIONS + ((1e-3,) if norm is sd.NormChoice.L2 and n <= 2 else ())
    for res in resolutions:
        want = np.array(rowwise(n, res, full)).reshape(-1, n)
        got = build(n, res)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (n, res)
        if norm is sd.NormChoice.L2 and n == 1:
            continue  # the two points of the line, never capped
        # Both raise exactly when the grid has more rows than the cap.
        size = want.shape[0]
        with pytest.raises(ValueError):
            rowwise(n, res, size - 1)
        monkeypatch.setattr(verify, "_BRUTE_SAMPLE_CAP", size - 1)
        with pytest.raises(ValueError):
            build(n, res)
        monkeypatch.setattr(verify, "_BRUTE_SAMPLE_CAP", size)
        assert build(n, res).shape == (size, n)
        monkeypatch.setattr(verify, "_BRUTE_SAMPLE_CAP", full)


@pytest.mark.parametrize("norm", list(sd.NormChoice), ids=lambda c: c.value)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brute_candidates_are_read_only_and_the_builders_matrix(norm, n):
    W = verify._brute_candidates(norm, n, 0.5)
    assert not W.flags.writeable
    with pytest.raises(ValueError):
        W[0, 0] = 2.0
    eye = np.eye(n)
    head = [row for i in range(n) for row in (eye[i], -eye[i])]  # -0.0 off the diagonal
    want = np.vstack(head + [GRIDS[norm][0](n, 0.5)])
    assert W.dtype == np.float64 and W.tobytes() == want.tobytes()
    assert verify._brute_candidates(norm, n, 0.5) is W


@pytest.mark.parametrize("norm", list(sd.NormChoice), ids=lambda c: c.value)
def test_brute_force_is_the_same_cold_and_warm_and_owns_its_direction(norm):
    c = np.array([0.5, -1.0, 0.25])
    x = np.array([1.0, 0.0, -2.0])
    for model in (sd.quadratic_model(c), sd.sum_models([sd.quadratic_model(c), sd.L1Norm(3)])):
        verify._brute_candidates.cache_clear()
        cold = sd.brute_force_direction(model, x, norm, 0.25)
        kept = (cold.w.tobytes(), cold.value, cold.evaluations)
        cold.w[:] = 7.0
        warm = sd.brute_force_direction(model, x, norm, 0.25)
        assert (warm.w.tobytes(), warm.value, warm.evaluations) == kept
        assert_same_direction(warm, _rowwise_brute_force(model, x, norm, 0.25))


@pytest.mark.parametrize("norm", list(sd.NormChoice), ids=lambda c: c.value)
def test_brute_force_refuses_a_cold_key_over_the_sample_cap(norm, monkeypatch):
    verify._brute_candidates.cache_clear()
    monkeypatch.setattr(verify, "_BRUTE_SAMPLE_CAP", 10)
    with pytest.raises(ValueError):
        sd.brute_force_direction(sd.L1Norm(3), np.zeros(3), norm, 0.5)
    assert verify._brute_candidates.cache_info().currsize == 0


def test_sphere_grid_caps_at_full_size():
    # 19.7M, 2.6M and 2.1M rows against the cap of 2M
    with pytest.raises(ValueError):
        verify._l2_sphere_grid(3, 1e-3)
    with pytest.raises(ValueError):
        verify._l1_sphere_grid(4, 0.01)
    with pytest.raises(ValueError):
        verify._linf_sphere_grid(4, 0.02)


@pytest.mark.parametrize("norm", list(sd.NormChoice), ids=lambda c: c.value)
def test_brute_force_matches_the_scalar_scan_on_the_catalogue(norm):
    rng = np.random.default_rng(20261018)
    for name, model in _bundled_semidiff_oracles(rng):
        for kinked in (False, True):
            x = rng.uniform(-2, 2, model.dim)
            if kinked:
                x[rng.integers(model.dim)] = 0.0
            want = _rowwise_brute_force(model, x, norm, 0.5)
            assert_same_direction(sd.brute_force_direction(model, x, norm, 0.5), want)
            scalar = ScalarOnly(model)
            assert_same_direction(sd.brute_force_direction(scalar, x, norm, 0.5), want)
            assert scalar.calls == want.evaluations, name


@pytest.mark.parametrize("norm", list(sd.NormChoice), ids=lambda c: c.value)
def test_brute_force_gradient_candidate_keeps_its_place(norm):
    # g = (2, -2, 0): under linf, -(g/2) = (-1, 1, -0.0) is a minimizer that
    # the grid repeats later with +0.0 and other third coordinates.
    c = np.array([0.5, -1.0, 0.25])
    model = sd.quadratic_model(c)
    x = c + np.array([2.0, -2.0, 0.0])
    want = _rowwise_brute_force(model, x, norm, 0.5)
    assert_same_direction(sd.brute_force_direction(model, x, norm, 0.5), want)
    if norm is not sd.NormChoice.L1:  # under l1, -e1 reaches -2 first
        g = model.gradient(x)
        assert want.w.tobytes() == (-(g / sd.direction.norm_of(g, norm))).tobytes()


@pytest.mark.parametrize("norm", list(sd.NormChoice), ids=lambda c: c.value)
@pytest.mark.parametrize("case, first", [
    ((True, False), [0.0, -1.0]),    # -e2: the first -inf candidate
    ((False, False), None),          # ties at a finite minimum
    ((False, True), [1.0, 0.0]),     # every value +inf: the first candidate
], ids=["minus_inf", "ties", "all_plus_inf"])
def test_brute_force_extended_values_and_ties(norm, case, first):
    model = Patchwork(*case)
    x = np.zeros(2)
    want = _rowwise_brute_force(model, x, norm, 0.125)
    for f in (model, ScalarOnly(model)):
        got = sd.brute_force_direction(f, x, norm, 0.125)
        assert_same_direction(got, want)
    if first is not None:
        assert np.array_equal(want.w, first)


def test_descent_sampler_quadratic_equality_case(quad2):
    rep = sd.descent_property_sample(quad2, 1.0,
                                     (np.full(2, -3.0), np.full(2, 3.0)),
                                     pairs=400, seed=11)
    assert rep.clean
    assert rep.max_gap <= 1e-9


def test_descent_sampler_concave_case():
    m = sd.NegL1Norm(2)
    rep = sd.descent_property_sample(m, 0.0, (np.full(2, -3.0), np.full(2, 3.0)),
                                     pairs=400, seed=12)
    assert rep.clean


def test_descent_sampler_moreau_scalar_zero_norm():
    env = sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=1)
    rep = sd.descent_property_sample(env, 2.0, (np.full(1, -3.0), np.full(1, 3.0)),
                                     pairs=400, seed=13)
    assert rep.clean


def test_descent_sampler_refuses_negative_pairs(quad2):
    with pytest.raises(ValueError, match="^pairs must be nonnegative"):
        sd.descent_property_sample(quad2, 1.0, (np.zeros(2), np.ones(2)), pairs=-1, seed=0)
    assert sd.descent_property_sample(quad2, 1.0, (np.zeros(2), np.ones(2)),
                                      pairs=0, seed=0).clean


def test_descent_sampler_negative_control(quad2):
    # L = 0.2 is too small for a 1-smooth quadratic; violations must show up.
    rep = sd.descent_property_sample(quad2, 0.2,
                                     (np.full(2, -3.0), np.full(2, 3.0)),
                                     pairs=400, seed=14)
    assert not rep.clean
    assert rep.max_gap > 1e-6


def test_sufficient_decrease_audit_on_solver_trace(quad2):
    cfg = sd.SolverConfig(epsilon=1e-4, strategy="l2", max_iter=200)
    tr = sd.run(quad2, np.array([3.3, 4.1]), cfg)
    assert all(sd.sufficient_decrease_audit(tr, 0.25))


def test_sufficient_decrease_audit_negative_control(quad2):
    tr = sd.run(quad2, np.array([3.3, 4.1]),
                sd.SolverConfig(epsilon=1e-4, strategy="l2", max_iter=50))
    # Fabricate an increasing step: flip the sign of a recorded f.
    bad = sd.Trace(records=[tr.records[0],
                            sd.IterationRecord(1, tr.records[0].f + 5.0,
                                               -1.0, 1.0, 0, 1.0, 0)],
                   status=tr.status, x_final=tr.x_final,
                   f_final=tr.records[0].f + 5.0, certified=True)
    flags = sd.sufficient_decrease_audit(bad, 0.25)
    assert flags[0] is False


def test_sufficient_decrease_zero_direction_row():
    rec = sd.IterationRecord(0, 1.0, 0.0, 1.0, 0, 0.0, 0)
    tr = sd.Trace(records=[rec], status=sd.TerminalStatus.MAX_ITER,
                  x_final=np.zeros(1), f_final=1.0, certified=True)
    assert sd.sufficient_decrease_audit(tr, 0.25) == [True]
    tr_bad = sd.Trace(records=[rec], status=sd.TerminalStatus.MAX_ITER,
                      x_final=np.zeros(1), f_final=1.5, certified=True)
    assert sd.sufficient_decrease_audit(tr_bad, 0.25) == [False]


def test_tangent_membership_orthant():
    G = sd.identity_map(2)
    X = sd.nonnegative_orthant(2)
    assert sd.tangent_membership(G, X, np.array([0.0, 1.0]), np.array([1.0, -1.0]))
    assert not sd.tangent_membership(G, X, np.array([0.0, 1.0]), np.array([-1.0, 0.0]))
    assert sd.tangent_membership(G, X, np.array([0.0, 1.0]), np.zeros(2))


def test_tangent_membership_singleton():
    G = sd.identity_map(1)
    X = sd.Singleton(np.zeros(1))
    assert not sd.tangent_membership(G, X, np.zeros(1), np.array([1.0]))
    assert sd.tangent_membership(G, X, np.zeros(1), np.zeros(1))


def test_tangent_membership_requires_feasibility():
    G = sd.identity_map(2)
    with pytest.raises(sd.NotFeasible):
        sd.tangent_membership(G, sd.nonnegative_orthant(2),
                              np.array([-1.0, 0.0]), np.zeros(2))


def test_tangent_membership_takes_the_cone_at_the_nearest_point():
    # 1 + 5e-10 is admitted by the 1e-9 of contains but lies on no face, so
    # the tangent cone there would be the whole line; the face it is off counts
    G, X = sd.identity_map(1), sd.Box([0.0], [1.0])
    assert not sd.tangent_membership(G, X, [1.0 + 5e-10], [1.0])
    assert sd.tangent_membership(G, X, [1.0 - 5e-10], [1.0])
    # the ball's projections round to either side of the sphere; at every one
    # the outward normal is not tangent and the inward one is
    G, X = sd.identity_map(2), sd.Ball([0.5, -0.5], 1.5)
    inward = 0
    for a in np.linspace(0.0, 2 * np.pi, 60, endpoint=False):
        y = X.project(X.center + 3.0 * np.array([np.cos(a), np.sin(a)]))[0]
        u = y - X.center
        inward += np.linalg.norm(u) < X.radius
        assert not sd.tangent_membership(G, X, y, u)
        assert sd.tangent_membership(G, X, y, -u)
    assert inward > 0


def test_tangent_membership_agrees_with_sampled_feasibility(rng):
    # Polyhedral fixture: membership in the derived cone must match the
    # sampled feasibility of x + t w (projected distance <= o(t)).
    A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 0.0])
    piece = sd.ConvexPolyhedron(A, b)
    X = sd.FiniteUnion([piece])
    dist_model = sd.distance_to_set(X)
    G = sd.identity_map(2)
    boundary_points = [np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                       np.array([0.5, 0.5]), np.array([0.0, 1.0])]
    for x in boundary_points:
        for _ in range(20):
            w = rng.uniform(-1, 1, 2)
            member = sd.tangent_membership(G, X, x, w)
            ts = np.array([1e-2, 1e-3, 1e-4])
            dists = np.array([dist_model.value(x + t * w).v for t in ts])
            sampled = bool(np.all(dists <= 20.0 * ts ** 2 + 1e-12))
            assert member == sampled, (x, w)
