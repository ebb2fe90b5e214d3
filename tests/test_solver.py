"""Main-loop behavior: termination, descent, rate certificates, reductions."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

import subderiv as sd
from subderiv.extreal import ExtReal
from subderiv.problems import build_problem

from conftest import make_neg_relu


def dc_config(eps=1e-2, max_iter=500):
    return sd.SolverConfig(epsilon=eps, norm=sd.NormChoice.L1,
                           strategy="l1-ext", max_iter=max_iter)


def test_run_dc_fixture_converges(dc1):
    tr = sd.run(dc1, np.array([3.0]), dc_config(eps=0.01))
    assert tr.status is sd.TerminalStatus.EPS_STATIONARY
    assert tr.certified
    assert abs(abs(tr.x_final[0]) - 1.0) <= 0.02
    assert tr.f_final == pytest.approx(-0.5, abs=1e-3)


def test_run_large_epsilon_stops_immediately(quad2):
    x0 = np.array([3.0, 4.0])
    tr = sd.run(quad2, x0, sd.SolverConfig(epsilon=10.0, strategy="l2"))
    assert tr.status is sd.TerminalStatus.EPS_STATIONARY
    assert len(tr.records) == 1
    assert tr.records[0].alpha == 0.0
    assert tr.x_final == pytest.approx(x0)


def test_run_smooth_quadratic_reaches_tolerance(quad2):
    tr = sd.run(quad2, np.array([3.0, 4.0]),
                sd.SolverConfig(epsilon=1e-3, strategy="l2", max_iter=300))
    assert tr.status is sd.TerminalStatus.EPS_STATIONARY
    assert np.linalg.norm(quad2.gradient(tr.x_final)) <= 1e-3


def test_run_monotone_descent_under_armijo(dc1):
    tr = sd.run(dc1, np.array([3.0]), dc_config())
    fs = [r.f for r in tr.records] + [tr.f_final]
    for a, b, rec in zip(fs, fs[1:], tr.records):
        if rec.alpha > 0:
            assert b < a


def test_run_rejects_infinite_start():
    class Indicator(sd.FunctionModel):
        extended_valued = True

        @property
        def dim(self):
            return 1

        def value(self, x):
            return ExtReal(0.0) if abs(x[0]) <= 1 else sd.POS_INF

        def subderivative(self, x, w):
            return ExtReal(0.0)

    with pytest.raises(sd.DomainViolation):
        sd.run(Indicator(), np.array([5.0]))


def test_run_backtrack_exhausted_status():
    # A model that lies about descent: value increases along the claimed
    # direction, so Armijo can never accept.
    class Liar(sd.FunctionModel):
        semi_differentiable = True
        has_gradient = True

        @property
        def dim(self):
            return 1

        def value(self, x):
            return ExtReal(float(x[0]))

        def subderivative(self, x, w):
            # Consistent with the claimed gradient -1, but f increases along
            # the resulting direction +1, so no step can be accepted.
            return ExtReal(-float(w[0]))

        def gradient(self, x):
            return -np.ones(1)

    tr = sd.run(Liar(), np.zeros(1), sd.SolverConfig(strategy="l2", max_iter=10))
    assert tr.status is sd.TerminalStatus.BACKTRACK_EXHAUSTED
    assert tr.records[-1].alpha == 0.0


def test_exhausted_search_names_the_resolution_of_f():
    # The benchmark's separable_l1 run: every |x_i - 1| reaches 2^-24, where
    # the sup-norm measure d = -n 2^-24 still exceeds epsilon, but no step
    # changes the computed f = 6000 + 2 ulp(6000) by the asked decrease.
    n = 4000
    bp = build_problem("separable_l1", {"n": str(n), "lam": "1.0", "a": "2.0"})
    x0 = np.random.default_rng([0, 1]).choice([-1.0, -0.5, 0.0, 0.5], n)
    tr = sd.run(bp.model, x0, bp.defaults)
    assert tr.status is sd.TerminalStatus.BACKTRACK_EXHAUSTED
    assert tr.f_final == 6000.000000000002
    found = re.search(r"alpha=(\S+) asked for a decrease of more than (\S+), "
                      r"against 8 ulps of \|f\(x\)\| = (\S+)$", tr.detail)
    alpha, asked, resolution = map(float, found.groups())
    last = tr.records[-1]
    assert alpha == 0.5 ** 60
    assert asked == -0.5 * alpha * last.dir_value
    assert resolution == 8 * np.spacing(tr.f_final)
    assert asked < resolution


def test_run_diminishing_step_out_of_domain_ends_left_domain():
    # f = x + indicator(x >= -1): the first diminishing step (alpha = 5) from
    # 0 lands at -5, where f = +inf and the oracle rejects any query.
    class HalfLine(sd.FunctionModel):
        extended_valued = True
        semi_differentiable = True

        @property
        def dim(self):
            return 1

        def value(self, x):
            return ExtReal(float(x[0])) if x[0] >= -1.0 else sd.POS_INF

        def subderivative(self, x, w):
            if x[0] < -1.0:
                raise sd.DomainViolation(f"f = +inf at x = {x[0]}")
            if x[0] == -1.0 and w[0] < 0:
                return sd.POS_INF
            return ExtReal(float(w[0]))

    cfg = sd.SolverConfig(strategy="fallback", schedule=sd.diminishing_schedule(5.0))
    tr = sd.run(HalfLine(), np.zeros(1), cfg)
    assert tr.status is sd.TerminalStatus.LEFT_DOMAIN
    assert tr.status.value == "LeftDomain"
    assert len(tr.records) == 1 and len(tr.iterates) == 1
    last = tr.records[-1]
    assert (last.alpha, last.backtracks, last.step_norm) == (0.0, 0, 0.0)
    assert last.dir_value < 0
    assert tr.x_final.tolist() == [0.0] and tr.f_final == 0.0
    assert "alpha=5.0" in tr.detail


def test_run_unbounded_floor():
    m = sd.linear_model(np.array([2e6, 0.0]))
    cfg = sd.SolverConfig(epsilon=1e-6, strategy="l2", max_iter=10_000, floor=-1e7)
    tr = sd.run(m, np.zeros(2), cfg)
    assert tr.status is sd.TerminalStatus.UNBOUNDED
    assert tr.f_final < -1e7


def test_run_diminishing_drives_linear_below_any_level():
    # On <c, x> the diminishing schedule loses ||c|| * H_N; pick the smallest
    # N with that sum past the target and verify the run got there.
    c = np.array([2e6, 0.0])
    m = sd.linear_model(c)
    target = -1e6
    nrm = float(np.linalg.norm(c))
    total, N = 0.0, 0
    while nrm * total <= -target:
        N += 1
        total += 1.0 / N
    cfg = sd.SolverConfig(epsilon=1e-9, strategy="l2", max_iter=N,
                          schedule=sd.diminishing_schedule(1.0), floor=-1e15)
    tr = sd.run(m, np.zeros(2), cfg)
    assert tr.status is sd.TerminalStatus.MAX_ITER
    assert tr.f_final <= target


def test_run_diminishing_terminates_on_minimizer(quad2):
    cfg = sd.SolverConfig(epsilon=0.05, strategy="l2", max_iter=500,
                          schedule=sd.diminishing_schedule(1.0))
    tr = sd.run(quad2, np.array([3.0, 0.0]), cfg)
    assert tr.status is sd.TerminalStatus.EPS_STATIONARY


def reference_normalized_gd(model, x0, iters, mu=0.5, max_backtracks=60):
    """Normalized gradient descent with capped Armijo, written independently."""
    x = np.asarray(x0, dtype=float)
    out = [x.copy()]
    for _ in range(iters):
        g = model.gradient(x)
        nrm = float(np.linalg.norm(g))
        if nrm == 0.0:
            break
        w = -(g / nrm)
        d = float(np.dot(model.gradient(x), w))
        fx = model.value(x).v
        alpha = None
        for m in range(max_backtracks + 1):
            a = mu ** m
            if model.value(x + a * w).v - fx < 0.5 * a * d:
                alpha = a
                break
        if alpha is None:  # identical schedule: stop where the solver stops
            break
        x = x + alpha * w
        out.append(x.copy())
    return out


def test_smooth_reduction_matches_normalized_gradient_descent(quad2):
    cfg = sd.SolverConfig(epsilon=0.0, strategy="l2", max_iter=100)
    tr = sd.run(quad2, np.array([3.0, 4.0]), cfg)
    ref = reference_normalized_gd(quad2, np.array([3.0, 4.0]), 100)
    solver_xs = tr.iterates + [tr.x_final]
    # Both runs stop at the same floating-point bottom under the shared
    # backtrack cap; up to there the sequences must agree coordinatewise.
    assert len(solver_xs) >= len(ref)
    for a, b in zip(solver_xs, ref):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_check_d_stationary_rejects_neg_relu_kink():
    m = make_neg_relu()
    for eps in (0.0, 0.5, 0.99):
        ok, wit = sd.check_d_stationary(m, np.zeros(1), eps, strategy="l1-ext")
        assert not ok
        assert wit.value == ExtReal(-1.0)
        assert wit.w == pytest.approx(np.array([1.0]))
    ok, _ = sd.check_d_stationary(m, np.zeros(1), 1.0, strategy="l1-ext")
    assert ok


def test_check_d_stationary_accepts_l1_kink():
    ok, wit = sd.check_d_stationary(sd.L1Norm(1), np.zeros(1), 0.0, strategy="l1-ext")
    assert ok
    assert wit.value == ExtReal(1.0)


def test_check_d_stationary_quadratic_minimum(quad2):
    ok, wit = sd.check_d_stationary(quad2, np.zeros(2), 0.0, strategy="l2")
    assert ok and wit.value == ExtReal(0.0)


def test_rate_constant_formula():
    assert sd.rate_constant(0.5, 1.0) == 0.25
    assert sd.rate_constant(0.5, 0.1) == 0.5


def test_rate_audit_on_dc_run(dc1):
    tr = sd.run(dc1, np.array([3.0]), dc_config(eps=1e-4))
    for N in range(len(tr.records)):
        audit = sd.rate_audit(tr, -0.5, 1.0, 0.5, N)
        assert audit.holds, f"rate bound failed at N={N}"


def test_rate_audit_zero_direction_trivial(quad2):
    tr = sd.run(quad2, np.zeros(2), sd.SolverConfig(strategy="l2"))
    audit = sd.rate_audit(tr, 0.0, 1.0, 0.5, 0)
    assert audit.lhs == 0.0 and audit.holds


def test_rate_audit_insufficient_trace(quad2):
    tr = sd.run(quad2, np.zeros(2), sd.SolverConfig(strategy="l2"))
    with pytest.raises(sd.InsufficientTrace):
        sd.rate_audit(tr, 0.0, 1.0, 0.5, len(tr.records))


def test_sufficient_decrease_along_dc_run(dc1):
    tr = sd.run(dc1, np.array([3.0]), dc_config(eps=1e-4))
    flags = sd.sufficient_decrease_audit(tr, 0.25)
    assert all(flags)


def test_auto_strategy_resolution(dc1, quad2, l1):
    from subderiv.solver import resolve_strategy
    assert resolve_strategy(quad2, "auto") == "l2"
    assert resolve_strategy(dc1, "auto") == "linf-sep"  # separable declared
    assert resolve_strategy(make_neg_relu(), "auto") == "l1-ext"
    zn = sd.ZeroNormComposite(np.eye(2), np.zeros(2))
    assert resolve_strategy(zn, "auto") == "fallback"
    assert resolve_strategy(quad2, "fallback") == "fallback"


def test_auto_on_dc_uses_separable_and_still_converges(dc1):
    cfg = sd.SolverConfig(epsilon=1e-3, strategy="auto", max_iter=500)
    tr = sd.run(dc1, np.array([3.0]), cfg)
    assert tr.status is sd.TerminalStatus.EPS_STATIONARY
    assert abs(abs(tr.x_final[0]) - 1.0) <= 2e-3


def test_fallback_termination_not_certified():
    zn_env = sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=2)

    class Opaque(sd.FunctionModel):
        # Hide the structure so auto resolves to the sampling fallback.
        semi_differentiable = True

        @property
        def dim(self):
            return 2

        def value(self, x):
            return zn_env.value(x)

        def subderivative(self, x, w):
            return zn_env.subderivative(x, w)

    cfg = sd.SolverConfig(epsilon=1e-3, strategy="fallback", budget=32,
                          seed=4, max_iter=400)
    tr = sd.run(Opaque(), np.array([2.0, -2.0]), cfg)
    if tr.status is sd.TerminalStatus.EPS_STATIONARY:
        assert not tr.certified
        assert "budget" in tr.detail


class _NonLipschitzBowl(sd.FunctionModel):
    """-sqrt(|x_1|) + ||x||^2 / 2: d f(x)(w) = -inf where x_1 = 0 and w_1 != 0."""

    @property
    def dim(self):
        return 2

    def value(self, x):
        return ExtReal(-np.sqrt(abs(x[0])) + 0.5 * float(np.dot(x, x)))

    def subderivative(self, x, w):
        if x[0] == 0.0:
            head = -np.inf if w[0] != 0.0 else 0.0
        else:
            head = -0.5 * np.sign(x[0]) * w[0] / np.sqrt(abs(x[0]))
        return ExtReal(head + float(np.dot(x, w)))


def _bowl_run():
    return sd.run(_NonLipschitzBowl(), np.array([0.0, 1.0]),
                  sd.SolverConfig(strategy="fallback"))


def test_fallback_run_steps_along_minus_inf_directions():
    # Discarding the -inf candidates left the run on the line x_1 = 0, where
    # it stopped EpsStationary at (0, 9.5e-7) with f ~ 4.5e-13 although the
    # finite-difference slope along e1 there is about -1e4.
    f = _NonLipschitzBowl()
    e1 = np.array([1.0, 0.0])
    assert sd.fd_subderivative(f, np.array([0.0, 9.5e-7]), e1).estimate.v < -1e3
    tr = _bowl_run()
    assert tr.records[0].dir_value == -np.inf and tr.records[0].alpha > 0.0
    assert tr.x_final[0] != 0.0
    assert tr.f_final < -0.4  # the minimum is about -0.595


def test_audits_skip_minus_inf_rows():
    # The decrease bound of a d = -inf step is -inf; the audits skip it.
    tr = _bowl_run()
    assert tr.records[0].dir_value == -np.inf
    assert sd.sufficient_decrease_audit(tr, 0.25)[0]
    assert sd.rate_audit(tr, -0.6, 1.0, 0.5, 0).decrease_holds


def test_solver_config_validation():
    with pytest.raises(ValueError):
        sd.SolverConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        sd.SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        sd.SolverConfig(strategy="bogus")


@pytest.mark.parametrize("call, match", [
    # a NaN tolerance made d >= -epsilon false at a stationary point
    (lambda: sd.run(sd.quadratic_model(np.zeros(2)), np.zeros(2),
                    sd.SolverConfig(epsilon=float("nan"), strategy="l2")), "epsilon"),
    (lambda: sd.check_d_stationary(sd.quadratic_model(np.zeros(2)), np.zeros(2),
                                   float("nan")), "epsilon"),
    (lambda: sd.SolverConfig(budget=-1), "budget"),
], ids=["run_nan_epsilon", "check_nan_epsilon", "negative_budget"])
def test_solver_config_rejects_nan_epsilon_and_negative_budget(call, match):
    with pytest.raises(ValueError, match=f"^{match} must be nonnegative$"):
        call()


def test_an_infinite_tolerance_certifies_nothing():
    # the linear function is unbounded below, yet the run ended EpsStationary
    # and certified at its start
    with pytest.raises(ValueError, match="^epsilon must be finite, got inf$"):
        sd.run(sd.linear_model([1.0, 0.0]), [0.0, 0.0], sd.SolverConfig(epsilon=float("inf")))
    with pytest.raises(ValueError, match="^epsilon must be finite, got inf$"):
        sd.check_d_stationary(sd.linear_model([1.0, 0.0]), [0.0, 0.0], float("inf"))


@pytest.mark.parametrize("field", ["max_iter", "budget"])
@pytest.mark.parametrize("value", [float("nan"), 2.5, 3.0], ids=["nan", "fraction", "float"])
def test_solver_config_counts_are_integers(field, value):
    # a NaN got through the range checks and raised TypeError inside run
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        sd.SolverConfig(**{field: value})
    assert getattr(sd.SolverConfig(**{field: np.int64(3)}), field) == 3


def test_ball_radius_sq_per_strategy():
    assert sd.ball_radius_sq("l2", 5) == 1.0
    assert sd.ball_radius_sq("l1-ext", 5) == 1.0
    assert sd.ball_radius_sq("linf-sep", 5) == 5.0
    assert sd.ball_radius_sq("fallback", 5, sd.NormChoice.LINF) == 5.0
    assert sd.ball_radius_sq("fallback", 5, sd.NormChoice.L1) == 1.0


@pytest.mark.parametrize("strategy", ["auto", "l1", "linf", ""])
def test_ball_radius_sq_refuses_an_unresolved_or_unknown_strategy(strategy):
    # "auto" read 1.0, though on this model it resolves to linf-sep, whose
    # squared radius is the dimension: L_eff came out 5x too small
    m = sd.sum_models([sd.quadratic_model(np.zeros(5)), sd.L1Norm(5)])
    assert sd.solver.resolve_strategy(m, "auto") == "linf-sep"
    assert sd.ball_radius_sq(sd.solver.resolve_strategy(m, "auto"), m.dim) == 5.0
    with pytest.raises(ValueError, match="resolved strategy"):
        sd.ball_radius_sq(strategy, m.dim)


def test_sparse_moreau_audit_uses_norm_adjusted_constant():
    # Sup-norm directions have ||w||_2^2 up to n; the per-step bound must use
    # M = min{1/2, mu/(2 L n)} or genuine runs fail the audit.
    from subderiv.problems import build_problem
    built = build_problem("sparse_moreau", {"r": "0.25"})
    tr = sd.run(built.model, built.x0, built.defaults)
    assert tr.status is sd.TerminalStatus.EPS_STATIONARY
    mu, n = 0.5, built.model.dim
    L_eff = built.model.descent_constant * sd.ball_radius_sq("linf-sep", n)
    audit = sd.rate_audit(tr, built.f_star, L_eff, mu, len(tr.records) - 1)
    assert audit.holds
    assert all(sd.sufficient_decrease_audit(tr, sd.rate_constant(mu, L_eff)))


@pytest.mark.parametrize("name, params", [
    ("separable_l1", {"n": 50}),
    ("quadratic", {"n": 4000}),
    ("sparse_moreau", {"n": 50}),
    ("dc_quadratic_l1", {"n": 20}),
])
def test_step_norm_is_the_linalg_norm_of_the_step_bit_for_bit(name, params):
    # At n=4000 an exactly rounded sum of squares misses most of these bits.
    bp = build_problem(name, params)
    tr = sd.run(bp.model, bp.x0, dataclasses.replace(bp.defaults, max_iter=20))
    steps = [r for r in tr.records if r.alpha > 0.0]
    assert steps
    for r, x in zip(tr.records, tr.iterates):
        if r.alpha > 0.0:
            w = sd.solver.search_direction(bp.model, x, bp.defaults).w
            assert type(r.step_norm) is float
            want = np.linalg.norm(r.alpha * w)
            assert np.float64(r.step_norm).tobytes() == want.tobytes(), r.k


class _PublicPartsOnly(sd.FunctionModel):
    """A separable model that states only the public queries and counts its
    ``separable_parts`` calls, asking a bundled sum for every answer."""

    def __init__(self, inner):
        self.inner, self.parts_calls = inner, 0
        self.is_separable = inner.is_separable
        self.semi_differentiable = inner.semi_differentiable

    @property
    def dim(self):
        return self.inner.dim

    def value(self, x):
        return self.inner.value(x)

    def subderivative(self, x, w):
        return self.inner.subderivative(x, w)

    def separable_parts(self, x):
        self.parts_calls += 1
        return self.inner.separable_parts(x)


def test_a_model_with_only_the_public_separable_parts_runs_under_linf_sep():
    bp = build_problem("separable_l1", {"n": 6})
    cfg = bp.defaults
    assert cfg.strategy == "linf-sep"
    wrapped = _PublicPartsOnly(bp.model)
    got, want = sd.run(wrapped, bp.x0, cfg), sd.run(bp.model, bp.x0, cfg)
    assert got.status is want.status is sd.TerminalStatus.EPS_STATIONARY
    assert [dataclasses.replace(r, wall_ns=0) for r in got.records] == \
        [dataclasses.replace(r, wall_ns=0) for r in want.records]
    assert got.x_final.tobytes() == want.x_final.tobytes()
    assert wrapped.parts_calls == len(got.records)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["separable_l1", "sparse_moreau"])
def test_a_non_finite_iterate_is_refused_before_the_parts(name, bad):
    # The linf-sep route checks x once, before any model computes its parts,
    # so no arithmetic on the bad coordinate warns first, even where a
    # RuntimeWarning is an error.
    bp = build_problem(name, {"n": 4})
    x = bp.x0.copy()
    x[2] = bad
    for model in (bp.model, _PublicPartsOnly(bp.model)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^x must have finite coordinates$"):
                sd.solver.search_direction(model, x, bp.defaults)
        assert getattr(model, "parts_calls", 0) == 0
