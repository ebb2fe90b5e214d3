"""Armijo backtracking and the diminishing schedule."""

import numpy as np
import pytest

import subderiv as sd


def scalar_model(f, grad):
    return sd.smooth_model(1, lambda x: float(f(x[0])),
                           lambda x: np.array([grad(x[0])]))


def test_armijo_quadratic_one_backtrack():
    # f = x^2, x = 1, w = -1, d = -2: alpha = 1 fails (-1 < -1 is false),
    # alpha = 0.5 gives -0.75 < -0.5.
    m = scalar_model(lambda x: x * x, lambda x: 2 * x)
    alpha, m_bt = sd.armijo(m, np.array([1.0]), np.array([-1.0]), -2.0)
    assert alpha == 0.5 and m_bt == 1


def test_armijo_linear_accepts_immediately():
    m = scalar_model(lambda x: -3.0 * x, lambda x: -3.0)
    alpha, m_bt = sd.armijo(m, np.array([0.0]), np.array([1.0]), -3.0)
    assert alpha == 1.0 and m_bt == 0


def test_armijo_strict_boundary_rejects():
    # f = x^2/2, x = 1, w = -1, d = -1: alpha = 1 sits exactly on the
    # boundary (-0.5 < -0.5) and must be rejected.
    m = scalar_model(lambda x: 0.5 * x * x, lambda x: x)
    alpha, m_bt = sd.armijo(m, np.array([1.0]), np.array([-1.0]), -1.0)
    assert alpha == 0.5 and m_bt == 1


def test_armijo_accepted_step_satisfies_inequality(rng):
    m = scalar_model(lambda x: 0.5 * x * x, lambda x: x)
    for _ in range(20):
        x = rng.uniform(0.5, 3.0, 1)
        w = np.array([-1.0])
        d = float(m.subderivative(x, w).v)
        if d >= 0:
            continue
        alpha, _ = sd.armijo(m, x, w, d)
        assert m.value(x + alpha * w).v - m.value(x).v < 0.5 * alpha * d


def test_armijo_lower_bound_with_descent_constant():
    # When a backtrack happened, the accepted step exceeds -mu d / L up to
    # the equality attained by exact quadratics.
    m = scalar_model(lambda x: 0.5 * x * x, lambda x: x)
    x = np.array([0.3])
    w = np.array([-1.0])
    d = float(m.subderivative(x, w).v)
    alpha, m_bt = sd.armijo(m, x, w, d)
    assert m_bt >= 1
    assert alpha >= -0.5 * d / 1.0 - 1e-12


def test_armijo_requires_negative_d(quad2):
    with pytest.raises(ValueError):
        sd.armijo(quad2, np.zeros(2), np.zeros(2), 0.0)


def test_armijo_exhausts_on_fabricated_descent():
    # ||.||_1 never decreases from 0, so a (false) claimed d < 0 must exhaust.
    m = sd.L1Norm(1)
    with pytest.raises(sd.BacktrackExhausted):
        sd.armijo(m, np.zeros(1), np.ones(1), -1.0,
                  sd.ArmijoParams(max_backtracks=10))


def test_armijo_params_validation():
    with pytest.raises(ValueError):
        sd.ArmijoParams(mu=1.0)
    with pytest.raises(ValueError):
        sd.ArmijoParams(mu=0.0)
    with pytest.raises(ValueError):
        sd.ArmijoParams(alpha_init=0.0)
    with pytest.raises(ValueError):
        sd.ArmijoParams(max_backtracks=0)


@pytest.mark.parametrize("value", [float("nan"), 2.5, 3.0], ids=["nan", "fraction", "float"])
def test_armijo_backtrack_cap_is_an_integer(value):
    # a NaN got through the range check and raised TypeError inside armijo
    with pytest.raises(ValueError, match="^max_backtracks must be an integer"):
        sd.ArmijoParams(max_backtracks=value)
    assert sd.ArmijoParams(max_backtracks=np.int64(3)).max_backtracks == 3


def test_armijo_infinite_trial_values_backtrack():
    # Value +inf at the trial point fails the strict test and backtracks.
    class Gate(sd.FunctionModel):
        extended_valued = True

        @property
        def dim(self):
            return 1

        def value(self, x):
            return sd.ExtReal(float(x[0])) if x[0] > -0.6 else sd.POS_INF

        def subderivative(self, x, w):
            return sd.ExtReal(float(w[0]))

    alpha, m_bt = sd.armijo(Gate(), np.zeros(1), np.array([-1.0]), -1.0)
    assert alpha == 0.5 and m_bt == 1


class _SqrtCusp(sd.FunctionModel):
    """-sqrt|x| + c x^2 on the line: d f(0)(w) = -inf for every w != 0."""

    def __init__(self, c):
        self.c = c

    @property
    def dim(self):
        return 1

    def value(self, x):
        return sd.ExtReal(-np.sqrt(abs(x[0])) + self.c * x[0] ** 2)

    def subderivative(self, x, w):
        raise AssertionError("armijo must not recompute d")


def test_armijo_minus_inf_accepts_first_decrease():
    # With c = 10 the trials 1, 1/2 and 1/4 raise f; 1/8 is the first to
    # lower it. At d = -inf the test is f(x + a w) < f(x).
    alpha, m_bt = sd.armijo(_SqrtCusp(10.0), np.zeros(1), np.array([1.0]), -np.inf)
    assert alpha == 0.125 and m_bt == 3
    assert sd.armijo(_SqrtCusp(0.5), np.zeros(1), np.array([1.0]), -np.inf) == (1.0, 0)


def test_armijo_minus_inf_still_strict():
    # A trial equal to f(x) is no decrease, so a flat direction exhausts.
    flat = sd.smooth_model(1, lambda x: 0.0, lambda x: np.zeros(1))
    with pytest.raises(sd.BacktrackExhausted):
        sd.armijo(flat, np.zeros(1), np.array([1.0]), -np.inf)


def test_armijo_exhausted_message_names_step_asked_decrease_and_resolution():
    flat = sd.smooth_model(1, lambda x: 3.0, lambda x: np.zeros(1))
    params = sd.ArmijoParams(max_backtracks=4)
    with pytest.raises(sd.BacktrackExhausted) as exc:
        sd.armijo(flat, np.zeros(1), np.array([1.0]), -2.0, params)
    assert str(exc.value).endswith(f"alpha=0.0625 asked for a decrease of more than 0.0625, "
                                   f"against 8 ulps of |f(x)| = {8 * 2.0 ** -51!r}")
    with pytest.raises(sd.BacktrackExhausted) as exc:
        sd.armijo(flat, np.zeros(1), np.array([1.0]), -np.inf, params)
    assert "alpha=0.0625 asked for a decrease of more than 0.0," in str(exc.value)


def test_schedule_step_values(quad2):
    dim = sd.diminishing_schedule(1.0)
    a0, _ = sd.schedule_step(dim, 0, quad2, np.zeros(2), np.zeros(2), -1.0)
    a9, _ = sd.schedule_step(dim, 9, quad2, np.zeros(2), np.zeros(2), -1.0)
    assert a0 == 1.0 and a9 == pytest.approx(0.1)
    with pytest.raises(ValueError):
        sd.schedule_step(dim, -1, quad2, np.zeros(2), np.zeros(2), -1.0)


def test_diminishing_partial_sums():
    # Harmonic sums grow without bound; squared sums stay under the Basel cap.
    alphas = np.array([1.0 / (k + 1) for k in range(100_000)])
    assert alphas.sum() > 12.0
    assert np.sum(alphas ** 2) < 2.0


def test_schedule_armijo_delegates(quad2):
    sch = sd.armijo_schedule()
    x = np.array([3.0, 4.0])
    w = -x / np.linalg.norm(x)
    d = float(quad2.subderivative(x, w).v)
    alpha, m_bt = sd.schedule_step(sch, 0, quad2, x, w, d)
    alpha2, m2 = sd.armijo(quad2, x, w, d)
    assert alpha == alpha2 and m_bt == m2


def test_diminishing_schedule_validation():
    with pytest.raises(ValueError):
        sd.diminishing_schedule(0.0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind="constant"), "unknown schedule kind 'constant'"),
    (dict(kind="armijo", alpha0=0.25), "takes no alpha0"),
    (dict(kind="diminishing", alpha0=1.0, armijo_params=sd.ArmijoParams()),
     "takes no armijo_params"),
    (dict(kind="diminishing"), "alpha0 must be positive"),
    (dict(kind="diminishing", alpha0=-1.0), "alpha0 must be positive"),
], ids=["unknown_kind", "armijo_alpha0", "diminishing_params", "diminishing_no_alpha0",
        "diminishing_negative"])
def test_schedule_refuses_a_state_it_cannot_run(kwargs, message):
    # refused when made: inside a run these raised a TypeError, waited for
    # the first step, or were ignored (an armijo alpha0)
    with pytest.raises(ValueError, match=message):
        sd.Schedule(**kwargs)


def test_armijo_schedule_fills_in_default_params():
    assert sd.Schedule("armijo").armijo_params == sd.ArmijoParams()
    assert sd.Schedule("armijo") == sd.armijo_schedule()
