"""Oracle-contract invariants: homogeneity, purity, behavior at w = 0."""

import numpy as np
import pytest

import subderiv as sd


def bundled_oracles():
    orth = sd.nonnegative_orthant(2)
    return [
        ("l1", sd.L1Norm(3, lam=1.3)),
        ("neg_l1", sd.NegL1Norm(3, lam=0.7)),
        ("smooth_quad", sd.quadratic_model(np.array([1.0, -2.0]))),
        ("dist_orthant", sd.distance_to_set(orth)),
        ("dist_ball", sd.distance_to_set(sd.Ball(np.zeros(2), 1.0))),
        ("moreau_l1", sd.moreau_envelope(sd.L1Inner(0.8), 0.5, n=3)),
        ("moreau_l0", sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=3)),
        ("zero_norm", sd.ZeroNormComposite(np.eye(2), np.zeros(2))),
    ]


@pytest.mark.parametrize("name,model", bundled_oracles())
def test_subderivative_vanishes_at_zero_direction(name, model, rng):
    for _ in range(5):
        x = rng.uniform(-2, 2, model.dim)
        assert model.subderivative(x, np.zeros(model.dim)) == sd.ExtReal(0.0)


@pytest.mark.parametrize("name,model", bundled_oracles())
def test_positive_homogeneity_sampled(name, model, rng):
    # 100 random (x, w, t) triples per oracle, tolerance 1e-8 in finite cases.
    for _ in range(100):
        x = rng.uniform(-2, 2, model.dim)
        w = rng.uniform(-1, 1, model.dim)
        t = float(rng.uniform(0.1, 5.0))
        assert sd.homogeneity_check(model, x, w, t, tol=1e-8)


@pytest.mark.parametrize("name,model", bundled_oracles())
def test_purity_bit_identical(name, model, rng):
    x = rng.uniform(-2, 2, model.dim)
    w = rng.uniform(-1, 1, model.dim)
    assert model.value(x.copy()) == model.value(x.copy())
    assert model.subderivative(x.copy(), w.copy()) == model.subderivative(x.copy(), w.copy())


def test_homogeneity_example_l1():
    # Both sides from the closed form: d at w is 4, at 2w is 8.
    m = sd.L1Norm(3)
    x = np.array([1.0, -1.0, 0.0])
    w = np.array([2.0, 1.0, -3.0])
    assert m.subderivative(x, w) == sd.ExtReal(4.0)
    assert m.subderivative(x, 2 * w) == sd.ExtReal(8.0)
    assert sd.homogeneity_check(m, x, w, 2.0)


def test_homogeneity_zero_direction_trivial(l1):
    assert sd.homogeneity_check(l1, np.array([1.0, 2.0, 3.0]), np.zeros(3), 5.0)


def test_homogeneity_infinite_branch():
    # +inf on both sides counts as agreement.
    zn = sd.ZeroNormComposite(np.eye(2), np.zeros(2))
    x = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    assert zn.subderivative(x, w) == sd.POS_INF
    assert sd.homogeneity_check(zn, x, w, 3.0)


def test_homogeneity_requires_positive_t(l1):
    with pytest.raises(ValueError):
        sd.homogeneity_check(l1, np.zeros(3), np.ones(3), 0.0)


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize("build, error, match", [
    (lambda: sd.moreau_envelope(sd.ZeroNormInner(), _NAN, n=2), ValueError, "r must"),
    (lambda: sd.moreau_envelope(sd.QuadraticInner(np.eye(2), np.zeros(2)), _NAN),
     ValueError, "r must"),
    (lambda: sd.L1Inner(_NAN), ValueError, "lam must"),
    (lambda: sd.L1Norm(2, _NAN), ValueError, "lam must"),
    (lambda: sd.scale(sd.L1Norm(2), _NAN), sd.NonpositiveScale, "scale factor"),
    (lambda: sd.penalize(sd.L1Norm(2), sd.identity_map(2), sd.Ball(np.zeros(2), 1.0), _NAN),
     sd.NonpositiveScale, "penalty constant"),
    (lambda: sd.ArmijoParams(alpha_init=_NAN), ValueError, "alpha_init must"),
    (lambda: sd.diminishing_schedule(_NAN), ValueError, "alpha0 must"),
    (lambda: sd.Ball(np.zeros(2), _NAN), ValueError, "ball radius"),
    (lambda: sd.envelope_composite_descent_constant(1.0, _NAN), ValueError, "r must"),
    (lambda: sd.dc_envelope_descent_constant(1.0, _NAN), ValueError, "r must"),
    # a NaN constant made the rate bound read M = 1/2 and the sample read clean
    (lambda: sd.rate_constant(0.5, _NAN), ValueError, "L must"),
    (lambda: sd.descent_property_sample(sd.L1Norm(2), _NAN, (-np.ones(2), np.ones(2)),
                                        pairs=5, seed=0), ValueError, "L must"),
    (lambda: sd.L1Norm(-1), ValueError, "n must"),
    (lambda: sd.moreau_envelope(sd.L1Inner(), 0.5, n=-1), ValueError, "n must"),
    # +inf: the oracles valued NaN, the penalty summed (+inf) + (-inf), the
    # ball projected to NaN, the sample read clean, and an infinite step made
    # run raise from inside an oracle or the loop, or end LeftDomain
    (lambda: sd.moreau_envelope(sd.ZeroNormInner(), _INF, n=2), ValueError, "r must be finite"),
    (lambda: sd.moreau_envelope(sd.QuadraticInner(np.zeros((2, 2)), np.zeros(2)), _INF),
     ValueError, "r must be finite"),
    (lambda: sd.L1Inner(_INF), ValueError, "lam must be finite"),
    (lambda: sd.L1Norm(2, _INF), ValueError, "lam must be finite"),
    (lambda: sd.scale(sd.quadratic_model(np.zeros(2)), _INF), sd.NonpositiveScale,
     "scale factor must be finite"),
    (lambda: sd.penalize(sd.quadratic_model(np.zeros(2)), sd.identity_map(2),
                         sd.nonnegative_orthant(2), _INF),
     sd.NonpositiveScale, "penalty constant must be finite"),
    (lambda: sd.ArmijoParams(alpha_init=_INF), ValueError, "alpha_init must be finite"),
    (lambda: sd.diminishing_schedule(_INF), ValueError, "alpha0 must be finite"),
    (lambda: sd.Ball(np.zeros(1), _INF), ValueError, "ball radius must be finite"),
    (lambda: sd.envelope_composite_descent_constant(1.0, _INF), ValueError, "r must be finite"),
    (lambda: sd.dc_envelope_descent_constant(1.0, _INF), ValueError, "r must be finite"),
    (lambda: sd.rate_constant(0.5, _INF), ValueError, "L must be finite"),
    (lambda: sd.descent_property_sample(sd.L1Norm(2), _INF, (-np.ones(2), np.ones(2)),
                                        pairs=5, seed=0), ValueError, "L must be finite"),
    (lambda: sd.L1Norm(_INF), ValueError, "n must be an integer"),
    (lambda: sd.moreau_envelope(sd.L1Inner(), 0.5, n=_INF), ValueError, "n must be an integer"),
], ids=["moreau_r", "quadratic_moreau_r", "l1_inner_lam", "l1_norm_lam", "scale_lam",
        "penalize_rho", "armijo_alpha_init", "diminishing_alpha0", "ball_radius",
        "envelope_composite_r", "dc_envelope_r", "rate_constant_L", "descent_sample_L",
        "l1_norm_n", "moreau_n",
        "moreau_r_inf", "quadratic_moreau_r_inf", "l1_inner_lam_inf", "l1_norm_lam_inf",
        "scale_lam_inf", "penalize_rho_inf", "armijo_alpha_init_inf", "diminishing_alpha0_inf",
        "ball_radius_inf", "envelope_composite_r_inf", "dc_envelope_r_inf", "rate_constant_L_inf",
        "descent_sample_L_inf", "l1_norm_n_inf", "moreau_n_inf"])
def test_parameters_reject_nan_and_dimensions_reject_negatives(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_as_vector_validation():
    with pytest.raises(sd.DimensionMismatch):
        sd.as_vector(np.zeros((2, 2)))
    with pytest.raises(sd.DimensionMismatch):
        sd.as_vector(np.zeros(3), dim=2)
    with pytest.raises(ValueError):
        sd.as_vector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        sd.as_vector(np.array([np.inf, 0.0]))


@pytest.mark.parametrize("model, x, error, match", [
    # read as the first two coordinates: 3.0
    (sd.L1Norm(3), [1.0, 2.0], sd.DimensionMismatch, "dimension 2, expected 3"),
    # summed over the whole matrix: 6.0
    (sd.L1Norm(3), [[1.0, 2.0, 3.0]], sd.DimensionMismatch, "must be a vector"),
    # a numpy broadcast error from x - c
    (sd.quadratic_model(np.zeros(3)), [1.0, 2.0], sd.DimensionMismatch, "dimension 2"),
    # IndeterminateSum: nan from the quadratic against nan from the l1 term
    (sd.sum_models([sd.quadratic_model(np.zeros(3)), sd.L1Norm(3)]), [1.0, np.nan, 0.0],
     ValueError, "finite coordinates"),
], ids=["short", "matrix", "quadratic_short", "sum_nan"])
def test_value_checks_its_point_as_subderivative_does(model, x, error, match):
    with pytest.raises(error, match=match):
        model.value(x)
    with pytest.raises(error, match=match):
        model.subderivative(x, np.zeros(model.dim))
