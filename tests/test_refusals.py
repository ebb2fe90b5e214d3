"""Refusals and small accessors that no other test reaches: each input the
toolkit rejects raises its named error, and each factory or accessor
answers as documented."""

import numpy as np
import pytest

import subderiv as sd
from subderiv import verify
from subderiv.cli import emit_trace, main, read_trace_csv
from subderiv.extreal import ExtReal
from subderiv.problems import build_problem


class _PlusInf(sd.FunctionModel):
    """+inf everywhere, with a +inf subderivative."""

    extended_valued = True

    @property
    def dim(self):
        return 1

    def value(self, x):
        return sd.POS_INF

    def subderivative(self, x, w):
        return sd.POS_INF


def _trace():
    recs = [sd.IterationRecord(k, 1.0 - k, -1.0, 1.0, 0, 1.0, 0) for k in range(3)]
    return sd.Trace(records=recs, status=sd.TerminalStatus.MAX_ITER,
                    x_final=np.zeros(1), f_final=-2.0, certified=True)


def test_check_d_stationary_refuses_an_infinite_value():
    with pytest.raises(sd.DomainViolation, match="finite"):
        sd.check_d_stationary(_PlusInf(), [0.0], 1e-3)


def test_rate_constant_at_zero_L_and_rate_audit_refuses_a_negative_N():
    assert sd.rate_constant(0.3, 0.0) == 0.5
    with pytest.raises(ValueError, match="N must be nonnegative"):
        sd.rate_audit(_trace(), -2.0, 1.0, 0.5, N=-1)


def test_rate_audit_refuses_an_infinite_L():
    # M = min{1/2, mu / (2L)} read 0 and the bound divided by it
    with pytest.raises(ValueError, match="^L must be finite, got inf$"):
        sd.rate_audit(_trace(), 0.0, float("inf"), 0.5, 1)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), 5.0, 0.0, -1.0],
                         ids=["nan", "inf", "above_one", "zero", "negative"])
def test_rate_constant_and_rate_audit_refuse_mu_outside_the_unit_interval(mu):
    # NaN, inf and 5.0 read M = 1/2, and mu = 0 divided by M = 0 in the audit
    with pytest.raises(ValueError, match=r"^mu must lie in \(0, 1\)$"):
        sd.rate_constant(mu, 1.0)
    with pytest.raises(ValueError, match=r"^mu must lie in \(0, 1\)$"):
        sd.rate_audit(_trace(), -2.0, 1.0, mu, 1)


@pytest.mark.parametrize("build", [
    lambda seed: sd.run(sd.l1_norm(2), np.ones(2),
                        sd.SolverConfig(strategy="fallback", seed=seed, max_iter=3)),
    lambda seed: sd.FDConfig(seed=seed),
    lambda seed: sd.descent_property_sample(sd.L1Norm(1), 0.0, ([-1.0], [1.0]), 3, seed),
], ids=["solver_run", "fd_config", "descent_sample"])
def test_seeds_are_counts(build):
    # SolverConfig's 1.5 raised TypeError from inside the run; FDConfig took it
    for seed in (1.5, float("nan")):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            build(seed)
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        build(-1)
    for seed in (0, 20240817, np.int64(3)):
        assert build(seed) is not None


_DATA = [(np.zeros(1), np.zeros(1))]


@pytest.mark.parametrize("build, name", [
    (lambda v: sd.L1Norm(v), "n"),
    (lambda v: sd.moreau_envelope(sd.L1Inner(), 0.5, n=v), "n"),
    (lambda v: sd.smooth_model(v, lambda x: 0.0, lambda x: np.zeros(2)), "n"),
    (lambda v: sd.ComplementaritySet(v), "k"),
    (lambda v: sd.relu_network_loss([1, v, 1], _DATA), "widths"),
    (lambda v: sd.rate_audit(_trace(), -2.0, 1.0, 0.5, N=v), "N"),
], ids=["l1_norm_n", "moreau_n", "smooth_model_n", "complementarity_k", "relu_width",
        "rate_audit_N"])
@pytest.mark.parametrize("value", [float("nan"), 2.5, 2.0], ids=["nan", "fraction", "float"])
def test_sizes_are_integers(build, name, value):
    # a size was read as its integer part (dimension 2, a width-2 layer), and
    # N = 1.5 raised TypeError from a slice
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        build(value)
    assert build(np.int64(2)) is not None


def test_armijo_refuses_an_infinite_start_and_schedule_step_an_unknown_kind():
    with pytest.raises(ValueError, match="f\\(x\\) finite"):
        sd.armijo(_PlusInf(), np.zeros(1), np.ones(1), -1.0)
    f = sd.quadratic_model(np.zeros(1))
    with pytest.raises(ValueError, match="unknown schedule kind 'constant'"):
        sd.schedule_step(sd.Schedule(kind="constant"), 0, f, np.ones(1), -np.ones(1), -1.0)


def test_sampling_fallback_refuses_a_negative_budget():
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        sd.solve_sampling_fallback(sd.L1Norm(2), np.zeros(2), sd.NormChoice.L2, -1, 0)


def test_as_vector_makes_a_scalar_a_one_vector():
    got = sd.as_vector(2.5)
    assert got.shape == (1,) and got.dtype == np.float64 and got[0] == 2.5


def test_extreal_finite_sum_and_repr():
    assert ExtReal.finite(1.5) == ExtReal(1.5)
    assert ExtReal(1.0) + ExtReal(2.0) == ExtReal(3.0)
    assert ExtReal(1.0) + sd.NEG_INF == sd.NEG_INF
    with pytest.raises(sd.IndeterminateSum):
        sd.POS_INF + sd.NEG_INF
    assert repr(ExtReal(1.5)) == "ExtReal(1.5)" and repr(sd.POS_INF) == "ExtReal(inf)"


def test_quadratic_inner_refuses_a_non_square_matrix():
    # Q is n x n with n = len(c), read by the one matrix rule
    with pytest.raises(sd.DimensionMismatch, match=r"^Q must have shape \(2, 2\), got \(2, 3\)$"):
        sd.QuadraticInner(np.ones((2, 3)), np.zeros(2))


def test_scalar_prox_inner_states_no_cost_of_its_own():
    inner = sd.ScalarProxInner()
    with pytest.raises(NotImplementedError):
        inner.cost(np.zeros(1))
    with pytest.raises(NotImplementedError):
        inner.prox_range(np.zeros(1), 1.0)


@pytest.mark.parametrize("widths", [[2], [2, 0, 1], []])
def test_relu_network_refuses_bad_widths(widths):
    with pytest.raises(sd.DimensionMismatch, match="widths"):
        sd.relu_network_loss(widths, [(np.zeros(2), np.zeros(1))])


def test_relu_network_refuses_no_data():
    with pytest.raises(ValueError, match="training pair"):
        sd.relu_network_loss([2, 1], [])


@pytest.mark.parametrize("make", [
    lambda: sd.L1Norm(3), lambda: sd.NegL1Norm(3, 0.5),
    lambda: sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=3),
    lambda: sd.sum_models([sd.quadratic_model(np.ones(3)), sd.L1Norm(3)])],
    ids=["l1", "neg_l1", "moreau", "sum"])
@pytest.mark.parametrize("x, error", [
    ([1.0, 2.0], sd.DimensionMismatch), ([np.nan, 1.0, 0.0], ValueError),
    ([[1.0, 2.0, 0.0]], sd.DimensionMismatch)], ids=["short", "nan", "row"])
def test_separable_parts_checks_its_point(make, x, error):
    # a short x gave parts of its own length, a NaN gave a NaN part and a
    # (1, n) row gave 2-D parts; the public query now checks x as value does
    with pytest.raises(error):
        make().separable_parts(x)
    with pytest.raises(error):
        make().value(x)


def test_l1_factories():
    f, g = sd.l1_norm(3, 2.0), sd.neg_l1_norm(2, 0.5)
    assert type(f) is sd.L1Norm and (f.dim, f.lam) == (3, 2.0)
    assert type(g) is sd.NegL1Norm and (g.dim, g.lam) == (2, 0.5)
    assert f.value([1.0, -1.0, 0.5]) == ExtReal(5.0)
    assert g.value([1.0, -3.0]) == ExtReal(-2.0)


@pytest.mark.parametrize("make,error", [
    (lambda: sd.Box([0.0, 0.0], [1.0]), sd.DimensionMismatch),
    (lambda: sd.Box([[0.0]], [[1.0]]), sd.DimensionMismatch),
    (lambda: sd.Box([1.0], [0.0]), ValueError),
    (lambda: sd.Box([np.nan], [1.0]), ValueError),
    (lambda: sd.Box([0.0], [np.nan]), ValueError),
    (lambda: sd.AffineSubspace([[1.0, 0.0]], [0.0, 1.0]), sd.DimensionMismatch),
    (lambda: sd.ConvexPolyhedron(np.eye(2), [1.0, 1.0, 1.0]), sd.DimensionMismatch),
    (lambda: sd.FiniteUnion([]), ValueError),
    (lambda: sd.FiniteUnion([sd.ConvexPolyhedron([[1.0]], [1.0]),
                             sd.ConvexPolyhedron([[1.0, 0.0]], [1.0])]), sd.DimensionMismatch),
    (lambda: sd.ComplementaritySet(0), ValueError),
    # a 3-D A was accepted and a 1-D A read as one row (a NaN A: see the
    # matrix test below)
    (lambda: sd.AffineSubspace(np.zeros((1, 1, 2)), [1.0]), sd.DimensionMismatch),
    (lambda: sd.ConvexPolyhedron(np.zeros((1, 1, 2)), [1.0]), sd.DimensionMismatch),
    (lambda: sd.AffineSubspace(np.zeros(2), [1.0]), sd.DimensionMismatch),
    (lambda: sd.ConvexPolyhedron(np.zeros(2), [1.0]), sd.DimensionMismatch),
    # an empty subspace projected 0.5 onto itself and held it
    (lambda: sd.AffineSubspace([[1.0], [1.0]], [0.0, 1.0]), ValueError),
], ids=["box_lengths", "box_matrix", "box_order", "box_nan_lo", "box_nan_hi",
        "affine_rows", "polyhedron_rows",
        "union_empty", "union_dims", "complementarity_k",
        "affine_3d_A", "polyhedron_3d_A", "affine_1d_A", "polyhedron_1d_A",
        "affine_inconsistent"])
def test_set_constructors_refuse_bad_input(make, error):
    with pytest.raises(error):
        make()


def test_a_consistent_system_with_a_dependent_row_is_accepted():
    # b = A x0 rounds, and the dependent row's entry of it rounds apart from
    # the rows it combines: the consistency check must pass that rounding
    rng = np.random.default_rng(34)
    for _ in range(200):
        m, n = rng.integers(1, 6), rng.integers(1, 9)
        A = rng.normal(size=(m, n))
        A = np.vstack([A, rng.normal(size=m) @ A])
        x0 = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)
        X = sd.AffineSubspace(A, A @ x0)
        assert X.contains(X.project(x0)[0])
    with pytest.raises(ValueError, match="^A x = b has no solution$"):
        sd.AffineSubspace([[1.0], [1.0]], [0.0, 1.0])


def test_a_polyhedron_of_many_rows_projects():
    # 17 rows were refused: the polyhedron enumerated its 2^m facet subsets
    rng = np.random.default_rng(40)
    P = sd.ConvexPolyhedron(rng.normal(size=(40, 6)), rng.uniform(1.0, 2.0, 40))
    y = P.project(3.0 * rng.normal(size=6))[0]
    assert P.contains(y) and sd.distance_to_set(P).value(y).v == 0.0


def test_a_box_with_an_infinite_bound_still_works():
    # a NaN bound was accepted and raised "ExtReal payload must not be NaN"
    # only when the distance was asked
    box = sd.Box([-np.inf, 0.0], [1.0, np.inf])
    f = sd.distance_to_set(box)
    assert f.value([4.0, -4.0]).v == 5.0
    assert box.contains([-1e300, 1e300])
    with pytest.raises(ValueError, match="^box bounds must not be NaN$"):
        sd.Box([np.nan], [1.0])


def test_distance_to_a_set_that_projects_nowhere_refuses_every_query():
    class NoProjection(sd.SetModel):
        dim = 1

        def project(self, x):
            return []

        def tangent_distance(self, x, w):
            return 0.0

    f = sd.distance_to_set(NoProjection())
    for query in (lambda: f.value([0.0]), lambda: f.subderivative([0.0], [1.0]),
                  lambda: NoProjection().contains([0.0])):
        with pytest.raises(sd.EmptyProjection):
            query()


def test_precompose_and_penalize_refuse_what_is_not_a_model_or_map():
    with pytest.raises(TypeError, match="cannot precompose"):
        sd.precompose_semidiff(lambda x: x, sd.identity_map(2))
    zero = sd.smooth_model(2, lambda x: 0.0, lambda x: np.zeros(2))
    with pytest.raises(TypeError, match="SmoothMap or SemiDiffMap"):
        sd.penalize(zero, lambda x: x, sd.Box(np.zeros(2), np.ones(2)), 1.0)


def test_build_problem_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="nope"):
        build_problem("nope")


def _pack_2_3_1(weights, biases):
    net = sd.relu_network_loss([2, 3, 1], [(np.zeros(2), np.zeros(1))])
    return net.pack(weights, biases)


_W1, _W2, _B1, _B2 = np.ones((3, 2)), np.ones((1, 3)), np.zeros(3), np.zeros(1)


@pytest.mark.parametrize("make,error,match", [
    (lambda: sd.affine_map([[np.nan, 1.0]]), ValueError, "^A must have finite entries$"),
    (lambda: sd.affine_map([[np.inf, 1.0]]), ValueError, "^A must have finite entries$"),
    (lambda: sd.zero_norm_composite([[np.nan, 1.0]], [0.0]), ValueError,
     "^A must have finite entries$"),
    # these two raised LinAlgError, a ValueError, from the pseudo-inverse
    (lambda: sd.AffineSubspace([[np.nan, 0.0]], [1.0]), ValueError, "^A must have finite entries$"),
    (lambda: sd.ConvexPolyhedron([[np.nan]], [1.0]), ValueError, "^A must have finite entries$"),
    (lambda: sd.QuadraticInner([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0]), ValueError,
     "^Q must have finite entries$"),
    (lambda: sd.QuadraticInner([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0]), ValueError,
     "^Q must have finite entries$"),
    (lambda: _pack_2_3_1([_W1.T, _W2], [_B1, _B2]), sd.DimensionMismatch,
     r"^weights\[0\] must have shape \(3, 2\), got \(2, 3\)$"),
    (lambda: _pack_2_3_1([np.zeros(9)], [np.zeros(4)]), sd.DimensionMismatch, "weights"),
    (lambda: _pack_2_3_1([np.full((3, 2), np.nan), _W2], [_B1, _B2]), ValueError,
     r"^weights\[0\] must have finite entries$"),
    (lambda: _pack_2_3_1([_W1, _W2, np.zeros((0, 0))], [_B1, _B2, np.zeros(0)]),
     sd.DimensionMismatch, "weights"),
], ids=["affine_map_nan", "affine_map_inf", "zero_norm_nan", "affine_subspace_nan",
        "polyhedron_nan", "quadratic_inner_nan",
        "quadratic_inner_inf", "pack_transposed", "pack_fused_layer", "pack_nan_weight",
        "pack_extra_layer"])
def test_matrices_are_refused_when_the_object_is_built(make, error, match):
    # Without the matrix rule these were accepted or failed inside numpy: a NaN
    # in A was counted as a nonzero or failed the SVD, a NaN in Q reached the
    # envelope's value as a NaN payload, and a transposed, fused or extra
    # layer packed a parameter vector of the right length
    with pytest.raises(error, match=match):
        make()


@pytest.mark.parametrize("name,params,match", [
    ("quadratic", {"n": 2.5}, "^n must be an integer"),
    ("quadratic", {"n": "0"}, "^n must be at least 1$"),
    ("diff_max", {"gen_seed": "-1"}, "^gen_seed must be nonnegative$"),
    ("quadratic", {"n": "2.5"}, "^n must be an integer, got '2.5'$"),
    ("relu_net", {"widths": "2,8.5,1"}, "^widths entry must be an integer, got '8.5'$"),
], ids=["fractional_n", "zero_n", "negative_seed", "fractional_n_string", "fractional_width"])
def test_build_problem_reads_sizes_as_counts(name, params, match):
    # n = 2.5 was truncated to 2 and n = "0" built a 0-dim problem; the strings
    # "2.5" and "2,8.5,1" failed inside int(), naming neither the parameter nor
    # the problem
    with pytest.raises(ValueError, match=match):
        build_problem(name, params)


def test_cli_refuses_a_zero_size_from_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "n0.cfg"
    cfg.write_text("problem=quadratic\nparam.n=0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "n0.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "n must be at least 1" in err
    assert not (tmp_path / "n0.csv").exists()


def test_values_at_refuses_a_nan_value():
    class NaNRows(sd.RowSubderivatives):
        dim = 1

        def _value(self, x):
            return 0.0

        def _values(self, X):
            return np.full(X.shape[0], np.nan)

        def _subderivatives(self, x, W):
            return np.zeros(W.shape[0])

    with pytest.raises(ValueError, match="NaNRows.values returned NaN"):
        verify._values_at(NaNRows(), np.zeros((2, 1)))


def test_descent_sample_skips_an_inf_minus_inf_gap():
    report = sd.descent_property_sample(_PlusInf(), 1.0, ([-1.0], [1.0]), 5, 0)
    assert report.clean and report.pairs == 5 and report.max_gap == -np.inf


@pytest.mark.parametrize("flag", ["--config", "--sweep"])
def test_cli_refuses_a_line_without_an_equals_sign(flag, tmp_path, capsys):
    path = tmp_path / "settings.txt"
    path.write_text("problem quadratic\n")
    args = [flag, str(path)] + (["--problem", "quadratic"] if flag == "--sweep" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}:") and "without '='" in err


@pytest.mark.parametrize("flag", ["--config", "--sweep"])
def test_cli_refuses_an_unreadable_file(flag, tmp_path, capsys):
    args = [flag, str(tmp_path / "missing.txt"), "--problem", "quadratic"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}:")


def test_cli_exit_codes_of_the_argument_parser(capsys):
    assert main(["--no-such-flag"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_trace_files_refuse_a_bad_header_and_an_unknown_format(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("iter,f\n0,1.0\n")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_trace_csv(str(path))
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_trace(_trace(), str(tmp_path / "t.xml"), "xml")
    emit_trace(_trace(), str(path), "csv")
    path.write_text(path.read_text().replace("\n", "\n\n", 1))   # a blank line is skipped
    rows, status = read_trace_csv(str(path))
    assert len(rows) == 3 and status == "MaxIter"
