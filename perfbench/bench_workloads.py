"""The benchmark's workloads: what each one runs, and why.

The method is one loop repeated many times: minimise d f(x_k)(.) over a unit
ball, test the minimum against epsilon, then step. Its cost sits in the
oracles, the direction search and the line search, and which of them
dominates depends on the problem, so the workloads are chosen to stress
different layers of ``src/subderiv``. Each workload is a list of operations
(a solve, a batch of finite-difference cross-checks, or a brute-force
comparison) built from ``--seed`` through the public API only; the library
sees nothing but the generated inputs (``x0``, ``gen_seed``, ``(x, w)``
pairs).

Workloads
---------
``vertex``
    ``dc_quadratic_l1`` n=50 and ``diff_max`` n=50, m=20, with x0 and
    gen_seed drawn from the seed. Both use the ``l1-ext`` vertex search
    through ``sum_models`` and ``pointwise_min``; ``subderivative`` takes most
    of ``run()`` at 2n+1 = 101 calls per iterate. The combinator-bound case:
    point-local batched models (ROADMAP item 4) show their gain here.
    Timed steps: 8 iterations per problem.
``separable``
    ``separable_l1``, ``sparse_moreau`` and ``quadratic`` at n=4000, using
    ``linf-sep`` and ``l2``. ``separable_parts`` closures and ``value``
    dominate, so the two-number separable form (item 3) and the removal of
    redundant ``value`` calls (item 1) show here, and item 4 gains little.
    It exercises the line search most. x0 for ``separable_l1`` is drawn from
    the lattice {-1, -0.5, 0, 0.5} and ``sparse_moreau`` starts at +-0.3: a
    sup-norm step moves every coordinate by the same length, so starts with
    unrelated coordinates run to the 5000-iteration cap (80 s and more).
    Known failure at this commit: ``separable_l1`` reaches its optimum 6000
    and then ends ``BacktrackExhausted``. Timed steps: 8 iterations of
    ``separable_l1`` and ``quadratic``, 4 of ``sparse_moreau`` (its 14
    iterations take the same backtracks from every seed's start).
``network``
    ``relu_net`` widths 2,8,1, m=16, with the registered defaults
    (``fallback``, budget 64, max_iter 300), three nets per pass with
    gen_seed 3*seed, 3*seed+1 and 3*seed+2: 2p+budget+1 = 131
    ``subderivative`` calls per iterate, nearly all time in ``forward_chain``.
    The oracle-bound case, against the combinator-bound ``vertex``.
    Known failure at this commit: a run ends ``BacktrackExhausted`` once an
    iterate sits at a pre-activation of about 1e-16 (gen_seed 0-4 do).
    Timed steps: the first iteration of each net, the 131-call search and a
    short line search. Later iterations backtrack up to 51 times and end in
    a 61-trial exhausted search or a search alone, in a mix that differs
    from net to net, so timing them would measure which nets a seed drew.
``verify``
    ``fd_subderivative`` cross-checks of the acceptance criterion-1 oracle
    catalogue (ReLU pairs kept away from activation ties), plus
    ``brute_force_direction`` at dim 3 in each norm against the exact search
    for that norm. All traffic is ``value`` calls at fresh points and no
    solver runs; it is the only workload that reaches ``sets`` (the
    ``FiniteUnion`` check dominates). A per-point cache or a batched path
    that taxes plain ``value`` calls shows its cost here. Timed steps: the
    first 4 pairs of each FD batch (``TIMED_PAIRS``; all 12 of the union's,
    whose cost depends on the point) and each brute-force comparison; every
    pair is checked.

Not measured: the CLI ``--sweep`` path (ROADMAP item 5).

Which layer metric moves which end-to-end metric
------------------------------------------------
End-to-end metrics are ``step_ms``, ``setup_s`` and ``peak_rss_mb``.
A timed step is one solver iteration (replayed with ``run`` from its
iterate, timed by the solver's own ``wall_ns``) or one check. The timed
iterations of a solve are evenly spaced from its first to its last, so on
``vertex`` and ``separable`` they include long runs of backtracks and the
final search (exhausted on ``separable_l1``). ``step_ms`` is, per problem or
check batch, the mean time of its timed steps, summed over the workload's
problems and batches; each step's time is its fastest of the run's rounds,
scaled to a nominal host speed (``run.KERNEL_NOMINAL_S``). So ``step_ms``
moves with the per-iteration cost of the oracles, the direction search and
the line search. It does not see the number of iterations, and no bounded
metric covers total solve time: ``run_s`` (the checked pass) is printed,
unbounded, because it follows each seed's iteration count.

=================================================  ============================
layer metric (traced run)                          moves
=================================================  ============================
oracles.subderivative.{calls,s,per_point}          step_ms on vertex, network
calculus.member_value.calls                        step_ms on vertex
oracles.value.{calls,s,repeat_share}               step_ms on separable, verify
oracles.separable_parts.{calls,s}                  step_ms on separable
oracles.gradient.{calls,s}                         step_ms on separable
direction.<strategy>.{calls,s}, direction.evals,   step_ms on the workload using
direction.exact_share                              that strategy
linesearch.{s,backtracks,accept_ratio}             step_ms on separable, vertex;
                                                   run_s on network
linesearch.calls, solver.iterations, solver.run_s  run_s on every solver workload
linesearch.exhausted                               fail_share on network, separable
solver.self_s                                      step_ms on separable
verify.fd.*, verify.brute.*, sets.project.*        step_ms on verify
problems.build_s                                   setup_s
=================================================  ============================

``fail_share`` (failed over attempted operations), ``run_s`` (wall time of
a pass) and ``iterations`` are printed on every run, and ``fail_share`` and
``iterations`` are per-layer metrics of the traced run. They are not
end-to-end metrics: they are 0 on some workloads, and on ``network`` they
follow where each seed's run fails (1 to 104 iterations per net). A change
that only cuts backtracks or iterations shows in them and in ``run_s``, not
in a bounded metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import subderiv as sd
from subderiv.problems import build_problem

FD_TOL = 1e-5            # criterion 1 agreement
OPT_RTOL = 1e-6          # known optimum, relative to max(1, |f*|)
BRUTE_TOL = 1e-9         # brute force may not beat an exact search by more
BRUTE_RESOLUTION = 0.05
TIMED_PAIRS = 4          # pairs of each FD batch replayed in the timed rounds


@dataclass
class Outcome:
    """What one operation did, in one pass.

    ``failed`` counts failed operations among ``attempted``; ``wrong`` counts
    those whose output value is wrong (a failed check, a certified point off
    the known optimum, an exception), as opposed to a disallowed terminal
    status. ``fingerprint`` covers every deterministic output, so two passes
    (or a plain and a traced pass) can be compared exactly.
    """

    label: str
    group: str          # operations whose steps are pooled in step_ms
    attempted: int
    failed: int
    wrong: int
    note: str
    fingerprint: str
    iterations: int = 0
    reference: Optional[tuple] = None   # (digest, status, iterations, f_final)
    step_walls: list = field(default_factory=list)   # seconds per step, if timed
    # timed steps: each takes a freshly built model and returns (seconds, same
    # output as in this pass)
    replays: list = field(default_factory=list, repr=False)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:32]


def _crash(label: str, group: str, attempted: int, exc: Exception) -> Outcome:
    return Outcome(label, group, attempted, attempted, attempted,
                   f"raised {type(exc).__name__}: {exc}", f"raised {exc!r}")


@dataclass
class Solve:
    """``run()`` on a registered problem from a generated start.

    Fails on an exception, on any status but EpsStationary (no workload
    problem allows another), or when the final f misses ``f_star``. The
    value is wrong when a certified EpsStationary point misses ``f_star`` or
    f ends above f(x0). ``f_star`` is the registry's optimum
    (``dc_quadratic_l1``, ``sparse_moreau``, ``quadratic``) or, for
    ``separable_l1``, the soft-threshold value.
    """

    label: str
    problem: str
    params: dict
    x0: np.ndarray
    cfg: sd.SolverConfig
    build: Callable = field(repr=False)   # probe -> FunctionModel
    f_star: Optional[float] = None
    timed_steps: int = 8      # iterations replayed in the timed rounds
    model: object = field(default=None, repr=False)

    def key(self) -> str:
        return _digest(self.problem, sorted(self.params.items()), self.x0.tobytes())

    def execute(self, model, probe) -> Outcome:
        try:
            with probe.span("solver.run"):
                tr = sd.run(model, self.x0, self.cfg)
        except Exception as exc:  # a crash is a result of the run, not of the benchmark
            return _crash(self.label, self.problem, 1, exc)
        status = tr.status.value
        iters = len(tr.records)
        f = tr.f_final
        off = (self.f_star is not None
               and not abs(f - self.f_star) <= OPT_RTOL * max(1.0, abs(self.f_star)))
        wrong = (status == "EpsStationary" and tr.certified and off) or not f <= tr.records[0].f
        failed = status != "EpsStationary" or off or wrong
        rows = tuple((r.k, r.f, r.dir_value, r.alpha, r.backtracks, r.step_norm)
                     for r in tr.records)
        note = f"{status} after {iters} iterations, f = {f!r}"
        if off:
            note += f" (optimum {self.f_star!r})"
        picked = np.unique(np.linspace(0, iters - 1, min(iters, self.timed_steps)).round())
        return Outcome(self.label, self.problem, 1, int(failed), int(wrong), note,
                       _digest(status, tr.detail, tr.certified, rows, tr.x_final.tobytes(), f),
                       iterations=iters, reference=(self.key(), status, iters, f),
                       step_walls=[r.wall_ns * 1e-9 for r in tr.records],
                       replays=[self._replay(tr.iterates[k], rows[k][1:])
                                for k in picked.astype(int)])

    def _replay(self, x, row) -> Callable:
        """Iteration k again: ``run`` from x_k for one iteration.

        ``run`` evaluates f(x_k) before its loop, as the previous iteration
        did in the full solve, and times the iteration itself (the search,
        the line search and f at the new iterate) in ``wall_ns``. Every
        workload problem uses the Armijo schedule, which does not depend on k.
        """
        cfg = dataclasses.replace(self.cfg, max_iter=1)

        def step(model):
            r = sd.run(model, x, cfg).records[0]
            return r.wall_ns * 1e-9, (r.f, r.dir_value, r.alpha, r.backtracks, r.step_norm) == row
        return step


@dataclass
class FDBatch:
    """Closed-form subderivative against ``fd_subderivative`` on fixed pairs."""

    label: str
    build: Callable = field(repr=False)
    pairs: list = field(repr=False)
    timed_pairs: int = TIMED_PAIRS   # leading pairs replayed in the timed rounds
    model: object = field(default=None, repr=False)

    def execute(self, model, probe) -> Outcome:
        bad, values, walls = 0, [], []
        try:
            for x, w in self.pairs:
                t0 = time.perf_counter()
                values.append(self.check(model, x, w, probe))
                walls.append(time.perf_counter() - t0)
                closed, fd = values[-1]
                if not abs(closed - fd) <= FD_TOL:
                    bad += 1
        except Exception as exc:
            return _crash(self.label, self.label, len(self.pairs), exc)
        n = len(self.pairs)
        return Outcome(self.label, self.label, n, bad, bad,
                       f"{n - bad}/{n} pairs agree within {FD_TOL:g}", _digest(values),
                       step_walls=walls,
                       replays=[_timed(self.check, x, w, PLAIN, want=v)
                                for (x, w), v in zip(self.pairs[:self.timed_pairs], values)])

    @staticmethod
    def check(model, x, w, probe) -> tuple:
        closed = model.subderivative(x, w).v
        with probe.span("verify.fd"):
            fd = sd.fd_subderivative(model, x, w).estimate.v
        return closed, fd


@dataclass
class BruteCheck:
    """``brute_force_direction`` must not beat the exact search for its norm."""

    label: str
    build: Callable = field(repr=False)
    x: np.ndarray
    norm: sd.NormChoice
    exact: Callable = field(repr=False)    # (model, x) -> DirectionResult
    strategy: str
    model: object = field(default=None, repr=False)

    def execute(self, model, probe) -> Outcome:
        try:
            ex, br = self.check(model, probe)
        except Exception as exc:
            return _crash(self.label, self.label, 1, exc)
        e, b = ex.value.v, br.value.v
        beaten = b < e - BRUTE_TOL * max(1.0, abs(e))
        return Outcome(self.label, self.label, 1, int(beaten), int(beaten),
                       f"exact {e!r}, brute force {b!r} over {br.evaluations} candidates",
                       _digest(e, b, ex.w.tobytes(), br.w.tobytes()),
                       replays=[_timed(lambda m: self._key(*self.check(m, PLAIN)),
                                       want=self._key(ex, br))])

    def check(self, model, probe) -> tuple:
        with probe.span(f"direction.{self.strategy}"):
            ex = self.exact(model, self.x)
        probe.note_direction(ex)
        with probe.span("verify.brute"):
            br = sd.brute_force_direction(model, self.x, self.norm, BRUTE_RESOLUTION)
        probe.note("verify.brute.evals", br.evaluations)
        return ex, br

    @staticmethod
    def _key(ex, br) -> tuple:
        return ex.value.v, br.value.v, ex.w.tobytes(), br.w.tobytes()


class _Plain:
    """Probe of an untraced pass: every hook is the identity."""

    def model(self, m):
        return m

    def member(self, m):
        return m

    def set(self, X):
        return X

    def span(self, name):
        return contextlib.nullcontext()

    def note(self, name, k=1):
        pass

    def note_direction(self, res):
        pass


PLAIN = _Plain()


def _timed(check: Callable, *args, want) -> Callable:
    """A timed step that calls ``check(model, *args)`` and compares with ``want``."""
    def step(model):
        t0 = time.perf_counter()
        got = check(model, *args)
        return time.perf_counter() - t0, got == want
    return step


# ---------------------------------------------------------------------------
# Workload builders. Sizes are arguments so the self-tests can run them tiny.
# ---------------------------------------------------------------------------

def _registered(problem: str, params: dict, x0=None, f_star=None, label=None,
                timed_steps=8) -> Solve:
    """A registered problem; ``f_star`` defaults to the registry's optimum.

    Its ``build`` makes the model anew from the registry on every call, so a
    timed round never reuses state a model kept from an earlier round.
    """
    text = {k: str(v) for k, v in params.items()}
    bp = build_problem(problem, text)
    x0 = bp.x0 if x0 is None else np.asarray(x0, dtype=float)
    f_star = bp.f_star if f_star is None else f_star

    def build(p):
        model = build_problem(problem, text).model
        if problem == "diff_max":
            return p.model(sd.pointwise_min([p.member(b) for b in model.models]))
        return p.model(model)
    return Solve(label or problem, problem, dict(params), np.array(x0, dtype=float),
                 bp.defaults, build, f_star, timed_steps)


def vertex(seed: int, n: int = 50, m: int = 20) -> list:
    rng = np.random.default_rng([seed, 0])
    return [
        _registered("dc_quadratic_l1", {"n": n, "lam": 1.0},
                    x0=rng.uniform(-3.0, 3.0, n)),
        _registered("diff_max", {"n": n, "m": m, "gen_seed": seed},
                    x0=rng.uniform(-3.0, 3.0, n)),
    ]


def _soft_threshold_value(a: float, lam: float) -> float:
    """min over x of (1/2)(x - a)^2 + lam |x|."""
    return lam * abs(a) - lam * lam / 2.0 if abs(a) > lam else a * a / 2.0


def separable(seed: int, n: int = 4000) -> list:
    rng = np.random.default_rng([seed, 1])
    a, lam = 2.0, 1.0
    return [
        _registered("separable_l1", {"n": n, "lam": lam, "a": a},
                    x0=rng.choice([-1.0, -0.5, 0.0, 0.5], n),
                    f_star=n * _soft_threshold_value(a, lam)),
        _registered("sparse_moreau", {"n": n},
                    x0=0.3 * rng.choice([-1.0, 1.0], n), timed_steps=4),
        _registered("quadratic", {"n": n}, x0=rng.uniform(-3.0, 3.0, n)),
    ]


def network(seed: int, widths: str = "2,8,1", m: int = 16) -> list:
    nets = 3
    return [_registered("relu_net", {"widths": widths, "m": m, "gen_seed": nets * seed + j},
                        label=f"relu_net gen_seed={nets * seed + j}", timed_steps=1)
            for j in range(nets)]


def _catalogue(rng) -> list:
    """The criterion-1 oracle catalogue; each entry builds its model from a probe."""
    union = sd.FiniteUnion([
        sd.ConvexPolyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                            np.array([1.0, 0.0, 1.0, 1.0])),
        sd.ConvexPolyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                            np.array([-1.0, 3.0, 3.0])),
    ])
    A = rng.uniform(-1, 1, (3, 3))
    b = rng.uniform(-1, 1, 3)
    square = sd.SmoothMap(2, 2, lambda x: x * x, lambda x, w: 2.0 * x * w)
    zero2 = sd.smooth_model(2, lambda x: 0.0, lambda x: np.zeros(2))
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    branches = [
        sd.smooth_model(2, lambda x: 0.5 * float(x @ x) - float(x[0]), lambda x: x - e0),
        sd.smooth_model(2, lambda x: 0.5 * float(x @ x) + float(x[1]), lambda x: x + e1),
    ]
    dist = sd.distance_to_set
    return [
        ("l1", lambda p: sd.L1Norm(4, 1.3)),
        ("neg_l1", lambda p: sd.NegL1Norm(4, 0.7)),
        ("dist_box", lambda p: dist(p.set(sd.Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))))),
        ("dist_ball", lambda p: dist(p.set(sd.Ball(np.array([0.5, -0.5]), 1.0)))),
        ("dist_affine", lambda p: dist(p.set(sd.AffineSubspace(np.array([[1.0, 1.0, 0.0]]),
                                                               np.array([1.0]))))),
        ("dist_singleton", lambda p: dist(p.set(sd.Singleton(np.array([0.5, -1.0]))))),
        ("dist_orthant", lambda p: dist(p.set(sd.nonnegative_orthant(3)))),
        ("dist_union", lambda p: dist(p.set(union))),
        ("dist_complementarity", lambda p: dist(p.set(sd.ComplementaritySet(2)))),
        ("moreau_l1", lambda p: sd.moreau_envelope(sd.L1Inner(0.8), 0.5, n=3)),
        ("moreau_l0", lambda p: sd.moreau_envelope(sd.ZeroNormInner(), 0.5, n=3)),
        ("moreau_quad", lambda p: sd.moreau_envelope(
            sd.QuadraticInner(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.2])), 1.0)),
        ("comp_l1_affine", lambda p: sd.precompose_smooth(sd.L1Norm(3), sd.affine_map(A, b))),
        ("comp_negl1_affine", lambda p: sd.precompose_smooth(sd.NegL1Norm(3, 0.5),
                                                             sd.affine_map(A))),
        ("comp_l1_square", lambda p: sd.precompose_smooth(sd.L1Norm(2, 0.5), square)),
        ("sum_quad_negl1", lambda p: _dc(3)),
        ("scale_l1", lambda p: sd.scale(sd.L1Norm(3), 2.0)),
        ("min_of_smooth", lambda p: sd.pointwise_min([p.member(m) for m in branches])),
        ("penalized", lambda p: sd.penalize(zero2, sd.identity_map(2),
                                            p.set(sd.nonnegative_orthant(2)), 1.5)),
    ]


def _dc(n: int):
    return sd.sum_models([sd.quadratic_model(np.zeros(n)), sd.NegL1Norm(n, 1.0)])


def _away_from_ties(net, theta) -> bool:
    return min(float(np.min(np.abs(a)))
               for acts in net.preactivations(theta) for a in acts) >= 1e-3


def _linf_exact(model, x):
    grad, parts = model.separable_parts(x)
    return sd.solve_linf_separable(parts, grad, x, model=model)


def verify(seed: int, pairs: int = 12) -> list:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for name, make in _catalogue(rng):
        dim = make(PLAIN).dim
        pts = [(rng.uniform(-2, 2, dim), rng.uniform(-1, 1, dim)) for _ in range(pairs)]
        # a union check costs 20 to 90 ms depending on the point, so all its
        # pairs are timed; the other checks cost nearly the same at any point
        ops.append(FDBatch(f"fd.{name}", lambda p, make=make: p.model(make(p)), pts,
                           pairs if name == "dist_union" else TIMED_PAIRS))
    net = sd.relu_network_loss([1, 1, 1], [(np.array([0.7]), np.array([0.2])),
                                           (np.array([-0.4]), np.array([0.6])),
                                           (np.array([0.2]), np.array([-0.1]))])
    pts = []
    while len(pts) < pairs:
        theta = rng.uniform(-1.5, 1.5, net.dim)
        if _away_from_ties(net, theta):
            pts.append((theta, rng.uniform(-1, 1, net.dim)))
    ops.append(FDBatch("fd.relu_net", lambda p: p.model(net), pts))

    def kinked(v):
        v[rng.integers(len(v))] = 0.0
        return v

    c = rng.uniform(-1, 1, 3)
    a = rng.uniform(-2, 2, 3)
    ops += [
        BruteCheck("brute.l2", lambda p: p.model(sd.quadratic_model(c)),
                   rng.uniform(-2, 2, 3), sd.NormChoice.L2, sd.solve_l2_smooth, "l2"),
        BruteCheck("brute.linf", lambda p: p.model(sd.sum_models(
                       [sd.quadratic_model(a), sd.L1Norm(3, 1.0)])),
                   kinked(rng.uniform(-2, 2, 3)), sd.NormChoice.LINF, _linf_exact, "linf-sep"),
        BruteCheck("brute.l1", lambda p: p.model(_dc(3)),
                   kinked(rng.uniform(-2, 2, 3)), sd.NormChoice.L1, sd.solve_l1_extreme, "l1-ext"),
    ]
    return ops


BUILDERS = {"vertex": vertex, "separable": separable, "network": network, "verify": verify}


def build(name: str, seed: int, **sizes) -> list:
    """The workload's operations, each with its plain model built."""
    ops = BUILDERS[name](seed, **sizes)
    for op in ops:
        op.model = op.build(PLAIN)
    return ops


def run_pass(ops, probe=None):
    """Execute every operation once; returns (outcomes, per-operation seconds).

    Without a probe the models built at set-up run; a probe gets its own
    wrapped models, built outside the timed call. An operation that does not
    time its own steps counts as one step.
    """
    outs, walls = [], []
    for op in ops:
        model = op.model if probe is None else op.build(probe)
        t0 = time.perf_counter()
        out = op.execute(model, probe or PLAIN)
        walls.append(time.perf_counter() - t0)
        out.step_walls = out.step_walls or [walls[-1]]
        outs.append(out)
    return outs, walls


def reference_table(path) -> dict:
    """Recorded outcome per solve input digest (see ``reference.py``)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def reference_mismatch(ref: tuple, recorded: dict) -> bool:
    """Status or iteration count differ, or final f differs beyond 1e-12 relative."""
    _, status, iters, f = ref
    r_f = recorded["f_final"]
    if status != recorded["status"] or iters != recorded["iterations"]:
        return True
    if math.isfinite(f) and math.isfinite(r_f):
        return abs(f - r_f) > 1e-12 * max(1.0, abs(r_f))
    return f != r_f
