"""The descent main loop: direction search, termination test, step, repeat.

Each iteration solves (or approximates) min over the unit ball of d f(x_k)(w).
If that minimum is >= -epsilon the current point is epsilon-directionally
stationary and the run stops; one search per iteration serves both the
termination test and the step direction, since they are the same problem.
Otherwise a schedule picks alpha_k and the update is x_{k+1} = x_k + alpha_k w_k.

On differentiable objectives the whole loop degenerates to normalized
gradient descent, iterate for iterate.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .direction import (DirectionResult, NormChoice, solve_l1_extreme,
                        solve_l2_smooth, solve_linf_separable,
                        solve_sampling_fallback)
from .errors import BacktrackExhausted, DomainViolation, InsufficientTrace
from .linesearch import Schedule, armijo_schedule, schedule_step
from .model import FunctionModel, Vector, as_vector, check_count, check_real

STRATEGIES = ("auto", "l2", "linf-sep", "l1-ext", "fallback")


class TerminalStatus(str, enum.Enum):
    EPS_STATIONARY = "EpsStationary"
    MAX_ITER = "MaxIter"
    UNBOUNDED = "Unbounded"
    BACKTRACK_EXHAUSTED = "BacktrackExhausted"
    LEFT_DOMAIN = "LeftDomain"


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    ``floor`` is the operational stand-in for an f(x_k) -> -inf outcome:
    dropping below it terminates with status Unbounded. ``budget`` and
    ``seed`` only matter for the sampling fallback.
    """

    epsilon: float = 1e-6
    norm: NormChoice = NormChoice.L2
    schedule: Schedule = field(default_factory=armijo_schedule)
    max_iter: int = 1000
    strategy: str = "auto"
    budget: int = 64
    seed: int = 0
    floor: float = -1e12

    def __post_init__(self):
        object.__setattr__(self, "epsilon", check_real(self.epsilon, "epsilon", positive=False))
        object.__setattr__(self, "budget", check_count(self.budget, "budget"))
        object.__setattr__(self, "max_iter", check_count(self.max_iter, "max_iter", least=1))
        object.__setattr__(self, "seed", check_count(self.seed, "seed"))
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    f: float
    dir_value: float
    alpha: float
    backtracks: int
    step_norm: float
    wall_ns: int


@dataclass
class Trace:
    """Per-iteration records plus the terminal verdict.

    ``iterates`` holds x_k for every recorded row (the point the row's f and
    direction were evaluated at). ``certified`` is True when the terminal
    stationarity verdict came from an exact direction solver; with the
    sampling fallback an EpsStationary status only means "no descent
    direction found within budget".
    """

    records: list[IterationRecord]
    status: TerminalStatus
    x_final: Vector
    f_final: float
    certified: bool
    detail: str = ""
    iterates: list[Vector] = field(default_factory=list)


def resolve_strategy(f: FunctionModel, strategy: str) -> str:
    """Map auto to the structure the model declares.

    Gradient access wins, then separable structure, then a concave
    subderivative; anything else samples.
    """
    if strategy != "auto":
        return strategy
    if f.has_gradient:
        return "l2"
    if f.is_separable:
        return "linf-sep"
    if f.subderivative_concave:
        return "l1-ext"
    return "fallback"


def search_direction(f: FunctionModel, x: Vector, cfg: SolverConfig) -> DirectionResult:
    strategy = resolve_strategy(f, cfg.strategy)
    if strategy == "l2":
        return solve_l2_smooth(f, x)
    if strategy == "linf-sep":
        grad, parts = f.separable_parts(x)
        return solve_linf_separable(parts, grad, x, model=f)
    if strategy == "l1-ext":
        return solve_l1_extreme(f, x)
    return solve_sampling_fallback(f, x, cfg.norm, cfg.budget, cfg.seed)


def run(f: FunctionModel, x0: Vector, cfg: Optional[SolverConfig] = None) -> Trace:
    """Iterate from x0 until epsilon-stationarity, the iteration cap, the
    unbounded floor, an exhausted backtracking search, or a step to a point
    where f = +inf.

    Terminal statuses: EpsStationary, MaxIter, Unbounded (f below
    ``cfg.floor``), BacktrackExhausted (no Armijo step within the cap) and
    LeftDomain (a diminishing step reached f = +inf; Armijo never accepts
    such a trial). The last two write a final row with alpha 0 and keep
    ``x_final``/``f_final`` at the last finite iterate.
    """
    cfg = cfg or SolverConfig()
    x = as_vector(x0, f.dim, "x0")
    fx = f._value(x)
    if not math.isfinite(fx):
        raise DomainViolation(f"f(x0) = {fx}; the starting value must be finite")
    records: list[IterationRecord] = []
    iterates: list[Vector] = []
    status = TerminalStatus.MAX_ITER
    certified = True
    detail = ""
    for k in range(cfg.max_iter):
        t0 = time.perf_counter_ns()
        res = search_direction(f, x, cfg)
        d = res.value.v
        stop = None
        if d >= -cfg.epsilon:
            stop = TerminalStatus.EPS_STATIONARY
        else:
            try:
                alpha, m = schedule_step(cfg.schedule, k, f, x, res.w, d)
            except BacktrackExhausted as exc:
                stop, cause = TerminalStatus.BACKTRACK_EXHAUSTED, exc
            else:
                step = alpha * res.w
                x_next = x + step
                fx_next = f._value(x_next)
                if fx_next == math.inf:
                    stop = TerminalStatus.LEFT_DOMAIN
        dt = time.perf_counter_ns() - t0
        iterates.append(x)
        if stop is not None:
            # The terminal row takes no step; x stays at the last finite iterate.
            records.append(IterationRecord(k, fx, d, 0.0, 0, 0.0, dt))
            status = stop
            if stop is TerminalStatus.EPS_STATIONARY:
                certified = res.exact
                if not res.exact:
                    detail = "no descent direction found within budget"
            elif stop is TerminalStatus.BACKTRACK_EXHAUSTED:
                detail = str(cause)
            else:
                detail = f"the step with alpha={alpha!r} leaves the domain: f(x + alpha w) = +inf"
            break
        x = x_next
        records.append(IterationRecord(k, fx, d, alpha, m, float(np.linalg.norm(step)), dt))
        fx = fx_next
        if fx < cfg.floor:
            status = TerminalStatus.UNBOUNDED
            detail = f"f dropped below the configured floor {cfg.floor}"
            break
    return Trace(records, status, x, fx, certified, detail, iterates)


def check_d_stationary(f: FunctionModel, x: Vector, epsilon: float,
                       norm: NormChoice = NormChoice.L2, strategy: str = "auto",
                       budget: int = 64, seed: int = 0
                       ) -> tuple[bool, DirectionResult]:
    """One-shot stationarity test: is min d f(x)(w) over the ball >= -epsilon?

    The witness carries the minimizing direction found. The verdict is sound
    exactly when the chosen solver is exact.
    """
    cfg = SolverConfig(epsilon=epsilon, norm=norm, strategy=strategy,
                       budget=budget, seed=seed)
    x = as_vector(x, f.dim)
    if not f.value(x).is_finite:
        raise DomainViolation("stationarity is only defined where f is finite")
    res = search_direction(f, x, cfg)
    return res.value.v >= -epsilon, res


def rate_constant(mu: float, L: float) -> float:
    """The per-step constant M = min{1/2, mu / (2L)} of the rate bound.

    mu must lie in (0, 1), as ``ArmijoParams`` requires of it.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    L = check_real(L, "L", positive=False)
    return 0.5 if L == 0.0 else min(0.5, mu / (2.0 * L))


def ball_radius_sq(strategy: str, dim: int, norm: NormChoice = NormChoice.L2) -> float:
    """Worst squared Euclidean length of a direction from the search ball.

    The descent inequality is Euclidean, so switching the ball only rescales
    the backtracking bound: the effective constant is L * max ||w||_2^2 over
    the ball searched. Sup-norm boxes reach sqrt(dim); l2 balls and l1
    vertex sets stay at 1. ``strategy`` must be resolved (see
    ``resolve_strategy``): "auto" names no ball, so it raises ValueError, as
    an unknown name does.
    """
    if strategy == "linf-sep":
        return float(dim)
    if strategy == "fallback":
        return float(dim) if norm is NormChoice.LINF else 1.0
    if strategy in ("l2", "l1-ext"):
        return 1.0
    raise ValueError(f"ball_radius_sq needs a resolved strategy, not {strategy!r}")


@dataclass(frozen=True)
class RateAudit:
    lhs: float
    rhs: float
    rate_holds: bool
    decrease_holds: bool

    @property
    def holds(self) -> bool:
        return self.rate_holds and self.decrease_holds


def sufficient_decrease_audit(trace: Trace, M: float) -> list[bool]:
    """Per-step check of f(x_{k+1}) - f(x_k) <= -M min{|d_k|, d_k^2}.

    Terminal probe rows (alpha = 0) take no step; their bound is 0 and holds
    iff f did not increase, which is vacuously true since there is no
    successor. Rows with d_k = -inf are skipped and reported True: their
    bound is -inf, and Armijo accepts such a step on a plain decrease.
    """
    out = []
    for i, r in enumerate(trace.records):
        f_next = (trace.records[i + 1].f if i + 1 < len(trace.records)
                  else trace.f_final)
        if (r.alpha == 0.0 and f_next == r.f) or r.dir_value == -math.inf:
            out.append(True)
            continue
        bound = -M * min(abs(r.dir_value), r.dir_value ** 2)
        out.append(f_next - r.f <= bound)
    return out


def rate_audit(trace: Trace, f_star: float, L: float, mu: float, N: int) -> RateAudit:
    """Check the O(eps^-2) rate certificate on a recorded Armijo trace.

    Verifies min_{0<=k<=N} |d_k| <= sqrt((f(x_0) - f_star) / (M (N+1))) with
    M = min{1/2, mu/(2L)}, plus ``sufficient_decrease_audit`` on rows 0
    through N. ``L`` and ``f_star`` must be valid for the traced objective.
    """
    N = check_count(N, "N")
    if N + 1 > len(trace.records):
        raise InsufficientTrace(
            f"audit through N={N} needs {N + 1} records, trace has {len(trace.records)}")
    M = rate_constant(mu, L)
    recs = trace.records[:N + 1]
    lhs = min(abs(r.dir_value) for r in recs)
    gap = trace.records[0].f - f_star
    rhs = math.sqrt(max(gap, 0.0) / (M * (N + 1)))
    decrease = all(sufficient_decrease_audit(trace, M)[:N + 1])
    return RateAudit(lhs=lhs, rhs=rhs, rate_holds=lhs <= rhs, decrease_holds=decrease)
