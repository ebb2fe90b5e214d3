"""Step-size selection: Armijo backtracking and the diminishing schedule.

The Armijo acceptance test is strict,

    f(x + a w) - f(x) < (a / 2) * d f(x)(w),

with a = alpha_init * mu^m for the smallest m >= 0 that passes. Boundary
equality rejects; the 1-D quadratic fixtures hinge on that. At d = -inf (a
non-Lipschitz point) the right-hand side has no finite value, so the test
becomes f(x + a w) < f(x): the first trial that decreases f is accepted.
The direction value d is passed in, not recomputed, so the accepted step is
consistent with the search that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import BacktrackExhausted
from .model import FunctionModel, Vector, check_count, check_real

SCHEDULES = ("armijo", "diminishing")


@dataclass(frozen=True)
class ArmijoParams:
    """Reduction multiple mu in (0, 1), initial step, and the backtrack cap.

    The default cap of 60 brings the step near 1e-18 at mu = 0.5; beyond
    that, failure is diagnostic (the model is neither semi-differentiable
    nor descent-property at x), not something to retry.
    """

    mu: float = 0.5
    alpha_init: float = 1.0
    max_backtracks: int = 60

    def __post_init__(self):
        if not (0.0 < self.mu < 1.0):
            raise ValueError("mu must lie in (0, 1)")
        object.__setattr__(self, "alpha_init", check_real(self.alpha_init, "alpha_init"))
        object.__setattr__(self, "max_backtracks",
                           check_count(self.max_backtracks, "max_backtracks", least=1))


@dataclass(frozen=True)
class Schedule:
    """Either Armijo backtracking or the diminishing steps a_k = a0 / (k+1).

    The diminishing sequence satisfies sum a_k = inf and sum a_k^2 < inf.
    A schedule refuses an unknown kind and the other kind's field; Armijo
    fills in ``ArmijoParams()``, and diminishing needs a finite ``alpha0`` > 0.
    """

    kind: str
    armijo_params: Optional[ArmijoParams] = field(default=None)
    alpha0: Optional[float] = field(default=None)

    def __post_init__(self):
        if self.kind not in SCHEDULES:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        other = "alpha0" if self.kind == "armijo" else "armijo_params"
        if getattr(self, other) is not None:
            raise ValueError(f"a {self.kind} schedule takes no {other}")
        if self.kind == "armijo" and self.armijo_params is None:
            object.__setattr__(self, "armijo_params", ArmijoParams())
        if self.kind == "diminishing":
            object.__setattr__(self, "alpha0", check_real(self.alpha0, "alpha0"))


def armijo_schedule(params: Optional[ArmijoParams] = None) -> Schedule:
    return Schedule(kind="armijo", armijo_params=params)


def diminishing_schedule(alpha0: float = 1.0) -> Schedule:
    return Schedule(kind="diminishing", alpha0=alpha0)


def armijo(f: FunctionModel, x: Vector, w: Vector, d: float,
           params: Optional[ArmijoParams] = None) -> tuple[float, int]:
    """Backtrack from alpha_init until the strict decrease test passes.

    ``d`` is the direction-search value d f(x)(w) and must be negative;
    f(x) must be finite. Returns (alpha, backtracks). Raises
    BacktrackExhausted past the cap; its message names the smallest trial
    alpha, the decrease the test asked for there, -(alpha / 2) d (0 at
    d = -inf: any decrease), and 8 ulps of |f(x)|, so a search that ran into
    the resolution of f (an asked decrease below those 8 ulps) reads as such.
    """
    p = params or ArmijoParams()
    if not d < 0:
        raise ValueError(f"armijo requires a negative direction value, got {d}")
    fx = f._value(x)
    if not math.isfinite(fx):
        raise ValueError("armijo requires f(x) finite")
    for m in range(p.max_backtracks + 1):
        alpha = p.alpha_init * p.mu ** m
        trial = f._value(x + alpha * w)  # +inf trial values simply fail the test
        if trial - fx < (0.5 * alpha * d if d > -math.inf else 0.0):
            return alpha, m
    asked = float(-0.5 * alpha * d) if d > -math.inf else 0.0
    raise BacktrackExhausted(
        f"no acceptable step within {p.max_backtracks} backtracks: the smallest "
        f"trial alpha={alpha!r} asked for a decrease of more than {asked!r}, "
        f"against 8 ulps of |f(x)| = {8 * math.ulp(abs(fx))!r}")


def schedule_step(schedule: Schedule, k: int, f: FunctionModel, x: Vector,
                  w: Vector, d: float) -> tuple[float, int]:
    """Step size for iteration k under the given schedule.

    Diminishing returns alpha0 / (k+1) with zero backtracks; Armijo delegates.
    """
    check_count(k, "iteration index")
    if schedule.kind == "diminishing":
        return schedule.alpha0 / (k + 1), 0
    return armijo(f, x, w, d, schedule.armijo_params)
