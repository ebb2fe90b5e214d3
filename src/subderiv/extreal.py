"""Extended-real scalars on [-inf, +inf] with a total order and guarded sums.

Directional derivatives of nonsmooth objectives take values on the extended
line, so this type is the codomain of every subderivative in the toolkit.
NaN is rejected at construction; keeping it out preserves the total order
NegInf < finite < PosInf without epsilon games.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import IndeterminateSum


@dataclass(frozen=True, order=False)
class ExtReal:
    """An extended-real value. The payload is a float that is never NaN."""

    v: float

    def __post_init__(self):
        object.__setattr__(self, "v", float(self.v))
        if math.isnan(self.v):
            raise ValueError("ExtReal payload must not be NaN")

    @staticmethod
    def of(v: float) -> "ExtReal":
        """Wrap any non-NaN float, infinities included."""
        return ExtReal(v)

    @staticmethod
    def finite(v: float) -> "ExtReal":
        """Wrap a value that must be finite."""
        if not math.isfinite(v):
            raise ValueError(f"expected a finite value, got {v!r}")
        return ExtReal(v)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.v)

    def __float__(self) -> float:
        return self.v

    def __neg__(self) -> "ExtReal":
        return ExtReal(-self.v)

    def scaled(self, lam: float) -> "ExtReal":
        """Multiply by a positive factor; lam * (+-inf) stays the same infinity."""
        if lam <= 0:
            raise ValueError("scaled() requires a positive factor")
        return ExtReal(lam * self.v)

    def __add__(self, other: "ExtReal") -> "ExtReal":
        return ext_add(self, other)

    # Total order via the float payload; IEEE handles +-inf, NaN is banned.
    def __lt__(self, other: "ExtReal") -> bool:
        return self.v < other.v

    def __le__(self, other: "ExtReal") -> bool:
        return self.v <= other.v

    def __gt__(self, other: "ExtReal") -> bool:
        return self.v > other.v

    def __ge__(self, other: "ExtReal") -> bool:
        return self.v >= other.v

    def __repr__(self) -> str:
        return f"ExtReal({self.v!r})"


POS_INF = ExtReal(math.inf)
NEG_INF = ExtReal(-math.inf)


def ulp_tied(a: float, b: float) -> bool:
    """Do a and b agree within 8 ulps of the larger magnitude of the two?

    Exact float ties would drop genuine ties that arithmetic noise splits,
    and an absolute tolerance finds them at one scale of the inputs only.
    """
    return abs(a - b) <= 8 * math.ulp(max(abs(a), abs(b)))


def ulp_tied_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``ulp_tied`` of two float arrays.

    ``np.spacing`` is ``math.ulp`` below the largest float; there and at
    infinity the values ``math.ulp`` takes are filled in, so the two rules
    agree on every non-NaN input.
    """
    m = np.maximum(np.abs(a), np.abs(b))
    below = m < sys.float_info.max
    ulp = np.where(below, np.spacing(np.where(below, m, 1.0)), math.ulp(sys.float_info.max))
    ulp = np.where(np.isinf(m), math.inf, ulp)
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf is not tied
        return np.abs(a - b) <= 8 * ulp


def ext_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Extended-real sum. (+inf) + (-inf) is rejected, not silently NaN."""
    if (a.v == math.inf and b.v == -math.inf) or (a.v == -math.inf and b.v == math.inf):
        raise IndeterminateSum("(+inf) + (-inf) is undefined")
    return ExtReal(a.v + b.v)


def ext_add_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``ext_add`` of two float arrays of extended reals. The
    opposite-infinity pairs are sought only when a has an infinite entry;
    a NaN already in a or b passes through."""
    if np.isinf(a).any() and np.any(np.isinf(a) & (a == -b)):
        raise IndeterminateSum("(+inf) + (-inf) is undefined")
    return a + b
