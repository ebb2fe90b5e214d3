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


@dataclass(frozen=True, order=True)   # ordered by the payload: IEEE, so -0.0 == 0.0
class ExtReal:
    """An extended-real value. The payload is a float that is never NaN."""

    v: float

    def __post_init__(self):
        object.__setattr__(self, "v", float(self.v))
        if math.isnan(self.v):
            raise ValueError("ExtReal payload must not be NaN")

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

    def __repr__(self) -> str:
        return f"ExtReal({self.v!r})"


POS_INF = ExtReal(math.inf)
NEG_INF = ExtReal(-math.inf)


def ulp_tied(a: float, b: float) -> bool:
    """Are a and b both finite and within 8 ulps of the larger magnitude?

    Exact float ties would drop genuine ties that arithmetic noise splits,
    and an absolute tolerance finds them at one scale of the inputs only.
    A tie needs two finite values: no finite value ties an infinite one.
    """
    m = max(abs(a), abs(b))
    return m < math.inf and abs(a - b) <= 8 * math.ulp(m)


def ulp_tied_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``ulp_tied`` of two float arrays (b may be a scalar).

    ``np.spacing`` is ``math.ulp`` below the largest float, so when every
    magnitude is below half of it, where a - b cannot overflow, the rule is
    taken directly; any other input takes ``_ulp_tied_filled``.
    """
    m = np.maximum(np.abs(a), np.abs(b))
    if m.size and m.max() < sys.float_info.max / 2:
        return np.abs(a - b) <= 8 * np.spacing(m)
    return _ulp_tied_filled(a, b, m)


def _ulp_tied_filled(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``ulp_tied_arrays`` at any magnitudes m = max(|a|, |b|): at the largest
    float and beyond, ``math.ulp`` of the largest float is filled in. That
    gap is finite, so an infinite value ties nothing, and the rule agrees
    with ``ulp_tied`` on every non-NaN input."""
    below = m < sys.float_info.max
    ulp = np.where(below, np.spacing(np.where(below, m, 1.0)), math.ulp(sys.float_info.max))
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
    if np.isinf(a).any() and (np.isinf(a) & (a == -b)).any():
        raise IndeterminateSum("(+inf) + (-inf) is undefined")
    return a + b
