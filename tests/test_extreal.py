import math
import sys

import numpy as np
import pytest

import subderiv as sd
from subderiv import NEG_INF, POS_INF, ExtReal, ext_add
from subderiv.extreal import ulp_tied, ulp_tied_arrays


def test_finite_addition():
    assert ext_add(ExtReal(2.0), ExtReal(3.0)) == ExtReal(5.0)


def test_posinf_plus_finite():
    assert ext_add(POS_INF, ExtReal(-7.0)) == POS_INF


def test_indeterminate_sum_rejected():
    with pytest.raises(sd.IndeterminateSum):
        ext_add(POS_INF, NEG_INF)
    with pytest.raises(sd.IndeterminateSum):
        ext_add(NEG_INF, POS_INF)


def test_neginf_plus_neginf():
    assert ext_add(NEG_INF, NEG_INF) == NEG_INF


def test_nan_rejected_everywhere():
    with pytest.raises(ValueError):
        ExtReal(math.nan)
    with pytest.raises(ValueError):
        ExtReal.of(float("nan"))
    with pytest.raises(ValueError):
        ExtReal.finite(math.inf)


def test_total_order():
    vals = [NEG_INF, ExtReal(-3.0), ExtReal(0.0), ExtReal(4.5), POS_INF]
    for a, b in zip(vals, vals[1:]):
        assert a < b and b > a and a <= b and not b <= a


def test_positive_scaling_keeps_infinities():
    assert POS_INF.scaled(3.0) == POS_INF
    assert NEG_INF.scaled(0.5) == NEG_INF
    assert ExtReal(2.0).scaled(2.0) == ExtReal(4.0)
    with pytest.raises(ValueError):
        ExtReal(1.0).scaled(0.0)


def test_negation_and_float():
    assert -ExtReal(2.0) == ExtReal(-2.0)
    assert float(POS_INF) == math.inf
    assert POS_INF.is_finite is False
    assert ExtReal(1.0).is_finite


def test_ulp_tied_arrays_is_ulp_tied_elementwise():
    big = sys.float_info.max
    vals = [0.0, -0.0, 5e-324, 1e-310, 1.0, 1.0 + 8 * 2**-52, 1.0 + 9 * 2**-52, -3.0,
            1e300, big, -big, math.nextafter(big, 0.0), math.inf, -math.inf]
    a = np.array([u for u in vals for _ in vals])
    b = np.array([v for _ in vals for v in vals])
    with np.errstate(over="ignore", invalid="ignore"):
        want = [ulp_tied(u, v) for u, v in zip(a.tolist(), b.tolist())]
    assert ulp_tied_arrays(a, b).tolist() == want
