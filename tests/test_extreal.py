import math
import sys

import numpy as np
import pytest

import subderiv as sd
from subderiv import NEG_INF, POS_INF, ExtReal, ext_add
from subderiv import extreal
from subderiv.extreal import ext_add_arrays, ulp_tied, ulp_tied_arrays


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
        ExtReal.finite(math.inf)


def test_total_order():
    vals = [NEG_INF, ExtReal(-3.0), ExtReal(0.0), ExtReal(4.5), POS_INF]
    for a, b in zip(vals, vals[1:]):
        assert a < b and b > a and a <= b and not b <= a
    # the dataclass order compares payloads: signed zeros and each infinity
    # equal themselves, so <= and >= hold and < and > do not
    assert ExtReal(0.0) == ExtReal(-0.0)
    for a, b in [(ExtReal(0.0), ExtReal(-0.0)), (ExtReal(4.5), ExtReal(4.5)),
                 (POS_INF, ExtReal(math.inf)), (NEG_INF, ExtReal(-math.inf))]:
        assert a <= b and b <= a and a >= b and not a < b and not a > b
    assert sorted(reversed(vals)) == vals and min(vals) is NEG_INF and max(vals) is POS_INF


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


def test_no_finite_value_ties_an_infinite_one():
    # math.ulp(inf) is inf, so the bare 8-ulp rule would tie inf with 5.0
    for a, b in [(math.inf, 5.0), (5.0, math.inf), (-math.inf, 5.0),
                 (math.inf, sys.float_info.max), (math.inf, math.inf), (-math.inf, -math.inf)]:
        assert not ulp_tied(a, b)
        assert ulp_tied_arrays(np.array([a]), b).tolist() == [False]
    assert ulp_tied_arrays(np.array([math.inf, 5.0, -math.inf]), 5.0).tolist() == [False, True, False]


_BIG = sys.float_info.max
_TIE_CASES = {
    # name: (a, b, takes the direct rule)
    "empty": (np.array([]), np.array([]), False),
    "empty-scalar": (np.array([]), 1.0, False),
    "zeros": (np.array([0.0, -0.0, 0.0, -0.0]), np.array([0.0, 0.0, -0.0, -0.0]), True),
    "subnormals": (np.array([5e-324, 1e-310, -1e-310, 2.2e-308, 0.0, 4e-323]),
                   np.array([0.0, 1e-310 + 4e-323, 1e-310, 2.2e-308 + 5e-323, 4e-323, 0.0]),
                   True),
    "below-half-largest": (np.array([math.nextafter(_BIG / 2, 0.0), -_BIG / 4, 1e300]),
                           np.array([-math.nextafter(_BIG / 2, 0.0), _BIG / 4, 1e300]), True),
    "overflowing-difference": (np.array([_BIG, -_BIG, math.nextafter(_BIG, 0.0), _BIG / 2, 1.0]),
                               np.array([-_BIG, _BIG, -_BIG, -_BIG / 2, 1.0]), False),
    "infinities-and-nan": (np.array([math.inf, -math.inf, math.inf, math.nan, 1.0, math.nan]),
                           np.array([math.inf, math.inf, 1.0, 1.0, math.nan, math.nan]), False),
    "scalar-b": (np.array([1.0, 1.0 + 8 * 2**-52, 1.0 + 9 * 2**-52, -1.0, 3.0]), 1.0, True),
    "scalar-b-largest": (np.array([_BIG, 1.0, -_BIG]), _BIG, False),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(_TIE_CASES))
def test_ulp_tied_arrays_direct_rule_is_the_filled_rule_bit_for_bit(case, monkeypatch):
    a, b, direct = _TIE_CASES[case]
    filled = extreal._ulp_tied_filled(a, b, np.maximum(np.abs(a), np.abs(b)))
    calls = []
    monkeypatch.setattr(extreal, "_ulp_tied_filled",
                        lambda *args: calls.append(args) or filled)
    got = ulp_tied_arrays(a, b)
    assert (not calls) is direct
    assert got.dtype == filled.dtype == np.bool_ and got.shape == filled.shape == a.shape
    assert got.tobytes() == filled.tobytes()
    bs = np.broadcast_to(b, a.shape).tolist()
    assert got.tolist() == [ulp_tied(u, v) for u, v in zip(a.tolist(), bs)]


def test_ext_add_arrays_is_ext_add_elementwise():
    vals = [-math.inf, -1.5, -0.0, 0.0, 2.5, math.inf]
    pairs = [(p, q) for p in vals for q in vals]
    finite_sums = []
    for p, q in pairs:
        try:
            want = ext_add(ExtReal(p), ExtReal(q)).v
        except sd.IndeterminateSum:
            with pytest.raises(sd.IndeterminateSum):
                ext_add_arrays(np.array([p]), np.array([q]))
            continue
        finite_sums.append((p, q, want))
        assert ext_add_arrays(np.array([p]), np.array([q])).tobytes() == np.array([want]).tobytes()
    assert len(finite_sums) == len(pairs) - 2      # only the opposite infinities raise
    a, b, want = np.array(finite_sums).T
    assert ext_add_arrays(a, b).tobytes() == want.tobytes()
    with pytest.raises(sd.IndeterminateSum):
        ext_add_arrays(*np.array(pairs).T)
    # a NaN already in an addend passes through rather than raising
    assert np.isnan(ext_add_arrays(np.array([np.nan, 1.0]), np.array([np.inf, np.nan]))).all()
