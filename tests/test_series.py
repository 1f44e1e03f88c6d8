"""Truncated multivariate series over exact Laurent coefficients."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lubintate.series import SeriesMatrix, TruncSeries
from lubintate.valuations import LaurentCoeff, RamifiedRing


def ring():
    return RamifiedRing(2, 1, 10)


def test_variable_and_monomial_agree():
    R = ring()
    x = TruncSeries.variable(R, 2, 5, 1)
    m = TruncSeries.monomial(R, 2, 5, (1, 0), LaurentCoeff.one(R))
    assert x == m


def test_cap_kills_every_high_exponent():
    R = ring()
    x = TruncSeries.variable(R, 1, 4, 1)
    assert not (x * x * x).is_zero
    assert (x * x * x * x).is_zero  # exponent 4 = cap is dropped


def test_cap_is_per_variable():
    # x^3*y stays when each exponent is under the cap
    R = ring()
    x = TruncSeries.variable(R, 2, 4, 1)
    y = TruncSeries.variable(R, 2, 4, 2)
    prod = x * x * x * y
    assert not prod.is_zero
    assert prod.coeffs.get((3, 1)) == LaurentCoeff.one(R)


def test_binomial_square_collects_cross_term():
    R = ring()
    x = TruncSeries.variable(R, 2, 5, 1)
    y = TruncSeries.variable(R, 2, 5, 2)
    s = (x + y) * (x + y)
    assert s.coeffs.get((2, 0)) == LaurentCoeff.one(R)
    # 2xy: at p = 2 the coefficient is pi itself
    assert s.coeffs.get((1, 1)) == LaurentCoeff.pi_power(R, 1)


def test_inverse_of_unit_series():
    R = ring()
    one = TruncSeries.one(R, 1, 6)
    x = TruncSeries.variable(R, 1, 6, 1)
    f = one + x
    g = f.inverse()
    assert f * g == one
    with pytest.raises(ValueError):
        x.inverse()  # constant term is zero


def test_frobenius_twist_raises_exponents():
    R = ring()
    x = TruncSeries.variable(R, 1, 9, 1)
    f = TruncSeries.one(R, 1, 9) + x
    tw = f.frobenius_twist(2)
    assert tw.coeffs.get((2,)) == LaurentCoeff.one(R)
    assert (1,) not in tw.coeffs


def test_mul_pi_power_shifts_coefficients():
    R = ring()
    x = TruncSeries.variable(R, 1, 5, 1)
    shifted = x.mul_pi_power(-2)
    assert shifted.coeffs.get((1,)) == LaurentCoeff.pi_power(R, -2)
    assert shifted.mul_pi_power(2) == x


def test_min_pi_exponent():
    R = ring()
    x = TruncSeries.variable(R, 1, 5, 1)
    f = x.mul_pi_power(-3) + TruncSeries.one(R, 1, 5)
    assert f.min_pi_exponent() == -3


def test_json_dict_terms_sorted():
    R = ring()
    x = TruncSeries.variable(R, 2, 4, 1)
    y = TruncSeries.variable(R, 2, 4, 2)
    d = (y + x + x * y).to_json_dict()
    exps = [t["exps"] for t in d["terms"]]
    assert exps == sorted(exps)
    assert d["cap"] == 4 and d["nvars"] == 2


def test_one_row_matrix_product_multiplies_like_linear_algebra():
    R = ring()
    one = TruncSeries.one(R, 1, 4)
    x = TruncSeries.variable(R, 1, 4, 1)
    zero = TruncSeries.zero(R, 1, 4)
    # row (1, x) times [[1, x], [0, 1]] = (1, x + x) = (1, 2x)
    M = SeriesMatrix(((one, x), (zero, one)))
    (row,) = (SeriesMatrix(((one, x),)) * M).entries
    assert row[0] == one
    assert row[1] == x + x


def test_mixed_ring_rejected():
    R = ring()
    other = RamifiedRing(3, 1, 10)
    x = TruncSeries.variable(R, 1, 4, 1)
    z = TruncSeries.variable(other, 1, 4, 1)
    with pytest.raises(ValueError):
        _ = x + z


def test_series_over_a_ramified_ring_are_refused():
    with pytest.raises(ValueError, match="unramified ring"):
        TruncSeries.one(RamifiedRing(2, 2, 12), 1, 4)


# ---- property tests: the inverse against the geometric series

def geometric_inverse(f):
    """1/f = c^-1 (1 - h + h^2 - ...) with h = f/c - 1, one product per power."""
    c = f.coeffs[(0,) * f.nvars]
    cinv = c.inverse()
    h = (f - TruncSeries.const(f.ring, f.nvars, f.cap, c)).scale(cinv)
    result = TruncSeries.one(f.ring, f.nvars, f.cap)
    power = TruncSeries.one(f.ring, f.nvars, f.cap)
    bound = f.nvars * (f.cap - 1) + 1
    for _ in range(bound):
        power = (-power) * h
        if power.is_zero:
            break
        result = result + power
    return result.scale(cinv)


def vanishes_below(s, N):
    return all(c.pi_exp >= N for c in s.coeffs.values())


@st.composite
def unit_series(draw):
    """Sparse series with a unit constant term and pi exponents >= 0."""
    R = draw(st.sampled_from((RamifiedRing(2, 1, 16), RamifiedRing(3, 1, 8),
                              RamifiedRing(5, 1, 6))))
    nvars = draw(st.sampled_from((1, 2)))
    cap = draw(st.integers(1, 40))
    # small exponents make the support of h generate many terms below the cap
    exponent = st.integers(0, cap - 1) | st.integers(0, min(3, cap - 1))
    digits = st.lists(st.integers(0, R.p - 1), min_size=R.m * R.N, max_size=R.m * R.N)
    terms = draw(st.dictionaries(
        st.tuples(*[exponent] * nvars),
        st.tuples(digits.map(R.from_digits), st.integers(0, 2)),
        max_size=5,
    ))
    coeffs = {e: LaurentCoeff(R, u.coeffs[0], k) for e, (u, k) in terms.items()}
    c = draw(digits.map(R.from_digits))
    if c.coeffs[0] % R.p == 0:
        c = c + R.one()
    coeffs[(0,) * nvars] = LaurentCoeff(R, c.coeffs[0])
    return TruncSeries(R, nvars, cap, coeffs)


@settings(deadline=None, max_examples=60)
@given(f=unit_series())
def test_inverse_matches_geometric_series(f):
    N = f.ring.N
    g = f.inverse()
    one = TruncSeries.one(f.ring, f.nvars, f.cap)
    assert vanishes_below(f * g - one, N)
    assert vanishes_below(g - geometric_inverse(f), N)


@given(f=unit_series())
def test_inverse_needs_a_constant_term(f):
    h = f - TruncSeries.const(f.ring, f.nvars, f.cap, f.coeffs[(0,) * f.nvars])
    with pytest.raises(ValueError):
        h.inverse()
