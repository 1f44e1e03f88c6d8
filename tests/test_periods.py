"""Period tuples from display matrices, and the isomorphism domains."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lubintate import periods
from lubintate.periods import (
    b_inverse,
    cf2_convention,
    display_matrix,
    evaluate_periods,
    period_series,
    period_series_product,
)
from lubintate.polygon import in_H, polygon_from_vals
from lubintate.series import SeriesMatrix, TruncSeries
from lubintate.valuations import INF, LaurentCoeff, RamifiedRing, Val


def test_recurrence_equals_matrix_product():
    for n in (2, 3):
        for q in (2, 3):
            for depth in range(0, 4):
                a = period_series(n, q, depth)
                b = period_series_product(n, q, depth)
                assert a == b, (n, q, depth)


def depth_fold_product(n, q, depth):
    """The product oracle multiplying the row by B^(-1) once per level."""
    ring = periods._ring_for(None, q)
    cap = max(q ** depth, 1)
    A = display_matrix(n, cap, ring)
    one, zero = TruncSeries.one(ring, n - 1, cap), TruncSeries.zero(ring, n - 1, cap)
    M = SeriesMatrix([[one] + [zero] * (n - 1)])
    for j in range(depth):
        M = M * A.frobenius_twist(q, j)
    Binv = b_inverse(n, cap, ring)
    for _ in range(depth):
        M = M * Binv
    return tuple(M.entries[0])


@st.composite
def _nq_depth(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    return n, draw(st.sampled_from((2, 3, 4, 5))), draw(st.integers(0, 2 * n + 1))


@settings(deadline=None)
@given(case=_nq_depth())
def test_product_oracle_matches_depth_fold_and_recurrence(case):
    n, q, depth = case
    got = period_series_product(n, q, depth)
    assert got.f == depth_fold_product(n, q, depth)
    assert got == period_series(n, q, depth)


def test_depth2_closed_form_height2():
    # f = (1 + x^(q+1)/pi, x) at depth 2
    for q in (2, 3):
        pt = period_series(2, q, 2)
        R = pt.f[0].ring
        one = TruncSeries.one(R, 1, pt.cap)
        xq1 = TruncSeries.monomial(
            R, 1, pt.cap, (q + 1,), LaurentCoeff.pi_power(R, -1)
        )
        x = TruncSeries.variable(R, 1, pt.cap, 1)
        assert pt.f[0] == one + xq1
        assert pt.f[1] == x


def test_depth0_is_the_seed():
    pt = period_series(3, 2, 0)
    R = pt.f[0].ring
    assert pt.f[0] == TruncSeries.one(R, 2, pt.cap)
    for i in (1, 2):
        assert pt.f[i] == TruncSeries.variable(R, 2, pt.cap, i)


def test_deeper_rows_refine_not_rewrite():
    # depth d+1 agrees with depth d below the old cap
    shallow = period_series(2, 2, 2)
    deep = period_series(2, 2, 3)
    for old, new in zip(shallow.f, deep.f):
        assert TruncSeries(new.ring, new.nvars, shallow.cap, new.coeffs) == old


def test_cf2_cross_multiplication():
    # guarded comparison: fixed-window coefficients erode top digits when
    # pi-exponents mix, so the identity holds to the ring's precision only
    for q in (2, 3):
        for depth in (1, 2, 3, 4):
            assert periods.cf2_cross_check(q, depth), (q, depth)


def test_cf2_cross_check_rejects_depth_zero():
    # at depth 0 the cap is 1, f_1 = 0 and k = 0: the identity would hold vacuously
    with pytest.raises(ValueError):
        periods.cf2_cross_check(2, 0)
    with pytest.raises(ValueError):
        cf2_convention(2, 0)


def test_cf2_convention_label():
    assert cf2_convention(2, 1) == "pi*f0/f1"
    assert cf2_convention(3, 1) == "pi*f0/f1"


def cf2_label_by_division(cf, pt, N):
    """Convention oracle: divide out each candidate ratio as a Laurent series."""
    f0, f1 = pt.f
    bound = Val(Fraction(N))

    def as_laurent(series):
        d = min(e[0] for e in series.coeffs)
        unit = TruncSeries(series.ring, 1, series.cap,
                           {(e[0] - d,): c for e, c in series.coeffs.items()})
        return unit, d

    u1, d1 = as_laurent(f1)
    ratio_a = f0.mul_pi_power(1) * u1.inverse()
    if -d1 == cf.x_exp and periods._agree_to(ratio_a, cf.series, bound):
        return "pi*f0/f1"
    u0, d0 = as_laurent(f0)
    ratio_b = f1 * u0.inverse()
    if -d0 == cf.x_exp and periods._agree_to(ratio_b, cf.series, bound):
        return "f1/f0"
    raise ArithmeticError("continued fraction matches neither candidate ratio")


def _division_ring(q, depth, cap):
    """A ring with guard digits for dividing by the convergent denominator:
    twice the pi-exponent span of period_cf2 at the default ring, plus 4."""
    base = periods._ring_for(None, q)
    span = periods._pi_span(periods.period_cf2(q, depth, cap=cap, ring=base).series)
    return RamifiedRing(base.p, 1, base.N + 2 * span + 4)


@pytest.mark.parametrize("q, depth", [(2, 1), (2, 2), (2, 3), (2, 4),
                                      (3, 1), (3, 2), (4, 1), (4, 2)])
def test_cf2_convention_matches_division_oracle(q, depth):
    ring = periods._ring_for(None, q)
    h, k, pt = periods._guarded_cf2(q, depth, 2 * depth, ring)
    wide = _division_ring(q, depth, pt.cap)
    cf = periods.period_cf2(q, depth, cap=pt.cap, ring=wide)
    oracle_pt = period_series(2, q, 2 * depth, ring=wide)
    assert cf2_convention(q, depth) == cf2_label_by_division(cf, oracle_pt, ring.N)
    # the other candidate is rejected, so the check tells the two apart
    assert not periods._cf2_matches(h, k, pt.f[1], pt.f[0], ring.N)


@pytest.mark.parametrize("q, depth", [(2, 1), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_period_cf2_times_denominator_unit_is_the_numerator(q, depth):
    # period_cf2 = h * (k / x^d)^(-1) * x^(-d), so multiplying back by k / x^d gives h
    base = periods._ring_for(None, q)
    wide = _division_ring(q, depth, None)
    cf = periods.period_cf2(q, depth, ring=wide)
    cap = cf.series.cap
    h, k = periods._convergent(q, depth, cap, wide)
    assert min(k.coeffs)[0] == -cf.x_exp
    unit = TruncSeries(wide, 1, cap, {(e[0] + cf.x_exp,): c for e, c in k.coeffs.items()})
    assert periods._agree_to(cf.series * unit, h, Val(base.N))


_SPAN_GRID = [(q, depth, pt_depth) for q in (2, 3, 4, 5, 7, 8, 9) for depth in (1, 2, 3, 4)
              for pt_depth in (depth, 2 * depth)]


@pytest.mark.parametrize("q, depth, pt_depth", _SPAN_GRID)
def test_cf2_guard_covers_the_pi_span(q, depth, pt_depth):
    # _guarded_cf2 holds 2 * depth + 4 guard digits, enough for a span <= depth
    ring = periods._ring_for(None, q)
    pt = period_series(2, q, pt_depth, ring=ring)
    h, k = periods._convergent(q, depth, pt.cap, ring)
    assert periods._pi_span(h, k, *pt.f) <= depth


def test_b_inverse_is_inverse():
    R = RamifiedRing(2, 1, 16)
    cap = 8
    for n in (2, 3, 4):
        # B is A at x = 0: the constant term of every entry of A
        c0 = (0,) * (n - 1)
        B = SeriesMatrix([[TruncSeries(R, n - 1, cap, {c0: a.coeffs.get(c0, LaurentCoeff.zero(R))})
                           for a in row] for row in display_matrix(n, cap, R).entries])
        one, zero = TruncSeries.one(R, n - 1, cap), TruncSeries.zero(R, n - 1, cap)
        identity = SeriesMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])
        assert B * b_inverse(n, cap, R) == identity, n


def test_evaluate_periods_exact_when_precision_suffices():
    pt = period_series(2, 2, 2, ring=RamifiedRing(2, 1, 24))
    point_ring = RamifiedRing(2, 2, 20)  # v(x) = 1/2 representable
    vals = evaluate_periods(pt, [point_ring.one().shift_up(1)], point_ring)
    # f_0 = 1 + x^3/pi has valuation 0; f_1 = x has valuation 1/2
    (v0, flag0), (v1, flag1) = vals
    assert v0 == Fraction(0) and not flag0
    assert v1 == Fraction(1, 2) and not flag1


def test_evaluate_periods_pinned_at_ramified_point():
    # output recorded with the digit-vector coefficient kernel
    pt = period_series(3, 2, 5, ring=RamifiedRing(2, 1, 40))
    R = RamifiedRing(2, 4, 40)
    coords = [R.from_digits([0, 1, 1, 0, 1] * 32), R.from_digits([0, 0, 1, 1, 1, 0, 1] * 23)]
    text = ";".join(f"{v}{'!' if flag else ''}" for v, flag in evaluate_periods(pt, coords, R))
    assert text == "-1/4;1/4;-1/4"


def evaluate_by_term_powers(pt, coords, point_ring):
    """Oracle: evaluate_periods raising each coordinate to c ** e for every term."""
    out = []
    for comp in pt.f:
        if comp.is_zero:
            out.append((Val(INF), True))
            continue
        e_min = comp.min_pi_exponent()
        total = point_ring.zero()
        for exps, coeff in comp.coeffs.items():
            term = coeff.unit.embed(point_ring)
            term = term.shift_up(point_ring.m * (coeff.pi_exp - e_min))
            for c, e in zip(coords, exps):
                if e:
                    term = term * c ** e
            total = total + term
        v = total.valuation()
        out.append((Val(e_min) + v, v is INF))
    return out


@cache
def _period_tuple(n, q, depth):
    return period_series(n, q, depth, ring=RamifiedRing(q, 1, 24))


@st.composite
def _evaluation_case(draw):
    n, q, m = draw(st.sampled_from((2, 3))), draw(st.sampled_from((2, 3))), draw(st.sampled_from((1, 2, 4)))
    depth = draw(st.integers(0, 6))
    ring = RamifiedRing(q, m, 24)
    digits = st.lists(st.integers(0, q - 1), min_size=m * 24 - 1, max_size=m * 24 - 1)
    coords = [ring.from_digits([0] + draw(digits)) for _ in range(n - 1)]  # v(x_i) > 0
    if draw(st.booleans()):
        coords[draw(st.integers(0, n - 2))] = ring.zero()
    return _period_tuple(n, q, depth), coords, ring


@settings(deadline=None, max_examples=60)
@given(case=_evaluation_case())
def test_evaluate_periods_matches_per_term_powers(case):
    pt, coords, ring = case
    got = evaluate_periods(pt, coords, ring)
    want = evaluate_by_term_powers(pt, coords, ring)
    assert got == want


_VALS = st.one_of(st.just(INF), st.fractions(min_value=Fraction(1, 64), max_value=3,
                                              max_denominator=64))
_NQ_VALS = st.sampled_from([(n, q) for n in (2, 3, 4) for q in (2, 3, 4)]).flatmap(
    lambda nq: st.tuples(st.just(nq[0]), st.just(nq[1]),
                         st.lists(_VALS, min_size=nq[0] - 1, max_size=nq[0] - 1)))


@given(case=_NQ_VALS)
@example(case=(2, 2, [Fraction(1, 6)]))      # on the boundary: both sides 1/12
@example(case=(3, 2, [INF, Fraction(1, 7)]))  # on the boundary: both sides 1/28
def test_vals_in_H_is_the_isomorphism_inequality_system(case):
    n, q, vals = case
    v = [Fraction(1)] + vals + [Fraction(0)]  # v(x_0) = v(pi) = 1, v(x_n) = v(1) = 0
    qn = q ** n
    # for all 1 <= i <= n, 0 <= j <= n-1 with finite v(x_i), v(x_j):
    #   (1 - v(x_i)) / (q^n (q^i - 1)) < v(x_j) / (q^n - q^j)
    want = all(
        (1 - v[i]) / (qn * (q ** i - 1)) < v[j] / (qn - q ** j)
        for i in range(1, n + 1) if v[i] is not INF
        for j in range(n) if v[j] is not INF
    )
    assert in_H(polygon_from_vals(n, q, vals)) == want


def test_period_series_rejects_bad_args():
    with pytest.raises(ValueError):
        period_series(1, 2, 2)
    with pytest.raises(ValueError):
        period_series(2, 6, 2)  # q must be a prime power
    with pytest.raises(ValueError):
        period_series(2, 3, 2, ring=RamifiedRing(2, 1, 8))  # ring prime mismatch


def test_period_series_refuses_a_ramified_ring_before_any_series_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("series work started")

    for name in ("__add__", "__mul__", "mul_pi_power"):
        monkeypatch.setattr(TruncSeries, name, refuse)
    with pytest.raises(ValueError, match=r"unramified ring \(m = 1\)"):
        period_series(2, 2, 3, ring=RamifiedRing(2, 2, 16))


def test_default_ring_follows_q():
    assert period_series(2, 3, 1).f[0].ring.p == 3
    assert period_series(2, 4, 1).f[0].ring.p == 2
