"""Exact digit arithmetic and valuation bookkeeping."""

from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lubintate.valuations import (
    INF,
    MILLER_RABIN_LIMIT,
    LaurentCoeff,
    RamifiedElement,
    RamifiedRing,
    Val,
    _is_prime,
    frac_json,
    prime_power_split,
    sum_terms,
    vp,
)


def test_val_ordering_and_inf():
    assert Val(Fraction(1, 2)) < Val(Fraction(3, 4))
    assert Val(Fraction(1, 2)) < Val(INF)
    assert Val(INF) == Val(INF)
    assert not Val(INF) < Val(INF)
    assert Val(INF).is_inf
    assert (Val(Fraction(1, 3)) + Val(INF)).is_inf
    assert Val(Fraction(1, 3)) + Val(Fraction(1, 6)) == Val(Fraction(1, 2))


def test_frac_json():
    assert frac_json(Val(Fraction(3, 4))) == {"num": 3, "den": 4}
    assert frac_json(Fraction(-2)) == {"num": -2, "den": 1}
    assert frac_json(Val(INF)) == frac_json(INF) == {"inf": True}


_RATIONALS = st.one_of(st.integers(-40, 40),
                       st.fractions(min_value=-20, max_value=20, max_denominator=12))
_VALUATIONS = st.one_of(_RATIONALS, _RATIONALS.map(Val), st.just(INF))


def _key(x):
    """Oracle: a valuation as a tuple, INF above every finite (0, value)."""
    return (1, Fraction(0)) if x is INF else (0, Fraction(x))


@given(a=_VALUATIONS, b=_VALUATIONS)
def test_valuation_order_and_sum_match_the_key_model(a, b):
    for x, y in ((a, b), (b, a)):
        assert (x < y) == (_key(x) < _key(y))
        assert (x <= y) == (_key(x) <= _key(y))
        assert (x > y) == (_key(x) > _key(y))
        assert (x >= y) == (_key(x) >= _key(y))
        assert (x == y) == (_key(x) == _key(y))
        assert (x != y) == (_key(x) != _key(y))
        if INF in (x, y):
            assert x + y is INF
        else:
            assert x + y == Fraction(x) + Fraction(y)
    total = Val(a) + b
    if INF in (a, b):
        assert total is INF
    else:
        assert type(total) is Val and total == Fraction(a) + Fraction(b)


@given(xs=st.lists(_VALUATIONS, min_size=1, max_size=8))
def test_sorted_and_max_of_mixed_valuations_follow_the_key_model(xs):
    assert [_key(x) for x in sorted(xs)] == sorted(map(_key, xs))
    assert _key(max(xs)) == max(map(_key, xs))
    assert _key(min(xs)) == min(map(_key, xs))


@given(x=_VALUATIONS)
def test_val_is_a_fraction_and_val_of_inf_is_inf(x):
    v = Val(x)
    if x is INF:
        assert v is INF and v.is_inf
        assert frac_json(x) == {"inf": True}
        with pytest.raises(ValueError):
            v.as_fraction()
        return
    f = Fraction(x)
    assert isinstance(v, Fraction) and not v.is_inf and v == f
    assert hash(v) == hash(f)
    assert type(v.as_fraction()) is Fraction and v.as_fraction() == f
    assert str(v) == str(f)
    assert frac_json(x) == frac_json(v) == {"num": f.numerator, "den": f.denominator}


def test_vp():
    assert vp(0, 2) is None
    assert vp(12, 2) == 2 and vp(7, 2) == 0
    assert vp(Fraction(9, 8), 2) == -3 and vp(Fraction(9, 8), 3) == 2


def test_prime_power_split():
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(3) == (3, 1)
    assert prime_power_split(9) == (3, 2)
    with pytest.raises(ValueError):
        prime_power_split(6)
    with pytest.raises(ValueError):
        prime_power_split(1)


def test_prime_power_split_is_sqrt_trial_division():
    # a scan of every c up to q takes minutes on the Mersenne prime 2^31 - 1
    start = perf_counter()
    assert prime_power_split(2 ** 31 - 1) == (2 ** 31 - 1, 1)
    assert prime_power_split(3 ** 19) == (3, 19)
    assert perf_counter() - start < 1.0


def _least_factor_by_trial_division(q):
    """Oracle: the least prime factor of q >= 2, by trial division up to sqrt(q)."""
    d = 2
    while d * d <= q:
        if q % d == 0:
            return d
        d += 1
    return q


def _split_or_none(q):
    try:
        return prime_power_split(q)
    except ValueError as exc:
        assert str(exc) == f"{q} is not a prime power"
        return None


def test_prime_power_split_matches_trial_division_below_1e5():
    for q in range(2, 10 ** 5):
        p = _least_factor_by_trial_division(q)
        f = vp(q, p)
        assert _split_or_none(q) == ((p, f) if p ** f == q else None), q
        assert _is_prime(q) == (p == q), q


# 1000000007 and 100000000000031 are prime; the composites are strong
# pseudoprimes to the bases 2..23 (3825123056546413051 = 149491 * 747451 *
# 34233211) and 2..37 (318665857834031151167461 = 399165290221 * 798330580441)
@pytest.mark.parametrize("q, split", [
    (100000000000031, (100000000000031, 1)),
    (1000000007 ** 2, (1000000007, 2)),
    (53 ** 13, (53, 13)),
    (3 ** 200, (3, 200)),  # a small prime factor needs no primality test
    (1000000007 ** 3, (1000000007, 3)),  # above the limit, but its root is not
    (1000000007 * 998244353, None),
    ((1000000007 * 998244353) ** 2, None),
    (3825123056546413051, None),
    (318665857834031151167461, None),
])
def test_prime_power_split_of_large_q(q, split):
    if split is None:
        with pytest.raises(ValueError, match="is not a prime power"):
            prime_power_split(q)
    else:
        assert prime_power_split(q) == split
    if q < MILLER_RABIN_LIMIT:
        assert _is_prime(q) == (split == (q, 1))


def test_primality_beyond_the_miller_rabin_limit_is_refused():
    # the least strong pseudoprime to the first 13 prime bases
    for n in (MILLER_RABIN_LIMIT, 10 ** 25 + 13):
        for call in (prime_power_split, _is_prime):
            with pytest.raises(ValueError, match=f"^cannot test {n} for primality"):
                call(n)


def test_ring_requires_prime():
    with pytest.raises(ValueError):
        RamifiedRing(4)
    with pytest.raises(ValueError):
        RamifiedRing(1)


def test_elements_refuse_an_int_or_another_rings_element():
    a = RamifiedRing(2, 1, 10).from_int(3)
    with pytest.raises(TypeError, match="expected a RamifiedElement"):
        a * 2
    # equal (p, m, N) interoperate; a different N does not
    assert a + RamifiedRing(2, 1, 10).one() == a.ring.from_int(4)
    with pytest.raises(ValueError, match="p, m, N must match"):
        a + RamifiedRing(2, 1, 12).one()


def test_unramified_digits_and_carry():
    R = RamifiedRing(2, 1, 12)
    a = R.from_int(12)
    # 12 = 2^2 * 3 = 2^2 + 2^3
    assert a.digit_string() == "0,0,1,1"
    assert a.valuation() == Val(2)
    assert (R.from_int(7) + R.from_int(9)) == R.from_int(16)
    assert (R.from_int(5) * R.from_int(5)) == R.from_int(25)
    assert (-R.from_int(3)) + R.from_int(3) == R.zero()


def test_ramified_carry_crosses_m_digits():
    # u^2 = 3: integer p-powers occupy even slots
    R = RamifiedRing(3, 2, 10)
    u = R.from_digits([0, 1])
    assert u * u == R.from_int(3)
    assert R.from_int(9).valuation() == Val(2)
    assert u.valuation() == Val(Fraction(1, 2))
    assert (u ** 5).valuation() == Val(Fraction(5, 2))


def test_inverse_of_unit():
    R = RamifiedRing(5, 1, 8)
    x = R.from_int(7)
    assert x * x.inverse() == R.one()
    with pytest.raises(ValueError):
        R.from_int(5).inverse()  # not a unit
    with pytest.raises(ValueError, match="unramified ring"):
        RamifiedRing(5, 2, 8).one().inverse()


def test_below_precision_flag():
    R = RamifiedRing(2, 1, 12)
    big = R.from_int(2 ** 12)
    assert big.is_zero
    assert not R.from_int(3).is_zero
    assert big.valuation().is_inf


def test_laurent_normalization_pulls_pi_out():
    R = RamifiedRing(2, 1, 12)
    a = LaurentCoeff(R, 12)
    # the unit part must be 3, all pi powers in the exponent
    assert a.pi_exp == 2
    assert a.unit == 3
    assert a.json_obj() == {"pi_exp": 2, "digits": "1,1"}


def test_laurent_arithmetic_and_inverse():
    R = RamifiedRing(2, 1, 12)
    a = LaurentCoeff(R, 12)
    b = LaurentCoeff.pi_power(R, -3)
    c = a * b
    assert c.pi_exp == -1
    assert c * c.inverse() == LaurentCoeff.one(R)
    assert not a - a and (a - a).pi_exp == 0
    assert (a + LaurentCoeff.zero(R)) == a


def test_laurent_mixed_exponent_addition():
    R = RamifiedRing(3, 1, 10)
    one = LaurentCoeff.one(R)
    three = LaurentCoeff.pi_power(R, 1)
    s = one + three  # 1 + pi = 4 at p = 3
    assert s.pi_exp == 0
    assert s == LaurentCoeff(R, 4)


# ---- property tests: the integer-coded kernel against independent oracles

@st.composite
def rings(draw, m=st.integers(1, 4)):
    return RamifiedRing(draw(st.sampled_from((2, 3, 5))), draw(m), draw(st.integers(1, 8)))


def elements(R):
    return st.lists(st.integers(0, R.p - 1), min_size=R.m * R.N, max_size=R.m * R.N).map(
        R.from_digits)


def _digit_vector_op(R, x, y, op):
    """x op y on u-adic digit vectors, carrying p from slot k to slot k + m."""
    n = R.m * R.N
    if op == "*":
        work = [0] * n
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                if i + j < n:
                    work[i + j] += a * b
    else:
        work = [a + b if op == "+" else a - b for a, b in zip(x, y)]
    for k in range(n):
        c, work[k] = divmod(work[k], R.p)
        if k + R.m < n:
            work[k + R.m] += c
    return work


def _digits(x):
    R = x.ring
    text = x.digit_string()
    digits = [int(d) for d in text.split(",")] if text else []
    return digits + [0] * (R.m * R.N - len(digits))


@given(R=rings(m=st.just(1)), a=st.integers(-10 ** 6, 10 ** 6), b=st.integers(-10 ** 6, 10 ** 6))
def test_unramified_matches_integers_mod_pn(R, a, b):
    mod = R.p ** R.N
    x, y = R.from_int(a), R.from_int(b)
    assert x.coeffs == (a % mod,)
    assert (x + y).coeffs == ((a + b) % mod,)
    assert (x - y).coeffs == ((a - b) % mod,)
    assert (x * y).coeffs == ((a * b) % mod,)
    assert (-x).coeffs == (-a % mod,)
    want = vp(a % mod, R.p)
    assert x.valuation() == (Val(INF) if want is None else Val(want))


@given(R=rings(m=st.integers(2, 4)), data=st.data())
def test_ramified_matches_digit_vector_arithmetic(R, data):
    x, y = data.draw(elements(R)), data.draw(elements(R))
    for op, z in (("+", x + y), ("-", x - y), ("*", x * y)):
        assert _digits(z) == _digit_vector_op(R, _digits(x), _digits(y), op), op


@given(R=rings(), data=st.data())
def test_ring_laws(R, data):
    x, y, z = (data.draw(elements(R)) for _ in range(3))
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + R.zero() == x and x * R.one() == x and x - x == R.zero()
    assert x ** 3 == x * x * x


@given(R=rings(m=st.sampled_from((1, 2, 4))), e=st.integers(0, 40), data=st.data())
def test_power_matches_repeated_products(R, e, data):
    x = data.draw(elements(R))
    want = R.one()
    for _ in range(e):
        want = want * x
    assert x ** e == want


def test_power_squares_from_the_top_bit(monkeypatch):
    """x ** e costs floor(log2 e) squarings and popcount(e) - 1 products by x."""
    R = RamifiedRing(3, 2, 6)
    x = R.from_digits([1, 2, 0, 1])
    products = []
    mul = RamifiedElement.__mul__
    monkeypatch.setattr(RamifiedElement, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for e in range(65):
        products.clear()
        x ** e
        assert len(products) == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0), e


@given(R=rings(), data=st.data())
def test_valuation_is_multiplicative_below_precision(R, data):
    x, y = data.draw(elements(R)), data.draw(elements(R))
    v = x.valuation() + y.valuation()
    if v < Val(R.N):
        assert (x * y).valuation() == v
    assert x.valuation() == (Val(INF) if x.is_zero else Val(Fraction(
        next(k for k, d in enumerate(_digits(x)) if d), R.m)))


@given(R=rings(), data=st.data())
def test_digit_round_trip(R, data):
    digits = data.draw(st.lists(st.integers(0, R.p - 1), max_size=R.m * R.N))
    x = R.from_digits(digits)
    assert _digits(x) == digits + [0] * (R.m * R.N - len(digits))
    assert R.from_digits(_digits(x)) == x


def _unit(R, x):
    return x + R.one() if x.coeffs[0] % R.p == 0 else x


@given(R=rings(m=st.just(1)), data=st.data())
def test_unit_inverse(R, data):
    x = _unit(R, data.draw(elements(R)))
    assert x * x.inverse() == R.one()


# ---- sum_terms: the one helper that sums sparse terms by key


@given(data=st.data())
def test_sum_terms_matches_defaultdict(data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3))))
    # negated copies of some terms make running sums cancel, mid-list or at the end
    cancel = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    terms = data.draw(st.permutations(pairs + [(k, -v) for k, v in cancel]))
    oracle, entered = defaultdict(int), {}
    for i, (k, v) in enumerate(terms):
        before = oracle[k]
        oracle[k] += v
        if not before and oracle[k]:
            entered[k] = i
    got = sum_terms(terms)
    assert got == {k: v for k, v in oracle.items() if v}
    # a key sits where its running sum last became nonzero
    assert list(got) == sorted(got, key=entered.get)


@given(N=st.integers(1, 6), data=st.data())
def test_sum_terms_adds_laurent_coefficients_left_to_right(N, data):
    R = RamifiedRing(2, 1, N)
    coeff = st.builds(lambda a, e: LaurentCoeff(R, a, e), st.integers(-8, 8), st.integers(-2, 2))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 3), coeff)))
    cancel = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    terms = data.draw(st.permutations(pairs + [(k, -c) for k, c in cancel]))
    want = {}
    for key in dict.fromkeys(k for k, _ in terms):
        acc = LaurentCoeff.zero(R)
        for k, c in terms:
            if k == key:
                acc = acc + c
        if acc:
            want[key] = acc
    assert sum_terms(terms) == want


class ParentLaurent:
    """The RamifiedElement-backed LaurentCoeff that the two-int kernel
    replaced, kept as its reference; addition aligns by a ring product with
    p^(difference of exponents) where it used u-shifts, the same for m = 1."""

    __slots__ = ("unit", "pi_exp", "is_zero")

    def __init__(self, unit: RamifiedElement, pi_exp: int = 0):
        R = unit.ring
        (a,) = unit.coeffs
        self.is_zero = not a
        if not a:
            pi_exp = 0
        elif a % R.p == 0:
            t = vp(a, R.p)
            unit = RamifiedElement(R, (a // R.p ** t,))
            pi_exp += t
        self.unit = unit
        self.pi_exp = pi_exp

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo, hi = (self, other) if self.pi_exp <= other.pi_exp else (other, self)
        aligned = hi.unit * hi.unit.ring.from_int(hi.unit.ring.p ** (hi.pi_exp - lo.pi_exp))
        return ParentLaurent(lo.unit + aligned, lo.pi_exp)

    def __neg__(self):
        return ParentLaurent(-self.unit, self.pi_exp)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return ParentLaurent(self.unit.ring.zero())
        return ParentLaurent(self.unit * other.unit, self.pi_exp + other.pi_exp)

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero coefficient")
        return ParentLaurent(self.unit.inverse(), -self.pi_exp)

    def __eq__(self, other):
        return self.unit == other.unit and self.pi_exp == other.pi_exp

    def json_obj(self):
        return {"pi_exp": self.pi_exp, "digits": self.unit.digit_string()}


@st.composite
def laurent_pairs(draw):
    """Two (int, pi exponent) pairs over one unramified ring; ints that are
    units times p^k, k <= 3, make the constructor renormalise, and vanish
    when k >= N."""
    R = draw(rings(m=st.just(1)))

    def raw():
        unit = _unit(R, draw(elements(R))).coeffs[0] * R.p ** draw(st.integers(0, 3))
        return unit, draw(st.integers(-3, 3))

    return R, raw(), raw()


def _agrees(x, ref):
    return (x.unit, x.pi_exp, bool(x)) == (ref.unit.coeffs[0], ref.pi_exp, not ref.is_zero)


@given(case=laurent_pairs())
def test_laurent_coefficients_match_the_ramified_element_reference(case):
    R, (a, e), (b, f) = case
    x, y = LaurentCoeff(R, a, e), LaurentCoeff(R, b, f)
    rx, ry = ParentLaurent(R.from_int(a), e), ParentLaurent(R.from_int(b), f)
    assert _agrees(x, rx) and _agrees(y, ry)
    for op in ("__add__", "__sub__", "__mul__"):
        assert _agrees(getattr(x, op)(y), getattr(rx, op)(ry)), op
    assert _agrees(-x, -rx)
    if rx.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert _agrees(x.inverse(), rx.inverse())
    assert (x == y) == (rx == ry)
    assert x != y or hash(x) == hash(y)
    assert hash(x) == hash(LaurentCoeff(R, a, e))
    assert x.json_obj() == rx.json_obj()


@given(case=laurent_pairs())
def test_laurent_product_matches_the_normalising_constructor(case):
    R, (a, e), (b, f) = case
    x, y = LaurentCoeff(R, a, e), LaurentCoeff(R, b, f)
    want = LaurentCoeff(R, x.unit * y.unit, x.pi_exp + y.pi_exp)
    got = x * y
    assert got == want and bool(got) == bool(want)


def test_laurent_truth_is_nonzero():
    R = RamifiedRing(3, 1, 4)
    assert not LaurentCoeff.zero(R) and not LaurentCoeff(R, 3 ** 4)
    assert LaurentCoeff.one(R) and LaurentCoeff.pi_power(R, -3)


def test_laurent_coefficients_refuse_a_ramified_ring():
    with pytest.raises(ValueError, match=r"series coefficients need an unramified ring \(m = 1\)"):
        LaurentCoeff(RamifiedRing(2, 2, 12), 1)
