"""Exact rational valuations and truncated tamely ramified p-adic coefficients.

The coefficient rings are the rings of integers of Q_p(p^(1/m)), truncated
at precision p^N: O = (Z/p^N)[u]/(u^m - p).  An element is the tuple of
its m coordinates a_0, ..., a_(m-1) in the basis 1, u, ..., u^(m-1), each
an integer in [0, p^N).  Products fold u^m = p back into the basis.  The
valuation is normalized by v(p) = 1, so v(u) = 1/m and
v(sum a_r u^r) = min_r (m v_p(a_r) + r) / m lies in (1/m)Z.

The u-adic digit expansion is an I/O format only: digit slot j*m + r is
the j-th base-p digit of a_r (`from_digits`, `digit_string`).

A valuation is an exact rational (an int or a Fraction) or INF, the
valuation of zero, which lies above every rational and absorbs `+`.
Zero means "zero to working precision": `is_zero` holds and the
valuation is INF rather than an error.

`LaurentCoeff`, the coefficient type of series, lives over m = 1, where
pi = p: two ints, a unit of Z/p^N (an int prime to p, or 0 for zero) and
the integer power of pi it multiplies, so coefficients like pi^(-2)*3 stay
exact and division by pi never widens the precision.  Its constructor
refuses any other ring.  Renormalization after cancellation trusts the
digits above the cancelled range, so precision N should be chosen with
headroom over the valuations one intends to read off.

`sum_terms` is the one helper that sums sparse (key, value) terms by key:
series coefficients, Witt-law coefficients and valuation multisets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class _Infinity:
    """The infinite valuation, of x = 0: above every rational and equal only
    to itself.  It absorbs `+` from either side.  Library code tests
    `v is INF`; `is_inf` and `as_fraction` serve outside callers, as on Val.
    """

    __slots__ = ()
    is_inf = True

    def as_fraction(self):
        raise ValueError("infinite valuation has no rational value")

    def __add__(self, other):
        return self if isinstance(other, _VALUATION_TYPES) else NotImplemented

    __radd__ = __add__

    def __lt__(self, other):  # total_ordering derives <=, > and >= from < and ==
        return False if isinstance(other, _VALUATION_TYPES) else NotImplemented

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()
_VALUATION_TYPES = (int, Fraction, _Infinity)


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this number, the least strong pseudoprime to all 13 (Sorenson and
# Webster, Math. Comp. 86 (2017)); larger candidates are refused.
MILLER_RABIN_LIMIT = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _least_factor(n: int):
    """Least prime factor of n >= 2 if it is below 50 (n itself when n is a
    prime below 50^2); None when n has no factor below 50.

    Trial division by 2, 3, ..., 49, stopped at sqrt(n): the least divisor
    found is prime, and with none below 50 every prime factor is >= 53.
    """
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
        if d == 50:
            return None
    return n


def _miller_rabin(n: int) -> bool:
    """Whether n is prime, for n with no prime factor below 50.

    Deterministic: the strong-probable-prime test to the bases 2, 3, ..., 41
    is exact below MILLER_RABIN_LIMIT, and a larger n raises ValueError.
    """
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"cannot test {n} for primality: the limit is 3.3e24")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = _least_factor(p)
    return d == p or d is None and _miller_rabin(p)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1 and k >= 2, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def vp(x, p: int):
    """p-adic valuation of a rational (int or Fraction); None for 0."""
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def sum_terms(pairs) -> dict:
    """Sum (key, value) pairs by key into a dict, dropping zero sums.

    Each key keeps a running sum, taken left to right, in first-seen key
    order; a key whose running sum becomes zero is dropped (and re-enters
    at the end if it recurs).  Values need `+` and a truth value that is
    False exactly for zero: ints, Fractions and LaurentCoeff all qualify.
    """
    out = {}
    for key, value in pairs:
        if key in out:
            value = out[key] + value
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


def prime_power_split(q: int):
    """q = p^f with p prime; returns (p, f) or raises ValueError.

    With no prime factor below 50, q = p^f forces p >= 53 > 2^5, so
    f <= bit_length(q) / 5; the largest k with q an exact k-th power gives
    the only candidate p, which Miller-Rabin then decides.
    """
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    p = _least_factor(q)
    if p is None:
        p, f = q, 1
        for k in range(q.bit_length() // 5, 1, -1):
            r = _iroot(q, k)
            if r ** k == q:
                p, f = r, k
                break
        if not _miller_rabin(p):
            raise ValueError(f"{q} is not a prime power")
        return p, f
    f = vp(q, p)
    if p ** f != q:
        raise ValueError(f"{q} is not a prime power")
    return p, f


class Val(Fraction):
    """A finite valuation: a Fraction that answers `is_inf` and `as_fraction`
    as INF does.  Val(INF) is INF; Val + rational is a Val, Val + INF is INF."""

    __slots__ = ()
    is_inf = False

    def __new__(cls, value):
        return INF if value is INF else super().__new__(cls, value)

    def as_fraction(self) -> Fraction:
        return Fraction(self)

    def __add__(self, other):
        s = Fraction.__add__(self, other)
        return s if s is NotImplemented else Val(s)

    __radd__ = __add__


def frac_json(x) -> dict:
    """{"num": a, "den": b} for an int or Fraction (Val included), {"inf": true} for INF."""
    if x is INF:
        return {"inf": True}
    return {"num": x.numerator, "den": x.denominator}


class RamifiedRing:
    """O_F for F = Q_p(u), u^m = p, truncated at precision p^N.

    Elements are m integers mod p^N; arithmetic is exact modulo p^N.  Rings
    with equal (p, m, N) compare equal and their elements interoperate.
    """

    __slots__ = ("p", "m", "N", "mod")

    def __init__(self, p: int, m: int = 1, N: int = 20):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1 or N < 1:
            raise ValueError("need ramification m >= 1 and precision N >= 1")
        self.p = p
        self.m = m
        self.N = N
        self.mod = p ** N

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RamifiedRing)
            and (self.p, self.m, self.N) == (other.p, other.m, other.N)
        )

    def __hash__(self):
        return hash(("RamifiedRing", self.p, self.m, self.N))

    def __repr__(self) -> str:
        return f"RamifiedRing(p={self.p}, m={self.m}, N={self.N})"

    def from_digits(self, digits) -> "RamifiedElement":
        """Digit k of the u-adic expansion is digit k // m of a_(k % m)."""
        digits = tuple(int(d) for d in digits)[: self.m * self.N]
        if any(d < 0 or d >= self.p for d in digits):
            raise ValueError("digits out of range")
        return RamifiedElement(self, tuple(
            sum(d * self.p ** j for j, d in enumerate(digits[r:: self.m]))
            for r in range(self.m)
        ))

    def zero(self) -> "RamifiedElement":
        return RamifiedElement(self, (0,) * self.m)

    def one(self) -> "RamifiedElement":
        return self.from_int(1)

    def from_int(self, a: int) -> "RamifiedElement":
        return RamifiedElement(self, (a % self.mod,) + (0,) * (self.m - 1))


class RamifiedElement:
    """a_0 + a_1 u + ... + a_(m-1) u^(m-1), each a_r in [0, p^N); immutable."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RamifiedRing, coeffs: tuple):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other) -> "RamifiedElement":
        if not isinstance(other, RamifiedElement):
            raise TypeError("expected a RamifiedElement")
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("elements from different rings (p, m, N must match)")
        return other

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def u_valuation(self):
        """min_r(m * v_p(a_r) + r): the valuation in units of 1/m; None for 0."""
        m, p = self.ring.m, self.ring.p
        if self.coeffs[0] % p:
            return 0
        return min((m * vp(a, p) + r for r, a in enumerate(self.coeffs) if a), default=None)

    def valuation(self):
        k = self.u_valuation()
        return INF if k is None else Fraction(k, self.ring.m)

    def __add__(self, other) -> "RamifiedElement":
        other = self._check(other)
        mod = self.ring.mod
        return RamifiedElement(
            self.ring, tuple((a + b) % mod for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RamifiedElement":
        mod = self.ring.mod
        return RamifiedElement(self.ring, tuple(-a % mod for a in self.coeffs))

    def __sub__(self, other) -> "RamifiedElement":
        other = self._check(other)
        mod = self.ring.mod
        return RamifiedElement(
            self.ring, tuple((a - b) % mod for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "RamifiedElement":
        other = self._check(other)
        R = self.ring
        m = R.m
        if m == 1:
            return RamifiedElement(R, (self.coeffs[0] * other.coeffs[0] % R.mod,))
        work = [0] * (2 * m)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    work[i + j] += a * b
        # u^m = p folds u^(r+m) onto p u^r
        return RamifiedElement(
            R, tuple((work[r] + R.p * work[r + m]) % R.mod for r in range(m)))

    def __pow__(self, e: int) -> "RamifiedElement":
        """Left-to-right binary powering: floor(log2 e) squarings and
        popcount(e) - 1 products by self."""
        if e < 0:
            raise ValueError("negative powers: use inverse() on a unit")
        if e == 0:
            return self.ring.one()
        result = self
        for bit in bin(e)[3:]:  # the bits below the leading one
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def inverse(self) -> "RamifiedElement":
        """a_0^(-1) mod p^N for a unit over an unramified ring, as series
        coefficients are; m != 1 and a non-unit raise ValueError."""
        R = self.ring
        if R.m != 1:
            raise ValueError("inverse needs an unramified ring (m = 1)")
        if self.coeffs[0] % R.p == 0:
            raise ValueError("not a unit: valuation is positive (or infinite)")
        return RamifiedElement(R, (pow(self.coeffs[0], -1, R.mod),))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RamifiedElement)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self) -> str:
        R = self.ring
        terms = [f"{a}*u^{r}" if r else f"{a}" for r, a in enumerate(self.coeffs) if a]
        return f"<{' + '.join(terms) or '0'} | p={R.p}, m={R.m}, N={R.N}>"

    def digit_string(self) -> str:
        """Comma-joined u-adic digits with trailing zeros stripped.

        Slot j*m + r holds the j-th base-p digit of a_r.
        """
        p = self.ring.p
        coeffs = list(self.coeffs)
        digits = []
        while any(coeffs):
            for r, a in enumerate(coeffs):
                coeffs[r], d = divmod(a, p)
                digits.append(d)
        while digits and digits[-1] == 0:
            digits.pop()
        return ",".join(str(d) for d in digits)


class LaurentCoeff:
    """unit * pi^e over an unramified ring (zero has unit 0 and e = 0).

    This is the coefficient type for truncated series: negative pi powers
    are bookkept in `pi_exp`, never by widening the precision.  The ring
    must have m = 1, so pi = p and `unit`, an int in [0, p^N), is prime to
    p or is 0 for the zero coefficient; the constructor reduces its int mod
    p^N and pulls the p powers out, and addition aligns at the smaller
    exponent.
    """

    __slots__ = ("ring", "unit", "pi_exp")

    def __init__(self, ring: RamifiedRing, unit: int, pi_exp: int = 0):
        if ring.m != 1:
            raise ValueError("series coefficients need an unramified ring (m = 1)")
        unit %= ring.mod
        if unit:
            while unit % ring.p == 0:
                unit //= ring.p
                pi_exp += 1
        else:
            pi_exp = 0
        self.ring = ring
        self.unit = unit
        self.pi_exp = pi_exp

    @classmethod
    def zero(cls, ring: RamifiedRing) -> "LaurentCoeff":
        return cls(ring, 0)

    @classmethod
    def one(cls, ring: RamifiedRing) -> "LaurentCoeff":
        return cls(ring, 1)

    @classmethod
    def pi_power(cls, ring: RamifiedRing, e: int) -> "LaurentCoeff":
        return cls(ring, 1, e)

    def _with_unit(self, unit: int, pi_exp: int) -> "LaurentCoeff":
        """unit * pi^pi_exp over this ring, for a unit already normal: prime
        to p in [0, p^N), or 0 with pi_exp = 0."""
        out = object.__new__(LaurentCoeff)
        out.ring, out.unit, out.pi_exp = self.ring, unit, pi_exp
        return out

    def __bool__(self) -> bool:
        return bool(self.unit)

    def __add__(self, other) -> "LaurentCoeff":
        if not self.unit:
            return other
        if not other.unit:
            return self
        lo, hi = (self, other) if self.pi_exp <= other.pi_exp else (other, self)
        R = self.ring
        aligned = hi.unit * pow(R.p, hi.pi_exp - lo.pi_exp, R.mod)
        return LaurentCoeff(R, lo.unit + aligned, lo.pi_exp)

    def __neg__(self) -> "LaurentCoeff":
        return self._with_unit(-self.unit % self.ring.mod, self.pi_exp)

    def __sub__(self, other) -> "LaurentCoeff":
        return self + (-other)

    def __mul__(self, other) -> "LaurentCoeff":
        # a product of two units mod p^N is a unit, so it is already normal
        unit = self.unit * other.unit % self.ring.mod
        return self._with_unit(unit, self.pi_exp + other.pi_exp if unit else 0)

    def inverse(self) -> "LaurentCoeff":
        if not self.unit:
            raise ZeroDivisionError("inverse of zero coefficient")
        (unit,) = self.ring.from_int(self.unit).inverse().coeffs
        return self._with_unit(unit, -self.pi_exp)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentCoeff)
            and self.ring == other.ring
            and self.unit == other.unit
            and self.pi_exp == other.pi_exp
        )

    def __hash__(self):
        return hash((self.ring, self.unit, self.pi_exp))

    def __repr__(self) -> str:
        if not self.unit:
            return "0"
        unit = repr(self.ring.from_int(self.unit))
        if self.pi_exp == 0:
            return unit
        return f"pi^{self.pi_exp} * {unit}"

    def json_obj(self):
        return {"pi_exp": self.pi_exp, "digits": self.ring.from_int(self.unit).digit_string()}
