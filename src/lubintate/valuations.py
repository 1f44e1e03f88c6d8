"""Exact rational valuations and truncated tamely ramified p-adic coefficients.

The coefficient rings are the rings of integers of Q_p(p^(1/m)), truncated
at precision p^N.  An element is a vector of m*N base-p digits in the
uniformizer u, with the relation u^m = p held exactly: carries from digit
slot k land in slot k+m.  The valuation is normalized by v(p) = 1, so
v(u) = 1/m and every finite valuation of a ring element lies in (1/m)Z.

A vector of all zeros means "zero to working precision"; its valuation is
INF and the below-precision flag is set rather than raising.

Division by pi never widens digit vectors.  `LaurentCoeff` keeps a unit part
together with an integer power of pi, so series coefficients like pi^(-2)*u
stay exact.  Renormalization after cancellation trusts the digits above the
cancelled range, so precision N should be chosen with headroom over the
valuations one intends to read off.
"""

from __future__ import annotations

from fractions import Fraction


class _Infinity:
    """Singleton marker for infinite valuation."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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


def prime_power_split(q: int):
    """q = p^f with p prime; returns (p, f) or raises ValueError."""
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    p = next(c for c in range(2, q + 1) if q % c == 0)
    f = vp(q, p)
    if p ** f != q:
        raise ValueError(f"{q} is not a prime power")
    return p, f


class Val:
    """A valuation value: an exact rational or INF.

    Supports addition (INF absorbs), scaling by positive rationals,
    and total-order comparisons with INF as the maximum.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, Val):
            value = value.value
        if value is INF:
            self.value = INF
        else:
            self.value = Fraction(value)

    @property
    def is_inf(self) -> bool:
        return self.value is INF

    def as_fraction(self) -> Fraction:
        if self.is_inf:
            raise ValueError("infinite valuation has no rational value")
        return self.value

    def __add__(self, other) -> "Val":
        other = other if isinstance(other, Val) else Val(other)
        if self.is_inf or other.is_inf:
            return Val(INF)
        return Val(self.value + other.value)

    __radd__ = __add__

    def scale(self, c) -> "Val":
        """Multiply by a positive rational constant (INF stays INF)."""
        c = Fraction(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        if self.is_inf:
            return Val(INF)
        return Val(self.value * c)

    def _cmp_key(self):
        # (1, 0) dominates every (0, finite)
        return (1, Fraction(0)) if self.is_inf else (0, self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Val, Fraction, int)) and other is not INF:
            return NotImplemented
        other = other if isinstance(other, Val) else Val(other)
        return self._cmp_key() == other._cmp_key()

    def __lt__(self, other) -> bool:
        other = other if isinstance(other, Val) else Val(other)
        return self._cmp_key() < other._cmp_key()

    def __le__(self, other) -> bool:
        other = other if isinstance(other, Val) else Val(other)
        return self._cmp_key() <= other._cmp_key()

    def __gt__(self, other) -> bool:
        other = other if isinstance(other, Val) else Val(other)
        return other < self

    def __ge__(self, other) -> bool:
        other = other if isinstance(other, Val) else Val(other)
        return other <= self

    def __hash__(self):
        return hash(self._cmp_key())

    def __repr__(self) -> str:
        return "inf" if self.is_inf else str(self.value)

    def json_obj(self):
        """CLI encoding: {"num": a, "den": b} or {"inf": true}."""
        if self.is_inf:
            return {"inf": True}
        return {"num": self.value.numerator, "den": self.value.denominator}


def parse_val(text: str) -> Val:
    """Parse 'a/b', 'a', or 'inf' into a Val."""
    text = text.strip()
    if text.lower() == "inf":
        return Val(INF)
    return Val(Fraction(text))


class RamifiedRing:
    """O_F for F = Q_p(u), u^m = p, truncated at precision p^N.

    Elements carry m*N digits; arithmetic is exact modulo p^N.  Rings with
    equal (p, m, N) compare equal and their elements interoperate.
    """

    __slots__ = ("p", "m", "N", "ndigits")

    def __init__(self, p: int, m: int = 1, N: int = 20):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1 or N < 1:
            raise ValueError("need ramification m >= 1 and precision N >= 1")
        self.p = p
        self.m = m
        self.N = N
        self.ndigits = m * N

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
        digits = tuple(int(d) for d in digits)
        if len(digits) > self.ndigits:
            digits = digits[: self.ndigits]
        if len(digits) < self.ndigits:
            digits = digits + (0,) * (self.ndigits - len(digits))
        if any(d < 0 or d >= self.p for d in digits):
            raise ValueError("digits out of range")
        return RamifiedElement(self, digits)

    def zero(self) -> "RamifiedElement":
        return RamifiedElement(self, (0,) * self.ndigits)

    def one(self) -> "RamifiedElement":
        return self.from_int(1)

    def from_int(self, a: int) -> "RamifiedElement":
        """Base-p expansion of a mod p^N into digit slots 0, m, 2m, ..."""
        a %= self.p ** self.N
        digits = [0] * self.ndigits
        for j in range(self.N):
            a, digits[j * self.m] = divmod(a, self.p)[0], a % self.p
        return RamifiedElement(self, tuple(digits))

    def from_rational(self, x) -> "RamifiedElement":
        x = Fraction(x)
        num, den = x.numerator, x.denominator
        if den % self.p == 0:
            raise ValueError("denominator not prime to p; use LaurentCoeff")
        inv = pow(den, -1, self.p ** self.N)
        return self.from_int(num * inv)

    def uniformizer(self, k: int = 1) -> "RamifiedElement":
        """u^k for 0 <= k; zero once k reaches the digit length."""
        if k < 0:
            raise ValueError("negative uniformizer powers live in LaurentCoeff")
        digits = [0] * self.ndigits
        if k < self.ndigits:
            digits[k] = 1
        return RamifiedElement(self, tuple(digits))

    def reduce_ring(self, N2: int) -> "RamifiedRing":
        if N2 > self.N or N2 < 1:
            raise ValueError("can only reduce to 1 <= N' <= N")
        return RamifiedRing(self.p, self.m, N2)


class RamifiedElement:
    """Digit vector in a RamifiedRing.  Immutable; arithmetic via operators."""

    __slots__ = ("ring", "digits")

    def __init__(self, ring: RamifiedRing, digits: tuple):
        self.ring = ring
        self.digits = digits

    def _check(self, other) -> "RamifiedElement":
        if not isinstance(other, RamifiedElement):
            raise TypeError("expected a RamifiedElement")
        if other.ring != self.ring:
            raise ValueError("elements from different rings (p, m, N must match)")
        return other

    @property
    def is_zero(self) -> bool:
        return all(d == 0 for d in self.digits)

    @property
    def below_precision(self) -> bool:
        """True when the element is indistinguishable from 0 at precision N."""
        return self.is_zero

    def valuation(self) -> Val:
        for k, d in enumerate(self.digits):
            if d:
                return Val(Fraction(k, self.ring.m))
        return Val(INF)

    def valuation_report(self):
        """(valuation, below_precision flag)."""
        v = self.valuation()
        return v, v.is_inf

    def _carry(self, work) -> "RamifiedElement":
        # u^m = p exactly: overflow in slot k moves to slot k+m
        R = self.ring
        n = len(work)
        for k in range(n):
            c, work[k] = divmod(work[k], R.p)
            if c and k + R.m < n:
                work[k + R.m] += c
        return RamifiedElement(R, tuple(work[: R.ndigits]))

    def __add__(self, other) -> "RamifiedElement":
        other = self._check(other)
        work = [a + b for a, b in zip(self.digits, other.digits)] + [0] * self.ring.m
        return self._carry(work)

    def __neg__(self) -> "RamifiedElement":
        work = [-d for d in self.digits] + [0] * self.ring.m
        return self._carry(work)

    def __sub__(self, other) -> "RamifiedElement":
        other = self._check(other)
        work = [a - b for a, b in zip(self.digits, other.digits)] + [0] * self.ring.m
        return self._carry(work)

    def __mul__(self, other) -> "RamifiedElement":
        other = self._check(other)
        n = self.ring.ndigits
        work = [0] * (2 * n + self.ring.m)
        for i, a in enumerate(self.digits):
            if a:
                for j, b in enumerate(other.digits):
                    if b and i + j < n:
                        work[i + j] += a * b
        return self._carry(work)

    def __pow__(self, e: int) -> "RamifiedElement":
        if e < 0:
            raise ValueError("negative powers: use inverse() on a unit")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "RamifiedElement":
        """Unit inverse by Newton iteration b <- b(2 - ab); needs v(a) = 0."""
        if self.digits and self.digits[0] == 0:
            raise ValueError("not a unit: valuation is positive (or infinite)")
        R = self.ring
        b = R.from_int(pow(self.digits[0], -1, R.p))
        two = R.from_int(2)
        one = R.one()
        for _ in range(R.ndigits.bit_length() + 2):
            if (self * b) == one:
                return b
            b = b * (two - self * b)
        if (self * b) == one:
            return b
        raise ArithmeticError("inverse iteration failed to converge")

    def reduce(self, N2: int) -> "RamifiedElement":
        R2 = self.ring.reduce_ring(N2)
        return RamifiedElement(R2, self.digits[: R2.ndigits])

    def shift_up(self, k: int) -> "RamifiedElement":
        """Multiply by u^k (k >= 0); digits past precision fall off."""
        if k < 0:
            raise ValueError("shift_up needs k >= 0")
        n = self.ring.ndigits
        digits = (0,) * min(k, n) + self.digits[: max(n - k, 0)]
        return RamifiedElement(self.ring, digits[:n])

    def shift_down_exact(self, k: int) -> "RamifiedElement":
        """Divide by u^k; the k lowest digits must vanish (exact division)."""
        if k < 0:
            raise ValueError("shift_down_exact needs k >= 0")
        if any(self.digits[:k]):
            raise ValueError("inexact division by u^k")
        digits = self.digits[k:] + (0,) * k
        return RamifiedElement(self.ring, digits)

    def integer_lift(self) -> int:
        """For m = 1: the canonical integer representative in [0, p^N)."""
        if self.ring.m != 1:
            raise ValueError("integer_lift is only defined for unramified rings")
        return sum(d * self.ring.p ** k for k, d in enumerate(self.digits))

    def embed(self, target: RamifiedRing) -> "RamifiedElement":
        """Embed an m = 1 element into a ring with the same p.

        The target precision must not exceed the source precision, since the
        source carries no information past p^N.
        """
        if self.ring.m != 1:
            raise ValueError("embed starts from an unramified element")
        if target.p != self.ring.p:
            raise ValueError("embedding requires equal residue characteristic")
        if target.N > self.ring.N:
            raise ValueError("target precision exceeds source precision")
        return target.from_int(self.integer_lift())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RamifiedElement)
            and self.ring == other.ring
            and self.digits == other.digits
        )

    def __hash__(self):
        return hash((self.ring, self.digits))

    def __repr__(self) -> str:
        R = self.ring
        terms = []
        for k, d in enumerate(self.digits):
            if d == 0:
                continue
            if k == 0:
                terms.append(str(d))
            else:
                base = "p" if R.m == 1 else "u"
                exp = k if R.m == 1 else k
                coef = "" if d == 1 else f"{d}*"
                terms.append(f"{coef}{base}^{exp}" if exp != 1 else f"{coef}{base}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} | p={R.p}, m={R.m}, N={R.N}>"

    def digit_string(self) -> str:
        """Canonical comma-joined digit list with trailing zeros stripped."""
        digits = list(self.digits)
        while digits and digits[-1] == 0:
            digits.pop()
        return ",".join(str(d) for d in digits)


def valuation_of(a: RamifiedElement) -> Val:
    """Module-level alias: v(a), INF for the zero vector."""
    return a.valuation()


class LaurentCoeff:
    """unit * pi^e with v(unit) in [0, 1/m) (zero has canonical e = 0).

    This is the coefficient type for truncated series: negative pi powers
    are bookkept in `pi_exp`, never by widening digit vectors.  Addition
    aligns at the smaller exponent; renormalization pulls full pi powers
    out of the unit part.  Over unramified rings (m = 1) the unit part of
    a nonzero coefficient always has valuation exactly 0.
    """

    __slots__ = ("unit", "pi_exp")

    def __init__(self, unit: RamifiedElement, pi_exp: int = 0):
        if unit.is_zero:
            self.unit = unit
            self.pi_exp = 0
            return
        k = next(i for i, d in enumerate(unit.digits) if d)
        t = k // unit.ring.m
        if t:
            unit = unit.shift_down_exact(t * unit.ring.m)
            pi_exp += t
        self.unit = unit
        self.pi_exp = pi_exp

    @classmethod
    def zero(cls, ring: RamifiedRing) -> "LaurentCoeff":
        return cls(ring.zero())

    @classmethod
    def one(cls, ring: RamifiedRing) -> "LaurentCoeff":
        return cls(ring.one())

    @classmethod
    def pi_power(cls, ring: RamifiedRing, e: int) -> "LaurentCoeff":
        return cls(ring.one(), e)

    @classmethod
    def from_int(cls, ring: RamifiedRing, a: int, pi_exp: int = 0) -> "LaurentCoeff":
        return cls(ring.from_int(a), pi_exp)

    @property
    def ring(self) -> RamifiedRing:
        return self.unit.ring

    @property
    def is_zero(self) -> bool:
        return self.unit.is_zero

    @property
    def below_precision(self) -> bool:
        return self.unit.is_zero

    def valuation(self) -> Val:
        if self.is_zero:
            return Val(INF)
        return Val(self.pi_exp) + self.unit.valuation()

    def _align(self, other):
        e = min(self.pi_exp, other.pi_exp)
        m = self.ring.m
        a = self.unit.shift_up((self.pi_exp - e) * m)
        b = other.unit.shift_up((other.pi_exp - e) * m)
        return a, b, e

    def __add__(self, other) -> "LaurentCoeff":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a, b, e = self._align(other)
        return LaurentCoeff(a + b, e)

    def __neg__(self) -> "LaurentCoeff":
        return LaurentCoeff(-self.unit, self.pi_exp)

    def __sub__(self, other) -> "LaurentCoeff":
        return self + (-other)

    def __mul__(self, other) -> "LaurentCoeff":
        if self.is_zero or other.is_zero:
            return LaurentCoeff.zero(self.ring)
        return LaurentCoeff(self.unit * other.unit, self.pi_exp + other.pi_exp)

    def inverse(self) -> "LaurentCoeff":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero coefficient")
        return LaurentCoeff(self.unit.inverse(), -self.pi_exp)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentCoeff)
            and self.unit == other.unit
            and self.pi_exp == other.pi_exp
        )

    def __hash__(self):
        return hash((self.unit, self.pi_exp))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        if self.pi_exp == 0:
            return repr(self.unit)
        return f"pi^{self.pi_exp} * {self.unit!r}"

    def json_obj(self):
        return {"pi_exp": self.pi_exp, "digits": self.unit.digit_string()}
