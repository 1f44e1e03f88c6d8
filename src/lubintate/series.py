"""Sparse truncated multivariate series over Laurent p-adic coefficients.

A TruncSeries in variables x_1, ..., x_nvars keeps only monomials whose
exponent vector is < cap in EVERY coordinate; everything past the cap is
dropped eagerly during arithmetic, so products of truncated series agree
with truncations of full products.  Coefficients are LaurentCoeff values,
a unit int mod p^N and a power of pi, over one unramified RamifiedRing.
Zero coefficients are never stored.
"""

from __future__ import annotations

from itertools import chain
from operator import add, sub

from .valuations import LaurentCoeff, RamifiedRing, sum_terms


class TruncSeries:
    __slots__ = ("ring", "nvars", "cap", "coeffs")

    def __init__(self, ring: RamifiedRing, nvars: int, cap: int, coeffs=None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.ring = ring
        self.nvars = nvars
        self.cap = cap
        terms = []
        for exps, c in (coeffs or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError("exponent vector has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponents are not supported")
            if max(exps) < cap:
                terms.append((exps, c))
        self.coeffs = sum_terms(terms)

    @classmethod
    def _clean(cls, ring, nvars, cap, coeffs) -> "TruncSeries":
        """Wrap coeffs that already satisfy the invariants, without re-checking."""
        out = object.__new__(cls)
        out.ring, out.nvars, out.cap, out.coeffs = ring, nvars, cap, coeffs
        return out

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars, cap) -> "TruncSeries":
        return cls(ring, nvars, cap, {})

    @classmethod
    def one(cls, ring, nvars, cap) -> "TruncSeries":
        return cls(ring, nvars, cap, {(0,) * nvars: LaurentCoeff.one(ring)})

    @classmethod
    def const(cls, ring, nvars, cap, coeff: LaurentCoeff) -> "TruncSeries":
        return cls(ring, nvars, cap, {(0,) * nvars: coeff})

    @classmethod
    def monomial(cls, ring, nvars, cap, exps, coeff: LaurentCoeff) -> "TruncSeries":
        return cls(ring, nvars, cap, {tuple(exps): coeff})

    @classmethod
    def variable(cls, ring, nvars, cap, i: int) -> "TruncSeries":
        """The series x_i, with variables numbered 1..nvars."""
        if not 1 <= i <= nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls.monomial(ring, nvars, cap, exps, LaurentCoeff.one(ring))

    # ---- structure ----------------------------------------------------

    def _compat(self, other: "TruncSeries"):
        if (
            self.ring != other.ring
            or self.nvars != other.nvars
            or self.cap != other.cap
        ):
            raise ValueError("series shapes differ (ring, nvars, cap must match)")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def min_pi_exponent(self):
        """Smallest pi_exponent over stored coefficients; None when zero."""
        if not self.coeffs:
            return None
        return min(c.pi_exp for c in self.coeffs.values())

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._compat(other)
        out = sum_terms(chain(self.coeffs.items(), other.coeffs.items()))
        return TruncSeries._clean(self.ring, self.nvars, self.cap, out)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries._clean(
            self.ring, self.nvars, self.cap,
            {e: -c for e, c in self.coeffs.items()},
        )

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._compat(other)
        cap = self.cap
        out = sum_terms(
            (exps, ca * cb)
            for ea, ca in self.coeffs.items()
            for eb, cb in other.coeffs.items()
            if max(exps := tuple(map(add, ea, eb))) < cap
        )
        return TruncSeries._clean(self.ring, self.nvars, self.cap, out)

    def scale(self, coeff: LaurentCoeff) -> "TruncSeries":
        out = {e: c * coeff for e, c in self.coeffs.items()} if coeff else {}
        return TruncSeries._clean(self.ring, self.nvars, self.cap, out)

    def mul_pi_power(self, e: int) -> "TruncSeries":
        return self.scale(LaurentCoeff.pi_power(self.ring, e))

    def inverse(self) -> "TruncSeries":
        """Inverse by the coefficient recurrence of power-series division.

        With c the constant term (it must be invertible) and h = self - c,
        g_0 = 1/c and g_a = -(1/c) * sum over b in supp(h), b <= a, of
        h_b * g_(a-b), for every exponent a != 0 that sums of supp(h) reach
        below the cap, taken in order of total degree (Knuth, TAOCP vol. 2,
        section 4.7).  The cost is (#terms of h) x (#terms of the result).
        """
        zero = (0,) * self.nvars
        c = self.coeffs.get(zero)
        if c is None:
            raise ValueError("constant term is zero (not invertible at this cap)")
        cinv = c.inverse()
        neg_cinv = -cinv
        h = [(b, hb) for b, hb in self.coeffs.items() if b != zero]
        cap = self.cap
        # the exponents that sums of supp(h) reach below the cap
        reach, frontier = set(), [zero]
        while frontier:
            grown = []
            for a in frontier:
                for b, _ in h:
                    s = tuple(map(add, a, b))
                    if max(s) < cap and s not in reach:
                        reach.add(s)
                        grown.append(s)
            frontier = grown
        out = {zero: cinv}
        for a in sorted(reach, key=sum):
            acc = LaurentCoeff.zero(self.ring)
            for b, hb in h:
                prev = out.get(tuple(map(sub, a, b)))
                if prev is not None:
                    acc = acc + hb * prev
            if g := neg_cinv * acc:
                out[a] = g
        return TruncSeries._clean(self.ring, self.nvars, cap, out)

    # ---- twists and export ---------------------------------------------

    def frobenius_twist(self, q: int, i: int = 1) -> "TruncSeries":
        """Substitute x_k -> x_k^(q^i); monomials pushed past cap vanish."""
        if i < 0:
            raise ValueError("twist power must be >= 0")
        s = q ** i
        out = sum_terms(
            (new, c)
            for exps, c in self.coeffs.items()
            if max(new := tuple(e * s for e in exps)) < self.cap
        )
        return TruncSeries._clean(self.ring, self.nvars, self.cap, out)

    def to_json_dict(self):
        terms = [{"exps": list(exps), **self.coeffs[exps].json_obj()}
                 for exps in sorted(self.coeffs)]
        return {"nvars": self.nvars, "cap": self.cap, "terms": terms}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.ring == other.ring
            and self.nvars == other.nvars
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.nvars, self.cap, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exps in sorted(self.coeffs):
            c = self.coeffs[exps]
            mono = "*".join(
                f"x{k+1}^{e}" if e != 1 else f"x{k+1}"
                for k, e in enumerate(exps)
                if e
            )
            if c.pi_exp == 0 and c.unit == 1:
                parts.append(mono or "1")
            else:
                parts.append(f"({c!r})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


class SeriesMatrix:
    """Rectangular matrix of TruncSeries sharing one (ring, nvars, cap)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        if self.rows == 0:
            raise ValueError("empty matrix")
        self.cols = len(self.entries[0])
        first = self.entries[0][0]
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for s in row:
                first._compat(s)

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        first = self.entries[0][0]
        shape = (first.ring, first.nvars, first.cap)

        def entry(row, j):
            # a_1 b_1 + a_2 b_2 + ... left to right per exponent: LaurentCoeff
            # addition is not associative bit for bit under cancellation;
            # a pair with a zero entry adds no term, so it is skipped
            products = (a * b for a, col in zip(row, other.entries)
                        if a.coeffs and (b := col[j]).coeffs)
            return TruncSeries._clean(
                *shape, sum_terms(chain.from_iterable(t.coeffs.items() for t in products)))

        return SeriesMatrix([[entry(row, j) for j in range(other.cols)] for row in self.entries])

    def frobenius_twist(self, q: int, i: int = 1) -> "SeriesMatrix":
        return SeriesMatrix(
            [[s.frobenius_twist(q, i) for s in row] for row in self.entries]
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesMatrix)
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        body = ",\n ".join("[" + ", ".join(repr(s) for s in row) + "]" for row in self.entries)
        return f"SeriesMatrix(\n {body})"

