"""Period coordinates of the universal deformation, by displays.

The display of the universal deformation over the (n-1)-variable coordinate
patch has a structure matrix A with first row (x_1, pi x_2, ..., pi x_{n-1},
pi), ones/pi on the subdiagonal, and zeros elsewhere; A = C B factors it
through the constant matrix B (A at x = 0) and the unipotent C.  Iterating
the crystalline Frobenius produces a tuple f = (f_0, ..., f_{n-1}) of
truncated series, the projective period coordinates.

Two independent computations are provided: the one-row recurrence
(period_series) and the full matrix product e_0 . A A^(sigma) ...
A^(sigma^(k-1)) B^(-k) (period_series_product).  They must agree exactly.

All series arithmetic is eagerly truncated: at depth k the cap is q^k, and
every statement of the form "equals ... mod x^(q^k)" is an exact statement
about truncated objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

from .series import SeriesMatrix, TruncSeries
from .valuations import INF, LaurentCoeff, RamifiedRing, Val, prime_power_split


SERIES_TERM_BUDGET = 100_000  # the most terms a period tuple may hold
CF2_MAX_DEPTH = 6  # cf2_convention reruns the recurrence at twice the depth
CF2_CAP_BUDGET = 2 ** 20  # the most exponents q^depth the cf2 quotient series may span


def _check_shape(n: int, depth: int = 0) -> None:
    if n < 2 or depth < 0:
        raise ValueError("need n >= 2 and depth >= 0")


def check_budget(n: int, q: int, depth: int, cf2: bool = False) -> None:
    """Refuse, before any series work, a period tuple that may hold more than
    SERIES_TERM_BUDGET terms, and with cf2 a depth above CF2_MAX_DEPTH or a
    cap q^depth above CF2_CAP_BUDGET.

    Step k of the recurrence adds f_(k mod n) to every other component, so
    the term counts follow that update when nothing cancels (an n-step
    Fibonacci count, the same for every q).  The bound counts one slot per
    component plus the terms each step adds; it grows by at least n - 1 per
    step, so the count stops within the budget.
    """
    _check_shape(n, depth)
    total = n
    if total <= SERIES_TERM_BUDGET:
        sizes = [1] + [0] * (n - 1)
        for k in range(depth):
            b = k % n
            total += (n - 1) * sizes[b]
            if total > SERIES_TERM_BUDGET:
                break
            sizes = [s + sizes[b] if i != b else s for i, s in enumerate(sizes)]
    if total > SERIES_TERM_BUDGET:
        raise ValueError(f"periods at n = {n}, depth = {depth} may hold more than "
                         f"{SERIES_TERM_BUDGET} series terms")
    if cf2 and (depth > CF2_MAX_DEPTH or q ** depth > CF2_CAP_BUDGET):
        raise ValueError(f"--cf2 needs depth <= {CF2_MAX_DEPTH} and q^depth <= "
                         f"{CF2_CAP_BUDGET}, got depth = {depth} and q = {q}")


def _ring_for(ring: RamifiedRing | None, q: int) -> RamifiedRing:
    """ring, checked against the prime dividing q; by default the unramified
    ring at that prime to 16 digits (pi = p at desk scale)."""
    p, _ = prime_power_split(q)
    if ring is None:
        return RamifiedRing(p, 1, 16)
    if ring.p != p:
        raise ValueError(f"q = {q} is not a power of the ring prime {ring.p}")
    return ring


def display_matrix(n: int, cap: int, ring: RamifiedRing) -> SeriesMatrix:
    """Structure matrix A of the display, its series capped at x^cap."""
    _check_shape(n)
    nv = n - 1
    zero = TruncSeries.zero(ring, nv, cap)
    one = TruncSeries.one(ring, nv, cap)
    pi = TruncSeries.const(ring, nv, cap, LaurentCoeff.pi_power(ring, 1))

    def x(i):
        return TruncSeries.variable(ring, nv, cap, i)

    A = [[zero for _ in range(n)] for _ in range(n)]
    A[0][0] = x(1)
    for j in range(1, n - 1):
        A[0][j] = pi * x(j + 1)
    A[0][n - 1] = pi
    A[1][0] = one
    for i in range(2, n):
        A[i][i - 1] = pi
    return SeriesMatrix(A)


def b_inverse(n: int, cap: int, ring: RamifiedRing) -> SeriesMatrix:
    """Exact inverse of the constant matrix B (Laurent coefficients in pi)."""
    nv = n - 1
    zero = TruncSeries.zero(ring, nv, cap)
    one = TruncSeries.one(ring, nv, cap)
    pinv = TruncSeries.const(ring, nv, cap, LaurentCoeff.pi_power(ring, -1))
    M = [[zero for _ in range(n)] for _ in range(n)]
    M[0][1] = one
    for j in range(1, n - 1):
        M[j][j + 1] = pinv
    M[n - 1][0] = pinv
    return SeriesMatrix(M)


@dataclass(frozen=True)
class PeriodTuple:
    n: int
    q: int
    depth: int
    cap: int
    f: tuple

    def to_json_dict(self):
        return {
            "n": self.n,
            "q": self.q,
            "depth": self.depth,
            "cap": self.cap,
            "f": [s.to_json_dict() for s in self.f],
        }


def period_series(n: int, q: int, depth: int, ring: RamifiedRing | None = None) -> PeriodTuple:
    """Period tuple by the one-row recurrence.

    Step k (b = k mod n) right-multiplies the row by B^b C^(sigma^k) B^(-b),
    which in coordinates is a single rank-one update driven by f_b:
    f_i += x_t^(q^k) pi^alpha f_b for i != b, with t = (i - b) mod n and
    alpha = -1 unless b = 0 or 1 <= i < b.
    """
    _check_shape(n, depth)
    ring = _ring_for(ring, q)
    cap = max(q ** depth, 1)
    nv = n - 1
    f = [TruncSeries.one(ring, nv, cap)] + [
        TruncSeries.zero(ring, nv, cap) for _ in range(n - 1)
    ]
    for k in range(depth):
        b = k % n
        e = q ** k

        def xpow(t):
            exps = tuple(e if s == t - 1 else 0 for s in range(nv))
            return TruncSeries.monomial(ring, nv, cap, exps, LaurentCoeff.one(ring))

        fb = f[b]
        for i in range(n):
            if i != b:
                term = xpow((i - b) % n) * fb
                f[i] = f[i] + (term if b == 0 or 1 <= i < b else term.mul_pi_power(-1))
    return PeriodTuple(n, q, depth, cap, tuple(f))


def period_series_product(n: int, q: int, depth: int) -> PeriodTuple:
    """Oracle: first row of A A^(sigma) ... A^(sigma^(depth-1)) B^(-depth)."""
    _check_shape(n, depth)
    ring = _ring_for(None, q)
    cap = max(q ** depth, 1)
    A = display_matrix(n, cap, ring)
    one, zero = TruncSeries.one(ring, n - 1, cap), TruncSeries.zero(ring, n - 1, cap)
    M = SeriesMatrix([[one] + [zero] * (n - 1)])
    for j in range(depth):
        M = M * A.frobenius_twist(q, j)
    if depth:
        # B^(-depth) as a constant matrix first: one row product, not depth of them
        M = M * reduce(mul, [b_inverse(n, cap, ring)] * depth)
    return PeriodTuple(n, q, depth, cap, tuple(M.entries[0]))


# ---------------------------------------------------------------------
# n = 2 continued fraction
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class CF2Value:
    """A univariate Laurent value: series * x^x_exp, series cap-truncated."""

    series: TruncSeries
    x_exp: int


def _convergent(q: int, depth: int, cap: int, ring: RamifiedRing):
    """Numerator and denominator (h, k) of the stage-`depth` convergent.

    Entries x^(q^j), j = 2*depth down to 0, divided by pi for even j, enter
    the convergent recurrence outermost first; arithmetic is cap-truncated,
    so the outermost entries vanish once their exponent reaches the cap.
    """
    one = TruncSeries.one(ring, 1, cap)
    zero = TruncSeries.zero(ring, 1, cap)
    h_prev, h = one, zero          # h_{-1} = 1, h_0 = 0 (leading term is 1/(a_1+...))
    k_prev, k = zero, one          # k_{-1} = 0, k_0 = 1
    for j in range(2 * depth, -1, -1):
        coeff = LaurentCoeff.pi_power(ring, -1 if j % 2 == 0 else 0)
        a = TruncSeries.monomial(ring, 1, cap, (q ** j,), coeff)
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return h, k


def period_cf2(q: int, depth: int, cap: int | None = None,
               ring: RamifiedRing | None = None) -> CF2Value:
    """n = 2 period coordinate as a continued fraction.

    The convergent h/k of `_convergent`, with k = x^d * unit divided out
    as h * unit^(-1) * x^(-d); it agrees with pi f_0 / f_1 computed from
    period_series at the same cap.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ring = _ring_for(ring, q)
    full = q ** (2 * depth)
    cap = cap if cap is not None else full
    if cap > full:
        raise ValueError("depth too small for requested cap")
    if depth == 0:
        # the stage-0 convergent is pi/x exactly; a cap of q^0 = 1 cannot
        # hold the monomial x in a denominator, so return it directly
        series = TruncSeries.const(ring, 1, cap, LaurentCoeff.pi_power(ring, 1))
        return CF2Value(series, -1)
    h, k = _convergent(q, depth, cap, ring)
    if k.is_zero:
        raise ValueError("denominator vanished at this cap; increase cap or depth")
    d = min(exps[0] for exps in k.coeffs)
    unit = TruncSeries(ring, 1, cap, {(e[0] - d,): c for e, c in k.coeffs.items()})
    return CF2Value(h * unit.inverse(), -d)


def cf2_convention(q: int, depth: int) -> str:
    """Which normalization of the period ratio the continued fraction computes.

    Cross-multiplies the convergent h/k against pi*f_0/f_1 and f_1/f_0 from
    period_series at twice the depth (cap q^(2 depth)) and returns the label
    of the match.
    """
    if depth < 1:
        raise ValueError("convention check needs depth >= 1")
    ring = _ring_for(None, q)
    h, k, pt = _guarded_cf2(q, depth, 2 * depth, ring)
    f0, f1 = pt.f
    if _cf2_matches(h, k, f0.mul_pi_power(1), f1, ring.N):
        return "pi*f0/f1"
    if _cf2_matches(h, k, f1, f0, ring.N):
        return "f1/f0"
    raise ArithmeticError("continued fraction matches neither candidate ratio")


def _pi_span(*series_list) -> int:
    lows = [
        c.pi_exp
        for s in series_list
        for c in s.coeffs.values()
        if not c.is_zero
    ]
    return -min(0, min(lows, default=0))


def _agree_to(a: TruncSeries, b: TruncSeries, bound: int) -> bool:
    diff = a - b
    return all(
        c.is_zero or c.valuation() >= bound for c in diff.coeffs.values()
    )


def _cf2_matches(h: TruncSeries, k: TruncSeries, num: TruncSeries, den: TruncSeries,
                 N: int) -> bool:
    """h/k = num/den, checked without dividing: h * den equals num * k at
    every coefficient to valuation >= N."""
    return _agree_to(h * den, num * k, N)


def _guarded_cf2(q, depth, pt_depth, ring):
    """Convergent (h, k) and period tuple at depth pt_depth, with guard digits.

    Coefficients live in a fixed window of ring.N digits above their pi
    exponent; adding terms whose pi exponents differ erodes the top of the
    window, so the products h * f_1 and f_0 * k need headroom of twice the
    worst pi-exponent span of their factors.  That span is at most `depth`:
    every pi^(-1) in h and k comes from an entry x^(q^j) with j even, of
    which at most `depth` stay below the cap, and every pi^(-1) in f_0 and
    f_1 comes with an odd recurrence step.  So 2 * depth + 4 guard digits
    suffice, and a larger span raises.
    """
    guard_digits = 2 * depth + 4
    guard = RamifiedRing(ring.p, ring.m, ring.N + guard_digits)
    pt = period_series(2, q, pt_depth, ring=guard)
    h, k = _convergent(q, depth, pt.cap, guard)
    if 2 * _pi_span(h, k, *pt.f) + 4 > guard_digits:
        raise RuntimeError("pi-exponent span exceeds the cf2 guard digits")
    return h, k, pt


def cf2_cross_check(q: int, depth: int) -> bool:
    """h * f_1 = pi * f_0 * k for the convergent h/k, to the ring's precision.

    Both sides are evaluated at cap q^depth with the guard digits of
    `_guarded_cf2`, and must agree at each coefficient to valuation >= ring.N.
    """
    if depth < 1:
        raise ValueError("cross check needs depth >= 1")
    ring = _ring_for(None, q)
    h, k, pt = _guarded_cf2(q, depth, depth, ring)
    return _cf2_matches(h, k, pt.f[0].mul_pi_power(1), pt.f[1], ring.N)


# ---------------------------------------------------------------------
# evaluation at exact points
# ---------------------------------------------------------------------

def _power_table(c, exponents) -> dict:
    """{e: c^e} for each e in exponents (all positive), plus the gaps it used.

    Walks the exponents in sorted order: each power is the previous one
    times c^gap, and a gap power is computed (by `**`) only when no earlier
    power has that exponent (Knuth, TAOCP vol. 2, section 4.6.3).
    """
    powers, prev = {}, 0
    for e in sorted(exponents):
        gap = e - prev
        if gap not in powers:
            powers[gap] = c ** gap
        powers[e] = powers[prev] * powers[gap] if prev else powers[gap]
        prev = e
    return powers


def evaluate_periods(pt: PeriodTuple, coords, point_ring: RamifiedRing):
    """Substitute exact coordinates into each f_i.

    coords: one RamifiedElement of point_ring per variable x_1..x_{n-1}.
    Returns a list of (Val or INF, zero-to-precision flag) pairs.  The
    common power pi^(e_min) of each component is pulled out exactly, so a
    finite answer is exact; an all-zero digit sum reports (INF, True) rather
    than lying.
    Each coordinate's powers are computed once per call, one per distinct
    positive exponent the period tuple uses (`_power_table`); every term
    then multiplies by table entries.
    """
    coords = list(coords)
    if len(coords) != pt.n - 1:
        raise ValueError("need one coordinate per variable")
    for c in coords:
        if c.ring != point_ring:
            raise ValueError("coordinates must live in point_ring")
    tables = [_power_table(c, {exps[i] for comp in pt.f for exps in comp.coeffs} - {0})
              for i, c in enumerate(coords)]
    out = []
    for comp in pt.f:
        if comp.is_zero:
            out.append((INF, True))
            continue
        e_min = comp.min_pi_exponent()
        total = point_ring.zero()
        for exps, coeff in comp.coeffs.items():
            term = coeff.unit.embed(point_ring)
            term = term.shift_up(point_ring.m * (coeff.pi_exp - e_min))
            for table, e in zip(tables, exps):
                if e:
                    term = term * table[e]
            total = total + term
        v = total.valuation()
        out.append((Val(e_min) + v, v is INF))
    return out
