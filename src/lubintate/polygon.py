"""Newton polygons of pi-divisible modules of height n.

A polygon here is the valuation profile of the pi-torsion of a height-n
module: slopes lambda_1 >= ... >= lambda_n > 0, slope lambda_j spanning the
abscissas q^(j-1)..q^j, total mass sum (q^j - q^(j-1)) lambda_j = 1.  From
coordinate valuations it arises as the lower convex hull of (1, 1), the
finite points (q^i, v(x_i)), and (q^n, 0); the convention v(x_0) = v(pi) = 1
anchors the left end.

Two distinguished loci:

  D ("good reduction of the canonical filtration"): every hull value at q^i
    is >= 1 - i/n, i.e. the polygon lies on or above the boundary polygon
    with vertices (q^i, 1 - i/n).
  H ("period map is injective on fibers"): lambda_1 / q^n < lambda_n.

Everything is exact Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import log10

from .valuations import INF, Val, frac_json, prime_power_split, sum_terms


class NewtonPolygon:
    __slots__ = ("n", "q", "slopes", "strata", "vertex_vals")

    def __init__(self, n: int, q: int, slopes):
        if n < 1:
            raise ValueError("need n >= 1")
        prime_power_split(q)
        slopes = tuple(s if isinstance(s, Fraction) else Fraction(s) for s in slopes)
        if len(slopes) != n:
            raise ValueError("need exactly n slopes")
        strata = tuple((s, q ** j - q ** (j - 1)) for j, s in enumerate(slopes, start=1))
        vv = [Fraction(1)]
        prev = None
        for s, width in strata:
            if s <= 0:
                raise ValueError("slopes must be positive")
            if prev is not None and s > prev:
                raise ValueError("slopes must be non-increasing")
            prev = s
            vv.append(vv[-1] - s * width)
        if vv[-1] != 0:
            # mass sum (q^j - q^(j-1)) lambda_j differs from 1 exactly when
            # the right end misses zero
            raise ValueError(f"total mass is {1 - vv[-1]}, not 1")
        self.n = n
        self.q = q
        self.slopes = slopes
        self.strata = strata
        self.vertex_vals = tuple(vv)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NewtonPolygon)
            and (self.n, self.q, self.slopes) == (other.n, other.q, other.slopes)
        )

    def __hash__(self):
        return hash((self.n, self.q, self.slopes))

    def __repr__(self) -> str:
        body = ", ".join(str(s) for s in self.slopes)
        return f"NewtonPolygon(n={self.n}, q={self.q}, slopes=({body}))"

    def to_json_dict(self):
        return {
            "n": self.n,
            "q": self.q,
            "slopes": [frac_json(s) for s in self.slopes],
            "vertex_vals": [frac_json(v) for v in self.vertex_vals],
            "in_D": in_gross_hopkins(self),
            "in_H": in_H(self),
            "boundary_indices": sorted(boundary_indices(self)),
        }


def profile(pairs):
    """Sum (value, multiplicity) pairs by value; sort by decreasing value."""
    return tuple(sorted(sum_terms(pairs).items(), reverse=True))


def _lower_hull(points):
    """Lower convex hull of x-sorted points; collinear interior points drop."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def polygon_from_vals(n: int, q: int, vals) -> NewtonPolygon:
    """Hull of (1,1), (q^i, v(x_i)) for finite entries, and (q^n, 0).

    vals has length n-1; INF entries contribute no point.  Each finite
    valuation must be positive, else the polygon degenerates (a unit
    coordinate forces a zero slope).
    """
    vals = [Val(v) for v in vals]
    if len(vals) != n - 1:
        raise ValueError("need n-1 coordinate valuations")
    if any(v <= 0 for v in vals):
        raise ValueError("coordinate valuations must be positive (unit ball interior)")
    # integer abscissas q^i, already x-sorted
    finite = [(q ** i, v) for i, v in enumerate(vals, start=1) if v is not INF]
    hull = _lower_hull([(1, Fraction(1)), *finite, (q ** n, Fraction(0))])

    # a hull segment from q^a to q^b carries the slope of blocks a + 1 .. b
    exponent = {q ** i: i for i in range(n + 1)}
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes += [(y1 - y2) / (x2 - x1)] * (exponent[x2] - exponent[x1])
    return NewtonPolygon(n, q, slopes)


def lambda_extremes(n: int, q: int, vals):
    """Closed forms for (lambda_1, lambda_n), bypassing the hull.

    lambda_1 = max over 1 <= i <= n of (1 - v(x_i)) / (q^i - 1),
    lambda_n = min over 0 <= j <= n-1 of v(x_j) / (q^n - q^j),
    with v(x_0) = 1 and v(x_n) = 0; INF entries drop out of both.  So H,
    where the period map is an isomorphism, is the inequality system
    (1 - v(x_i)) / (q^n (q^i - 1)) < v(x_j) / (q^n - q^j) over all such i, j.
    """
    vals = [Val(v) for v in vals]
    if len(vals) != n - 1:
        raise ValueError("need n-1 coordinate valuations")
    lam1 = [Fraction(1 - v, q ** i - 1)
            for i, v in enumerate([*vals, 0], start=1) if v is not INF]
    lamn = [Fraction(v, q ** n - q ** j) for j, v in enumerate([1, *vals]) if v is not INF]
    return max(lam1), min(lamn)


def in_gross_hopkins(poly: NewtonPolygon) -> bool:
    """Polygon lies on or above the boundary polygon (q^i, 1 - i/n)."""
    n = poly.n
    return all(poly.vertex_vals[i] >= Fraction(n - i, n) for i in range(n + 1))


def vals_in_gross_hopkins(n: int, vals) -> bool:
    """Coordinate form of the D condition: v(x_i) >= 1 - i/n for all i."""
    return all(Val(v) >= Fraction(n - i, n) for i, v in enumerate(vals, start=1))


def boundary_indices(poly: NewtonPolygon) -> frozenset:
    """Indices 1 <= i <= n-1 where the hull touches (q^i, 1 - i/n) exactly."""
    n = poly.n
    return frozenset(
        i for i in range(1, n) if poly.vertex_vals[i] == Fraction(n - i, n)
    )


def in_H(poly: NewtonPolygon) -> bool:
    return poly.slopes[0] < poly.slopes[-1] * poly.q ** poly.n


def cm_polygon(n: int, q: int, e: int) -> NewtonPolygon:
    """Polygon of the module with multiplication by the degree-n field with
    ramification e (e | n): e slope blocks of length f = n/e, block k having
    slope 1 / (e (q^((k+1)f) - q^(kf))).

    e = n gives the boundary polygon of D; e = 1 the single-slope polygon.
    """
    if e < 1 or n % e != 0:
        raise ValueError("e must divide n")
    f = n // e
    slopes = []
    for k in range(e):
        s = Fraction(1, e * (q ** ((k + 1) * f) - q ** (k * f)))
        slopes.extend([s] * f)
    return NewtonPolygon(n, q, slopes)


def gh_boundary_polygon(n: int, q: int) -> NewtonPolygon:
    """Vertices (q^i, 1 - i/n): the fully ramified CM polygon."""
    return cm_polygon(n, q, n)


# digits that one polygon, or `polygon --torsion k`, may print; n = 3, q = 2,
# k = 1000 (about 2.7e6 by the estimate of check_torsion_budget) printed 2.0 MB
TORSION_DIGIT_BUDGET = 10 ** 6


def check_polygon_budget(n: int, q: int, polygons: int = 1) -> None:
    """Refuse, before any polygon work, an (n, q) whose polygon, or whose
    `polygons` polygons together, would print more than about
    TORSION_DIGIT_BUDGET digits.

    Its n + 1 vertex values alone, with numerators and denominators up to
    q^n, print about 2 n^2 log10(q) digits.  `hecke reduce` prints one
    trail polygon per quotient, so the count also bounds n^2 times its quotients.
    """
    limit = TORSION_DIGIT_BUDGET / log10(q)
    if 2 * n ** 2 * polygons > limit:
        what = "a polygon" if 2 * n ** 2 > limit else f"{polygons} polygons"
        raise ValueError(f"{what} at n = {n}, q = {q} would print more than "
                         f"{TORSION_DIGIT_BUDGET} digits")


def check_torsion_budget(n: int, q: int, k: int) -> None:
    """Refuse, before any torsion work, a pi^k-torsion profile that would
    print more than about TORSION_DIGIT_BUDGET digits.

    Level m contributes n values and multiplicities of about n m log10(q)
    digits each, so the k levels print about (n k)^2 log10(q) digits.
    """
    if (n * k) ** 2 > TORSION_DIGIT_BUDGET / log10(q):
        raise ValueError(f"--torsion {k} at n = {n}, q = {q} would print more than "
                         f"{TORSION_DIGIT_BUDGET} digits")


def torsion_valuations(poly: NewtonPolygon, k: int):
    """Valuation profile of the pi^k-torsion for a polygon in H.

    Level m contributes values lambda_j / q^(n(m-1)) with multiplicity
    (q^j - q^(j-1)) q^(n(m-1)); in H the levels do not interleave, which is
    what makes this the full sorted profile.  Returns (Fraction, multiplicity)
    pairs sorted by decreasing value; total count q^(nk) - 1.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if not in_H(poly):
        raise ValueError("torsion profile formula requires the polygon in H")
    q, n = poly.q, poly.n
    return list(profile(
        (lam / scale, width * scale)
        for scale in (q ** (n * (m - 1)) for m in range(1, k + 1))
        for lam, width in poly.strata
    ))


# ---------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------

def render_ascii(poly: NewtonPolygon) -> str:
    """Character plot in log_q abscissa; '*' hull, '.' boundary polygon,
    '#' where they coincide."""
    bound = gh_boundary_polygon(poly.n, poly.q)
    width, height = 61, 21
    grid = [[" "] * width for _ in range(height)]

    def plot(p, ch):
        # vertices at integer log_q abscissas, straight segments between
        for col in range(width):
            t = Fraction(col * p.n, width - 1)
            lo = min(int(t), p.n - 1)
            frac = t - lo
            y = p.vertex_vals[lo] + (p.vertex_vals[lo + 1] - p.vertex_vals[lo]) * frac
            row = height - 1 - int(round(float(y) * (height - 1)))
            row = min(max(row, 0), height - 1)
            cur = grid[row][col]
            grid[row][col] = "#" if cur not in (" ", ch) else ch

    plot(bound, ".")
    plot(poly, "*")
    lines = ["".join(r).rstrip() for r in grid]
    header = f"hull (*) vs boundary polygon (.) ; n={poly.n} q={poly.q}"
    return "\n".join([header] + lines)


def render_svg(poly: NewtonPolygon) -> str:
    """Deterministic SVG: hull polyline with the boundary polygon overlay."""
    bound = gh_boundary_polygon(poly.n, poly.q)
    W, H, PAD = 440, 320, 40

    def px(i):
        return PAD + Fraction(i * (W - 2 * PAD), poly.n)

    def py(v):
        return PAD + (1 - Fraction(v)) * (H - 2 * PAD)

    def pts(p):
        return " ".join(
            f"{float(px(i)):.2f},{float(py(p.vertex_vals[i])):.2f}"
            for i in range(p.n + 1)
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{PAD}" y1="{H-PAD}" x2="{W-PAD}" y2="{H-PAD}" stroke="black"/>',
        f'<line x1="{PAD}" y1="{PAD}" x2="{PAD}" y2="{H-PAD}" stroke="black"/>',
        f'<polyline points="{pts(bound)}" fill="none" stroke="gray" stroke-dasharray="6 4"/>',
        f'<polyline points="{pts(poly)}" fill="none" stroke="blue" stroke-width="2"/>',
    ]
    for i in range(poly.n + 1):
        parts.append(
            f'<circle cx="{float(px(i)):.2f}" cy="{float(py(poly.vertex_vals[i])):.2f}" r="3" fill="blue"/>'
        )
        parts.append(
            f'<text x="{float(px(i)):.2f}" y="{H - PAD + 16}" font-size="11" text-anchor="middle">q^{i}</text>'
        )
    for j, s in enumerate(poly.slopes, start=1):
        parts.append(
            f'<text x="{PAD + 8}" y="{PAD + 14 * j}" font-size="11">lambda_{j} = {s}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
