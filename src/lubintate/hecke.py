"""Canonical-subgroup quotients of Newton polygons and domain reduction.

The rank-q^i canonical subgroup of a module with polygon lambda_1 >= ... >=
lambda_n exists when lambda_i > lambda_{i+1}; it consists of 0 together with
the points of the i highest slope strata.  Quotienting by it transforms the
valuation profile of the pi-torsion in two ways:

  type A: surviving pi-torsion points of value lambda_j (j > i) map to
          points of value q^i lambda_j, in fibers of size q^i;
  type B: a kernel point z of value b acquires new pi-torsion above it; the
          valuations of the q^n solutions of [pi](y) = z are read off the
          lower hull of (0, b) and the source polygon's vertices, one walk
          of the descents (b - v_t)/q^t serving every b, and each solution
          maps to a point of value q^i times its own.

Genericity (every type-B root value strictly below lambda_i) is asserted,
never assumed; ties raise NonGenericCollision.

All slope arithmetic is exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polygon import NewtonPolygon, in_gross_hopkins, profile
from .valuations import INF


class NonGenericCollision(ValueError):
    """A valuation tie the generic profile formulas cannot resolve."""


class BudgetExceeded(RuntimeError):
    """Reduction did not reach the good domain within the step budget."""


@dataclass(frozen=True)
class IsogenyStep:
    rank: int
    source: NewtonPolygon
    image: NewtonPolygon
    kernel_values: tuple
    image_values: tuple


def _polygon_from_value_multiset(n: int, q: int, values) -> NewtonPolygon:
    """Rebuild a polygon from q^n - 1 (value, mult) pairs, distinct values descending.

    Slope j is the value at flat position q^(j-1) - 1.  Every running sum of
    the mults must be some q^j - 1, or a value straddles a block: a collision.
    """
    total = sum(m for _, m in values)
    if total != q ** n - 1:
        raise NonGenericCollision(f"image point count {total} != q^n - 1")
    slopes, run = [], 0
    for v, m in values:
        run += m
        while q ** len(slopes) - 1 < run:
            slopes.append(v)
        if q ** len(slopes) - 1 != run:
            raise NonGenericCollision("image values straddle a slope block boundary")
    return NewtonPolygon(n, q, slopes)


def canonical_quotient(poly: NewtonPolygon, i: int) -> IsogenyStep:
    """Quotient by the rank-q^i canonical subgroup.

    Requires the strict rupture lambda_i > lambda_{i+1}; the kernel is
    {0} and the points of values lambda_1, ..., lambda_i.
    """
    n, q = poly.n, poly.q
    if not 1 <= i <= n - 1:
        raise ValueError("canonical rank i must satisfy 1 <= i <= n-1")
    if not poly.slopes[i - 1] > poly.slopes[i]:
        raise NonGenericCollision(
            f"no rupture at i={i}: lambda_{i} = lambda_{i+1}"
        )
    lam_i = poly.slopes[i - 1]
    qi = q ** i

    kernel = profile(poly.strata[:i])

    # type B: [pi](y) = z with v(z) = b has q^t roots of value d_t = (b - v_t)/q^t
    # at the hull's join t, then w_j of value lambda_j for each j > t.  Since
    # d_(t+1) - d_t = (1 - 1/q)(lambda_(t+1) - d_t), d rises while the next slope
    # is >= d and falls strictly after, so the walk stops at the last maximiser; a
    # smaller b stops no earlier, so the descending kernel values share one walk.
    # d_t is the top root, and d_t < lambda_i forces t >= i, so q^i divides q^t.
    slopes, vv = poly.slopes, poly.vertex_vals
    pairs, joined, t = [], [0] * (n + 1), 0
    for b, m_b in kernel:
        d = (b - vv[t]) / q ** t
        while t < n and slopes[t] >= d:
            t += 1
            d = (b - vv[t]) / q ** t
        if not d < lam_i:
            raise NonGenericCollision("division root value collides with the kernel stratum")
        pairs.append((d * qi, q ** t * m_b // qi))
        joined[t] += m_b

    # type A (q^i divides w_j = q^(j-1) (q - 1) for j > i), plus type B past each join
    run = 1
    for joins, (s, w) in zip(joined[i:], poly.strata[i:]):
        run += joins
        pairs.append((s * qi, w * run // qi))

    values = profile(pairs)
    # NewtonPolygon refuses an image profile whose total mass is not 1
    new_poly = _polygon_from_value_multiset(n, q, values)
    return IsogenyStep(i, poly, new_poly, ((INF, 1),) + kernel, values)


def boundary_quotient_profile(poly: NewtonPolygon, i: int):
    """Closed-form image profile for a polygon in D (independent of the
    generic algorithm): {q^i lambda_j x (q^j - q^(j-1))/q^i : j > i} and
    {lambda_j / q^(n-i) x (q^j - q^(j-1)) q^(n-i) : j <= i}."""
    n, q = poly.n, poly.q
    if not 1 <= i <= n - 1:
        raise ValueError("rank i out of range")
    if not in_gross_hopkins(poly):
        raise ValueError("closed form is only valid on the good domain")
    up, down = q ** i, q ** (n - i)
    return profile([(s * up, w // up) for s, w in poly.strata[i:]]
                   + [(s / down, w * down) for s, w in poly.strata[:i]])


@dataclass(frozen=True)
class ReduceResult:
    initial: NewtonPolygon
    final: NewtonPolygon
    steps: tuple
    trail: tuple


def reduce_to_domain(poly: NewtonPolygon, budget: int = 32) -> ReduceResult:
    """Iterate canonical quotients into D, trying the largest rupture first.

    A rupture index whose quotient hits a non-generic collision is skipped
    in favor of the next smaller one; only a polygon where every rupture
    collides raises.
    """
    steps = []
    trail = [poly]
    current = poly
    while not in_gross_hopkins(current):
        if len(steps) >= budget:
            raise BudgetExceeded(f"not in D after {budget} quotients")
        step = None
        collision = None
        for i in range(current.n - 1, 0, -1):
            if current.slopes[i - 1] > current.slopes[i]:
                try:
                    step = canonical_quotient(current, i)
                    break
                except NonGenericCollision as exc:
                    collision = exc
        if step is None:
            # the one-slope polygon cm_polygon(n, q, 1) is in D: its vertex
            # values 1 - (q^i - 1)/(q^n - 1) are >= 1 - i/n as q^x is convex,
            # so outside D some rupture was tried and collided
            raise collision
        steps.append(step.rank)
        current = step.image
        trail.append(current)
    return ReduceResult(poly, current, tuple(steps), tuple(trail))

