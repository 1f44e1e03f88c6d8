"""Canonical-subgroup quotients and reduction into the good domain."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lubintate import hecke
from lubintate.hecke import (
    BudgetExceeded,
    NonGenericCollision,
    boundary_quotient_profile,
    canonical_quotient,
    reduce_to_domain,
)
from lubintate.polygon import (
    NewtonPolygon,
    _lower_hull,
    cm_polygon,
    gh_boundary_polygon,
    in_gross_hopkins,
    polygon_from_vals,
    profile,
)
from lubintate.valuations import INF, Val, sum_terms


def test_quotient_kernel_and_mass():
    poly = polygon_from_vals(2, 3, [Fraction(2, 5)])
    step = canonical_quotient(poly, 1)
    # kernel: zero point plus the lambda_1 stratum of size q - 1
    assert step.kernel_values[0] == (Val(INF), 1)
    assert step.kernel_values[1] == (Val(poly.slopes[0]), 2)
    assert sum(m for _, m in step.image_values) == 3**2 - 1
    assert sum(v * m for v, m in step.image_values) == 1
    assert step.rank == 1


def test_rank1_quotient_reflects_v_inside_H():
    # n = 2: for v in H with v < 1/2 the image is the 1 - v polygon
    for q, lo in ((2, Fraction(1, 3)), (3, Fraction(1, 4))):
        for v in (lo + Fraction(1, 50), Fraction(2, 5), Fraction(49, 100)):
            step = canonical_quotient(polygon_from_vals(2, q, [v]), 1)
            assert step.image == polygon_from_vals(2, q, [1 - v]), (q, v)


def test_reduce_worked_example():
    poly = polygon_from_vals(2, 3, [Fraction(3, 10)])
    res = reduce_to_domain(poly)
    assert res.steps == (1,)
    assert res.final == polygon_from_vals(2, 3, [Fraction(7, 10)])
    assert res.trail == (poly, res.final)
    assert in_gross_hopkins(res.final)


def test_reduce_noop_inside_domain():
    poly = polygon_from_vals(2, 3, [Fraction(1, 2)])
    res = reduce_to_domain(poly)
    assert res.steps == () and res.final == poly


def test_reduce_budget():
    poly = polygon_from_vals(2, 3, [Fraction(3, 10)])
    with pytest.raises(BudgetExceeded):
        reduce_to_domain(poly, budget=0)


def test_one_slope_polygon_is_in_D():
    """reduce_to_domain's premise: the one polygon with no rupture,
    cm_polygon(n, q, 1), is in D, so outside D some rupture is tried."""
    for n in range(1, 10):
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 25):
            assert in_gross_hopkins(cm_polygon(n, q, 1)), (n, q)


def test_reduce_reraises_the_collision_when_every_rupture_collides(monkeypatch):
    def collide(poly, i):
        raise NonGenericCollision(f"collision at rank {i}")

    monkeypatch.setattr(hecke, "canonical_quotient", collide)
    with pytest.raises(NonGenericCollision, match="rank 1"):
        reduce_to_domain(polygon_from_vals(3, 2, [Fraction(1, 12), Fraction(1, 12)]))


def test_reduce_skips_a_rupture_whose_quotient_collides():
    # outside D; the rank-2 quotient has a division root of value lambda_2 or more
    poly = polygon_from_vals(3, 3, [Fraction(1, 4), Fraction(1, 10)])
    assert poly.slopes == (Fraction(3, 8), Fraction(1, 40), Fraction(1, 180))
    assert not in_gross_hopkins(poly)
    with pytest.raises(NonGenericCollision, match="kernel stratum"):
        canonical_quotient(poly, 2)
    res = reduce_to_domain(poly)
    assert res.steps == (1, 2) and in_gross_hopkins(res.final)


@st.composite
def reduce_inputs(draw):
    """(n, q, vals) from a grid on which no reduction raises.

    With n <= 3, q <= 5 and each v(x_i) inf or a/b (1 <= a <= 24,
    1 <= b <= 12), each of the grid's 133,224 inputs was reduced into D in
    at most 4 steps; 173 of them meet a collision at one rupture on the way
    and are reduced at a smaller one.
    """
    n = draw(st.sampled_from((2, 3)))
    q = draw(st.sampled_from((2, 3, 4, 5)))
    val = st.just(INF) | st.builds(Fraction, st.integers(1, 24), st.integers(1, 12))
    return n, q, draw(st.lists(val, min_size=n - 1, max_size=n - 1))


@settings(max_examples=300, deadline=None)
@given(case=reduce_inputs())
# the corners of the seeded draws this test replaced: n, q in {2, 3},
# v(x_i) = a/b with 1 <= a <= 24 and 1 <= b <= 12
@example(case=(2, 2, [Fraction(1, 12)]))
@example(case=(2, 3, [Fraction(24)]))
@example(case=(3, 2, [Fraction(1, 12), Fraction(1, 12)]))
@example(case=(3, 3, [Fraction(24), Fraction(1, 12)]))
@example(case=(3, 3, [Fraction(1, 12), Fraction(24)]))
def test_reduce_random_polygons_terminate(case):
    n, q, vals = case
    res = reduce_to_domain(polygon_from_vals(n, q, vals))
    assert in_gross_hopkins(res.final) and len(res.steps) <= 10
    assert res.trail[0] == res.initial and res.trail[-1] == res.final
    assert len(res.trail) == len(res.steps) + 1
    for poly, i, image in zip(res.trail, res.steps, res.trail[1:]):
        assert not in_gross_hopkins(poly)
        assert poly.slopes[i - 1] > poly.slopes[i]  # a rupture at i
        assert canonical_quotient(poly, i).image == image


def test_quotient_requires_rupture():
    flat = cm_polygon(2, 3, 1)
    with pytest.raises(NonGenericCollision, match="rupture"):
        canonical_quotient(flat, 1)
    with pytest.raises(ValueError, match="1 <= i <= n-1"):
        canonical_quotient(polygon_from_vals(2, 3, [Fraction(2, 5)]), 2)


@st.composite
def ruptures_in_D(draw):
    """(poly, i): a polygon in D, from v(x_j) >= 1 - j/n, with a rupture at i.

    The rank i is drawn first.  Without a point at q^i the hull passes
    strictly above 1 - i/n there, since the boundary polygon is strictly
    convex; any v(x_i) from 1 - i/n up to, not reaching, that hull value
    puts a vertex at q^i, a rupture at i.
    """
    n = draw(st.integers(2, 6))
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    i = draw(st.integers(1, n - 1))
    vals = [INF if j == i else draw(st.one_of(st.just(INF), st.fractions(
        min_value=Fraction(n - j, n), max_value=3, max_denominator=64))) for j in range(1, n)]
    above = polygon_from_vals(n, q, vals).vertex_vals[i]
    low = Fraction(n - i, n)
    vals[i - 1] = low + (above - low) * Fraction(draw(st.integers(0, 63)), 64)
    return polygon_from_vals(n, q, vals), i


@settings(max_examples=300, deadline=None)
@given(case=ruptures_in_D())
@example(case=(gh_boundary_polygon(2, 2), 1))
@example(case=(gh_boundary_polygon(2, 3), 1))
@example(case=(gh_boundary_polygon(3, 2), 1))
@example(case=(gh_boundary_polygon(3, 2), 2))
@example(case=(gh_boundary_polygon(3, 3), 1))
@example(case=(gh_boundary_polygon(3, 3), 2))
def test_boundary_profile_matches_generic_algorithm(case):
    poly, i = case
    assert in_gross_hopkins(poly)
    assert canonical_quotient(poly, i).image_values == boundary_quotient_profile(poly, i)


def test_boundary_profile_requires_domain():
    poly = polygon_from_vals(2, 3, [Fraction(3, 10)])
    with pytest.raises(ValueError, match="good domain"):
        boundary_quotient_profile(poly, 1)


# ---------------------------------------------------------------------
# hull oracles for the division profile and the canonical quotient
# ---------------------------------------------------------------------

def division_profile_oracle(poly, b):
    """Lower hull of (0, b) and the polygon's vertices, rebuilt from scratch."""
    points = [(Fraction(0), Fraction(b))] + [
        (Fraction(poly.q ** i), y) for i, y in enumerate(poly.vertex_vals)
    ]
    hull = _lower_hull(points)
    roots = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        width = x2 - x1
        slope = (y1 - y2) / width
        if width:
            roots.append((slope, int(width)))
    return roots


def division_profile(poly, b):
    """Valuations of the q^n solutions of [pi](y) = z with v(z) = b.

    The lower hull of (0, b) and the polygon's vertices (q^t, v_t) joins the
    polygon at the last t maximising (b - v_t) / q^t and then follows its
    slopes; a hull segment of width w and descent slope s contributes w
    roots of valuation s.
    """
    q, vv = poly.q, poly.vertex_vals
    descents = [(b - vv[t]) / q ** t for t in range(poly.n + 1)]
    top = max(descents)
    t = max(i for i, d in enumerate(descents) if d == top)
    roots = [(top, q ** t)]
    for s, w in poly.strata[t:]:
        if s == roots[-1][0]:
            roots[-1] = (s, roots[-1][1] + w)
        else:
            roots.append((s, w))
    return roots


def canonical_quotient_oracle(poly, i):
    """canonical_quotient with one hull per kernel value, kept as the oracle."""
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

    # type A: surviving pi-torsion strata; q^j - q^(j-1) = q^(j-1) (q - 1), and j > i
    pairs = [(s * qi, w // qi) for s, w in poly.strata[i:]]

    # type B: new torsion above each nonzero kernel point
    for b, m_b in kernel:
        for r, w in division_profile(poly, b):
            if not r < lam_i:
                raise NonGenericCollision(
                    "division root value collides with the kernel stratum"
                )
            # r < lambda_i puts the hull's join t at >= i, so q^i divides every width
            pairs.append((r * qi, (w * m_b) // qi))

    values = profile(pairs)
    new_poly = hecke._polygon_from_value_multiset(n, q, values)
    return hecke.IsogenyStep(i, poly, new_poly, ((INF, 1),) + kernel, values)


_RATS = st.fractions(min_value=Fraction(1, 64), max_value=3, max_denominator=64)


@st.composite
def polygons(draw):
    n = draw(st.integers(2, 6))
    q = draw(st.sampled_from((2, 3, 4, 5, 7)))
    vals = draw(st.lists(st.one_of(st.just(INF), _RATS), min_size=n - 1, max_size=n - 1))
    return polygon_from_vals(n, q, vals)


@settings(max_examples=300, deadline=None)
@given(poly=polygons(), data=st.data())
def test_division_profile_matches_hull_oracle(poly, data):
    slope = st.sampled_from(poly.slopes)
    b = data.draw(st.one_of(slope, st.builds(lambda s, r: s * r, slope, _RATS), _RATS))
    assert division_profile(poly, b) == division_profile_oracle(poly, b)


def test_division_profile_matches_hull_oracle_on_cm_polygons():
    # equal slopes inside a block: the hull merges them into one segment
    fixed = {Fraction(1, 7), Fraction(1, 2), Fraction(1), Fraction(2)}
    for n in range(2, 7):
        for q in (2, 3, 4, 5, 7):
            for e in (e for e in range(1, n + 1) if n % e == 0):
                poly = cm_polygon(n, q, e)
                for b in set(poly.slopes) | fixed:
                    want = division_profile_oracle(poly, b)
                    assert division_profile(poly, b) == want, (n, q, e, b)


@settings(max_examples=300, deadline=None)
@given(poly=polygons())
def test_strata_are_the_pi_torsion_profile(poly):
    n, q = poly.n, poly.q
    assert [s for s, _ in poly.strata] == list(poly.slopes)
    assert [w for _, w in poly.strata] == [(q - 1) * q ** (j - 1) for j in range(1, n + 1)]
    assert sum(w for _, w in poly.strata) == q ** n - 1
    assert hecke._polygon_from_value_multiset(n, q, profile(poly.strata)) == poly


def _polygon_from_value_multiset_oracle(n, q, values):
    """The block-by-block walk over the flattened values, kept as the oracle."""
    total = sum(m for _, m in values)
    if total != q ** n - 1:
        raise NonGenericCollision(f"image point count {total} != q^n - 1")
    flat = sorted(values, key=lambda t: t[0], reverse=True)
    slopes = []
    idx, remaining = 0, 0
    current = None
    for j in range(1, n + 1):
        need = q ** j - q ** (j - 1)
        block_val = None
        while need:
            if remaining == 0:
                current, remaining = flat[idx]
                idx += 1
            if block_val is None:
                block_val = current
            elif current != block_val:
                raise NonGenericCollision("image values straddle a slope block boundary")
            take = min(need, remaining)
            need -= take
            remaining -= take
        slopes.append(block_val)
    return NewtonPolygon(n, q, slopes)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:  # NonGenericCollision, or a NewtonPolygon mass error
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(poly=polygons(), data=st.data())
def test_value_multiset_matches_block_walk_oracle(poly, data):
    # a polygon's own value multiset, then mass moved between neighbouring
    # values (straddles), entries split in two, or a count changed (miscounts)
    n, q = poly.n, poly.q
    by_value = sum_terms((s, q ** j - q ** (j - 1)) for j, s in enumerate(poly.slopes, 1))
    entries = [list(t) for t in sorted(by_value.items(), reverse=True)]
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(0, len(entries) - 1))
        d = data.draw(st.integers(-3, 3))
        move = data.draw(st.sampled_from(("shift", "split", "count")))
        if move == "shift" and k + 1 < len(entries) and entries[k + 1][1] > d > -entries[k][1]:
            entries[k][1] += d
            entries[k + 1][1] -= d
        elif move == "split" and entries[k][1] > 1:
            a = data.draw(st.integers(1, entries[k][1] - 1))
            below = entries[k + 1][0] if k + 1 < len(entries) else Fraction(0)
            entries[k:k + 1] = [[entries[k][0], a], [(entries[k][0] + below) / 2, entries[k][1] - a]]
        elif move == "count" and entries[k][1] + d > 0:
            entries[k][1] += d
    values = tuple(map(tuple, entries))
    got = _outcome(hecke._polygon_from_value_multiset, n, q, values)
    assert got == _outcome(_polygon_from_value_multiset_oracle, n, q, values)
    if values == tuple(sorted(by_value.items(), reverse=True)):
        assert got == poly


@settings(max_examples=300, deadline=None)
@given(poly=polygons())
# slopes (5/8, 1/8, 1/32): at rank 2 the top division root of b = 5/8 is 1/8,
# a tie with lambda_2 that must raise
@example(poly=polygon_from_vals(3, 2, [Fraction(3, 8), Fraction(1, 8)]))
def test_canonical_quotient_matches_the_per_kernel_hull_oracle(poly):
    # every rank, ruptures or not; collisions must raise with the same message
    for i in range(1, poly.n):
        got = _outcome(canonical_quotient, poly, i)
        assert got == _outcome(canonical_quotient_oracle, poly, i), i


def test_canonical_quotient_matches_the_oracle_on_cm_polygons():
    # equal slopes inside a block: the hull follows them past the join
    for n in range(2, 7):
        for q in (2, 3, 4, 5, 7):
            for e in (e for e in range(1, n + 1) if n % e == 0):
                poly = cm_polygon(n, q, e)
                for i in (i for i in range(1, n) if poly.slopes[i - 1] > poly.slopes[i]):
                    want = _outcome(canonical_quotient_oracle, poly, i)
                    assert _outcome(canonical_quotient, poly, i) == want, (n, q, e, i)


def quasi_canonical(n, q, s):
    """The level-s quasi-canonical polygon: lambda_n = 1/((q^n - 1) q^((n-1) s)),
    lambda_1 = ... = lambda_(n-1) fixed by the mass (Gross, Invent. Math. 84,
    1986, at n = 2, where v(x_1) = 1/(q^(s-1) (q + 1)); its n > 2 form here is
    this family's generalization).  Level 0 is cm_polygon(n, q, 1)."""
    low = Fraction(1, (q ** n - 1) * q ** ((n - 1) * s))
    high = (1 - low * (q ** n - q ** (n - 1))) / (q ** (n - 1) - 1)
    return NewtonPolygon(n, q, [high] * (n - 1) + [low])


QUASI_CANONICAL_SHAPES = [(n, q) for n in (2, 3, 4) for q in (2, 3, 4, 5, 7, 9) if n < 4 or q <= 5]


# every shape at every level s <= 8: 128 cases
@pytest.mark.parametrize("n, q, s", [(n, q, s) for n, q in QUASI_CANONICAL_SHAPES
                                     for s in range(1, 9)])
def test_quasi_canonical_orbit(n, q, s):
    poly = quasi_canonical(n, q, s)
    step = canonical_quotient(poly, n - 1)
    if s == 1:
        assert step.image == cm_polygon(n, q, 1)
    else:
        assert step.image == quasi_canonical(n, q, s - 1)
    res = reduce_to_domain(poly)
    assert res.steps == (n - 1,) * s
    assert res.trail == tuple(quasi_canonical(n, q, t) for t in range(s, -1, -1))
    if n == 2:
        assert poly == polygon_from_vals(2, q, [Fraction(1, q ** (s - 1) * (q + 1))])
