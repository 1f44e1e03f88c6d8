"""Newton polygon construction, closed-form extremes, and domain predicates."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lubintate import polygon
from lubintate.polygon import (
    NewtonPolygon,
    boundary_indices,
    cm_polygon,
    gh_boundary_polygon,
    in_gross_hopkins,
    in_H,
    lambda_extremes,
    polygon_from_vals,
    profile,
    torsion_valuations,
    vals_in_gross_hopkins,
)
from lubintate.valuations import INF, Val


def test_worked_example_n2_q3():
    poly = polygon_from_vals(2, 3, [Fraction(1, 2)])
    assert poly.slopes == (Fraction(1, 4), Fraction(1, 12))
    assert sorted(boundary_indices(poly)) == [1]
    assert in_gross_hopkins(poly)
    assert in_H(poly)


def test_point_above_hull_is_dropped():
    # v(x_1) = 2 lies above the chord (1,1)-(4,0), so the hull ignores it
    poly = polygon_from_vals(2, 2, [2])
    assert poly.slopes == (Fraction(1, 3), Fraction(1, 3))


def test_inf_entry_matches_missing_point():
    assert polygon_from_vals(2, 2, [INF]) == cm_polygon(2, 2, 1)
    assert polygon_from_vals(3, 2, [INF, Fraction(1, 3)]) == polygon_from_vals(
        3, 2, [Val(INF), Val(Fraction(1, 3))]
    )


def test_extremes_match_hull_small_grid():
    for n in (2, 3, 4):
        for q in (2, 3):
            for den in (1, 2, 3, 4, 5, 6):
                for num in range(1, 3 * den + 1):
                    v = Fraction(num, den)
                    vals = [v] * (n - 1)
                    poly = polygon_from_vals(n, q, vals)
                    lam1, lamn = lambda_extremes(n, q, vals)
                    assert poly.slopes[0] == lam1
                    assert poly.slopes[-1] == lamn


@st.composite
def hull_inputs(draw):
    """(n, q, vals): n - 1 valuations, each inf or a positive rational."""
    n = draw(st.integers(2, 5))
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 9)))
    val = st.just(INF) | st.builds(Fraction, st.integers(1, 18), st.integers(1, 6))
    return n, q, draw(st.lists(val, min_size=n - 1, max_size=n - 1))


@settings(max_examples=300, deadline=None)
@given(case=hull_inputs())
# grid corners kept as examples: one value v in [1/6, 3] repeated n - 1
# times (n = 2..4, q = 2, 3), as in the small grid above, and pairs from
# {1/3, 1/2, 2/3, 5/4, inf} at (n, q) = (3, 2)
@example(case=(2, 2, [Fraction(1, 6)]))
@example(case=(2, 3, [Fraction(3)]))
@example(case=(4, 2, [Fraction(1, 6)] * 3))
@example(case=(4, 3, [Fraction(3)] * 3))
@example(case=(3, 2, [INF, INF]))
@example(case=(3, 2, [Fraction(1, 3), INF]))
@example(case=(3, 2, [INF, Fraction(5, 4)]))
@example(case=(3, 2, [Fraction(5, 4), Fraction(1, 3)]))
def test_extremes_match_hull_mixed_vals(case):
    n, q, vals = case
    poly = polygon_from_vals(n, q, vals)
    assert (poly.slopes[0], poly.slopes[-1]) == lambda_extremes(n, q, vals), case


def test_constructor_rejects_bad_mass():
    with pytest.raises(ValueError, match="mass"):
        NewtonPolygon(2, 2, [Fraction(1, 2), Fraction(1, 2)])


def test_constructor_rejects_increasing_slopes():
    with pytest.raises(ValueError, match="non-increasing"):
        NewtonPolygon(2, 3, [Fraction(1, 12), Fraction(1, 4)])


def test_constructor_rejects_nonpositive_slope():
    with pytest.raises(ValueError, match="positive"):
        NewtonPolygon(1, 2, [0])


def test_vals_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        polygon_from_vals(2, 2, [0])


def test_vals_length_checked():
    with pytest.raises(ValueError, match="n-1"):
        polygon_from_vals(3, 2, [Fraction(1, 2)])


def test_cm_polygon_identities():
    for n in (2, 3, 4, 6):
        for q in (2, 3):
            assert cm_polygon(n, q, n) == gh_boundary_polygon(n, q)
            flat = cm_polygon(n, q, 1)
            assert flat.slopes == (Fraction(1, q**n - 1),) * n
    # vertex vals of the boundary polygon are 1 - i/n
    b = gh_boundary_polygon(3, 2)
    assert b.vertex_vals == (
        Fraction(1),
        Fraction(2, 3),
        Fraction(1, 3),
        Fraction(0),
    )


def test_cm_polygon_rejects_nondivisor():
    with pytest.raises(ValueError, match="divide"):
        cm_polygon(4, 2, 3)


def test_in_H_boundary_case():
    # n = 2, q = 2: H is v > 1/3, boundary excluded
    assert in_H(polygon_from_vals(2, 2, [Fraction(1, 2)]))
    assert not in_H(polygon_from_vals(2, 2, [Fraction(1, 3)]))


def test_coordinate_D_condition_matches_hull_predicate():
    import itertools

    grid = [Fraction(k, 6) for k in range(1, 13)] + [INF]
    for vals in itertools.product(grid, repeat=2):
        poly = polygon_from_vals(3, 2, list(vals))
        assert in_gross_hopkins(poly) == vals_in_gross_hopkins(3, list(vals)), vals


def test_torsion_valuations_counts():
    poly = polygon_from_vals(2, 3, [Fraction(1, 2)])
    for k in (1, 2, 3):
        prof = torsion_valuations(poly, k)
        assert sum(m for _, m in prof) == 3 ** (2 * k) - 1
        vals = [v for v, _ in prof]
        assert vals == sorted(vals, reverse=True)
    lvl1 = torsion_valuations(poly, 1)
    assert lvl1 == [(Val(Fraction(1, 4)), 2), (Val(Fraction(1, 12)), 6)]


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from([Fraction(k, 6) for k in range(1, 9)]),
                                st.integers(-3, 3)), max_size=12))
def test_profile_matches_a_counter_oracle(pairs):
    # few values and multiplicities of either sign, so sums merge and cancel
    counts = Counter()
    for v, m in pairs:
        counts[v] += m
    want = sorted(((v, m) for v, m in counts.items() if m), key=lambda t: t[0], reverse=True)
    assert profile(pairs) == tuple(want)


def test_torsion_valuations_requires_H():
    poly = polygon_from_vals(2, 2, [Fraction(1, 3)])
    with pytest.raises(ValueError, match="H"):
        torsion_valuations(poly, 1)
    with pytest.raises(ValueError, match="k >= 1"):
        torsion_valuations(polygon_from_vals(2, 2, [Fraction(1, 2)]), 0)


def test_json_and_render_smoke():
    poly = polygon_from_vals(2, 3, [Fraction(1, 2)])
    d = poly.to_json_dict()
    assert d["in_D"] and d["in_H"] and d["boundary_indices"] == [1]
    assert d["slopes"][0] == {"num": 1, "den": 4}
    art = polygon.render_ascii(poly)
    assert "*" in art
    svg = polygon.render_svg(poly)
    assert svg.startswith("<svg") and "polyline" in svg
