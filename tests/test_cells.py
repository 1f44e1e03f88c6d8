"""Cells over vertices, boundary gluing, cocycles, complex assembly."""

from fractions import Fraction

import pytest

from lubintate.building import act, ball, out_edges, standard_vertex
from lubintate.cells import (
    LevelError,
    assemble_complex,
    boundary_components,
    cocycle_check,
    constraint_model,
    full_flags,
    glue_edge,
    integral_generators,
    make_cell,
    saturation_check,
)
from lubintate.fqlin import gaussian_binomial, rref
from lubintate.hecke import canonical_quotient
from lubintate.polygon import gh_boundary_polygon


def test_make_cell_carries_boundary_constraint():
    v = standard_vertex(3, 2)
    cell = make_cell(v, 2)
    assert cell.constraint == gh_boundary_polygon(2, 3)
    with pytest.raises(LevelError):
        make_cell(v, 0)


def test_boundary_component_counts():
    v = standard_vertex(2, 3)
    cell = make_cell(v, 2)
    for rank in (1, 2):
        comps = boundary_components(cell, rank)
        assert len(comps) == gaussian_binomial(3, rank, 2)
    with pytest.raises(ValueError, match="rank"):
        boundary_components(cell, 3)


def test_full_flags_count():
    v = standard_vertex(2, 3)
    flags = full_flags(make_cell(v, 2))
    # complete flags in F_2^3: (q^3-1)(q^3-q)(q^3-q^2) / |B| = 21
    assert len(flags) == 21


def test_glue_is_involutive():
    v = standard_vertex(3, 2)
    cell = make_cell(v, 2)
    for comp in boundary_components(cell, 1):
        res = glue_edge(comp)
        assert res.component.rank == 1
        back = glue_edge(res.component)
        assert back.component.cell.vertex == v
        assert rref(back.component.subspace, 3)[0] == rref(comp.subspace, 3)[0]


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_glue_far_vertex_is_an_edge_neighbour(n, p):
    # Lambda + p^(-1) E is p^(-1) (p Lambda + E): the out_edges vertex of label n - rank
    for v in ball(standard_vertex(p, n), 1):
        down = set(out_edges(v))
        cell = make_cell(v, 2)
        for rank in range(1, n):
            for comp in boundary_components(cell, rank):
                assert (glue_edge(comp).component.cell.vertex, n - rank) in down


def test_glue_updates_constraint_by_quotient():
    v = standard_vertex(3, 2)
    cell = make_cell(v, 2)
    comp = boundary_components(cell, 1)[0]
    res = glue_edge(comp)
    assert res.component.cell.vertex.h == -1
    want = canonical_quotient(cell.constraint, 1).image
    assert res.component.cell.constraint == want


def test_glue_needs_level_two():
    v = standard_vertex(3, 2)
    shallow = make_cell(v, 1)
    with pytest.raises(LevelError, match="too coarse"):
        glue_edge(boundary_components(shallow, 1)[0])
    # level 2 is exactly enough
    glue_edge(boundary_components(make_cell(v, 2), 1)[0])


def test_cocycle_holds_and_corruption_breaks_it():
    for p in (2, 3):
        cell = make_cell(standard_vertex(p, 3), 2)
        inner = ((1, 0, 0),)
        outer = ((1, 0, 0), (0, 1, 0))
        assert cocycle_check(cell, inner, outer)
        assert cocycle_check(cell, inner, inner)  # degenerate triangle
        corr = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        assert not cocycle_check(cell, inner, outer, corruption=corr)
    with pytest.raises(ValueError, match="inside"):
        cocycle_check(cell, outer, inner)


def test_assemble_complex_counts():
    cx2 = assemble_complex(ball(standard_vertex(2, 2), 1))
    assert (len(cx2.cells), len(cx2.edges), len(cx2.dangling)) == (4, 3, 6)
    cx3 = assemble_complex(ball(standard_vertex(3, 2), 1))
    assert (len(cx3.cells), len(cx3.edges), len(cx3.dangling)) == (5, 4, 12)
    d = cx3.to_json_dict()
    assert d["level"] == 2 and len(d["cells"]) == 5 and len(d["edges"]) == 4


def test_complex_signature_is_action_invariant():
    verts = ball(standard_vertex(3, 2), 1)
    g = [[1, 2], [1, 5]]
    moved = [act(g, 3, v) for v in verts]
    assert assemble_complex(verts).signature() == assemble_complex(moved).signature()


def test_integral_generators_values():
    assert integral_generators(2, 1) == [(2, 1)]
    assert integral_generators(3, 1) == [(2, 1), (3, 2)]
    assert integral_generators(3, 2) == [(3, 1)]
    assert integral_generators(6, 4) == [(3, 1)]
    for n in range(2, 7):
        for i in range(1, n):
            for e, k in integral_generators(n, i):
                assert e * (n - i) >= k * n
    with pytest.raises(ValueError):
        integral_generators(3, 3)


def test_saturation_brute_force():
    for n in range(2, 7):
        for i in range(1, n):
            assert saturation_check(n, i), (n, i)


def test_constraint_model():
    m = constraint_model([Fraction(1, 2)], 3)
    assert m.relations == ((1, 2, 1),)
    assert m.convex
    assert m.display() == ["x_1^2 = pi^1 * T_1"]
    assert not constraint_model([Fraction(1, 4), Fraction(3, 4)], 2).convex
    with pytest.raises(ValueError, match="strictly between"):
        constraint_model([Fraction(3, 2)], 2)
