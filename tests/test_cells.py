"""Cells over vertices, boundary gluing, cocycles, complex assembly."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lubintate import building, cells
from lubintate.building import (
    act,
    ball,
    descent,
    neighbour,
    out_edges,
    proper_subspaces,
    standard_vertex,
)
from lubintate.cells import (
    Cell,
    CellComplex,
    GluedEdge,
    LevelError,
    assemble_complex,
    check_level,
    cocycle_check,
    full_flags,
    glue_edge,
    integral_generators,
    make_cell,
    saturation_check,
)
from lubintate.fqlin import (
    echelon_subspaces,
    image_rows,
    kernel_basis,
    mat_mul,
    rref,
    span_contains,
)
from lubintate.hecke import canonical_quotient
from lubintate.polygon import cm_polygon, gh_boundary_polygon
from lubintate.valuations import vp


def test_make_cell_is_vertex_and_level():
    v = standard_vertex(3, 2)
    assert make_cell(v, 2) == Cell(v, 2)
    with pytest.raises(LevelError):
        make_cell(v, 0)


def test_one_level_rule():
    # level >= 1 for every cell, level >= 2 once its strata glue
    for n in (1, 2, 3):
        for level in (-1, 0):
            with pytest.raises(LevelError, match=r"^cells require principal level >= 1$"):
                check_level(level, n)
        check_level(2, n)
    check_level(1, 1)
    with pytest.raises(LevelError, match=r"^level 1 too coarse: .* fails by p\^1$"):
        check_level(1, 2)
    # a cell is made at level 1 and a rank-1 complex assembled there
    make_cell(standard_vertex(2, 3), 1)
    assert len(assemble_complex([standard_vertex(2, 1)], level=1).cells) == 1


def test_full_flags_count():
    v = standard_vertex(2, 3)
    flags = full_flags(make_cell(v, 2))
    # complete flags in F_2^3: (q^3-1)(q^3-q)(q^3-q^2) / |B| = 21
    assert len(flags) == 21


def test_glue_is_involutive():
    v = standard_vertex(3, 2)
    cell = make_cell(v, 2)
    for E in echelon_subspaces(2, 1, 3):
        far_cell, far_E, _ = glue_edge(cell, E)
        assert len(far_E) == 1
        back_cell, back_E, _ = glue_edge(far_cell, far_E)
        assert back_cell == cell and back_E == E


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_glue_far_vertex_is_an_edge_neighbour(n, p):
    # Lambda + p^(-1) E is p^(-1) (p Lambda + E): the out_edges vertex of label n - rank
    for v in ball(standard_vertex(p, n), 1):
        down = set(out_edges(v))
        cell = make_cell(v, 2)
        for rank in range(1, n):
            for E in echelon_subspaces(n, rank, p):
                assert (glue_edge(cell, E)[0].vertex, n - rank) in down


def test_glue_checks_the_quotient_fixes_the_boundary_polygon(monkeypatch):
    cell = make_cell(standard_vertex(3, 2), 2)
    E = next(echelon_subspaces(2, 1, 3))
    assert glue_edge(cell, E)[0].vertex.h == -1
    real = cells.canonical_quotient

    def moving(poly, i):
        # the quotient of the fully ramified polygon, sent to the unramified one
        return dataclasses.replace(real(poly, i), image=cm_polygon(poly.n, poly.q, 1))

    monkeypatch.setattr(cells, "canonical_quotient", moving)
    with pytest.raises(ArithmeticError, match="rank-1 canonical quotient moves the boundary"):
        glue_edge(cell, E)


@pytest.mark.parametrize("E", [(), ((1, 0), (0, 1))])
def test_glue_refuses_rank_zero_and_full_rank(E):
    cell = make_cell(standard_vertex(3, 2), 2)
    with pytest.raises(ValueError, match=r"^canonical rank i must satisfy 1 <= i <= n-1$"):
        glue_edge(cell, E)


def test_glue_needs_level_two():
    v = standard_vertex(3, 2)
    shallow = make_cell(v, 1)
    E = next(echelon_subspaces(2, 1, 3))
    with pytest.raises(LevelError, match="too coarse"):
        glue_edge(shallow, E)
    # level 2 is exactly enough
    glue_edge(make_cell(v, 2), E)
    # a lone cell glues nothing, its strata all dangle, and level 1 still fails
    with pytest.raises(LevelError, match=r"level 1 too coarse: .* fails by p\^1$"):
        assemble_complex([standard_vertex(2, 3)], level=1)


def _least_val(coords, p):
    """Least valuation of the coordinates in solve_coords results (E, p^E * col)."""
    return min(vp(x, p) - E for E, col in coords for x in col if x)


def _random_vertex(p, n, data):
    """A vertex of the radius-2 ball about the standard vertex, by a random walk."""
    v = standard_vertex(p, n)
    for _ in range(data.draw(st.integers(0, 2))):
        v, _ = data.draw(st.sampled_from(out_edges(v)))
    return v


def _random_stratum(p, n, data):
    rank = data.draw(st.integers(1, n - 1))
    return rank, data.draw(st.sampled_from(list(echelon_subspaces(n, rank, p))))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from((2, 3)), n=st.integers(2, 4), data=st.data())
def test_level_condition_is_level_two_on_every_stratum(p, n, data):
    # the condition fails by p^(1 - level - a - b); a = 0 and b = -1 leave level >= 2
    lat = _random_vertex(p, n, data).lat
    _, E = _random_stratum(p, n, data)
    far = neighbour(lat, E).scale(-1)
    assert _least_val([far.solve_coords(col, lat.k) for col in lat.H], p) == 0
    assert _least_val([lat.solve_coords(col, far.k) for col in far.H], p) == -1


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from((2, 3)), n=st.integers(3, 4), data=st.data())
def test_glue_twice_is_identity_and_cocycle_holds(p, n, data):
    cell = make_cell(_random_vertex(p, n, data), 2)
    rank, outer = _random_stratum(p, n, data)
    there_cell, there_E, _ = glue_edge(cell, outer)
    assert len(there_E) == n - rank
    assert glue_edge(there_cell, there_E)[:2] == (cell, outer)
    # a random stratum inside outer: the span of random combinations of its rows
    combos = []
    for _ in range(data.draw(st.integers(1, rank))):
        cs = [data.draw(st.integers(0, p - 1)) for _ in outer]
        combos.append([sum(c * x for c, x in zip(cs, col)) for col in zip(*outer)])
    inner = rref(combos, p)[0]
    if inner:
        assert cocycle_check(cell, inner, outer)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), n=st.integers(1, 4), data=st.data())
def test_one_elimination_kernel_check_matches_kernel_basis(p, n, data):
    # T kills E with rank n - dim E exactly when ker T = span E, that is when
    # kernel_basis(T) is E's echelon basis
    d = data.draw(st.integers(0, n))
    E = data.draw(st.sampled_from(list(echelon_subspaces(n, d, p))))
    entries = st.integers(0, p - 1)
    if data.draw(st.booleans()):
        T = tuple(tuple(data.draw(entries) for _ in range(n)) for _ in range(n))
    else:
        # rows from the annihilator of E: T kills E, with rank n - d or below
        ann = kernel_basis(E, p) if E else next(echelon_subspaces(n, n, p))
        T = tuple(
            tuple(sum(c * row[j] for c, row in zip(cs, ann)) % p for j in range(n))
            for cs in ([data.draw(entries) for _ in ann] for _ in range(n))
        )
    kills = not any(sum(a * x for a, x in zip(row, e)) % p for row in T for e in E)
    rank = len(rref(T, p)[0])
    event(f"kills E: {kills}, rank {'=' if rank == n - d else '<' if rank < n - d else '>'} n - dim E")
    if kernel_basis(T, p) == E:
        assert cells._image_with_kernel(T, E, p) == rref(zip(*T), p)[0]
    else:
        with pytest.raises(ArithmeticError, match="does not match the stratum"):
            cells._image_with_kernel(T, E, p)


@pytest.mark.parametrize("subspace", [
    ((2, 2, 0),),                # a leading 2: the echelon basis of its span is (1, 1, 0)
    ((1, 1, 0), (0, 1, 0)),      # not reduced above the second pivot
    ((1, 0, 5),),                # an entry outside [0, p)
    [(1, 0, 2)],                 # a list, not a tuple of rows
    ((1, 0, 0), (0, 1, 0), (1, 1, 0)),  # dependent rows
])
def test_glue_refuses_a_subspace_not_in_echelon_form(subspace):
    cell = make_cell(standard_vertex(3, 3), 2)
    with pytest.raises(ArithmeticError, match="does not match the stratum"):
        glue_edge(cell, subspace)


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


@pytest.mark.parametrize("corruption", [
    ((1, 1, 0), (1, 1, 0), (0, 0, 1)),    # singular
    ((0, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0)),               # not square
])
def test_cocycle_refuses_a_corruption_that_is_not_invertible(corruption):
    cell = make_cell(standard_vertex(2, 3), 2)
    with pytest.raises(ValueError, match="invertible"):
        cocycle_check(cell, ((1, 0, 0),), ((1, 0, 0), (0, 1, 0)), corruption=corruption)


def _cocycle_check_with_every_test(cell, inner, outer, corruption=None):
    """The cocycle check with its rank, kernel and image tests of the composite:
    the oracle for cocycle_check, which decides on the kernel and the matrix."""
    p = cell.vertex.p
    inner_r = rref(inner, p)[0]
    outer_r = rref(outer, p)[0]
    if inner_r == outer_r:
        return True
    direct_cell, direct_star, direct_T = glue_edge(cell, outer_r)
    mid_cell, mid_star, relabel = glue_edge(cell, inner_r)
    if corruption is not None:
        relabel = mat_mul(corruption, relabel, p)
    mid_sub = image_rows(relabel, outer_r, p)
    if len(mid_sub) != len(outer_r) - len(inner_r):
        return False
    if not span_contains(mid_star, mid_sub, p):
        return False
    far_cell, _, step2_T = glue_edge(mid_cell, mid_sub)
    if far_cell.vertex != direct_cell.vertex:
        return False
    composite = mat_mul(step2_T, relabel, p)
    if kernel_basis(composite, p) != outer_r:
        return False
    if rref([tuple(row) for row in zip(*composite)], p)[0] != direct_star:
        return False
    return composite == direct_T


def _invertible(p, n, data):
    """A random invertible n x n matrix mod p, as P L U: every one has that form."""
    entry = st.integers(0, p - 1)
    L = [[1 if i == j else data.draw(entry) if j < i else 0 for j in range(n)] for i in range(n)]
    U = [[data.draw(st.integers(1, p - 1)) if i == j else data.draw(entry) if j > i else 0
          for j in range(n)] for i in range(n)]
    perm = data.draw(st.permutations(range(n)))
    return tuple(mat_mul([L[k] for k in perm], U, p))


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from((2, 3)), data=st.data())
def test_cocycle_check_matches_the_check_with_every_test(p, data):
    n = 3
    cell = make_cell(_random_vertex(p, n, data), 2)
    inner, outer = data.draw(st.sampled_from(full_flags(cell)))
    corruption = _invertible(p, n, data) if data.draw(st.booleans()) else None
    verdict = cocycle_check(cell, inner, outer, corruption)
    event(f"verdict {verdict}")
    assert verdict == _cocycle_check_with_every_test(cell, inner, outer, corruption)


def test_assemble_complex_counts():
    cx2 = assemble_complex(ball(standard_vertex(2, 2), 1))
    assert (len(cx2.cells), len(cx2.edges), len(cx2.dangling)) == (4, 3, 6)
    cx3 = assemble_complex(ball(standard_vertex(3, 2), 1))
    assert (len(cx3.cells), len(cx3.edges), len(cx3.dangling)) == (5, 4, 12)
    d = cx3.to_json_dict()
    assert d["level"] == 2 and len(d["cells"]) == 5 and len(d["edges"]) == 4


def test_boundary_polygon_is_fixed_by_every_canonical_quotient():
    # why a cell carries no polygon: glue_edge checks this, the complex writes it once
    for n in range(2, 7):
        for q in (2, 3, 4, 5, 7, 8, 9):
            poly = gh_boundary_polygon(n, q)
            for r in range(1, n):
                assert canonical_quotient(poly, r).image == poly, (n, q, r)


def test_assemble_complex_takes_no_canonical_quotient(monkeypatch):
    def refuse(*args):
        raise AssertionError("assemble_complex builds no far cell")

    want = assemble_complex(ball(standard_vertex(2, 3), 1))
    monkeypatch.setattr(cells, "canonical_quotient", refuse)
    assert assemble_complex(ball(standard_vertex(2, 3), 1)) == want
    with pytest.raises(AssertionError, match="no far cell"):
        glue_edge(make_cell(standard_vertex(2, 3), 2), next(echelon_subspaces(3, 1, 2)))


def test_assemble_complex_builds_one_boundary_polygon(monkeypatch):
    verts = ball(standard_vertex(3, 2), 2)
    verts = list(verts) + [descent(v) for v in verts]
    real = cells.gh_boundary_polygon
    calls = []

    def counting(n, q):
        calls.append((n, q))
        return real(n, q)

    monkeypatch.setattr(cells, "gh_boundary_polygon", counting)
    cx = assemble_complex(verts)
    assert calls == []
    d = cx.to_json_dict()
    assert calls == [(2, 3)]
    # the constraint every cell shares, written once; each cell keeps only its vertex
    assert d["constraint"] == real(2, 3).to_json_dict()
    assert d["cells"] == [{"vertex": c.vertex.json_dict()} for c in cx.cells]


def test_complex_json_needs_one_shared_constraint():
    assert assemble_complex([]).to_json_dict()["constraint"] is None
    mixed = assemble_complex([standard_vertex(2, 2), standard_vertex(3, 2)])
    with pytest.raises(ValueError, match="one boundary constraint"):
        mixed.to_json_dict()


ORACLE_CASES = [(3, 2, 2), (3, 3, 1), (2, 3, 2)]


def _assemble_every_stratum(vertices, level=2):
    """The complex with the full glue_edge run on every stratum: the oracle."""
    verts = sorted(set(vertices), key=lambda v: v.sort_key())
    index = {v: k for k, v in enumerate(verts)}
    cells = tuple(make_cell(v, level) for v in verts)
    edges = {}
    dangling = []
    for ci, cell in enumerate(cells):
        n, p = cell.vertex.n, cell.vertex.p
        for rank in range(1, n):
            for E in echelon_subspaces(n, rank, p):
                far_cell, far_E, _ = glue_edge(cell, E)
                if far_cell.vertex not in index:
                    dangling.append((ci, rank, E))
                    continue
                cj = index[far_cell.vertex]
                key = frozenset({(ci, E), (cj, far_E)})
                if key in edges:
                    continue
                edges[key] = GluedEdge(ci, E, cj, far_E, min(rank, n - rank))
    ordered = tuple(
        sorted(edges.values(), key=lambda e: (e.cell_a, e.cell_b, e.subspace_a))
    )
    return CellComplex(level, cells, ordered, tuple(dangling))


@pytest.mark.parametrize("lift", [False, True])
@pytest.mark.parametrize("n, p, radius", ORACLE_CASES)
def test_assemble_complex_matches_every_stratum_oracle(n, p, radius, lift):
    verts = ball(standard_vertex(p, n), radius)
    if lift:
        verts = list(verts) + [descent(v) for v in verts]
    assert assemble_complex(verts) == _assemble_every_stratum(verts)


@pytest.mark.parametrize("lift", [False, True])
@pytest.mark.parametrize("n, p, radius", ORACLE_CASES)
def test_assemble_complex_computes_no_transition(monkeypatch, n, p, radius, lift):
    # assembly reads the matched strata off out_edges: no T, so no back substitution
    verts = ball(standard_vertex(p, n), radius)
    if lift:
        verts = list(verts) + [descent(v) for v in verts]
    want = _assemble_every_stratum(verts)

    def refuse(*args):
        raise AssertionError("assemble_complex computed a transition")

    monkeypatch.setattr(cells, "_image_with_kernel", refuse)
    monkeypatch.setattr(building.Lattice, "solve_coords", refuse)
    assert assemble_complex(verts) == want


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]), data=st.data())
def test_out_edges_are_the_glue_steps_in_stratum_order(shape, data):
    # the premise of assemble_complex: out_edges(v) holds one distinct vertex per
    # stratum E, in proper_subspaces order, which is glue_edge's far vertex, and the
    # far vertex's one stratum leading back to v is glue_edge's matched stratum
    n, p = shape
    v = _random_vertex(p, n, data)
    strata, out = proper_subspaces(n, p), out_edges(v)
    assert len({w for w, _ in out}) == len(out) == len(strata)
    cell = make_cell(v, 2)
    for (rank, E), (w, i) in zip(strata, out):
        far_cell, far_E, _ = glue_edge(cell, E)
        assert (w, i) == (far_cell.vertex, n - rank)
        back = [F for (_, F), (x, _) in zip(strata, out_edges(w)) if x == v]
        assert back == [far_E]


@pytest.mark.parametrize("n, p, radius", [(2, 3, 2), (3, 2, 1), (3, 2, 2)])
def test_assemble_complex_refuses_out_edges_that_do_not_lead_back(monkeypatch, n, p, radius):
    # the centre answered with a neighbour's list, which leads to the centre
    # itself, or a neighbour with the centre's, which leads to the neighbour
    centre = standard_vertex(p, n)
    verts = ball(centre, radius)
    real = cells.out_edges
    for b, _ in real(centre):
        for x, y in ((centre, b), (b, centre)):
            monkeypatch.setattr(cells, "out_edges", lambda v: real(y if v == x else v))
            with pytest.raises(ArithmeticError, match="lead"):
                assemble_complex(verts)


@pytest.mark.parametrize("n, p, radius", [(2, 3, 2), (3, 2, 1), (3, 2, 2)])
@pytest.mark.parametrize("redirect, message", [
    ("out of the set", "1 glued strata have no stratum leading back"),
    ("to an earlier cell twice", r"a stratum of cell \d+ leads to cell \d+, not back"),
    ("to a later cell twice", r"two strata of cell \d+ lead to cell \d+"),
])
def test_assemble_complex_refuses_a_stratum_without_its_partner(monkeypatch, n, p, radius,
                                                                 redirect, message):
    # one glued stratum's out-edge sent elsewhere: the stratum leading back to it
    # finds no partner, or a second stratum leads to one cell
    verts = ball(standard_vertex(p, n), radius)
    index = {v: k for k, v in enumerate(verts)}
    real = cells.out_edges

    def glued(v, later):
        """Positions of v's strata glued to cells after v if later, else before v."""
        return [k for k, (w, _) in enumerate(real(v)) if w in index
                and (index[w] > index[v]) == later]

    later = redirect == "to a later cell twice"
    v = next(v for v in verts if len(glued(v, later)) >= 2)
    k, k2 = glued(v, later)[:2]
    out = real(v)
    if redirect == "out of the set":
        far = next(w for u in verts for w, _ in real(u) if w not in index)
    else:
        far = out[k2][0]
    moved = out[:k] + [(far, out[k][1])] + out[k + 1:]
    monkeypatch.setattr(cells, "out_edges", lambda u: moved if u == v else real(u))
    with pytest.raises(ArithmeticError, match=message):
        assemble_complex(verts)


def signature(cx):
    """Relabeling-invariant summary of a complex for equivariance comparisons:
    its cell and edge counts, and the sorted per-cell edge counts by rank
    and dangling counts."""
    n = cx.cells[0].vertex.n if cx.cells else 0
    degree = [tuple(sum(1 for e in cx.edges if e.rank == r and ci in (e.cell_a, e.cell_b))
                    for r in range(1, n))
              for ci in range(len(cx.cells))]
    dangling = Counter(ci for ci, _, _ in cx.dangling).values()
    return len(cx.cells), len(cx.edges), tuple(sorted(degree)), tuple(sorted(dangling))


def test_complex_signature_is_action_invariant():
    verts = ball(standard_vertex(3, 2), 1)
    g = [[1, 2], [1, 5]]
    moved = [act(g, 3, v) for v in verts]
    assert signature(assemble_complex(verts)) == signature(assemble_complex(moved))


def test_integral_generators_values():
    assert integral_generators(2, 1) == [(2, 1)]
    assert integral_generators(3, 1) == [(2, 1), (3, 2)]
    assert integral_generators(3, 2) == [(3, 1)]
    assert integral_generators(6, 4) == [(3, 1)]
    # the premise that makes each generator's valuation e_k (1 - i/n) - k >= 0
    for n in range(2, 40):
        for i in range(1, n):
            for e, k in integral_generators(n, i):
                assert e * (n - i) >= k * n
    with pytest.raises(ValueError):
        integral_generators(3, 3)


def test_saturation_brute_force():
    for n in range(2, 7):
        for i in range(1, n):
            assert saturation_check(n, i), (n, i)
