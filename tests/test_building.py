"""Lattice vertices, edges, balls and group action."""

from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lubintate.building import (
    BuildingVertex,
    Lattice,
    act,
    ball,
    ball_edges,
    descent,
    make_vertex,
    neighbour,
    out_edges,
    standard_vertex,
    to_dot,
)
from lubintate.fqlin import echelon_subspaces, gaussian_binomial
from lubintate.valuations import vp


# ---------------------------------------------------------------------
# Fraction oracles: Hermite reduction and back substitution over Q
# ---------------------------------------------------------------------

def fraction_cols(lat):
    """The basis p^(-k) H of lat as Fraction columns."""
    f = Fraction(lat.p) ** -lat.k
    return tuple(tuple(x * f for x in c) for c in lat.H)


def _canonical_residue(x, p, a):
    """Canonical representative of x + p^a Z_(p): p^w * (unit mod p^(a-w))."""
    if x == 0:
        return Fraction(0)
    w = vp(x, p)
    if w >= a:
        return Fraction(0)
    u = x / Fraction(p) ** w
    mod = p ** (a - w)
    return Fraction(u.numerator * pow(u.denominator, -1, mod) % mod) * Fraction(p) ** w


def hermite_oracle(p, generators):
    """Canonical Fraction columns: pivot p^(a_j), entries above reduced."""
    cols = [[Fraction(x) for x in col] for col in generators]
    n = len(cols[0])
    placed = [None] * n
    for row in range(n - 1, -1, -1):
        live = [(vp(c[row], p), idx) for idx, c in enumerate(cols) if c[row]]
        if not live:
            raise ValueError("generators do not have full rank")
        v, best = min(live)
        pivot = cols.pop(best)
        u = pivot[row] / Fraction(p) ** v
        pivot = [x / u for x in pivot]
        for c in cols:
            t = c[row] / pivot[row]
            for r in range(n):
                c[r] -= t * pivot[r]
        placed[row] = pivot
    exps = [vp(placed[j][j], p) for j in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            e = placed[j][i]
            t = (e - _canonical_residue(e, p, exps[i])) / placed[i][i]
            for r in range(n):
                placed[j][r] -= t * placed[i][r]
    return tuple(tuple(c) for c in placed)


def contains_oracle(p, big_cols, small_cols):
    """Back substitution of each small column in the big basis over Q."""
    n = len(big_cols)
    for v in small_cols:
        coords = [Fraction(0)] * n
        for row in range(n - 1, -1, -1):
            t = v[row] - sum(big_cols[j][row] * coords[j] for j in range(row + 1, n))
            coords[row] = t / big_cols[row][row]
        if any(x and vp(x, p) < 0 for x in coords):
            return False
    return True


def _units(p):
    return st.integers(1, 30).filter(lambda u: u % p)


@st.composite
def generator_sets(draw, p, n, extra=2):
    """n to n+extra columns of rationals p^v * a/d with d prime to p."""
    m = draw(st.integers(n, n + extra))
    entry = st.builds(
        lambda a, v, d: Fraction(a * p ** max(v, 0), d * p ** max(-v, 0)),
        st.integers(-20, 20), st.integers(-3, 3), _units(p),
    )
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]


primes = st.sampled_from((2, 3, 5))
dims = st.integers(1, 3)


def _det(g):
    n = len(g)
    return sum(
        (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        * prod(g[i][perm[i]] for i in range(n))
        for perm in permutations(range(n))
    )


def test_lattice_canonical_form():
    lat = Lattice.from_cols(3, [[1, 0], [0, 1]])
    assert lat.pivot_exponents == (0, 0)
    assert lat.det_val == 0
    # redundant and rescaled generators canonicalize identically
    same = Lattice.from_cols(
        3, [[Fraction(2), Fraction(0)], [Fraction(5), Fraction(1)], [Fraction(3), Fraction(3)]]
    )
    assert same == lat
    shifted = lat.scale(2)
    assert shifted.det_val == 4
    again = Lattice.from_cols(3, fraction_cols(shifted))
    assert again == shifted


def test_lattice_errors():
    with pytest.raises(ValueError, match="prime"):
        Lattice.from_cols(4, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="full rank"):
        Lattice.from_cols(2, [[1, 0], [2, 0]])
    with pytest.raises(ValueError, match="no generators"):
        Lattice.from_cols(2, [])


def test_lattice_containment_and_quotient():
    lat = Lattice.from_cols(2, [[1, 0], [0, 1]])
    sub = Lattice.from_cols(2, [[2, 0], [0, 1]])
    assert contains_oracle(2, fraction_cols(lat), fraction_cols(sub))
    assert not contains_oracle(2, fraction_cols(sub), fraction_cols(lat))


def test_vertex_normalization():
    v = make_vertex(standard_vertex(3, 2).lat, 4)
    assert v.h == 4 and v.lat.det_val == 0
    # det valuation is folded into the height in steps of n
    w = make_vertex(v.lat.scale(3), 0)
    assert w.h == 6 and w.lat.det_val == 0
    odd = make_vertex(Lattice.from_cols(3, [[27, 0], [0, 9]]), 0)
    assert odd.h == 4 and odd.lat.det_val == 1


def test_out_edges_counts_and_heights():
    for p in (2, 3):
        for n in (2, 3):
            a = standard_vertex(p, n)
            edges = out_edges(a)
            assert len(edges) == sum(
                gaussian_binomial(n, d, p) for d in range(1, n)
            )
            for w, i in edges:
                assert 1 <= i <= n - 1
                assert w != a


def test_edges_up_are_reverse_of_out_edges():
    a = standard_vertex(3, 2)
    edges = out_edges(a)
    assert len(edges) == gaussian_binomial(2, 1, 3)
    for w, i in edges:
        # going up from a by dim 2 - i reaches w, whose own down-edges include a
        assert any(x == a and j == i for x, j in out_edges(w))


def edges_up_oracle(a):
    """Edges up by Hermite-reducing Lambda + p^(-1) E directly, height h + dim E."""
    lat, n, p = a.lat, a.n, a.p
    out = []
    for d in range(1, n):
        for rows in echelon_subspaces(n, d, p):
            gens = [[p * x for x in col] for col in lat.H]
            for w in rows:
                gens.append([sum(wk * lat.H[k][r] for k, wk in enumerate(w)) for r in range(n)])
            sup = Lattice.from_cols(p, gens, lat.k + 1)
            out.append((make_vertex(sup, a.h + d), d))
    return out


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_edges_up_matches_direct_reduction(n, p):
    # Lambda + p^(-1) E = p^(-1) (p*Lambda + E) and (L, h) ~ (p L, h - n), so the
    # edges up are the out_edges vertices, labelled by dim E = n - i
    for a in ball(standard_vertex(p, n), 1):
        assert [(w, n - i) for w, i in out_edges(a)] == edges_up_oracle(a)


def test_ball_sizes():
    a3 = standard_vertex(3, 2)
    assert [len(ball(a3, r)) for r in (0, 1, 2)] == [1, 5, 17]
    a2 = standard_vertex(2, 2)
    assert [len(ball(a2, r)) for r in (0, 1, 2)] == [1, 4, 10]
    # deterministic ordering
    assert ball(a3, 1) == ball(a3, 1)


@pytest.mark.parametrize("n, p, radius", [(2, 3, 3), (2, 2, 4), (3, 2, 2), (2, 5, 0), (1, 3, 2)])
def test_ball_edges_are_the_out_edges_of_the_ball(n, p, radius):
    a = standard_vertex(p, n)
    lists = ball_edges(a, radius)
    assert list(lists) == ball(a, radius)
    assert lists == {v: out_edges(v) for v in ball(a, radius)}


def test_descent_is_central_uniformizer():
    for p, n in ((2, 2), (3, 2), (2, 3)):
        a = BuildingVertex(standard_vertex(p, n).lat, 1)
        stepped = a
        for _ in range(n):
            stepped = descent(stepped)
        pid = [[p if i == j else 0 for j in range(n)] for i in range(n)]
        assert stepped == act(pid, 0, a)
        # uniformizer with its determinant valuation is the identity
        assert act(pid, n, a) == a


def test_act_is_edge_equivariant():
    a = standard_vertex(3, 2)
    g = [[1, 2], [1, 5]]
    image = {(act(g, 3, w), i) for w, i in out_edges(a)}
    assert image == set(out_edges(act(g, 3, a)))


def test_act_rejects_singular():
    a = standard_vertex(2, 2)
    with pytest.raises(ValueError, match="singular"):
        act([[1, 1], [1, 1]], 0, a)


def test_json_and_dot_smoke():
    a = standard_vertex(3, 2)
    d = a.json_dict()
    assert d["p"] == 3 and d["h"] == 0 and d["pivot_exponents"] == [0, 0]
    edges = [(a, w, i) for w, i in out_edges(a)]
    dot = to_dot([a] + [w for w, _ in out_edges(a)], edges)
    assert dot.startswith("digraph") and dot.count("->") == 4


@settings(max_examples=200, deadline=None)
@given(p=primes, n=dims, data=st.data())
def test_hermite_form_matches_fraction_oracle(p, n, data):
    gens = data.draw(generator_sets(p, n))
    try:
        want = hermite_oracle(p, gens)
    except ValueError:
        with pytest.raises(ValueError, match="full rank"):
            Lattice.from_cols(p, gens)
        return
    lat = Lattice.from_cols(p, gens)
    assert fraction_cols(lat) == want
    assert lat.pivot_exponents == tuple(vp(want[j][j], p) for j in range(n))
    assert any(x % p for col in lat.H for x in col)  # the least shift k
    # the shift argument and scale() move k alone
    t = data.draw(st.integers(-3, 3))
    assert Lattice.from_cols(p, gens, t) == lat.scale(-t)
    scaled = [[x * Fraction(p) ** t for x in c] for c in gens]
    assert fraction_cols(lat.scale(t)) == hermite_oracle(p, scaled)


@settings(max_examples=150, deadline=None)
@given(p=primes, n=dims, data=st.data())
def test_hermite_form_is_invariant_under_unimodular_ops(p, n, data):
    gens = data.draw(generator_sets(p, n))
    try:
        lat = Lattice.from_cols(p, gens)
    except ValueError:
        assume(False)
    cols = [list(c) for c in gens]
    z_p = st.builds(Fraction, st.integers(-9, 9), _units(p))
    unit = st.builds(lambda a, b, s: s * Fraction(a, b), _units(p), _units(p),
                     st.sampled_from((1, -1)))
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(st.sampled_from(("swap", "add", "unit", "append")))
        i = data.draw(st.integers(0, len(cols) - 1))
        j = data.draw(st.integers(0, len(cols) - 1))
        if op == "swap":
            cols[i], cols[j] = cols[j], cols[i]
        elif op == "add" and i != j:
            r = data.draw(z_p)
            cols[i] = [x + r * y for x, y in zip(cols[i], cols[j])]
        elif op == "unit":
            u = data.draw(unit)
            cols[i] = [u * x for x in cols[i]]
        elif op == "append":
            rs = [data.draw(z_p) for _ in cols]
            cols.append([sum(r * c[k] for r, c in zip(rs, cols)) for k in range(n)])
    assert Lattice.from_cols(p, cols) == lat


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from((2, 3)), n=st.integers(2, 3), data=st.data())
def test_act_is_edge_equivariant_on_random_vertices(p, n, data):
    a = data.draw(st.sampled_from(ball(standard_vertex(p, n), 1)))
    g = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(n)]
    assume(_det(g) != 0)
    d = data.draw(st.integers(-3, 3))
    image = {(act(g, d, w), i) for w, i in out_edges(a)}
    assert image == set(out_edges(act(g, d, a)))


def _neighbour_oracle(lat, rows):
    """p*Lambda + W canonicalized by from_cols on its n + d generators."""
    p, n, H = lat.p, lat.n, lat.H
    gens = [[p * x for x in col] for col in H]
    for w in rows:
        gens.append([sum(wk * H[k][r] for k, wk in enumerate(w)) for r in range(n)])
    return Lattice.from_cols(p, gens, lat.k)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from((2, 3)), n=st.integers(2, 4), data=st.data())
def test_neighbour_matches_generator_oracle(p, n, data):
    # a random vertex of the radius-2 ball, reached along oracle edges
    v = standard_vertex(p, n)
    for _ in range(data.draw(st.integers(0, 2))):
        d = data.draw(st.integers(1, n - 1))
        rows = data.draw(st.sampled_from(list(echelon_subspaces(n, d, p))))
        v = make_vertex(_neighbour_oracle(v.lat, rows), v.h - (n - d))
    for d in range(n + 1):
        for rows in echelon_subspaces(n, d, p):
            got, want = neighbour(v.lat, rows), _neighbour_oracle(v.lat, rows)
            assert (got.k, got.H, got.exps) == (want.k, want.H, want.exps)


@settings(max_examples=150, deadline=None)
@given(p=primes, n=dims, data=st.data())
def test_integer_entries_match_fraction_cols(p, n, data):
    gens = data.draw(generator_sets(p, n))
    try:
        lat = Lattice.from_cols(p, gens)
    except ValueError:
        return
    lat = lat.scale(data.draw(st.integers(-4, 4)))  # k of either sign
    want = tuple(tuple((x.numerator, x.denominator) for x in c) for c in fraction_cols(lat))
    assert lat.entries == want
    assert lat.sort_key() == tuple(x for c in want for x in c)
    cols = BuildingVertex(lat, 0).json_dict()["cols"]
    assert cols == [[str(x) for x in c] for c in fraction_cols(lat)]


@pytest.mark.parametrize("n, p, radius", [(2, 3, 3), (3, 2, 2), (3, 3, 1), (4, 2, 1)])
def test_ball_and_dot_order_is_the_fraction_order(n, p, radius):
    def fraction_key(v):
        return v.h, tuple((x.numerator, x.denominator) for c in fraction_cols(v.lat) for x in c)

    verts = ball(standard_vertex(p, n), radius)
    assert verts == sorted(verts, key=fraction_key)
    edges = [(v, w, i) for v in verts for w, i in out_edges(v) if w in set(verts)]
    dot = to_dot(list(reversed(verts)), edges)
    labels = [line for line in dot.splitlines() if "label=\"h=" in line]
    assert labels == [
        f'  v{k} [label="h={v.h} piv=[{",".join(map(str, v.lat.pivot_exponents))}]"];'
        for k, v in enumerate(sorted(verts, key=fraction_key))
    ]
