"""Vertices and edges of the lattice cell complex.

A vertex is a pair [Lambda, h]: a Z_(p)-lattice in Q^n up to the relation
(Lambda, h) ~ (p Lambda, h - n); h records the power of the division
algebra uniformizer on the second factor.  We normalize by scaling the
lattice so its determinant valuation lies in {0, ..., n-1} and adjusting h
by n per scaling step.

A lattice is held as a shift k and an integer Hermite form H (Cohen, A
Course in Computational Algebraic Number Theory, 2.4.2, over Z_(p)):
Lambda = p^(-k) * span(columns of H), H upper triangular with pivot
p^(e_j) in row j of column j, entries above pivot i in [0, p^(e_i)), and k
the least shift that makes H integral.  This form is unique, so two
lattices are equal iff their (k, H) agree, which makes vertex identity,
BFS balls, and gluing checks exact integer comparisons.  Scaling by p^t
changes k alone.  A neighbour p Lambda + W is p^(-k) H M, M the form of
p Z^n + W, reduced above its pivots: no elimination (see neighbour).

The height along an oriented edge b -> c (realized as Lambda_b < Lambda_c
inside p^(-1) Lambda_b) rises by the dimension: h_c = h_b +
dim(Lambda_c / Lambda_b).  This is the sign that makes edge reversal
land back on the same vertices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd, lcm

from .fqlin import echelon_subspaces, gaussian_binomial, rational_inverse
from .valuations import _is_prime, vp


class Lattice:
    """Full-rank Z_(p)-lattice p^(-k) * span(H) in Q^n, H in Hermite form.

    H is a tuple of n integer columns: column j has the pivot p^(e_j) in
    row j, entries in [0, p^(e_i)) in the rows i < j and zeros below; some
    entry of H is a p-adic unit.  `exps` holds the e_j.
    """

    __slots__ = ("p", "n", "k", "H", "exps")

    def __init__(self, p: int, n: int, k: int, H: tuple, exps: tuple):
        # internal: (k, H) assumed canonical; use from_cols to build
        self.p = p
        self.n = n
        self.k = k
        self.H = H
        self.exps = exps

    @classmethod
    def from_cols(cls, p: int, generators, shift: int = 0) -> "Lattice":
        """Canonicalize p^(-shift) * span(generators).

        The generators are >= n columns of ints or Fractions, of rank n.
        """
        if not _is_prime(p):
            raise ValueError("p must be prime")
        gens = list(generators)
        if not gens:
            raise ValueError("no generators")
        n = len(gens[0])
        if any(len(c) != n for c in gens):
            raise ValueError("ragged generator list")
        # clear denominators: the prime-to-p part of den is a unit of Z_(p)
        den = lcm(*(x.denominator for c in gens for x in c))
        cols = [[int(x * den) for x in c] for c in gens]
        shift += vp(den, p)
        placed = [None] * n
        for row in range(n - 1, -1, -1):
            best = None
            for idx, c in enumerate(cols):
                if c[row]:
                    v = vp(c[row], p)
                    if best is None or v < best_v:
                        best, best_v = idx, v
            if best is None:
                raise ValueError("generators do not have full rank")
            pivot = cols.pop(best)
            x = pivot[row]
            for c in cols:
                if c[row]:
                    g = gcd(x, c[row])
                    u, w = x // g, c[row] // g  # u is a unit: v(x) <= v(c[row])
                    for r in range(row + 1):
                        c[r] = u * c[r] - w * pivot[r]
            placed[row] = pivot
        # span(placed) contains p^(sum e) Z_(p)^n: columns may be taken mod p^(sum e)
        exps = [vp(placed[j][j], p) for j in range(n)]
        mod = p ** sum(exps)
        for j, col in enumerate(placed):
            t = pow(col[j] // p ** exps[j], -1, mod)
            col[:j] = [t * x % mod for x in col[:j]]
            col[j] = p ** exps[j]
        return _hermite_tail(p, placed, exps, shift)

    @property
    def entries(self):
        """The basis p^(-k) H as columns of reduced (numerator, denominator) pairs."""
        if self.k <= 0:
            m = self.p ** -self.k
            return tuple(tuple((x * m, 1) for x in c) for c in self.H)
        d = self.p ** self.k  # gcd(x, d) = p^min(v(x), k), and d for x = 0
        return tuple(tuple((x // g, d // g) for x in c for g in (gcd(x, d),)) for c in self.H)

    @property
    def pivot_exponents(self):
        return tuple(e - self.k for e in self.exps)

    @property
    def det_val(self) -> int:
        return sum(self.exps) - self.n * self.k

    def scale(self, t: int) -> "Lattice":
        """p^t * Lambda: the same Hermite form under another shift."""
        return Lattice(self.p, self.n, self.k - t, self.H, self.exps)

    def solve_coords(self, vector, shift: int):
        """Coordinates of p^(-shift) * vector (integers) in the basis p^(-k) H.

        Returns (E, c) with E >= 0 and c = p^E * coordinates, integers: back
        substitution is exact on p^(sum e) H^(-1) = adj(H).
        """
        p, n, H = self.p, self.n, self.H
        top = sum(self.exps)
        big = p ** top
        c = [0] * n
        for row in range(n - 1, -1, -1):
            t = vector[row] * big - sum(H[j][row] * c[j] for j in range(row + 1, n))
            c[row] = t // H[row][row]
        E = top + shift - self.k
        if E < 0:
            return 0, [x * p ** -E for x in c]
        return E, c

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and (self.p, self.n, self.k, self.H) == (other.p, other.n, other.k, other.H)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.k, self.H))

    def __repr__(self) -> str:
        return f"Lattice(p={self.p}, k={self.k}, H={self.H})"

    def sort_key(self):
        return tuple(x for col in self.entries for x in col)


@dataclass(frozen=True)
class BuildingVertex:
    lat: Lattice
    h: int

    @property
    def n(self) -> int:
        return self.lat.n

    @property
    def p(self) -> int:
        return self.lat.p

    def sort_key(self):
        return (self.h, self.lat.sort_key())

    def json_dict(self):
        return {
            "n": self.n,
            "p": self.p,
            "h": self.h,
            "pivot_exponents": list(self.lat.pivot_exponents),
            "cols": [[f"{a}/{b}" if b != 1 else str(a) for a, b in col]
                     for col in self.lat.entries],
        }


def make_vertex(lat: Lattice, h: int) -> BuildingVertex:
    """Normalize (Lambda, h): scale det valuation into {0..n-1}, h += t*n."""
    t = lat.det_val // lat.n
    return BuildingVertex(lat.scale(-t), h + t * lat.n)


def standard_vertex(p: int, n: int) -> BuildingVertex:
    """[Z_(p)^n, 0]."""
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    return make_vertex(Lattice.from_cols(p, cols), 0)


@functools.cache
def proper_subspaces(n: int, p: int):
    """(d, rows) for every nonzero proper subspace of F_p^n, by dimension d.

    The list depends on (n, p) alone, so it is enumerated once for them.
    """
    return tuple((d, rows) for d in range(1, n) for rows in echelon_subspaces(n, d, p))


@functools.cache
def _subspace_form(p: int, n: int, rows):
    """Hermite form of p*Z^n + W: (k, exps, nonzero (row, entry) pairs per column)."""
    gens = [[p if i == j else 0 for i in range(n)] for j in range(n)]
    M = Lattice.from_cols(p, gens + [list(w) for w in rows])
    return M.k, M.exps, tuple(tuple((r, x) for r, x in enumerate(c) if x) for c in M.H)


def neighbour(lat: Lattice, rows) -> Lattice:
    """p*Lambda + W, W spanned by the lifts of F_p rows (coordinates in H).

    This is p^(-k) * span(H M), M the Hermite form of p*Z^n + W, computed once
    per (p, n, W).  H M is upper triangular with pivots p^(e_j + f_j), so only
    the reduction above the pivots and the strip of its content remain.
    """
    H = lat.H
    shift, f, M = _subspace_form(lat.p, lat.n, tuple(map(tuple, rows)))
    cols = []
    for (l, c), *rest in M:
        col = [c * x for x in H[l]]
        for l, c in rest:
            col = [x + c * y for x, y in zip(col, H[l])]
        cols.append(col)
    return _hermite_tail(lat.p, cols, [e + fj for e, fj in zip(lat.exps, f)], lat.k + shift)


def _hermite_tail(p: int, cols, exps, k: int) -> Lattice:
    """Hermite form of p^(-k) * span(cols), cols upper triangular with pivots p^(e_j)."""
    placed = []
    for col in cols:
        for i in range(len(placed) - 1, -1, -1):
            q = col[i] // placed[i][i]
            if q:
                col = [x - q * y for x, y in zip(col, placed[i])]
        placed.append(col)
    if min(exps):  # strip the content p^m into k; a unit pivot makes it 1
        m = vp(gcd(*(x for c in placed for x in c)), p)
        placed = [[x // p ** m for x in c] for c in placed]
        exps = [e - m for e in exps]
        k -= m
    return Lattice(p, len(placed), k, tuple(map(tuple, placed)), tuple(exps))


def out_edges(a: BuildingVertex):
    """Edges a' -> a: classes of p*Lambda + W for proper nonzero W in Lambda/p.

    Returns (a', i) with i = dim(Lambda / Lambda') = n - dim W and h' = h - i,
    one pair per W in the order of proper_subspaces(n, p).
    """
    lat, n = a.lat, a.n
    return [(make_vertex(neighbour(lat, rows), a.h - n + d), n - d)
            for d, rows in proper_subspaces(n, a.p)]


def act(g, d_val: int, a: BuildingVertex) -> BuildingVertex:
    """Left action: lattice g^(-1) Lambda, h + d_val, renormalized."""
    ginv, _ = rational_inverse(g)
    cols = [
        [sum(ginv[r][k] * col[k] for k in range(a.n)) for r in range(a.n)]
        for col in a.lat.H
    ]
    return make_vertex(Lattice.from_cols(a.p, cols, a.lat.k), a.h + d_val)


def descent(a: BuildingVertex) -> BuildingVertex:
    """One application of the inverse-uniformizer twist: h drops by 1."""
    return BuildingVertex(a.lat, a.h - 1)


BALL_WORK_BUDGET = 300_000  # the most neighbour lattices a ball and its out-edges may need


def ball(a: BuildingVertex, radius: int):
    """Breadth-first closure under out_edges; sorted deterministically.

    Each vertex has S = sum_d [n choose d]_p out-edges, so the ball holds at
    most 1 + S + ... + S^radius vertices, and walking the out-edges of all of
    them, as `building` and `cells complex` do, takes about S (1 + S + ... +
    S^radius) neighbour lattices.  A radius whose work bound exceeds
    BALL_WORK_BUDGET is refused before the search starts, radius 0 included.
    """
    return sorted(_walk(a, radius), key=BuildingVertex.sort_key)


def ball_edges(a: BuildingVertex, radius: int):
    """{v: out_edges(v)} over ball(a, radius), in its order, reusing the walk's lists."""
    walked = _walk(a, radius)
    return {v: walked[v] or out_edges(v) for v in sorted(walked, key=BuildingVertex.sort_key)}


def _walk(a: BuildingVertex, radius: int):
    """The ball as {v: out_edges(v) inside the radius, None on its outer shell}."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    strata = sum(gaussian_binomial(a.n, d, a.p) for d in range(1, a.n))
    work = term = strata
    # with S >= 1 the work passes the budget within a few steps; with S = 0 (n = 1) it is 0
    for _ in range(min(radius, BALL_WORK_BUDGET)):
        if work > BALL_WORK_BUDGET:
            break
        term *= strata
        work += term
    if work > BALL_WORK_BUDGET:
        raise ValueError(
            f"a radius-{radius} ball at n = {a.n}, p = {a.p} and its out-edges may need more "
            f"than {BALL_WORK_BUDGET} neighbour lattices (S (1 + S + ... + S^{radius}), S = {strata})"
        )
    seen = {a: None}
    frontier = [a]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            seen[v] = out_edges(v)
            for w, _ in seen[v]:
                if w not in seen:
                    seen[w] = None
                    nxt.append(w)
        frontier = nxt
    return seen


def to_dot(vertices, edges) -> str:
    """Deterministic DOT digraph; edges are (source_vertex, target_vertex, i)."""
    order = {v: k for k, v in enumerate(sorted(vertices, key=lambda v: v.sort_key()))}
    lines = ["digraph building {"]
    for v, k in order.items():
        pe = ",".join(str(e) for e in v.lat.pivot_exponents)
        lines.append(f'  v{k} [label="h={v.h} piv=[{pe}]"];')
    body = []
    for src, dst, i in edges:
        body.append(f"  v{order[src]} -> v{order[dst]} [label=\"{i}\"];")
    lines.extend(sorted(body))
    lines.append("}")
    return "\n".join(lines)
