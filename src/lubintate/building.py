"""Vertices and oriented simplices of the lattice cell complex.

A vertex is a pair [Lambda, h]: a Z_(p)-lattice in Q^n up to the relation
(Lambda, h) ~ (p Lambda, h - n); h records the power of the division
algebra uniformizer on the second factor.  We normalize by scaling the
lattice so its determinant valuation lies in {0, ..., n-1} and adjusting h
by n per scaling step.

Lattices are held in canonical column Hermite form over Z_(p): upper
triangular, pivot p^(a_j) in row j of column j, entries above a pivot
reduced to the canonical residue mod p^(a_j).  Two lattices are equal iff
their canonical forms are identical tuples, which makes vertex identity,
BFS balls, and gluing checks exact.

The sign convention for h along an oriented edge b -> c (realized as
Lambda_b < Lambda_c inside p^(-1) Lambda_b) is h_c = h_b +
EDGE_HEIGHT_SIGN * dim(Lambda_c / Lambda_b).  Only +1 makes edge reversal
and simplex rotation land back on the same vertices; the constant is
exposed for experiments but the test suite pins +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fqlin import echelon_subspaces
from .valuations import _is_prime, vp

EDGE_HEIGHT_SIGN = 1


def _unit_parts(x: Fraction, p: int):
    """x = p^v * (num/den) with num, den coprime to p; returns (v, num, den)."""
    v = vp(x, p)
    u = x / Fraction(p) ** v
    return v, u.numerator, u.denominator


def _canonical_residue(x: Fraction, p: int, a: int) -> Fraction:
    """Canonical representative of x + p^a Z_(p): p^w * (unit mod p^(a-w))."""
    if x == 0:
        return Fraction(0)
    w, num, den = _unit_parts(x, p)
    if w >= a:
        return Fraction(0)
    mod = p ** (a - w)
    r = (num * pow(den, -1, mod)) % mod
    return Fraction(r) * Fraction(p) ** w


class Lattice:
    """Full-rank Z_(p)-lattice in Q^n, canonical Hermite column form."""

    __slots__ = ("p", "n", "cols")

    def __init__(self, p: int, n: int, cols: tuple):
        # internal: cols assumed canonical; use from_cols to build
        self.p = p
        self.n = n
        self.cols = cols

    @classmethod
    def from_cols(cls, p: int, generators) -> "Lattice":
        """Canonicalize a generating set (>= n rational columns of rank n)."""
        if not _is_prime(p):
            raise ValueError("p must be prime")
        gens = [[Fraction(x) for x in col] for col in generators]
        if not gens:
            raise ValueError("no generators")
        n = len(gens[0])
        if any(len(c) != n for c in gens):
            raise ValueError("ragged generator list")
        cols = [list(c) for c in gens]
        placed = [None] * n
        for row in range(n - 1, -1, -1):
            best = None
            for idx, c in enumerate(cols):
                v = vp(c[row], p)
                if v is not None and (best is None or v < cols_v):
                    best, cols_v = idx, v
            if best is None:
                raise ValueError("generators do not have full rank")
            pivot = cols.pop(best)
            u = pivot[row] / Fraction(p) ** cols_v
            pivot = [x / u for x in pivot]
            for c in cols:
                if c[row] != 0:
                    t = c[row] / pivot[row]
                    for r in range(n):
                        c[r] -= t * pivot[r]
            placed[row] = pivot
        # reduce entries above each pivot to canonical residues
        pivot_exp = [vp(placed[j][j], p) for j in range(n)]
        for j in range(n):
            for i in range(j - 1, -1, -1):
                e = placed[j][i]
                rep = _canonical_residue(e, p, pivot_exp[i])
                t = (e - rep) / placed[i][i]
                for r in range(n):
                    placed[j][r] -= t * placed[i][r]
        return cls(p, n, tuple(tuple(c) for c in placed))

    @property
    def pivot_exponents(self):
        return tuple(vp(self.cols[j][j], self.p) for j in range(self.n))

    @property
    def det_val(self) -> int:
        return sum(self.pivot_exponents)

    def scale(self, k: int) -> "Lattice":
        f = Fraction(self.p) ** k
        return Lattice(
            self.p, self.n, tuple(tuple(x * f for x in c) for c in self.cols)
        )

    def basis_vectors(self):
        """Columns as vectors (v[r] = cols[j][r])."""
        return [list(c) for c in self.cols]

    def solve_coords(self, vector):
        """Coordinates of a vector in the column basis (back substitution)."""
        v = [Fraction(x) for x in vector]
        n = self.n
        coords = [Fraction(0)] * n
        for row in range(n - 1, -1, -1):
            t = (v[row] - sum(self.cols[j][row] * coords[j] for j in range(row + 1, n)))
            coords[row] = t / self.cols[row][row]
        return coords

    def contains(self, other: "Lattice") -> bool:
        return all(
            (vp(x, self.p) or 0) >= 0
            for col in other.cols
            for x in self.solve_coords(col)
        )

    def quotient_dim(self, sub: "Lattice") -> int:
        """dim_{F_p}(self / sub) for sub contained in self with p*self ⊆ sub."""
        d = sub.det_val - self.det_val
        if d < 0:
            raise ValueError("not a sublattice")
        return d

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and (self.p, self.n, self.cols) == (other.p, other.n, other.cols)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.cols))

    def __repr__(self) -> str:
        return f"Lattice(p={self.p}, cols={self.cols})"

    def sort_key(self):
        return tuple(
            (x.numerator, x.denominator) for col in self.cols for x in col
        )


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
            "cols": [[str(x) for x in col] for col in self.lat.cols],
        }


def make_vertex(lat_or_gens, h: int, p: int | None = None) -> BuildingVertex:
    """Normalize (Lambda, h): scale det valuation into {0..n-1}, h += t*n."""
    if isinstance(lat_or_gens, Lattice):
        lat = lat_or_gens
    else:
        if p is None:
            raise ValueError("p required when passing raw generators")
        lat = Lattice.from_cols(p, lat_or_gens)
    n = lat.n
    t = lat.det_val // n
    if t:
        lat = Lattice.from_cols(lat.p, lat.scale(-t).cols)
    return BuildingVertex(lat, h + t * n)


def standard_vertex(p: int, n: int, h: int = 0) -> BuildingVertex:
    cols = [[Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)]
    return make_vertex(cols, h, p)


def _lift_rows(lat: Lattice, rows, scale_exp: int = 0):
    """Lift F_p row vectors through the basis p^(scale_exp) * cols."""
    f = Fraction(lat.p) ** scale_exp
    out = []
    for w in rows:
        vec = [Fraction(0)] * lat.n
        for k, wk in enumerate(w):
            if wk:
                for r in range(lat.n):
                    vec[r] += wk * lat.cols[k][r] * f
        out.append(vec)
    return out


def out_edges(a: BuildingVertex):
    """Edges a' -> a: classes of p*Lambda + W for proper nonzero W in Lambda/p.

    Returns (a', i) with i = dim(Lambda / Lambda') = n - dim W and
    h' = h - EDGE_HEIGHT_SIGN * i.
    """
    lat, n, p = a.lat, a.n, a.p
    scaled = [list(c) for c in lat.scale(1).cols]
    out = []
    for d in range(1, n):
        for rows in echelon_subspaces(n, d, p):
            gens = scaled + _lift_rows(lat, rows)
            i = n - d
            out.append((make_vertex(gens, a.h - EDGE_HEIGHT_SIGN * i, p), i))
    return out


def edges_up(a: BuildingVertex):
    """Edges a -> a'': classes of Lambda + p^(-1) E for E in p^(-1)Lambda/Lambda."""
    lat, n, p = a.lat, a.n, a.p
    base = [list(c) for c in lat.cols]
    out = []
    for d in range(1, n):
        for rows in echelon_subspaces(n, d, p):
            gens = base + _lift_rows(lat, rows, scale_exp=-1)
            out.append((make_vertex(gens, a.h + EDGE_HEIGHT_SIGN * d, p), d))
    return out


def act(g, d_val: int, a: BuildingVertex) -> BuildingVertex:
    """Left action: lattice g^(-1) Lambda, h + d_val, renormalized."""
    ginv = _rational_inverse(g)
    cols = [
        [sum(ginv[r][k] * col[k] for k in range(a.n)) for r in range(a.n)]
        for col in a.lat.cols
    ]
    return make_vertex(cols, a.h + d_val, a.p)


def descent(a: BuildingVertex) -> BuildingVertex:
    """One application of the inverse-uniformizer twist: h drops by 1."""
    return BuildingVertex(a.lat, a.h - 1)


def _rational_inverse(g):
    rows = [[Fraction(x) for x in r] for r in g]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    aug = [r + [Fraction(1 if i == j else 0) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [r[n:] for r in aug]


def ball(a: BuildingVertex, radius: int):
    """Breadth-first closure under out_edges; sorted deterministically."""
    seen = {a}
    frontier = [a]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w, _ in out_edges(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen, key=lambda v: v.sort_key())


class OrientedSimplex:
    """Chain Lambda_0 < ... < Lambda_r < p^(-1) Lambda_0 with a base height.

    Vertex j of the simplex is [Lambda_j, h_0 + sign * dim(Lambda_j/Lambda_0)].
    Rotation moves the base point one step along the chain; r+1 rotations
    return the original simplex (as vertex classes).
    """

    __slots__ = ("chain", "h0")

    def __init__(self, chain, h0: int):
        chain = list(chain)
        if not chain:
            raise ValueError("empty chain")
        p = chain[0].p
        for sub, sup in zip(chain, chain[1:]):
            if not sup.contains(sub) or sup == sub:
                raise ValueError("chain must be strictly increasing")
        top = Lattice.from_cols(p, chain[0].scale(-1).cols)
        if not top.contains(chain[-1]) or top == chain[-1]:
            raise ValueError("chain must stay strictly inside p^(-1) Lambda_0")
        self.chain = tuple(chain)
        self.h0 = h0

    @property
    def dim(self) -> int:
        return len(self.chain) - 1

    def vertices(self):
        base = self.chain[0]
        out = []
        for lam in self.chain:
            d = lam_dim(base, lam)
            out.append(make_vertex(lam, self.h0 + EDGE_HEIGHT_SIGN * d))
        return tuple(out)

    def rotate(self) -> "OrientedSimplex":
        base = self.chain[0]
        nxt = self.chain[1] if len(self.chain) > 1 else None
        shifted = Lattice.from_cols(base.p, base.scale(-1).cols)
        if nxt is None:
            return OrientedSimplex([shifted], self.h0 + EDGE_HEIGHT_SIGN * lam_dim(base, shifted))
        new_chain = list(self.chain[1:]) + [shifted]
        new_h0 = self.h0 + EDGE_HEIGHT_SIGN * lam_dim(base, nxt)
        return OrientedSimplex(new_chain, new_h0)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrientedSimplex) and self.vertices() == other.vertices()

    def __hash__(self):
        return hash(self.vertices())


def lam_dim(sub: Lattice, sup: Lattice) -> int:
    """dim(sup/sub) for sub ⊆ sup (difference of determinant valuations)."""
    d = sub.det_val - sup.det_val
    if d < 0:
        raise ValueError("arguments are not nested")
    return d


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
