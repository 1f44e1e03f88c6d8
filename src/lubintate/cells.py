"""Polydisk cells over lattice vertices and their boundary gluing.

A cell is a building vertex and a principal congruence level m >= 1.  Every
cell has the same polygon bound cutting out the good-reduction locus, the
fully ramified CM polygon gh_boundary_polygon(n, p), which each canonical
quotient maps to itself; so a cell does not carry it, and a complex writes
it once.  A boundary stratum is a nonzero proper subspace E of
pi^(-1)Lambda/Lambda, held as its reduced row-echelon basis over F_p
(coordinates taken in the basis p^(-1-k) H of pi^(-1)Lambda, where
Lambda = p^(-k) H is the vertex's Hermite form); its rank is len(E).
Gluing a stratum crosses to the vertex of the preimage lattice p^(-1)(E);
the matched stratum on the far side is the image of pi^(-1)Lambda, and
gluing twice is the identity on strata, so assemble_complex finds it as the
far stratum whose out-edge leads back.  Only glue_edge computes the
transition matrix T, the mod-p coordinate map between the two
pi-quotients, read off integer back substitution in the two Hermite forms;
composing transitions along a 2-simplex and comparing against the direct
glue is the cocycle check.  All of it is exact F_p linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .building import (
    BuildingVertex,
    make_vertex,
    neighbour,
    out_edges,
    proper_subspaces,
)
from .fqlin import (
    echelon_subspaces,
    image_rows,
    kernel_basis,
    mat_mul,
    mat_vec,
    rref,
    span_contains,
)
from .hecke import canonical_quotient
from .polygon import gh_boundary_polygon


class LevelError(ValueError):
    """Congruence level too coarse for the requested boundary operation."""


@dataclass(frozen=True)
class Cell:
    vertex: BuildingVertex
    level: int


def check_level(level: int, n: int) -> None:
    """Refuse a congruence level too coarse for cells of rank-n lattices.

    Every cell needs level >= 1.  Once n > 1 its proper strata glue, and
    the stabilizer condition of every proper stratum is level >= 2 (see
    glue_edge).
    """
    if level < 1:
        raise LevelError("cells require principal level >= 1")
    if n > 1 and level < 2:
        raise LevelError(
            f"level {level} too coarse: stabilizer condition fails by p^{2 - level}"
        )


def make_cell(vertex: BuildingVertex, level: int) -> Cell:
    check_level(level, 1)
    return Cell(vertex, level)


def full_flags(cell: Cell):
    """Complete flags E_1 < E_2 < ... < E_{n-1} of boundary subspaces."""
    n, p = cell.vertex.n, cell.vertex.p

    def extend(flag, d):
        if d == n:
            yield tuple(flag)
            return
        for rows in echelon_subspaces(n, d, p):
            if flag and not span_contains(rows, flag[-1], p):
                continue
            yield from extend(flag + [rows], d + 1)

    return list(extend([], 1))


def _mod_p_matrix(coords, p: int):
    """Transpose solve_coords results into mod-p rows; entries must be p-integral."""
    cols = []
    for E, col in coords:
        if any(x % p ** E for x in col):
            raise ArithmeticError("non-integral transition entry")
        cols.append([x // p ** E % p for x in col])
    return tuple(zip(*cols))


def _image_with_kernel(T, E, p: int):
    """T's image, its columns echelonized as rows, once ker T = span E is checked.

    ker T = span E holds exactly when T kills every row of E and rank T =
    n - dim E.  For E a reduced row-echelon basis, as every stratum is, that
    is kernel_basis(T, p) == E, tested with the one elimination that gives
    the image.
    """
    star = rref(zip(*T), p)[0]
    if len(star) != len(T) - len(E) or any(any(mat_vec(T, e, p)) for e in E):
        raise ArithmeticError("transition kernel does not match the stratum")
    return star


def glue_edge(cell: Cell, E: tuple):
    """Cross the stratum E of cell: (far cell, matched far stratum, transition T).

    T = B'^(-1) B mod p is the n x n mod-p matrix, rows over F_p, with kernel
    span E, and the matched stratum is its image.  Only this function
    computes T; assemble_complex finds the same stratum by the involution.
    E must be a reduced row-echelon basis.  The far lattice is Lambda' =
    Lambda + p^(-1) E; the congruence level m must satisfy p^m End(Lambda) c
    p End(Lambda') (two-sided stabilizer condition).  It fails by
    p^(1 - m - a - b), a and b the least valuations of the coordinates of
    Lambda in Lambda' and of Lambda' in Lambda.  As Lambda < Lambda' <
    p^(-1) Lambda strictly, a = 0 and b = -1 for every proper stratum, so
    the condition is m >= 2: assemble_complex checks it once.

    The far cell needs no boundary polygon of its own because the rank-len(E)
    canonical quotient fixes gh_boundary_polygon(n, p); that is checked here,
    and it refuses ranks 0 and n.
    """
    vtx, lat, p = cell.vertex, cell.vertex.lat, cell.vertex.p
    check_level(cell.level, vtx.n)
    far = neighbour(lat, E).scale(-1)
    T = _mod_p_matrix([far.solve_coords(col, lat.k) for col in lat.H], p)
    star = _image_with_kernel(T, E, p)
    if rref(E, p)[0] != E:  # the kernel test holds only for RREF bases
        raise ArithmeticError("transition kernel does not match the stratum")
    bound = gh_boundary_polygon(vtx.n, p)
    if canonical_quotient(bound, len(E)).image != bound:
        raise ArithmeticError(f"the rank-{len(E)} canonical quotient moves the boundary polygon")
    return Cell(make_vertex(far, vtx.h + len(E)), cell.level), star, T


def cocycle_check(cell: Cell, inner, outer, corruption=None) -> bool:
    """Composing the inner glue then the quotient glue equals the direct glue.

    inner and outer are boundary subspaces of the same cell with
    span(inner) contained in span(outer).  Equal spans are the degenerate
    triangle: trivially true.  `corruption` (an invertible mod-p matrix)
    is inserted into the intermediate relabeling to exercise the negative
    direction; any nontrivial corruption must break the comparison.

    The composite's kernel is tested; its image equals the direct glue's
    once the composite equals the direct transition, whose kernel and image
    glue_edge checked.
    """
    p, n = cell.vertex.p, cell.vertex.n
    if corruption is not None and (len(corruption) != n or len(rref(corruption, p)[0]) != n):
        raise ValueError("corruption must be an invertible n x n mod-p matrix")
    inner_r = rref(inner, p)[0]
    outer_r = rref(outer, p)[0]
    if not span_contains(outer_r, inner_r, p):
        raise ValueError("inner stratum must sit inside the outer one")
    if inner_r == outer_r:
        return True

    direct_cell, _, direct_T = glue_edge(cell, outer_r)
    mid_cell, mid_star, relabel = glue_edge(cell, inner_r)
    if corruption is not None:
        relabel = mat_mul(corruption, relabel, p)
    mid_sub = image_rows(relabel, outer_r, p)
    if not span_contains(mid_star, mid_sub, p):
        return False
    far_cell, _, step2_T = glue_edge(mid_cell, mid_sub)
    if far_cell.vertex != direct_cell.vertex:
        return False
    composite = mat_mul(step2_T, relabel, p)
    if kernel_basis(composite, p) != outer_r:
        return False
    return composite == direct_T


@dataclass(frozen=True)
class GluedEdge:
    cell_a: int
    subspace_a: tuple
    cell_b: int
    subspace_b: tuple
    rank: int


@dataclass(frozen=True)
class CellComplex:
    level: int
    cells: tuple
    edges: tuple
    dangling: tuple

    def to_json_dict(self):
        """The complex as JSON, its cells' one boundary constraint written once.

        The constraint is gh_boundary_polygon(n, p) for the cells' one (n, p).
        Subspaces stay tuples of row tuples, which encode as arrays.
        """
        shapes = {(c.vertex.n, c.vertex.p) for c in self.cells}
        if len(shapes) > 1:
            raise ValueError("the cells do not share one boundary constraint")
        return {
            "level": self.level,
            "constraint": gh_boundary_polygon(*shapes.pop()).to_json_dict() if shapes else None,
            "cells": [{"vertex": c.vertex.json_dict()} for c in self.cells],
            "edges": [
                {
                    "a": e.cell_a,
                    "b": e.cell_b,
                    "rank": e.rank,
                    "subspace_a": e.subspace_a,
                    "subspace_b": e.subspace_b,
                }
                for e in self.edges
            ],
            "dangling": [
                {"cell": ci, "rank": r, "subspace": rows}
                for ci, r, rows in self.dangling
            ],
        }


def assemble_complex(vertices, level: int = 2) -> CellComplex:
    """Cells over an explicit vertex set, glued along strata joining them.

    Each unordered glued pair of boundary strata contributes one edge.
    A stratum E whose out-edge vertex (glue_edge's far vertex) falls outside
    the set is dangling; by the involution, E's matched stratum is the far
    stratum whose out-edge leads back, an ArithmeticError if none does.  No
    T, far cell or polygon is built: a cell is its vertex and level.
    """
    verts = sorted(set(vertices), key=lambda v: v.sort_key())
    index = {v: k for k, v in enumerate(verts)}
    check_level(level, max((v.n for v in verts), default=1))
    cells = tuple(Cell(v, level) for v in verts)
    edges = []
    dangling = []
    waiting = {}  # (ci, cj) -> the stratum of cell ci < cj leading to cj, until cj's comes
    for ci, vtx in enumerate(verts):
        for (rank, E), (far, _) in zip(proper_subspaces(vtx.n, vtx.p), out_edges(vtx)):
            cj = index.get(far)
            if cj is None:
                dangling.append((ci, rank, E))
            elif ci < cj:
                if waiting.setdefault((ci, cj), E) is not E:
                    raise ArithmeticError(f"two strata of cell {ci} lead to cell {cj}")
            elif (cj, ci) in waiting:
                edges.append(GluedEdge(cj, waiting.pop((cj, ci)), ci, E, min(rank, vtx.n - rank)))
            else:
                raise ArithmeticError(f"a stratum of cell {ci} leads to cell {cj}, not back")
    if waiting:
        raise ArithmeticError(f"{len(waiting)} glued strata have no stratum leading back")
    ordered = tuple(sorted(edges, key=lambda e: (e.cell_a, e.cell_b, e.subspace_a)))
    return CellComplex(level, cells, ordered, tuple(dangling))


# ---------------------------------------------------------------------
# integral structure of a boundary stratum
# ---------------------------------------------------------------------

# box cells that `cells generators` may visit in saturation_check; (n, i) =
# (120, 1) visits 1.6e7 in 0.64 s (Python 3.11, shared 2-vCPU machine)
GENERATORS_WORK_BUDGET = 2 * 10 ** 7


def check_generators_budget(n: int, i: int) -> None:
    """Refuse, before any work, an (n, i) whose saturation_check would visit
    more than GENERATORS_WORK_BUDGET box cells: with g = gcd(n, i), the
    largest e_k is n/g, and the box is filled once for each of the
    (n - i)/g + 1 generators and read once more."""
    if not 1 <= i <= n - 1:
        raise ValueError("need 1 <= i <= n-1")
    g = gcd(n, i)
    a_max = 2 * n // g + n
    if ((n - i) // g + 2) * (a_max + 1) * (a_max * (n - i) // n + 2) > GENERATORS_WORK_BUDGET:
        raise ValueError(f"cells generators at n = {n}, i = {i} would visit more than "
                         f"{GENERATORS_WORK_BUDGET} saturation cells")


def integral_generators(n: int, i: int):
    """Generators (e_k, k) of the monoid {(a, b) : a(n-i) >= b n} over (1, 0).

    e_k = ceil(k n / (n - i)) for k = 1 .. (n-i)/gcd(n, i); the valuation
    e_k (1 - i/n) - k is >= 0 because e_k (n - i) >= k n, and the list,
    together with (1, 0), generates the full saturated monoid.
    """
    if not 1 <= i <= n - 1:
        raise ValueError("need 1 <= i <= n-1")
    top = (n - i) // gcd(n, i)
    return [(-((-k * n) // (n - i)), k) for k in range(1, top + 1)]


def saturation_check(n: int, i: int) -> bool:
    """Brute force: the monoid generated by (1,0) and integral_generators
    covers every (a, b) with a(n-i) >= bn inside a box."""
    gens = [(1, 0)] + integral_generators(n, i)
    a_max = 2 * max(e for e, _ in gens) + n
    b_max = (a_max * (n - i)) // n + 1
    reach = [[False] * (b_max + 1) for _ in range(a_max + 1)]
    reach[0][0] = True
    for ge, gk in gens:
        for a in range(a_max + 1):
            for b in range(b_max + 1):
                if a >= ge and b >= gk and reach[a - ge][b - gk]:
                    reach[a][b] = True
    for a in range(a_max + 1):
        for b in range(b_max + 1):
            expected = a * (n - i) >= b * n
            if expected != reach[a][b]:
                return False
    return True
