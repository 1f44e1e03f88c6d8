"""Small exact linear algebra over prime fields F_p, and inversion over Q.

Rows are tuples of ints in [0, p); subspaces are canonically represented by
their reduced row-echelon bases, so equality of spans is equality of tuples.
Only prime p is supported (the lattice pictures downstream all have residue
field F_p).

`rational_inverse` is the one elimination over Q: it returns the inverse
and the determinant of a Fraction matrix from one Gauss-Jordan pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import prod


def rref(rows, p: int):
    """Reduced row echelon form: (rows tuple, pivot column tuple)."""
    rows = [list(r) for r in rows if any(x % p for x in r)]
    for r in rows:
        for i, x in enumerate(r):
            r[i] = x % p
    pivots = []
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    clean = tuple(tuple(r) for r in rows[:rank])
    return clean, tuple(pivots)


def span_contains(rows_big, rows_small, p: int) -> bool:
    big, _ = rref(rows_big, p)
    joint, _ = rref(list(big) + list(rows_small), p)
    return joint == big


def kernel_basis(rows, p: int):
    """RREF basis of the right kernel {v : rows . v = 0}."""
    if not rows:
        return ()
    ncols = len(rows[0])
    base, pivots = rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-base[r][f]) % p
        out.append(tuple(v))
    return rref(out, p)[0]


def rational_inverse(g):
    """(g^(-1), det g) for a square matrix g over Q, as Fraction rows.

    Raises ValueError when g is singular or not square.
    """
    n = len(g)
    if any(len(r) != n for r in g):
        raise ValueError("matrix must be square")
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(g)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        inv = aug[col][col]
        det *= inv
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [r[n:] for r in aug], det


def mat_mul(A, B, p: int):
    """Matrix product over F_p; A is rows x mid, B is mid x cols."""
    mid = len(B)
    cols = len(B[0]) if mid else 0
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(mid)) % p for j in range(cols))
        for i in range(len(A))
    )


def mat_vec(A, v, p: int):
    return tuple(sum(a * x for a, x in zip(row, v)) % p for row in A)


def image_rows(A, rows, p: int):
    """Row span of {A.v : v in rows} (vectors as rows, A applied on the left)."""
    return rref([mat_vec(A, v, p) for v in rows], p)[0]


def echelon_subspaces(n: int, d: int, p: int):
    """All dimension-d subspaces of F_p^n as canonical RREF bases.

    Enumerates pivot column patterns and free entries; the count is the
    Gaussian binomial [n choose d]_p.
    """
    if not 0 <= d <= n:
        return
    if d == 0:
        yield ()
        return
    for pivots in combinations(range(n), d):
        free_slots = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, n):
                if c not in pivots:
                    free_slots.append((r, c))
        for values in product(range(p), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(d)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free_slots, values):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


def gaussian_binomial(n: int, d: int, q: int) -> int:
    if not 0 <= d <= n:
        return 0
    num = prod(q ** n - q ** k for k in range(d))
    den = prod(q ** d - q ** k for k in range(d))
    return num // den
