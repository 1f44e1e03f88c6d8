"""Exact F_p linear algebra helpers."""

import random

from lubintate.fqlin import (
    echelon_subspaces,
    gaussian_binomial,
    image_rows,
    kernel_basis,
    mat_mul,
    mat_vec,
    rref,
    span_contains,
)


def test_rref_canonical_form():
    rows, pivots = rref([(2, 4, 0), (1, 2, 1)], 5)
    assert rows == ((1, 2, 0), (0, 0, 1))
    assert pivots == (0, 2)
    # rref is idempotent and a canonical span representative
    assert rref(rows, 5) == (rows, pivots)
    assert rref([(1, 2, 0), (3, 6, 2)], 5)[0] == rows


def test_rref_drops_zero_rows():
    rows, pivots = rref([(0, 0), (3, 3)], 3)
    assert rows == () and pivots == ()


def test_kernel_basis_annihilates():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(20):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            A = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(m)]
            ker = kernel_basis(A, p)
            assert len(rref(A, p)[0]) + len(ker) == n
            for v in ker:
                assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in A)


def test_mat_mul_and_vec():
    A = [(1, 2), (0, 1)]
    B = [(1, 0), (1, 1)]
    assert mat_mul(A, B, 3) == ((0, 2), (1, 1))
    assert mat_vec(A, (1, 1), 3) == (0, 1)


def test_image_rows_is_span_of_images():
    A = [(1, 1, 0), (0, 1, 1), (0, 0, 0)]
    # A.(1,0,0) = (1,0,0), A.(0,1,0) = (1,1,0)
    img = image_rows(A, [(1, 0, 0), (0, 1, 0)], 2)
    assert rref(img, 2)[0] == rref([(1, 0, 0), (0, 1, 0)], 2)[0]
    assert img == ((1, 0, 0), (0, 1, 0))


def test_in_span_and_containment():
    base = [(1, 0, 1), (0, 1, 1)]
    assert span_contains(base, [(1, 1, 0)], 2)
    assert not span_contains([(1, 1, 0)], base, 2)


def test_echelon_subspaces_count_and_canonical():
    for p in (2, 3):
        for n in (1, 2, 3, 4):
            for d in range(n + 1):
                subs = list(echelon_subspaces(n, d, p))
                assert len(subs) == gaussian_binomial(n, d, p), (p, n, d)
                assert len(set(subs)) == len(subs)
                for rows in subs:
                    assert rref(rows, p)[0] == rows


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(3, 5, 2) == 0
    # symmetry
    for q in (2, 3, 4):
        for n in range(6):
            for d in range(n + 1):
                assert gaussian_binomial(n, d, q) == gaussian_binomial(n, n - d, q)
