"""Exact-arithmetic toolkit for the geometry of one-dimensional formal groups.

Everything here computes with exact objects: rational valuations, tamely
ramified p-adic coefficients held as m integers mod p^N, sparse truncated
power series, Newton polygons over Q, lattices in canonical Hermite form,
and symbolic Witt-vector identities.  No floats, no epsilons.

Modules
-------
valuations : valuations (Fraction or INF); rings Q_p(p^(1/m)); m = 1 Laurent coefficients
series     : sparse truncated multivariate series over Laurent coefficients
periods    : crystalline period tuples of the universal deformation, two ways
polygon    : Newton polygons of p-divisible groups, domains D and H
hecke      : canonical-subgroup quotients and reduction into the good domain
building   : lattice vertices of the (GL_n x D*)/F* cell complex
cells      : polydisk cells, boundary strata, gluing, cocycle checks
fqlin      : linear algebra over F_p, and matrix inversion over Q
sparsepoly : sparse Laurent polynomials in pi on packed exponent keys
wittlab    : ramified Witt vectors and O-divided powers
cli        : deterministic command-line front end
"""

__version__ = "0.1.0"

from .valuations import INF, Val, RamifiedRing, LaurentCoeff

__all__ = ["INF", "Val", "RamifiedRing", "LaurentCoeff", "__version__"]
