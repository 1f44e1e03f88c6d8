"""Ramified Witt vectors and divided-power logarithms.

The structure polynomials for W_O (coefficient ring O with uniformizer pi
and residue field F_q, q = p^f) are solved from the ghost components
gh_i(x) = sum_j pi^j x_j^(q^(i-j)) by triangular back substitution.  A
polynomial is a dict {key: c} of a `sparsepoly.Ring`, which the law
carries as `poly_ring`: the key packs the pi exponent (an integer,
possibly negative) and the variable exponents into one int, so a term
product is one integer addition, and c is a nonzero int (a Fraction only
for rational scalars).  The ring holds every name the law and its checks
use, with exponent fields wide enough for q^N.  Ghost solving divides
only by powers of pi, which shifts the pi exponent, so the coefficients
stay integers.  Sums drop zero coefficients, so two polynomials of one
ring are equal exactly when their dicts are.  Each power a^(q^k) in a
ghost component or a solve is the q-th power of a^(q^(k-1)).

The law at truncation length n is exactly the first n components of the
law at any N > n (same variables, same triangular solve), so each check
returns one verdict per component, and verdicts 0..n-1 certify the law
at n.

Over a torsion-free ring the ghost map is injective, so every operator
identity below (sum, product, Frobenius, Verschiebung, Teichmueller) is
certified by comparing ghost images.  Integrality of the solved
polynomials cannot be read off term by term (distinct pi-powers of one
monomial can be non-integral separately yet integral combined once
pi^e = p).  It is certified in integers for each small ramification
index e: writing k = m*e + r with 0 <= r < e and taking one shift M >= 0
per polynomial (the least with m + M >= 0 for all its terms), the term
c * pi^k * mono is folded into the integer slot (mono, r) as c * p^(m + M).
A slot a stands for (a / p^M) * pi^r, so the polynomial is integral
exactly when v_p(a) >= M for every slot.

The divided-power side: an ideal J with an operation gamma satisfying
pi*gamma(x) = x^q, gamma(ax) = a^q gamma(x), and the binomial addition rule
admits a componentwise logarithm log_i = sum_k delta_k(x_{i-k}) with
delta_k = pi^((q^k-1)/(q-1) - k) * gamma^k.  Three exact model rings
exercise it: dual numbers over F_p, F_2[s]/(s^4) with pi acting as s, and
the p-local integers with gamma(x) = x^p/p, held as unreduced integer pairs
(num, den) with den > 0 prime to p and compared by cross-multiplying.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .sparsepoly import Ring
from .valuations import prime_power_split, sum_terms, vp

# ramification indices e at which check_o_integrality folds pi^e = p
RAM_INDICES = (1, 2, 3, 4, 5, 6)

# the largest q whose laws `witt selftest --max-n N` solves, by N.  The caps
# sit where a run once took about 5 s of CPU; each admitted run now takes
# at most about 1 s (Python 3.11, one core of a shared 2-vCPU machine), but
# the cost still grows steeply past some of them (N = 6 at q = 2 takes 23 s
# and 323 MB, N = 4 at q = 5 takes 18 s).
SELFTEST_MAX_Q = {1: 2 ** 20, 2: 256, 3: 13, 4: 4, 5: 2}


def check_selftest_budget(max_n: int, qs) -> None:
    """Refuse, before any law is solved, a q that is not a prime power and a
    selftest past SELFTEST_MAX_Q."""
    for q in qs:
        prime_power_split(q)
    if max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {max_n}")
    top = SELFTEST_MAX_Q.get(max_n)
    if top is None:
        raise ValueError(f"witt selftest needs --max-n <= {max(SELFTEST_MAX_Q)}, got {max_n}")
    if max(qs) > top:
        raise ValueError(f"witt selftest at --max-n {max_n} needs q <= {top}, got q = {max(qs)}")


def _fold(R: Ring, poly: dict, p: int, e: int):
    """(M, {(mono, r): a}): the Laurent coefficients folded under pi^e = p.

    mono is the variable part of a key (its pi exponent 0), and
    pi^k = p^m * pi^r with k = m*e + r and 0 <= r < e.  One shift M >= 0,
    the least with m + M >= 0 for every term, scales the whole polynomial:
    slot (mono, r) holds a = sum of c * p^(m + M), an integer when the c
    are, and stands for (a / p^M) * pi^r * mono.  Zero slots drop.
    """
    terms = [(divmod(t >> R.shift, e), t & R.mask, c) for t, c in poly.items()]
    M = max([0] + [-m for (m, _), _, _ in terms])
    return M, sum_terms(((mono, r), c * p ** (m + M)) for (m, r), mono, c in terms)


def _pi_sum(R: Ring, polys) -> dict:
    """sum_j pi^j * polys[j]."""
    return sum_terms((t + (j << R.shift), c) for j, poly in enumerate(polys) for t, c in poly.items())


def _ghosts(R: Ring, q: int, vec, n: int) -> list:
    """gh_0 .. gh_(n-1) of vec, each vec_j^(q^(i-j)) the q-th power of the one before."""
    out, tower = [], []
    for i in range(n):
        tower = [R.pow(t, q) for t in tower] + [vec[i]]
        out.append(_pi_sum(R, tower))
    return out


@dataclass(frozen=True)
class WittLaw:
    """Solved structure polynomials at truncation length N."""

    N: int
    q: int
    p: int
    xs: tuple          # variable names
    ys: tuple
    ws: tuple          # N+1 names, domain of Frobenius
    sum_polys: tuple
    prod_polys: tuple
    frob_polys: tuple  # length N, F_i in w_0 .. w_{i+1}
    poly_ring: Ring    # packs every polynomial above and those the checks build


def _solve_from_ghosts(R: Ring, q: int, targets) -> list:
    """Components z with ghost_i(z) = targets[i], solved triangularly."""
    out, tower = [], []
    for i, target in enumerate(targets):
        tower = [R.pow(t, q) for t in tower]   # z_j^(q^(i-j)) for j < i
        out.append(R.shift_pi(R.add(target, _pi_sum(R, tower), -1), -i))
        tower.append(out[-1])
    return out


def witt_structure_polys(N: int, q: int) -> WittLaw:
    p, _ = prime_power_split(q)
    xs, ys, ws, vs = (tuple(f"{c}{i}" for i in range(n))
                      for c, n in (("x", N), ("y", N), ("w", N + 1), ("v", N)))
    # no exponent passes q^N, the degree of w0 in ghost_N of the w's
    R = Ring(xs + ys + ws + vs + ("tei_a", "tei_b"), q ** N)
    X, Y, W = ([R.var(name) for name in names] for names in (xs, ys, ws))
    gx, gy = (_ghosts(R, q, vec, N) for vec in (X, Y))
    sums = _solve_from_ghosts(R, q, [R.add(a, b) for a, b in zip(gx, gy)])
    prods = _solve_from_ghosts(R, q, [R.mul(a, b) for a, b in zip(gx, gy)])
    frobs = _solve_from_ghosts(R, q, _ghosts(R, q, W, N + 1)[1:])
    return WittLaw(N, q, p, xs, ys, ws, tuple(sums), tuple(prods), tuple(frobs), R)


def _integral(R: Ring, poly: dict, p: int) -> bool:
    poles = {t: c for t, c in poly.items() if t < 0}   # a key < 0 has pi exponent < 0
    for e in RAM_INDICES:
        M, slots = _fold(R, poles, p, e)
        if M and any(a % p ** M for a in slots.values()):   # some v_p(a) < M
            return False
    return True


def check_o_integrality(law: WittLaw) -> tuple:
    """Per component i: S_i, P_i and F_i have O-integral coefficients.

    The coefficient of each x/y-monomial is a Laurent polynomial
    sum_k c_k * pi^k.  Termwise v_p(c_k) >= -k is too strong: the N = 3
    addition law contains -6*pi^-2 - 4*pi^-3 on x0^2*y0^2, integral for
    every ramification index only in combination.  So for each e in
    RAM_INDICES the polynomial is folded via pi^e = p (`_fold`) into
    integer slots a with value (a / p^M) * pi^r, 0 <= r < e.  No
    cancellation hides across slots, since their pi-exponents differ
    mod e, so integrality means e * v_p(a / p^M) + r >= 0 for every slot;
    as 0 <= r < e that is v_p(a) >= M.  Only the terms with a pole are
    folded: one of pi exponent k >= 0 has m >= 0 for every e, so it adds a
    multiple of p^M to its slot and changes neither M nor that verdict.
    """
    return tuple(all(_integral(law.poly_ring, poly, law.p) for poly in polys)
                 for polys in zip(law.sum_polys, law.prod_polys, law.frob_polys))


def verify_ghost_homomorphism(law: WittLaw) -> tuple:
    """Per component i: ghost_i of the solved polynomials matches sum/product of ghosts."""
    R, q, N = law.poly_ring, law.q, law.N
    X, Y, W = ([R.var(name) for name in names] for names in (law.xs, law.ys, law.ws))
    gx, gy, gw = _ghosts(R, q, X, N), _ghosts(R, q, Y, N), _ghosts(R, q, W, N + 1)
    gs, gp, gf = (_ghosts(R, q, fam, N) for fam in (law.sum_polys, law.prod_polys, law.frob_polys))
    return tuple(gs[i] == R.add(gx[i], gy[i]) and gp[i] == R.mul(gx[i], gy[i])
                 and gf[i] == gw[i + 1] for i in range(N))


def witt_mul(law: WittLaw, a, b):
    env = dict(zip(law.xs, a)) | dict(zip(law.ys, b))
    return law.poly_ring.subs(law.prod_polys, env)


def witt_frobenius(law: WittLaw, w):
    """F on a length-(N+1) vector, producing length N."""
    return law.poly_ring.subs(law.frob_polys, dict(zip(law.ws, w)))


def verschiebung(w):
    return ({},) + tuple(w)


def teichmueller(law: WittLaw, a):
    return (a,) + ({},) * (law.N - 1)


def const_witt(law: WittLaw, c: dict):
    """The Witt vector with every ghost component equal to the polynomial c."""
    return tuple(_solve_from_ghosts(law.poly_ring, law.q, [c] * law.N))


def verify_fv_is_pi(law: WittLaw) -> tuple:
    """Per component: F(V(w)) equals multiplication by the scalar pi.

    Only this composition order is an identity: V(F(w)) differs from pi*w
    already over torsion-free rings.
    """
    R = law.poly_ring
    w = [R.var(f"v{i}") for i in range(law.N)]
    fv = witt_frobenius(law, verschiebung(w))
    pi_w = witt_mul(law, const_witt(law, {R.key(1): 1}), w)
    return tuple(a == b for a, b in zip(fv, pi_w))


def verify_teichmueller_mult(law: WittLaw) -> tuple:
    R = law.poly_ring
    a, b = R.var("tei_a"), R.var("tei_b")
    prod = witt_mul(law, teichmueller(law, a), teichmueller(law, b))
    return tuple(x == y for x, y in zip(prod, teichmueller(law, R.mul(a, b))))


def verify_teichmueller_scale(law: WittLaw) -> tuple:
    """Per component i: [a] * w has component a^(q^i) * w_i."""
    R = law.poly_ring
    a = R.var("tei_a")
    ys = [R.var(name) for name in law.ys]
    prod = witt_mul(law, teichmueller(law, a), ys)
    return tuple(prod[i] == R.mul(R.pow(a, law.q ** i), ys[i]) for i in range(law.N))


# ---------------------------------------------------------------------
# exact model rings carrying a divided-power operation on an ideal
# ---------------------------------------------------------------------

def _split_p(c, p: int):
    """(v_p(c), num, den) with c = p^v_p(c) * num / den and num, den prime to p.

    c is a nonzero int or Fraction; its numerator and denominator are
    divided by the p-power that `vp` reads off, so no Fraction is built.
    """
    a = vp(c, p)
    return a, c.numerator // p ** max(a, 0), c.denominator // p ** max(-a, 0)


class DualNumbers:
    """F_p[eps]/(eps^2) with J = (eps); the coefficient ring is Z_p (pi = p).

    gamma(b*eps) = b*eps: the unique choice with gamma(eps) = eps, and
    b^p = b makes the scaling axiom hold on the nose.
    """

    def __init__(self, p: int):
        self.p = p
        self.q = p
        self.e = 1
        self.zero = (0, 0)
        self.one = (1, 0)

    def add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def neg(self, a):
        return ((-a[0]) % self.p, (-a[1]) % self.p)

    def mul(self, a, b):
        return ((a[0] * b[0]) % self.p, (a[0] * b[1] + a[1] * b[0]) % self.p)

    def eq(self, a, b):
        return a == b

    def in_J(self, a):
        return a[0] == 0

    def gamma(self, a):
        if not self.in_J(a):
            raise ValueError("gamma only defined on J")
        return (0, a[1])

    def o_image(self, c: int | Fraction, k: int = 0):
        """The image of c * p^k for an int or Fraction c; builds no Fraction."""
        if c == 0:
            return self.zero
        a, num, den = _split_p(c, self.p)
        if a + k < 0:
            raise ValueError("not O-integral")
        if a + k >= 1:
            return self.zero
        return (num * pow(den, -1, self.p) % self.p, 0)

    def sample_J(self):
        return [(0, b) for b in range(self.p)]

    def sample_B(self):
        return [(a, b) for a in range(self.p) for b in range(self.p)]


class RamifiedNilpotents:
    """F_2[s]/(s^4) as an algebra over Z_2[2^(1/4)], pi acting as s.

    J = (s^2), gamma(a s^2 + b s^3) = a s^3: the divided fourth root of
    2 makes pi*gamma(x) = x^q = 0 and the addition rule exact, with pi J
    nonzero (pi * s^2 = s^3).
    """

    def __init__(self):
        self.p = 2
        self.q = 2
        self.e = 4
        self.zero = (0, 0, 0, 0)
        self.one = (1, 0, 0, 0)

    def add(self, a, b):
        return tuple((a[i] + b[i]) % 2 for i in range(4))

    def neg(self, a):
        return a

    def mul(self, a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (a0 * b0 % 2, (a0 * b1 + a1 * b0) % 2,
                (a0 * b2 + a1 * b1 + a2 * b0) % 2,
                (a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0) % 2)

    def eq(self, a, b):
        return a == b

    def in_J(self, a):
        return a[0] == 0 and a[1] == 0

    def gamma(self, a):
        if not self.in_J(a):
            raise ValueError("gamma only defined on J")
        return (0, 0, 0, a[2])

    def o_image(self, c: int | Fraction, k: int = 0):
        """The image of c * pi^k for an int or Fraction c; builds no Fraction."""
        if c == 0:
            return self.zero
        a = vp(c, 2)
        exp = 4 * a + k  # 2 maps to s^4 = 0, pi to s
        if exp < 0:
            raise ValueError("not O-integral")
        if exp >= 4:
            return self.zero
        out = [0, 0, 0, 0]
        out[exp] = 1  # odd unit part reduces to 1 mod 2
        return tuple(out)

    def sample_J(self):
        return [(0, 0, a, b) for a in range(2) for b in range(2)]

    def sample_B(self):
        return [t for t in itertools.product(range(2), repeat=4)]


class LocalIntegers:
    """Z_(p) with J = (p) and gamma(x) = x^p / p, on integer pairs.

    An element is a pair (num, den) of integers standing for num/den, with
    den > 0 and prime to p.  Pairs are not reduced: add and mul multiply
    out with no gcd, and equality cross-multiplies (a0*b1 == b0*a1).
    """

    def __init__(self, p: int):
        self.p = p
        self.q = p
        self.e = 1
        self.zero = (0, 1)
        self.one = (1, 1)

    def _check(self, a):
        if a[1] % self.p == 0:
            raise ValueError("not p-local")
        return a

    def add(self, a, b):
        return self._check((a[0] * b[1] + b[0] * a[1], a[1] * b[1]))

    def neg(self, a):
        return (-a[0], a[1])

    def mul(self, a, b):
        return self._check((a[0] * b[0], a[1] * b[1]))

    def eq(self, a, b):
        return a[0] * b[1] == b[0] * a[1]

    def in_J(self, a):
        return a[0] % self.p == 0

    def gamma(self, a):
        if not self.in_J(a):
            raise ValueError("gamma only defined on J")
        return (a[0] ** self.p // self.p, a[1] ** self.p)  # exact: p divides num

    def o_image(self, c: int | Fraction, k: int = 0):
        """c * p^k as a reduced pair, for an int or Fraction c; builds no Fraction."""
        if c == 0:
            return self.zero
        p = self.p
        a, num, den = _split_p(c, p)
        v = a + k
        return self._check((num * p ** max(v, 0), den * p ** max(-v, 0)))

    def sample_J(self):
        p = self.p
        return [(0, 1), (p, 1), (2 * p, 1), (-p, 1), (p, p + 1)]

    def sample_B(self):
        return [(0, 1), (1, 1), (-2, 1), (1, self.p + 1)]


def opd_axioms_hold(ring) -> bool:
    """pi*gamma(x) = x^q, gamma(ax) = a^q gamma(x), and the addition rule."""
    q = ring.q
    pi_elem = ring.o_image(1, 1)

    def powers(x):
        """[x^0, x^1, ..., x^q]."""
        out = [ring.one]
        for _ in range(q):
            out.append(ring.mul(out[-1], x))
        return out

    sample_J = [(x, ring.gamma(x), powers(x)) for x in ring.sample_J()]
    sample_B = [(a, powers(a)[q]) for a in ring.sample_B()]
    alphas = [ring.o_image(comb(q, i), -1) for i in range(1, q)]
    for x, gx, xs in sample_J:
        if not ring.eq(ring.mul(pi_elem, gx), xs[q]):
            return False
        for a, aq in sample_B:
            if not ring.eq(ring.gamma(ring.mul(a, x)), ring.mul(aq, gx)):
                return False
    for x, gx, xs in sample_J:
        for y, gy, ys in sample_J:
            rhs = ring.add(gx, gy)
            for i, alpha in enumerate(alphas, 1):
                rhs = ring.add(rhs, ring.mul(alpha, ring.mul(xs[i], ys[q - i])))
            if not ring.eq(ring.gamma(ring.add(x, y)), rhs):
                return False
    return True


def delta_pi_exponent(q: int, k: int) -> int:
    """pi-exponent of delta_k = pi^((q^k - 1)/(q - 1) - k) gamma^k; >= 0."""
    return (q ** k - 1) // (q - 1) - k


def _deltas(ring, n: int):
    """delta(k, x) = delta_k(x) for k < n, each constant pi^(...) built once."""
    consts = [ring.o_image(1, delta_pi_exponent(ring.q, k)) for k in range(n)]

    def delta(k: int, x):
        for _ in range(k):
            x = ring.gamma(x)
        return ring.mul(consts[k], x)

    return delta


def log_opd(ring, comps):
    """Componentwise logarithm W_O(J) -> J^N."""
    comps = list(comps)
    delta = _deltas(ring, len(comps))
    out = []
    for i in range(len(comps)):
        acc = ring.zero
        for k in range(i + 1):
            acc = ring.add(acc, delta(k, comps[i - k]))
        out.append(acc)
    return tuple(out)


def exp_opd(ring, comps):
    """Inverse of log_opd by triangular back substitution."""
    comps = list(comps)
    delta = _deltas(ring, len(comps))
    out = []
    for i in range(len(comps)):
        acc = comps[i]
        for k in range(1, i + 1):
            acc = ring.add(acc, ring.neg(delta(k, out[i - k])))
        out.append(acc)
    return tuple(out)


def eval_expr(R: Ring, expr, ring, env):
    """Evaluate a structure polynomial of the polynomial ring R on ring elements.

    env maps variable names to ring elements.  The Laurent coefficient of a
    monomial is folded under the ring's pi^e = p relation (`_fold`) before
    it goes through ring.o_image: individual terms of an integral
    coefficient can be non-integral on their own (the N = 3 addition law
    has such terms), so mapping termwise would raise spuriously.  Slot
    (mono, r) holding a stands for a * pi^(r - e*M).
    """
    M, slots = _fold(R, expr, ring.p, ring.e)
    total = ring.zero
    for (mono, r), a in slots.items():
        elem = ring.o_image(a, r - ring.e * M)
        for name, exp in R.decode(mono)[1]:
            for _ in range(exp):
                elem = ring.mul(elem, env[name])
        total = ring.add(total, elem)
    return total


def eval_witt_op(law: WittLaw, polys, ring, x_elems=None, y_elems=None, w_elems=None):
    env = {}
    for names, elems in ((law.xs, x_elems), (law.ys, y_elems), (law.ws, w_elems)):
        if elems is not None:
            env.update(zip(names, elems))
    return tuple(eval_expr(law.poly_ring, poly, ring, env) for poly in polys)
