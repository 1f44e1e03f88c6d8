"""Ramified Witt laws and divided-power model rings."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lubintate import cli, wittlab
from lubintate.cli import main
from lubintate.fqlin import rational_inverse
from lubintate.sparsepoly import Ring
from lubintate.valuations import vp
from lubintate.wittlab import (
    DualNumbers,
    RAM_INDICES,
    LocalIntegers,
    RamifiedNilpotents,
    WittLaw,
    _ghosts,
    check_o_integrality,
    const_witt,
    delta_pi_exponent,
    eval_expr,
    eval_witt_op,
    exp_opd,
    log_opd,
    opd_axioms_hold,
    teichmueller,
    verify_fv_is_pi,
    verify_ghost_homomorphism,
    verify_teichmueller_mult,
    verify_teichmueller_scale,
    verschiebung,
    witt_structure_polys,
)

ALL_RINGS = [DualNumbers(2), DualNumbers(3), RamifiedNilpotents(), LocalIntegers(2), LocalIntegers(3)]


def decoded(R, poly):
    """{(pi_exp, mono): c}: a packed polynomial in name-pair form."""
    return {R.decode(t): c for t, c in poly.items()}


def encoded(R, pairs):
    """The packed polynomial of R with the name-pair terms {(pi_exp, mono): c}."""
    return {R.key(k, mono): c for (k, mono), c in pairs.items()}


def test_structure_polys_low_degrees():
    law = witt_structure_polys(3, 2)
    R = law.poly_ring
    x0y0 = (("x0", 1), ("y0", 1))
    assert law.sum_polys[0] == R.var("x0") | R.var("y0")
    assert law.prod_polys[0] == {R.key(0, x0y0): 1}
    # the first carry: S_1 = x1 + y1 - (2/pi) x0 y0
    assert law.sum_polys[1] == R.var("x1") | R.var("y1") | {R.key(-1, x0y0): -2}


def test_ghost_homomorphism_and_integrality():
    for q, N in ((2, 3), (3, 3), (4, 2)):
        law = witt_structure_polys(N, q)
        assert verify_ghost_homomorphism(law) == (True,) * N, (q, N)
        assert check_o_integrality(law) == (True,) * N, (q, N)


def test_fv_and_teichmueller_identities():
    for q in (2, 3):
        law = witt_structure_polys(3, q)
        assert verify_fv_is_pi(law) == (True,) * 3
        assert verify_teichmueller_mult(law) == (True,) * 3
        assert verify_teichmueller_scale(law) == (True,) * 3


def test_const_witt_has_constant_ghosts():
    law = witt_structure_polys(3, 2)
    c = law.poly_ring.var("tei_a")
    comps = const_witt(law, c)
    assert _ghosts(law.poly_ring, law.q, comps, 3) == [c] * 3


def test_opd_axioms_on_model_rings():
    for ring in ALL_RINGS:
        assert opd_axioms_hold(ring), type(ring).__name__


def test_opd_negative_control():
    class BadGamma(DualNumbers):
        def gamma(self, a):
            # constant nonzero value breaks the scaling axiom
            return (0, 1)

    class UnitOffGamma(LocalIntegers):
        def gamma(self, a):
            # (p + 1) * x^p / p: the true gamma times a unit
            return self.mul((self.p + 1, 1), super().gamma(a))

    class WrongGamma(RamifiedNilpotents):
        def gamma(self, a):
            # a s^2 + b s^3 -> b s^3: the s^3 coefficient where a s^3 takes the s^2 one
            return (0, 0, 0, a[3])

    for ring in (BadGamma(3), UnitOffGamma(2), UnitOffGamma(3), WrongGamma()):
        assert not opd_axioms_hold(ring), type(ring).__name__


@pytest.mark.parametrize("p", (2, 3, 5))
def test_local_integers_reject_non_local_images(p):
    with pytest.raises(ValueError, match="not p-local"):
        LocalIntegers(p).o_image(Fraction(1, p), 0)


def test_delta_exponents():
    assert [delta_pi_exponent(2, k) for k in range(5)] == [0, 0, 1, 4, 11]
    assert [delta_pi_exponent(3, k) for k in range(5)] == [0, 0, 2, 10, 36]
    for q in (2, 3, 4):
        for k in range(7):
            assert delta_pi_exponent(q, k) >= 0


def test_log_exp_round_trip():
    rng = random.Random(5)
    for ring in ALL_RINGS:
        for _ in range(10):
            comps = tuple(rng.choice(ring.sample_J()) for _ in range(4))
            back = exp_opd(ring, log_opd(ring, comps))
            assert all(ring.eq(a, b) for a, b in zip(comps, back))
            fwd = log_opd(ring, exp_opd(ring, comps))
            assert all(ring.eq(a, b) for a, b in zip(comps, fwd))


def test_log_takes_witt_sum_to_componentwise_sum():
    rng = random.Random(6)
    for p in (2, 3):
        law = witt_structure_polys(3, p)
        for ring in (DualNumbers(p), LocalIntegers(p)):
            for _ in range(5):
                a = tuple(rng.choice(ring.sample_J()) for _ in range(3))
                b = tuple(rng.choice(ring.sample_J()) for _ in range(3))
                s = eval_witt_op(law, law.sum_polys, ring, x_elems=a, y_elems=b)
                la, lb, ls = log_opd(ring, a), log_opd(ring, b), log_opd(ring, s)
                assert all(ring.eq(ls[i], ring.add(la[i], lb[i])) for i in range(3))


def test_log_of_frobenius_shifts_and_multiplies_by_pi():
    rng = random.Random(7)
    for p in (2, 3):
        law = witt_structure_polys(3, p)
        for ring in (DualNumbers(p), LocalIntegers(p)):
            pi_elem = ring.o_image(Fraction(1), 1)
            for _ in range(5):
                w = tuple(rng.choice(ring.sample_J()) for _ in range(4))
                fw = eval_witt_op(law, law.frob_polys, ring, w_elems=w)
                lfw, lw = log_opd(ring, fw), log_opd(ring, w)
                assert all(
                    ring.eq(lfw[i], ring.mul(pi_elem, lw[i + 1])) for i in range(3)
                )


def test_log_of_verschiebung_is_shift():
    rng = random.Random(8)
    for ring in ALL_RINGS:
        for _ in range(5):
            w = tuple(rng.choice(ring.sample_J()) for _ in range(3))
            lvw = log_opd(ring, (ring.zero,) + w)
            lw = log_opd(ring, w)
            assert ring.eq(lvw[0], ring.zero)
            assert all(ring.eq(lvw[i + 1], lw[i]) for i in range(3))
    # polynomial form as well: V prepends the zero polynomial
    R = Ring(("a", "b"), 1)
    assert verschiebung((R.var("a"), R.var("b"))) == ({}, R.var("a"), R.var("b"))


def test_log_of_teichmueller_product_scales_by_powers():
    rng = random.Random(9)
    for p in (2, 3):
        law = witt_structure_polys(3, p)
        ring = DualNumbers(p)
        for a_unit in ring.sample_B():
            wv = tuple(rng.choice(ring.sample_J()) for _ in range(3))
            te = (a_unit,) + (ring.zero,) * 2
            prod = eval_witt_op(law, law.prod_polys, ring, x_elems=te, y_elems=wv)
            lp, lw = log_opd(ring, prod), log_opd(ring, wv)
            for i in range(3):
                apow = ring.one
                for _ in range(p**i):
                    apow = ring.mul(apow, a_unit)
                assert ring.eq(lp[i], ring.mul(apow, lw[i]))


def scalar_witt_elems(law, ring, c):
    """Images in the model ring of the components of const_witt(c)."""
    comps = const_witt(law, {0: Fraction(c)})
    return tuple(eval_expr(law.poly_ring, comp, ring, {}) for comp in comps)


def test_log_of_scalar_product_is_scalar():
    rng = random.Random(10)
    for p in (2, 3):
        law = witt_structure_polys(3, p)
        ring = LocalIntegers(p)
        for c in (Fraction(2), Fraction(5), Fraction(1, 1 + p)):
            ce = ring.o_image(c, 0)
            sc = scalar_witt_elems(law, ring, c)
            for _ in range(3):
                wv = tuple(rng.choice(ring.sample_J()) for _ in range(3))
                prod = eval_witt_op(law, law.prod_polys, ring, x_elems=sc, y_elems=wv)
                lp, lw = log_opd(ring, prod), log_opd(ring, wv)
                assert all(ring.eq(lp[i], ring.mul(ce, lw[i])) for i in range(3))


def test_teichmueller_symbolic_shape():
    law = witt_structure_polys(3, 2)
    a = law.poly_ring.var("tei_a")
    assert teichmueller(law, a) == (a, {}, {})


def _det(rows):
    """Oracle: determinant by forward elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] * inv
            m[r] = [m[r][k] - factor * m[c][k] for k in range(n)]
    return det


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), d=st.integers(1, 4),
       shape=st.sampled_from(("regular", "singular", "ragged")), data=st.data())
def test_rational_inverse_matches_elimination_oracles(p, d, shape, data):
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=50)
    width = d + 1 if shape == "ragged" else d
    g = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                           min_size=d, max_size=d))
    if shape == "ragged":
        with pytest.raises(ValueError, match="square"):
            rational_inverse(g)
        return
    if shape == "singular":
        c = data.draw(entry)
        g[-1] = [c * x for x in g[0]] if d > 1 else [Fraction(0)]
    det = _det(g)
    if det == 0:
        with pytest.raises(ValueError, match="singular"):
            rational_inverse(g)
        return
    inv, got = rational_inverse(g)
    assert got == det
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in g] == [
        [int(i == j) for j in range(d)] for i in range(d)]


# ---------------------------------------------------------------------
# oracles for the dict representation
# ---------------------------------------------------------------------

def _printed_laws(capsys, N, q):
    """{"S_0": text, ...} as `witt selftest` prints them."""
    assert main(["witt", "selftest", "--max-n", str(N), "--q", str(q)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return dict(line.strip().split(" = ") for line in lines if line.startswith("  "))


@pytest.mark.parametrize("q", (2, 3, 4))
def test_printed_laws_match_sympy_reference(capsys, q):
    sp = pytest.importorskip("sympy")
    pi = sp.Symbol("pi")
    xs, ys, ws = sp.symbols("x0:3"), sp.symbols("y0:3"), sp.symbols("w0:4")

    def gh(vec, i):
        return sum(pi ** j * vec[j] ** (q ** (i - j)) for j in range(i + 1))

    def solve(targets):
        out = []
        for i, target in enumerate(targets):
            out.append(sp.expand((target - gh(out + [0], i)) / pi ** i))
        return out

    want = {}
    for tag, targets in (("S", [gh(xs, i) + gh(ys, i) for i in range(3)]),
                         ("P", [gh(xs, i) * gh(ys, i) for i in range(3)]),
                         ("F", [gh(ws, i + 1) for i in range(3)])):
        want.update((f"{tag}_{i}", poly) for i, poly in enumerate(solve(targets)))
    for N in (1, 2, 3):
        printed = _printed_laws(capsys, N, q)
        assert printed.keys() == {t for t in want if int(t[2:]) < N}
        for tag, text in printed.items():
            got = sp.sympify(text, locals={"pi": pi})
            assert sp.expand(got - want[tag]) == 0, (N, q, tag, text)


@cache
def _law(N, q):
    return witt_structure_polys(N, q)


def _at_p(R, poly, p, env):
    """Value of a structure polynomial at pi = p on rational inputs."""
    total = Fraction(0)
    for (k, mono), c in decoded(R, poly).items():
        term = c * Fraction(p) ** k
        for name, e in mono:
            term *= env[name] ** e
        total += term
    return total


def _gh(vec, p, q, i):
    return sum(p ** j * vec[j] ** (q ** (i - j)) for j in range(i + 1))


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from((2, 3, 4)), N=st.integers(1, 3), data=st.data())
def test_laws_at_pi_equal_p_are_integral_ghost_maps(q, N, data):
    law = _law(N, q)
    p = law.p

    def vector(n):
        return data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))

    x, y, w = vector(N), vector(N), vector(N + 1)
    env = dict(zip(law.xs, x)) | dict(zip(law.ys, y)) | dict(zip(law.ws, w))
    s, m, f = ([_at_p(law.poly_ring, poly, p, env) for poly in polys]
               for polys in (law.sum_polys, law.prod_polys, law.frob_polys))
    assert all(v.denominator == 1 for v in s + m + f)
    for i in range(N):
        assert _gh(s, p, q, i) == _gh(x, p, q, i) + _gh(y, p, q, i)
        assert _gh(m, p, q, i) == _gh(x, p, q, i) * _gh(y, p, q, i)
        assert _gh(f, p, q, i) == _gh(w, p, q, i + 1)


def _fraction_fold(R, poly, p, e):
    """{mono: {r: a_r}}: each Laurent coefficient folded under pi^e = p in Fractions.

    pi^k = p^m * pi^r with k = m*e + r and 0 <= r < e; zero slots drop.
    """
    out = {}
    for (k, mono), c in decoded(R, poly).items():
        m, r = divmod(k, e)
        slots = out.setdefault(mono, {})
        slots[r] = slots.get(r, 0) + c * Fraction(p) ** m
    return {mono: {r: a for r, a in slots.items() if a} for mono, slots in out.items()}


def _integral_by_fractions(law: WittLaw) -> tuple:
    """Integrality oracle per component i: over the nonzero slots of S_i, P_i
    and F_i, min of e * v_p(a_r) + r >= 0."""
    return tuple(all(
        e * vp(a, law.p) + r >= 0
        for poly in polys
        for e in RAM_INDICES
        for slots in _fraction_fold(law.poly_ring, poly, law.p, e).values()
        for r, a in slots.items()
    ) for polys in zip(law.sum_polys, law.prod_polys, law.frob_polys))


MONO_NAMES = ("x0", "x1", "y0", "y2", "w1")


def _perturbed(law, family, i, mono, c, k):
    """law with c * pi^k * mono added to component i of one structure family.

    The bent law lives in a ring that also has MONO_NAMES and exponents up
    to 4, which a small law's own ring may lack.
    """
    old = law.poly_ring
    R = Ring(set(old.names) | set(MONO_NAMES), max(law.q ** law.N, 4))

    def moved(polys):
        return tuple(encoded(R, decoded(old, poly)) for poly in polys)

    bent = {fam: moved(getattr(law, fam)) for fam in ("sum_polys", "prod_polys", "frob_polys")}
    polys = list(bent[family])
    polys[i] = R.add(polys[i], {R.key(k, mono): c})
    bent[family] = tuple(polys)
    return replace(law, poly_ring=R, **bent)


monomials = st.lists(
    st.tuples(st.sampled_from(MONO_NAMES), st.integers(1, 4)),
    max_size=3, unique_by=lambda t: t[0],
).map(lambda pairs: tuple(sorted(pairs)))


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from((2, 3, 4)), N=st.integers(1, 3),
       family=st.sampled_from(("sum_polys", "prod_polys", "frob_polys")), i=st.integers(0, 2),
       mono=st.one_of(st.integers(0, 10 ** 6), monomials),
       c=st.integers(-12, 12).filter(bool), k=st.integers(-4, 2))
@example(q=2, N=2, family="sum_polys", i=1, mono=(("x0", 1),), c=1, k=-1)
def test_integer_fold_agrees_with_fraction_fold(q, N, family, i, mono, c, k):
    law = _law(N, q)
    i %= N
    if isinstance(mono, int):       # perturb a monomial the component already has
        monos = sorted({m for _, m in decoded(law.poly_ring, getattr(law, family)[i])})
        mono = monos[mono % len(monos)]
    bent = _perturbed(law, family, i, mono, c, k)
    assert check_o_integrality(bent) == _integral_by_fractions(bent)
    assert check_o_integrality(bent)[:i] == (True,) * i      # components below i are untouched


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from((2, 3, 4)), N=st.integers(1, 3),
       family=st.sampled_from(("sum_polys", "prod_polys", "frob_polys")), i=st.integers(0, 2),
       pole=st.one_of(st.none(), st.tuples(monomials, st.integers(-12, 12).filter(bool),
                                           st.integers(-4, -1))),
       mono=monomials, c=st.integers(-12, 12).filter(bool), k=st.integers(0, 4))
def test_terms_without_a_pole_never_change_the_integrality_verdict(q, N, family, i, pole,
                                                                    mono, c, k):
    # check_o_integrality folds only the terms of negative pi exponent
    law = _law(N, q)
    i %= N
    if pole is not None:            # a law that may fail at component i
        law = _perturbed(law, family, i, *pole)
    bent = _perturbed(law, family, i, mono, c, k)
    assert check_o_integrality(bent) == check_o_integrality(law) == _integral_by_fractions(bent)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(-5, 5), mono=monomials, n=st.integers(1, 12),
       c=st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12)).filter(bool))
@example(k=-3, mono=(("x0", 2), ("y2", 1)), n=12, c=Fraction(-2, 3))
def test_one_term_power_matches_repeated_products(k, mono, n, c):
    R = Ring(MONO_NAMES, 48)
    a = {R.key(k, mono): c}
    want = {0: 1}
    for _ in range(n):
        want = R.mul(want, a)
    assert R.pow(a, n) == want


def test_integrality_rejects_a_pole():
    law = _law(2, 2)
    assert check_o_integrality(law) == _integral_by_fractions(law) == (True, True)
    bent = _perturbed(law, "sum_polys", 1, (("x0", 1),), 1, -1)     # S_1 + x0/pi
    assert check_o_integrality(bent) == _integral_by_fractions(bent) == (True, False)
    # 2/pi = pi^(e - 1) is integral at every ramification index
    bent = _perturbed(law, "sum_polys", 1, (("x0", 1),), 2, -1)
    assert check_o_integrality(bent) == _integral_by_fractions(bent) == (True, True)


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_law_at_n_is_the_prefix_of_the_law_at_m(q):
    for M in (2, 3):
        big = _law(M, q)
        for N in range(1, M):
            small = _law(N, q)
            for fam in ("sum_polys", "prod_polys", "frob_polys"):
                assert ([decoded(small.poly_ring, p) for p in getattr(small, fam)]
                        == [decoded(big.poly_ring, p) for p in getattr(big, fam)[:N]]), (q, N, M, fam)


def test_a_bent_component_fails_only_its_own_verdict_and_the_lines_above(capsys, monkeypatch):
    bent = _perturbed(_law(3, 2), "sum_polys", 1, (("x0", 1),), 1, -1)     # S_1 + x0/pi
    assert check_o_integrality(bent) == (True, False, True)
    monkeypatch.setattr(wittlab, "witt_structure_polys", lambda N, q: bent)
    assert main(["witt", "selftest", "--max-n", "3", "--q", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.endswith("q=2") and "integral" in line] == [
        "ok   integral N=1 q=2", "FAIL integral N=2 q=2", "FAIL integral N=3 q=2"]
    assert "ok   teich-mult N=3 q=2" in lines       # S_1 enters no product


# ---------------------------------------------------------------------
# oracles for the model rings
# ---------------------------------------------------------------------

class _FractionLocalIntegers:
    """Oracle: Z_(p) with gamma(x) = x^p / p on reduced Fractions."""

    def __init__(self, p: int):
        self.p = p

    def _check(self, a):
        if a.denominator % self.p == 0:
            raise ValueError("not p-local")
        return a

    def add(self, a, b):
        return self._check(a + b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return self._check(a * b)

    def in_J(self, a):
        return a == 0 or vp(a, self.p) >= 1

    def gamma(self, a):
        if not self.in_J(a):
            raise ValueError("gamma only defined on J")
        return self._check(a ** self.p / self.p)

    def o_image(self, c, k: int = 0):
        return self._check(Fraction(c) * Fraction(self.p) ** k)


def _fraction_dual_image(p: int, c, k: int):
    """Oracle: DualNumbers(p).o_image(c, k) through the Fraction c * p^k."""
    val = Fraction(c) * Fraction(p) ** k
    if val == 0:
        return (0, 0)
    v = vp(val, p)
    if v < 0:
        raise ValueError("not O-integral")
    if v >= 1:
        return (0, 0)
    return (val.numerator * pow(val.denominator, -1, p) % p, 0)


def _fraction_nilpotent_image(c, k: int):
    """Oracle: RamifiedNilpotents().o_image(c, k) through Fraction(c)."""
    c = Fraction(c)
    if c == 0:
        return (0, 0, 0, 0)
    exp = 4 * vp(c, 2) + k  # 2 maps to s^4 = 0, pi to s
    if exp < 0:
        raise ValueError("not O-integral")
    if exp >= 4:
        return (0, 0, 0, 0)
    out = [0, 0, 0, 0]
    out[exp] = 1
    return tuple(out)


def _fraction_local_image(p: int, c, k: int):
    """Oracle: LocalIntegers(p).o_image(c, k) as the reduced pair of the Fraction."""
    val = _FractionLocalIntegers(p).o_image(c, k)
    return (val.numerator, val.denominator)


_RATIONALS = st.one_of(st.integers(-300, 300),
                       st.fractions(min_value=-50, max_value=50, max_denominator=300))


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), c=_RATIONALS, k=st.integers(-3, 5))
@example(p=2, c=0, k=-3)
@example(p=3, c=Fraction(5, 9), k=2)     # v = 0 through a denominator power of p
@example(p=2, c=Fraction(-12, 7), k=-2)  # v = 0 through a numerator power of p
@example(p=5, c=Fraction(1, 25), k=1)    # not integral
def test_o_image_matches_fraction_oracles(p, c, k):
    cases = [(DualNumbers(p), _fraction_dual_image, (p, c, k)),
             (LocalIntegers(p), _fraction_local_image, (p, c, k))]
    if p == 2:
        cases.append((RamifiedNilpotents(), _fraction_nilpotent_image, (c, k)))
    for ring, oracle, args in cases:
        try:
            want = oracle(*args)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                ring.o_image(c, k)
            assert str(raised.value) == str(exc)
        else:
            assert ring.o_image(c, k) == want


def test_model_ring_checks_build_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert all(ok for _, ok in cli._witt_checks([]))
    assert made == []


def _local_pair(p, raw):
    """(num, den) with den > 0 prime to p, not reduced."""
    num, den = raw
    return num, den if den % p else den + 1


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 5)),
       a=st.tuples(st.integers(-60, 60), st.integers(1, 60)),
       b=st.tuples(st.integers(-60, 60), st.integers(1, 60)),
       unit=st.integers(1, 12),
       c=st.fractions(-20, 20, max_denominator=30), k=st.integers(-2, 3))
@example(p=3, a=(2, 4), b=(1, 2), unit=1, c=Fraction(1, 3), k=0)
@example(p=2, a=(6, 9), b=(-4, 6), unit=3, c=Fraction(3, 4), k=2)
def test_local_integer_pairs_match_fraction_oracle(p, a, b, unit, c, k):
    ring, oracle = LocalIntegers(p), _FractionLocalIntegers(p)
    a, b = _local_pair(p, a), _local_pair(p, b)
    unit = unit if unit % p else unit + 1
    fa, fb = Fraction(*a), Fraction(*b)

    def same(pair, want):
        return pair[1] > 0 and pair[1] % p != 0 and Fraction(*pair) == want

    assert same(ring.add(a, b), oracle.add(fa, fb))
    assert same(ring.mul(a, b), oracle.mul(fa, fb))
    assert same(ring.neg(a), oracle.neg(fa))
    assert ring.eq(a, b) == (fa == fb)
    assert ring.eq(a, (a[0] * unit, a[1] * unit)) and ring.eq((b[0] * unit, b[1] * unit), b)
    assert ring.in_J(a) == oracle.in_J(fa)
    x = (p * a[0] * unit, a[1] * unit)     # in J, unreduced when unit > 1
    assert ring.in_J(x) and same(ring.gamma(x), oracle.gamma(Fraction(*x)))
    try:
        want = oracle.o_image(c, k)
    except ValueError:
        with pytest.raises(ValueError, match="not p-local"):
            ring.o_image(c, k)
    else:
        assert same(ring.o_image(c, k), want)


def _nilpotent_mul_by_loops(a, b):
    """Oracle: the F_2[s]/(s^4) product as a double loop over coefficients."""
    out = [0, 0, 0, 0]
    for i in range(4):
        for j in range(4 - i):
            out[i + j] = (out[i + j] + a[i] * b[j]) % 2
    return tuple(out)


def test_nilpotent_product_matches_double_loop():
    ring = RamifiedNilpotents()
    elems = ring.sample_B()
    assert len(set(elems)) == 16
    for a in elems:
        for b in elems:
            assert ring.mul(a, b) == _nilpotent_mul_by_loops(a, b), (a, b)


def test_cli_import_does_not_load_sympy():
    import lubintate

    src = Path(lubintate.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, lubintate.cli; print('sympy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"
