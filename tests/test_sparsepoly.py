"""The packed-key polynomial kernel against name-pair oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lubintate.sparsepoly import Ring
from lubintate.valuations import sum_terms

NAMES = ("a", "b", "x0", "x10", "y2")


# ---------------------------------------------------------------------
# oracles: polynomials as {(pi_exp, mono): c}, mono a name-sorted tuple of
# (name, exponent >= 1) pairs; the representation before packed keys
# ---------------------------------------------------------------------

def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return a or b
    return tuple(sorted(sum_terms(a + b).items()))


def _mul(a: dict, b: dict) -> dict:
    return sum_terms(((ka + kb, _mono_mul(ma, mb)), ca * cb)
                     for (ka, ma), ca in a.items() for (kb, mb), cb in b.items())


def _pow(a: dict, n: int) -> dict:
    out = {(0, ()): 1}
    for _ in range(n):
        out = _mul(out, a)
    return out


def _subs(poly: dict, env: dict) -> dict:
    terms = []
    for (k, mono), c in poly.items():
        term = {(k, ()): c}
        for name, e in mono:
            term = _mul(term, _pow(env[name], e))
        terms.extend(term.items())
    return sum_terms(terms)


def decoded(R, poly):
    return {R.decode(t): c for t, c in poly.items()}


def encoded(R, pairs):
    return {R.key(k, mono): c for (k, mono), c in pairs.items()}


monomials = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(1, 3)), max_size=3, unique_by=lambda t: t[0],
).map(lambda pairs: tuple(sorted(pairs)))
polys = st.dictionaries(st.tuples(st.integers(-3, 3), monomials),
                        st.integers(-5, 5).filter(bool), max_size=4)


@settings(max_examples=150, deadline=None)
@given(a=polys, b=polys, n=st.integers(0, 4),
       env=st.fixed_dictionaries({name: polys for name in NAMES}))
def test_packed_kernel_matches_name_pair_oracles(a, b, n, env):
    R = Ring(NAMES, 2 ** 8)
    pa, pb = encoded(R, a), encoded(R, b)
    assert decoded(R, pa) == a
    assert decoded(R, R.add(pa, pb, -1)) == sum_terms(
        itertools.chain(a.items(), ((t, -c) for t, c in b.items())))
    assert decoded(R, R.shift_pi(pa, -2)) == {(k - 2, mono): c for (k, mono), c in a.items()}
    assert decoded(R, R.mul(pa, pb)) == _mul(a, b)
    assert decoded(R, R.pow(pa, n)) == _pow(a, n)
    packed_env = {name: encoded(R, value) for name, value in env.items()}
    assert [decoded(R, p) for p in R.subs((pa, pb), packed_env)] == [_subs(a, env), _subs(b, env)]


def test_exponent_past_its_field_raises_instead_of_carrying():
    R = Ring(("x", "y"), 3)        # exponents 0..3 in each field
    x3 = {R.key(0, (("x", 3),)): 1}
    assert decoded(R, R.mul(x3, R.var("y"))) == {(0, (("x", 3), ("y", 1))): 1}
    with pytest.raises(ValueError):
        R.key(0, (("x", 4),))
    with pytest.raises(ValueError):
        R.mul(x3, R.var("x"))                       # x^4 would carry into y
    with pytest.raises(ValueError):
        R.mul(R.add(x3, R.var("y")), R.var("x"))    # the same, inside a sum
    with pytest.raises(ValueError):
        R.pow(R.var("x"), 4)                        # one term, in closed form
    with pytest.raises(ValueError):
        R.pow(R.add(R.var("x"), R.var("y")), 4)     # several terms, by products


def test_power_of_zero_makes_no_products(monkeypatch):
    R = Ring(("x",), 1)

    def refuse(a, b):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(R, "mul", refuse)
    assert R.pow({}, 4096) == {}
    assert R.pow({}, 0) == {0: 1}
