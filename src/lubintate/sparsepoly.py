"""Sparse Laurent polynomials in pi over Z, on packed exponent keys.

A polynomial is a dict {key: c} with c a nonzero int (a Fraction only for
rational scalars).  A `Ring` fixes an order of variable names and packs a
term's exponents into the one int key (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  Variable i owns the bit field [i*w, (i+1)*w): its exponent sits in
the low w - 1 bits and the top bit is a guard that stays clear.  The pi
exponent, which may be negative, is the rest of the int above all variable
fields:

    key = (pi_exp << shift) + sum_i (e_i << i*w),    shift = w * len(names)

so a term product is the key sum ka + kb, and pi^k * a adds k << shift to
every key.  Two field values below 2^(w-1) sum below 2^w, so a product
never carries into the next field; a product whose exponent passes the
field sets a guard bit and raises ValueError.  Sums go through
`valuations.sum_terms`, which drops zero coefficients, so two polynomials
of one ring are equal exactly when their dicts are.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import or_

from .valuations import sum_terms


class Ring:
    """Polynomials in `names` whose exponents stay at most `max_exp`."""

    def __init__(self, names, max_exp: int):
        self.names = tuple(sorted(names))   # field order is name order
        self.width = w = max_exp.bit_length() + 1
        self.shift = w * len(self.names)
        self.mask = (1 << self.shift) - 1
        self.guard = sum(1 << (i * w + w - 1) for i in range(len(self.names)))
        self.limit = 1 << (w - 1)     # exponents stay below this
        self.offset = {name: i * w for i, name in enumerate(self.names)}

    # ---- terms ------------------------------------------------------------

    def key(self, k: int, mono=()) -> int:
        """The key of pi^k * mono, mono a tuple of (name, exponent >= 1) pairs
        with distinct names."""
        key = k << self.shift
        for name, e in mono:
            if not 0 < e < self.limit:
                raise ValueError(f"exponent {e} of {name} outside 1..{self.limit - 1}")
            key += e << self.offset[name]
        return key

    def decode(self, key: int):
        """(k, mono): the pi exponent and the name-sorted (name, exponent) pairs."""
        rest, w = key & self.mask, self.width
        mono = []
        while rest:   # the highest nonzero field first
            i = (rest.bit_length() - 1) // w
            e = rest >> (i * w)
            mono.append((self.names[i], e))
            rest -= e << (i * w)
        mono.reverse()
        return key >> self.shift, tuple(mono)

    def var(self, name: str) -> dict:
        return {1 << self.offset[name]: 1}

    def _checked(self, poly: dict) -> dict:
        if reduce(or_, poly, 0) & self.guard:
            raise ValueError(f"a product passes the {self.width - 1}-bit exponent field")
        return poly

    # ---- arithmetic -------------------------------------------------------

    @staticmethod
    def add(a: dict, b: dict, sign: int = 1) -> dict:
        """a + sign*b."""
        return sum_terms(itertools.chain(a.items(), ((t, sign * c) for t, c in b.items())))

    def shift_pi(self, a: dict, k: int) -> dict:
        """pi^k * a."""
        k <<= self.shift
        return {t + k: c for t, c in a.items()}

    def mul(self, a: dict, b: dict) -> dict:
        if len(a) == 1:   # one term: its key shifts b's keys, which stay distinct
            [(ka, ca)] = a.items()
            return self._checked({ka + kb: ca * cb for kb, cb in b.items()})
        return self._checked(sum_terms((ka + kb, ca * cb)
                                       for ka, ca in a.items() for kb, cb in b.items()))

    def pow(self, a: dict, n: int) -> dict:
        if n == 0:
            return {0: 1}
        if not a:
            return {}
        if len(a) == 1:  # one term: (c pi^k mono)^n in closed form
            [(k, c)] = a.items()
            _, mono = self.decode(k)
            if any(e * n >= self.limit for _, e in mono):
                raise ValueError(f"a power passes the {self.width - 1}-bit exponent field")
            return {k * n: c ** n}
        out = a
        for _ in range(n - 1):
            out = self.mul(out, a)
        return out

    def subs(self, polys, env: dict) -> tuple:
        """Each of polys with env[name] (a polynomial of this ring) put for every variable.

        Each power env[name]^e is computed once per call.
        """
        powers = {}
        out = []
        for poly in polys:
            terms = []
            for key, c in poly.items():
                k, mono = self.decode(key)
                term = {k << self.shift: c}
                for name_e in mono:
                    if name_e not in powers:
                        powers[name_e] = self.pow(env[name_e[0]], name_e[1])
                    term = self.mul(term, powers[name_e])
                terms.extend(term.items())
            out.append(sum_terms(terms))
        return tuple(out)

    def fmt(self, poly: dict) -> str:
        """sympy-parsable text; terms by descending pi exponent, then monomial."""
        parts = []
        for (k, mono), c in sorted(((self.decode(t), c) for t, c in poly.items()),
                                   key=lambda t: (-t[0][0], t[0][1])):
            factors = [name if e == 1 else f"{name}**{e}" for name, e in mono]
            if k > 0:
                factors.append("pi" if k == 1 else f"pi**{k}")
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            text = "*".join(factors)
            if k < 0:
                text += "/pi" if k == -1 else f"/pi**{-k}"
            if parts:
                parts.append(f"- {text}" if c < 0 else f"+ {text}")
            else:
                parts.append(f"-{text}" if c < 0 else text)
        return " ".join(parts) or "0"
