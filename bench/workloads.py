"""Seeded job lists and per-job oracles for the lubintate benchmark.

A job is one `lubintate.cli.main(argv)` call, or one call to a public
library function that the CLI cannot reach.  Jobs come in four families,
one per group of layers: periods, witt, lattice and polygon.  A workload
is a fixed multiset of job classes from two families: the seed shuffles
the order of the jobs and draws only their free data (valuations,
evaluation points, vertices, flags), so two seeds run the same classes the
same number of times.

Each job carries an oracle that reads the job's stdout.  The oracles are
independent of the code path they check wherever one exists: closed forms
for ball sizes and polygon extremes, Python integers mod p^N for unramified
period evaluations, the boundary quotient profile for Hecke steps in D.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from lubintate import building, cells, cli, hecke, periods, polygon, wittlab
from lubintate.valuations import RamifiedRing


def _no_check(out: str) -> bool:
    return True


@dataclass
class Job:
    argv: tuple = ()
    call: Callable[[], str] | None = None
    check: Callable[[str], bool] = _no_check
    prepare: Callable[[], None] | None = None   # runs before each run, outside its latency
    cls: str = ""                               # set by Workload.jobs
    family: str = ""

    def run(self) -> int:
        """Run with stdout already redirected; returns the exit code."""
        if self.call is None:
            return cli.main(list(self.argv))
        sys.stdout.write(self.call())
        return 0


@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: float   # highest percentile with >= 10 samples beyond it here
    families: tuple   # family names; FAMILIES maps each to its job classes

    @property
    def classes(self):
        """(family, class name, count per pass, factory(rng) -> Job)."""
        return [(f, *c) for f in self.families for c in FAMILIES[f]]

    def class_counts(self) -> dict:
        return {cls: count for _, cls, count, _ in self.classes}

    def jobs(self, seed: int) -> list:
        rng = random.Random(seed)
        out = []
        for family, cls, count, make in self.classes:
            for _ in range(count):
                job = make(rng)
                job.cls, job.family = cls, family
                out.append(job)
        rng.shuffle(out)
        return out


def _cli_job(*argv, check=_no_check, prepare=None) -> Job:
    return Job(tuple(str(a) for a in argv), check=check, prepare=prepare)


# ---------------------------------------------------------------------
# periods: valuations, series and periods; no lattice or Witt code
# ---------------------------------------------------------------------

def _product_check(n, q, depth):
    def check(out):
        d = json.loads(out)
        return d["product_matches"] is True and (d["n"], d["q"], d["depth"]) == (n, q, depth)

    return lambda rng: _cli_job(
        "periods", "--n", n, "--q", q, "--depth", depth, "--product-check", check=check,
    )


def _cf2(q, depth):
    def check(out):
        cf = json.loads(out)["cf2"]
        return cf["cross_check"] is True and cf["convention"] in ("pi*f0/f1", "f1/f0")

    return lambda rng: _cli_job(
        "periods", "--n", 2, "--q", q, "--depth", depth, "--cf2", check=check,
    )


@cache
def _series(n, q, depth, N):
    """Period tuple over RamifiedRing(2, 1, N), built once per process."""
    return periods.period_series(n, q, depth, ring=RamifiedRing(2, 1, N))


def _format_vals(pairs) -> str:
    return ";".join(
        ("inf" if v.is_inf else str(v.as_fraction())) + ("!" if flag else "")
        for v, flag in pairs
    ) + "\n"


def _vp_int(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _eval_with_ints(pt, xs, p: int, N: int) -> str:
    """evaluate_periods for m = 1 redone with Python ints mod p^N.

    Reads the series through its JSON form (digits base p, pi exponents).
    """
    mod = p ** N
    out = []
    for comp in pt.f:
        terms = comp.to_json_dict()["terms"]
        if not terms:
            out.append("inf!")
            continue
        e_min = min(t["pi_exp"] for t in terms)
        total = 0
        for t in terms:
            digits = [int(d) for d in t["digits"].split(",")] if t["digits"] else []
            term = sum(d * p ** k for k, d in enumerate(digits)) * p ** (t["pi_exp"] - e_min)
            for x, e in zip(xs, t["exps"]):
                term *= pow(x, e, mod)
            total = (total + term) % mod
        out.append("inf!" if total == 0 else str(Fraction(e_min + _vp_int(total, p))))
    return ";".join(out) + "\n"


def _evaluate(n, q, depth, m, N):
    """evaluate_periods at a seeded point of positive valuation in (2, m, N)."""
    def make(rng):
        pt = _series(n, q, depth, N)
        ring = RamifiedRing(2, m, N)
        digits = [[0] + [rng.randrange(2) for _ in range(m * N - 1)] for _ in range(n - 1)]
        coords = [ring.from_digits(d) for d in digits]
        check = _no_check
        if m == 1:
            xs = [sum(d << k for k, d in enumerate(ds)) for ds in digits]
            want = _eval_with_ints(pt, xs, 2, N)
            check = want.__eq__
        return Job(
            call=lambda: _format_vals(periods.evaluate_periods(pt, coords, ring)),
            check=check,
        )

    return make


PERIODS = (
    ("periods-product-2-2-10", 1, _product_check(2, 2, 10)),
    ("periods-product-2-3-6", 2, _product_check(2, 3, 6)),
    ("periods-product-3-2-6", 4, _product_check(3, 2, 6)),
    ("periods-product-4-2-5", 1, _product_check(4, 2, 5)),
    ("periods-product-3-3-4", 5, _product_check(3, 3, 4)),
    # depth 4 at q = 2 takes ~23 s and depth 3 at q = 3 ~45 s: cf2_convention
    # reruns period_series at twice the depth, so cf2 jobs stay below that
    ("periods-cf2-2-2", 6, _cf2(2, 2)),
    ("periods-cf2-2-3", 3, _cf2(2, 3)),
    ("periods-cf2-3-2", 2, _cf2(3, 2)),
    ("evaluate-2-2-7-m4-N40", 2, _evaluate(2, 2, 7, 4, 40)),
    ("evaluate-2-2-9-m1-N64", 2, _evaluate(2, 2, 9, 1, 64)),
    ("evaluate-3-2-5-m1-N64", 2, _evaluate(3, 2, 5, 1, 64)),
)


# ---------------------------------------------------------------------
# lattice: building, fqlin and cells; no p-adic digit arithmetic
# ---------------------------------------------------------------------

def _gauss_binom(n: int, d: int, p: int) -> int:
    num = den = 1
    for k in range(d):
        num *= p ** n - p ** k
        den *= p ** d - p ** k
    return num // den


def _ball_size(n: int, p: int, radius: int):
    """Closed-form ball size where one is known, else None.

    n = 2: the Bruhat-Tits tree, 1 + (p+1)(p^r - 1)/(p - 1).
    radius 1: the centre plus one vertex per proper nonzero subspace of F_p^n.
    """
    if radius == 0:
        return 1
    if n == 2:
        return 1 + (p + 1) * (p ** radius - 1) // (p - 1)
    if radius == 1:
        return 1 + sum(_gauss_binom(n, d, p) for d in range(1, n))
    return None


def _building(n, p, radius):
    want = _ball_size(n, p, radius)

    def check(out):
        d = json.loads(out)
        size = len(d["vertices"])
        return (want is None or size == want) and all(
            0 <= a < size and 0 <= b < size for a, b, _ in d["edges"]
        )

    return lambda rng: _cli_job(
        "building", "--n", n, "--p", p, "--radius", radius, check=check,
    )


def _complex(n, p, radius, lift):
    size = _ball_size(n, p, radius)
    strata = sum(_gauss_binom(n, d, p) for d in range(1, n))

    def check(out):
        d = json.loads(out)
        ncells, nedges = len(d["cells"]), len(d["edges"])
        if size is not None and ncells != size * (2 if lift else 1):
            return False
        if n == 2 and nedges != ncells - (2 if lift else 1):
            return False  # one tree, or two disjoint trees when lifted
        # every boundary stratum is either glued (two per edge) or dangling
        return 2 * nedges + len(d["dangling"]) == ncells * strata

    extra = ("--lift",) if lift else ()
    return lambda rng: _cli_job(
        "cells", "complex", "--n", n, "--p", p, "--radius", radius, *extra, check=check,
    )


@cache
def _ball3(p):
    return building.ball(building.standard_vertex(p, 3), 1)


def _cocycle(p):
    """cocycle_check on a seeded radius-1 vertex and a seeded full flag, n = 3."""
    def make(rng):
        cell = cells.make_cell(rng.choice(_ball3(p)), 2)
        inner, outer = rng.choice(cells.full_flags(cell))
        return Job(
            call=lambda: f"{cells.cocycle_check(cell, inner, outer)}\n",
            check="True\n".__eq__,
        )

    return make


LATTICE = (
    ("building-3-2-1", 1, _building(3, 2, 1)),
    ("building-2-3-3", 1, _building(2, 3, 3)),
    ("building-2-2-4", 1, _building(2, 2, 4)),
    ("building-2-3-2", 2, _building(2, 3, 2)),          # pinned size 17
    ("cells-complex-3-2-1", 2, _complex(3, 2, 1, False)),
    ("cells-complex-2-3-2-lift", 1, _complex(2, 3, 2, True)),
    ("cells-complex-2-2-3-lift", 1, _complex(2, 2, 3, True)),
    ("cells-complex-2-3-1", 2, _complex(2, 3, 1, False)),  # pinned (5, 4)
    ("cocycle-3-2", 4, _cocycle(2)),
    ("cocycle-3-3", 4, _cocycle(3)),
)


# ---------------------------------------------------------------------
# witt: wittlab and sympy only, every job cold
# ---------------------------------------------------------------------

def cold_witt() -> None:
    """Drop the solved-law cache and, while sympy is loaded, sympy's cache."""
    clear = getattr(wittlab.witt_structure_polys, "cache_clear", None)
    if clear is not None:
        clear()
    sympy_cache = sys.modules.get("sympy.core.cache")
    if sympy_cache is not None:
        sympy_cache.clear_cache()


def _witt(max_n, qs):
    def check(out):
        return "FAIL" not in out

    return lambda rng: _cli_job(
        "witt", "selftest", "--max-n", max_n, "--q", qs,
        check=check, prepare=cold_witt,
    )


WITT = (
    ("witt-3-2", 2, _witt(3, "2")),
    ("witt-2-3", 2, _witt(2, "3")),
    ("witt-2-2,4", 2, _witt(2, "2,4")),
    ("witt-3-3", 3, _witt(3, "3")),
    ("witt-2-2", 3, _witt(2, "2")),
    ("witt-1-3", 6, _witt(1, "3")),
)


# ---------------------------------------------------------------------
# polygon: polygon and hecke on diverse inputs, CLI-bound
# ---------------------------------------------------------------------

def _hull_values(n: int, q: int, vals):
    """Lower hull of (1, 1), (q^i, v_i), (q^n, 0) at each q^i, brute force."""
    xs = [q ** i for i in range(n + 1)]
    ys = [Fraction(1)] + [Fraction(v) for v in vals] + [Fraction(0)]
    out = []
    for k in range(n + 1):
        best = ys[k]
        for a in range(k + 1):
            for b in range(k, n + 1):
                if a < b:
                    best = min(best, ys[a] + (ys[b] - ys[a]) * (xs[k] - xs[a]) / (xs[b] - xs[a]))
        out.append(best)
    return out


def _hull_slopes(n: int, q: int, vals):
    h = _hull_values(n, q, vals)
    return [(h[j - 1] - h[j]) / (q ** j - q ** (j - 1)) for j in range(1, n + 1)]


def _in_d(n: int, hull) -> bool:
    return all(hull[i] >= Fraction(n - i, n) for i in range(n + 1))


def _fracs(objs):
    return [Fraction(o["num"], o["den"]) for o in objs]


def _random_vals(rng, n):
    """n - 1 valuations in (0, 1) with small denominators."""
    out = []
    for _ in range(n - 1):
        den = rng.randint(2, 13)
        out.append(Fraction(rng.randint(1, den - 1), den))
    return out


def _vals_arg(vals) -> str:
    return ",".join(str(v) for v in vals)


def _reduce(n, q):
    def make(rng):
        vals = _random_vals(rng, n)
        slopes = _hull_slopes(n, q, vals)

        def check(out):
            d = json.loads(out)
            final = _fracs(d["final"]["vertex_vals"])
            return (
                _fracs(d["initial"]["slopes"]) == slopes
                and _in_d(n, final)
                and len(d["trail"]) == len(d["steps"]) + 1
                and d["trail"][-1] == d["final"]
            )

        return _cli_job("hecke", "reduce", "--n", n, "--q", q,
                        "--vals", _vals_arg(vals), check=check)

    return make


def _quotient(n, q):
    """A polygon in D with a rupture at the chosen rank."""
    def make(rng):
        while True:
            vals = []
            for i in range(1, n):
                floor = Fraction(n - i, n)
                den = rng.randint(2, 13)
                vals.append(floor + (1 - floor) * Fraction(rng.randint(0, den), den))
            slopes = _hull_slopes(n, q, vals)
            ruptures = [i for i in range(1, n) if slopes[i - 1] > slopes[i]]
            if ruptures:
                break
        rank = rng.choice(ruptures)
        want = hecke.boundary_quotient_profile(polygon.polygon_from_vals(n, q, vals), rank)

        def check(out):
            d = json.loads(out)
            got = tuple((Fraction(e["val"]["num"], e["val"]["den"]), e["mult"])
                        for e in d["image_values"])
            return got == want and _fracs(d["source"]["slopes"]) == slopes

        return _cli_job("hecke", "quotient", "--n", n, "--q", q,
                        "--vals", _vals_arg(vals), "--rank", rank, check=check)

    return make


def _torsion(n, q):
    """A polygon in H (lambda_1 < q^n lambda_n) and its pi^k torsion."""
    def make(rng):
        while True:
            vals = _random_vals(rng, n)
            slopes = _hull_slopes(n, q, vals)
            if slopes[0] < slopes[-1] * q ** n:
                break
        k = rng.randint(1, 3)

        def check(out):
            d = json.loads(out)
            return (
                _fracs([d["lambda_1"], d["lambda_n"]]) == [slopes[0], slopes[-1]]
                and sum(e["mult"] for e in d["torsion"]) == q ** (n * k) - 1
            )

        return _cli_job("polygon", "--n", n, "--q", q,
                        "--vals", _vals_arg(vals), "--torsion", k, check=check)

    return make


_POLYGON_SHAPES = ((4, 7), (5, 5), (6, 4), (7, 3), (8, 2), (9, 3), (10, 2))

POLYGON = tuple(
    (f"{kind}-{n}-{q}", 2, make(n, q))
    for n, q in _POLYGON_SHAPES
    for kind, make in (("hecke-reduce", _reduce), ("hecke-quotient", _quotient),
                       ("polygon-torsion", _torsion))
)


FAMILIES = {"periods": PERIODS, "witt": WITT, "lattice": LATTICE, "polygon": POLYGON}

# Two workloads rather than one per family: on a shared 2-vCPU host the
# machine's speed drifts over tens of seconds, and a full evaluation
# (4 + 22 runs per workload in under an hour) allows runs long enough to
# average that out only for two workloads.
# algebra: p-adic digits, series, periods and the Witt lab.  Counts put the
# median in the middle of the 23-24 ms period jobs (as many jobs are lighter
# as heavier) and the p97.5 inside the witt-3-3 block.
# geometry: lattices, cells, polygons and Hecke steps.  The median falls
# among the ~4 ms CLI-bound polygon jobs; the p99 inside the
# cells-complex-3-2-1 block.
WORKLOADS = {w.name: w for w in (
    Workload("algebra", 97.5, ("periods", "witt")),
    Workload("geometry", 99.0, ("lattice", "polygon")),
)}
