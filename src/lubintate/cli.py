"""Command line front end.

One subcommand per toolkit area.  All output is deterministic: JSON is
written by `_encode`, which gives the bytes of `json.dumps(obj, indent=2,
sort_keys=True)` without the standard library's pure-Python encoder, and
DOT and SVG renderings are built from sorted vertex and edge lists, so
identical invocations produce identical bytes.  `cells complex` writes the
boundary constraint its cells share once, not once per cell.

Exit codes: 0 on success, 1 on domain errors (collisions, budget or level
failures, bad valuations) and when the reader closes stdout early, 2 on
usage errors (argparse's own convention).  Every subcommand with an `--n`
refuses n < 1, one with an integer `--q` a q that is not a prime power,
one with a `--p` a p that is not prime, and `hecke reduce` a negative
`--budget`; `building` and `cells complex` refuse a radius whose ball
and out-edges may need more than `building.BALL_WORK_BUDGET` neighbour
lattices, `cells complex` a level its cells cannot glue at
(`cells.check_level`), `periods` a depth past the budgets of
`periods.check_budget`, `cells generators` an (n, i) past
`cells.GENERATORS_WORK_BUDGET`, `polygon` and `hecke` an (n, q),
`hecke reduce` an (n, q, budget) and `polygon --torsion` a profile past
`polygon.TORSION_DIGIT_BUDGET`, and `witt selftest` any `--q` entry that
is not a prime power and a (max-n, q) past `wittlab.SELFTEST_MAX_Q`; all
before any work starts.  So is an
`--out` path whose directory is missing or that names a directory; one
that still cannot be written exits 1 after the work.  The `--out` file
is opened only once the output is complete, so a failed run leaves it as
it was.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import building, cells, hecke, periods, polygon, wittlab
from .valuations import _is_prime, frac_json, prime_power_split


def _parse(kind, text: str, what: str):
    """kind(text), or a ValueError naming the bad `what` entry."""
    try:
        return kind(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {what} {text!r}") from exc


def _parse_vals(text: str):
    return [_parse(Fraction, piece, "rational") for piece in text.split(",")]


def _value_mult_list(pairs):
    return [{"val": frac_json(v), "mult": m} for v, m in pairs]


def _check_out(path: str) -> None:
    """Raise what `open(path, "w")` would for a directory or a missing parent."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


_WRITERS = {str: encode_basestring_ascii, int: int.__repr__}  # by exact type
_PADS = tuple("\n" + "  " * d for d in range(16))  # newline and indent at each depth
_SEPS = tuple("," + pad for pad in _PADS)


def _encode(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte.

    With `indent` set the standard library falls back to its pure-Python
    encoder.  Here a value of exact type str or int goes straight to its
    writer (the C `encode_basestring_ascii`, `int.__repr__`), a dict writes
    such values inline, and a list or tuple whose items all have one of
    those types is one `str.join`.  Types are matched exactly: a value that
    is not a dict, list, tuple, str, int, bool or None, a subclass of one of
    them included (an IntEnum, an OrderedDict), raises TypeError, and so
    does a dict key that is not a str.
    """

    def block(brackets, parts, depth):
        if depth + 1 < len(_PADS):
            inner, sep, outer = _PADS[depth + 1], _SEPS[depth + 1], _PADS[depth]
        else:
            inner = "\n" + "  " * (depth + 1)
            sep, outer = "," + inner, inner[:-2]
        return brackets[0] + inner + sep.join(parts) + outer + brackets[1]

    def enc_dict(o, depth):
        if not o:
            return "{}"
        parts = []
        for k, v in sorted(o.items()):
            write = _WRITERS.get(type(v))
            parts.append(encode_basestring_ascii(k) + ": " + (write(v) if write else enc(v, depth + 1)))
        return block("{}", parts, depth)

    def enc_list(o, depth):
        if not o:
            return "[]"
        write = _WRITERS.get(type(o[0])) if len(set(map(type, o))) == 1 else None
        return block("[]", map(write, o) if write else [enc(x, depth + 1) for x in o], depth)

    def enc(o, depth):
        write = _WRITERS.get(type(o))
        if write is not None:
            return write(o)
        if type(o) is dict:
            return enc_dict(o, depth)
        if type(o) is list or type(o) is tuple:
            return enc_list(o, depth)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    return enc(obj, 0)


def _dump(args, obj) -> None:
    _emit(args, _encode(obj))


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_periods(args) -> int:
    if args.cf2 and args.n != 2:
        raise ValueError("the continued fraction form needs n = 2")
    periods.check_budget(args.n, args.q, args.depth, args.cf2)
    pt = periods.period_series(args.n, args.q, args.depth)
    out = pt.to_json_dict()
    if args.product_check:
        other = periods.period_series_product(args.n, args.q, args.depth)
        out["product_matches"] = pt == other
    if args.cf2:
        cf = periods.period_cf2(args.q, args.depth, cap=pt.cap)
        out["cf2"] = {
            "series": cf.series.to_json_dict(),
            "x_exp": cf.x_exp,
            "convention": periods.cf2_convention(args.q, max(args.depth, 1)),
            "cross_check": periods.cf2_cross_check(args.q, max(args.depth, 1)),
        }
    _dump(args, out)
    return 0


def cmd_polygon(args) -> int:
    polygon.check_polygon_budget(args.n, args.q)
    if args.torsion and args.format == "json":
        polygon.check_torsion_budget(args.n, args.q, args.torsion)
    if args.cm is not None:
        poly = polygon.cm_polygon(args.n, args.q, args.cm)
    else:
        if args.vals is None:
            raise ValueError("need --vals or --cm")
        poly = polygon.polygon_from_vals(args.n, args.q, _parse_vals(args.vals))
    if args.format == "ascii":
        _emit(args, polygon.render_ascii(poly))
    elif args.format == "svg":
        _emit(args, polygon.render_svg(poly))
    else:
        out = poly.to_json_dict()
        out["lambda_1"] = frac_json(poly.slopes[0])
        out["lambda_n"] = frac_json(poly.slopes[-1])
        if args.torsion:
            out["torsion"] = _value_mult_list(
                polygon.torsion_valuations(poly, args.torsion)
            )
        _dump(args, out)
    return 0


def cmd_hecke_quotient(args) -> int:
    polygon.check_polygon_budget(args.n, args.q)
    poly = polygon.polygon_from_vals(args.n, args.q, _parse_vals(args.vals))
    step = hecke.canonical_quotient(poly, args.rank)
    _dump(args, {
        "rank": step.rank,
        "source": step.source.to_json_dict(),
        "image": step.image.to_json_dict(),
        "kernel_values": _value_mult_list(step.kernel_values),
        "image_values": _value_mult_list(step.image_values),
    })
    return 0


def cmd_hecke_reduce(args) -> int:
    # the initial and final polygons, and a trail of at most budget + 1
    polygon.check_polygon_budget(args.n, args.q, args.budget + 3)
    poly = polygon.polygon_from_vals(args.n, args.q, _parse_vals(args.vals))
    res = hecke.reduce_to_domain(poly, budget=args.budget)
    _dump(args, {
        "initial": res.initial.to_json_dict(),
        "final": res.final.to_json_dict(),
        "steps": list(res.steps),
        "trail": [p.to_json_dict() for p in res.trail],
    })
    return 0


def cmd_building(args) -> int:
    lists = building.ball_edges(building.standard_vertex(args.p, args.n), args.radius)
    edges = [(v, w, i) for v, out in lists.items() for w, i in out if w in lists]
    if args.format == "dot":
        _emit(args, building.to_dot(lists, edges))
    else:
        index = {v: k for k, v in enumerate(lists)}
        _dump(args, {
            "vertices": [v.json_dict() for v in lists],
            "edges": sorted([index[a], index[b], i] for a, b, i in edges),
        })
    return 0


def cmd_cells_complex(args) -> int:
    cells.check_level(args.level, args.n)
    verts = building.ball(building.standard_vertex(args.p, args.n), args.radius)
    if args.lift:
        verts = list(verts) + [building.descent(v) for v in verts]
    cx = cells.assemble_complex(verts, level=args.level)
    if args.format == "dot":
        vs = [c.vertex for c in cx.cells]
        edges = [(vs[e.cell_a], vs[e.cell_b], e.rank) for e in cx.edges]
        _emit(args, building.to_dot(vs, edges))
    else:
        _dump(args, cx.to_json_dict())
    return 0


def cmd_cells_generators(args) -> int:
    cells.check_generators_budget(args.n, args.i)
    gens = cells.integral_generators(args.n, args.i)
    _dump(args, {
        "n": args.n,
        "i": args.i,
        "generators": [[e, k] for e, k in gens],
        "saturated": cells.saturation_check(args.n, args.i),
    })
    return 0


def _report(checks):
    """An `ok  ` or `FAIL` line for each (name, ok) check, and exit code 1 if any failed."""
    checks = list(checks)
    lines = [f"{'ok  ' if ok else 'FAIL'} {name}" for name, ok in checks]
    return lines, 0 if all(ok for _, ok in checks) else 1


def _witt_checks(laws):
    for law in laws:
        verdicts = (("integral", wittlab.check_o_integrality(law)),
                    ("ghost-hom", wittlab.verify_ghost_homomorphism(law)),
                    ("teich-mult", wittlab.verify_teichmueller_mult(law)),
                    ("teich-scale", wittlab.verify_teichmueller_scale(law)),
                    ("FV=pi", wittlab.verify_fv_is_pi(law)))
        # the law at N is the first N components of the law at law.N
        for N in range(1, law.N + 1):
            for name, by_component in verdicts:
                yield f"{name} N={N} q={law.q}", all(by_component[:N])
    rings = [
        ("dual-F2", wittlab.DualNumbers(2)),
        ("dual-F3", wittlab.DualNumbers(3)),
        ("F2[s]/s^4", wittlab.RamifiedNilpotents()),
        ("Z_(2)", wittlab.LocalIntegers(2)),
        ("Z_(3)", wittlab.LocalIntegers(3)),
    ]
    for name, ring in rings:
        yield f"opd-axioms {name}", wittlab.opd_axioms_hold(ring)
        samples = ring.sample_J()
        vec = tuple(samples[k % len(samples)] for k in range(3))
        round1 = wittlab.exp_opd(ring, wittlab.log_opd(ring, vec))
        round2 = wittlab.log_opd(ring, wittlab.exp_opd(ring, vec))
        ok = all(ring.eq(a, b) for a, b in zip(round1, vec))
        ok = ok and all(ring.eq(a, b) for a, b in zip(round2, vec))
        yield f"log/exp {name}", ok


def cmd_witt_selftest(args) -> int:
    qs = [_parse(int, x, "--q entry") for x in args.q.split(",")]
    wittlab.check_selftest_budget(args.max_n, qs)
    laws = [wittlab.witt_structure_polys(args.max_n, q) for q in qs]
    lines, code = _report(_witt_checks(laws))
    for law in laws:
        lines.append(f"structure polynomials, q={law.q}, N={law.N}:")
        for fam, tag in ((law.sum_polys, "S"), (law.prod_polys, "P"),
                         (law.frob_polys, "F")):
            for i, poly in enumerate(fam):
                lines.append(f"  {tag}_{i} = {law.poly_ring.fmt(poly)}")
    _emit(args, "\n".join(lines))
    return code


def _smoke_checks():
    pt = periods.period_series(2, 2, 2)
    yield "periods recurrence = product", pt == periods.period_series_product(2, 2, 2)

    grid = [Fraction(a, 5) for a in range(1, 5)]
    ok = True
    for v1 in grid:
        poly = polygon.polygon_from_vals(2, 2, [v1])
        l1, ln = polygon.lambda_extremes(2, 2, [v1])
        ok = ok and (l1, ln) == (poly.slopes[0], poly.slopes[-1])
    yield "polygon extremes = hull", ok

    res = hecke.reduce_to_domain(polygon.polygon_from_vals(2, 3, [Fraction(3, 10)]))
    yield "hecke reduce lands in D", polygon.in_gross_hopkins(res.final)

    # Gross's quasi-canonical lift of level 3 at q = 2: v(x_1) = 1/e_3, e_3 = q^2 (q + 1)
    res = hecke.reduce_to_domain(polygon.polygon_from_vals(2, 2, [Fraction(1, 12)]))
    ok = res.steps == (1, 1, 1) and res.final == polygon.cm_polygon(2, 2, 1)
    yield "hecke quasi-canonical orbit (level 3)", ok

    sizes = [len(building.ball(building.standard_vertex(3, 2), r)) for r in range(3)]
    yield "ball sizes (1,5,17)", sizes == [1, 5, 17]

    cx = cells.assemble_complex(building.ball(building.standard_vertex(3, 2), 1))
    yield "cell complex (5,4)", (len(cx.cells), len(cx.edges)) == (5, 4)

    law = wittlab.witt_structure_polys(2, 2)
    key = law.poly_ring.key
    want = {key(0, (("x1", 1),)): 1, key(0, (("y1", 1),)): 1,
            key(-1, (("x0", 1), ("y0", 1))): -2}  # x1 + y1 - 2*x0*y0/pi
    yield "witt S_1 at q=2", law.sum_polys[1] == want


def cmd_selftest(args) -> int:
    lines, code = _report(_smoke_checks())
    _emit(args, "\n".join(lines))
    return code


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built on first use and shared by later calls."""
    top = argparse.ArgumentParser(
        prog="lubintate",
        description="exact tools for period maps, polygon calculus, "
                    "lattice complexes, and ramified Witt vectors",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sp_per = sub.add_parser("periods", help="period tuple by the matrix recurrence")
    sp_per.add_argument("--n", type=int, required=True)
    sp_per.add_argument("--q", type=int, required=True)
    sp_per.add_argument("--depth", type=int, required=True)
    sp_per.add_argument("--product-check", action="store_true",
                        help="cross-check against the matrix product oracle")
    sp_per.add_argument("--cf2", action="store_true",
                        help="attach the height-2 continued fraction value")
    sp_per.add_argument("--out")
    sp_per.set_defaults(func=cmd_periods)

    sp_poly = sub.add_parser("polygon", help="torsion polygon from valuations")
    sp_poly.add_argument("--n", type=int, required=True)
    sp_poly.add_argument("--q", type=int, required=True)
    sp_poly.add_argument("--vals", help="comma separated rationals v_1,..,v_{n-1}")
    sp_poly.add_argument("--cm", type=int, default=None,
                         help="build the block polygon with e | n blocks instead")
    sp_poly.add_argument("--torsion", type=int, default=0,
                         help="include valuations of the pi^k torsion")
    sp_poly.add_argument("--format", choices=("json", "ascii", "svg"),
                         default="json")
    sp_poly.add_argument("--out")
    sp_poly.set_defaults(func=cmd_polygon)

    sp_hecke = sub.add_parser("hecke", help="canonical subgroup operations")
    hsub = sp_hecke.add_subparsers(dest="hecke_command", required=True)
    hq = hsub.add_parser("quotient", help="single canonical quotient step")
    hq.add_argument("--n", type=int, required=True)
    hq.add_argument("--q", type=int, required=True)
    hq.add_argument("--vals", required=True)
    hq.add_argument("--rank", type=int, required=True)
    hq.add_argument("--out")
    hq.set_defaults(func=cmd_hecke_quotient)
    hr = hsub.add_parser("reduce", help="iterate quotients into the good domain")
    hr.add_argument("--n", type=int, required=True)
    hr.add_argument("--q", type=int, required=True)
    hr.add_argument("--vals", required=True)
    hr.add_argument("--budget", type=int, default=32)
    hr.add_argument("--out")
    hr.set_defaults(func=cmd_hecke_reduce)

    sp_bld = sub.add_parser("building", help="lattice-class ball with height tags")
    sp_bld.add_argument("--n", type=int, required=True)
    sp_bld.add_argument("--p", type=int, required=True)
    sp_bld.add_argument("--radius", type=int, default=1)
    sp_bld.add_argument("--format", choices=("json", "dot"), default="json")
    sp_bld.add_argument("--out")
    sp_bld.set_defaults(func=cmd_building)

    sp_cells = sub.add_parser("cells", help="polydisk cells and boundary gluing")
    csub = sp_cells.add_subparsers(dest="cells_command", required=True)
    cc = csub.add_parser("complex", help="assemble cells over a vertex ball")
    cc.add_argument("--n", type=int, required=True)
    cc.add_argument("--p", type=int, required=True)
    cc.add_argument("--radius", type=int, default=1)
    cc.add_argument("--level", type=int, default=2)
    cc.add_argument("--lift", action="store_true",
                    help="also include the height-shifted copy of the ball")
    cc.add_argument("--format", choices=("json", "dot"), default="json")
    cc.add_argument("--out")
    cc.set_defaults(func=cmd_cells_complex)
    cg = csub.add_parser("generators", help="monoid generators of a stratum")
    cg.add_argument("--n", type=int, required=True)
    cg.add_argument("--i", type=int, required=True)
    cg.add_argument("--out")
    cg.set_defaults(func=cmd_cells_generators)

    sp_witt = sub.add_parser("witt", help="ramified Witt vector laboratory")
    wsub = sp_witt.add_subparsers(dest="witt_command", required=True)
    ws = wsub.add_parser("selftest", help="structure polynomial and OPD checks")
    ws.add_argument("--max-n", type=int, default=2)
    ws.add_argument("--q", default="2")
    ws.add_argument("--out")
    ws.set_defaults(func=cmd_witt_selftest)

    st = sub.add_parser("selftest", help="fast cross-module smoke checks")
    st.add_argument("--out")
    st.set_defaults(func=cmd_selftest)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        if getattr(args, "n", 1) < 1:
            raise ValueError("need n >= 1")
        if type(getattr(args, "q", None)) is int:  # witt selftest takes a list
            prime_power_split(args.q)
        if not _is_prime(getattr(args, "p", 2)):
            raise ValueError("p must be prime")
        if getattr(args, "budget", 0) < 0:
            raise ValueError("need budget >= 0")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout early: drop the rest
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except OSError as exc:  # --out names a path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
