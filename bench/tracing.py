"""Per-layer tracing for the lubintate benchmark, installed from outside.

`Tracer.install()` replaces each public function listed in TARGETS with a
wrapper that records a span: name, start, end, parent span and job id.
It wraps every binding site, not only the defining module: `cells` and
`building` import several of these functions by name, so every
`lubintate.*` module attribute that is the same object is replaced too.
Class attributes are replaced on the class; a classmethod stays a
classmethod.  `uninstall()` restores every original and checks it.

Spans stay in memory, in flat arrays, until the run ends.  A span's self
time is its duration minus the time its direct child spans cover; calls
are single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from functools import wraps
from importlib import import_module
from time import perf_counter

# (span name, module, attribute path) for every wrapped function; functions
# sharing a span name are reported together
TARGETS = (
    ("valuations.ramified_mul", "valuations", "RamifiedElement.__mul__"),
    ("valuations.ramified_addsub", "valuations", "RamifiedElement.__add__"),
    ("valuations.ramified_addsub", "valuations", "RamifiedElement.__sub__"),
    ("valuations.ramified_inverse", "valuations", "RamifiedElement.inverse"),
    ("valuations.laurent_mul", "valuations", "LaurentCoeff.__mul__"),
    ("valuations.laurent_add", "valuations", "LaurentCoeff.__add__"),
    ("series.trunc_mul", "series", "TruncSeries.__mul__"),
    ("series.trunc_add", "series", "TruncSeries.__add__"),
    ("series.inverse", "series", "TruncSeries.inverse"),
    ("series.matrix_mul", "series", "SeriesMatrix.__mul__"),
    ("periods.period_series", "periods", "period_series"),
    ("periods.period_series_product", "periods", "period_series_product"),
    ("periods.period_cf2", "periods", "period_cf2"),
    ("periods.cf2_convention", "periods", "cf2_convention"),
    ("periods.cf2_cross_check", "periods", "cf2_cross_check"),
    ("periods.guarded_cf2", "periods", "_guarded_cf2"),
    ("periods.evaluate_periods", "periods", "evaluate_periods"),
    ("polygon.from_vals", "polygon", "polygon_from_vals"),
    ("polygon.newton_polygon", "polygon", "NewtonPolygon.__init__"),
    ("polygon.torsion_valuations", "polygon", "torsion_valuations"),
    ("hecke.canonical_quotient", "hecke", "canonical_quotient"),
    ("hecke.reduce_to_domain", "hecke", "reduce_to_domain"),
    ("fqlin.rref", "fqlin", "rref"),
    ("fqlin.kernel_basis", "fqlin", "kernel_basis"),
    ("fqlin.echelon_subspaces", "fqlin", "echelon_subspaces"),
    ("building.from_cols", "building", "Lattice.from_cols"),
    ("building.solve_coords", "building", "Lattice.solve_coords"),
    ("building.out_edges", "building", "out_edges"),
    ("building.make_vertex", "building", "make_vertex"),
    ("building.ball", "building", "ball"),
    ("cells.glue_edge", "cells", "glue_edge"),
    ("cells.assemble_complex", "cells", "assemble_complex"),
    ("cells.cocycle_check", "cells", "cocycle_check"),
    ("wittlab.solve", "wittlab", "witt_structure_polys"),
    ("wittlab.check_integrality", "wittlab", "check_o_integrality"),
    ("wittlab.verify_ghost", "wittlab", "verify_ghost_homomorphism"),
    ("wittlab.verify_teich", "wittlab", "verify_teichmueller_mult"),
    ("wittlab.verify_teich", "wittlab", "verify_teichmueller_scale"),
    ("wittlab.verify_fv", "wittlab", "verify_fv_is_pi"),
    ("wittlab.opd", "wittlab", "opd_axioms_hold"),
    ("wittlab.opd", "wittlab", "log_opd"),
    ("wittlab.opd", "wittlab", "exp_opd"),
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
)

FAMILIES = frozenset({"periods", "witt", "lattice", "polygon"})

# Job families (see workloads.FAMILIES) whose jobs are predicted to call each
# wrapped function; jobs of every other family are predicted to make no call.
CALLED_ON = {name: {"periods"} for name, module, _ in TARGETS
             if module in ("valuations", "series", "periods")}
CALLED_ON.update({name: {"lattice"} for name, module, _ in TARGETS
                  if module in ("fqlin", "building", "cells")})
CALLED_ON.update({name: {"witt"} for name, module, _ in TARGETS if module == "wittlab"})
CALLED_ON.update({
    "polygon.from_vals": {"polygon"},
    "polygon.newton_polygon": {"polygon", "lattice"},
    "polygon.torsion_valuations": {"polygon"},
    "hecke.canonical_quotient": {"polygon", "lattice"},
    "hecke.reduce_to_domain": {"polygon"},
    "cli.main": FAMILIES,
    "cli.build_parser": FAMILIES,
})


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _term_count(poly) -> int:
    """Terms of one structure polynomial: a sympy sum or a term mapping."""
    if isinstance(poly, dict):
        return len(poly)
    sympy = sys.modules.get("sympy")
    if sympy is not None and isinstance(poly, sympy.Basic):
        return len(sympy.Add.make_args(poly))
    return 1


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.job_id = -1
        self.count = Counter()      # derived counts observed at the boundaries
        self.quotient_inputs = set()
        self._patches = []          # (owner, attribute, original raw value)
        wittlab = import_module("lubintate.wittlab")
        self._cache_info = getattr(wittlab.witt_structure_polys, "cache_info", None)
        self._job_info = None       # cache_info at the start of the job
        self._misses_seen = 0

    # ---- jobs --------------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        """Mark later spans with job_id; snapshot the solved-law cache."""
        self.job_id = job_id
        if self._cache_info is not None:
            self._job_info = self._cache_info()
            self._misses_seen = self._job_info.misses

    def end_job(self) -> None:
        if self._cache_info is not None:
            now, seen = self._cache_info(), self._job_info
            self.count["solve.hits"] += now.hits - seen.hits
            self.count["solve.misses"] += now.misses - seen.misses
        self.job_id = -1

    # ---- spans -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _under(self, name: str) -> bool:
        """True when the innermost open span has this name."""
        return bool(self.stack) and self.names[self.name_id[self.stack[-1]]] == name

    def _wrap(self, nid: int, fn, observe):
        if inspect.isgeneratorfunction(fn):
            name = self.names[nid]

            @wraps(fn)
            def generator(*args, **kwargs):
                # the call is an empty span; the items are consumed later
                self._close(self._open(nid))
                for item in fn(*args, **kwargs):
                    self.count[name + ".yielded"] += 1
                    yield item

            return generator

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.count[f"{self.names[nid]}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, result)
            return result

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # ---- observers: counts read at the boundary --------------------------

    def _observers(self):
        count = self.count

        def trunc_mul(args, result):
            count["trunc_mul.term_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
            count["trunc_mul.terms_out"] += len(result.coeffs)

        def period_series(args, result):
            if self._under("periods.guarded_cf2"):
                count["guarded_cf2.period_series"] += 1

        def canonical_quotient(args, result):
            self.quotient_inputs.add((args[0], args[1]))

        def reduce_to_domain(args, result):
            count["reduce.steps"] += len(result.steps)

        def out_edges(args, result):
            if self._under("building.ball"):
                count["ball.edges"] += len(result)

        def ball(args, result):
            count["ball.new_vertices"] += len(result) - 1

        def glue_edge(args, result):
            if self._under("cells.assemble_complex"):
                count["assemble.glued"] += 1

        def assemble_complex(args, result):
            count["assemble.dangling"] += len(result.dangling)

        def witt_solve(args, result):
            # a fresh solve raises the miss count; without a cache every call solves
            if self._cache_info is not None:
                misses = self._cache_info().misses
                if misses == self._misses_seen:
                    return
                self._misses_seen = misses
            else:
                count["solve.misses"] += 1
            count["solve.prod_terms"] += sum(_term_count(p) for p in result.prod_polys)

        return {
            "series.trunc_mul": trunc_mul,
            "periods.period_series": period_series,
            "hecke.canonical_quotient": canonical_quotient,
            "hecke.reduce_to_domain": reduce_to_domain,
            "building.out_edges": out_edges,
            "building.ball": ball,
            "cells.glue_edge": glue_edge,
            "cells.assemble_complex": assemble_complex,
            "wittlab.solve": witt_solve,
        }

    # ---- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lubintate" or name.startswith("lubintate.")]
        for nid, (name, module, path) in enumerate(TARGETS):
            owner = import_module(f"lubintate.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(nid, fn, observers.get(name))
                self._patch(owner, attr, classmethod(wrapped)
                            if isinstance(raw, classmethod) else wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(nid, fn, observers.get(name))
            for mod in modules:   # every module that binds the same object
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        if any(vars(owner)[attr] is not original for owner, attr, original in self._patches):
            raise RuntimeError("an original was not restored")
        self._patches = []

    @property
    def binding_sites(self) -> int:
        """Number of module and class attributes currently replaced."""
        return len(self._patches)

    # ---- aggregation -------------------------------------------------------

    def summary(self):
        """Per span name: (calls, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def calls_by_job(self) -> Counter:
        """Calls per (span name, job id)."""
        return Counter(zip((self.names[i] for i in self.name_id), self.job))

    def metrics(self, passes: int = 1) -> dict:
        """Per-layer metrics per pass of the job list: name -> (value, unit).

        Every pass runs the same jobs, so the distinct canonical_quotient
        inputs of all passes are those of one pass.
        """
        calls, self_s = self.summary()
        c = self.count

        def per(x):
            return x / passes

        def s(*names):
            return per(sum(self_s[n] for n in names))

        def k(*names):
            return per(sum(calls[n] for n in names))

        raised = c["hecke.canonical_quotient.raised.NonGenericCollision"]
        witt_calls = c["solve.hits"] + c["solve.misses"]
        return {
            "valuations.ramified_mul.calls": (k("valuations.ramified_mul"), "count"),
            "valuations.ramified_mul.self_s": (s("valuations.ramified_mul"), "s"),
            "valuations.ramified_addsub.calls": (k("valuations.ramified_addsub"), "count"),
            "valuations.ramified_addsub.self_s": (s("valuations.ramified_addsub"), "s"),
            "valuations.ramified_inverse.calls": (k("valuations.ramified_inverse"), "count"),
            "valuations.laurent_mul.calls": (k("valuations.laurent_mul"), "count"),
            "valuations.laurent_add.calls": (k("valuations.laurent_add"), "count"),
            "valuations.laurent.self_s": (
                s("valuations.laurent_mul", "valuations.laurent_add"), "s"),
            "series.trunc_mul.calls": (k("series.trunc_mul"), "count"),
            "series.trunc_mul.self_s": (s("series.trunc_mul"), "s"),
            "series.trunc_mul.term_pairs": (per(c["trunc_mul.term_pairs"]), "count"),
            "series.trunc_mul.terms_out": (per(c["trunc_mul.terms_out"]), "count"),
            "series.trunc_add.self_s": (s("series.trunc_add"), "s"),
            "series.inverse.self_s": (s("series.inverse"), "s"),
            "series.matrix_mul.self_s": (s("series.matrix_mul"), "s"),
            "periods.period_series.self_s": (s("periods.period_series"), "s"),
            "periods.period_series_product.self_s": (s("periods.period_series_product"), "s"),
            "periods.period_cf2.self_s": (s("periods.period_cf2"), "s"),
            "periods.cf2_convention.self_s": (s("periods.cf2_convention"), "s"),
            "periods.cf2_cross_check.self_s": (s("periods.cf2_cross_check"), "s"),
            "periods.cf2.guard_runs_per_check": (
                _ratio(c["guarded_cf2.period_series"], calls["periods.guarded_cf2"]), "ratio"),
            "periods.evaluate_periods.self_s": (s("periods.evaluate_periods"), "s"),
            "polygon.from_vals.calls": (k("polygon.from_vals"), "count"),
            "polygon.from_vals.self_s": (s("polygon.from_vals"), "s"),
            "polygon.newton_polygon.constructed": (k("polygon.newton_polygon"), "count"),
            "polygon.torsion_valuations.self_s": (s("polygon.torsion_valuations"), "s"),
            "hecke.canonical_quotient.calls": (k("hecke.canonical_quotient"), "count"),
            "hecke.canonical_quotient.self_s": (s("hecke.canonical_quotient"), "s"),
            "hecke.canonical_quotient.distinct_ratio": (
                _ratio(len(self.quotient_inputs), k("hecke.canonical_quotient")), "ratio"),
            "hecke.collisions": (per(raised), "count"),
            "hecke.reduce_to_domain.self_s": (s("hecke.reduce_to_domain"), "s"),
            "hecke.reduce.steps_mean": (
                _ratio(c["reduce.steps"], calls["hecke.reduce_to_domain"]), "steps"),
            "fqlin.rref.calls": (k("fqlin.rref"), "count"),
            "fqlin.rref.self_s": (s("fqlin.rref"), "s"),
            "fqlin.echelon_subspaces.yielded": (per(c["fqlin.echelon_subspaces.yielded"]), "count"),
            "fqlin.kernel_basis.calls": (k("fqlin.kernel_basis"), "count"),
            "building.from_cols.calls": (k("building.from_cols"), "count"),
            "building.from_cols.self_s": (s("building.from_cols"), "s"),
            "building.solve_coords.calls": (k("building.solve_coords"), "count"),
            "building.solve_coords.self_s": (s("building.solve_coords"), "s"),
            "building.out_edges.calls": (k("building.out_edges"), "count"),
            "building.out_edges.self_s": (s("building.out_edges"), "s"),
            "building.make_vertex.calls": (k("building.make_vertex"), "count"),
            "building.ball.self_s": (s("building.ball"), "s"),
            "building.ball.new_vertex_ratio": (
                _ratio(c["ball.new_vertices"], c["ball.edges"]), "ratio"),
            "cells.glue_edge.calls": (k("cells.glue_edge"), "count"),
            "cells.glue_edge.self_s": (s("cells.glue_edge"), "s"),
            "cells.assemble_complex.self_s": (s("cells.assemble_complex"), "s"),
            "cells.cocycle_check.self_s": (s("cells.cocycle_check"), "s"),
            "cells.dangling_ratio": (_ratio(c["assemble.dangling"], c["assemble.glued"]), "ratio"),
            "wittlab.solve.self_s": (s("wittlab.solve"), "s"),
            "wittlab.solve.cache_hit_ratio": (_ratio(c["solve.hits"], witt_calls), "ratio"),
            "wittlab.check_integrality.self_s": (s("wittlab.check_integrality"), "s"),
            "wittlab.verify_ghost.self_s": (s("wittlab.verify_ghost"), "s"),
            "wittlab.verify_teich.self_s": (s("wittlab.verify_teich"), "s"),
            "wittlab.verify_fv.self_s": (s("wittlab.verify_fv"), "s"),
            "wittlab.opd.self_s": (s("wittlab.opd"), "s"),
            "wittlab.prod_terms": (per(c["solve.prod_terms"]), "count"),
            "cli.main.self_s": (s("cli.main"), "s"),
            "cli.build_parser.self_s": (s("cli.build_parser"), "s"),
        }
