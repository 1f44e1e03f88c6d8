"""Checks of the benchmark itself: fixed job mixes, trace predictions, restore.

    python3 -m pytest -q bench/check_trace.py

Each workload runs one pass under tracing in this process.  Every wrapped
function must record calls from the jobs of each family tracing.CALLED_ON
names for it and none from the jobs of any other family.  Every job's oracle must hold.  The trace must
restore every original binding, and two fresh processes with different
hash seeds must print the same output digest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the program's src on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

from lubintate import building, cells, fqlin, hecke  # noqa: E402


def _bindings():
    """Every attribute of every lubintate module and class, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] != "lubintate":
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[(name, key, attr)] = raw
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_seeds_run_the_same_class_counts(name):
    w = workloads.WORKLOADS[name]
    counts = [Counter(job.cls for job in w.jobs(seed)) for seed in (1, 2)]
    assert counts[0] == counts[1] == w.class_counts()


@pytest.fixture(scope="module")
def traced_calls():
    before = _bindings()
    calls = {}
    for name, w in workloads.WORKLOADS.items():
        jobs = w.jobs(7)
        ledger = run.Ledger(jobs)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert isinstance(vars(building.Lattice)["from_cols"], classmethod)
            assert cells.canonical_quotient is hecke.canonical_quotient
            assert cells.make_vertex is building.make_vertex
            assert cells.rref is fqlin.rref and cells.kernel_basis is fqlin.kernel_basis
            assert building.echelon_subspaces is fqlin.echelon_subspaces
            assert cells.echelon_subspaces is fqlin.echelon_subspaces
            assert fqlin.rref is not before[("lubintate.fqlin", "rref")]
            run.run_pass(jobs, ledger, [], tracer)
            metrics = tracer.metrics()
        finally:
            tracer.uninstall()
        ledger.settle()
        assert ledger.failed == 0, ledger.errors
        by_family = {family: Counter() for family in w.families}
        for (span, job_id), n in tracer.calls_by_job().items():
            by_family[jobs[job_id].family][span] += n
        calls[name] = (by_family, metrics)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    return calls


@pytest.mark.parametrize("span", sorted(tracing.CALLED_ON))
def test_calls_only_where_predicted(traced_calls, span):
    families = {}
    for by_family, _ in traced_calls.values():
        families.update(by_family)
    assert families.keys() == tracing.FAMILIES
    for family, calls in families.items():
        if family in tracing.CALLED_ON[span]:
            assert calls[span] > 0, f"{span} made no call from {family} jobs"
        else:
            assert calls[span] == 0, f"{span} made {calls[span]} calls from {family} jobs"


def test_every_per_layer_metric_is_reported(traced_calls):
    declared = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    added_by_run = {"cli.output_bytes", "setup.sympy_import_s", "trace.overhead_frac"}
    for _, metrics in traced_calls.values():
        assert set(metrics) | added_by_run == declared


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_repeats_across_processes(name):
    digests = set()
    for hash_seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
             "--seconds", "0", "--trace", "1"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=600, check=True,
        )
        lines = done.stdout.splitlines()
        assert json.loads(lines[-1])["correct"] is True
        digests.add(json.loads(lines[-2])["info"]["digest"])
    assert len(digests) == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
