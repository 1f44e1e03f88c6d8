"""Command line surface: worked examples, formats, determinism, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import OrderedDict, defaultdict
from enum import IntEnum
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lubintate import building, cells, hecke, periods, polygon, wittlab
from lubintate.cli import _encode, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_polygon_worked_example(capsys):
    d = run_json(capsys, "polygon", "--n", "2", "--q", "3", "--vals", "1/2")
    assert d["lambda_1"] == {"num": 1, "den": 4}
    assert d["lambda_n"] == {"num": 1, "den": 12}
    assert d["boundary_indices"] == [1]
    assert d["in_D"] and d["in_H"]


def test_polygon_torsion_and_cm(capsys):
    d = run_json(capsys, "polygon", "--n", "2", "--q", "3", "--vals", "1/2",
                 "--torsion", "1")
    assert sum(t["mult"] for t in d["torsion"]) == 8
    c = run_json(capsys, "polygon", "--n", "2", "--q", "3", "--cm", "2")
    assert c["slopes"] == d["slopes"]  # boundary polygon touches v = 1/2 hull
    assert c["boundary_indices"] == [1]


def test_polygon_renders(capsys):
    code, out = run(capsys, "polygon", "--n", "2", "--q", "3", "--vals", "1/2",
                    "--format", "ascii")
    assert code == 0 and "*" in out
    code, out = run(capsys, "polygon", "--n", "2", "--q", "3", "--vals", "1/2",
                    "--format", "svg")
    assert code == 0 and out.startswith("<svg")


def test_periods_worked_example(capsys):
    d = run_json(capsys, "periods", "--n", "2", "--q", "3", "--depth", "2")
    assert d["cap"] == 9
    f0, f1 = d["f"]
    assert f0["terms"] == [
        {"digits": "1", "exps": [0], "pi_exp": 0},
        {"digits": "1", "exps": [4], "pi_exp": -1},
    ]
    assert f1["terms"] == [{"digits": "1", "exps": [1], "pi_exp": 0}]


def test_periods_checks(capsys):
    d = run_json(capsys, "periods", "--n", "2", "--q", "3", "--depth", "2",
                 "--product-check", "--cf2")
    assert d["product_matches"] is True
    assert d["cf2"]["cross_check"] is True
    assert d["cf2"]["convention"] == "pi*f0/f1"
    assert d["cf2"]["x_exp"] == -1


@pytest.mark.parametrize("argv, digest", [
    (("--n", "3", "--q", "2", "--depth", "4", "--product-check"),
     "8f94ab5486b12c1c2da5aed3033052bc9f3943fdca0463fd172e176ee6f03032"),
    (("--n", "2", "--q", "2", "--depth", "3", "--cf2"),
     "d2f7c7b1dd213d099a10fcb7e954d7a73edd47999a22f37d2704f58ff85912b6"),
    (("--n", "2", "--q", "3", "--depth", "2", "--cf2"),
     "778d2af665d267c78a7792983ef0dbbcf880d92ceda86b99a1fd9793640ecb40"),
    (("--n", "2", "--q", "2", "--depth", "4", "--cf2"),
     "6946a53320764faa4853efec216bc452d9763806e8523f4fe655e83692175a82"),
])
def test_periods_output_is_pinned(capsys, argv, digest):
    # sha256 of stdout as printed by the digit-vector coefficient kernel (first
    # two) and by the geometric-series inverse (the other cf2 cases)
    code, out = run(capsys, "periods", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest, slim_digest", [
    (("building", "--n", "3", "--p", "2", "--radius", "2"),
     "ad11a9392c2f89d28c300fffc533055ec967a017a710e8936e57353af24c099d", None),
    (("building", "--n", "3", "--p", "2", "--radius", "2", "--format", "dot"),
     "421a500b92581e75619b8d38cfb44b74d856bc4cb3a075a243bc4912ae655896", None),
    (("cells", "complex", "--n", "3", "--p", "2", "--radius", "1"),
     "4685375133efbac3a322cfeb457defd806dad4fdfd7955afd713566121936a05",
     "922f8d8ad4f0c3f39e54227dd14ef83265bd404bfb84acf4e3f61c5f4940eb88"),
    (("cells", "complex", "--n", "2", "--p", "3", "--radius", "2", "--lift"),
     "bb88de57a4a2074071d777532fe10d58835ab204a95adde50c41963a61280bbb",
     "f50dc9bb68173cd558d43ce7f6cb8fe1aad72574e394621d7e07c31f6412983c"),
    (("cells", "complex", "--n", "3", "--p", "2", "--radius", "3"),
     "6d3d19b69fac47c3cdf8637ef015070788c043cc41278395d7b05a98a0b58239",
     "2cc063d09ef15de50b245f736a74808b7bb90663225d540e1966ed312823d031"),
    (("cells", "complex", "--n", "3", "--p", "3", "--radius", "2"),
     "6dd763cc83c0e14be3889bccf3f38693a41b222fdf6afb26485a8aacbbaf1931",
     "6dc29be91b302cab2eea902c40823effdc334fa8697d29b247ac01c1c687ace6"),
])
def test_lattice_output_is_pinned(capsys, argv, digest, slim_digest):
    # digest: sha256 of stdout as printed by the Fraction-column lattice kernel;
    # the last two by the integer Hermite kernel gluing every stratum.  cells
    # complex now writes the boundary constraint once (slim_digest); copied
    # back into every cell, it must give those bytes again.
    code, out = run(capsys, *argv)
    assert code == 0
    if slim_digest is None:
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        return
    assert hashlib.sha256(out.encode()).hexdigest() == slim_digest
    d = json.loads(out)
    constraint = d.pop("constraint")
    for cell in d["cells"]:
        cell["constraint"] = constraint
    old = json.dumps(d, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(old.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("polygon", "--n", "4", "--q", "3", "--vals", "1/2,2/3,3/5", "--torsion", "1"),
     "e8ed73d0e0dc70da07ccd81e42ddcc952187a6c69e33937942b25f8fa6a10a77"),
    (("hecke", "quotient", "--n", "4", "--q", "3", "--vals", "7/8,3/4,1/2", "--rank", "2"),
     "f2d03fc9de52feb67b51c53b8c33122a8220b5f91c53fe52e9fec47c8b92e375"),
    (("hecke", "reduce", "--n", "4", "--q", "2", "--vals", "1/7,2/9,1/11"),
     "1f62686d024a4df3da96f382b59979d9ddd8967c6e4e9bf900141c8ab572a87d"),
])
def test_polygon_hecke_output_is_pinned(capsys, argv, digest):
    # sha256 of stdout as printed with three separate rational JSON encoders
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_witt_selftest_output_is_pinned(capsys):
    # sha256 of stdout as printed by the Fraction coefficient fold
    code, out = run(capsys, "witt", "selftest", "--max-n", "3", "--q", "2,3,4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2acc22581a3448f17ca2db945fd47c9814de1125ad3a1bf23d60368e4aa536ba")


def test_hecke_reduce_worked_example(capsys):
    d = run_json(capsys, "hecke", "reduce", "--n", "2", "--q", "3",
                 "--vals", "3/10")
    assert d["steps"] == [1]
    assert d["final"]["slopes"] == [
        {"num": 3, "den": 20},
        {"num": 7, "den": 60},
    ]
    assert d["final"]["in_D"]
    assert len(d["trail"]) == 2


def test_hecke_reduce_budget_edge(capsys):
    # v(x_1) = 1/12 is the level-3 quasi-canonical polygon at n = 2, q = 2: three steps
    argv = ["hecke", "reduce", "--n", "2", "--q", "2", "--vals", "1/12"]
    assert main([*argv, "--budget", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: not in D after 2 quotients\n"
    assert run_json(capsys, *argv, "--budget", "3")["steps"] == [1, 1, 1]
    # levels 32 and 33 (v(x_1) = 1/(2^31 * 3) and 1/(2^32 * 3)) around the default budget of 32
    argv = ["hecke", "reduce", "--n", "2", "--q", "2", "--vals"]
    assert run_json(capsys, *argv, "1/6442450944")["steps"] == [1] * 32
    assert main([*argv, "1/12884901888"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: not in D after 32 quotients\n"


def test_hecke_quotient(capsys):
    d = run_json(capsys, "hecke", "quotient", "--n", "2", "--q", "3",
                 "--vals", "2/5", "--rank", "1")
    assert d["rank"] == 1
    assert sum(t["mult"] for t in d["image_values"]) == 8
    assert d["kernel_values"][0]["val"] == {"inf": True}


def test_building_ball(capsys):
    d = run_json(capsys, "building", "--n", "2", "--p", "3", "--radius", "1")
    assert len(d["vertices"]) == 5
    assert all(len(e) == 3 for e in d["edges"])
    code, out = run(capsys, "building", "--n", "2", "--p", "3", "--radius", "1",
                    "--format", "dot")
    assert code == 0 and out.startswith("digraph")


@pytest.mark.parametrize("argv, calls", [
    (["--n", "2", "--p", "3", "--radius", "3"], 53),
    (["--n", "2", "--p", "2", "--radius", "4"], 46),
])
def test_building_walks_each_out_edge_list_once(capsys, monkeypatch, argv, calls):
    # one out_edges call per vertex: the walk's lists are reused, the outer shell's added
    real, seen = building.out_edges, []

    def counting(v):
        seen.append(v)
        return real(v)

    monkeypatch.setattr(building, "out_edges", counting)
    d = run_json(capsys, "building", *argv)
    assert len(seen) == len(set(seen)) == len(d["vertices"]) == calls


def test_cells_complex(capsys):
    d = run_json(capsys, "cells", "complex", "--n", "2", "--p", "3",
                 "--radius", "1")
    assert (len(d["cells"]), len(d["edges"])) == (5, 4)
    lifted = run_json(capsys, "cells", "complex", "--n", "2", "--p", "3",
                      "--radius", "1", "--lift")
    assert (len(lifted["cells"]), len(lifted["edges"])) == (10, 8)


@pytest.mark.parametrize("lift, counts", [((), (5, 4)), (("--lift",), (10, 8))])
def test_cells_complex_dot_draws_the_json_cells_and_edges(capsys, lift, counts):
    argv = ("cells", "complex", "--n", "2", "--p", "3", "--radius", "1", *lift)
    d = run_json(capsys, *argv)
    code, dot = run(capsys, *argv, "--format", "dot")
    assert code == 0 and dot.startswith("digraph")
    nodes = dict(re.findall(r'^  v(\d+) \[label="(.*)"\];$', dot, re.M))
    arrows = re.findall(r'^  v(\d+) -> v(\d+) \[label="(\d+)"\];$', dot, re.M)
    assert (len(nodes), len(arrows)) == (len(d["cells"]), len(d["edges"])) == counts
    labels = [f"h={c['vertex']['h']} piv=[{','.join(map(str, c['vertex']['pivot_exponents']))}]"
              for c in d["cells"]]
    assert sorted(nodes.values()) == sorted(labels)
    # each arrow joins the vertices of its edge's cells and is labelled by the edge's rank
    drawn = sorted((nodes[a], nodes[b], int(rank)) for a, b, rank in arrows)
    assert drawn == sorted((labels[e["a"]], labels[e["b"]], e["rank"]) for e in d["edges"])


def test_cells_generators(capsys):
    d = run_json(capsys, "cells", "generators", "--n", "3", "--i", "1")
    assert d["generators"] == [[2, 1], [3, 2]]
    assert d["saturated"] is True


def test_witt_selftest(capsys):
    code, out = run(capsys, "witt", "selftest", "--max-n", "2", "--q", "2,3")
    assert code == 0
    assert "FAIL" not in out
    assert "S_1 =" in out and "P_1 =" in out and "F_0 =" in out


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert "ball sizes (1,5,17)" in out
    assert "ok   hecke quasi-canonical orbit (level 3)" in out


def test_domain_error_exits_one(capsys):
    code = main(["polygon", "--n", "2", "--q", "3", "--vals=-1/2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    code = main(["polygon", "--n", "2", "--q", "6", "--vals", "1/2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: 6 is not a prime power\n"
    code = main(["polygon", "--n", "3", "--q", "2", "--vals", "1/2,inf"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("building", "--n", "2", "--p", "3", "--radius", "-1"),
    ("cells", "complex", "--n", "2", "--p", "2", "--radius", "-2"),
])
def test_negative_radius_exits_one(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: radius must be >= 0")


@pytest.mark.parametrize("argv", [
    ("polygon", "--n", "-1", "--q", "2", "--cm", "1"),
    ("polygon", "--n", "0", "--q", "2", "--cm", "1"),
    ("polygon", "--n", "0", "--q", "2", "--vals", "1/2"),
    ("hecke", "reduce", "--n", "0", "--q", "2", "--vals", "1/2"),
    ("periods", "--n", "0", "--q", "2", "--depth", "2"),
    ("building", "--n", "0", "--p", "2"),
    ("cells", "complex", "--n", "0", "--p", "2"),
    ("cells", "complex", "--n", "-3", "--p", "2", "--radius", "0", "--format", "dot"),
    ("cells", "generators", "--n", "0", "--i", "1"),
])
def test_n_below_one_exits_one_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("polygon_from_vals", "cm_polygon"):
        monkeypatch.setattr(polygon, name, refuse)
    monkeypatch.setattr(building, "standard_vertex", refuse)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: need n >= 1\n"


def test_large_prime_q_is_checked_without_trial_division(capsys):
    # trial division to sqrt(q) took about 3 s on this q
    start = perf_counter()
    assert main(["polygon", "--n", "2", "--q", "100000000000031", "--vals", "1/2"]) == 0
    assert perf_counter() - start < 1.0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv, err", [
    (("polygon", "--n", "2", "--q", "1", "--vals", "1/2"), "q must be a prime power >= 2"),
    (("polygon", "--n", "2", "--q", "1", "--cm", "1"), "q must be a prime power >= 2"),
    (("polygon", "--n", "2", "--q", "6", "--vals", "1/2"), "6 is not a prime power"),
    (("hecke", "quotient", "--n", "2", "--q", "1", "--vals", "1/2", "--rank", "1"),
     "q must be a prime power >= 2"),
    (("hecke", "reduce", "--n", "3", "--q", "1", "--vals", "1/2,1/3"),
     "q must be a prime power >= 2"),
    (("hecke", "reduce", "--n", "2", "--q", "2", "--vals", "1/3", "--budget", "-1"),
     "need budget >= 0"),
    (("periods", "--n", "2", "--q", "0", "--depth", "1"), "q must be a prime power >= 2"),
    (("building", "--n", "2", "--p", "4"), "p must be prime"),
    (("cells", "complex", "--n", "2", "--p", "1"), "p must be prime"),
    (("polygon", "--n", "2", "--q", "3317044064679887385961981", "--vals", "1/2"),
     "cannot test 3317044064679887385961981 for primality: the limit is 3.3e24"),
    (("building", "--n", "2", "--p", "10000000000000000000000013"),
     "cannot test 10000000000000000000000013 for primality: the limit is 3.3e24"),
    (("polygon", "--n", "2", "--q", "2"), "need --vals or --cm"),
])
def test_bad_q_p_or_budget_exits_one_before_any_work(capsys, monkeypatch, argv, err):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("polygon_from_vals", "cm_polygon"):
        monkeypatch.setattr(polygon, name, refuse)
    monkeypatch.setattr(building, "standard_vertex", refuse)
    monkeypatch.setattr(periods, "check_budget", refuse)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_cells_level_one_exits_one(capsys, monkeypatch):
    # every stratum of the single radius-0 cell dangles; the level still fails
    code = main(["cells", "complex", "--n", "3", "--p", "2", "--radius", "0",
                 "--level", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: level 1 too coarse: stabilizer condition fails by p^1\n"

    # and before any ball is built
    def refuse(*args, **kwargs):
        raise AssertionError("a ball was built")

    monkeypatch.setattr(building, "ball", refuse)
    for argv, err in ((["--n", "4", "--p", "2", "--radius", "2", "--level", "1"],
                       "level 1 too coarse: stabilizer condition fails by p^1"),
                      (["--n", "1", "--p", "3", "--radius", "1", "--level", "0"],
                       "cells require principal level >= 1")):
        assert main(["cells", "complex", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {err}\n"


def test_closed_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lubintate.cli", "building", "--n", "3",
             "--p", "2", "--radius", "2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_pipe_closed_mid_output_exits_quietly():
    # about 296 KB of JSON: the write blocks on a full pipe until the reader goes
    with subprocess.Popen(
        [sys.executable, "-m", "lubintate.cli", "cells", "complex", "--n", "3",
         "--p", "2", "--radius", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1]
    assert len(head) == 100
    assert proc.returncode == 1 and err == b""


@pytest.mark.parametrize("max_n", ("0", "-1"))
def test_witt_selftest_rejects_max_n_below_one(capsys, max_n):
    code = main(["witt", "selftest", "--max-n", max_n])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: --max-n must be >= 1")


@pytest.mark.parametrize("max_n, q", [
    ("6", "2"), ("5", "3"), ("4", "9"), ("3", "27"), ("2", "2,512"), ("1", str(2 ** 21)),
])
def test_oversized_witt_selftest_exits_one_before_any_solve(capsys, monkeypatch, max_n, q):
    def refuse(*args, **kwargs):
        raise AssertionError("a law was solved")

    monkeypatch.setattr(wittlab, "witt_structure_polys", refuse)
    code = main(["witt", "selftest", "--max-n", max_n, "--q", q])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: witt selftest")


@pytest.mark.parametrize("max_n, q, bad", [
    ("3", "13,12", "12"), ("2", "2,3,6", "6"), ("1", "4,10", "10"),
])
def test_witt_selftest_refuses_a_bad_q_entry_before_any_solve(capsys, monkeypatch, max_n, q, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("a law was solved")

    monkeypatch.setattr(wittlab, "witt_structure_polys", refuse)
    code = main(["witt", "selftest", "--max-n", max_n, "--q", q])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {bad} is not a prime power\n"


@pytest.mark.parametrize("q, bad", [("2,", "''"), ("2,three", "'three'"), ("1/2", "'1/2'")])
def test_witt_selftest_names_an_entry_that_is_not_an_integer(capsys, q, bad):
    code = main(["witt", "selftest", "--q", q])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: bad --q entry {bad}\n"


@pytest.mark.parametrize("max_n, qs", [
    # the pinned, test, CI and bench invocations
    (3, (2, 3, 4)), (2, (2, 3)), (3, (2,)), (2, (3,)), (2, (2, 4)), (3, (3,)), (2, (2,)),
    (1, (3,)), (1, (4,)), (2, (4,)), (3, (4,)),
    # the largest q admitted at each max-n
    *((n, (q,)) for n, q in wittlab.SELFTEST_MAX_Q.items()),
])
def test_witt_selftest_budget_admits_the_pinned_invocations(max_n, qs):
    wittlab.check_selftest_budget(max_n, qs)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_parser_survives_a_rejected_call(capsys):
    # the parser is built once per process; a usage error must leave no state
    argv = ["polygon", "--n", "2", "--q", "3", "--vals", "1/2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == 0 and first == second


def test_output_deterministic(capsys):
    _, a = run(capsys, "cells", "complex", "--n", "2", "--p", "2", "--radius", "1")
    _, b = run(capsys, "cells", "complex", "--n", "2", "--p", "2", "--radius", "1")
    assert a == b


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "poly.json"
    code, out = run(capsys, "polygon", "--n", "2", "--q", "3", "--vals", "1/2",
                    "--out", str(target))
    assert code == 0 and out == ""
    d = json.loads(target.read_text())
    assert d["lambda_1"] == {"num": 1, "den": 4}


@pytest.mark.parametrize("where", ("missing/x.json", "."))
def test_unwritable_out_exits_one(tmp_path, capsys, where):
    # a path under a missing directory, and a directory
    code = main(["polygon", "--n", "2", "--q", "2", "--vals", "1/2",
                 "--out", str(tmp_path / where)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: [Errno ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("where", ("missing/x.json", "."))
def test_bad_out_exits_one_before_the_work(tmp_path, capsys, monkeypatch, where):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(building, "ball", refuse)
    code = main(["cells", "complex", "--n", "4", "--p", "2", "--radius", "2",
                 "--out", str(tmp_path / where)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: [Errno ")


def test_failed_run_leaves_existing_out_untouched(tmp_path, capsys):
    target = tmp_path / "earlier.json"
    target.write_text("earlier output\n")
    code = main(["polygon", "--n", "2", "--q", "6", "--vals", "1/2", "--out", str(target)])
    assert code == 1 and capsys.readouterr().err.startswith("error: 6 is not a prime power")
    assert target.read_text() == "earlier output\n"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "lubintate.cli", "selftest"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout


# ---------------------------------------------------------------------
# the JSON encoder against json.dumps(obj, indent=2, sort_keys=True)
# ---------------------------------------------------------------------

_texts = st.text() | st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\t\r []{},:aé€\u2028\U0001f600')
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-(2 ** 90), 2 ** 90)
            | _texts)


def _trees(leaves):
    return st.recursive(leaves, lambda kids: (
        st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_texts, kids, max_size=4)
    ), max_leaves=24)


def _stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_encode_matches_stdlib_on_random_trees(data):
    shared = data.draw(_trees(_scalars))
    # st.just yields the one object, so it recurs at equal and unequal depths
    tree = data.draw(_trees(_scalars | st.just(shared)))
    assert _encode(tree) == _stdlib(tree)
    assert _encode([shared, tree, [shared], {"k": shared}]) == _stdlib(
        [shared, tree, [shared], {"k": shared}])


def test_encode_writes_a_shared_container_at_each_depth():
    shared = {"rows": [[1, 0], [0, 1]], "tag": ["a", "b"], "none": [], "x": {}}
    tree = [shared, {"a": shared, "b": [shared, [shared]]}, shared, ()]
    assert _encode(tree) == _stdlib(tree)
    assert _encode([[], {}, [[]], {"a": {}}, [{}], ""]) == _stdlib([[], {}, [[]], {"a": {}}, [{}], ""])
    assert _encode([True, 1, False, 0, None]) == _stdlib([True, 1, False, 0, None])


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


class _Tag(str):
    pass


def test_encode_dispatch_on_exact_type_keeps_the_stdlib_bytes():
    objs = [
        [1, True, False, 0], [True, False], [2, 3, True], {"level": 2, "flag": False, "none": None},
        ["x", "y"], ['q"\u00e9'], {"k": "v", "j": 1}, {"z": 1, "a": [2, 3]}, {},
        ((1, 0), (0, 1)), ("a", ("b", ())), {"rows": ((1, 2), [3, (4,)])},
    ]
    for obj in objs:
        assert _encode(obj) == _stdlib(obj), obj
    # the program writes exact types only: a subclass of one is refused
    subclassed = [
        [_Level.HIGH, _Level.LOW], [_Level.LOW, 3, True], {"level": _Level.HIGH},
        [_Tag("x"), "y"], {"k": _Tag("v")}, OrderedDict([("z", 1)]), OrderedDict(),
        defaultdict(list, {"b": [1, True, 0]}), [(1, 2), OrderedDict()],
    ]
    for obj in subclassed:
        with pytest.raises(TypeError):
            _encode(obj)


@pytest.mark.parametrize("depth", [14, 15, 16, 17, 40])
def test_encode_nests_past_the_indent_table(depth):
    tree = [1, "a"]
    for k in range(depth):
        tree = {"k": tree, "n": k} if k % 2 else [tree, (k, "t")]
    assert _encode(tree) == _stdlib(tree)


@pytest.mark.parametrize("obj", [
    {1: "int key"},              # json.dumps writes "1"; _encode writes str keys only
    {None: 0},
    {"a": 1.5},                  # no floats in the program's output
    [Fraction(1, 2)],
    {"a": {1, 2}},
])
def test_encode_rejects_what_it_does_not_write(obj):
    with pytest.raises(TypeError):
        _encode(obj)


# ---------------------------------------------------------------------
# ball budget
# ---------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("building", "--n", "4", "--p", "2", "--radius", "3"),
    ("building", "--n", "2", "--p", "2", "--radius", "11"),
    ("building", "--n", "6", "--p", "2", "--radius", "1"),
    ("building", "--n", "9", "--p", "2", "--radius", "0"),
    ("cells", "complex", "--n", "9", "--p", "2", "--radius", "0"),
    ("cells", "complex", "--n", "3", "--p", "2", "--radius", "4", "--lift"),
    ("cells", "complex", "--n", "3", "--p", "3", "--radius", "3", "--format", "dot"),
])
def test_oversized_ball_exits_one_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(building, "out_edges", refuse)
    monkeypatch.setattr(building, "neighbour", refuse)
    monkeypatch.setattr(building, "proper_subspaces", refuse)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: a radius-")
    assert f"more than {building.BALL_WORK_BUDGET} neighbour lattices" in captured.err


@pytest.mark.parametrize("n, p, radius", [
    (4, 2, 2), (3, 2, 3), (3, 3, 2), (2, 3, 3), (2, 2, 4), (2, 2, 10), (5, 2, 1), (1, 2, 10 ** 9),
])
def test_ball_budget_admits_the_pinned_and_guarded_balls(monkeypatch, n, p, radius):
    def refuse(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(building, "out_edges", refuse)
    with pytest.raises(AssertionError, match="search started"):
        building.ball(building.standard_vertex(p, n), radius)


# ---------------------------------------------------------------------
# cells generators and polygon torsion budgets
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n, i", [(100000, 1), (10 ** 4, 5000), (131, 1), (400, 2)])
def test_oversized_cells_generators_exits_one_before_any_work(capsys, monkeypatch, n, i):
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cells, "integral_generators", refuse)
    monkeypatch.setattr(cells, "saturation_check", refuse)
    code = main(["cells", "generators", "--n", str(n), "--i", str(i)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: cells generators at n = {n}, i = {i} would visit more "
                            f"than {cells.GENERATORS_WORK_BUDGET} saturation cells\n")


def test_generators_budget_admits_every_tested_shape():
    for n in range(2, 40):
        for i in range(1, n):
            cells.check_generators_budget(n, i)


@pytest.mark.parametrize("n, q, vals, k", [
    (3, 2, "1/2,1/3", 100000), (3, 2, "1/2,1/3", 608), (2, 3, "1/2", 10 ** 30),
    (10, 2, "1/2,1/3,1/4,1/5,1/6,1/7,1/8,1/9,1/10", 200),
])
def test_oversized_torsion_exits_one_before_any_work(capsys, monkeypatch, n, q, vals, k):
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(polygon, "torsion_valuations", refuse)
    code = main(["polygon", "--n", str(n), "--q", str(q), "--vals", vals, "--torsion", str(k)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: --torsion {k} at n = {n}, q = {q} would print more than "
                            f"{polygon.TORSION_DIGIT_BUDGET} digits\n")


@pytest.mark.parametrize("argv", [
    ("polygon", "--n", "100000", "--q", "2", "--cm", "1"),
    ("polygon", "--n", "1289", "--q", "2", "--vals", "1/2", "--format", "svg"),
    ("polygon", "--n", "100000", "--q", "3", "--cm", "1", "--torsion", "1"),
    ("hecke", "quotient", "--n", "100000", "--q", "3", "--vals", "1/2", "--rank", "1"),
    ("hecke", "reduce", "--n", "5000", "--q", "2", "--vals", "1/2"),
])
def test_oversized_polygon_exits_one_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("work started")

    for name in ("polygon_from_vals", "cm_polygon"):
        monkeypatch.setattr(polygon, name, refuse)
    code = main(list(argv))
    captured = capsys.readouterr()
    n, q = argv[argv.index("--n") + 1], argv[argv.index("--q") + 1]
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: a polygon at n = {n}, q = {q} would print more than "
                            f"{polygon.TORSION_DIGIT_BUDGET} digits\n")


@pytest.mark.parametrize("n, budget, polygons", [(300, None, 35), (20, 10 ** 6, 10 ** 6 + 3)])
def test_long_hecke_reduce_exits_one_before_any_quotient(capsys, monkeypatch, n, budget, polygons):
    # budget + 3 polygons: the initial and the final one, and a trail of at most budget + 1
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(hecke, "canonical_quotient", refuse)
    monkeypatch.setattr(polygon, "polygon_from_vals", refuse)
    argv = ["hecke", "reduce", "--n", str(n), "--q", "2",
            "--vals", ",".join(f"1/{k}" for k in range(2, n + 1))]
    code = main(argv if budget is None else [*argv, "--budget", str(budget)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: {polygons} polygons at n = {n}, q = 2 would print more "
                            f"than {polygon.TORSION_DIGIT_BUDGET} digits\n")


def test_hecke_reduce_budget_admits_the_benchmark_shapes():
    # the default budget of 32 quotients: 35 polygons
    for n, q in ((4, 7), (5, 5), (6, 4), (7, 3), (8, 2), (9, 3), (10, 2), (217, 2)):
        polygon.check_polygon_budget(n, q, 35)
    with pytest.raises(ValueError, match="35 polygons at n = 218, q = 2"):
        polygon.check_polygon_budget(218, 2, 35)


def test_torsion_budget_admits_the_pinned_and_benchmark_profiles():
    # the benchmark's polygon shapes at k <= 3, and the pinned k = 1 profiles
    for n, q in ((4, 7), (5, 5), (6, 4), (7, 3), (8, 2), (9, 3), (10, 2), (2, 3), (4, 3)):
        for k in (1, 2, 3):
            polygon.check_torsion_budget(n, q, k)


# ---------------------------------------------------------------------
# periods budget
# ---------------------------------------------------------------------

def _refuse_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("series work started")

    for name in ("period_series", "period_series_product", "period_cf2",
                 "cf2_convention", "cf2_cross_check"):
        monkeypatch.setattr(periods, name, refuse)


@pytest.mark.parametrize("argv, message", [
    (("--n", "2", "--q", "2", "--depth", "40"), "more than 100000 series terms"),
    (("--n", "2", "--q", "2", "--depth", "24", "--product-check"), "more than 100000 series terms"),
    (("--n", "2", "--q", "3", "--depth", str(10 ** 9)), "more than 100000 series terms"),
    (("--n", "5", "--q", "2", "--depth", "17"), "more than 100000 series terms"),
    (("--n", "200001", "--q", "2", "--depth", "0"), "more than 100000 series terms"),
    (("--n", "2", "--q", "2", "--depth", "7", "--cf2"), "--cf2 needs depth <= 6"),
    (("--n", "2", "--q", "1024", "--depth", "3", "--cf2"), "q^depth <= 1048576"),
    (("--n", "3", "--q", "2", "--depth", "2", "--cf2"), "needs n = 2"),
])
def test_oversized_periods_exit_one_before_any_series_work(capsys, monkeypatch, argv, message):
    _refuse_series(monkeypatch)
    code = main(["periods", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("n, q, depth, cf2", [
    # the pinned, bench and CI invocations
    (3, 2, 4, False), (2, 2, 10, False), (2, 3, 6, False), (3, 2, 6, False), (4, 2, 5, False),
    (3, 3, 4, False), (2, 2, 2, True), (2, 2, 3, True), (2, 3, 2, True), (2, 2, 4, True),
    (2, 2, 5, True), (2, 2, 6, True),
    # the largest depths under the term budget, and the largest cf2 caps
    (2, 2, 23, False), (3, 2, 15, False), (4, 3, 14, False), (6, 2, 12, False),
    (2, 8, 6, True), (2, 16, 5, True), (2, 32, 4, True), (2, 2, 0, True),
])
def test_periods_budget_admits_the_pinned_and_guarded_depths(n, q, depth, cf2):
    periods.check_budget(n, q, depth, cf2)


def test_periods_term_bound_is_the_recurrence_count(monkeypatch):
    # nothing cancels here, so the bound is the term count plus one slot per
    # component but the first: a budget one below it refuses, at it admits
    for n, q, depth in ((2, 2, 12), (3, 3, 8), (4, 2, 7), (5, 5, 6)):
        pt = periods.period_series(n, q, depth)
        bound = sum(len(f.coeffs) for f in pt.f) + n - 1
        monkeypatch.setattr(periods, "SERIES_TERM_BUDGET", bound)
        periods.check_budget(n, q, depth)
        monkeypatch.setattr(periods, "SERIES_TERM_BUDGET", bound - 1)
        with pytest.raises(ValueError, match="series terms"):
            periods.check_budget(n, q, depth)
