import argparse
import importlib.util
import json
import pathlib
import resource
import subprocess
import sys

import pytest

from weightfil.cli import build_parser

TATE_CURVE = {
    "schema": 1, "p": 2, "a": 1, "d": 1,
    "phi": [["1", "0"], ["0", "2"]],
    "N": [["0", "1"], ["0", "0"]],
    "fil": {"0": [["1", "0"], ["0", "1"]], "1": [["1", "1"]]},
}

NETCOH_D2 = {
    "schema": 1, "p": 2, "a": 1, "d": 2,
    "phi": [["4", "0", "0", "0"], ["0", "2", "0", "0"],
            ["0", "0", "2", "0"], ["0", "0", "0", "1"]],
    "N": [["0", "0", "0", "0"], ["1", "0", "0", "0"],
          ["0", "0", "0", "0"], ["0", "1", "1", "0"]],
    "fil": {"0": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
            "1": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]],
            "2": [["1", "0", "0", "0"]]},
}

TRIANGLE_NERVE = {
    "schema": 1,
    "components": ["a", "b", "c"],
    "strata": {"a": {"0": 1}, "b": {"0": 1}, "c": {"0": 1},
               "a,b": {"0": 1}, "a,c": {"0": 1}, "b,c": {"0": 1}},
    "restrictions": {
        "a->a,b": {"0": [["1"]]}, "b->a,b": {"0": [["1"]]},
        "a->a,c": {"0": [["1"]]}, "c->a,c": {"0": [["1"]]},
        "b->b,c": {"0": [["1"]]}, "c->b,c": {"0": [["1"]]},
    },
}

CYCLE3_STEENBRINK = {
    "schema": 1, "d": 1,
    "levels": {"1": ["c0", "c1", "c2"], "2": ["p0", "p1", "p2"]},
    "dims": {"c0": {"0": 1, "2": 1}, "c1": {"0": 1, "2": 1}, "c2": {"0": 1, "2": 1},
             "p0": {"0": 1}, "p1": {"0": 1}, "p2": {"0": 1}},
    "restrictions": {
        "c0->p0": {"0": [["1"]]}, "c1->p0": {"0": [["-1"]]},
        "c1->p1": {"0": [["1"]]}, "c2->p1": {"0": [["-1"]]},
        "c2->p2": {"0": [["1"]]}, "c0->p2": {"0": [["-1"]]},
    },
    "gysins": {
        "p0->c0": {"0": [["1"]]}, "p0->c1": {"0": [["-1"]]},
        "p1->c1": {"0": [["1"]]}, "p1->c2": {"0": [["-1"]]},
        "p2->c2": {"0": [["1"]]}, "p2->c0": {"0": [["-1"]]},
    },
}

D2_COMPLEX = {
    "schema": 1,
    "spaces": {"0": 1, "1": 1, "2": 1},
    "differentials": {"0": [["1"]], "1": [["0"]]},
    "filtration": {"0": {"0": [["1"]], "1": []},
                   "1": {"2": [["1"]], "3": []},
                   "2": {"1": [["1"]], "2": []}},
}


def run_cli(args, input_obj=None, path=None):
    cmd = [sys.executable, "-m", "weightfil.cli"] + args
    if path is not None:
        cmd.append(str(path))
    return subprocess.run(cmd, capture_output=True)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def test_phin_analyze_tate_curve(tmp_path):
    p = write(tmp_path, "tate.json", TATE_CURVE)
    res = run_cli(["phin-analyze"], path=p)
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["t_N"] == "1" and rep["t_H"] == "1"
    assert rep["weakly_admissible"]["verdict"] == "admissible"
    assert rep["ordinary"] is True
    assert rep["monodromy_weight_equal"] is True
    assert "clauses" in rep


def test_phin_reports_never_import_sympy(tmp_path):
    # factoring char(phi) is done in the package; sympy is a test oracle only
    tate = write(tmp_path, "tate.json", TATE_CURVE)
    d2 = write(tmp_path, "d2.json", NETCOH_D2)
    code = ("import sys\n"
            "from weightfil.cli import main\n"
            "rcs = [main(['phin-analyze', sys.argv[1]]), main(['phin-check-mw', sys.argv[1]]),\n"
            "       main(['phin-netcoh', sys.argv[2]])]\n"
            "sys.stderr.write(repr((rcs, sorted(m for m in sys.modules\n"
            "                                   if m.split('.')[0] == 'sympy'))))\n")
    res = subprocess.run([sys.executable, "-c", code, str(tate), str(d2)],
                         capture_output=True, text=True)
    assert res.returncode == 0 and res.stderr == "([0, 0, 0], [])", res.stderr


def test_phin_netcoh(tmp_path):
    p = write(tmp_path, "d2.json", NETCOH_D2)
    res = run_cli(["phin-netcoh"], path=p)
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["a"] and rep["b"] and rep["c"]
    assert rep["dim_C"] == 1
    assert rep["C_meets_middle_level"] is False


def test_phin_check_mw_failure_diff(tmp_path):
    obj = dict(TATE_CURVE)
    obj["N"] = [["0", "0"], ["0", "0"]]
    obj["fil"] = {"0": [["1", "0"], ["0", "1"]], "1": [["0", "1"]]}
    p = write(tmp_path, "mixed.json", obj)
    res = run_cli(["phin-check-mw"], path=p)
    rep = json.loads(res.stdout)
    assert rep["equal"] is False
    assert rep["step_diff"]


def test_ss_cech_triangle(tmp_path):
    p = write(tmp_path, "tri.json", TRIANGLE_NERVE)
    res = run_cli(["ss-cech"], path=p)
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["total_cohomology"] == {"0": 1, "1": 1}
    assert rep["flag_complex_agrees"] is True
    assert rep["equivariant_degeneration"] is True
    assert rep["degeneration_page"] == 2


def test_ss_steenbrink_cycle(tmp_path):
    p = write(tmp_path, "cyc.json", CYCLE3_STEENBRINK)
    res = run_cli(["ss-steenbrink"], path=p)
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["total_cohomology"] == {"0": 1, "1": 2, "2": 1}
    assert rep["weight_graded"]["1"] == {"0": 1, "2": 1}
    assert rep["monodromy_rank"]["1"] == 1
    assert rep["monodromy_weight_equal"]["1"] is True


def test_ss_pages(tmp_path):
    p = write(tmp_path, "cx.json", D2_COMPLEX)
    res = run_cli(["ss-pages", "--max-page", "4"], path=p)
    rep = json.loads(res.stdout)
    assert rep["degeneration_page"] == 3
    assert rep["pages"]["2"] == {"0,0": 1, "1,1": 1, "2,-1": 1}


def test_ss_pages_max_page_zero_and_negative(tmp_path):
    p = write(tmp_path, "cx.json", D2_COMPLEX)
    res = run_cli(["ss-pages", "--max-page", "0"], path=p)
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["pages"] == {"0": {"0,0": 1, "1,1": 1, "2,-1": 1}}
    assert rep["degeneration_page"] is None  # no r >= 1 within the bound
    res = run_cli(["ss-pages", "--max-page", "-1"], path=p)
    assert res.returncode == 2
    assert b"--max-page must be >= 0" in res.stderr


def test_drinfeld_commands():
    res = run_cli(["drinfeld-ball", "--d", "1", "--p", "2", "--n", "2"])
    rep = json.loads(res.stdout)
    assert rep["vertex_count"] == 10
    res = run_cli(["drinfeld-counts", "--d", "2", "--q", "2", "--i", "3"])
    rep = json.loads(res.stdout)
    assert rep["neighbor_count"] == 14
    assert rep["simplices_through_vertex"] == 21
    res = run_cli(["drinfeld-arrangement", "--r", "2", "--q", "2"])
    rep = json.loads(res.stdout)
    assert rep["poincare"] == [1, 6, 8] and rep["cross_check"] == "pass"
    res = run_cli(["drinfeld-blowup", "--r", "2", "--q", "2"])
    rep = json.loads(res.stdout)
    assert rep["poincare"] == [1, 0, 8, 0, 1]
    assert rep["point_counts"]["1"] == 21


def test_drinfeld_counts_large_d():
    # the timeout only keeps a regression from hanging the suite
    res = subprocess.run([sys.executable, "-m", "weightfil.cli", "drinfeld-counts",
                          "--d", "40", "--q", "2", "--i", "20"], capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["simplices_through_vertex"] > rep["neighbor_count"] > 0


def test_exit_code_schema_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run_cli(["phin-analyze"], path=p).returncode == 1
    q = write(tmp_path, "unknown.json", dict(TATE_CURVE, extra=1))
    assert run_cli(["phin-analyze"], path=q).returncode == 1
    r = write(tmp_path, "noschema.json", {k: v for k, v in TATE_CURVE.items()
                                          if k != "schema"})
    assert run_cli(["phin-analyze"], path=r).returncode == 1


def test_exit_code_precondition(tmp_path):
    obj = dict(TATE_CURVE)
    obj["phi"] = [["1", "0"], ["0", "1"]]  # breaks N phi = q phi N
    p = write(tmp_path, "bad_comm.json", obj)
    res = run_cli(["phin-analyze"], path=p)
    assert res.returncode == 2
    assert b"commutation" in res.stderr


def test_schema_error_boolean_rational(tmp_path):
    obj = dict(TATE_CURVE, phi=[[True, "0"], ["0", "2"]])  # JSON true is not 1
    res = run_cli(["phin-analyze"], path=write(tmp_path, "bool.json", obj))
    assert res.returncode == 1
    assert res.stderr.startswith(b"schema error:")


def assert_schema_error(res):
    assert res.returncode == 1
    assert res.stderr.startswith(b"schema error:")
    assert b"Traceback" not in res.stderr


def test_schema_error_undecodable_bytes(tmp_path):
    p = tmp_path / "bytes.json"
    p.write_bytes(b"\xff\xfe{")
    assert_schema_error(run_cli(["phin-analyze"], path=p))


def test_schema_error_directory_input(tmp_path):
    assert_schema_error(run_cli(["ss-cech"], path=tmp_path))


def test_schema_error_deep_nesting(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    assert_schema_error(run_cli(["ss-pages"], path=p))


def test_schema_error_exponent_rational(tmp_path):
    # "1e20000" is a 66,439-bit integer from 7 characters; Fraction() reads it
    obj = dict(TATE_CURVE, phi=[["1e20000", "0"], ["0", "2e20000"]])
    assert_schema_error(run_cli(["phin-analyze"], path=write(tmp_path, "exp.json", obj)))


def test_schema_error_non_digit_rationals(tmp_path):
    # each string is one that Fraction() reads; the Hodge line is generic
    # for any value, so only the syntax is wrong
    for bad in ("1.5", " 2 ", "1_0"):
        obj = dict(TATE_CURVE, fil={"0": [["1", "0"], ["0", "1"]], "1": [["1", bad]]})
        res = run_cli(["phin-analyze"], path=write(tmp_path, "syntax.json", obj))
        assert_schema_error(res)
        assert repr(bad).encode() in res.stderr, bad


def test_q_must_be_a_prime_power():
    for args in (["drinfeld-counts", "--d", "2", "--q", "6", "--i", "2"],
                 ["drinfeld-blowup", "--r", "2", "--q", "6"],
                 ["drinfeld-arrangement", "--r", "2", "--q", "6"]):
        res = run_cli(args)
        assert res.returncode == 2, args
        assert b"6 is not a prime power" in res.stderr, args


def test_schema_error_fil_row_length(tmp_path):
    obj = dict(TATE_CURVE, fil={"0": [["1", "0"], ["0", "1"]], "1": [["1", "1", "0"]]})
    assert_schema_error(run_cli(["phin-analyze"], path=write(tmp_path, "fil.json", obj)))


def test_schema_error_strata_degree_key(tmp_path):
    strata = dict(TRIANGLE_NERVE["strata"], a={"zero": 1})
    obj = dict(TRIANGLE_NERVE, strata=strata)
    assert_schema_error(run_cli(["ss-cech"], path=write(tmp_path, "key.json", obj)))


def test_schema_error_strata_list(tmp_path):
    obj = dict(TRIANGLE_NERVE, strata=[["a", {"0": 1}]])
    assert_schema_error(run_cli(["ss-cech"], path=write(tmp_path, "list.json", obj)))


def test_ss_pages_rejects_labels_and_blocks(tmp_path):
    # ss-pages reads neither, so neither is part of its input
    for key, value in (("labels", []), ("blocks", {"0": [[0, 0, 5]]})):
        obj = dict(D2_COMPLEX, **{key: value})
        res = run_cli(["ss-pages"], path=write(tmp_path, f"{key}.json", obj))
        assert_schema_error(res)
        assert f"unknown keys ['{key}']".encode() in res.stderr, res.stderr


@pytest.mark.parametrize("cmd,payload", [
    ("ss-steenbrink", dict(CYCLE3_STEENBRINK, dims=[])),
    ("ss-steenbrink", dict(CYCLE3_STEENBRINK, restrictions=[])),
    ("ss-steenbrink", dict(CYCLE3_STEENBRINK, gysins=[])),
    ("ss-steenbrink", dict(CYCLE3_STEENBRINK, levels={"1": [["c"]]})),
    ("ss-cech", dict(TRIANGLE_NERVE, restrictions=[]))],
    ids=["steenbrink_dims", "steenbrink_restrictions", "steenbrink_gysins",
         "steenbrink_stratum_name", "cech_restrictions"])
def test_schema_error_malformed_strata(tmp_path, cmd, payload):
    assert_schema_error(run_cli([cmd], path=write(tmp_path, "s.json", payload)))


def test_schema_error_fractional_filtration_index(tmp_path):
    # F(0) must be the full space below the smallest listed index
    for key in ("fil", "gamma_fil"):
        obj = dict(TATE_CURVE, **{key: {"1/2": [["1", "1"]]}})
        assert_schema_error(run_cli(["phin-analyze"], path=write(tmp_path, f"{key}.json", obj)))


def test_phin_analyze_rejects_non_prime_p(tmp_path):
    # every other invariant holds: N phi = 4 phi N
    obj = dict(TATE_CURVE, p=4, phi=[["1", "0"], ["0", "4"]])
    res = run_cli(["phin-analyze"], path=write(tmp_path, "p4.json", obj))
    assert res.returncode == 2
    assert b"p_prime" in res.stderr


def test_drinfeld_ball_rejects_non_prime_p():
    res = run_cli(["drinfeld-ball", "--d", "1", "--p", "4", "--n", "1"])
    assert res.returncode == 2
    assert b"p must be a prime" in res.stderr


def _run_cli_bounded(args, seconds=20, memory=1 << 28):
    """run_cli in a child process held to `memory` bytes of address space and
    `seconds` of wall time, so that an unguarded enumeration fails fast."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    return subprocess.run([sys.executable, "-m", "weightfil.cli"] + args,
                          capture_output=True, timeout=seconds, preexec_fn=limit)


@pytest.mark.parametrize("args,bound", [
    (["drinfeld-arrangement", "--r", "1", "--q", "1000003"], b"budget of 10000"),
    (["drinfeld-arrangement", "--r", "3", "--q", "1009"], b"budget of 10000"),
    (["drinfeld-ball", "--d", "1", "--p", "1000003", "--n", "1"], b"budget of 100000 vertices"),
    (["drinfeld-ball", "--d", "1", "--p", "1000003", "--n", "1", "--budget", "2000000"],
     b"cap of 256"),
    (["drinfeld-arrangement", "--r", "1", "--q", "257"], b"cap of 256")],
    ids=["field", "lattice", "link", "ball_field", "arrangement_field"])
def test_size_guards_refuse_before_building_tables(args, bound):
    res = _run_cli_bounded(args)
    assert res.returncode == 2, res.stderr
    assert bound in res.stderr, res.stderr


@pytest.mark.parametrize("spaces,code", [
    ({"0": 4000}, 2), ({str(n): 16 for n in range(17)}, 2), ({"0": 256}, 0)],
    ids=["one_space", "many_degrees", "at_cap"])
def test_filtered_complex_dimension_cap(tmp_path, spaces, code):
    # a bare dimension costs a few input bytes and a dense basis: the spaces'
    # total is refused before any matrix is built, and the cap itself fits
    res = _run_cli_bounded(["ss-pages", str(write(tmp_path, "c.json",
                                                  {"schema": 1, "spaces": spaces}))])
    assert res.returncode == code, res.stderr
    assert (b"cap of 256" in res.stderr) == bool(code), res.stderr


@pytest.mark.parametrize("cmd,payload,cap", [
    ("ss-steenbrink", {"schema": 1, "d": 1, "levels": {"1": ["c"]},
                       "dims": {"c": {"0": 1000}}}, b"cap of 64"),
    # a level-2 stratum fills two summands per degree
    ("ss-steenbrink", {"schema": 1, "d": 1, "levels": {"2": ["c"]},
                       "dims": {"c": {"0": 33}}}, b"cap of 64"),
    ("ss-steenbrink", {"schema": 1, "d": 1, "levels": {"1000": ["c"]},
                       "dims": {"c": {}}}, b"cap of 64"),
    ("ss-steenbrink", {"schema": 1, "d": 1, "levels": {"1": ["c"]},
                       "dims": {"c": {"0": 64}}}, None),
    ("ss-cech", {"schema": 1, "components": ["a"], "strata": {"a": {"0": 1000}}},
     b"cap of 256"),
    # the flag complex holds a four-fold stratum once per each of 75 chains
    ("ss-cech", {"schema": 1, "components": list("abcd"),
                 "strata": {"a,b,c,d": {"0": 4}}}, b"cap of 256"),
    ("ss-cech", {"schema": 1, "components": ["a"], "strata": {"a": {"0": 256}}}, None)],
    ids=["steenbrink_one_stratum", "steenbrink_level_two", "steenbrink_deep_level",
         "steenbrink_at_cap", "cech_one_stratum", "cech_flags", "cech_at_cap"])
def test_strata_dimension_caps(tmp_path, cmd, payload, cap):
    # a dimension costs a few input bytes: the size of the complex built from
    # the strata is refused before any matrix is built, and each cap fits
    res = _run_cli_bounded([cmd, str(write(tmp_path, "d.json", payload))])
    assert res.returncode == (2 if cap else 0), res.stderr
    assert cap is None or cap in res.stderr, res.stderr


@pytest.mark.parametrize("n,code", [(5, 0), (7, 2)])
def test_ss_cech_flag_budget(tmp_path, n, code):
    # the flag complex lists 1,081 chains of component sets for 5 components
    # and 94,585 for 7, whatever the strata
    payload = {"schema": 1, "components": [chr(ord("a") + i) for i in range(n)],
               "strata": {"a": {"0": 1}}}
    res = _run_cli_bounded(["ss-cech", str(write(tmp_path, "n.json", payload))])
    assert res.returncode == code, res.stderr
    assert (b"more than 10000 chains" in res.stderr) == bool(code), res.stderr


def test_drinfeld_ball_rejects_d_below_one():
    for d in ("-1", "0"):
        res = run_cli(["drinfeld-ball", "--d", d, "--p", "2", "--n", "3"])
        assert res.returncode == 2, d
        assert b"d must be >= 1" in res.stderr, d


@pytest.mark.parametrize("route,corrupt", [
    ("total_cohomology_dims", lambda real: lambda fc: {n: h + 1 for n, h in real(fc).items()}),
    ("stable_page_index", lambda real: lambda fc: 1)],
    ids=["pairing_h", "e_infinity"])
def test_ss_steenbrink_routes_disagreeing_exit_3(tmp_path, monkeypatch, capsys, route, corrupt):
    # H^n and its graded dims come from the pairing and from the kernel /
    # image quotient; a wrong H^n or a page short of E_infinity is caught
    from weightfil import cli, steenbrink
    monkeypatch.setattr(steenbrink, route, corrupt(getattr(steenbrink, route)))
    assert cli.main(["ss-steenbrink", str(write(tmp_path, "s.json", CYCLE3_STEENBRINK))]) == 3
    assert "cross-check failure: H^" in capsys.readouterr().err


def test_phin_analyze_decides_admissibility_once(tmp_path, monkeypatch, capsys):
    # is_ordinary reuses the report's admissibility verdict
    from weightfil import cli, phin
    calls = []
    real = phin.is_weakly_admissible

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(phin, "is_weakly_admissible", counted)
    # both reach is_ordinary's admissibility clause: certified, then sampled
    for obj, ordinary in ((TATE_CURVE, True), (NETCOH_D2, "inconclusive")):
        calls.clear()
        assert cli.main(["phin-analyze", str(write(tmp_path, "m.json", obj))]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["ordinary"] == ordinary


@pytest.mark.parametrize("cmd,obj,modules", [
    ("phin-netcoh", TATE_CURVE, 2), ("phin-analyze", TATE_CURVE, 1),
    ("phin-check-mw", TATE_CURVE, 1), ("phin-netcoh", NETCOH_D2, 2)],
    ids=["netcoh", "analyze", "check_mw", "netcoh_d2"])
def test_each_module_and_filtration_is_checked_once(tmp_path, monkeypatch, capsys,
                                                    cmd, obj, modules):
    # phin-netcoh builds D and D/C; every filtration checks itself once, when
    # it is built, and a module does not check its filtrations again
    from weightfil import cli
    from weightfil.filtration import IndexedFiltration
    from weightfil.phin import PhiNModule
    checked = {PhiNModule: [], IndexedFiltration: []}
    for cls, seen in checked.items():
        real = cls.validate
        monkeypatch.setattr(cls, "validate",
                            lambda self, real=real, seen=seen: seen.append(self) or real(self))
    assert cli.main([cmd, str(write(tmp_path, "m.json", obj))]) == 0
    capsys.readouterr()
    assert len(checked[PhiNModule]) == modules
    # the list keeps each object alive, so no two share an id
    fls = checked[IndexedFiltration]
    assert fls and len({id(fl) for fl in fls}) == len(fls)


def test_phin_analyze_certifies_two_blocks_past_the_phi_guard(tmp_path):
    # Jordan blocks of sizes 9 and 8 with units 1 and 3: 2^17 phi-invariant
    # subspaces, more than INVARIANT_SUBSPACE_GUARD, of which 10 * 9 are stable
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    skel = (2, 8, [(9, 0, 1), (8, 0, 3)], list(range(9)) + list(range(8)))
    res = run_cli(["phin-analyze"], path=write(tmp_path, "m.json", wl.phin_payload(skel)))
    assert res.returncode == 0, res.stderr
    adm = json.loads(res.stdout)["weakly_admissible"]
    expected = wl.phin_expect(skel)["admissibility"]
    assert expected == {"verdict": "admissible", "certified": True,
                        "method": "cyclic-phi", "subspaces_checked": 88}
    assert {k: adm[k] for k in expected} == expected


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    from weightfil import cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    argv = ["drinfeld-counts", "--d", "2", "--q", "2", "--i", "2"]
    assert cli.main(argv) == 0 and cli.main(argv) == 0
    assert built.count("weightfil") == 1
    assert len(built) == 1 + len(cli.COMMANDS)
    first, second = capsys.readouterr().out.splitlines()
    assert first == second


def test_text_format(tmp_path):
    p = write(tmp_path, "tate.json", TATE_CURVE)
    res = run_cli(["phin-analyze", "--format", "text"], path=p)
    assert res.returncode == 0
    assert b"t_N: 1" in res.stdout


def test_text_lines_mark_nested_items():
    from weightfil.cli import _text_lines
    report = {"a": [[1, 2], [3], []], "b": [1], "c": [{"x": 1, "y": [2, [4]]}]}
    assert _text_lines(report, 0) == [
        "a:", "  - - 1", "    - 2", "  - - 3", "  -",
        "b:", "  - 1",
        "c:", "  - x: 1", "    y:", "      - 2", "      - - 4"]


# (golden file name, CLI arguments, input document or None); a --format text
# report is frozen as <name>.txt, every other report as <name>.json
GOLDEN_FIXTURES = [
    ("phin-analyze", ["phin-analyze", "--seed", "3"], TATE_CURVE),
    ("phin-netcoh", ["phin-netcoh"], NETCOH_D2),
    ("ss-cech", ["ss-cech"], TRIANGLE_NERVE),
    ("ss-steenbrink", ["ss-steenbrink"], CYCLE3_STEENBRINK),
    ("ss-pages", ["ss-pages"], D2_COMPLEX),
    ("drinfeld-ball", ["drinfeld-ball", "--d", "1", "--p", "2", "--n", "2"], None),
    ("drinfeld-arrangement", ["drinfeld-arrangement", "--r", "2", "--q", "3"], None),
    ("drinfeld-blowup", ["drinfeld-blowup", "--r", "2", "--q", "3"], None),
    ("drinfeld-counts", ["drinfeld-counts", "--d", "2", "--q", "2", "--i", "2"], None),
    # 3 x 3 lattice bases, GF(4) spans, and criterion 12's phin-check-mw
    ("drinfeld-ball-d2", ["drinfeld-ball", "--d", "2", "--p", "2", "--n", "2"], None),
    ("drinfeld-arrangement-q4", ["drinfeld-arrangement", "--r", "3", "--q", "4"], None),
    ("phin-check-mw", ["phin-check-mw"], TATE_CURVE),
    ("phin-analyze-text", ["phin-analyze", "--format", "text"], TATE_CURVE),
    ("drinfeld-ball-text",
     ["drinfeld-ball", "--d", "1", "--p", "2", "--n", "1", "--format", "text"], None),
]

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def golden_file(name, args):
    return GOLDEN_DIR / (f"{name}.txt" if "text" in args else f"{name}.json")


def run_fixture(tmp_path, name, args, obj):
    path = write(tmp_path, f"{name}.json", obj) if obj is not None else None
    return run_cli(args, path=path)


def test_determinism_golden(tmp_path):
    for name, args, obj in GOLDEN_FIXTURES:
        first = run_fixture(tmp_path, name, args, obj)
        second = run_fixture(tmp_path, name, args, obj)
        assert first.returncode == 0, (args, first.stderr)
        assert first.stdout == second.stdout  # byte identical


def test_golden_reports_frozen(tmp_path):
    """Each report equals its frozen file in tests/golden/ byte for byte.

    A change that alters a report on purpose rewrites the file (the
    command's stdout on the fixture) and says why in CHANGES.md.
    """
    for name, args, obj in GOLDEN_FIXTURES:
        res = run_fixture(tmp_path, name, args, obj)
        assert res.returncode == 0, (args, res.stderr)
        assert res.stdout == golden_file(name, args).read_bytes(), name


def test_every_subcommand_has_a_golden_fixture():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    missing = set(sub.choices) - {args[0] for _, args, _ in GOLDEN_FIXTURES}
    assert not missing, f"subcommands without a golden fixture: {sorted(missing)}"
