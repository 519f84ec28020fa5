import argparse
import json
import pathlib
import subprocess
import sys

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


def test_schema_error_two_field_block(tmp_path):
    obj = dict(D2_COMPLEX, blocks={"0": [[0, 0]]})
    assert_schema_error(run_cli(["ss-pages"], path=write(tmp_path, "blocks.json", obj)))


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


def test_text_format(tmp_path):
    p = write(tmp_path, "tate.json", TATE_CURVE)
    res = run_cli(["phin-analyze", "--format", "text"], path=p)
    assert res.returncode == 0
    assert b"t_N: 1" in res.stdout


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
