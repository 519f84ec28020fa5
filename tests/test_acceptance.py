"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from weightfil.arrangements import (blowup_poincare, point_count_oracle,
                                    rational_arrangement_poincare)
from weightfil.drinfeld import (LatticeClass, ball,
                                simplices_through_vertex, vertex_neighbors)
from weightfil.exact_linalg import (Subspace, image, kernel,
                                    subspace_intersect, subspace_sum)
from weightfil.filtration import DECREASING, IndexedFiltration
from weightfil.nerve import cech_complex, cech_vs_total_check
from weightfil.phin import (PhiNModule, is_ordinary, is_weakly_admissible,
                            kernel_image_collapse, monodromy_filtration,
                            monodromy_weight_check, reduced_module_check)
from weightfil.spectral import (abutment_labels, degeneration_page,
                                equivariant_degeneration_check,
                                total_cohomology_dims)
from weightfil.steenbrink import analyze_steenbrink, cycle_datum

from conftest import (conjugate, jordan_nilpotent, mk_module, monodromy_weight_diff, qm,
                      random_functorial_nerve, random_invertible, sub,
                      tate_curve_module, tate_module)


def _report(k, text):
    print(f"[criterion {k:2d}] PASS  {text}")


def _single_block_module(d, p=2):
    n = d + 1
    diag = [p ** (d - i) for i in range(n)]
    phi = qm([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return PhiNModule(p, 1, d, phi, jordan_nilpotent([n]),
                      IndexedFiltration.make(n, DECREASING, {0: Subspace.full(n)}))


def test_criterion_01_monodromy_single_blocks():
    t0 = time.time()
    for d in range(0, 7):
        D = _single_block_module(d)
        m = monodromy_filtration(D)
        # frozen closed form: graded dims are 1 exactly at -d, -d+2, ..., d
        assert m.graded_dims() == {Fraction(r): 1 for r in range(-d, d + 1, 2)}
        # brute-force evaluation of the convolution formula, assembled here
        # independently from kernel/image powers
        n = d + 1
        N = D.N
        for r in range(-d, d + 1):
            acc = Subspace.zero(n)
            for i in range(0, n + 1):
                ker_i = kernel(N.power(i + 1))
                im_i = Subspace.full(n) if i - r <= 0 else image(N.power(i - r))
                acc = subspace_sum(acc, subspace_intersect(ker_i, im_i))
            assert acc == m.at(r)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"single Jordan blocks d<=6, graded dims at -d..d step 2 "
               f"({elapsed:.2f}s)")


def test_criterion_02_collapse_lemma_suite():
    rng = random.Random(20240331)
    passed = 0
    attempts = 0
    while passed < 200:
        attempts += 1
        assert attempts < 5000
        d = rng.randint(0, 2)
        m = rng.randint(1, 6 // (d + 1))
        n = m * (d + 1)
        N = conjugate(random_invertible(rng, n), jordan_nilpotent([d + 1] * m))
        rep = kernel_image_collapse(N, d)
        if not (rep.h1 and rep.h2):
            continue  # generator guarantees hypotheses; keep the filter anyway
        assert rep.conclusion is True
        passed += 1
    _report(2, f"{passed} random nilpotents (dim <= 6) with hypotheses: "
               "kernel = image = convolution levels, zero failures")


def test_criterion_03_definitional_suite():
    for i in range(0, 4):
        D = tate_module(p=2, i=i)
        rep = is_weakly_admissible(D)
        assert rep.verdict == "admissible" and rep.certified
        assert is_ordinary(D) is True
    q = 2
    bad = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 1], [0, 0]],
                    {0: "full", 1: [[1, 0]]})
    rep = is_weakly_admissible(bad)
    assert rep.verdict == "not_admissible" and rep.certified
    assert rep.witness == sub(2, [[1, 0]])  # the kernel line of N
    _report(3, "Tate-type modules ordinary; fil^1 = ker N flagged with the "
               "correct witness")


def test_criterion_04_weight_labeled_cech():
    from weightfil.nerve import NerveDatum
    comps = list("abc")
    strata = {}
    for c in comps:
        strata[frozenset([c])] = {0: 1, 2: 1}
    from itertools import combinations
    for pair in combinations(comps, 2):
        strata[frozenset(pair)] = {0: 1}
    restr = {}
    for j in list(strata):
        for x in comps:
            if x in j:
                continue
            j2 = j | {x}
            if j2 in strata:
                restr[(j, j2)] = {0: qm([[1]])}
    nd = NerveDatum(comps, strata, restr)
    fc = cech_complex(nd)
    assert equivariant_degeneration_check(fc) is True
    assert degeneration_page(fc, 6) == 2
    for n in total_cohomology_dims(fc):
        for p, info in abutment_labels(fc, n).items():
            assert info["label"] == n - p  # phi scales by q^(d - r) on gr^r
    _report(4, "labeled Cech complexes degenerate at page 2 with abutment "
               "labels q^(d-r)")


def test_criterion_05_reduced_quotient_synthetic():
    q = 2
    phi = qm([[q * q, 0, 0, 0], [0, q, 0, 0], [0, 0, q, 0], [0, 0, 0, 1]])
    N = qm([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]])
    fil = IndexedFiltration.make(4, DECREASING, {
        0: Subspace.full(4),
        1: sub(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        2: sub(4, [[1, 0, 0, 0]])})
    D = PhiNModule(2, 1, 2, phi, N, fil)
    rep = reduced_module_check(D)
    assert rep.a is True and rep.b is True and rep.c is True
    assert rep.dim_c == 1
    assert rep.c_meets_middle is False  # C^2 /\ F^(t+1) = 0 with t = d/2
    _report(5, "d=2 module with graded dims (1,2,1): clauses a, b, c pass, "
               "dim C = 1, C meets the middle level trivially")


def test_criterion_06_monodromy_weight_instances():
    D = tate_curve_module()
    assert monodromy_weight_check(D) is True
    q = 2
    bad = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 0], [0, 0]],
                    {0: "full", 1: [[0, 1]]})
    assert monodromy_weight_check(bad) is False
    diff = monodromy_weight_diff(bad)
    assert diff == [(Fraction(-1), 0, 1), (Fraction(0), 2, 1)]
    _report(6, "Tate-curve module passes M = P; N = 0 mixed-weight module "
               f"fails with step diff {[(int(r), a, b) for r, a, b in diff]}")


def test_criterion_07_steenbrink_cycles():
    for n in range(2, 7):
        an = analyze_steenbrink(cycle_datum(n))
        assert an.weight_graded[1] == {0: 1, 2: 1}
        assert an.monodromy_rank[1] == 1
        assert an.monodromy[1].power(2).is_zero()
        assert an.mw_equal[1] is True
    _report(7, "cycles of 2..6 components: H^1 weights (1,1), monodromy "
               "rank 1, N^2 = 0, M = P")


def test_criterion_08_cech_equivalence_random():
    rng = random.Random(777)
    checked = 0
    while checked < 50:
        nd = random_functorial_nerve(rng, rng.randint(1, 4))
        assert cech_vs_total_check(nd, cech_complex(nd)) is True
        checked += 1
    _report(8, f"{checked} random consistent nerves (<= 4 components): "
               "flag-indexed complex = nerve complex")


def test_criterion_09_building_counts():
    assert len(vertex_neighbors(LatticeClass.base(1, 2), 2, 1)) == 3
    assert len(ball(LatticeClass.base(1, 2), 2, 2, 1).vertices) == 10
    assert len(vertex_neighbors(LatticeClass.base(2, 2), 2, 2)) == 14
    assert simplices_through_vertex(2, 2, 3) == 21
    rng = random.Random(5)
    b = ball(LatticeClass.base(2, 2), 1, 2, 2)
    for v in rng.sample(b.vertices, 6):
        assert len(vertex_neighbors(v, 2, 2)) == 14
    t0 = time.time()
    big = ball(LatticeClass.base(1, 3), 8, 3, 1)
    elapsed = time.time() - t0
    assert len(big.vertices) == 13121  # > 10^4 vertices
    assert elapsed < 5.0
    for v in rng.sample(big.vertices, 10):
        assert len(vertex_neighbors(v, 3, 1)) == 4
    _report(9, f"neighbor/ball/simplex counts exact; 13121-vertex ball in "
               f"{elapsed:.2f}s; neighbor counts homogeneous")


def test_criterion_10_arrangement_cohomology():
    assert rational_arrangement_poincare(2, 2) == (1, 6, 8)
    for q in (2, 3, 4):
        assert rational_arrangement_poincare(2, q) == (1, q * q + q, q ** 3)
    for r in (1, 2, 3):
        for q in (2, 3, 4):
            rational_arrangement_poincare(r, q)  # raises on method mismatch
    _report(10, "arrangement Betti numbers (1, q^2+q, q^3) for q in {2,3,4}; "
                "Gysin recursion = Moebius method for r <= 3, q <= 4")


def test_criterion_11_blowup_consistency():
    for q in (2, 3, 4):
        b = blowup_poincare(2, q)
        assert b == (1, 0, q * q + q + 2, 0, 1)
        for s in (1, 2, 3):
            val = sum(c * (q ** s) ** (m // 2)
                      for m, c in enumerate(b) if m % 2 == 0)
            assert val == point_count_oracle(("iterated_blowup", 2), q, s)
    assert point_count_oracle(("iterated_blowup", 2), 2, 1) == 21
    _report(11, "blow-up Poincare (1,0,q^2+q+2,0,1) matches point counts at "
                "s = 1, 2, 3 (q=2: 21 points over F_2)")


def test_criterion_12_cli_determinism(tmp_path):
    tate = tmp_path / "tate.json"
    tate.write_text(json.dumps({
        "schema": 1, "p": 2, "a": 1, "d": 1,
        "phi": [["1", "0"], ["0", "2"]],
        "N": [["0", "1"], ["0", "0"]],
        "fil": {"0": [["1", "0"], ["0", "1"]], "1": [["1", "1"]]},
    }))
    fixtures = [
        ["phin-analyze", "--seed", "7", str(tate)],
        ["phin-check-mw", str(tate)],
        ["phin-netcoh", str(tate)],
        ["drinfeld-ball", "--d", "1", "--p", "2", "--n", "2"],
        ["drinfeld-arrangement", "--r", "2", "--q", "2"],
        ["drinfeld-blowup", "--r", "2", "--q", "2"],
        ["drinfeld-counts", "--d", "2", "--q", "2", "--i", "3"],
    ]
    for args in fixtures:
        cmd = [sys.executable, "-m", "weightfil.cli"] + args
        runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
        assert runs[0].returncode == 0, (args, runs[0].stderr)
        assert runs[0].stdout == runs[1].stdout
    _report(12, f"{len(fixtures)} golden reports byte-identical across runs "
                "with fixed seed")
