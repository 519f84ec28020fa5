import random
from fractions import Fraction
from itertools import combinations

import pytest

from weightfil.errors import PreconditionError
from weightfil.exact_linalg import QMatrix
from weightfil.nerve import (NerveDatum, cech_complex, cech_vs_total_check,
                             lambda_flags)
from weightfil.spectral import (abutment_filtration, abutment_labels,
                                degeneration_page, e_page,
                                equivariant_degeneration_check,
                                total_cohomology_dims)

from conftest import qm, random_functorial_nerve


def const_nerve(comps, present):
    strata = {frozenset(j): {0: 1} for j in present}
    restr = {}
    for j in list(strata):
        for x in comps:
            if x in j:
                continue
            j2 = j | {x}
            if j2 in strata:
                restr[(j, j2)] = {0: qm([[1]])}
    return NerveDatum(list(comps), strata, restr)


TRIANGLE = const_nerve("abc", [{"a"}, {"b"}, {"c"},
                               {"a", "b"}, {"a", "c"}, {"b", "c"}])


def brute_flag_count(n, m):
    """Independent oracle: enumerate chains of nonempty subsets directly."""
    subs = [frozenset(c) for k in range(1, n + 1)
            for c in combinations(range(n), k)]
    count = 0
    stack = [(s,) for s in subs]
    for _ in range(m):
        stack = [f + (t,) for f in stack for t in subs if f[-1] < t]
    return len(stack)


def test_lambda_flags_counts():
    assert len(lambda_flags(2, 0)) == 3
    assert len(lambda_flags(2, 1)) == 2
    assert len(lambda_flags(3, 1)) == 12  # matches the brute-force oracle
    for n in (1, 2, 3):
        for m in (0, 1, 2):
            assert len(lambda_flags(n, m)) == brute_flag_count(n, m)


def test_lambda_flags_face_maps():
    flags = lambda_flags(3, 1)
    from weightfil.nerve import flag_delete
    for f in flags:
        for s in (0, 1):
            assert len(flag_delete(f, s)) == 1


def test_single_component():
    nd = const_nerve("a", [{"a"}])
    fc = cech_complex(nd)
    assert total_cohomology_dims(fc) == {0: 1}
    assert e_page(fc, 1).entries == {(0, 0): 1}
    assert cech_vs_total_check(nd, fc) is True


def test_triangle_circle_cohomology():
    fc = cech_complex(TRIANGLE)
    assert total_cohomology_dims(fc) == {0: 1, 1: 1}
    assert cech_vs_total_check(TRIANGLE, fc) is True


def test_interval():
    nd = const_nerve("ab", [{"a"}, {"b"}, {"a", "b"}])
    assert total_cohomology_dims(cech_complex(nd)) == {0: 1}


def test_e1_matches_nerve_data():
    fc = cech_complex(TRIANGLE)
    assert e_page(fc, 1).entries == {(0, 0): 3, (1, 0): 3}


def test_nerve_simplicial_oracle():
    """For coverings with one-dimensional H^0 strata only, the Cech complex
    computes simplicial cohomology of the nerve; oracle: independent
    simplicial cochain complex over the faces."""
    rng = random.Random(31)
    for _ in range(15):
        ncomp = rng.randint(1, 4)
        comps = [chr(ord("a") + i) for i in range(ncomp)]
        # random downward-closed face set (a simplicial complex on comps)
        faces = {frozenset([c]) for c in comps}
        for k in (2, 3, 4):
            for cand in combinations(comps, k):
                cand = frozenset(cand)
                if all(frozenset(f) in faces
                       for f in combinations(cand, k - 1)) and rng.random() < 0.6:
                    faces.add(cand)
        nd = const_nerve(comps, faces)
        got = total_cohomology_dims(cech_complex(nd))
        expect = simplicial_cohomology(comps, faces)
        assert got == expect


def simplicial_cohomology(vertices, faces):
    """Cochain complex on the face set with standard alternating signs."""
    from weightfil.exact_linalg import kernel, image
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for k in by_dim:
        by_dim[k].sort(key=lambda f: sorted(vertices.index(v) for v in f))
    mats = {}
    for k in sorted(by_dim):
        src = by_dim[k]
        tgt = by_dim.get(k + 1, [])
        rows = [[Fraction(0)] * len(src) for _ in range(len(tgt))]
        for jidx, f in enumerate(src):
            for iidx, g in enumerate(tgt):
                if f < g:
                    (x,) = tuple(g - f)
                    pos = sorted(g, key=vertices.index).index(x)
                    rows[iidx][jidx] = Fraction(-1 if pos % 2 else 1)
        if tgt and src:
            mats[k] = QMatrix.from_rows(rows)
    out = {}
    for k in sorted(by_dim):
        z = kernel(mats[k]) if k in mats else None
        zdim = z.dim if z is not None else len(by_dim[k])
        bdim = image(mats[k - 1]).dim if (k - 1) in mats else 0
        h = zdim - bdim
        if h:
            out[k] = h
    return out


def test_random_functorial_nerves_flag_equality():
    rng = random.Random(41)
    for _ in range(12):
        nd = random_functorial_nerve(rng, rng.randint(1, 4))
        assert cech_vs_total_check(nd, cech_complex(nd)) is True


def test_functoriality_validation_rejects_bad_maps():
    comps = list("abc")
    strata = {frozenset([c]): {0: 2} for c in comps}
    strata[frozenset("ab")] = {0: 2}
    strata[frozenset("ac")] = {0: 2}
    strata[frozenset("bc")] = {0: 2}
    strata[frozenset("abc")] = {0: 2}
    restr = {}
    ident = QMatrix.identity(2)
    twist = qm([[0, 1], [1, 0]])
    for j in list(strata):
        for x in comps:
            if x in j:
                continue
            restr[(j, j | {x})] = {0: ident}
    # break one square
    restr[(frozenset("ab"), frozenset("abc"))] = {0: twist}
    with pytest.raises(PreconditionError):
        NerveDatum(comps, strata, restr)


def test_weight_labels_and_degeneration():
    # strata with rows in degrees 0 and 2, default labels = degree
    comps = list("abc")
    strata = {}
    for c in comps:
        strata[frozenset([c])] = {0: 1, 2: 1}
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
    assert degeneration_page(fc, 5) == 2
    # abutment graded pieces carry the label of their row: q^(n - p)
    for n in total_cohomology_dims(fc):
        for p, info in abutment_labels(fc, n).items():
            assert info["label"] == n - p


def test_triangle_abutment_equals_e2_and_einfty():
    fc = cech_complex(TRIANGLE)
    p2 = e_page(fc, 2)
    pstable = e_page(fc, 5)
    assert p2.entries == pstable.entries  # degenerate at 2
    for n in (0, 1):
        graded = abutment_filtration(fc, n).graded_dims()
        diag = {Fraction(p): d for (p, q), d in pstable.entries.items()
                if p + q == n}
        assert graded == diag
