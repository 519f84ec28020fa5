import importlib.util
import pathlib
import random
from fractions import Fraction

import pytest

from weightfil import exact_linalg
from weightfil.errors import FiltrationError, PreconditionError
from weightfil.exact_linalg import (QMatrix, QuotientMap, Subspace, image, image_of_subspace,
                                    inverse, kernel, subspace_intersect,
                                    subspace_sum)
from weightfil.nerve import cech_complex
from weightfil.serialize import load_filtered_complex, load_nerve, load_steenbrink
from weightfil.spectral import (FilteredComplex, GradedComplex, Page, abutment_filtration,
                                abutment_labels, degeneration_page, e_page,
                                equivariant_degeneration_check, stable_page_index,
                                total_cohomology_dims)
from weightfil.steenbrink import steenbrink_double_complex

from conftest import euler_characteristic, is_degenerate, qm, random_invertible, rank, sub
from test_cli import CYCLE3_STEENBRINK, D2_COMPLEX, TRIANGLE_NERVE

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def trivial_filtration(gc: GradedComplex) -> FilteredComplex:
    fil = {n: {0: Subspace.full(gc.dim(n)), 1: Subspace.zero(gc.dim(n))}
           for n in gc.spaces}
    return FilteredComplex(gc, fil)


def two_level_complex():
    """C0 = <a>, C1 = <b>, C2 = <c>, d(a) = b; levels a:0, b:2, c:1.
    The class of a survives to E_2 and dies by a nonzero d_2."""
    gc = GradedComplex({0: 1, 1: 1, 2: 1},
                       {0: qm([[1]]), 1: qm([[0]])})
    fil = {
        0: {0: Subspace.full(1), 1: Subspace.zero(1)},
        1: {2: Subspace.full(1), 3: Subspace.zero(1)},
        2: {1: Subspace.full(1), 2: Subspace.zero(1)},
    }
    return FilteredComplex(gc, fil)


def test_zero_differential_trivial_filtration():
    gc = GradedComplex({0: 2, 1: 3}, {})
    fc = trivial_filtration(gc)
    pg = e_page(fc, 1)
    assert pg.entries == {(0, 0): 2, (0, 1): 3}
    assert degeneration_page(fc, 4) == 1


def test_acyclic_two_term():
    gc = GradedComplex({0: 1, 1: 1}, {0: qm([[1]])})
    fc = trivial_filtration(gc)
    assert e_page(fc, 1).entries == {}
    assert total_cohomology_dims(fc) == {}


def test_nonzero_d2():
    fc = two_level_complex()
    p2 = e_page(fc, 2)
    assert p2.entries == {(0, 0): 1, (1, 1): 1, (2, -1): 1}
    assert p2.differentials and not is_degenerate(p2)
    p3 = e_page(fc, 3)
    assert p3.entries == {(1, 1): 1}
    assert degeneration_page(fc, 5) == 3


def test_degeneration_bound_censored():
    fc = two_level_complex()
    assert degeneration_page(fc, 2) is None  # d_2 != 0 persists at the bound


def test_euler_characteristic_page_invariant():
    fc = two_level_complex()
    chis = {euler_characteristic(e_page(fc, r)) for r in range(0, 5)}
    assert len(chis) == 1


def test_convergence_bookkeeping():
    fc = two_level_complex()
    stable = 4
    for n in (0, 1, 2):
        total = sum(d for (p, q), d in e_page(fc, stable).entries.items()
                    if p + q == n)
        assert total == fc.complex.cohomology_dim(n)


def test_abutment_trivial_filtration():
    gc = GradedComplex({0: 2, 1: 1}, {0: qm([[0, 0]])})
    fc = trivial_filtration(gc)
    fl = abutment_filtration(fc, 0)
    assert fl.graded_dims() == {Fraction(0): 2}


def test_abutment_direct_sum_additive():
    # direct sum of two filtered complexes: abutment graded dims add up
    gc = GradedComplex({0: 2}, {})
    fil = {0: {0: Subspace.full(2), 1: sub(2, [[1, 0]]), 2: Subspace.zero(2)}}
    fc = FilteredComplex(gc, fil)
    single = FilteredComplex(GradedComplex({0: 1}, {}),
                             {0: {0: Subspace.full(1), 1: Subspace.zero(1)}})
    g_sum = abutment_filtration(fc, 0).graded_dims()
    g_single = abutment_filtration(single, 0).graded_dims()
    assert g_sum == {Fraction(0): 1, Fraction(1): 1}
    assert g_single == {Fraction(0): 1}
    assert sum(g_sum.values()) == 2


def test_filtration_compatibility_enforced():
    gc = GradedComplex({0: 1, 1: 1}, {0: qm([[1]])})
    fil = {
        0: {0: Subspace.full(1), 1: Subspace.full(1), 2: Subspace.zero(1)},
        1: {0: Subspace.full(1), 1: Subspace.zero(1)},
    }
    with pytest.raises(FiltrationError):
        FilteredComplex(gc, fil)


def test_equivariant_check_forced_true():
    # rows labeled by distinct weights, nonzero d_1 only
    gc = GradedComplex({0: 1, 1: 1}, {0: qm([[1]])})
    fil = {0: {0: Subspace.full(1), 1: Subspace.zero(1)},
           1: {1: Subspace.full(1), 2: Subspace.zero(1)}}
    fc = FilteredComplex(gc, fil, blocks={0: [(0, 0, 1)], 1: [(1, 0, 1)]},
                         labels={(0, 0): 0, (1, 0): 0})
    assert equivariant_degeneration_check(fc) is True


def test_equivariant_check_equal_labels_nonzero_d2():
    fc0 = two_level_complex()
    fc = FilteredComplex(fc0.complex, fc0.filtration,
                         blocks={0: [(0, 0, 1)], 1: [(2, -1, 1)], 2: [(1, 1, 1)]},
                         labels={(0, 0): 7, (2, -1): 7, (1, 1): 3})
    assert equivariant_degeneration_check(fc) is False


def test_equivariant_check_label_inconsistent_differential():
    fc0 = two_level_complex()
    fc = FilteredComplex(fc0.complex, fc0.filtration,
                         blocks={0: [(0, 0, 1)], 1: [(2, -1, 1)], 2: [(1, 1, 1)]},
                         labels={(0, 0): 0, (2, -1): 5, (1, 1): 3})
    with pytest.raises(PreconditionError):
        equivariant_degeneration_check(fc)


def test_equivariant_check_repeated_bidegree_earlier_slice():
    # degree 0 lists (0, 0) twice, apart; only its earlier slice maps, by a
    # nonzero entry, into the (1, 0) block of a different label
    gc = GradedComplex({0: 3, 1: 1}, {0: qm([[1, 0, 0]])})
    fil = {0: {0: Subspace.full(3), 1: sub(3, [[0, 1, 0]]), 2: Subspace.zero(3)},
           1: {1: Subspace.full(1), 2: Subspace.zero(1)}}
    fc = FilteredComplex(gc, fil,
                         blocks={0: [(0, 0, 1), (1, -1, 1), (0, 0, 1)], 1: [(1, 0, 1)]},
                         labels={(0, 0): 0, (1, -1): 0, (1, 0): 5})
    with pytest.raises(PreconditionError, match=r"\(0, 0\) -> \(1, 0\)"):
        equivariant_degeneration_check(fc)


def test_random_complex_consistency():
    # on random two-term filtered complexes, E_infinity bookkeeping is exact
    rng = random.Random(21)
    for _ in range(10):
        n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
        d = qm([[rng.randint(-1, 1) for _ in range(n0)] for _ in range(n1)])
        gc = GradedComplex({0: n0, 1: n1}, {0: d})
        fc = trivial_filtration(gc)
        stable = 3
        for n in (0, 1):
            total = sum(dd for (p, q), dd in e_page(fc, stable).entries.items()
                        if p + q == n)
            assert total == gc.cohomology_dim(n)


def assert_next_page_is_homology(fc, rs):
    # dim E_{r+1}^{p,q} = dim ker d_r - rank of the incoming d_r
    for r in rs:
        cur = e_page(fc, r)
        nxt = e_page(fc, r + 1)
        keys = set(cur.entries) | set(nxt.entries)
        for (p, q) in keys:
            dim_cur = cur.entry(p, q)
            out = cur.differentials.get((p, q))
            inc = cur.differentials.get((p - r, q + r - 1))
            ker_dim = kernel(out).dim if out is not None else dim_cur
            inc_rank = rank(inc) if inc is not None else 0
            assert nxt.entry(p, q) == ker_dim - inc_rank


def test_next_page_is_homology_of_current():
    assert_next_page_is_homology(two_level_complex(), range(0, 4))


def random_filtered_complex(rng, leak=False):
    """Pairs x -> y (d x = y, levels a <= b, so d_(b-a) kills them) and
    lone cycles on coordinate levels 0..4, then a random basis change in
    every degree, so that no filtration step is a coordinate span.  With
    `leak`, one more pair has b < a: d then leaves F^(b+1)."""
    levels = {n: [] for n in range(4)}
    pairs = []
    for k in range(rng.randint(3, 7) + leak):
        n, a = rng.randint(0, 2), rng.randint(0, 3)
        if k == 0 and leak:
            a = rng.randint(1, 4)
            pairs.append((n, len(levels[n]), len(levels[n + 1])))
            levels[n + 1].append(rng.randint(0, a - 1))
        elif rng.random() < 0.7:
            pairs.append((n, len(levels[n]), len(levels[n + 1])))
            levels[n + 1].append(rng.randint(a, 4))
        levels[n].append(a)
    spaces = {n: len(lv) for n, lv in levels.items() if lv}
    g = {n: random_invertible(rng, dim) for n, dim in spaces.items()}
    diffs = {}
    for n in spaces:
        if n + 1 in spaces:
            rows = [[0] * spaces[n] for _ in range(spaces[n + 1])]
            for (m, i, j) in pairs:
                if m == n:
                    rows[j][i] = 1
            diffs[n] = g[n + 1] @ qm(rows) @ inverse(g[n])
    fil = {}
    for n, lv in levels.items():
        if lv:
            cols = g[n].transpose().row_list()
            # only the levels in use are listed: F is full below, zero above
            fil[n] = {p: sub(spaces[n], [cols[i] for i, a in enumerate(lv) if a >= p])
                      for p in range(min(lv), max(lv) + 1)}
    return GradedComplex(spaces, diffs), fil


def test_memoized_reads_match_fresh_complex_per_request():
    # a shared complex keeps its pairing, pages and abutments; reading them
    # in any order must give what a fresh complex computes for each request
    rng = random.Random(8)
    rs = list(range(0, 6))
    higher = 0
    for _ in range(6):
        gc, fil = random_filtered_complex(rng)
        pages = {r: e_page(FilteredComplex(gc, fil), r) for r in rs}
        degen = {b: degeneration_page(FilteredComplex(gc, fil), b) for b in rs}
        abut = {n: abutment_filtration(FilteredComplex(gc, fil), n) for n in gc.spaces}
        higher += sum(not is_degenerate(pages[r]) for r in rs[2:])
        for order in (rs, rs[::-1], rng.sample(rs, len(rs))):
            shared = FilteredComplex(gc, fil)
            for r in order:
                assert e_page(shared, r) == pages[r]
            for b in order:
                assert degeneration_page(shared, b) == degen[b]
            for n in gc.spaces:
                assert abutment_filtration(shared, n) == abut[n]
        assert_next_page_is_homology(shared, rs[:-1])
    assert higher > 0  # some d_r with r >= 2 is nonzero


def test_invalid_complex_raises_at_construction():
    line_a, line_b = sub(2, [[1, 0]]), sub(2, [[0, 1]])
    # a GradedComplex checks itself before any filtration is put on it
    with pytest.raises(PreconditionError, match="d o d"):
        GradedComplex({0: 1, 1: 1, 2: 1}, {0: qm([[1]]), 1: qm([[1]])})
    with pytest.raises(PreconditionError, match="wrong shape"):
        GradedComplex({0: 1, 1: 2}, {0: qm([[1]])})
    with pytest.raises(FiltrationError, match="not decreasing"):
        FilteredComplex(GradedComplex({0: 2}, {}),
                        {0: {0: Subspace.full(2), 1: line_a, 2: line_b,
                             3: Subspace.zero(2)}})
    with pytest.raises(FiltrationError, match="does not respect"):
        FilteredComplex(GradedComplex({0: 1, 1: 1}, {0: qm([[1]])}),
                        {0: {1: Subspace.full(1), 2: Subspace.zero(1)},
                         1: {0: Subspace.full(1), 1: Subspace.zero(1)}})


def preimage(m, w):
    """{x : m x in w}."""
    k = w.annihilator_matrix()
    return kernel(k @ m) if k.rows else Subspace.full(m.cols)


def _oracle_z(fc, p, q, r, memo):
    # F^p is full for p <= lo and zero for p > hi, so Z_r^{p,q} depends
    # only on the levels p and p + r clamped to [lo, hi + 1]
    n = p + q
    lo, hi = fc.p_range()
    key = (n, min(max(p, lo), hi + 1), min(max(p + r, lo), hi + 1))
    if key not in memo:
        memo[key] = subspace_intersect(
            fc.fil_at(n, key[1]), preimage(fc.complex.diff(n), fc.fil_at(n + 1, key[2])))
    return memo[key]


def oracle_e_page(fc, r, memo):
    """E_r and d_r from the subquotient formulas

        Z_r^{p,q} = F^p C^n  /\\  d^{-1}(F^{p+r} C^{n+1})          (n = p+q)
        E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2})

    with d_r induced by d, written in the complement bases of QuotientMap.
    `memo` keeps the Z_r of one complex across pages."""
    lo, hi = fc.p_range()
    maps = {}
    for n in fc.complex.degrees():
        for p in range(lo, hi + 1):
            q = n - p
            z_r = _oracle_z(fc, p, q, r, memo)
            if r == 0:
                den = fc.fil_at(n, p + 1)
            else:
                den = subspace_sum(_oracle_z(fc, p + 1, q - 1, r - 1, memo),
                                   image_of_subspace(fc.complex.diff(n - 1),
                                                     _oracle_z(fc, p - r + 1, q + r - 2,
                                                               r - 1, memo)))
            qm_ = QuotientMap(den, z_r)
            if qm_.dim:
                maps[(p, q)] = qm_
    diffs = {}
    for (p, q), src in maps.items():
        tgt = maps.get((p + r, q - r + 1))
        if tgt is None:
            continue
        d = fc.complex.diff(p + q)
        cols = [tgt.coords(d.apply(row)) for row in src.comp_rows]
        mat = QMatrix.from_rows([[cols[j][i] for j in range(src.dim)]
                                 for i in range(tgt.dim)])
        if not mat.is_zero():
            diffs[(p, q)] = mat
    return Page(r, {pq: m.dim for pq, m in maps.items()}, diffs)


def assert_pages_match_oracle(fc):
    """Entries and d_r ranks on pages 0..stable + 1, degeneration_page for
    bounds 0..6, and E_(r+1) = H(E_r, d_r)."""
    memo = {}
    top = stable_page_index(fc) + 1
    oracle = {r: oracle_e_page(fc, r, memo) for r in range(max(top, 6) + 1)}
    for r in range(top + 1):
        got, want = e_page(fc, r), oracle[r]
        assert got.entries == want.entries, r
        assert ({pq: rank(m) for pq, m in got.differentials.items()}
                == {pq: rank(m) for pq, m in want.differentials.items()}), r
    for bound in range(7):
        last = max((s for s in range(1, bound + 1) if not is_degenerate(oracle[s])),
                   default=0)
        assert degeneration_page(fc, bound) == (None if last == bound else last + 1)
    assert_next_page_is_homology(fc, range(top))


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def complex_of(kind, payload):
    """The filtered complex that the ss-* command `kind` reads its pages off."""
    if kind == "ss-cech":
        return cech_complex(load_nerve(payload))
    if kind == "ss-steenbrink":
        return steenbrink_double_complex(load_steenbrink(payload))
    return load_filtered_complex(payload)


def test_pairing_matches_oracle_on_random_complexes():
    rng = random.Random(16)
    higher = 0
    for _ in range(40):
        fc = FilteredComplex(*random_filtered_complex(rng))
        assert_pages_match_oracle(fc)
        higher += degeneration_page(fc, 6) not in (1, 2)
    assert higher > 0  # some d_r with r >= 2 is nonzero


def test_pairing_matches_oracle_on_workload_and_golden_complexes():
    workloads = load_workloads()
    cases = [(c.kind, c.payload)
             for seed in (1, 2) for c in workloads.filtered_cases(
                 random.Random(f"filtered_complexes:{seed}:0"))]
    cases += [("ss-cech", TRIANGLE_NERVE), ("ss-steenbrink", CYCLE3_STEENBRINK),
              ("ss-pages", D2_COMPLEX)]
    assert {kind for kind, _ in cases} == {"ss-cech", "ss-steenbrink", "ss-pages"}
    for kind, payload in cases:
        assert_pages_match_oracle(complex_of(kind, payload))


def test_pairing_uses_each_basis_vector_once():
    rng = random.Random(5)
    for _ in range(20):
        fc = FilteredComplex(*random_filtered_complex(rng))
        levels, pairs = fc._memo["pairing"]    # kept by construction
        ends = [(n, i) for n, i, _, _ in pairs] + [(n + 1, j) for n, _, j, _ in pairs]
        assert len(ends) == len(set(ends))
        for n, i, j, length in pairs:
            assert length == levels[n + 1][j] - levels[n][i] >= 0
        for lv in levels.values():
            assert lv == sorted(lv, reverse=True)


def test_later_pages_add_no_eliminations(monkeypatch):
    # construction runs every elimination of the pairing; the pages, H^n, the
    # abutment's graded pieces, the degeneration page and the equivariant
    # check read it without one more
    plain, labelled = load_filtered_complex(D2_COMPLEX), complex_of("ss-cech", TRIANGLE_NERVE)
    calls = []
    rref = exact_linalg._rref
    monkeypatch.setattr(exact_linalg, "_rref", lambda rows: calls.append(1) or rref(rows))
    for fc in (plain, labelled):
        for r in range(7):
            e_page(fc, r)
        degeneration_page(fc, 6)
        total_cohomology_dims(fc)
    for n in total_cohomology_dims(labelled):
        abutment_labels(labelled, n)
    assert equivariant_degeneration_check(labelled) is True
    assert degeneration_page(plain, 6) == 3
    assert calls == []
    FilteredComplex(plain.complex, plain.filtration)
    assert calls  # the counter sees the eliminations of a construction


class Unchecked(FilteredComplex):
    """A FilteredComplex that skips validation, for the oracle below."""

    def validate(self):
        return self


def oracle_validate(gc, fil):
    """The per-level check that construction replaced: degree by degree,
    the levels are nested, F^lo is full, F^(hi+1) is zero, and
    d(F^p C^n) <= F^p C^(n+1) level by level, by subspace images."""
    fc = Unchecked(gc, fil)
    lo, hi = fc.p_range()
    for n in list(gc.spaces):
        dim_n = gc.dim(n)
        prev = None
        for p in range(lo, hi + 2):
            cur = fc.fil_at(n, p)
            if cur.ambient_dim != dim_n:
                raise FiltrationError(f"filtration ambient mismatch at degree {n}")
            if prev is not None and not prev.contains(cur):
                raise FiltrationError(f"filtration not decreasing at degree {n}")
            prev = cur
        if not fc.fil_at(n, lo).is_full():
            raise FiltrationError(f"filtration not exhaustive at degree {n}")
        if not fc.fil_at(n, hi + 1).is_zero():
            raise FiltrationError(f"filtration not bounded at degree {n}")
        d = gc.diff(n)
        for p in range(lo, hi + 1):
            img = image_of_subspace(d, fc.fil_at(n, p))
            if not fc.fil_at(n + 1, p).contains(img):
                raise FiltrationError(
                    f"differential does not respect filtration at degree {n}, level {p}")


def grow_one_level(rng, gc, fil):
    """F^p C^n plus a vector outside F^(p-1) C^n: only nestedness fails,
    since the larger F^p still holds d(F^p C^(n-1))."""
    fc = Unchecked(gc, fil)
    spots = [(n, p) for n in fil for p in fil[n] if not fc.fil_at(n, p - 1).is_full()]
    if not spots:
        return None
    n, p = rng.choice(spots)
    below = fc.fil_at(n, p - 1)
    v = next(e for e in Subspace.full(gc.dim(n)).basis_rows() if not below.contains_vector(e))
    return {**fil, n: {**fil[n], p: subspace_sum(fil[n][p], sub(gc.dim(n), [v]))}}


def shrink_bottom(rng, gc, fil):
    """F^lo C^n cut down to F^(lo+1) C^n + im d^(n-1), a proper subspace
    that d still maps into and out of: only exhaustiveness fails."""
    fc = Unchecked(gc, fil)
    lo, _ = fc.p_range()
    spots = [(n, s) for n in gc.degrees()
             if not (s := subspace_sum(fc.fil_at(n, lo + 1), image(gc.diff(n - 1)))).is_full()]
    if not spots:
        return None
    n, s = rng.choice(spots)
    return {**fil, n: {**fil[n], lo: s}}


def lift_top(rng, gc, fil):
    """Every level moved below 0 and one degree's levels dropped: that degree
    is then the full space at hi + 1 = 0, so only boundedness fails."""
    if len(fil) < 2:
        return None
    hi = max(p for levels in fil.values() for p in levels)
    dropped = rng.choice(sorted(fil))
    return {n: {p - hi - 1: s for p, s in levels.items()}
            for n, levels in fil.items() if n != dropped}


def _filtration_error(build):
    try:
        build()
    except FiltrationError as e:
        return str(e)
    return None


@pytest.mark.parametrize("fault,message", [
    (None, None), ("nested", "not decreasing"), ("exhaustive", "not exhaustive"),
    ("bounded", "not bounded"), ("leak", "does not respect")])
def test_construction_matches_per_level_oracle(fault, message):
    # one fault injected into seeded random complexes: construction raises
    # what the per-level check raises, degree and level included
    inject = {"nested": grow_one_level, "exhaustive": shrink_bottom, "bounded": lift_top}
    rng = random.Random(f"validate:{fault}")
    checked = 0
    for _ in range(30):
        gc, fil = random_filtered_complex(rng, leak=fault == "leak")
        if fault in inject:
            fil = inject[fault](rng, gc, fil)
            if fil is None:
                continue
        want = _filtration_error(lambda: oracle_validate(gc, fil))
        assert _filtration_error(lambda: FilteredComplex(gc, fil)) == want
        if message is None:
            assert want is None
            assert total_cohomology_dims(FilteredComplex(gc, fil)) == {
                n: gc.cohomology_dim(n) for n in gc.degrees() if gc.cohomology_dim(n)}
        else:
            assert message in want
        checked += 1
    assert checked >= 20
