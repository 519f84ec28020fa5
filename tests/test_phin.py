import dataclasses
import importlib.util
import pathlib
import random
from fractions import Fraction

import pytest

from weightfil import phin
from weightfil.errors import (InconclusiveError, ModuleInvariantError,
                              NilpotencyBoundError, SlopeDecompositionError)
from weightfil.exact_linalg import (QMatrix, QuotientMap, Subspace, char_poly,
                                    image, kernel, newton_polygon,
                                    subspace_intersect, subspace_sum)
from weightfil.filtration import DECREASING, IndexedFiltration
from weightfil.phin import (PhiNModule, _closure, _meet_dim, _n_chain, _sampled_candidates,
                            _stable_lattice, _t_numbers_of_subspace, cbar_quotient,
                            check_opposite, convolution_step, gamma_filtration, hodge_numbers,
                            image_filtration, is_ordinary, is_weakly_admissible,
                            kernel_filtration, kernel_image_collapse,
                            monodromy_filtration, monodromy_weight_check,
                            newton_numbers,
                            reduced_module_check, slope_filtration, t_numbers,
                            weight_filtration)
from weightfil.serialize import load_phin

from conftest import (conjugate, counting_rref, jordan_nilpotent, mk_module,
                      monodromy_weight_diff, qm, random_invertible, random_nilpotent, sub,
                      tate_curve_module, tate_module)


# --- invariants, checked when a module is built ----------------------------

def test_validate_dim1():
    assert tate_module(p=2, i=1).dim == 1


def test_validate_commutation_holds():
    assert tate_curve_module().dim == 2


def test_validate_commutation_fails():
    with pytest.raises(ModuleInvariantError) as ei:
        mk_module(2, 1, 1, [[1, 0], [0, 1]], [[0, 1], [0, 0]], {0: "full", 1: [[1, 0]]})
    assert ei.value.invariant == "commutation"


def test_validate_non_invertible():
    with pytest.raises(ModuleInvariantError) as ei:
        mk_module(2, 1, 0, [[0]], [[0]], {0: "full"})
    assert ei.value.invariant == "phi_invertible"


def test_validate_non_nilpotent():
    with pytest.raises(ModuleInvariantError) as ei:
        mk_module(2, 1, 1, [[1, 0], [0, 2]], [[1, 0], [0, 0]], {0: "full"})
    assert ei.value.invariant == "n_nilpotent"


# --- kernel / image filtrations --------------------------------------------

def _nilpotent_module(block_sizes, d=None, p=2):
    n = sum(block_sizes)
    if d is None:
        d = max(block_sizes) - 1
    # phi with decreasing q-powers along each Jordan chain keeps N phi = q phi N
    q = p
    diag = []
    for b in block_sizes:
        diag.extend(q ** (b - 1 - i) for i in range(b))
    phi = qm([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return PhiNModule(p, 1, d, phi, jordan_nilpotent(block_sizes),
                      IndexedFiltration.make(n, DECREASING, {0: Subspace.full(n)}))


def test_kernel_image_zero_n():
    D = mk_module(2, 1, 1, [[1, 0], [0, 2]], [[0, 0], [0, 0]],
                  {0: "full"})
    kf = kernel_filtration(D)
    jf = image_filtration(D)
    assert kf.at(0) == Subspace.full(2)
    assert jf.at(1) == Subspace.zero(2)


def test_kernel_image_single_block3():
    D = _nilpotent_module([3])
    kf = kernel_filtration(D)
    assert [kf.at(i).dim for i in (0, 1, 2)] == [1, 2, 3]
    jf = image_filtration(D)
    assert [jf.at(j).dim for j in (0, 1, 2)] == [3, 2, 1]


def test_kernel_image_blocks_2_1():
    D = _nilpotent_module([2, 1])
    kf = kernel_filtration(D)
    assert [kf.at(i).dim for i in (0, 1)] == [2, 3]
    jf = image_filtration(D)
    assert [jf.at(j).dim for j in (0, 1, 2)] == [3, 1, 0]


# --- monodromy filtration ---------------------------------------------------

def test_monodromy_zero_n():
    D = mk_module(2, 1, 2, [[1, 0], [0, 1]], [[0, 0], [0, 0]], {0: "full"})
    m = monodromy_filtration(D)
    assert m.at(-1) == Subspace.zero(2)
    assert m.at(0) == Subspace.full(2)


def test_monodromy_single_block_graded():
    for d in range(0, 5):
        D = _nilpotent_module([d + 1])
        m = monodromy_filtration(D)
        assert m.graded_dims() == {Fraction(r): 1 for r in range(-d, d + 1, 2)}


def test_monodromy_blocks_2_1():
    D = _nilpotent_module([2, 1], d=1)
    g = monodromy_filtration(D).graded_dims()
    assert g == {Fraction(-1): 1, Fraction(0): 1, Fraction(1): 1}


def test_monodromy_requires_nilpotency_bound():
    D = _nilpotent_module([3], d=1)
    with pytest.raises(NilpotencyBoundError):
        monodromy_filtration(D)


def test_monodromy_step_and_symmetry_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        N = random_nilpotent(rng, n)
        d = n  # safe bound
        steps = {r: convolution_step(N, r) for r in range(-d, d + 1)}
        for r in range(-d + 2, d + 1):
            img = Subspace.from_vectors(n, [N.apply(v) for v in steps[r].basis_rows()])
            assert steps[r - 2].contains(img)  # N(M_r) <= M_{r-2}
        for r in range(0, d + 1):
            gr_r = steps[r].dim - steps[r - 1].dim if r > -d else steps[r].dim
            gm = steps[-r].dim - (steps[-r - 1].dim if -r - 1 >= -d else 0)
            assert gr_r == gm  # dim gr_r = dim gr_{-r}


def test_monodromy_conjugation_invariance():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(2, 4)
        N = random_nilpotent(rng, n)
        g = random_invertible(rng, n)
        Ng = conjugate(g, N)
        for r in range(-n, n + 1):
            lhs = convolution_step(Ng, r)
            rhs_vecs = [g.apply(v) for v in convolution_step(N, r).basis_rows()]
            assert lhs == Subspace.from_vectors(n, rhs_vecs)


# --- numbers ---------------------------------------------------------------

def test_hodge_numbers_examples():
    assert hodge_numbers(tate_module(i=1)) == {1: 1}
    D = mk_module(2, 1, 1, [[1, 0], [0, 2]], [[0, 0], [0, 0]],
                  {0: "full", 1: [[0, 1]]})
    assert hodge_numbers(D) == {0: 1, 1: 1}
    D2 = mk_module(2, 1, 2, [[1, 0], [0, 1]], [[0, 0], [0, 0]], {2: "full"})
    assert hodge_numbers(D2) == {2: 2}


def test_newton_numbers_examples():
    q = 2
    D = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 0], [0, 0]], {0: "full"})
    assert newton_numbers(D) == {Fraction(0): 1, Fraction(1): 1}
    Dn = mk_module(2, 1, 1, [[q, 0, 0], [0, q, 0], [0, 0, q]],
                   [[0] * 3] * 3, {0: "full"})
    assert newton_numbers(Dn) == {Fraction(1): 3}
    # companion of x^2 - (q + q^2) x + q^3
    comp = mk_module(2, 1, 1, [[0, -q ** 3], [1, q + q * q]],
                     [[0, 0], [0, 0]], {0: "full"})
    assert newton_numbers(comp) == {Fraction(1): 1, Fraction(2): 1}


def test_newton_numbers_conjugation_invariant():
    rng = random.Random(13)
    q = 3
    base = qm([[1, 0, 0], [0, q, 0], [0, 0, q * q]])
    for _ in range(8):
        g = random_invertible(rng, 3)
        D = PhiNModule(3, 1, 1, conjugate(g, base), QMatrix.zero(3, 3),
                       IndexedFiltration.make(3, DECREASING, {0: Subspace.full(3)}))
        assert newton_numbers(D) == {Fraction(0): 1, Fraction(1): 1, Fraction(2): 1}


def test_t_numbers_examples():
    assert t_numbers(tate_module(i=1)) == (1, 1)
    D = mk_module(2, 1, 1, [[1, 0], [0, 2]], [[0, 0], [0, 0]],
                  {0: "full", 1: [[0, 1]]})
    assert t_numbers(D) == (1, 1)
    D0 = mk_module(2, 1, 0, [[1]], [[0]], {0: "full"})
    assert t_numbers(D0) == (0, 0)


# --- weight / slope filtrations ---------------------------------------------

def test_weight_filtration_three_slopes():
    q = 2
    D = mk_module(2, 1, 2, [[1, 0, 0], [0, q, 0], [0, 0, q * q]],
                  [[0] * 3] * 3, {0: "full"})
    w = weight_filtration(D)
    assert w.graded_dims() == {Fraction(-2): 1, Fraction(0): 1, Fraction(2): 1}


def test_weight_filtration_pure():
    q = 2
    D = mk_module(2, 1, 2, [[q, 0], [0, q]], [[0, 0], [0, 0]], {0: "full"})
    assert weight_filtration(D).graded_dims() == {Fraction(0): 2}


def test_weight_filtration_d1():
    q = 2
    D = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 0], [0, 0]], {0: "full"})
    assert weight_filtration(D).graded_dims() == {Fraction(-1): 1, Fraction(1): 1}


def test_slope_filtration_examples():
    q = 2
    D = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 0], [0, 0]], {0: "full"})
    s = slope_filtration(D)
    assert s.at(0) == sub(2, [[1, 0]])
    assert s.at(1) == Subspace.full(2)
    Dk = mk_module(2, 1, 1, [[4, 0], [0, 4]], [[0, 0], [0, 0]], {0: "full"})
    assert slope_filtration(Dk).graded_dims() == {Fraction(2): 2}
    # unipotent: all eigenvalues 1
    Du = mk_module(2, 1, 1, [[1, 1], [0, 1]], [[0, 0], [0, 0]], {0: "full"})
    assert slope_filtration(Du).graded_dims() == {Fraction(0): 2}


def test_slope_graded_equals_newton():
    rng = random.Random(14)
    q = 2
    for _ in range(10):
        diag = [q ** rng.randint(0, 2) for _ in range(rng.randint(1, 4))]
        n = len(diag)
        g = random_invertible(rng, n)
        phi = conjugate(g, qm([[diag[i] if i == j else 0 for j in range(n)]
                               for i in range(n)]))
        D = PhiNModule(2, 1, 1, phi, QMatrix.zero(n, n),
                       IndexedFiltration.make(n, DECREASING, {0: Subspace.full(n)}))
        assert slope_filtration(D).graded_dims() == newton_numbers(D)


# --- admissibility -----------------------------------------------------------

def test_admissible_dim1():
    rep = is_weakly_admissible(tate_module(i=1))
    assert rep.verdict == "admissible" and rep.certified


def test_not_admissible_with_witness():
    q = 2
    D = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 1], [0, 0]],
                  {0: "full", 1: [[1, 0]]})
    rep = is_weakly_admissible(D)
    assert rep.verdict == "not_admissible" and rep.certified
    assert rep.witness == sub(2, [[1, 0]])


def test_admissible_generic_line():
    q = 2
    D = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 1], [0, 0]],
                  {0: "full", 1: [[0, 1]]})
    rep = is_weakly_admissible(D)
    assert rep.verdict == "admissible" and rep.certified


def test_witness_independently_violates():
    # every certified not_admissible witness must violate t_N >= t_H directly
    from weightfil.phin import _t_numbers_of_subspace
    q = 2
    D = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 1], [0, 0]],
                  {0: "full", 1: [[1, 0]]})
    rep = is_weakly_admissible(D)
    tn, th = _t_numbers_of_subspace(D, rep.witness)
    assert th > tn


def test_sampled_fallback_path():
    # scalar phi on dim 2 with nonzero ... derogatory phi and zero N: both
    # certified routes fail, fallback must answer without crashing
    q = 2
    D = mk_module(2, 1, 2, [[q, 0], [0, q]], [[0, 0], [0, 0]],
                  {1: "full", 2: "zero"})
    rep = is_weakly_admissible(D, seed=5, budget=16)
    assert rep.verdict in ("sampled_inconclusive", "not_admissible")
    assert not rep.certified or rep.verdict == "not_admissible"


def budget_spans(monkeypatch, budget):
    """Raise once more than `budget` subspaces are built (Subspace.from_vectors,
    one elimination each: every kernel, sum and span) outside
    phin._t_numbers_of_subspace, whose sums are one per Hodge level of each
    checked subspace.  Returns the count so far."""
    state = {"built": 0, "paused": False}
    build, t_numbers_of = Subspace.from_vectors, phin._t_numbers_of_subspace

    def counted(*args):
        if not state["paused"]:
            state["built"] += 1
            if state["built"] > budget:
                raise AssertionError(f"more than {budget} subspaces built")
        return build(*args)

    def uncounted(D, W):
        state["paused"] = True
        try:
            return t_numbers_of(D, W)
        finally:
            state["paused"] = False

    monkeypatch.setattr(Subspace, "from_vectors", staticmethod(counted))
    monkeypatch.setattr(phin, "_t_numbers_of_subspace", uncounted)
    return state


def _single_block_full_flag(n, p=2):
    """phi = diag(1, q, ..., q^(n-1)), N e_k = e_(k-1), Fil^i = span(e_i, ...),
    so t_N = t_H on every ker N^k and the module is admissible."""
    phi = qm([[p ** i if i == j else 0 for j in range(n)] for i in range(n)])
    N = qm([[int(j == i + 1) for j in range(n)] for i in range(n)])
    fil = IndexedFiltration.make(n, DECREASING,
                                 {i: Subspace.coordinates(n, range(i, n)) for i in range(n)})
    return PhiNModule(p, 1, n - 1, phi, N, fil)


@pytest.mark.parametrize("n", [16, 17])
def test_single_block_certifies_cyclic_phi(monkeypatch, n):
    # a few spans per factor (its kernel chain and the image of it under N)
    # and one per stable subspace, not one per phi-invariant sum (2^n)
    D = _single_block_full_flag(n)
    built = budget_spans(monkeypatch, 8 * n)
    rep = is_weakly_admissible(D)
    assert (rep.verdict, rep.certified, rep.method, rep.checked) == \
        ("admissible", True, "cyclic-phi", n - 1)
    assert built["built"] <= 8 * n


def test_n_zero_past_the_guard_samples_without_listing(monkeypatch):
    # 17 distinct eigenvalues and N = 0: all 2^17 phi-invariant subspaces
    # are stable, more than INVARIANT_SUBSPACE_GUARD
    n = 17
    phi = qm([[2 * i + 1 if i == j else 0 for j in range(n)] for i in range(n)])
    D = PhiNModule(2, 1, 0, phi, QMatrix.zero(n, n),
                   IndexedFiltration.make(n, DECREASING, {0: Subspace.full(n)}))
    # at most n + 1 spans per sampled closure (64 of them) and a few per factor
    budget_spans(monkeypatch, (64 + 2 * n) * (n + 1))
    rep = is_weakly_admissible(D, budget=64)
    assert (rep.verdict, rep.certified, rep.method) == ("sampled_inconclusive", False, "sampled")
    assert _stable_lattice(D) is None


def test_ordinary_examples():
    assert is_ordinary(tate_module(i=1)) is True
    q = 2
    D = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 0], [0, 0]],
                  {0: "full", 1: [[1, 1]]})
    assert is_ordinary(D) is True
    # companion of x^2 - q: slope 1/2
    Dh = mk_module(2, 1, 1, [[0, q], [1, 0]], [[0, 0], [0, 0]],
                  {0: "full", 1: [[0, 1]]})
    assert is_ordinary(Dh) is False


def test_ordinary_single_slope_concentrated_filtration():
    # N = 0, single slope s, filtration concentrated at s => ordinary
    for s in (0, 1, 2):
        D = tate_module(p=3, i=s) if s else mk_module(3, 1, 0, [[1]], [[0]], {0: "full"})
        assert is_ordinary(D) is True


def test_ordinary_inconclusive_propagates():
    q = 2
    # derogatory phi, slopes integral and matching Hodge numbers
    D = mk_module(2, 1, 2, [[q, 0], [0, q]], [[0, 0], [0, 0]],
                  {1: "full", 2: "zero"})
    with pytest.raises(InconclusiveError):
        is_ordinary(D)


# --- opposedness -------------------------------------------------------------

def test_check_opposite_true():
    fa = IndexedFiltration.make(2, DECREASING, {0: Subspace.full(2), 1: sub(2, [[1, 1]])})
    fb = IndexedFiltration.make(2, DECREASING, {0: Subspace.full(2), 1: sub(2, [[1, 0]])})
    assert check_opposite(fa, fb, 1) is True


def test_check_opposite_false():
    same = IndexedFiltration.make(2, DECREASING, {0: Subspace.full(2), 1: sub(2, [[1, 0]])})
    assert check_opposite(same, same, 1) is False


def test_check_opposite_trivial():
    fa = IndexedFiltration.make(1, DECREASING, {0: Subspace.full(1)})
    fb = IndexedFiltration.make(1, DECREASING, {0: Subspace.full(1)})
    assert check_opposite(fa, fb, 0) is True


# --- collapse lemma ----------------------------------------------------------

def test_collapse_single_block():
    for d in range(0, 4):
        rep = kernel_image_collapse(jordan_nilpotent([d + 1]), d)
        assert rep.h1 and rep.h2 and rep.conclusion is True


def test_collapse_zero_d0():
    rep = kernel_image_collapse(QMatrix.zero(2, 2), 0)
    assert rep.h1 and rep.h2 and rep.conclusion is True


def test_collapse_blocks_2_1_fails_h2():
    rep = kernel_image_collapse(jordan_nilpotent([2, 1]), 1)
    assert not rep.h2
    assert rep.conclusion is None


def test_collapse_property_suite():
    # hypotheses imply conclusion on >= 200 random nilpotents of dim <= 6
    rng = random.Random(99)
    checked = 0
    holds = 0
    while checked < 200:
        if rng.random() < 0.7:
            # homogeneous Jordan type: m blocks of size d+1, conjugated
            d = rng.randint(0, 2)
            m = rng.randint(1, 6 // (d + 1))
            n = m * (d + 1)
            N = conjugate(random_invertible(rng, n), jordan_nilpotent([d + 1] * m))
        else:
            n = rng.randint(1, 6)
            N = random_nilpotent(rng, n)
            d = n - 1 if n > 1 else 0
        rep = kernel_image_collapse(N, d)
        checked += 1
        if rep.h1 and rep.h2:
            holds += 1
            assert rep.conclusion is True
    assert holds >= 100  # the generator really exercises the hypothesis path


# --- quotient by C -----------------------------------------------------------

def test_cbar_odd_d():
    D = tate_curve_module()
    c, dbar = cbar_quotient(D)
    assert c.dim == 0 and dbar.dim == 2


def test_cbar_even_d_example():
    q = 2
    D = mk_module(2, 1, 2, [[1, 0, 0], [0, q, 0], [0, 0, q * q]],
                  [[0, 0, 0], [0, 0, 1], [0, 0, 0]], {0: "full"})
    c, dbar = cbar_quotient(D)
    assert c == sub(3, [[0, 1, 0]])
    assert dbar.dim == 2


def test_cbar_pure_slope_zero():
    D = mk_module(2, 1, 2, [[1, 0], [0, 1]], [[0, 0], [0, 0]], {0: "full"})
    c, dbar = cbar_quotient(D)
    assert c.dim == 0


def test_cbar_kernel_image_property():
    # when gamma^d = ker N /\ im N, the quotient map sends ker N onto ker Nbar
    q = 2
    phi = qm([[q * q, 0, 0, 0], [0, q, 0, 0], [0, 0, q, 0], [0, 0, 0, 1]])
    N = qm([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]])
    D = PhiNModule(2, 1, 2, phi, N,
                   IndexedFiltration.make(4, DECREASING, {0: Subspace.full(4)}))
    gam_d = gamma_filtration(D).at(D.d)
    ker_im = subspace_intersect(kernel(N), image(N))
    assert gam_d == ker_im
    c, dbar = cbar_quotient(D)
    from weightfil.exact_linalg import QuotientMap
    qmap = QuotientMap(c, Subspace.full(4))
    assert qmap.subspace_image(kernel(N)) == kernel(dbar.N)


# --- monodromy-weight --------------------------------------------------------

def test_mw_tate_curve():
    assert monodromy_weight_check(tate_curve_module()) is True


def test_mw_mixed_weights_n_zero():
    q = 2
    D = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 0], [0, 0]],
                  {0: "full", 1: [[0, 1]]})
    assert monodromy_weight_check(D) is False
    diff = monodromy_weight_diff(D)
    assert diff  # a step-level diff is reported
    assert any(r == -1 for r, _, _ in diff)


def test_mw_trivial():
    D = mk_module(2, 1, 0, [[1]], [[0]], {0: "full"})
    assert monodromy_weight_check(D) is True


# --- reduced module ----------------------------------------------------------

def _netcoh_synthetic(q=2):
    phi = qm([[q * q, 0, 0, 0], [0, q, 0, 0], [0, 0, q, 0], [0, 0, 0, 1]])
    N = qm([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]])
    fil = IndexedFiltration.make(4, DECREASING, {
        0: Subspace.full(4),
        1: sub(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        2: sub(4, [[1, 0, 0, 0]])})
    return PhiNModule(2, 1, 2, phi, N, fil)


def test_reduced_module_synthetic_d2():
    rep = reduced_module_check(_netcoh_synthetic())
    assert rep.a and rep.b and rep.c
    assert rep.dim_c == 1
    assert rep.c_meets_middle is False
    assert rep.mw_holds


def test_reduced_module_tate_curve():
    rep = reduced_module_check(tate_curve_module())
    assert rep.a and rep.b and rep.c
    assert rep.dim_c == 0
    assert rep.mw_holds


def test_reduced_module_mw_failure_reported():
    q = 2
    D = mk_module(2, 1, 1, [[1, 0], [0, q]], [[0, 0], [0, 0]],
                  {0: "full", 1: [[0, 1]]})
    rep = reduced_module_check(D)
    assert rep.c is False
    assert rep.mw_holds is False


def test_ordinary_implies_opposite_filtrations():
    # at statement level: an ordinary module has its slope-index filtration
    # opposite to the Hodge filtration
    D = tate_curve_module()
    assert is_ordinary(D) is True
    assert check_opposite(D.fil, gamma_filtration(D), D.d) is True
    bad = mk_module(2, 1, 1, [[1, 0], [0, 2]], [[0, 1], [0, 0]],
                    {0: "full", 1: [[1, 0]]})
    assert is_weakly_admissible(bad).verdict == "not_admissible"
    assert check_opposite(bad.fil, gamma_filtration(bad), bad.d) is False


# --- oracles: the routes the rank-only t-numbers and the N chain replaced ---

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def benchmark_modules(seeds):
    """The benchmark's (phi,N)-modules (dims 2-6, p in {2, 3}), each behind
    one seeded change of basis per seed, as the CLI loads them."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    for seed in seeds:
        rng = random.Random(seed)
        for skel in wl.PHIN_SKELETONS:
            yield load_phin(wl.phin_payload(skel, wl.change_of_basis(rng, len(skel[3]))))


def oracle_t_numbers_of_subspace(D, W):
    """t_N(W) from the Newton polygon of the char poly of phi|W, and t_H(W)
    from two intersections per Hodge level."""
    phi_w = QuotientMap(Subspace.zero(D.dim), W).induced_matrix(D.phi)
    tn = Fraction(0)
    if W.dim:
        np_ = newton_polygon(char_poly(phi_w), D.p, D.a)
        tn = sum((s * l for s, l in np_.segments), Fraction(0))
    th = Fraction(0)
    keys = D.fil.keys()
    for i in range(int(min(keys)) - 1, int(max(keys)) + 2):
        g = subspace_intersect(D.fil.at(i), W).dim - subspace_intersect(D.fil.at(i + 1), W).dim
        th += Fraction(i) * g
    return tn, th


def oracle_convolution_step(N, r):
    """M_r with every power of N formed on its own."""
    n = N.rows
    out = Subspace.zero(n)
    for i in range(n + 1):
        ker = kernel(N.power(i + 1))
        im = image(N.power(i - r)) if i - r > 0 else Subspace.full(n)
        out = subspace_sum(out, subspace_intersect(ker, im))
    return out


def oracle_stable_lattice(D):
    """Every phi-invariant subspace of a cyclic phi, listed as the product
    over D.factors of the chains ker f(phi)^k (first factor outermost, k
    increasing), then filtered by N-stability; None when phi is not cyclic."""
    chains = []
    for f, mult in D.factors:
        fm = f.of_matrix(D.phi)
        chain = [kernel(fm.power(k)) for k in range(mult + 1)]
        if chain[1].dim != f.degree:
            return None
        chains.append(chain)
    subspaces = [Subspace.zero(D.dim)]
    for chain in chains:
        subspaces = [subspace_sum(s, c) for s in subspaces for c in chain]
    return [W for W in subspaces if all(W.contains_vector(D.N.apply(r)) for r in W.basis_rows())]


def oracle_closure(D, vectors):
    """The fixpoint that the worklist closure replaced: add phi and N of the
    whole basis and re-eliminate until the dimension stops growing."""
    span = Subspace.from_vectors(D.dim, vectors)
    while True:
        rows = span.basis_rows()
        nxt = Subspace.from_vectors(D.dim, rows + [D.phi.apply(r) for r in rows]
                                    + [D.N.apply(r) for r in rows])
        if nxt.dim == span.dim:
            return span
        span = nxt


def oracle_meet_dim(F, W):
    """dim(F /\\ W) through the RREF of F + W."""
    return F.dim + W.dim - subspace_sum(F, W).dim


def companion(f):
    """Companion matrix of the monic polynomial with coefficients f, lowest
    degree first."""
    n = len(f) - 1
    return [[int(i == j + 1) for j in range(n - 1)] + [-f[i]] for i in range(n)]


def tower_module(rng, towers, p=2):
    """For each (f, length): phi = diag(C, C/q, ..., C/q^(length-1)) with C the
    companion matrix of f, and N the identity from each block to the next,
    so that N phi = q phi N.  All towers sit behind one seeded change of
    basis; Fil is trivial."""
    blocks, links = [], []
    for f, length in towers:
        for k in range(length):
            if k:
                links.append((len(blocks) - 1, len(blocks)))
            blocks.append([[Fraction(x, p ** k) for x in row] for row in companion(f)])
    offsets = [0]
    for b in blocks:
        offsets.append(offsets[-1] + len(b))
    n = offsets[-1]
    phi = [[Fraction(0)] * n for _ in range(n)]
    nil = [[Fraction(0)] * n for _ in range(n)]
    for o, b in zip(offsets, blocks):
        for i, row in enumerate(b):
            phi[o + i][o:o + len(row)] = row
    for s, t in links:
        for i in range(len(blocks[s])):
            nil[offsets[t] + i][offsets[s] + i] = Fraction(1)
    g = random_invertible(rng, n)
    return PhiNModule(p, 1, n, conjugate(g, qm(phi)), conjugate(g, qm(nil)),
                      IndexedFiltration.make(n, DECREASING, {0: Subspace.full(n)}))


QUADRATIC = (2, 1, 1)           # x^2 + x + 2, irreducible over Q
SQUARE = (9, -6, 1)             # (x - 3)^2
QUARTIC = (1, 0, 2, 0, 1)       # (x^2 + 1)^2


def test_stable_lattice_matches_oracle():
    for D in benchmark_modules(seeds=(1, 2, 3)):
        assert _stable_lattice(D) == oracle_stable_lattice(D)
    rng = random.Random(46)
    sizes = []
    for towers in ([(QUADRATIC, 2)], [(QUADRATIC, 3), ((-5, 1), 2)],
                   [(SQUARE, 1)], [(SQUARE, 2)], [(QUARTIC, 1)], [(QUARTIC, 2), ((-1, 1), 3)],
                   [((-1, 1), 1), ((-2, 1), 1), ((-3, 1), 1), ((-6, 1), 1)],
                   [((-1, 1), 2), ((-1, 1), 1)]):
        for _ in range(2):
            D = tower_module(rng, towers)
            lattice = _stable_lattice(D)
            assert lattice == oracle_stable_lattice(D)
            sizes.append(None if lattice is None else len(lattice))
    # a tower of length L over f^m has C(L + m, m) stable sums (levels
    # non-decreasing along it, N an isomorphism between its blocks); N = 0
    # leaves all 2^4 sums of the last but one case stable, and the last has
    # two blocks for x - 1
    assert sizes == [3, 3, 12, 12, 3, 3, 6, 6, 3, 3, 24, 24, 16, 16, None, None]


def test_t_numbers_of_subspace_match_oracle():
    checked = set()
    for D in benchmark_modules(seeds=(41, 42)):
        lattice = _stable_lattice(D) or []
        # q = p^2 reads the same phi in other units; both routes divide by a.
        # N phi = q phi N then needs N = 0, and neither route reads N
        D2 = dataclasses.replace(D, a=2, N=QMatrix.zero(D.dim, D.dim))
        for W in lattice + _sampled_candidates(D, seed=7, budget=16):
            assert _t_numbers_of_subspace(D, W) == oracle_t_numbers_of_subspace(D, W)
            assert _t_numbers_of_subspace(D2, W) == oracle_t_numbers_of_subspace(D2, W)
        checked.add((D.dim, D.p, bool(lattice)))
    assert {d for d, _, _ in checked} == {2, 3, 4, 5, 6}
    assert {p for _, p, _ in checked} == {2, 3}
    assert {cyc for _, _, cyc in checked} == {True, False}


def non_cyclic_modules(rng):
    """The benchmark's modules and tower modules, cyclic or not, among them
    N = 0 on a repeated eigenvalue and a tower over a non-cyclic block."""
    yield from benchmark_modules(seeds=(47,))
    for towers in ([(QUADRATIC, 2), (QUADRATIC, 1)], [((-1, 1), 2), ((-1, 1), 1)],
                   [((-3, 1), 1), ((-3, 1), 1), ((-1, 1), 2)], [(SQUARE, 2)]):
        yield tower_module(rng, towers)
    u, v = 2 ** 61 - 1, Fraction(3, 2 ** 40)
    yield mk_module(2, 1, 0, [[u, 0, 0], [0, u, 0], [0, 0, v]], [[0] * 3] * 3, {0: "full"})


def test_closure_matches_fixpoint_oracle():
    rng = random.Random(48)
    seen_non_cyclic = 0
    for D in non_cyclic_modules(rng):
        seen_non_cyclic += _stable_lattice(D) is None
        n = D.dim
        vector_sets = [[], [[0] * n], [[1] + [0] * (n - 1)]]
        for _ in range(12):
            k = rng.randint(1, 3)
            vector_sets.append([[Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 9))
                                 if rng.random() < 0.5 else 0 for _ in range(n)]
                                for _ in range(k)])
        for vectors in vector_sets:
            got = _closure(D, vectors)
            assert got == oracle_closure(D, vectors)
            assert all(got.contains_vector(M.apply(r)) for M in (D.phi, D.N)
                       for r in got.basis_rows())
    assert seen_non_cyclic >= 4


def test_meet_dim_matches_oracle():
    rng = random.Random(49)
    for D in benchmark_modules(seeds=(50,)):
        subspaces = [F for _, F in D.fil.steps] + _sampled_candidates(D, seed=3, budget=8)
        subspaces += [Subspace.zero(D.dim), Subspace.full(D.dim)]
        for F in subspaces:
            for W in rng.sample(subspaces, min(len(subspaces), 6)):
                assert _meet_dim(F, W) == oracle_meet_dim(F, W)


def test_closure_and_meet_dim_elimination_counts(monkeypatch):
    # the closure eliminates once, for its canonical basis; the Hodge meets
    # read ranks and eliminate never
    modules = list(benchmark_modules(seeds=(51,)))
    calls = counting_rref(monkeypatch)
    rng = random.Random(52)
    for D in modules:
        for _ in range(4):
            calls.clear()
            _closure(D, [[rng.randint(-3, 3) for _ in range(D.dim)]])
            assert len(calls) == 1
        for F in [F for _, F in D.fil.steps]:
            calls.clear()
            _meet_dim(F, D.n_chain.ker(1))
            _meet_dim(F, D.n_chain.im(1))
            assert calls == []


def test_n_chain_convolution_matches_oracle():
    rng = random.Random(43)
    ops = [D.N for D in benchmark_modules(seeds=(44,))]
    ops += [random_nilpotent(rng, rng.randint(1, 6)) for _ in range(20)]
    ops += [random_invertible(rng, 3), qm([[0, 1, 0], [0, 0, 0], [0, 0, 2]])]
    for N in ops:
        n = N.rows
        chain = _n_chain(N)
        for k in range(0, 2 * n + 2):
            assert chain[0][min(k, len(chain[0]) - 1)] == kernel(N.power(k))
            assert chain[1][min(k, len(chain[1]) - 1)] == image(N.power(k))
        for r in range(-n - 1, n + 2):
            expected = oracle_convolution_step(N, r)
            assert convolution_step(N, r, chain=chain) == expected
            assert convolution_step(N, r) == expected


# --- cached properties ------------------------------------------------------

def counting(monkeypatch, name):
    """Replace weightfil.phin.<name> by a wrapper that records its first
    argument on each call."""
    calls, fn = [], getattr(phin, name)
    monkeypatch.setattr(phin, name, lambda x, *a, **k: calls.append(x) or fn(x, *a, **k))
    return calls


def test_module_caches_chain_factors_and_slopes_once(monkeypatch):
    chains = counting(monkeypatch, "_n_chain")
    factorings = counting(monkeypatch, "factor_rational_poly")
    slopes = counting(monkeypatch, "slope_decomposition")
    for D in benchmark_modules(seeds=(45,)):
        for _ in range(2):
            rep = is_weakly_admissible(D, seed=1, budget=8)
            try:
                is_ordinary(D, rep=rep)
            except InconclusiveError:
                pass
            for check in (monodromy_weight_check, kernel_filtration, image_filtration,
                          gamma_filtration, reduced_module_check):
                check(D)
            _sampled_candidates(D, seed=2, budget=4)
        # the quotient D/C has its own module, so count D's operators only
        assert sum(N is D.N for N in chains) == 1
        assert sum(f is D.char_poly for f in factorings) == 1
        assert sum(phi is D.phi for phi in slopes) == 1
        for calls in (chains, factorings, slopes):
            calls.clear()


def test_admissibility_and_slopes_eliminate_each_matrix_once(monkeypatch):
    # the chains ker f(phi)^k are built once per factor, kernels only, and
    # read by both the certified route and the slope filtration
    eliminated = counting(monkeypatch, "kernel")
    routes = set()
    for D in benchmark_modules(seeds=(1, 45)):
        eliminated.clear()
        routes.add(is_weakly_admissible(D, seed=1, budget=8).method)
        try:
            D.slope_fil
        except SlopeDecompositionError:
            pass
        assert len(eliminated) == len(set(eliminated))
    assert routes == {"global", "cyclic-phi", "sampled"}


def test_failed_slope_decomposition_is_not_cached(monkeypatch):
    # x^2 + x + 2 is irreducible over Q with 2-adic root valuations 0 and 1
    D = mk_module(2, 1, 1, [[0, -2], [1, -1]], [[0, 0], [0, 0]], {0: "full"})
    slopes = counting(monkeypatch, "slope_decomposition")
    for _ in range(2):
        with pytest.raises(SlopeDecompositionError):
            D.slope_fil
    assert len(slopes) == 2 and "slope_fil" not in vars(D)


def test_replace_gives_fresh_cache():
    D = tate_curve_module()
    assert weight_filtration(D).graded_dims() == {Fraction(-1): 1, Fraction(1): 1}
    # the new module checks itself, which reads its own N chain only
    D2 = dataclasses.replace(D, a=2, N=qm([[0, 0], [0, 0]]))
    assert D2.n_chain is not D.n_chain
    assert not {"char_poly", "factors", "slope_fil"} & set(vars(D2))
    assert D2.q == 4 and D2.slope_fil.graded_dims() == {Fraction(0): 1, Fraction(1, 2): 1}
    with pytest.raises(ModuleInvariantError) as ei:
        dataclasses.replace(D, N=qm([[1, 0], [0, 0]]))
    assert ei.value.invariant == "n_nilpotent"
