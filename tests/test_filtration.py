import random
from fractions import Fraction

import pytest

from weightfil.errors import FiltrationError
from weightfil.exact_linalg import Subspace
from weightfil.filtration import DECREASING, INCREASING, IndexedFiltration

from conftest import filtration_json, normalized_steps, sub
from test_cli import TATE_CURVE


def test_decreasing_semantics():
    fl = IndexedFiltration.make(2, DECREASING, {
        0: Subspace.full(2), 1: sub(2, [[1, 0]])})
    assert fl.at(-5) == Subspace.full(2)
    assert fl.at(0) == Subspace.full(2)
    assert fl.at(1) == sub(2, [[1, 0]])
    assert fl.at(2) == Subspace.zero(2)
    assert fl.graded_dims() == {Fraction(0): 1, Fraction(1): 1}


def test_decreasing_prepends_full():
    fl = IndexedFiltration.make(2, DECREASING, {1: sub(2, [[1, 0]])})
    assert fl.at(0) == Subspace.full(2)
    assert fl.at(1).dim == 1


def test_increasing_semantics():
    fl = IndexedFiltration.make(2, INCREASING, {
        -1: sub(2, [[1, 0]]), 1: Subspace.full(2)})
    assert fl.at(-2) == Subspace.zero(2)
    assert fl.at(-1).dim == 1
    assert fl.at(0).dim == 1
    assert fl.at(1) == Subspace.full(2)
    assert fl.at(9) == Subspace.full(2)
    assert fl.graded_dims() == {Fraction(-1): 1, Fraction(1): 1}


def test_monotonicity_enforced():
    with pytest.raises(FiltrationError):
        IndexedFiltration.make(2, DECREASING, {
            0: sub(2, [[1, 0]]), 1: sub(2, [[0, 1]])})
    # a filtration built without `make` checks itself too
    with pytest.raises(FiltrationError, match="not monotone"):
        IndexedFiltration(2, INCREASING, ((0, Subspace.full(2)), (1, sub(2, [[1, 0]]))))
    with pytest.raises(FiltrationError, match="ambient"):
        IndexedFiltration(2, INCREASING, ((0, Subspace.full(3)),))


def test_semantic_equality_ignores_redundant_steps():
    a = IndexedFiltration.make(2, DECREASING, {
        0: Subspace.full(2), 1: sub(2, [[1, 0]])})
    b = IndexedFiltration.make(2, DECREASING, {
        -3: Subspace.full(2), 0: Subspace.full(2), 1: sub(2, [[1, 0]]),
        2: Subspace.zero(2)})
    assert a.same_filtration(b)
    assert normalized_steps(a) == normalized_steps(b)


def test_step_diff():
    a = IndexedFiltration.make(2, INCREASING, {0: Subspace.full(2)})
    b = IndexedFiltration.make(2, INCREASING, {
        -1: sub(2, [[1, 0]]), 1: Subspace.full(2)})
    diff = a.step_diff(b)
    assert (Fraction(-1), 0, 1) in diff
    assert not a.same_filtration(b)


def test_fractional_indices():
    fl = IndexedFiltration.make(2, INCREASING, {
        Fraction(1, 2): sub(2, [[1, 0]]), 1: Subspace.full(2)})
    assert fl.at(Fraction(1, 2)).dim == 1
    assert fl.at(0).dim == 0
    assert fl.graded_dims() == {Fraction(1, 2): 1, Fraction(1): 1}


def test_json_roundtrip_shape():
    fl = IndexedFiltration.make(2, DECREASING, {
        0: Subspace.full(2), 1: sub(2, [[1, 0]])})
    js = filtration_json(fl)
    assert js == {"0": [["1", "0"], ["0", "1"]], "1": [["1", "0"]]}


def oracle_at(fl, i):
    """The value at index i by a scan of the steps (the documented semantics)."""
    if fl.orientation == DECREASING:
        return next((s for k, s in fl.steps if k >= i), Subspace.zero(fl.ambient_dim))
    below = [s for k, s in fl.steps if k <= i]
    return below[-1] if below else Subspace.zero(fl.ambient_dim)


def test_reads_match_scan_oracle():
    rng = random.Random(10)
    for orientation in (DECREASING, INCREASING) * 10:
        flags = [sub(3, [[1, 0, 0]]), sub(3, [[1, 0, 0], [0, 1, 1]]), Subspace.full(3)]
        keys = sorted(rng.sample([Fraction(k, 2) for k in range(-8, 8)], 3))
        if orientation == DECREASING:
            flags.reverse()
        a = IndexedFiltration.make(3, orientation, dict(zip(keys, flags)))
        b = IndexedFiltration.make(3, orientation, dict(zip(
            sorted(rng.sample(range(-4, 4), 3)), flags)))
        probes = [Fraction(k, 4) for k in range(-20, 20)]
        for fl in (a, b):
            assert [fl.at(i) for i in probes] == [oracle_at(fl, i) for i in probes]
        union = sorted(set(a.keys()) | set(b.keys()))
        want = [(k, oracle_at(a, k).dim, oracle_at(b, k).dim) for k in union
                if oracle_at(a, k) != oracle_at(b, k)]
        assert a.step_diff(b) == want
        assert a.same_filtration(b) == (not want)
        assert a.same_filtration(a)


def test_step_diff_is_linear_in_the_listed_levels(monkeypatch):
    # the d = 1000 Tate curve lists 2001 monodromy levels; a read per level
    # that scans the steps makes about 2.0 M Fraction comparisons
    from weightfil.phin import monodromy_filtration, weight_filtration
    from weightfil.serialize import load_phin
    D = load_phin(dict(TATE_CURVE, d=1000))
    mono, weight = monodromy_filtration(D), weight_filtration(D)
    count = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        orig = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda a, b, orig=orig: count.append(1) or orig(a, b))
    diff = mono.step_diff(weight)
    assert len(count) <= 100_000
    assert len(diff) == 1001
