import pytest

from weightfil.errors import PreconditionError
from weightfil.exact_linalg import QMatrix
from weightfil.serialize import load_steenbrink
from weightfil.spectral import (degeneration_page, e_page,
                                equivariant_degeneration_check,
                                total_cohomology_dims)
from weightfil.steenbrink import (SteenbrinkDatum, analyze_steenbrink,
                                  cycle_datum, first_page_dims,
                                  steenbrink_double_complex)

from conftest import euler_characteristic, qm, rank
from test_cli import CYCLE3_STEENBRINK
from test_phin import oracle_convolution_step


def single_component():
    return SteenbrinkDatum(d=1, levels={1: ["c"]},
                           dims={"c": {0: 1, 2: 1}},
                           restrictions={}, gysins={})


def two_components_one_point():
    one = qm([[1]])
    return SteenbrinkDatum(
        d=1, levels={1: ["a", "b"], 2: ["p"]},
        dims={"a": {0: 1, 2: 1}, "b": {0: 1, 2: 1}, "p": {0: 1}},
        restrictions={("a", "p"): {0: one}, ("b", "p"): {0: one.scale(-1)}},
        gysins={("p", "a"): {0: one}, ("p", "b"): {0: one.scale(-1)}})


def test_single_component_concentrated():
    sd = single_component()
    fc = steenbrink_double_complex(sd)
    assert e_page(fc, 1).entries == {(0, 0): 1, (0, 2): 1}
    assert total_cohomology_dims(fc) == {0: 1, 2: 1}
    an = analyze_steenbrink(sd)
    assert all(r == 0 for r in an.monodromy_rank.values())


def test_two_components_one_point():
    # limit cohomology of a one-nodal degeneration: (1, 0, 1)
    sd = two_components_one_point()
    fc = steenbrink_double_complex(sd)
    assert total_cohomology_dims(fc) == {0: 1, 2: 1}
    chi0 = euler_characteristic(e_page(fc, 1))
    assert chi0 == euler_characteristic(e_page(fc, 3)) == 2


def test_disjoint_strata_no_monodromy():
    sd = SteenbrinkDatum(d=1, levels={1: ["a", "b"]},
                         dims={"a": {0: 1, 2: 1}, "b": {0: 1, 2: 1}},
                         restrictions={}, gysins={})
    an = analyze_steenbrink(sd)
    assert all(r == 0 for r in an.monodromy_rank.values())
    assert an.h_dims == {0: 2, 2: 2}


def test_first_page_matches_engine():
    for n in (2, 3, 4):
        sd = cycle_datum(n)
        fc = steenbrink_double_complex(sd)
        assert dict(e_page(fc, 1).entries) == first_page_dims(sd)


def test_cycle_family():
    for n in range(2, 7):
        sd = cycle_datum(n)
        an = analyze_steenbrink(sd)
        assert an.h_dims == {0: 1, 1: 2, 2: 1}
        assert an.weight_graded[1] == {0: 1, 2: 1}
        assert an.monodromy_rank[1] == 1
        assert an.monodromy[1].power(2).is_zero()
        assert an.monodromy_nilpotent_ok
        assert an.mw_equal[1] is True


def test_cycle_monodromy_lowers_weight_level():
    sd = cycle_datum(4)
    fc = steenbrink_double_complex(sd)
    an = analyze_steenbrink(sd)
    wf = an.weight_filtrations[1]
    nu = an.monodromy[1]
    for r, _ in wf.steps:
        img_vecs = [nu.apply(v) for v in wf.at(r).basis_rows()]
        from weightfil.exact_linalg import Subspace
        img = Subspace.from_vectors(wf.ambient_dim, img_vecs)
        assert wf.at(r - 2).contains(img)


def test_cycle_gr2_to_gr0_iso():
    # N: gr_2 -> gr_0 on H^1 is an isomorphism for the cycle family
    sd = cycle_datum(3)
    an = analyze_steenbrink(sd)
    wf = an.weight_filtrations[1]
    nu = an.monodromy[1]
    top = wf.at(1)     # all of H^1
    bottom = wf.at(-1)  # weight-0 part
    from weightfil.exact_linalg import Subspace
    img = Subspace.from_vectors(2, [nu.apply(v) for v in top.basis_rows()])
    assert img == bottom and bottom.dim == 1


def test_steenbrink_weight_labels_force_degeneration():
    sd = cycle_datum(3)
    fc = steenbrink_double_complex(sd)
    assert equivariant_degeneration_check(fc) is True
    assert degeneration_page(fc, 5) == 2


def test_inconsistent_maps_rejected():
    # a single chain of strata with nonvanishing restriction composite:
    # the restriction family does not square to zero, so the assembled
    # total differential fails d o d = 0
    one = qm([[1]])
    sd = SteenbrinkDatum(
        d=2, levels={1: ["a"], 2: ["c"], 3: ["p"]},
        dims={"a": {0: 1}, "c": {0: 1}, "p": {0: 1}},
        restrictions={("a", "c"): {0: one}, ("c", "p"): {0: one}},
        gysins={})
    with pytest.raises(PreconditionError):
        steenbrink_double_complex(sd)


def test_datum_checks_itself_at_construction():
    with pytest.raises(PreconditionError, match="levels are indexed from 1"):
        SteenbrinkDatum(d=1, levels={0: ["a"]}, dims={"a": {0: 1}},
                        restrictions={}, gysins={})
    with pytest.raises(PreconditionError, match="restriction 'a'->'p' wrong shape"):
        SteenbrinkDatum(d=1, levels={1: ["a"], 2: ["p"]},
                        dims={"a": {0: 1}, "p": {0: 1}},
                        restrictions={("a", "p"): {0: qm([[1, 1]])}}, gysins={})


def test_analyze_steenbrink_forms_no_matrix_power(monkeypatch):
    calls = []
    power = QMatrix.power
    monkeypatch.setattr(QMatrix, "power", lambda m, k: calls.append(k) or power(m, k))
    for sd in (cycle_datum(5), load_steenbrink(CYCLE3_STEENBRINK)):
        analyze_steenbrink(sd)
    assert calls == []


def test_monodromy_chain_matches_per_power_oracle():
    # the rank, nilpotency and M_r that analyze_steenbrink reads off one
    # chain per degree, against each power of the monodromy formed on its own
    for n in range(2, 7):
        sd = cycle_datum(n)
        an = analyze_steenbrink(sd)
        k = max(sd.max_level(), 1)
        assert an.monodromy_nilpotent_ok == all(
            nu.power(k).is_zero() for nu in an.monodromy.values())
        for deg, nu in an.monodromy.items():
            assert an.monodromy_rank[deg] == rank(nu)
            mfil = an.monodromy_filtrations[deg]
            for r in range(-deg - 1, deg + 2):
                assert mfil.at(r) == oracle_convolution_step(nu, r)
