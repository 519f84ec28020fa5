import pytest

from weightfil.errors import SchemaError
from weightfil.serialize import (load_filtered_complex, load_nerve, load_phin,
                                 load_steenbrink)

from conftest import filtration_json

PHIN = {
    "schema": 1, "p": 2, "a": 1, "d": 1,
    "phi": [["1", "0"], ["0", "2"]],
    "N": [["0", "1"], ["0", "0"]],
    "fil": {"0": [["1", "0"], ["0", "1"]], "1": [["1", "1"]]},
}


def test_load_phin_roundtrip():
    D = load_phin(PHIN)
    assert D.dim == 2 and D.q == 2
    assert D.fil.at(1).dim == 1
    assert filtration_json(D.fil) == {"0": [["1", "0"], ["0", "1"]], "1": [["1", "1"]]}


def test_unknown_keys_rejected():
    with pytest.raises(SchemaError):
        load_phin(dict(PHIN, junk=0))


def test_schema_version_required():
    with pytest.raises(SchemaError):
        load_phin({k: v for k, v in PHIN.items() if k != "schema"})
    with pytest.raises(SchemaError):
        load_phin(dict(PHIN, schema=2))


def test_bad_rational_rejected():
    bad = dict(PHIN, phi=[["1", "0"], ["0", "x"]])
    with pytest.raises(SchemaError):
        load_phin(bad)


def test_shape_mismatch_rejected():
    bad = dict(PHIN, N=[["0", "1"]])
    with pytest.raises(SchemaError):
        load_phin(bad)


def test_gamma_fil_optional():
    obj = dict(PHIN)
    obj["gamma_fil"] = {"0": [["1", "0"], ["0", "1"]], "1": [["1", "0"]], "2": []}
    D = load_phin(obj)
    assert D.gamma_fil is not None and D.gamma_fil.at(1).dim == 1


def test_load_nerve_validates_components():
    nerve = {
        "schema": 1,
        "components": ["a", "b"],
        "strata": {"a": {"0": 1}, "b": {"0": 1}, "a,b": {"0": 1}},
        "restrictions": {"a->a,b": {"0": [["1"]]}, "b->a,b": {"0": [["1"]]}},
    }
    nd = load_nerve(nerve)
    assert nd.stratum_dim(frozenset("ab"), 0) == 1
    with pytest.raises(SchemaError):
        load_nerve(dict(nerve, components=["a", "a"]))
    bad = dict(nerve)
    bad["strata"] = {"a": {"0": 1}, "z": {"0": 1}}
    with pytest.raises(SchemaError):
        load_nerve(bad)


def test_load_steenbrink_shapes():
    obj = {
        "schema": 1, "d": 1,
        "levels": {"1": ["a"], "2": []},
        "dims": {"a": {"0": 1, "2": 1}},
    }
    sd = load_steenbrink(obj)
    assert sd.stratum_dim("a", 2) == 1
    with pytest.raises(SchemaError):
        load_steenbrink(dict(obj, dims={"zz": {"0": 1}}))


def test_load_filtered_complex():
    obj = {
        "schema": 1,
        "spaces": {"0": 1, "1": 1},
        "differentials": {"0": [["1"]]},
        "filtration": {"0": {"0": [["1"]], "1": []},
                       "1": {"0": [["1"]], "1": []}},
    }
    fc = load_filtered_complex(obj)
    assert fc.complex.dim(0) == 1
    bad = dict(obj, differentials={"0": [["1", "0"]]})
    with pytest.raises(SchemaError):
        load_filtered_complex(bad)
