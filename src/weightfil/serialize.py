"""Strict JSON schemas for the CLI inputs.

Every payload carries "schema": 1; unknown keys are rejected so that
golden-file reports stay stable.  Rationals travel as strings "num/den"
(or "num" when the denominator is 1).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .errors import EnumerationBudgetError, SchemaError
from .exact_linalg import QMatrix, Subspace, rat
from .filtration import DECREASING, IndexedFiltration
from .nerve import NerveDatum
from .phin import PhiNModule
from .spectral import FilteredComplex, GradedComplex
from .steenbrink import SteenbrinkDatum

SCHEMA_VERSION = 1
SUBSET_SEP = ","
# an optional sign, decimal digits and an optional /denominator
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
ARROW = "->"
# the most dimensions a filtered complex, or ss-cech's flag complex, may add
# up to: construction keeps a dense adapted basis of every degree, so memory
# and time grow with the square of a dimension that costs a few input bytes
MAX_COMPLEX_DIM = 256
# the same for an ss-steenbrink datum's total complex, whose monodromy and
# weight filtrations cost more: at 64, one level-2 stratum takes about 1.6 s
MAX_STEENBRINK_DIM = 64
# ss-cech's flag complex holds H^*(M_J) once per chain of nonempty sets ending
# at J, i.e. per ordered partition of J: _CHAINS[|J|] for |J| <= 7
_CHAINS = (0, 1, 3, 13, 75, 541, 4683, 47293)
# the most chains of nonempty sets of components the flag complex may list:
# 149 for 4 components, 1,081 for 5, 9,365 for 6 and 94,585 for 7, whose
# listing takes seconds
MAX_FLAGS = 10_000


def _check_dim(size: int, cap: int, what: str):
    if size > cap:
        raise EnumerationBudgetError(f"{what} of total dimension {size} exceed the cap of {cap}")


def _require_keys(obj: dict, required: set, optional: set, what: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected an object")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SchemaError(f"{what}: missing keys {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{what}: unknown keys {sorted(unknown)}")


def _check_schema(obj: dict, what: str):
    if obj.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"{what}: expected \"schema\": {SCHEMA_VERSION}")


def _parse_rat(x, what: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise SchemaError(f"{what}: rationals must be strings or integers, got {x!r}")
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise SchemaError(f"{what}: bad rational {x!r}: expected \"num/den\" or \"num\"")
    try:
        return rat(x)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"{what}: bad rational {x!r}: {e}") from e


def parse_matrix(rows, what: str, shape=None) -> QMatrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SchemaError(f"{what}: expected a list of rows")
    if not rows:
        if shape is None:
            raise SchemaError(f"{what}: empty matrix needs an explicit shape")
        return QMatrix.zero(*shape)
    try:
        m = QMatrix.from_rows([[_parse_rat(x, what) for x in r] for r in rows])
    except ValueError as e:
        raise SchemaError(f"{what}: {e}") from e
    if shape is not None and (m.rows, m.cols) != shape:
        raise SchemaError(f"{what}: expected shape {shape}, got {(m.rows, m.cols)}")
    return m


def parse_subspace(rows, ambient: int, what: str) -> Subspace:
    if not isinstance(rows, list) or any(not isinstance(r, list) or len(r) != ambient
                                         for r in rows):
        raise SchemaError(f"{what}: expected a list of basis rows of length {ambient}")
    if not rows:
        return Subspace.zero(ambient)
    return Subspace.from_vectors(
        ambient, [[_parse_rat(x, what) for x in r] for r in rows])


def parse_filtration(obj, ambient: int, orientation: str, what: str) -> IndexedFiltration:
    """Filtration from integer index -> basis rows (Hodge indices are integers)."""
    steps = {i: parse_subspace(rows, ambient, f"{what}[{i}]")
             for i, rows in _int_items(obj, what)}
    return IndexedFiltration.make(ambient, orientation, steps)


def _items(obj, what: str):
    """The (key, value) pairs of a JSON object."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected an object")
    return obj.items()


def _int_items(obj, what: str) -> list:
    """The (key, value) pairs of a JSON object whose keys are integers, no
    two the same integer."""
    keys = {}
    for k, _ in _items(obj, what):
        try:
            n = int(k)
        except ValueError as e:
            raise SchemaError(f"{what}: keys must be integers") from e
        if n in keys:
            raise SchemaError(f"{what}: keys {keys[n]!r} and {k!r} are both {n}")
        keys[n] = k
    return [(n, obj[k]) for n, k in keys.items()]


def _parse_int(x, what: str, minimum=None) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise SchemaError(f"{what}: expected an integer, got {x!r}")
    if minimum is not None and x < minimum:
        raise SchemaError(f"{what}: must be >= {minimum}")
    return x


def load_phin(obj: dict) -> PhiNModule:
    _require_keys(obj, {"schema", "p", "a", "d", "phi", "N", "fil"},
                  {"gamma_fil"}, "phin module")
    _check_schema(obj, "phin module")
    p = _parse_int(obj["p"], "p", 2)
    a = _parse_int(obj["a"], "a", 1)
    d = _parse_int(obj["d"], "d", 0)
    phi = parse_matrix(obj["phi"], "phi")
    n_op = parse_matrix(obj["N"], "N", shape=(phi.rows, phi.cols))
    fil = parse_filtration(obj["fil"], phi.rows, DECREASING, "fil")
    gamma = None
    if "gamma_fil" in obj:
        gamma = parse_filtration(obj["gamma_fil"], phi.rows, DECREASING, "gamma_fil")
    return PhiNModule(p, a, d, phi, n_op, fil, gamma)


def _parse_subset(key: str, components: list, what: str) -> frozenset:
    parts = key.split(SUBSET_SEP)
    for c in parts:
        if c not in components:
            raise SchemaError(f"{what}: unknown component {c!r} in key {key!r}")
    if len(set(parts)) != len(parts):
        raise SchemaError(f"{what}: repeated component in key {key!r}")
    return frozenset(parts)


def load_nerve(obj: dict) -> NerveDatum:
    _require_keys(obj, {"schema", "components", "strata"},
                  {"restrictions", "weights"}, "nerve")
    _check_schema(obj, "nerve")
    comps = obj["components"]
    if (not isinstance(comps, list) or not comps
            or any(not isinstance(c, str) or SUBSET_SEP in c or not c for c in comps)):
        raise SchemaError("nerve: components must be nonempty strings "
                          f"without {SUBSET_SEP!r}")
    if len(set(comps)) != len(comps):
        raise SchemaError("nerve: repeated component names")
    # past 7 components, the chains ending at the 7-sets alone pass the cap
    n = len(comps)
    if sum(comb(n, k) * _CHAINS[k] for k in range(1, min(n, 7) + 1)) > MAX_FLAGS:
        raise EnumerationBudgetError(f"{n} nerve components give more than "
                                     f"{MAX_FLAGS} chains of component sets to list")
    if not isinstance(obj["strata"], dict):
        raise SchemaError("nerve strata: expected an object of stratum -> dims")
    strata = {}
    for key, dims in obj["strata"].items():
        j = _parse_subset(key, comps, "nerve strata")
        if j in strata:
            raise SchemaError(f"nerve strata: key {key!r} repeats a component set")
        strata[j] = {s: _parse_int(v, f"strata[{key}][{s}]", 0)
                     for s, v in _int_items(dims, f"nerve strata[{key}]")}
    _check_dim(sum(_CHAINS[len(j)] * sum(d.values()) for j, d in strata.items()),
               MAX_COMPLEX_DIM, "nerve strata")
    weights = None
    if "weights" in obj:
        weights = {s: _parse_int(w, "weights", None)
                   for s, w in _int_items(obj["weights"], "weights")}
    restrictions = {}
    for key, mats in _items(obj.get("restrictions", {}), "nerve restrictions"):
        if ARROW not in key:
            raise SchemaError(f"nerve restrictions: key {key!r} must be 'J{ARROW}J2'")
        k1, k2 = key.split(ARROW, 1)
        j1 = _parse_subset(k1, comps, "nerve restrictions")
        j2 = _parse_subset(k2, comps, "nerve restrictions")
        if (j1, j2) in restrictions:
            raise SchemaError(f"nerve restrictions: key {key!r} repeats a pair of component sets")
        by_deg = {}
        for s, rows in _int_items(mats, f"restriction {key}"):
            shape = (strata.get(j2, {}).get(s, 0), strata.get(j1, {}).get(s, 0))
            by_deg[s] = parse_matrix(rows, f"restriction {key} degree {s}", shape)
        restrictions[(j1, j2)] = by_deg
    nd = NerveDatum(list(comps), strata, restrictions, weights)
    return nd


def load_steenbrink(obj: dict) -> SteenbrinkDatum:
    _require_keys(obj, {"schema", "d", "levels", "dims"},
                  {"restrictions", "gysins"}, "steenbrink")
    _check_schema(obj, "steenbrink")
    d = _parse_int(obj["d"], "d", 0)
    levels = {}
    names = set()
    for t, lst in _int_items(obj["levels"], "steenbrink levels"):
        if not isinstance(lst, list) or any(not isinstance(nm, str) for nm in lst):
            raise SchemaError("steenbrink levels: expected lists of stratum names")
        levels[t] = list(lst)
        names.update(lst)
    dims = {}
    for nm, degs in _items(obj["dims"], "steenbrink dims"):
        if nm not in names:
            raise SchemaError(f"steenbrink dims: unknown stratum {nm!r}")
        dims[nm] = {m: _parse_int(v, f"dims[{nm}][{m}]", 0)
                    for m, v in _int_items(degs, f"steenbrink dims[{nm}]")}
    # the total complex holds H^m (m >= 0) of a level-t stratum in t summands;
    # its layout loops over the levels, so an empty stratum counts as 1
    _check_dim(sum(t * max(1, sum(v for m, v in dims.get(nm, {}).items() if m >= 0))
                   for t, lst in levels.items() if t > 0 for nm in lst),
               MAX_STEENBRINK_DIM, "steenbrink strata")

    def parse_maps(section, degree_shift):
        out = {}
        for key, mats in _items(obj.get(section, {}), f"steenbrink {section}"):
            if ARROW not in key:
                raise SchemaError(f"steenbrink {section}: key {key!r} must be "
                                  f"'from{ARROW}to'")
            n1, n2 = key.split(ARROW, 1)
            if n1 not in names or n2 not in names:
                raise SchemaError(f"steenbrink {section}: unknown stratum in {key!r}")
            by_deg = {}
            for m, rows in _int_items(mats, f"steenbrink {section} {key}"):
                shape = (dims.get(n2, {}).get(m + degree_shift, 0),
                         dims.get(n1, {}).get(m, 0))
                by_deg[m] = parse_matrix(rows, f"{section} {key} degree {m}", shape)
            out[(n1, n2)] = by_deg
        return out

    return SteenbrinkDatum(d, levels, dims,
                           parse_maps("restrictions", 0),
                           parse_maps("gysins", 2))


def load_filtered_complex(obj: dict) -> FilteredComplex:
    _require_keys(obj, {"schema", "spaces"}, {"differentials", "filtration"},
                  "filtered complex")
    _check_schema(obj, "filtered complex")
    spaces = {n: _parse_int(v, f"spaces[{n}]", 0)
              for n, v in _int_items(obj["spaces"], "spaces")}
    _check_dim(sum(spaces.values()), MAX_COMPLEX_DIM, "spaces")
    diffs = {}
    for n, rows in _int_items(obj.get("differentials", {}), "differentials"):
        shape = (spaces.get(n + 1, 0), spaces.get(n, 0))
        diffs[n] = parse_matrix(rows, f"differential[{n}]", shape)
    filtration = {}
    for n, levels in _int_items(obj.get("filtration", {}), "filtration"):
        filtration[n] = {p: parse_subspace(rows, spaces.get(n, 0),
                                           f"filtration[{n}][{p}]")
                         for p, rows in _int_items(levels, f"filtration[{n}]")}
    return FilteredComplex(GradedComplex(spaces, diffs), filtration)
