"""Strict JSON schemas for the CLI inputs.

Every payload carries "schema": 1; unknown keys are rejected so that
golden-file reports stay stable.  Rationals travel as strings "num/den"
(or "num" when the denominator is 1).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SchemaError
from .exact_linalg import QMatrix, Subspace, rat
from .filtration import DECREASING, IndexedFiltration
from .nerve import NerveDatum
from .phin import PhiNModule
from .spectral import FilteredComplex, GradedComplex
from .steenbrink import SteenbrinkDatum

SCHEMA_VERSION = 1
SUBSET_SEP = ","
ARROW = "->"


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
    if not isinstance(rows, list):
        raise SchemaError(f"{what}: expected a list of basis rows")
    if not rows:
        return Subspace.zero(ambient)
    return Subspace.from_vectors(
        ambient, [[_parse_rat(x, what) for x in r] for r in rows])


def parse_filtration(obj, ambient: int, orientation: str, what: str) -> IndexedFiltration:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected an object of index -> basis rows")
    steps = {}
    for k, rows in obj.items():
        idx = _parse_rat(k, f"{what} index")
        steps[idx] = parse_subspace(rows, ambient, f"{what}[{k}]")
    return IndexedFiltration.make(ambient, orientation, steps)


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
    strata = {}
    for key, dims in obj["strata"].items():
        j = _parse_subset(key, comps, "nerve strata")
        if not isinstance(dims, dict):
            raise SchemaError(f"nerve strata[{key}]: expected degree -> dim")
        strata[j] = {int(s): _parse_int(v, f"strata[{key}][{s}]", 0)
                     for s, v in dims.items()}
    weights = None
    if "weights" in obj:
        weights = {int(s): _parse_int(w, "weights", None)
                   for s, w in obj["weights"].items()}
    restrictions = {}
    for key, mats in obj.get("restrictions", {}).items():
        if ARROW not in key:
            raise SchemaError(f"nerve restrictions: key {key!r} must be 'J{ARROW}J2'")
        k1, k2 = key.split(ARROW, 1)
        j1 = _parse_subset(k1, comps, "nerve restrictions")
        j2 = _parse_subset(k2, comps, "nerve restrictions")
        by_deg = {}
        for s, rows in mats.items():
            s = int(s)
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
    for t, lst in obj["levels"].items():
        t = int(t)
        if not isinstance(lst, list):
            raise SchemaError("steenbrink levels: expected lists of stratum names")
        levels[t] = list(lst)
        names.update(lst)
    dims = {}
    for nm, degs in obj["dims"].items():
        if nm not in names:
            raise SchemaError(f"steenbrink dims: unknown stratum {nm!r}")
        dims[nm] = {int(m): _parse_int(v, f"dims[{nm}][{m}]", 0)
                    for m, v in degs.items()}

    def parse_maps(section, degree_shift):
        out = {}
        for key, mats in obj.get(section, {}).items():
            if ARROW not in key:
                raise SchemaError(f"steenbrink {section}: key {key!r} must be "
                                  f"'from{ARROW}to'")
            n1, n2 = key.split(ARROW, 1)
            if n1 not in names or n2 not in names:
                raise SchemaError(f"steenbrink {section}: unknown stratum in {key!r}")
            by_deg = {}
            for m, rows in mats.items():
                m = int(m)
                shape = (dims.get(n2, {}).get(m + degree_shift, 0),
                         dims.get(n1, {}).get(m, 0))
                by_deg[m] = parse_matrix(rows, f"{section} {key} degree {m}", shape)
            out[(n1, n2)] = by_deg
        return out

    return SteenbrinkDatum(d, levels, dims,
                           parse_maps("restrictions", 0),
                           parse_maps("gysins", 2))


def load_filtered_complex(obj: dict) -> FilteredComplex:
    _require_keys(obj, {"schema", "spaces"},
                  {"differentials", "filtration", "labels", "blocks"},
                  "filtered complex")
    _check_schema(obj, "filtered complex")
    spaces = {int(n): _parse_int(v, f"spaces[{n}]", 0)
              for n, v in obj["spaces"].items()}
    diffs = {}
    for n, rows in obj.get("differentials", {}).items():
        n = int(n)
        shape = (spaces.get(n + 1, 0), spaces.get(n, 0))
        diffs[n] = parse_matrix(rows, f"differential[{n}]", shape)
    filtration = {}
    for n, levels in obj.get("filtration", {}).items():
        n = int(n)
        filtration[n] = {int(p): parse_subspace(rows, spaces.get(n, 0),
                                                f"filtration[{n}][{p}]")
                         for p, rows in levels.items()}
    labels = None
    if "labels" in obj:
        labels = {}
        for key, w in obj["labels"].items():
            try:
                ps, qs = key.split(SUBSET_SEP)
                labels[(int(ps), int(qs))] = w
            except ValueError as e:
                raise SchemaError(f"labels: bad key {key!r}") from e
    blocks = None
    if "blocks" in obj:
        blocks = {}
        for n, lst in obj["blocks"].items():
            blocks[int(n)] = [(int(p), int(q), _parse_int(sz, "block size", 0))
                              for p, q, sz in lst]
    fc = FilteredComplex(GradedComplex(spaces, diffs), filtration, blocks, labels)
    return fc.validate()
