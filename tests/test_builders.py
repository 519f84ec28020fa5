"""Frozen output of the total-complex builders.

`tests/golden/builders.json` holds the exact assembled output of
`cech_complex` and `flag_complex` on seeded random functorial nerves and of
the differential and `_Model.monodromy_matrix` of two seeded
three-level Steenbrink data: spaces, differential matrices, F^p at every
level, `blocks` and `labels`.  Regenerate the file (only for a change that alters
the assembly on purpose) with

    PYTHONPATH=src python tests/test_builders.py
"""

import dataclasses
import json
import pathlib
import random
from fractions import Fraction

from weightfil.exact_linalg import QMatrix
from weightfil.nerve import cech_complex, flag_complex
from weightfil.spectral import block_matrix
from weightfil.steenbrink import SteenbrinkDatum, _Model

from conftest import random_functorial_nerve

GOLDEN = pathlib.Path(__file__).parent / "golden" / "builders.json"


def matrix_json(m: QMatrix) -> dict:
    return {"shape": [m.rows, m.cols], "rows": m.to_strings()}


def graded_json(gc) -> dict:
    return {"spaces": [[n, d] for n, d in gc.spaces.items()],
            "differentials": [[n, matrix_json(m)] for n, m in gc.differentials.items()]}


def filtered_json(fc) -> dict:
    out = graded_json(fc.complex)
    out["filtration"] = [[n, [[p, sub.ambient_dim, sub.to_strings()]
                              for p, sub in levels.items()]]
                         for n, levels in fc.filtration.items()]
    out["blocks"] = [[n, [list(b) for b in lst]] for n, lst in fc.blocks.items()]
    out["labels"] = [[p, q, w] for (p, q), w in fc.labels.items()]
    return out


def random_nerve(seed: int, n_components: int):
    nd = random_functorial_nerve(random.Random(seed), n_components)
    if seed % 2:
        nd = dataclasses.replace(nd, weights={0: 5, 2: -1})  # labels other than the degree
    return nd


def random_steenbrink(seed: int) -> SteenbrinkDatum:
    """Three levels, dims 0..2 in degrees 0..2, and random maps of the
    right shapes; d o d = 0 is not arranged, which _Model does not check."""
    rng = random.Random(seed)
    levels = {1: ["a", "b", "c"], 2: ["ab", "bc"], 3: ["abc"]}
    dims = {nm: {m: rng.randint(0, 2) for m in range(3)}
            for names in levels.values() for nm in names}

    def rand_map(rows, cols):
        return QMatrix(rows, cols, tuple(Fraction(rng.randint(-2, 2))
                                         for _ in range(rows * cols)))

    restrictions = {}
    gysins = {}
    for t, names in levels.items():
        for nm in names:
            for nm2 in levels.get(t + 1, []):
                if rng.random() < 0.8:
                    restrictions[(nm, nm2)] = {
                        m: rand_map(dims[nm2][m], dims[nm][m]) for m in range(3)}
            for nm2 in levels.get(t - 1, []):
                if rng.random() < 0.8:
                    gysins[(nm, nm2)] = {
                        m: rand_map(dims[nm2].get(m + 2, 0), dims[nm][m]) for m in range(3)}
    return SteenbrinkDatum(d=2, levels=levels, dims=dims,
                           restrictions=restrictions, gysins=gysins)


def model_json(model: _Model) -> dict:
    degrees = range(-1, max(model.summands) + 2)
    return {"differential": [[n, matrix_json(block_matrix(model.layout(n), model.layout(n + 1),
                                                          model.blocks))]
                             for n in degrees],
            "monodromy": [[n, matrix_json(model.monodromy_matrix(n))] for n in degrees]}


def snapshot() -> dict:
    out = {}
    for seed, k in [(11, 3), (12, 3), (13, 4), (14, 4)]:
        nd = random_nerve(seed, k)
        out[f"cech-{seed}-{k}"] = filtered_json(cech_complex(nd))
        out[f"flag-{seed}-{k}"] = graded_json(flag_complex(nd))
    for seed in (21, 24):  # seed 24 reaches the (-1)^j Gysin twist for j = 1
        out[f"steenbrink-{seed}"] = model_json(_Model(random_steenbrink(seed)))
    return out


def render() -> str:
    """One line per builder output, so a failing diff names the input."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
             for k, v in snapshot().items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_builders_frozen():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
