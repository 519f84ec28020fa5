"""Seeded inputs for the three workloads, with the answers they must give.

Every input is built from a structure whose answers follow in closed form
(Jordan blocks with a diagonal Frobenius, nerves that are quotients of a
fixed space, cycles of components, sums of elementary filtered complexes,
building and arrangement parameters), then hidden behind a random change of
basis.  A change of basis changes the cost of exact elimination but none of
the answers, so every case carries its expected answers next to its input.

This module imports nothing from weightfil: the expectations are computed
here, independently of the program under test.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

# ---------------------------------------------------------------------------
# small exact helpers


def rat_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b)) if a[i][k]), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def inverse(m):
    n = len(m)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def change_of_basis(rng, n):
    """L * diag * U with unit-triangular L, U whose off-diagonal entries are
    random signs and a fixed diagonal of 1s and 2s: invertible, dense, and
    with a sparsity pattern and determinant that do not depend on the seed,
    so the coefficient growth it causes varies little from seed to seed."""
    lower = [[Fraction(1 if i == j else (rng.choice((-1, 1)) if i > j else 0))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else (rng.choice((-1, 1)) if i < j else 0))
              for j in range(n)] for i in range(n)]
    diag = [[Fraction(1 + (i % 2) if i == j else 0) for j in range(n)]
            for i in range(n)]
    return matmul(matmul(lower, diag), upper)


def conjugate(g, g_inv, m):
    return matmul(matmul(g, m), g_inv)


def columns(g, idx):
    return [[g[r][c] for r in range(len(g))] for c in idx]


def strings(rows):
    return [[rat_str(x) for x in row] for row in rows]


class Case:
    """One report: the CLI arguments (with `{input}` standing for the input
    file), the JSON payload written to that file (None for flag-only
    commands), and what `checks.check` needs to verify the report.  `ident`
    names the case across rounds: the same ident in two rounds is the same
    kind of work on different inputs."""

    def __init__(self, argv, payload, kind, expect, ident=None):
        self.argv = argv
        self.payload = payload
        self.kind = kind
        self.expect = expect
        self.ident = ident
        self.data = None  # the input file's bytes, once written

    def materialize(self, workdir, name):
        """Write the input file and return the argv the CLI receives."""
        if self.payload is None:
            return list(self.argv)
        path = os.path.join(workdir, name + ".json")
        self.data = json.dumps(self.payload).encode()
        with open(path, "wb") as fh:
            fh.write(self.data)
        return [path if a == "{input}" else a for a in self.argv]


# ---------------------------------------------------------------------------
# phin_modules
#
# A module is a direct sum of Jordan blocks (size b, lowest slope s0, unit u):
# on block basis e_1..e_b, N e_k = e_(k-1) and phi e_k = u q^(s0+k-1) e_k, so
# N phi = q phi N.  The Hodge filtration is Fil^i = span{e : h(e) >= i}.
# Distinct units give a cyclic phi (certified route); repeated eigenvalues
# across blocks force the sampled route, where h = slope makes the module
# admissible, so no witness exists and the verdict is sampled_inconclusive.

PHIN_SKELETONS = [
    # (p, d, [(b, s0, u)], h per basis vector in block order)
    (2, 1, [(2, 0, 1)], [0, 1]),
    (3, 2, [(3, 0, 1)], [0, 1, 2]),
    (2, 3, [(4, 0, 1)], [1, 0, 3, 2]),
    (3, 2, [(3, 0, 1), (1, 1, -1)], [0, 1, 2, 1]),
    (2, 2, [(3, 0, 1), (2, 1, 3)], [0, 1, 2, 1, 2]),
    (2, 2, [(2, 0, 1), (2, 0, 1)], [0, 1, 0, 1]),
    (3, 1, [(2, 0, 1), (2, 0, 1)], [0, 1, 0, 1]),
    (2, 1, [(2, 0, 1), (2, 0, 1), (2, 0, 1)], [0, 1, 0, 1, 0, 1]),
    (3, 1, [(1, 0, 1), (1, 1, 1)], [1, 1]),
]

PHIN_COMMANDS = ["phin-analyze", "phin-check-mw", "phin-netcoh"]


def _vectors(blocks):
    """(block index, position k from 1, slope, unit) per basis vector."""
    out = []
    for j, (b, s0, u) in enumerate(blocks):
        for k in range(1, b + 1):
            out.append((j, k, s0 + k - 1, u))
    return out


def phin_structure(skel):
    """phi, N (diagonal / shift form) and the Hodge filtration steps."""
    p, d, blocks, h = skel
    vecs = _vectors(blocks)
    n = len(vecs)
    phi = [[Fraction(0)] * n for _ in range(n)]
    nil = [[Fraction(0)] * n for _ in range(n)]
    for i, (j, k, s, u) in enumerate(vecs):
        phi[i][i] = u * Fraction(p) ** s
        if k > 1:
            nil[i - 1][i] = Fraction(1)
    fil = {i: [c for c in range(n) if h[c] >= i] for i in sorted(set(h))}
    return phi, nil, fil


def phin_payload(skel, g=None):
    p, d, blocks, h = skel
    phi, nil, fil = phin_structure(skel)
    n = len(phi)
    if g is None:
        g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    g_inv = inverse(g)
    return {"schema": 1, "p": p, "a": 1, "d": d,
            "phi": strings(conjugate(g, g_inv, phi)),
            "N": strings(conjugate(g, g_inv, nil)),
            "fil": {str(i): strings(columns(g, idx)) for i, idx in fil.items()}}


def phin_expect(skel):
    """Answers that follow from the block structure alone."""
    p, d, blocks, h = skel
    vecs = _vectors(blocks)
    n = len(vecs)
    slopes = [s for (_, _, s, _) in vecs]
    w_mono = [-(blocks[j][0] - 1) + 2 * (k - 1) for (j, k, _, _) in vecs]
    w_weight = [2 * s - d for s in slopes]

    def counts(values):
        out = {}
        for v in values:
            out[rat_str(v)] = out.get(rat_str(v), 0) + 1
        return out

    t_n, t_h = sum(slopes), sum(h)
    eigen = [u * Fraction(p) ** s for (_, _, s, u) in vecs]
    cyclic = len(set(eigen)) == n
    if t_n != t_h:
        adm = {"verdict": "not_admissible", "certified": True, "method": "global"}
    elif cyclic:
        # jointly stable subspaces are sums of initial segments of blocks
        ok = True
        pos = 0
        for (b, _, _) in blocks:
            ssum = hsum = 0
            for k in range(b):
                ssum += slopes[pos + k]
                hsum += h[pos + k]
                ok = ok and hsum <= ssum
            pos += b
        adm = {"verdict": "admissible" if ok else "not_admissible",
               "certified": True, "method": "cyclic-phi"}
        if ok:
            total = 1
            for (b, _, _) in blocks:
                total *= b + 1
            adm["subspaces_checked"] = total - 2
    else:
        if h != slopes:
            raise ValueError("a module on the sampled route needs Fil split by slope")
        adm = {"verdict": "sampled_inconclusive", "certified": False,
               "method": "sampled"}

    hodge = counts(h)
    newton = counts(slopes)
    if any(s < 0 for s in slopes) or hodge != newton:
        ordinary = False
    else:
        ordinary = {"admissible": True, "not_admissible": False,
                    "sampled_inconclusive": "inconclusive"}[adm["verdict"]]

    keys = sorted(set(range(-d, d + 1)) | set(w_weight))
    step_diff = []
    for r in keys:
        m_set = {i for i in range(n) if w_mono[i] <= r}
        p_set = {i for i in range(n) if w_weight[i] <= r}
        if m_set != p_set:
            step_diff.append({"r": rat_str(r), "monodromy_dim": len(m_set),
                              "weight_dim": len(p_set)})

    # C: nonzero-slope part of ker N (the e_1 of each block) for even d
    if d % 2 == 0:
        c_slopes = [blocks[j][1] for j in range(len(blocks)) if blocks[j][1] != 0]
        dim_c = len(c_slopes)
        meets = any(s <= d // 2 - 1 for s in c_slopes)
    else:
        dim_c, meets = 0, None

    return {"dim": n, "p": p, "a": 1, "d": d,
            "hodge_numbers": hodge, "newton_numbers": newton,
            "t_N": rat_str(t_n), "t_H": rat_str(t_h),
            "admissibility": adm, "ordinary": ordinary,
            "monodromy_graded": counts(w_mono), "weight_graded": counts(w_weight),
            "mw_equal": w_mono == w_weight, "step_diff": step_diff,
            "dim_C": dim_c, "C_meets_middle_level": meets}


def phin_cases(rng, reference):
    """All reports of one round.  `reference[(i, command)]` holds the
    report on module i before the change of basis."""
    cases = []
    for i, skel in enumerate(PHIN_SKELETONS):
        g = change_of_basis(rng, len(skel[3]))
        payload = phin_payload(skel, g)
        expect = phin_expect(skel)
        for cmd in PHIN_COMMANDS:
            cases.append(Case([cmd, "{input}"], payload, cmd,
                              dict(expect, reference=reference.get((i, cmd)))))
    return cases


def phin_reference_cases():
    """The modules before the change of basis, keyed like `reference`."""
    out = {}
    for i, skel in enumerate(PHIN_SKELETONS):
        for cmd in PHIN_COMMANDS:
            out[(i, cmd)] = Case([cmd, "{input}"], phin_payload(skel), cmd, None)
    return out


# ---------------------------------------------------------------------------
# filtered_complexes


def nerve_case(rng, n_comp, killers):
    """Nerve whose degree-s stratum cohomology is a quotient of Q^m by the
    coordinates killed on any of its components; coordinate k of degree s
    is killed on a random set of killers[s][k] components.  Per surviving
    coordinate the Cech complex is that of a full simplex, so H^n of the
    total complex counts the degree-n coordinates not killed everywhere and
    the sequence degenerates at E_2.  The strata dimensions depend on the
    killer-set sizes alone, so every seed asks for the same amount of work.
    """
    comps = "abcd"[:n_comp]
    ambient = {s: len(sizes) for s, sizes in killers.items()}
    killed = {(x, s): set() for x in comps for s in killers}
    for s, sizes in killers.items():
        for k, size in enumerate(sizes):
            for x in rng.sample(comps, size):
                killed[(x, s)].add(k)
    subsets = [frozenset(c for i, c in enumerate(comps) if mask >> i & 1)
               for mask in range(1, 1 << n_comp)]

    def name(j):
        return ",".join(c for c in comps if c in j)

    alive = {}
    sign = {}
    for j in subsets:
        for s, m in ambient.items():
            gone = set().union(*(killed[(x, s)] for x in j))
            alive[(j, s)] = [k for k in range(m) if k not in gone]
            for k in alive[(j, s)]:
                sign[(j, s, k)] = rng.choice((1, -1))
    strata = {}
    for j in subsets:
        dims = {str(s): len(alive[(j, s)]) for s in ambient if alive[(j, s)]}
        if dims:
            strata[name(j)] = dims
    restrictions = {}
    any_restriction = False
    for j in subsets:
        for x in comps:
            if x in j:
                continue
            j2 = j | {x}
            mats = {}
            for s in ambient:
                src, tgt = alive[(j, s)], alive[(j2, s)]
                if not src or not tgt:
                    continue
                mats[str(s)] = [[rat_str(sign[(j, s, a)] * sign[(j2, s, b)] if a == b else 0)
                                 for a in src] for b in tgt]
                any_restriction = True
            if mats:
                restrictions[f"{name(j)}->{name(j2)}"] = mats
    payload = {"schema": 1, "components": list(comps), "strata": strata,
               "restrictions": restrictions}
    e1 = {}
    euler = 0
    for j in subsets:
        for s in ambient:
            dim = len(alive[(j, s)])
            if dim:
                key = f"{len(j) - 1},{s}"
                e1[key] = e1.get(key, 0) + dim
                euler += (-1) ** (len(j) - 1 + s) * dim
    h = {}
    for s, m in ambient.items():
        full = set.intersection(*(killed[(x, s)] for x in comps))
        if m - len(full):
            h[str(s)] = m - len(full)
    return Case(["ss-cech", "{input}"], payload, "ss-cech",
                {"e1": e1, "euler": euler, "h": h,
                 "degeneration_page": 2 if any_restriction else 1})


def cycle_case(rng, n):
    """Cycle of n rational components meeting in n points, with every
    one-dimensional cohomology group given a random basis scaling."""
    scale = {}
    for i in range(n):
        scale[(f"c{i}", 0)] = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 2, 3)))
        scale[(f"c{i}", 2)] = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 2, 3)))
        scale[(f"p{i}", 0)] = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 2, 3)))
    restrictions, gysins = {}, {}
    for pi in range(n):
        for ci in (pi, (pi + 1) % n):
            sg = 1 if ci == pi else -1
            c, p = f"c{ci}", f"p{pi}"
            restrictions[f"{c}->{p}"] = {"0": [[rat_str(sg * scale[(p, 0)] / scale[(c, 0)])]]}
            gysins[f"{p}->{c}"] = {"0": [[rat_str(sg * scale[(c, 2)] / scale[(p, 0)])]]}
    payload = {"schema": 1, "d": 1,
               "levels": {"1": [f"c{i}" for i in range(n)],
                          "2": [f"p{i}" for i in range(n)]},
               "dims": dict({f"c{i}": {"0": 1, "2": 1} for i in range(n)},
                            **{f"p{i}": {"0": 1} for i in range(n)}),
               "restrictions": restrictions, "gysins": gysins}
    return Case(["ss-steenbrink", "{input}"], payload, "ss-steenbrink",
                {"e1": {"-1,2": n, "0,0": n, "0,2": n, "1,0": n}})


def filtered_complex_case(rng, pieces, max_page):
    """Direct sum of elementary filtered complexes, each degree hidden
    behind a random change of basis.  A piece ("single", n, p) is a cocycle
    of degree n at filtration level p; ("pair", n, p, r) is x in degree n at
    level p with dx at level p + r, which lives on pages 0..r and is
    killed by d_r."""
    basis = {}          # degree -> list of levels
    edges = []          # (n, source index, target index)
    for piece in pieces:
        n, p = piece[1], piece[2]
        src = basis.setdefault(n, [])
        src.append(p)
        if piece[0] == "pair":
            tgt = basis.setdefault(n + 1, [])
            tgt.append(p + piece[3])
            edges.append((n, len(src) - 1, len(tgt) - 1))
    top = max(lv for levels in basis.values() for lv in levels)
    g = {n: change_of_basis(rng, len(lv)) for n, lv in basis.items()}
    g_inv = {n: inverse(m) for n, m in g.items()}
    diffs = {}
    for n in basis:
        if n + 1 not in basis:
            continue
        d = [[Fraction(0)] * len(basis[n]) for _ in basis[n + 1]]
        for (m, a, b) in edges:
            if m == n:
                d[b][a] = Fraction(1)
        if any(x for row in d for x in row):
            diffs[str(n)] = strings(conjugate(g[n + 1], g_inv[n], d))
    filtration = {
        str(n): {str(p): strings(columns(g[n], [i for i, lv in enumerate(levels) if lv >= p]))
                 for p in range(0, top + 2)}
        for n, levels in basis.items()}
    payload = {"schema": 1, "spaces": {str(n): len(lv) for n, lv in basis.items()},
               "differentials": diffs, "filtration": filtration}

    pages = {str(r): {} for r in range(max_page + 1)}

    def bump(r, p, n):
        key = f"{p},{n - p}"
        pages[str(r)][key] = pages[str(r)].get(key, 0) + 1

    h = {}
    last = 0
    for piece in pieces:
        n, p = piece[1], piece[2]
        if piece[0] == "single":
            h[str(n)] = h.get(str(n), 0) + 1
            for r in range(max_page + 1):
                bump(r, p, n)
        else:
            rr = piece[3]
            for r in range(min(rr, max_page) + 1):
                bump(r, p, n)
                bump(r, p + rr, n + 1)
            if 1 <= rr <= max_page:
                last = max(last, rr)
    degen = None if last == max_page else last + 1
    return Case(["ss-pages", "{input}", "--max-page", str(max_page)], payload, "ss-pages",
                {"pages": pages, "h": h, "degeneration_page": degen})


FILTERED_PLAN = [
    # shapes are fixed; the seed picks killed coordinates, signs, scalings
    # and changes of basis, none of which changes the amount of work
    ("nerve", 3, {0: [0, 1, 2, 3], 1: [0, 1], 2: [1]}),
    ("nerve", 3, {0: [0, 1, 2], 1: [1, 3], 2: [0, 2]}),
    ("nerve", 4, {0: [1, 2], 1: [4], 2: [2]}),
    ("nerve", 4, {0: [1, 2, 3], 1: [2, 4]}),
    ("cycle", 3),
    ("cycle", 5),
    ("cycle", 8),
    ("pages", [("pair", 0, 0, 1), ("pair", 0, 1, 2), ("single", 1, 1), ("pair", 1, 0, 3),
               ("single", 2, 2), ("pair", 1, 2, 0), ("single", 0, 0)], 4),
    ("pages", [("pair", 0, 0, 2), ("pair", 0, 1, 1), ("pair", 1, 1, 2), ("single", 0, 2),
               ("single", 2, 0), ("pair", 2, 0, 1), ("pair", 1, 0, 0), ("single", 1, 2),
               ("pair", 0, 2, 1)], 3),
    ("pages", [("pair", 0, 0, 4), ("single", 1, 0), ("pair", 1, 1, 2), ("single", 2, 3),
               ("pair", 0, 2, 1), ("single", 0, 1)], 4),
]


def filtered_cases(rng):
    cases = []
    for spec in FILTERED_PLAN:
        if spec[0] == "nerve":
            cases.append(nerve_case(rng, spec[1], spec[2]))
        elif spec[0] == "cycle":
            cases.append(cycle_case(rng, spec[1]))
        else:
            cases.append(filtered_complex_case(rng, spec[1], spec[2]))
    return cases


# ---------------------------------------------------------------------------
# building


BUILDING_PLAN = [
    ("drinfeld-ball", {"d": 1, "p": 3, "n": 6}),
    ("drinfeld-ball", {"d": 1, "p": 5, "n": 4}),
    ("drinfeld-ball", {"d": 1, "p": 7, "n": 3}),
    ("drinfeld-ball", {"d": 2, "p": 2, "n": 3}),
    ("drinfeld-ball", {"d": 2, "p": 3, "n": 2}),
    ("drinfeld-arrangement", {"r": 3, "q": 3}),
    ("drinfeld-arrangement", {"r": 3, "q": 4}),
    ("drinfeld-arrangement", {"r": 4, "q": 2}),
    ("drinfeld-arrangement", {"r": 4, "q": 3}),
    ("drinfeld-arrangement", {"r": 5, "q": 2}),
    ("drinfeld-blowup", {"r": 2, "q": 3}),
    ("drinfeld-blowup", {"r": 2, "q": 5}),
    ("drinfeld-blowup", {"r": 3, "q": 2}),
    ("drinfeld-blowup", {"r": 3, "q": 3}),
    ("drinfeld-blowup", {"r": 4, "q": 2}),
    ("drinfeld-counts", {"d": 2, "q": 3, "i": 3}),
    ("drinfeld-counts", {"d": 3, "q": 2, "i": 2}),
    ("drinfeld-counts", {"d": 3, "q": 3, "i": 4}),
]


def building_cases(rng):
    """The parameter sets are fixed, so every seed does the same work; the
    seed sets the order in which the reports run."""
    plan = list(BUILDING_PLAN)
    rng.shuffle(plan)
    cases = []
    for cmd, params in plan:
        argv = [cmd]
        for k, v in params.items():
            argv += [f"--{k}", str(v)]
        cases.append(Case(argv, None, cmd, dict(params), ident=" ".join(argv)))
    return cases


# ---------------------------------------------------------------------------

WARMUP = {
    "phin_modules": Case(["phin-analyze", "{input}"], phin_payload(PHIN_SKELETONS[0]),
                         "phin-analyze", None),
    "filtered_complexes": Case(["ss-pages", "{input}", "--max-page", "2"],
                               {"schema": 1, "spaces": {"0": 1, "1": 1},
                                "differentials": {"0": [["1"]]},
                                "filtration": {"0": {"0": [["1"]], "1": []},
                                               "1": {"1": [["1"]], "2": []}}},
                               "ss-pages", None),
    "building": Case(["drinfeld-counts", "--d", "1", "--q", "2", "--i", "1"], None,
                     "drinfeld-counts", None),
}


def round_cases(workload, rng, reference):
    if workload == "phin_modules":
        return phin_cases(rng, reference)
    if workload == "filtered_complexes":
        return filtered_cases(rng)
    return building_cases(rng)
