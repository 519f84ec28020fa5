"""Checks of every report against answers fixed in advance.

`check(case, stdout)` raises CheckError naming the first field of the
report that is wrong.  Every field of a report is checked: the set of keys
must match, and each value must equal the expected one or satisfy a stated
property where the exact value depends on the change of basis (the sampled
admissibility route).  Expected values come from `workloads`, from closed
forms below, or, for verdicts that have no closed form here, from the
report on the same module before its change of basis: an isomorphism
cannot change a verdict.
"""

from __future__ import annotations

import hashlib
import json


class CheckError(Exception):
    pass


CLAUSES = {
    "phin-analyze": {"weakly_admissible", "ordinary", "monodromy_weight_equal"},
    "phin-check-mw": {"equal"},
    "phin-netcoh": {"a", "b", "c"},
    "ss-pages": {"degeneration_page"},
    "ss-cech": {"equivariant_degeneration", "flag_complex_agrees"},
    "ss-steenbrink": {"monodromy_weight_equal", "monodromy_nilpotent"},
    "drinfeld-arrangement": {"cross_check"},
    "drinfeld-blowup": {"cross_check"},
}


def _clauses(kind):
    def ok(v):
        return (isinstance(v, dict) and set(v) == CLAUSES[kind]
                and all(isinstance(s, str) and s for s in v.values()))
    return ok


def _compare(expected: dict, report: dict, where: str):
    if not isinstance(report, dict):
        raise CheckError(f"{where}: expected an object, got {report!r}")
    if set(report) != set(expected):
        raise CheckError(f"{where}: keys {sorted(report)} != {sorted(expected)}")
    for key, want in expected.items():
        got = report[key]
        if callable(want):
            if not want(got):
                raise CheckError(f"{where}.{key}: {got!r} fails its check")
        elif isinstance(want, dict) and isinstance(got, dict) and want and \
                any(callable(v) or isinstance(v, dict) for v in want.values()):
            _compare(want, got, f"{where}.{key}")
        elif got != want or type(got) is not type(want):
            raise CheckError(f"{where}.{key}: got {got!r}, expected {want!r}")


def _signed(entries: dict) -> int:
    """Sum of (-1)^(p+q) dim over entries keyed "p,q"."""
    return sum((-1) ** sum(map(int, k.split(","))) * v for k, v in entries.items())


def _euler(h: dict) -> int:
    return sum((-1) ** int(n) * v for n, v in h.items())


def _is_int(v, lo=0):
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


# ---------------------------------------------------------------------------
# phin_modules


def _phin_analyze(e):
    adm = e["admissibility"]
    ref = e["reference"]["weakly_admissible"]
    wa = {"verdict": adm["verdict"], "certified": adm["certified"], "method": adm["method"]}
    if "subspaces_checked" in adm:
        wa["subspaces_checked"] = adm["subspaces_checked"]
    elif adm["certified"]:
        # candidate order is intrinsic, so the first witness is the image of
        # the one found before the change of basis
        wa["subspaces_checked"] = ref["subspaces_checked"]
    else:
        wa["subspaces_checked"] = lambda v: _is_int(v)
    if adm["verdict"] == "not_admissible" and adm["method"] != "global":
        dim = len(ref["witness"])
        wa["witness"] = lambda v: (isinstance(v, list) and len(v) == dim > 0
                                   and all(isinstance(r, list) and len(r) == e["dim"]
                                           for r in v))
    else:
        wa["witness"] = lambda v: v is None
    return {
        "dim": e["dim"], "p": e["p"], "a": e["a"], "d": e["d"],
        "hodge_numbers": e["hodge_numbers"], "newton_numbers": e["newton_numbers"],
        "t_N": e["t_N"], "t_H": e["t_H"],
        "weakly_admissible": wa,
        "ordinary": e["ordinary"],
        "monodromy_graded": e["monodromy_graded"],
        "weight_graded": e["weight_graded"],
        "monodromy_weight_equal": e["mw_equal"],
    }


def _phin_check_mw(e):
    return {"equal": e["mw_equal"], "step_diff": e["step_diff"],
            "monodromy_graded": e["monodromy_graded"],
            "weight_graded": e["weight_graded"]}


def _phin_netcoh(e):
    ref = e["reference"]
    return {"a": ref["a"], "b": ref["b"], "c": ref["c"],
            "dim_C": e["dim_C"], "C_meets_middle_level": e["C_meets_middle_level"],
            "monodromy_weight_equal": e["mw_equal"], "inconclusive": None}


# ---------------------------------------------------------------------------
# filtered_complexes


def _ss_cech(e):
    h = e["h"]
    return {
        "e1": lambda v: v == e["e1"] and _signed(v) == e["euler"],
        "total_cohomology": lambda v: v == h and _euler(v) == e["euler"],
        # every class lives in the Cech row r = 0, with the weight label of
        # its own degree
        "abutment": {n: {"graded": {"0": h[n]}, "labels": {"0": int(n)}} for n in h},
        "degeneration_page": e["degeneration_page"],
        "equivariant_degeneration": True,
        "flag_complex_agrees": True,
    }


CYCLE_H = {"0": 1, "1": 2, "2": 1}


def _ss_steenbrink(e):
    return {
        "e1": lambda v: v == e["e1"] and _signed(v) == _euler(CYCLE_H),
        "total_cohomology": CYCLE_H,
        "weight_graded": {"0": {"0": 1}, "1": {"0": 1, "2": 1}, "2": {"2": 1}},
        "monodromy_rank": {"0": 0, "1": 1, "2": 0},
        "monodromy_nilpotent": True,
        "monodromy_weight_equal": {"0": True, "1": True, "2": True},
    }


def _ss_pages(e):
    chi = _euler(e["h"])
    return {
        "pages": lambda v: v == e["pages"] and all(_signed(pg) == chi for pg in v.values()),
        "total_cohomology": e["h"],
        "degeneration_page": e["degeneration_page"],
    }


# ---------------------------------------------------------------------------
# building


def _gauss(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def ball_closed_form(d, p, n):
    """(sphere sizes by radius, edge count) of the radius-n ball around a
    vertex of the building of PGL_(d+1), d in {1, 2}.

    d = 1 is the (p+1)-regular tree.  For d = 2 a vertex in position (a, b)
    from the centre lies at graph distance a + b; there are
    (p^2+p+1) p^(2a-2) vertices in position (a, 0) (and as many in (0, a))
    and (p^2+p+1)(p+1) p^(2a+2b-3) in position (a, b) with a, b >= 1.  A
    vertex on the boundary sphere has p + 2 neighbours inside the ball in
    position (a, 0) or (0, a), and 2p + 2 otherwise; inside, all
    2(p^2+p+1).
    """
    if d == 1:
        spheres = [1] + [(p + 1) * p ** (r - 1) for r in range(1, n + 1)]
        return spheres, sum(spheres) - 1
    k = p * p + p + 1
    axis = [0] + [k * p ** (2 * r - 2) for r in range(1, n + 1)]
    inner = [0, 0] + [(r - 1) * k * (p + 1) * p ** (2 * r - 3) for r in range(2, n + 1)]
    spheres = [1] + [2 * axis[r] + inner[r] for r in range(1, n + 1)]
    degree_sum = sum(spheres[:n]) * 2 * k
    if n:
        degree_sum += 2 * axis[n] * (p + 2) + inner[n] * (2 * p + 2)
    return spheres, degree_sum // 2


def _hnf_vertex(d, p):
    def ok(rows):
        if not (isinstance(rows, list) and len(rows) == d + 1):
            return False
        det = 1
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == d + 1
                    and all(_is_int(x) for x in row)):
                return False
            if any(row[:i]) or row[i] <= 0:
                return False
            if any(rows[k][i] >= row[i] for k in range(i)):
                return False
            det *= row[i]
        while det % p == 0:
            det //= p
        return det == 1 and any(x % p for row in rows for x in row)
    return ok


def _drinfeld_ball(e):
    d, p, n = e["d"], e["p"], e["n"]
    spheres, edges = ball_closed_form(d, p, n)
    total = sum(spheres)
    vertex_ok = _hnf_vertex(d, p)
    return {
        "d": d, "p": p, "n": n,
        "vertex_count": total,
        "counts_by_radius": {str(r): c for r, c in enumerate(spheres)},
        "edge_count": edges,
        "vertices": lambda v: (isinstance(v, list) and len(v) == total
                               and all(vertex_ok(x) for x in v)
                               and len({json.dumps(x) for x in v}) == total
                               and v[0] == [[int(i == j) for j in range(d + 1)]
                                            for i in range(d + 1)]),
    }


def flags_through_vertex(d, q, i):
    """Chains of i - 1 proper nonzero subspaces of F_q^(d+1), counted by
    choosing the largest member first."""
    def chains(n, length):
        if length == 0:
            return 1
        return sum(_gauss(n, k, q) * chains(k, length - 1) for k in range(1, n))
    return chains(d + 1, i - 1)


def _drinfeld_counts(e):
    d, q, i = e["d"], e["q"], e["i"]
    return {
        "d": d, "q": q, "i": i,
        "neighbor_count": sum(_gauss(d + 1, s, q) for s in range(1, d + 1)),
        "simplices_through_vertex": flags_through_vertex(d, q, i),
        "gaussian_binomials": {str(s): _gauss(d + 1, s, q) for s in range(d + 2)},
    }


def _drinfeld_arrangement(e):
    r, q = e["r"], e["q"]
    # Orlik-Terao: the Poincare polynomial is prod_{i=1}^{r} (1 + q^i t)
    poly = [1]
    for i in range(1, r + 1):
        poly = [a + q ** i * b for a, b in zip(poly + [0], [0] + poly)]
    return {"r": r, "q": q, "poincare": poly,
            "frobenius": [f"q^{m}" for m in range(r + 1)], "cross_check": "pass"}


def blowup_even_betti(r, q):
    """Even Betti numbers of P^r blown up along all rational linear
    subspaces of dimension 0..r-2 in increasing dimension: each centre, an
    iterated blow-up of P^j, adds its cohomology shifted by 1..r-j-1."""
    out = [1] * (r + 1)
    for j in range(0, r - 1):
        inner = blowup_even_betti(j, q)
        for shift in range(1, r - j):
            for m, c in enumerate(inner):
                out[m + shift] += _gauss(r + 1, j + 1, q) * c
    return out


def _drinfeld_blowup(e):
    r, q = e["r"], e["q"]
    even = [1, q * q + q + 2, 1] if r == 2 else blowup_even_betti(r, q)
    poincare = []
    for c in even:
        poincare += [c, 0]
    poincare.pop()
    return {"r": r, "q": q,
            "poincare": lambda v: v == poincare and v == v[::-1],
            "point_counts": {str(s): sum(c * q ** (s * k) for k, c in enumerate(even))
                             for s in (1, 2, 3)},
            "cross_check": "pass"}


BUILDERS = {
    "phin-analyze": _phin_analyze, "phin-check-mw": _phin_check_mw,
    "phin-netcoh": _phin_netcoh, "ss-cech": _ss_cech,
    "ss-steenbrink": _ss_steenbrink, "ss-pages": _ss_pages,
    "drinfeld-ball": _drinfeld_ball, "drinfeld-counts": _drinfeld_counts,
    "drinfeld-arrangement": _drinfeld_arrangement, "drinfeld-blowup": _drinfeld_blowup,
}


def expected_report(case) -> dict:
    exp = BUILDERS[case.kind](case.expect)
    if case.data is not None:
        digest = hashlib.sha256(case.data).hexdigest()
    else:
        params = dict({"command": case.kind}, **case.expect)
        digest = hashlib.sha256(json.dumps(params, sort_keys=True, separators=(",", ":"))
                                .encode()).hexdigest()
    exp.update({"schema": 1, "command": case.kind, "input_sha256": digest})
    if case.kind in CLAUSES:
        exp["clauses"] = _clauses(case.kind)
    return exp


def check(case, stdout: str):
    """Parse one report and check every field; raise CheckError if wrong."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as e:
        raise CheckError(f"{case.kind}: output is not JSON: {e}") from e
    _compare(expected_report(case), report, case.kind)
