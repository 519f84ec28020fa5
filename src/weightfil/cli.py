"""Single command-line entry point over JSON inputs.

Every report echoes a sha256 of the input (file bytes, or the canonical
parameter string for flag-only commands), includes a clause map naming
what each verifier boolean checks, and is byte-identical across runs for a
fixed input and seed.  Exit codes: 1 invalid input schema, 2 precondition
violation, 3 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .errors import (CrossCheckError, InconclusiveError, PreconditionError,
                     SchemaError)
from .exact_linalg import rat_str
from .filtration import graded_dims_to_json
from . import phin as ph
from . import spectral as sp
from .arrangements import (blowup_poincare, point_count_oracle,
                           rational_arrangement_poincare)
from .drinfeld import (LatticeClass, ball, gaussian_binomial,
                       simplices_through_vertex)
from .nerve import cech_complex, cech_vs_total_check
from .serialize import (SCHEMA_VERSION, load_filtered_complex, load_nerve,
                        load_phin, load_steenbrink)
from .steenbrink import analyze_steenbrink, first_page_dims

JSON_KW = dict(sort_keys=True, separators=(",", ":"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_input(path: str):
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise SchemaError(f"input is not valid JSON: {e}") from e
    return obj, _sha(data)


def _emit(report: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, **JSON_KW) + "\n")
    else:
        for line in _text_lines(report, indent=0):
            sys.stdout.write(line + "\n")


def _text_lines(obj, indent):
    pad = "  " * indent
    out = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                out.append(f"{pad}{k}:")
                out.extend(_text_lines(v, indent + 1))
            else:
                out.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                out.extend(_text_lines(v, indent + 1))
            else:
                out.append(f"{pad}- {v}")
    else:
        out.append(f"{pad}{obj}")
    return out


def _pages_json(fc, max_page):
    pages = {}
    for r in range(0, max_page + 1):
        page = sp.e_page(fc, r)
        pages[str(r)] = {f"{p},{q}": dim
                         for (p, q), dim in sorted(page.entries.items())}
    return pages


def cmd_phin_analyze(args):
    obj, digest = _read_input(args.input)
    D = load_phin(obj)
    ph.validate(D)
    tn, th = ph.t_numbers(D)
    adm = ph.is_weakly_admissible(D, seed=args.seed, budget=args.budget)
    try:
        ordinary = ph.is_ordinary(D, seed=args.seed, budget=args.budget)
        ordinary_out = bool(ordinary)
    except InconclusiveError:
        ordinary_out = "inconclusive"
    mono = ph.monodromy_filtration(D)
    weight = ph.weight_filtration(D)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "phin-analyze",
        "input_sha256": digest,
        "dim": D.dim,
        "p": D.p, "a": D.a, "d": D.d,
        "hodge_numbers": graded_dims_to_json(ph.hodge_numbers(D)),
        "newton_numbers": graded_dims_to_json(ph.newton_numbers(D)),
        "t_N": rat_str(tn),
        "t_H": rat_str(th),
        "weakly_admissible": {
            "verdict": adm.verdict,
            "certified": adm.certified,
            "method": adm.method,
            "subspaces_checked": adm.checked,
            "witness": adm.witness.to_strings() if adm.witness else None,
        },
        "ordinary": ordinary_out,
        "monodromy_graded": graded_dims_to_json(mono.graded_dims()),
        "weight_graded": graded_dims_to_json(weight.graded_dims()),
        "monodromy_weight_equal": mono.same_filtration(weight),
        "clauses": {
            "weakly_admissible": "t_N = t_H and t_N >= t_H on every "
                                 "(phi,N)-stable subspace with the induced filtration",
            "ordinary": "weakly admissible, integral slopes, and slope "
                        "multiplicities equal Hodge numbers degreewise",
            "monodromy_weight_equal": "convolution filtration of N equals the "
                                      "slope-weight filtration of phi step by step",
        },
    }
    _emit(report, args.format)


def cmd_phin_check_mw(args):
    obj, digest = _read_input(args.input)
    D = load_phin(obj)
    ph.validate(D)
    mfil = ph.monodromy_filtration(D)
    wfil = ph.weight_filtration(D)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "phin-check-mw",
        "input_sha256": digest,
        "equal": mfil.same_filtration(wfil),
        "step_diff": [{"r": rat_str(r), "monodromy_dim": a, "weight_dim": b}
                      for r, a, b in mfil.step_diff(wfil)],
        "monodromy_graded": graded_dims_to_json(mfil.graded_dims()),
        "weight_graded": graded_dims_to_json(wfil.graded_dims()),
        "clauses": {
            "equal": "M_r = P_r for all r",
        },
    }
    _emit(report, args.format)


def cmd_phin_netcoh(args):
    obj, digest = _read_input(args.input)
    D = load_phin(obj)
    rep = ph.reduced_module_check(D)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "phin-netcoh",
        "input_sha256": digest,
        "a": rep.a,
        "b": rep.b,
        "c": rep.c,
        "dim_C": rep.dim_c,
        "C_meets_middle_level": rep.c_meets_middle,
        "monodromy_weight_equal": rep.mw_holds,
        "inconclusive": rep.inconclusive,
        "clauses": {
            "a": "on the quotient by C, the Hodge and slope-index filtrations "
                 "are opposite",
            "b": "the slope-index filtration is phi-stable and phi acts by "
                 "q^(d-r) on its r-th graded piece",
            "c": "the slope-index filtration equals the kernel filtration and "
                 "the image filtration of the induced nilpotent operator",
        },
    }
    _emit(report, args.format)


def cmd_ss_pages(args):
    if args.max_page < 0:
        raise PreconditionError("--max-page must be >= 0")
    obj, digest = _read_input(args.input)
    fc = load_filtered_complex(obj)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "ss-pages",
        "input_sha256": digest,
        "pages": _pages_json(fc, args.max_page),
        "total_cohomology": {str(n): d
                             for n, d in sp.total_cohomology_dims(fc).items()},
        "degeneration_page": sp.degeneration_page(fc, args.max_page),
        "clauses": {
            "degeneration_page": "smallest r with d_s = 0 for all r <= s <= "
                                 "bound, null when censored at the bound",
        },
    }
    _emit(report, args.format)


def cmd_ss_cech(args):
    obj, digest = _read_input(args.input)
    nd = load_nerve(obj)
    fc = cech_complex(nd)
    h = sp.total_cohomology_dims(fc)
    bound = sp.stable_page_index(fc) + 1
    abut = {}
    for n in sorted(h):
        fl = sp.abutment_filtration(fc, n)
        abut[str(n)] = {
            "graded": graded_dims_to_json(fl.graded_dims()),
            "labels": {str(p): info["label"]
                       for p, info in sp.abutment_labels(fc, n).items()},
        }
    report = {
        "schema": SCHEMA_VERSION,
        "command": "ss-cech",
        "input_sha256": digest,
        "e1": {f"{p},{q}": d for (p, q), d in sorted(sp.e_page(fc, 1).entries.items())},
        "total_cohomology": {str(n): d for n, d in h.items()},
        "abutment": abut,
        "degeneration_page": sp.degeneration_page(fc, bound),
        "equivariant_degeneration": sp.equivariant_degeneration_check(fc),
        "flag_complex_agrees": cech_vs_total_check(nd, fc),
        "clauses": {
            "equivariant_degeneration": "all d_r for r >= 2 vanish, forced by "
                                        "the weight labels on the rows",
            "flag_complex_agrees": "the flag-indexed covering complex computes "
                                   "the same cohomology as the nerve complex",
        },
    }
    _emit(report, args.format)


def cmd_ss_steenbrink(args):
    obj, digest = _read_input(args.input)
    sd = load_steenbrink(obj)
    an = analyze_steenbrink(sd)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "ss-steenbrink",
        "input_sha256": digest,
        "e1": {f"{p},{q}": d for (p, q), d in sorted(first_page_dims(sd).items())},
        "total_cohomology": {str(n): d for n, d in an.h_dims.items()},
        "weight_graded": {str(n): {str(w): g for w, g in sorted(wg.items())}
                          for n, wg in an.weight_graded.items()},
        "monodromy_rank": {str(n): r for n, r in an.monodromy_rank.items()},
        "monodromy_nilpotent": an.monodromy_nilpotent_ok,
        "monodromy_weight_equal": {str(n): v for n, v in an.mw_equal.items()},
        "clauses": {
            "monodromy_weight_equal": "per degree, the convolution filtration "
                                      "of the induced monodromy equals the "
                                      "weight filtration of the abutment",
            "monodromy_nilpotent": "the induced monodromy vanishes to the "
                                   "order of the deepest stratum level",
        },
    }
    _emit(report, args.format)


def _params_digest(params: dict) -> str:
    return _sha(json.dumps(params, **JSON_KW).encode())


def cmd_drinfeld_ball(args):
    params = {"command": "drinfeld-ball", "d": args.d, "p": args.p, "n": args.n}
    b = ball(LatticeClass.base(args.d, args.p), args.n, args.p, args.d,
             budget=args.budget)
    by_radius = {}
    for i, v in enumerate(b.vertices):
        by_radius.setdefault(b.distance[i], 0)
        by_radius[b.distance[i]] += 1
    report = {
        "schema": SCHEMA_VERSION,
        "command": "drinfeld-ball",
        "input_sha256": _params_digest(params),
        "d": args.d, "p": args.p, "n": args.n,
        "vertex_count": len(b.vertices),
        "counts_by_radius": {str(r): c for r, c in sorted(by_radius.items())},
        "edge_count": len(b.adjacency),
        "vertices": [[list(row) for row in v.rep] for v in b.vertices],
    }
    _emit(report, args.format)


def cmd_drinfeld_counts(args):
    params = {"command": "drinfeld-counts", "d": args.d, "q": args.q, "i": args.i}
    neighbor_count = sum(gaussian_binomial(args.d + 1, s, args.q)
                         for s in range(1, args.d + 1))
    report = {
        "schema": SCHEMA_VERSION,
        "command": "drinfeld-counts",
        "input_sha256": _params_digest(params),
        "d": args.d, "q": args.q, "i": args.i,
        "neighbor_count": neighbor_count,
        "simplices_through_vertex": simplices_through_vertex(args.d, args.q, args.i),
        "gaussian_binomials": {str(s): gaussian_binomial(args.d + 1, s, args.q)
                               for s in range(0, args.d + 2)},
    }
    _emit(report, args.format)


def cmd_drinfeld_arrangement(args):
    params = {"command": "drinfeld-arrangement", "r": args.r, "q": args.q}
    poincare = rational_arrangement_poincare(args.r, args.q)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "drinfeld-arrangement",
        "input_sha256": _params_digest(params),
        "r": args.r, "q": args.q,
        "poincare": list(poincare),
        "frobenius": [f"q^{m}" for m in range(len(poincare))],
        "cross_check": "pass",
        "clauses": {
            "cross_check": "the split Gysin recursion and the intersection-"
                           "lattice Moebius function agree",
        },
    }
    _emit(report, args.format)


def cmd_drinfeld_blowup(args):
    params = {"command": "drinfeld-blowup", "r": args.r, "q": args.q}
    poincare = blowup_poincare(args.r, args.q)
    counts = {str(s): point_count_oracle(("iterated_blowup", args.r), args.q, s)
              for s in (1, 2, 3)}
    report = {
        "schema": SCHEMA_VERSION,
        "command": "drinfeld-blowup",
        "input_sha256": _params_digest(params),
        "r": args.r, "q": args.q,
        "poincare": list(poincare),
        "point_counts": counts,
        "cross_check": "pass",
        "clauses": {
            "cross_check": "evaluating the even Poincare polynomial at q^s "
                           "reproduces the point count for s = 1, 2, 3",
        },
    }
    _emit(report, args.format)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weightfil",
        description="Exact-arithmetic analyses of filtered (phi,N)-modules, "
                    "filtered-complex spectral sequences, and building / "
                    "arrangement combinatorics.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="JSON input file, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("phin-analyze", help="full analysis of a (phi,N)-module")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=64,
                   help="random subspaces sampled by the admissibility fallback")
    p.set_defaults(func=cmd_phin_analyze)

    p = sub.add_parser("phin-check-mw", help="monodromy vs weight filtration")
    common(p)
    p.set_defaults(func=cmd_phin_check_mw)

    p = sub.add_parser("phin-netcoh", help="clause checks on the quotient by C")
    common(p)
    p.set_defaults(func=cmd_phin_netcoh)

    p = sub.add_parser("ss-pages", help="spectral sequence pages of a filtered complex")
    common(p)
    p.add_argument("--max-page", type=int, default=6)
    p.set_defaults(func=cmd_ss_pages)

    p = sub.add_parser("ss-cech", help="nerve Cech complex analysis")
    common(p)
    p.set_defaults(func=cmd_ss_cech)

    p = sub.add_parser("ss-steenbrink", help="weight double complex analysis")
    common(p)
    p.set_defaults(func=cmd_ss_steenbrink)

    p = sub.add_parser("drinfeld-ball", help="enumerate a building ball")
    common(p, needs_input=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(func=cmd_drinfeld_ball)

    p = sub.add_parser("drinfeld-counts", help="neighbor and simplex counts")
    common(p, needs_input=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=cmd_drinfeld_counts)

    p = sub.add_parser("drinfeld-arrangement", help="arrangement complement Betti numbers")
    common(p, needs_input=False)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_drinfeld_arrangement)

    p = sub.add_parser("drinfeld-blowup", help="iterated blow-up Poincare polynomial")
    common(p, needs_input=False)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_drinfeld_blowup)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except SchemaError as e:
        sys.stderr.write(f"schema error: {e}\n")
        return 1
    except FileNotFoundError as e:
        sys.stderr.write(f"schema error: {e}\n")
        return 1
    except PreconditionError as e:
        sys.stderr.write(f"precondition violated: {e}\n")
        return 2
    except CrossCheckError as e:
        sys.stderr.write(f"cross-check failure: {e}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
