"""Single command-line entry point over JSON inputs.

Every subcommand is one entry of COMMANDS: its help, the `serialize`
loader of its JSON input (None for a flag-only command), a function that
returns the report body, and its integer options.  `main` does the rest
once: it reads the input, adds the schema/command/input_sha256 header,
maps errors to exit codes and emits the report.  The sha256 is of the
input file's bytes, or, for a flag-only command, of the canonical JSON of
the command name and its required flags, which the report also echoes.
Reports include a clause map naming what each verifier boolean checks,
and are byte-identical across runs for a fixed input and seed.  Exit
codes: 1 invalid input schema, 2 precondition violation (every q must be
a prime power), 3 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from collections import Counter
from typing import Callable, NamedTuple

from .errors import (CrossCheckError, InconclusiveError, PreconditionError,
                     SchemaError)
from .exact_linalg import rat_str
from .filtration import graded_dims_to_json
from . import phin as ph
from . import serialize
from . import spectral as sp
from .arrangements import (blowup_poincare, point_count_oracle,
                           rational_arrangement_poincare)
from .drinfeld import (LatticeClass, ball, gaussian_binomial,
                       simplices_through_vertex)
from .nerve import cech_complex, cech_vs_total_check
from .steenbrink import analyze_steenbrink, first_page_dims

JSON_KW = dict(sort_keys=True, separators=(",", ":"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_input(path: str):
    """(parsed JSON, sha256 of its bytes); an unreadable input is a SchemaError."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as e:
        raise SchemaError(str(e)) from e
    try:
        return json.loads(data), _sha(data)
    except (ValueError, RecursionError) as e:
        raise SchemaError(f"input is not valid JSON: {e}") from e


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
                # "- " marks where the item starts, as in a YAML block sequence
                lines = _text_lines(v, indent + 1)
                out.append(f"{pad}- {lines[0][len(pad) + 2:]}" if lines else f"{pad}-")
                out.extend(lines[1:])
            else:
                out.append(f"{pad}- {v}")
    else:
        out.append(f"{pad}{obj}")
    return out


def _bidegrees(entries: dict) -> dict:
    return {f"{p},{q}": d for (p, q), d in sorted(entries.items())}


def _phin_analyze(D, args):
    adm = ph.is_weakly_admissible(D, seed=args.seed, budget=args.budget)
    try:
        ordinary = bool(ph.is_ordinary(D, rep=adm))
    except InconclusiveError:
        ordinary = "inconclusive"
    mono = ph.monodromy_filtration(D)
    weight = ph.weight_filtration(D)
    return {
        "dim": D.dim, "p": D.p, "a": D.a, "d": D.d,
        "hodge_numbers": graded_dims_to_json(ph.hodge_numbers(D)),
        "newton_numbers": graded_dims_to_json(ph.newton_numbers(D)),
        "t_N": rat_str(adm.t_N),
        "t_H": rat_str(adm.t_H),
        "weakly_admissible": {
            "verdict": adm.verdict,
            "certified": adm.certified,
            "method": adm.method,
            "subspaces_checked": adm.checked,
            "witness": adm.witness.to_strings() if adm.witness else None,
        },
        "ordinary": ordinary,
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


def _phin_check_mw(D, args):
    mfil = ph.monodromy_filtration(D)
    wfil = ph.weight_filtration(D)
    return {
        "equal": mfil.same_filtration(wfil),
        "step_diff": [{"r": rat_str(r), "monodromy_dim": a, "weight_dim": b}
                      for r, a, b in mfil.step_diff(wfil)],
        "monodromy_graded": graded_dims_to_json(mfil.graded_dims()),
        "weight_graded": graded_dims_to_json(wfil.graded_dims()),
        "clauses": {"equal": "M_r = P_r for all r"},
    }


def _phin_netcoh(D, args):
    rep = ph.reduced_module_check(D)
    return {
        "a": rep.a, "b": rep.b, "c": rep.c,
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


def _ss_pages(fc, args):
    if args.max_page < 0:
        raise PreconditionError("--max-page must be >= 0")
    return {
        "pages": {str(r): _bidegrees(sp.e_page(fc, r).entries)
                  for r in range(args.max_page + 1)},
        "total_cohomology": {str(n): d
                             for n, d in sp.total_cohomology_dims(fc).items()},
        "degeneration_page": sp.degeneration_page(fc, args.max_page),
        "clauses": {
            "degeneration_page": "smallest r with d_s = 0 for all r <= s <= "
                                 "bound, null when censored at the bound",
        },
    }


def _ss_cech(nd, args):
    fc = cech_complex(nd)
    h = sp.total_cohomology_dims(fc)
    bound = sp.stable_page_index(fc) + 1
    abut = {}
    for n in h:
        pieces = sp.abutment_labels(fc, n).items()
        abut[str(n)] = {"graded": {str(p): info["dim"] for p, info in pieces},
                        "labels": {str(p): info["label"] for p, info in pieces}}
    return {
        "e1": _bidegrees(sp.e_page(fc, 1).entries),
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


def _ss_steenbrink(sd, args):
    an = analyze_steenbrink(sd)
    return {
        "e1": _bidegrees(first_page_dims(sd)),
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


def _drinfeld_ball(_, args):
    b = ball(LatticeClass.base(args.d, args.p), args.n, args.p, args.d,
             budget=args.budget)
    return {
        "vertex_count": len(b.vertices),
        "counts_by_radius": {str(r): c
                             for r, c in sorted(Counter(b.distance.values()).items())},
        "edge_count": len(b.adjacency),
        "vertices": [[list(row) for row in v.rep] for v in b.vertices],
    }


def _drinfeld_counts(_, args):
    d, q = args.d, args.q
    return {
        "neighbor_count": sum(gaussian_binomial(d + 1, s, q) for s in range(1, d + 1)),
        "simplices_through_vertex": simplices_through_vertex(d, q, args.i),
        "gaussian_binomials": {str(s): gaussian_binomial(d + 1, s, q)
                               for s in range(0, d + 2)},
    }


def _drinfeld_arrangement(_, args):
    poincare = rational_arrangement_poincare(args.r, args.q)
    return {
        "poincare": list(poincare),
        "frobenius": [f"q^{m}" for m in range(len(poincare))],
        "cross_check": "pass",
        "clauses": {
            "cross_check": "the split Gysin recursion and the intersection-"
                           "lattice Moebius function agree",
        },
    }


def _drinfeld_blowup(_, args):
    poincare = blowup_poincare(args.r, args.q)
    return {
        "poincare": list(poincare),
        "point_counts": {str(s): point_count_oracle(("iterated_blowup", args.r), args.q, s)
                         for s in (1, 2, 3)},
        "cross_check": "pass",
        "clauses": {
            "cross_check": "evaluating the even Poincare polynomial at q^s "
                           "reproduces the point count for s = 1, 2, 3",
        },
    }


class Command(NamedTuple):
    help: str
    # name of the `serialize` loader, or None: flags only; looked up per call,
    # so that perfbench's tracer, which rebinds module attributes, sees it
    loader: str | None
    body: Callable       # (loaded input or None, parsed args) -> report body
    options: tuple = ()  # (flag, default, help); default None: required


COMMANDS = {
    "phin-analyze": Command(
        "full analysis of a (phi,N)-module", "load_phin", _phin_analyze,
        (("seed", 0, None),
         ("budget", 64, "random subspaces sampled by the admissibility fallback"))),
    "phin-check-mw": Command("monodromy vs weight filtration", "load_phin", _phin_check_mw),
    "phin-netcoh": Command("clause checks on the quotient by C", "load_phin", _phin_netcoh),
    "ss-pages": Command("spectral sequence pages of a filtered complex",
                        "load_filtered_complex", _ss_pages, (("max-page", 6, None),)),
    "ss-cech": Command("nerve Cech complex analysis", "load_nerve", _ss_cech),
    "ss-steenbrink": Command("weight double complex analysis", "load_steenbrink",
                             _ss_steenbrink),
    "drinfeld-ball": Command("enumerate a building ball", None, _drinfeld_ball,
                             (("d", None, None), ("p", None, None), ("n", None, None),
                              ("budget", 100_000, None))),
    "drinfeld-counts": Command("neighbor and simplex counts", None, _drinfeld_counts,
                               (("d", None, None), ("q", None, None), ("i", None, None))),
    "drinfeld-arrangement": Command("arrangement complement Betti numbers", None,
                                    _drinfeld_arrangement, (("r", None, None), ("q", None, None))),
    "drinfeld-blowup": Command("iterated blow-up Poincare polynomial", None,
                               _drinfeld_blowup, (("r", None, None), ("q", None, None))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    ap = argparse.ArgumentParser(
        prog="weightfil",
        description="Exact-arithmetic analyses of filtered (phi,N)-modules, "
                    "filtered-complex spectral sequences, and building / "
                    "arrangement combinatorics.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.loader:
            p.add_argument("input", help="JSON input file, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default="json")
        for flag, default, help_ in cmd.options:
            p.add_argument(f"--{flag}", type=int, default=default,
                           required=default is None, help=help_)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    flags = {flag: getattr(args, flag)
             for flag, default, _ in cmd.options if default is None}
    try:
        if cmd.loader:
            obj, digest = _read_input(args.input)
            data = getattr(serialize, cmd.loader)(obj)
        else:
            data = None
            params = {"command": args.command, **flags}
            digest = _sha(json.dumps(params, **JSON_KW).encode())
        report = {"schema": serialize.SCHEMA_VERSION, "command": args.command,
                  "input_sha256": digest, **flags, **cmd.body(data, args)}
    except SchemaError as e:
        sys.stderr.write(f"schema error: {e}\n")
        return 1
    except PreconditionError as e:
        sys.stderr.write(f"precondition violated: {e}\n")
        return 2
    except CrossCheckError as e:
        sys.stderr.write(f"cross-check failure: {e}\n")
        return 3
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
