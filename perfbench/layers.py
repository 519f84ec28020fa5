"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds the public functions of each weightfil layer,
wherever a module or class holds them, to wrappers that record calls and
self time (the span minus the spans of traced functions it calls).  Where
a layer can redo work, the wrapper also counts distinct arguments within
each report; `distinct_ratio` is their sum over reports divided by calls.
Tracing is for the separate traced run only: end-to-end metrics are taken
with nothing installed.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# (metric name, module, attribute path, distinct-argument key or None)
TARGETS = [
    ("exact_linalg.matmul", "exact_linalg", "QMatrix.__matmul__", None),
    ("exact_linalg.power", "exact_linalg", "QMatrix.power", None),
    ("exact_linalg.rref", "exact_linalg", "_rref", None),
    ("exact_linalg.kernel", "exact_linalg", "kernel", None),
    ("exact_linalg.subspace_sum", "exact_linalg", "subspace_sum", None),
    ("exact_linalg.subspace_intersect", "exact_linalg", "subspace_intersect", None),
    ("exact_linalg.quotient", "exact_linalg", "QuotientMap.__init__", None),
    ("exact_linalg.quotient", "exact_linalg", "QuotientMap.coords", None),
    ("exact_linalg.char_poly", "exact_linalg", "char_poly", None),
    ("exact_linalg.factor", "exact_linalg", "factor_rational_poly", None),
    ("filtration.make", "filtration", "IndexedFiltration.make", None),
    ("filtration.at", "filtration", "IndexedFiltration.at", None),
    ("phin.convolution_step", "phin", "convolution_step", lambda a, k: a),
    ("phin.slope_decomposition", "phin", "slope_decomposition", lambda a, k: a),
    ("phin.is_weakly_admissible", "phin", "is_weakly_admissible", None),
    ("spectral.e_page", "spectral", "e_page", lambda a, k: (id(a[0]), a[1])),
    ("spectral.validate", "spectral", "FilteredComplex.validate", None),
    ("spectral.abutment_filtration", "spectral", "abutment_filtration", None),
    ("nerve.cech_complex", "nerve", "cech_complex", None),
    ("nerve.flag_complex", "nerve", "flag_complex", None),
    ("nerve.validate", "nerve", "NerveDatum.validate", None),
    ("steenbrink.double_complex", "steenbrink", "steenbrink_double_complex", None),
    ("steenbrink.model", "steenbrink", "_Model.__init__", None),
    ("steenbrink.analyze", "steenbrink", "analyze_steenbrink", None),
    ("drinfeld.vertex_neighbors", "drinfeld", "vertex_neighbors",
     lambda a, k: (a[0].rep,) + tuple(a[1:])),
    ("drinfeld.hnf", "drinfeld", "hnf", None),
    ("drinfeld.ball", "drinfeld", "ball", None),
    ("galois.gf", "galois", "GF", lambda a, k: a),
    ("galois.enumerate_subspaces", "galois", "enumerate_subspaces", None),
    ("arrangements.gysin", "arrangements", "_gysin_betti", None),
    ("arrangements.mobius", "arrangements", "_mobius_betti", None),
    ("arrangements.blowup", "arrangements", "blowup_poincare", None),
    ("serialize.load", "serialize", "load_phin", None),
    ("serialize.load", "serialize", "load_nerve", None),
    ("serialize.load", "serialize", "load_steenbrink", None),
    ("serialize.load", "serialize", "load_filtered_complex", None),
    ("cli.emit", "cli", "_emit", None),
]

# the fields each layer reports: calls, self_s, distinct_ratio
LAYER_FIELDS = [
    ("exact_linalg.matmul", "cs"), ("exact_linalg.power", "cs"),
    ("exact_linalg.rref", "cs"), ("exact_linalg.kernel", "cs"),
    ("exact_linalg.subspace_sum", "cs"), ("exact_linalg.subspace_intersect", "cs"),
    ("exact_linalg.quotient", "cs"), ("exact_linalg.char_poly", "cs"),
    ("exact_linalg.factor", "cs"),
    ("filtration.make", "cs"), ("filtration.at", "c"),
    ("phin.convolution_step", "csd"), ("phin.slope_decomposition", "csd"),
    ("phin.is_weakly_admissible", "s"),
    ("spectral.e_page", "csd"), ("spectral.validate", "cs"),
    ("spectral.abutment_filtration", "cs"),
    ("nerve.cech_complex", "cs"), ("nerve.flag_complex", "cs"), ("nerve.validate", "cs"),
    ("steenbrink.double_complex", "cs"), ("steenbrink.model", "cs"),
    ("steenbrink.analyze", "cs"),
    ("drinfeld.vertex_neighbors", "csd"), ("drinfeld.hnf", "cs"), ("drinfeld.ball", "cs"),
    ("galois.gf", "csd"), ("galois.enumerate_subspaces", "cs"),
    ("arrangements.gysin", "s"), ("arrangements.mobius", "s"), ("arrangements.blowup", "s"),
    ("serialize.load", "cs"), ("cli.emit", "s"),
]
_FIELD = {"c": ("calls", "count", "lower"), "s": ("self_s", "s", "lower"),
          "d": ("distinct_ratio", "ratio", "higher")}

# (metric name, unit, better) for every per-layer metric, in output order
METRICS = [(f"{layer}.{_FIELD[f][0]}",) + _FIELD[f][1:]
           for layer, fields in LAYER_FIELDS for f in fields]
METRICS += [("exact_linalg.max_entry_bits", "bits", "lower"),
            ("exact_linalg.max_dim", "count", "lower"),
            ("phin.subspaces_checked", "count", "lower")]


def _bits(values) -> int:
    best = 0
    for x in values:
        if isinstance(x, Fraction):
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class _Stat:
    __slots__ = ("calls", "self_s", "distinct", "seen")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.distinct = 0
        self.seen = set()


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []
        self.max_bits = 0
        self.max_dim = 0
        self.subspaces_checked = 0

    def install(self):
        mods = {name: sys.modules[f"weightfil.{name}"]
                for name in {t[1] for t in TARGETS}}
        holders = [m for k, m in sys.modules.items()
                   if k == "weightfil" or k.startswith("weightfil.")]
        for metric, mod, path, key in TARGETS:
            owner = mods[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = self._wrap(metric, fn, key, path)
            if outer:
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
            else:
                for m in holders:
                    for name, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, name, wrapped)

    def begin_report(self):
        for st in self.stats.values():
            st.distinct += len(st.seen)
            st.seen.clear()

    def _wrap(self, metric, fn, key, path):
        st = self.stats.setdefault(metric, _Stat())
        stack = self.stack
        clock = time.perf_counter
        gauge = {"QMatrix.__matmul__": self._gauge_matmul, "_rref": self._gauge_rref,
                 "is_weakly_admissible": self._gauge_admissibility}.get(path)

        def wrapper(*args, **kwargs):
            st.calls += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if key is not None or gauge is not None:
                # bookkeeping is kept out of the caller's self time
                b0 = clock()
                if key is not None:
                    st.seen.add(key(args, kwargs))
                if gauge is not None:
                    gauge(args, out)
                if stack:
                    stack[-1] += clock() - b0
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _gauge_matmul(self, args, out):
        a, b = args
        self.max_dim = max(self.max_dim, a.rows, a.cols, b.cols)
        self.max_bits = max(self.max_bits, _bits(out.entries))

    def _gauge_rref(self, args, out):
        rows = args[0]
        if rows:
            self.max_dim = max(self.max_dim, len(rows), len(rows[0]))
        self.max_bits = max(self.max_bits, max((_bits(r) for r in out[0]), default=0))

    def _gauge_admissibility(self, args, out):
        self.subspaces_checked += out.checked

    def metrics(self) -> dict:
        self.begin_report()
        out = {}
        for name, unit, _ in METRICS:
            base, field = name.rsplit(".", 1)
            if base in self.stats:
                st = self.stats[base]
                value = {"calls": st.calls, "self_s": st.self_s,
                         "distinct_ratio": st.distinct / st.calls if st.calls else 0.0}[field]
            else:
                value = {"exact_linalg.max_entry_bits": self.max_bits,
                         "exact_linalg.max_dim": self.max_dim,
                         "phin.subspaces_checked": self.subspaces_checked}[name]
            out[name] = {"value": value, "unit": unit}
        return out
