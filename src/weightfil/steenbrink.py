"""Steenbrink-style weight double complex built from strata cohomology data.

The input records, per level t >= 1, the strata given by t-fold
intersections of components, the graded dimensions of their cohomology,
restriction maps one level deeper (same degree) and Gysin maps one level
shallower (degree +2).  The double complex has summands

    (i, j, t, stratum)  with  i, j >= 0,  j + 1 <= t <= i + j + 1,

holding H^(i+j+1-t)(stratum); the two differential families are the Gysin
maps (i,j,t) -> (i+1,j,t-1) twisted by (-1)^j and the restriction maps
(i,j,t) -> (i,j+1,t+1).  The weight level of a summand is k = t - 2j - 1;
filtering by it yields the weight spectral sequence, whose first page at
(-k, i+k) is the sum over j >= max(0,-k) of H^(i-2j-k) of the level
2j+k+1 strata.  The monodromy endomorphism is the index shift
(i,j,t) -> (i-1,j+1,t), signed so that it is a chain map.  The summands and
the blocks of both maps go through the shared block-layout builder in
`spectral` (`block_matrix`, `filtered_total_complex`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CrossCheckError, PreconditionError
from .exact_linalg import QMatrix
from .filtration import INCREASING, IndexedFiltration
from .phin import _n_chain, convolution_step
from .spectral import (DirectSum, FilteredComplex, abutment_filtration, abutment_quotient,
                       block_matrix, e_page, filtered_total_complex, stable_page_index,
                       total_cohomology_dims)


@dataclass
class SteenbrinkDatum:
    d: int                      # center degree (dimension of the situation)
    levels: dict                # t -> ordered list of stratum names
    dims: dict                  # name -> {degree m: dim}
    restrictions: dict          # (name_t, name_{t+1}) -> {m: QMatrix}
    gysins: dict                # (name_t, name_{t-1}) -> {m: QMatrix}

    def __post_init__(self):
        self.validate()

    def stratum_dim(self, name: str, m: int) -> int:
        return self.dims.get(name, {}).get(m, 0)

    def max_level(self) -> int:
        return max((t for t, names in self.levels.items() if names), default=0)

    def max_degree(self) -> int:
        return max((m for v in self.dims.values() for m, d in v.items() if d),
                   default=0)

    def validate(self):
        for t, names in self.levels.items():
            if t < 1:
                raise PreconditionError("levels are indexed from 1")
            for nm in names:
                if nm not in self.dims:
                    raise PreconditionError(f"stratum {nm!r} has no dimension data")
        for (n1, n2), mats in self.restrictions.items():
            for m, mat in mats.items():
                if mat.cols != self.stratum_dim(n1, m) or mat.rows != self.stratum_dim(n2, m):
                    raise PreconditionError(
                        f"restriction {n1!r}->{n2!r} wrong shape in degree {m}")
        for (n1, n2), mats in self.gysins.items():
            for m, mat in mats.items():
                if mat.cols != self.stratum_dim(n1, m) or mat.rows != self.stratum_dim(n2, m + 2):
                    raise PreconditionError(
                        f"gysin {n1!r}->{n2!r} wrong shape in degree {m}")


class _Model:
    """The double complex's summands (key (i, j, t, name), weight filtration
    index p = -k, q = n - p, dim) per total degree n = i + j, in coordinate
    order, and its differential and monodromy blocks."""

    def __init__(self, sd: SteenbrinkDatum):
        self.sd = sd
        tmax = sd.max_level()
        nmax = sd.max_degree() + tmax - 1 if tmax else 0
        self.summands = {}
        for n in range(0, max(nmax, 0) + 1):
            lst = []
            for j in range(0, n + 1):
                i = n - j
                for t in range(j + 1, i + j + 2):
                    for name in sd.levels.get(t, []):
                        dim = sd.stratum_dim(name, i + j + 1 - t)
                        if dim:
                            p = 2 * j + 1 - t
                            lst.append(((i, j, t, name), p, n - p, dim))
            self.summands[n] = lst

    def layout(self, n: int) -> DirectSum:
        return DirectSum((key, dim) for key, _, _, dim in self.summands.get(n, []))

    def blocks(self, key):
        """Gysin maps (i,j,t) -> (i+1,j,t-1) twisted by (-1)^j, defined for
        t >= j + 2, and restriction maps (i,j,t) -> (i,j+1,t+1)."""
        i, j, t, name = key
        m = i + j + 1 - t
        if t >= j + 2:
            for nm2 in self.sd.levels.get(t - 1, []):
                mat = self.sd.gysins.get((name, nm2), {}).get(m)
                if mat is not None:
                    yield (i + 1, j, t - 1, nm2), mat, -1 if j % 2 else 1
        for nm2 in self.sd.levels.get(t + 1, []):
            mat = self.sd.restrictions.get((name, nm2), {}).get(m)
            if mat is not None:
                yield (i, j + 1, t + 1, nm2), mat, 1

    def shift(self, key):
        i, j, t, name = key
        if i >= 1 and t >= j + 2:
            dim = self.sd.stratum_dim(name, i + j + 1 - t)
            yield (i - 1, j + 1, t, name), QMatrix.identity(dim), -1 if i % 2 else 1

    def monodromy_matrix(self, n: int) -> QMatrix:
        """The shift (i,j,t) -> (i-1,j+1,t), signed by (-1)^i, on degree n."""
        return block_matrix(self.layout(n), self.layout(n), self.shift)


def steenbrink_double_complex(sd: SteenbrinkDatum, model: _Model | None = None) -> FilteredComplex:
    """Total complex of the weight double complex, filtered by weight level
    (F^p collects summands with t - 2j - 1 <= -p); `model` reuses a _Model(sd)."""
    model = model or _Model(sd)
    tmax = sd.max_level()
    levels = range(-(tmax - 1) if tmax else 0, tmax + 1)
    try:
        # each summand is pure of weight n + k = q, Tate twists included
        return filtered_total_complex(model.summands, model.blocks, levels, lambda p, q: q)
    except PreconditionError as e:
        raise PreconditionError(f"inconsistent strata maps: {e}") from e


def first_page_dims(sd: SteenbrinkDatum) -> dict:
    """Expected E_1 dims {( -k, i+k ): dim} straight from the strata data:
    sum over j >= max(0, -k) of dim H^(i-2j-k) of the level (2j+k+1) strata."""
    out = {}
    tmax = sd.max_level()
    mmax = sd.max_degree()
    for n in range(0, mmax + tmax):
        for k in range(-(tmax - 1), tmax):
            tot = 0
            j = 0
            while True:
                t = 2 * j + k + 1
                if t > tmax:
                    break
                if j >= max(0, -k) and t >= 1:
                    for name in sd.levels.get(t, []):
                        tot += sd.stratum_dim(name, n - 2 * j - k)
                j += 1
            if tot:
                out[(-k, n + k)] = tot
    return out


@dataclass
class SteenbrinkAnalysis:
    h_dims: dict                 # n -> dim H^n(total)
    weight_graded: dict          # n -> {weight: dim}
    monodromy: dict              # n -> QMatrix on H^n coordinates
    monodromy_rank: dict         # n -> rank
    monodromy_nilpotent_ok: bool
    weight_filtrations: dict     # n -> increasing IndexedFiltration (P_r)
    monodromy_filtrations: dict  # n -> increasing IndexedFiltration (M_r)
    mw_equal: dict               # n -> bool


def analyze_steenbrink(sd: SteenbrinkDatum) -> SteenbrinkAnalysis:
    model = _Model(sd)
    fc = steenbrink_double_complex(sd, model)
    nus = {n: model.monodromy_matrix(n) for n in range(len(model.summands) + 1)}
    # the shift must commute with the assembled total differential
    for n in sorted(model.summands):
        d_n = fc.complex.diff(n)
        if not (nus[n + 1] @ d_n - d_n @ nus[n]).is_zero():
            raise PreconditionError("monodromy shift is not a chain map; "
                                    "inconsistent strata maps")
    h_dims = total_cohomology_dims(fc)
    weight_graded, monodromy, ranks, wfils, mfils, mw = {}, {}, {}, {}, {}, {}
    lo, hi = fc.p_range()
    e_inf = e_page(fc, stable_page_index(fc)).entries
    # N^(max level) vanishes on the abutment: levels deeper than the maximal
    # stratum intersection do not exist
    nilpotent_ok = True
    for n in h_dims:
        qm = abutment_quotient(fc, n)
        fl = abutment_filtration(fc, n)
        graded = fl.graded_dims()
        # two routes to H^n and its graded dims: the pairing's E_infinity,
        # and the kernel / image quotient with its per-level subspaces
        if qm.dim != h_dims[n] or graded != {p: d for (p, q), d in e_inf.items()
                                             if p + q == n}:
            raise CrossCheckError(f"H^{n}: the pairing and the kernel / image "
                                  "quotient disagree")
        monodromy[n] = nu_h = qm.induced_matrix(nus[n])
        chain = _n_chain(nu_h)
        ranks[n] = qm.dim - chain.ker(1).dim
        nilpotent_ok = nilpotent_ok and chain.ker(max(sd.max_level(), 1)).is_full()
        weight_graded[n] = {n - int(p): g for p, g in graded.items()}
        wfils[n] = IndexedFiltration.make(
            qm.dim, INCREASING, {r: fl.at(-r) for r in range(-hi, -lo + 1)})
        mfils[n] = IndexedFiltration.make(qm.dim, INCREASING, {
            r: convolution_step(nu_h, r, chain=chain) for r in range(-n - 1, n + 2)})
        mw[n] = mfils[n].same_filtration(wfils[n])
    return SteenbrinkAnalysis(h_dims, weight_graded, monodromy, ranks,
                              nilpotent_ok, wfils, mfils, mw)


def cycle_datum(n: int) -> SteenbrinkDatum:
    """Reduction shaped like a cycle of n >= 2 smooth rational components
    meeting in n points (component c_i meets c_{i+1 mod n} in point p_i).

    Components carry H^0 and H^2 of dimension 1; points carry H^0.  Signs
    follow the component order at each point."""
    if n < 2:
        raise PreconditionError("a cycle needs at least 2 components")
    comps = [f"c{i}" for i in range(n)]
    pts = [f"p{i}" for i in range(n)]
    dims = {}
    for c in comps:
        dims[c] = {0: 1, 2: 1}
    for p in pts:
        dims[p] = {0: 1}
    one = QMatrix.from_rows([[1]])
    restrictions = {}
    gysins = {}

    def sgn(ci: int, pi: int) -> int:
        # point p_i joins c_i (first) and c_{i+1 mod n} (second)
        return 1 if ci == pi else -1

    for pi in range(n):
        for ci in (pi, (pi + 1) % n):
            s = sgn(ci, pi)
            restrictions[(comps[ci], pts[pi])] = {0: one.scale(s)}
            gysins[(pts[pi], comps[ci])] = {0: one.scale(s)}
    return SteenbrinkDatum(
        d=1,
        levels={1: comps, 2: pts},
        dims=dims,
        restrictions=restrictions,
        gysins=gysins,
    )
