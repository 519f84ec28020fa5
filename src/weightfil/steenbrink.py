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
(i,j,t) -> (i-1,j+1,t), signed so that it is a chain map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .exact_linalg import QMatrix, Subspace
from .filtration import INCREASING, IndexedFiltration
from .phin import convolution_step
from .spectral import (FilteredComplex, GradedComplex, abutment_filtration,
                       abutment_quotient, total_cohomology_dims)


@dataclass
class SteenbrinkDatum:
    d: int                      # center degree (dimension of the situation)
    levels: dict                # t -> ordered list of stratum names
    dims: dict                  # name -> {degree m: dim}
    restrictions: dict          # (name_t, name_{t+1}) -> {m: QMatrix}
    gysins: dict                # (name_t, name_{t-1}) -> {m: QMatrix}

    def stratum_dim(self, name: str, m: int) -> int:
        return self.dims.get(name, {}).get(m, 0)

    def max_level(self) -> int:
        return max((t for t, names in self.levels.items() if names), default=0)

    def max_degree(self) -> int:
        return max((m for v in self.dims.values() for m, d in v.items() if d),
                   default=0)

    def validate(self) -> "SteenbrinkDatum":
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
        return self


class _Model:
    """Assembled double complex with coordinate bookkeeping."""

    def __init__(self, sd: SteenbrinkDatum):
        sd.validate()
        self.sd = sd
        tmax = sd.max_level()
        mmax = sd.max_degree()
        # summands per total degree n = i + j, ordered deterministically
        self.summands = {}
        nmax = mmax + tmax - 1 if tmax else 0
        for n in range(0, max(nmax, 0) + 1):
            lst = []
            for j in range(0, n + 1):
                i = n - j
                for t in range(j + 1, i + j + 2):
                    for idx, name in enumerate(sd.levels.get(t, [])):
                        m = i + j + 1 - t
                        dim = sd.stratum_dim(name, m)
                        if dim:
                            lst.append((i, j, t, name, m, dim))
            self.summands[n] = lst
        self.offsets = {}
        self.totals = {}
        for n, lst in self.summands.items():
            off = {}
            pos = 0
            for (i, j, t, name, m, dim) in lst:
                off[(i, j, t, name)] = (pos, dim)
                pos += dim
            self.offsets[n] = off
            self.totals[n] = pos

    def _accumulate(self, rows, tgt_off, tgt_key, mat, sign, src_pos, src_dim):
        if tgt_key not in tgt_off:
            return
        t0, tdim = tgt_off[tgt_key]
        for r in range(tdim):
            for c in range(src_dim):
                v = mat.entry(r, c)
                if v:
                    rows[t0 + r][src_pos + c] += sign * v

    def differential(self, n: int) -> QMatrix:
        src = self.summands.get(n, [])
        tgt_off = self.offsets.get(n + 1, {})
        tgt_dim = self.totals.get(n + 1, 0)
        src_dim = self.totals.get(n, 0)
        rows = [[Fraction(0)] * src_dim for _ in range(tgt_dim)]
        for (i, j, t, name, m, dim) in src:
            pos, _ = self.offsets[n][(i, j, t, name)]
            # gysin family, twisted by (-1)^j, defined for t >= j + 2
            if t >= j + 2:
                for nm2 in self.sd.levels.get(t - 1, []):
                    mat = self.sd.gysins.get((name, nm2), {}).get(m)
                    if mat is not None and not mat.is_zero():
                        self._accumulate(rows, tgt_off,
                                         (i + 1, j, t - 1, nm2), mat,
                                         -1 if j % 2 else 1, pos, dim)
            # restriction family
            for nm2 in self.sd.levels.get(t + 1, []):
                mat = self.sd.restrictions.get((name, nm2), {}).get(m)
                if mat is not None and not mat.is_zero():
                    self._accumulate(rows, tgt_off,
                                     (i, j + 1, t + 1, nm2), mat, 1, pos, dim)
        if tgt_dim and src_dim:
            return QMatrix.from_rows(rows)
        return QMatrix.zero(tgt_dim, src_dim)

    def monodromy_matrix(self, n: int) -> QMatrix:
        """The shift (i,j,t) -> (i-1,j+1,t), signed by (-1)^i, on degree n."""
        src = self.summands.get(n, [])
        off = self.offsets.get(n, {})
        dim_n = self.totals.get(n, 0)
        rows = [[Fraction(0)] * dim_n for _ in range(dim_n)]
        for (i, j, t, name, m, dim) in src:
            if i < 1 or t < j + 2:
                continue
            pos, _ = off[(i, j, t, name)]
            key = (i - 1, j + 1, t, name)
            if key not in off:
                continue
            t0, _ = off[key]
            sign = -1 if i % 2 else 1
            for r in range(dim):
                rows[t0 + r][pos + r] += sign
        return QMatrix.from_rows(rows) if dim_n else QMatrix.zero(0, 0)


def steenbrink_double_complex(sd: SteenbrinkDatum, model: _Model | None = None) -> FilteredComplex:
    """Total complex of the weight double complex, filtered by weight level
    (F^p collects summands with t - 2j - 1 <= -p); `model` reuses a _Model(sd)."""
    model = model or _Model(sd)
    spaces = dict(model.totals)
    diffs = {}
    for n in sorted(spaces):
        d = model.differential(n)
        if d.rows and d.cols:
            diffs[n] = d
    gc = GradedComplex(spaces, diffs)

    tmax = sd.max_level()
    filtration = {}
    blocks = {}
    labels = {}
    for n, lst in model.summands.items():
        total = model.totals[n]
        levels = {}
        for p in range(-(tmax - 1) if tmax else 0, tmax + 1):
            vecs = []
            for (i, j, t, name, m, dim) in lst:
                k = t - 2 * j - 1
                if k <= -p:
                    pos, _ = model.offsets[n][(i, j, t, name)]
                    for c in range(dim):
                        v = [Fraction(0)] * total
                        v[pos + c] = Fraction(1)
                        vecs.append(v)
            levels[p] = Subspace.from_vectors(total, vecs)
        filtration[n] = levels
        meta = []
        for (i, j, t, name, m, dim) in lst:
            p = -(t - 2 * j - 1)
            q = n - p
            if meta and meta[-1][:2] == (p, q):
                meta[-1] = (p, q, meta[-1][2] + dim)
            else:
                meta.append((p, q, dim))
            labels[(p, q)] = q  # pure of weight n + k = q, Tate twists included
        blocks[n] = meta
    try:
        return FilteredComplex(gc, filtration, blocks, labels)
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
    # the shift must commute with the assembled total differential
    for n in sorted(model.totals):
        nu_n = model.monodromy_matrix(n)
        nu_next = model.monodromy_matrix(n + 1)
        d_n = fc.complex.diff(n)
        if not (nu_next @ d_n - d_n @ nu_n).is_zero():
            raise PreconditionError("monodromy shift is not a chain map; "
                                    "inconsistent strata maps")
    h_dims = total_cohomology_dims(fc)
    weight_graded = {}
    monodromy = {}
    ranks = {}
    wfils = {}
    mfils = {}
    mw = {}
    from .exact_linalg import rank as mat_rank
    for n in sorted(h_dims):
        qm = abutment_quotient(fc, n)
        nu = model.monodromy_matrix(n)
        cols = [qm.coords(nu.apply(row)) for row in qm.comp_rows]
        nu_h = QMatrix.from_rows([[cols[j][i] for j in range(qm.dim)]
                                  for i in range(qm.dim)])
        monodromy[n] = nu_h
        ranks[n] = mat_rank(nu_h)
        fl = abutment_filtration(fc, n)
        weight_graded[n] = {n - int(p): g for p, g in fl.graded_dims().items()}
        lo, hi = fc.p_range()
        p_steps = {r: fl.at(-r) for r in range(-hi, -lo + 1)}
        wfil = IndexedFiltration.make(qm.dim, INCREASING, p_steps)
        wfils[n] = wfil
        m_steps = {r: convolution_step(nu_h, r) for r in range(-n - 1, n + 2)}
        mfil = IndexedFiltration.make(qm.dim, INCREASING, m_steps)
        mfils[n] = mfil
        mw[n] = mfil.same_filtration(wfil)
    # N^(max level) vanishes on the abutment: levels deeper than the maximal
    # stratum intersection do not exist
    nilpotent_ok = all(m.power(max(sd.max_level(), 1)).is_zero()
                       for m in monodromy.values())
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
