"""Spectral sequences of bounded filtered cochain complexes over Q.

The pages are defined by the subquotient formulas

    Z_r^{p,q} = F^p C^n  /\\  d^{-1}(F^{p+r} C^{n+1})          (n = p+q)
    E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2})

with d_r induced by d; the tests compute them that way, as an oracle.  Here
every page is read off one persistence pairing per complex (Zomorodian &
Carlsson 2005; Basu & Parida 2017): d is written in bases adapted to the
filtration and its columns are reduced, so that it pairs basis vectors.  A
pair from level p in degree n to level p' in degree n + 1 has length
r = p' - p; both ends count in E_r' for every r' <= r, and d_r is the 0/1
partial identity on the pairs of length r.  Unpaired vectors count on
every page.

Filtrations are decreasing, exhaustive and bounded, with d(F^p) <= F^p.
Constructing a FilteredComplex is the one pass that writes d in adapted
bases: it checks these conditions and d o d = 0 there and keeps the
pairing, off which pages, dim H^n and dim gr^p H^n (the E_infinity
diagonal) are read.  Only the abutment filtration, for Steenbrink, is built
from kernel / image quotients.  All are kept on the complex: do not mutate it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby

from .errors import FiltrationError, PreconditionError
from .exact_linalg import (QMatrix, QuotientMap, Subspace, _integer_row, _primitive,
                           extend_basis, image, inverse, kernel, subspace_intersect)
from .filtration import DECREASING, IndexedFiltration


@dataclass(frozen=True)
class GradedComplex:
    """Cochain complex: spaces[n] = dim C^n, differentials[n]: C^n -> C^(n+1)."""

    spaces: dict
    differentials: dict

    def __post_init__(self):
        self.validate()

    def validate(self):
        for n, m in self.differentials.items():
            if m.cols != self.spaces.get(n, 0) or m.rows != self.spaces.get(n + 1, 0):
                raise PreconditionError(f"differential at degree {n} has wrong shape")
            nxt = self.differentials.get(n + 1)
            if nxt is not None and not (nxt @ m).is_zero():
                raise PreconditionError(f"d o d != 0 at degree {n}")

    def degrees(self) -> list:
        return sorted(k for k, v in self.spaces.items() if v)

    def dim(self, n: int) -> int:
        return self.spaces.get(n, 0)

    def diff(self, n: int) -> QMatrix:
        m = self.differentials.get(n)
        if m is None:
            return QMatrix.zero(self.dim(n + 1), self.dim(n))
        return m

    def cohomology_dim(self, n: int) -> int:
        z = kernel(self.diff(n))
        b = image(self.diff(n - 1))
        return z.dim - b.dim


class DirectSum:
    """Coordinates of the direct sum of summands [(key, dim)], laid out in
    order: summand `key` holds coordinates offsets[key] .. offsets[key] + dim."""

    def __init__(self, summands):
        self.offsets = {}
        self.dim = 0
        for key, dim in summands:
            self.offsets[key] = self.dim
            self.dim += dim


def block_matrix(src: DirectSum, tgt: DirectSum, blocks) -> QMatrix:
    """The map src -> tgt that sends source summand `key` by the sum of
    sign * mat over the (target key, mat, sign) that blocks(key) yields;
    blocks into target keys absent from tgt are skipped."""
    rows = [[Fraction(0)] * src.dim for _ in range(tgt.dim)]
    for key, c0 in src.offsets.items():
        for tkey, mat, sign in blocks(key):
            r0 = tgt.offsets.get(tkey)
            if r0 is None:
                continue
            for i in range(mat.rows):
                row = rows[r0 + i]
                for k, v in enumerate(mat.row(i)):
                    if v:
                        row[c0 + k] += sign * v
    if tgt.dim and src.dim:
        return QMatrix.from_rows(rows)
    return QMatrix.zero(tgt.dim, src.dim)


def total_complex(sums: dict, blocks) -> GradedComplex:
    """Complex on the direct sums sums[n] with d^n = block_matrix(sums[n],
    sums[n + 1], blocks)."""
    empty = DirectSum([])
    diffs = {n: block_matrix(s, sums.get(n + 1, empty), blocks) for n, s in sums.items()}
    return GradedComplex({n: s.dim for n, s in sums.items()},
                         {n: d for n, d in diffs.items() if d.rows and d.cols})


def filtered_total_complex(summands: dict, blocks, levels, label) -> FilteredComplex:
    """Total complex of a double complex whose degree-n summands, in
    coordinate order, are summands[n] = [(key, p, q, dim)], with the
    differential blocks of total_complex.  F^p at each p in `levels` is the
    span of the coordinates of the summands with filtration index >= p;
    `blocks` merges adjacent summands with the same (p, q) and `labels` maps
    each (p, q) to label(p, q)."""
    sums = {n: DirectSum((key, dim) for key, _, _, dim in lst)
            for n, lst in summands.items()}
    filtration = {}
    meta = {}
    labels = {}
    for n, lst in summands.items():
        offsets = sums[n].offsets
        filtration[n] = {lvl: Subspace.coordinates(sums[n].dim, [
            offsets[key] + c for key, p, _, dim in lst if p >= lvl for c in range(dim)])
            for lvl in levels}
        meta[n] = [(p, q, sum(s[3] for s in group))
                   for (p, q), group in groupby(lst, key=lambda s: s[1:3])]
        labels.update(((p, q), label(p, q)) for _, p, q, _ in lst)
    return FilteredComplex(total_complex(sums, blocks), filtration, meta, labels)


@dataclass(frozen=True)
class FilteredComplex:
    """GradedComplex plus per-degree decreasing filtration subspaces.

    filtration[n][p] = F^p C^n at the listed levels; below the smallest
    listed level the filtration is the full space, above the largest it is
    zero.  `blocks` and `labels` optionally record a bigraded summand
    decomposition, consecutive slices of coordinates each tagged (p, q),
    where one (p, q) may tag several slices apart, and the Frobenius weight
    label attached to each (p, q); `filtered_total_complex` fills these in
    for complexes assembled from double complexes.
    """

    complex: GradedComplex
    filtration: dict
    blocks: dict | None = None    # degree -> ordered list of (p, q, size)
    labels: dict | None = None    # (p, q) -> weight label
    # "pairing" -> (levels, pairs), kept by validate; ("page", r) -> Page;
    # ("quotient", n) -> QuotientMap; ("abutment", n) -> IndexedFiltration
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    def p_range(self) -> tuple:
        ps = [p for fl in self.filtration.values() for p in fl]
        if not ps:
            return (0, 0)
        return (min(ps), max(ps))

    def fil_at(self, n: int, p: int) -> Subspace:
        dim_n = self.complex.dim(n)
        levels = self.filtration.get(n, {})
        if not levels:
            return Subspace.full(dim_n) if p <= 0 else Subspace.zero(dim_n)
        keys = sorted(levels)
        if p <= keys[0]:
            return Subspace.full(dim_n) if p < keys[0] else levels[keys[0]]
        for k in keys:
            if k >= p:
                return levels[k]
        return Subspace.zero(dim_n)

    def validate(self):
        """Check the filtration, and keep the pairing; the complex checked
        d o d = 0 when it was built.  The levels nest iff extend_basis builds
        each degree's adapted basis from the top down; d respects F iff no
        column of d in those bases has a nonzero row of lower level, and
        d(F^p) <= F^p first fails one above the lowest."""
        lo, hi = self.p_range()
        levels, basis = {}, {}
        for n, dim_n in self.complex.spaces.items():
            if any(s.ambient_dim != dim_n for s in self.filtration.get(n, {}).values()):
                raise FiltrationError(f"filtration ambient mismatch at degree {n}")
            levels[n], basis[n] = [], []
            prev = Subspace.zero(dim_n)
            for p in range(hi + 1, lo - 1, -1):
                cur = self.fil_at(n, p)
                if cur != prev:
                    try:
                        new = extend_basis(prev, cur)
                    except ValueError:
                        raise FiltrationError(f"filtration not decreasing at degree {n}")
                    basis[n] += new
                    levels[n] += [p] * len(new)
                prev = cur
            if not prev.is_full():
                raise FiltrationError(f"filtration not exhaustive at degree {n}")
            if hi + 1 in levels[n]:
                raise FiltrationError(f"filtration not bounded at degree {n}")
        cols = {}
        for n in levels:
            if not (levels[n] and levels.get(n + 1)):
                continue
            # with the adapted bases as the rows of B_n and B_(n+1), row i of
            # B_n d^T B_(n+1)^-1 is column i of d in those bases
            m = (QMatrix.from_rows(basis[n]) @ self.complex.diff(n).transpose()
                 @ inverse(QMatrix.from_rows(basis[n + 1])))
            cols[n] = [_integer_row(m.row(i)) for i in range(m.rows)]
            bad = [levels[n + 1][low] for low, p in zip(map(_lowest, cols[n]), levels[n])
                   if low is not None and levels[n + 1][low] < p]
            if bad:
                raise FiltrationError(f"differential does not respect filtration "
                                      f"at degree {n}, level {min(bad) + 1}")
        self._memo["pairing"] = levels, _pairing(levels, cols)


@dataclass(frozen=True)
class Page:
    """Spectral sequence page: entry dims and d_r matrices keyed by (p, q)."""

    r: int
    entries: dict
    differentials: dict

    def entry(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)


def _pairing(levels: dict, cols: dict) -> list:
    """The persistence pairing [(n, i, j, r)] of d in adapted bases.

    levels[n] lists the level of each vector of a basis of C^n adapted to
    the filtration, by decreasing level, so that each F^p C^n is spanned by
    a prefix; cols[n] lists the columns of d^n in those bases as integer
    rows.  After the columns are reduced from left to right, column i of
    degree n has its lowest nonzero entry, the one of lowest level, in row
    j, and r = levels[n + 1][j] - levels[n][i].  Each basis vector lies in
    at most one pair.
    """
    pairs = []
    for n, rows in cols.items():
        reduced = {}    # lowest nonzero row -> the reduced column owning it
        for i, col in enumerate(rows):
            low = _lowest(col)
            while low in reduced:
                other = reduced[low]
                col = _primitive([other[low] * x - col[low] * y
                                  for x, y in zip(col, other)])
                low = _lowest(col)
            if low is not None:
                reduced[low] = col
                pairs.append((n, i, low, levels[n + 1][low] - levels[n][i]))
    return pairs


def _lowest(col: list):
    """Index of the last nonzero entry, or None for a zero column."""
    return next((k for k in range(len(col) - 1, -1, -1) if col[k]), None)


def e_page(fc: FilteredComplex, r: int) -> Page:
    """Page E_r with its d_r: E_r^{p,q} -> E_r^{p+r, q-r+1}, in the basis of
    the basis vectors that are unpaired or lie in a pair of length >= r."""
    if r < 0:
        raise PreconditionError("page index must be >= 0")
    if ("page", r) in fc._memo:
        return fc._memo[("page", r)]
    levels, pairs = fc._memo["pairing"]
    short = {end for n, i, j, length in pairs if length < r for end in ((n, i), (n + 1, j))}
    position, entries = {}, {}      # position: (n, i) -> index within its entry
    for n, lv in levels.items():
        for i, p in enumerate(lv):
            if (n, i) not in short:
                position[(n, i)] = entries.get((p, n - p), 0)
                entries[(p, n - p)] = position[(n, i)] + 1
    diffs = {}
    for n, i, j, length in pairs:
        if length == r:
            src = (levels[n][i], n - levels[n][i])
            if src not in diffs:
                diffs[src] = [[0] * entries[src]
                              for _ in range(entries[(src[0] + r, src[1] - r + 1)])]
            diffs[src][position[(n + 1, j)]][position[(n, i)]] = 1
    page = fc._memo[("page", r)] = Page(
        r, entries, {pq: QMatrix.from_rows(rows) for pq, rows in diffs.items()})
    return page


def stable_page_index(fc: FilteredComplex) -> int:
    """Index from which all pages coincide for boundedness reasons."""
    lo, hi = fc.p_range()
    return max(hi - lo + 1, 1)


def degeneration_page(fc: FilteredComplex, bound: int):
    """Smallest r <= bound with d_s = 0 for all r <= s <= bound, or None
    when differentials persist at the bound (bound-censored).  Bound 0 is
    censored: no r >= 1 lies within it."""
    if bound < 0:
        raise PreconditionError("bound must be >= 0")
    last_nonzero = max((length for *_, length in fc._memo["pairing"][1]
                        if 1 <= length <= bound), default=0)
    if last_nonzero == bound:
        return None
    return last_nonzero + 1


def total_cohomology_dims(fc: FilteredComplex) -> dict:
    """{n: dim H^n(total)} where nonzero: the E_infinity diagonal sums."""
    out = Counter()
    for (p, q), d in e_page(fc, stable_page_index(fc)).entries.items():
        out[p + q] += d
    return dict(sorted(out.items()))


def abutment_quotient(fc: FilteredComplex, n: int) -> QuotientMap:
    """Coordinates on H^n(total) = ker d^n / im d^(n-1)."""
    if ("quotient", n) not in fc._memo:
        fc._memo[("quotient", n)] = QuotientMap(image(fc.complex.diff(n - 1)),
                                                kernel(fc.complex.diff(n)))
    return fc._memo[("quotient", n)]


def abutment_filtration(fc: FilteredComplex, n: int) -> IndexedFiltration:
    """Decreasing filtration induced on H^n(total); its graded dims equal
    the E_infinity dims on the diagonal p + q = n."""
    if ("abutment", n) in fc._memo:
        return fc._memo[("abutment", n)]
    qm = abutment_quotient(fc, n)
    lo, hi = fc.p_range()
    z = qm.outer
    steps = {}
    for p in range(lo, hi + 2):
        zp = subspace_intersect(z, fc.fil_at(n, p))
        steps[p] = qm.subspace_image(zp)
    fl = fc._memo[("abutment", n)] = IndexedFiltration.make(qm.dim, DECREASING, steps)
    return fl


def equivariant_degeneration_check(fc: FilteredComplex, bound: int | None = None) -> bool:
    """True iff every d_r for r >= 2 vanishes, with the complex-level
    differential validated against the block weight labels first.

    A nonzero differential component between blocks carrying different
    labels is label-inconsistent input and raises; a nonzero d_r between
    equal labels returns False (degeneration is not forced).
    """
    if fc.blocks is None or fc.labels is None:
        raise PreconditionError("weight labels are required for the equivariant check")
    for n in fc.complex.degrees():
        d = fc.complex.diff(n)
        src = _block_slices(fc, n)
        tgt = _block_slices(fc, n + 1)
        for pq_s, (s0, s1) in src:
            for pq_t, (t0, t1) in tgt:
                if fc.labels[pq_s] == fc.labels[pq_t]:
                    continue
                if any(d.entry(i, j) != 0 for i in range(t0, t1) for j in range(s0, s1)):
                    raise PreconditionError(
                        f"label-inconsistent differential {pq_s} -> {pq_t}")
    if bound is None:
        bound = stable_page_index(fc) + 1
    return not any(2 <= length <= bound for *_, length in fc._memo["pairing"][1])


def _block_slices(fc: FilteredComplex, n: int) -> list:
    """[((p, q), (start, stop))] per block of degree n, in coordinate order;
    one (p, q) may own several slices."""
    out = []
    pos = 0
    for (p, q, size) in fc.blocks.get(n, []):
        out.append(((p, q), (pos, pos + size)))
        pos += size
    return out


def abutment_labels(fc: FilteredComplex, n: int) -> dict:
    """{p: {"dim": dim gr^p H^n = E_infinity^{p,n-p}, "label": the label of
    row q = n - p}} over the nonzero graded pieces of the abutment on H^n."""
    if fc.labels is None:
        raise PreconditionError("complex carries no weight labels")
    entries = e_page(fc, stable_page_index(fc)).entries
    return {p: {"dim": d, "label": fc.labels.get((p, q))}
            for (p, q), d in sorted(entries.items()) if p + q == n}
